//! Session checkpoints: restarts that replay only the journal's tail.
//!
//! A full replay costs O(run length). This module periodically
//! checkpoints each session's full state — the
//! [`AskTellSession`](mlconf_tuners::session::AskTellSession) resume
//! state plus the tuner's [`TunerState`] — through the service's
//! bit-exact JSON codec, together with the journal position that state
//! corresponds to.
//!
//! # On-disk layout (per session `<id>`)
//!
//! - `<id>.jsonl` — the journal ([`crate::journal`]): every record since
//!   `create`, only ever appended to or cut back to its last newline.
//! - `<id>.snap` — the latest checkpoint, one checksummed JSON line
//!   holding the session's state and `offset`, the journal's byte length
//!   just after the last record that state covers.
//!
//! A `.snap` is a cache the journal can always rebuild, so [`load`]
//! refuses one this build did not write — any key missing, added or
//! spelled differently — and revival replays the journal instead.
//!
//! # Installation
//!
//! [`install`] writes `<id>.snap.tmp`, fsyncs it, renames it over
//! `<id>.snap` and fsyncs the directory: two fsyncs and one rename, and
//! it reads no file. The journal is never touched, so a crash at any
//! point leaves a journal holding every acknowledged record (plus at
//! most a torn tail), next to the previous checkpoint or none, and at
//! most a stray `.snap.tmp` that nothing reads.
//!
//! # Restore contract
//!
//! Revival loads the `.snap`, checks that its `offset` is a record
//! boundary inside the journal, and replays only the records after it;
//! a missing, torn, corrupt, foreign or rejected checkpoint falls back
//! to replaying the journal from byte 0. A checkpoint restores
//! bit-identically: the session resume state carries the driver RNG
//! position and float accumulators through the tagged
//! shortest-round-trip codec, and the tuner state round-trips through
//! [`Tuner::checkpoint`](mlconf_tuners::tuner::Tuner::checkpoint) and
//! [`Tuner::restore`](mlconf_tuners::tuner::Tuner::restore). Golden
//! tests assert snapshot recovery ≡ full-journal replay at seeds
//! {11, 22, 33} including faults and censoring. Tuners without
//! checkpoint support simply never get a `.snap` and keep full-replay
//! recovery.

use crate::api::{
    config_from_json, config_to_json, num_from_json, outcome_from_json, outcome_to_json,
    pending_to_json, spec_from_json, spec_to_json, tagged_num, ApiError, SessionSpec,
};
use crate::journal::fsync_dir;
use crate::json::{obj, parse, Json};
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::session::{ExecStats, PendingTrial, SessionResumeState, StopReason};
use mlconf_tuners::tuner::{StateValue, TrialHistory, TunerState};
use mlconf_util::hash::fnv1a;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The on-disk files backing one session.
#[derive(Debug, Clone)]
pub struct SessionFiles {
    /// The journal (`<id>.jsonl`).
    pub journal: PathBuf,
    /// Latest checkpoint (`<id>.snap`).
    pub snap: PathBuf,
}

impl SessionFiles {
    /// File paths for session `id` under `journal_dir`.
    pub fn new(journal_dir: &Path, id: &str) -> Self {
        SessionFiles {
            journal: journal_dir.join(format!("{id}.jsonl")),
            snap: journal_dir.join(format!("{id}.snap")),
        }
    }

    /// Removes the session's files, plus any temp file a crashed
    /// checkpoint left behind (session deletion). Best-effort. The
    /// journal goes last: discovery keys on it, so a crash part-way
    /// leaves the session listed, never a checkpoint without its journal.
    pub fn remove_all(&self) {
        std::fs::remove_file(self.snap.with_extension("snap.tmp")).ok();
        std::fs::remove_file(&self.snap).ok();
        std::fs::remove_file(&self.journal).ok();
    }
}

/// One full checkpoint of a served session.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// The journal's byte length just after the last record this
    /// checkpoint covers: revival replays the records from here on.
    pub offset: u64,
    /// The creating spec.
    pub spec: SessionSpec,
    /// The state machine's non-derivable fields.
    pub session: SessionResumeState,
    /// The tuner's checkpoint.
    pub tuner: TunerState,
    /// Duplicate-rejection state: the last applied report's dedup key
    /// and the exact response it was acknowledged with.
    pub last_report: Option<(String, Json)>,
}

fn u128_to_json(v: u128) -> Json {
    Json::Str(v.to_string())
}

fn u128_from_json(v: &Json, key: &str) -> Result<u128, ApiError> {
    v.as_str()
        .and_then(|s| s.parse::<u128>().ok())
        .ok_or_else(|| ApiError(format!("`{key}` is not a u128 decimal string")))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError(format!("missing snapshot field `{key}`")))
}

fn num_field(v: &Json, key: &str) -> Result<f64, ApiError> {
    num_from_json(field(v, key)?, key)
}

fn usize_field(v: &Json, key: &str) -> Result<usize, ApiError> {
    field(v, key)?
        .as_i64()
        .filter(|&n| n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| ApiError(format!("`{key}` must be a non-negative integer")))
}

fn history_to_json(history: &TrialHistory) -> Json {
    Json::Arr(
        history
            .trials()
            .iter()
            .map(|t| {
                obj([
                    ("config", config_to_json(&t.config)),
                    ("outcome", outcome_to_json(&t.outcome)),
                ])
            })
            .collect(),
    )
}

fn history_from_json(space: &ConfigSpace, v: &Json) -> Result<TrialHistory, ApiError> {
    let mut history = TrialHistory::new();
    for t in v
        .as_arr()
        .ok_or_else(|| ApiError("`history` must be an array".into()))?
    {
        history.push(
            config_from_json(space, field(t, "config")?)?,
            outcome_from_json(field(t, "outcome")?)?,
        );
    }
    Ok(history)
}

fn pending_from_json(space: &ConfigSpace, v: &Json) -> Result<PendingTrial, ApiError> {
    Ok(PendingTrial {
        trial: usize_field(v, "trial")?,
        config: config_from_json(space, field(v, "config")?)?,
        rep: field(v, "rep")?
            .as_i64()
            .filter(|&r| r >= 0)
            .ok_or_else(|| ApiError("`rep` must be a non-negative integer".into()))?
            as u64,
        fidelity: num_field(v, "fidelity")?,
    })
}

fn exec_to_json(s: &ExecStats) -> Json {
    obj([
        ("timeouts", Json::Num(s.timeouts as f64)),
        ("crashes", Json::Num(s.crashes as f64)),
        ("ooms", Json::Num(s.ooms as f64)),
        ("retries", Json::Num(s.retries as f64)),
        ("wasted_machine_secs", tagged_num(s.wasted_machine_secs)),
        ("backoff_secs", tagged_num(s.backoff_secs)),
    ])
}

fn stop_reason_from_json(v: &Json, key: &str) -> Result<Option<StopReason>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => StopReason::from_name(s)
            .map(Some)
            .ok_or_else(|| ApiError(format!("unknown stop reason `{s}`"))),
        Some(_) => Err(ApiError(format!("`{key}` must be a string or null"))),
    }
}

fn exec_from_json(v: &Json) -> Result<ExecStats, ApiError> {
    Ok(ExecStats {
        timeouts: usize_field(v, "timeouts")?,
        crashes: usize_field(v, "crashes")?,
        ooms: usize_field(v, "ooms")?,
        retries: usize_field(v, "retries")?,
        wasted_machine_secs: num_field(v, "wasted_machine_secs")?,
        backoff_secs: num_field(v, "backoff_secs")?,
    })
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ApiError> {
    field(v, key)?
        .as_i64()
        .filter(|&n| n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| ApiError(format!("`{key}` must be a non-negative integer")))
}

fn drift_to_json(d: &mlconf_tuners::drift::DriftResumeState) -> Json {
    obj([
        (
            "key_stats",
            Json::Arr(
                d.key_stats
                    .iter()
                    .map(|(key, n, mean_log)| {
                        obj([
                            ("key", Json::Str(key.clone())),
                            ("n", Json::Num(*n as f64)),
                            ("mean_log", tagged_num(*mean_log)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ph_pos", tagged_num(d.ph_pos)),
        ("ph_neg", tagged_num(d.ph_neg)),
        ("matched", Json::Num(d.matched as f64)),
        (
            "probe_queue",
            Json::Arr(d.probe_queue.iter().map(config_to_json).collect()),
        ),
        ("since_probe", Json::Num(d.since_probe as f64)),
        ("since_retune", Json::Num(d.since_retune as f64)),
        ("stale_before", Json::Num(d.stale_before as f64)),
        ("retuning", Json::Bool(d.retuning)),
        ("retune_count", Json::Num(d.retune_count as f64)),
        ("drift_events", Json::Num(d.drift_events as f64)),
    ])
}

fn drift_from_json(
    space: &ConfigSpace,
    v: &Json,
) -> Result<mlconf_tuners::drift::DriftResumeState, ApiError> {
    let key_stats = field(v, "key_stats")?
        .as_arr()
        .ok_or_else(|| ApiError("`key_stats` must be an array".into()))?
        .iter()
        .map(|e| {
            Ok((
                field(e, "key")?
                    .as_str()
                    .ok_or_else(|| ApiError("`key_stats.key` must be a string".into()))?
                    .to_owned(),
                u64_field(e, "n")?,
                num_field(e, "mean_log")?,
            ))
        })
        .collect::<Result<_, ApiError>>()?;
    let probe_queue = field(v, "probe_queue")?
        .as_arr()
        .ok_or_else(|| ApiError("`probe_queue` must be an array".into()))?
        .iter()
        .map(|c| config_from_json(space, c))
        .collect::<Result<_, _>>()?;
    Ok(mlconf_tuners::drift::DriftResumeState {
        key_stats,
        ph_pos: num_field(v, "ph_pos")?,
        ph_neg: num_field(v, "ph_neg")?,
        matched: u64_field(v, "matched")?,
        probe_queue,
        since_probe: usize_field(v, "since_probe")?,
        since_retune: usize_field(v, "since_retune")?,
        stale_before: usize_field(v, "stale_before")?,
        retuning: field(v, "retuning")?
            .as_bool()
            .ok_or_else(|| ApiError("`retuning` must be a bool".into()))?,
        retune_count: usize_field(v, "retune_count")?,
        drift_events: usize_field(v, "drift_events")?,
    })
}

fn session_to_json(s: &SessionResumeState) -> Json {
    obj([
        ("history", history_to_json(&s.history)),
        ("rng_state", u128_to_json(s.rng.0)),
        ("rng_inc", u128_to_json(s.rng.1)),
        (
            "warm_queue",
            Json::Arr(s.warm_queue.iter().map(config_to_json).collect()),
        ),
        (
            "acq_below",
            Json::Arr(s.acq_below.iter().map(|&n| Json::Num(n as f64)).collect()),
        ),
        ("cost_secs", tagged_num(s.cost_secs)),
        ("wall_secs", tagged_num(s.wall_secs)),
        (
            "stop_reason",
            s.stop_reason
                .map_or(Json::Null, |r| Json::Str(r.name().into())),
        ),
        (
            "pending",
            s.pending.as_ref().map_or(Json::Null, pending_to_json),
        ),
        ("finished", Json::Bool(s.finished)),
        ("stats", exec_to_json(&s.exec)),
        ("drift", s.drift.as_ref().map_or(Json::Null, drift_to_json)),
    ])
}

fn session_from_json(space: &ConfigSpace, v: &Json) -> Result<SessionResumeState, ApiError> {
    let warm_queue = field(v, "warm_queue")?
        .as_arr()
        .ok_or_else(|| ApiError("`warm_queue` must be an array".into()))?
        .iter()
        .map(|c| config_from_json(space, c))
        .collect::<Result<_, _>>()?;
    let acq_below = field(v, "acq_below")?
        .as_arr()
        .ok_or_else(|| ApiError("`acq_below` must be an array".into()))?
        .iter()
        .map(|n| {
            n.as_i64()
                .filter(|&x| x >= 0)
                .map(|x| x as usize)
                .ok_or_else(|| ApiError("`acq_below` entries must be non-negative".into()))
        })
        .collect::<Result<_, _>>()?;
    let pending = match v.get("pending") {
        None | Some(Json::Null) => None,
        Some(p) => Some(pending_from_json(space, p)?),
    };
    let drift = match field(v, "drift")? {
        Json::Null => None,
        d => Some(drift_from_json(space, d)?),
    };
    Ok(SessionResumeState {
        history: history_from_json(space, field(v, "history")?)?,
        rng: (
            u128_from_json(field(v, "rng_state")?, "rng_state")?,
            u128_from_json(field(v, "rng_inc")?, "rng_inc")?,
        ),
        warm_queue,
        acq_below,
        cost_secs: num_field(v, "cost_secs")?,
        wall_secs: num_field(v, "wall_secs")?,
        stop_reason: stop_reason_from_json(v, "stop_reason")?,
        pending,
        finished: field(v, "finished")?
            .as_bool()
            .ok_or_else(|| ApiError("`finished` must be a bool".into()))?,
        exec: exec_from_json(field(v, "stats")?)?,
        drift,
    })
}

fn state_value_to_json(v: &StateValue) -> Json {
    match v {
        StateValue::U64(n) => obj([("t", Json::Str("u64".into())), ("v", Json::Num(*n as f64))]),
        StateValue::U128(n) => obj([("t", Json::Str("u128".into())), ("v", u128_to_json(*n))]),
        StateValue::F64(x) => obj([("t", Json::Str("f64".into())), ("v", tagged_num(*x))]),
        StateValue::Str(s) => obj([("t", Json::Str("str".into())), ("v", Json::Str(s.clone()))]),
        StateValue::F64List(xs) => obj([
            ("t", Json::Str("f64s".into())),
            ("v", Json::Arr(xs.iter().map(|&x| tagged_num(x)).collect())),
        ]),
        StateValue::Config(c) => obj([("t", Json::Str("config".into())), ("v", config_to_json(c))]),
        StateValue::ConfigList(cs) => obj([
            ("t", Json::Str("configs".into())),
            ("v", Json::Arr(cs.iter().map(config_to_json).collect())),
        ]),
    }
}

fn state_value_from_json(space: &ConfigSpace, v: &Json) -> Result<StateValue, ApiError> {
    let tag = field(v, "t")?
        .as_str()
        .ok_or_else(|| ApiError("state value tag must be a string".into()))?;
    let val = field(v, "v")?;
    Ok(match tag {
        "u64" => StateValue::U64(
            val.as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| ApiError("u64 state value out of range".into()))? as u64,
        ),
        "u128" => StateValue::U128(u128_from_json(val, "v")?),
        "f64" => StateValue::F64(num_from_json(val, "v")?),
        "str" => StateValue::Str(
            val.as_str()
                .ok_or_else(|| ApiError("str state value must be a string".into()))?
                .to_owned(),
        ),
        "f64s" => StateValue::F64List(
            val.as_arr()
                .ok_or_else(|| ApiError("f64s state value must be an array".into()))?
                .iter()
                .map(|x| num_from_json(x, "v"))
                .collect::<Result<_, _>>()?,
        ),
        "config" => StateValue::Config(config_from_json(space, val)?),
        "configs" => StateValue::ConfigList(
            val.as_arr()
                .ok_or_else(|| ApiError("configs state value must be an array".into()))?
                .iter()
                .map(|c| config_from_json(space, c))
                .collect::<Result<_, _>>()?,
        ),
        other => return Err(ApiError(format!("unknown state value tag `{other}`"))),
    })
}

fn tuner_state_to_json(state: &TunerState) -> Json {
    Json::Arr(
        state
            .fields()
            .iter()
            .map(|(k, v)| obj([("k", Json::Str(k.clone())), ("val", state_value_to_json(v))]))
            .collect(),
    )
}

fn tuner_state_from_json(space: &ConfigSpace, v: &Json) -> Result<TunerState, ApiError> {
    let mut fields = Vec::new();
    for entry in v
        .as_arr()
        .ok_or_else(|| ApiError("tuner state must be an array".into()))?
    {
        let key = field(entry, "k")?
            .as_str()
            .ok_or_else(|| ApiError("tuner state key must be a string".into()))?
            .to_owned();
        fields.push((key, state_value_from_json(space, field(entry, "val")?)?));
    }
    Ok(TunerState::from_fields(fields))
}

/// Encodes a snapshot as its on-disk JSON (without the checksum frame).
pub fn snapshot_to_json(s: &SnapshotData) -> Json {
    let last_report = s.last_report.as_ref().map_or(Json::Null, |(k, resp)| {
        obj([("key", Json::Str(k.clone())), ("response", resp.clone())])
    });
    obj([
        ("offset", Json::Num(s.offset as f64)),
        ("spec", spec_to_json(&s.spec)),
        ("session", session_to_json(&s.session)),
        ("tuner", tuner_state_to_json(&s.tuner)),
        ("last_report", last_report),
    ])
}

/// Decodes a snapshot from its on-disk JSON.
///
/// # Errors
///
/// Returns [`ApiError`] on any missing or mistyped field.
pub fn snapshot_from_json(v: &Json) -> Result<SnapshotData, ApiError> {
    let spec = spec_from_json(field(v, "spec")?)?;
    let space = spec.space();
    let last_report = match v.get("last_report") {
        None | Some(Json::Null) => None,
        Some(lr) => Some((
            field(lr, "key")?
                .as_str()
                .ok_or_else(|| ApiError("`last_report.key` must be a string".into()))?
                .to_owned(),
            field(lr, "response")?.clone(),
        )),
    };
    Ok(SnapshotData {
        offset: u64_field(v, "offset")?,
        session: session_from_json(&space, field(v, "session")?)?,
        tuner: tuner_state_from_json(&space, field(v, "tuner")?)?,
        spec,
        last_report,
    })
}

/// Loads and verifies a checkpoint file. Returns `None` — never an
/// error — on a missing, torn, corrupt, or checksum-failing file, and
/// on one this build did not write (its data does not re-encode to the
/// same tree): every such case falls back to full-journal replay.
pub fn load(path: &Path) -> Option<SnapshotData> {
    let content = std::fs::read_to_string(path).ok()?;
    let frame = parse(content.trim_end()).ok()?;
    let crc = frame.get("crc")?.as_str()?;
    let data = frame.get("data")?;
    let rendered = data.render();
    if format!("{:016x}", fnv1a(rendered.as_bytes())) != crc {
        return None;
    }
    let snap = snapshot_from_json(data).ok()?;
    (snapshot_to_json(&snap) == *data).then_some(snap)
}

/// Installs a checkpoint atomically: writes it to `<snap>.tmp`,
/// fsyncs, renames it over `snap` and fsyncs the directory.
///
/// # Errors
///
/// Propagates I/O errors; the caller logs and keeps serving (a failed
/// checkpoint only costs restart speed, never correctness — the
/// previous `.snap`, if any, stays in place until the rename).
pub fn install(snap: &Path, data: &SnapshotData) -> std::io::Result<()> {
    let dir = snap
        .parent()
        .ok_or_else(|| std::io::Error::other("snapshot path has no parent"))?;
    // The frame `{"crc":…,"data":…}` as `obj` would render it, with the
    // data rendered once for both the checksum and the file.
    let data = snapshot_to_json(data).render();
    let line = format!(
        "{{\"crc\":\"{:016x}\",\"data\":{data}}}\n",
        fnv1a(data.as_bytes())
    );
    let tmp = snap.with_extension("snap.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(line.as_bytes())?;
    f.sync_data()?;
    std::fs::rename(&tmp, snap)?;
    fsync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_torn_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("mlconf_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.snap");
        assert!(load(&path).is_none(), "missing file");
        std::fs::write(&path, "{\"crc\":\"0000").unwrap();
        assert!(load(&path).is_none(), "torn file");
        std::fs::write(&path, "{\"crc\":\"0000000000000000\",\"data\":{}}").unwrap();
        assert!(load(&path).is_none(), "checksum mismatch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn install_writes_the_framed_checkpoint_and_load_reads_it_back() {
        let dir = std::env::temp_dir().join(format!("mlconf_snap_install_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = parse(r#"{"tuner":"random","budget":3,"seed":1}"#).unwrap();
        let data = SnapshotData {
            offset: 120,
            spec: spec_from_json(&spec).unwrap(),
            session: mlconf_tuners::session::AskTellSession::new(3, 1).resume_state(),
            tuner: TunerState::new(),
            last_report: Some(("t0".into(), obj([("trial", Json::Num(0.0))]))),
        };
        let path = dir.join("s1.snap");
        install(&path, &data).unwrap();
        assert!(!dir.join("s1.snap.tmp").exists());

        // The bytes are the frame rendered as one JSON object.
        let json = snapshot_to_json(&data);
        let crc = format!("{:016x}", fnv1a(json.render().as_bytes()));
        let frame = obj([("crc", Json::Str(crc)), ("data", json.clone())]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            frame.render() + "\n"
        );
        let loaded = load(&path).expect("installed checkpoint loads");
        assert_eq!(snapshot_to_json(&loaded), json);

        // A checkpoint from before offsets were recorded is ignored.
        let Json::Obj(mut fields) = json else {
            unreachable!("snapshot_to_json returns an object")
        };
        fields.retain(|(k, _)| k != "offset");
        let old = Json::Obj(fields).render();
        let crc = format!("{:016x}", fnv1a(old.as_bytes()));
        std::fs::write(&path, format!("{{\"crc\":\"{crc}\",\"data\":{old}}}\n")).unwrap();
        assert!(load(&path).is_none(), "a checkpoint without an offset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_a_checkpoint_this_build_did_not_write() {
        let dir = std::env::temp_dir().join(format!("mlconf_snap_foreign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = parse(r#"{"tuner":"random","budget":3,"seed":1}"#).unwrap();
        let data = SnapshotData {
            offset: 120,
            spec: spec_from_json(&spec).unwrap(),
            session: mlconf_tuners::session::AskTellSession::new(3, 1).resume_state(),
            tuner: TunerState::new(),
            last_report: None,
        };
        let Json::Obj(fields) = snapshot_to_json(&data) else {
            unreachable!("snapshot_to_json returns an object")
        };
        let Some((_, Json::Obj(session))) = fields.iter().find(|(k, _)| k == "session").cloned()
        else {
            unreachable!("the session encodes as an object")
        };
        let with_session = |session: Vec<(String, Json)>| {
            let mut out = fields.clone();
            for (k, v) in &mut out {
                if k == "session" {
                    *v = Json::Obj(session.clone());
                }
            }
            out
        };
        // An earlier build's `seq`; a checkpoint from before drift state
        // was kept; `stats` carrying a trial count beside the six totals.
        let mut with_seq = vec![("seq".to_owned(), Json::Num(3.0))];
        with_seq.extend(fields.iter().cloned());
        let mut without_drift = session.clone();
        without_drift.retain(|(k, _)| k != "drift");
        let mut wider_stats = session.clone();
        for (k, v) in &mut wider_stats {
            if let (true, Json::Obj(stats)) = (k == "stats", v) {
                stats.push(("completed".to_owned(), Json::Num(0.0)));
            }
        }
        let path = dir.join("s1.snap");
        for (label, foreign) in [
            ("seq", with_seq),
            ("drift-less", with_session(without_drift)),
            ("wider stats", with_session(wider_stats)),
        ] {
            let foreign = Json::Obj(foreign).render();
            let crc = format!("{:016x}", fnv1a(foreign.as_bytes()));
            std::fs::write(&path, format!("{{\"crc\":\"{crc}\",\"data\":{foreign}}}\n")).unwrap();
            assert!(load(&path).is_none(), "{label} checkpoint loaded");
        }
        install(&path, &data).unwrap();
        assert!(load(&path).is_some(), "this build's checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }
}
