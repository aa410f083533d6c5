//! Journal snapshots and compaction: O(records-since-snapshot) restarts.
//!
//! PR 4's recovery replays every journal record, so a restart costs
//! O(run length). This module periodically checkpoints each session's
//! full state — the [`AskTellSession`](mlconf_tuners::session::AskTellSession)
//! resume state plus the tuner's [`TunerState`] — through the service's
//! bit-exact JSON codec, then truncates the active journal to the
//! records that follow.
//!
//! # On-disk layout (per session `<id>`)
//!
//! - `<id>.jsonl` — the **active** journal. Starts with either the
//!   `create` record (never snapshotted) or a `{"op":"base","seq":N}`
//!   marker meaning: operations `[0, N)` were compacted; the records
//!   here sit at stream positions `N`, `N+1`, ….
//! - `<id>.snap` — the latest checkpoint, one checksummed JSON line,
//!   always installed by atomic rename.
//! - `<id>.hist` — the archive: every operation ever rotated out of the
//!   active journal, in stream order. Only read when the snapshot is
//!   torn, corrupt, or rejected — it makes full-journal replay possible
//!   *after* compaction, which is what lets a bad checkpoint degrade to
//!   PR 4 recovery instead of data loss.
//!
//! # Crash-ordered installation
//!
//! [`install`] performs, in order: (1) top up the archive with the
//! active records it is missing and fsync it, (2) write the new
//! checkpoint to a temp file, fsync, rename over `<id>.snap`, fsync the
//! directory, (3) write a fresh one-line active journal (`base` marker)
//! to a temp file, fsync, rename over `<id>.jsonl`, fsync the directory.
//! A crash between any two steps leaves a recoverable combination: the
//! archive append is idempotent (records are appended by stream
//! position, never duplicated), and until step (3) lands the old active
//! journal still covers everything past the *previous* checkpoint.
//!
//! # Restore contract
//!
//! A checkpoint restores bit-identically: the session resume state
//! carries the driver RNG position and float accumulators through the
//! tagged shortest-round-trip codec, and the tuner state round-trips
//! through [`Tuner::checkpoint`]/[`Tuner::restore`]. Golden tests assert
//! snapshot recovery ≡ full-journal replay at seeds {11, 22, 33}
//! including faults and censoring. Tuners without checkpoint support
//! simply never get a `.snap` and keep full-replay recovery.

use crate::api::{
    config_from_json, config_to_json, num_from_json, outcome_from_json, outcome_to_json,
    pending_to_json, spec_from_json, spec_to_json, tagged_num, ApiError, SessionSpec,
};
use crate::journal::{fsync_dir, read_journal, JournalOp};
use crate::json::{obj, parse, Json};
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::session::{PendingTrial, SessionResumeState, StopReason};
use mlconf_tuners::tuner::{StateValue, TrialHistory, TunerState};
use mlconf_util::hash::fnv1a;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// The three on-disk files backing one session.
#[derive(Debug, Clone)]
pub struct SessionFiles {
    /// Active journal (`<id>.jsonl`).
    pub active: PathBuf,
    /// Latest checkpoint (`<id>.snap`).
    pub snap: PathBuf,
    /// Rotated-records archive (`<id>.hist`).
    pub hist: PathBuf,
}

impl SessionFiles {
    /// File paths for session `id` under `journal_dir`.
    pub fn new(journal_dir: &Path, id: &str) -> Self {
        SessionFiles {
            active: journal_dir.join(format!("{id}.jsonl")),
            snap: journal_dir.join(format!("{id}.snap")),
            hist: journal_dir.join(format!("{id}.hist")),
        }
    }

    /// Removes all three files, plus any temp files a crashed
    /// checkpoint left behind (session deletion). Best-effort.
    pub fn remove_all(&self) {
        std::fs::remove_file(&self.active).ok();
        std::fs::remove_file(&self.snap).ok();
        std::fs::remove_file(&self.hist).ok();
        std::fs::remove_file(self.snap.with_extension("snap.tmp")).ok();
        std::fs::remove_file(self.active.with_extension("jsonl.tmp")).ok();
    }
}

/// One full checkpoint of a served session.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// Number of journal operations (create included) this checkpoint
    /// covers: the state equals replaying stream positions `[0, seq)`.
    pub seq: u64,
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

fn stats_to_json(s: &mlconf_tuners::session::StatsAggregator) -> Json {
    obj([
        ("started", Json::Num(s.started as f64)),
        ("completed", Json::Num(s.completed as f64)),
        ("improvements", Json::Num(s.improvements as f64)),
        (
            "best_objective",
            s.best_objective.map_or(Json::Null, tagged_num),
        ),
        (
            "stop_reason",
            s.stop_reason
                .map_or(Json::Null, |r| Json::Str(r.name().into())),
        ),
        ("timeouts", Json::Num(s.exec.timeouts as f64)),
        ("crashes", Json::Num(s.exec.crashes as f64)),
        ("ooms", Json::Num(s.exec.ooms as f64)),
        ("retries", Json::Num(s.exec.retries as f64)),
        (
            "wasted_machine_secs",
            tagged_num(s.exec.wasted_machine_secs),
        ),
        ("backoff_secs", tagged_num(s.exec.backoff_secs)),
        ("drift_events", Json::Num(s.drift_events as f64)),
        ("retune_count", Json::Num(s.retune_count as f64)),
    ])
}

fn opt_num(v: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => num_from_json(x, key).map(Some),
    }
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

fn stats_from_json(v: &Json) -> Result<mlconf_tuners::session::StatsAggregator, ApiError> {
    Ok(mlconf_tuners::session::StatsAggregator {
        exec: mlconf_tuners::session::ExecStats {
            timeouts: usize_field(v, "timeouts")?,
            crashes: usize_field(v, "crashes")?,
            ooms: usize_field(v, "ooms")?,
            retries: usize_field(v, "retries")?,
            wasted_machine_secs: num_field(v, "wasted_machine_secs")?,
            backoff_secs: num_field(v, "backoff_secs")?,
        },
        started: usize_field(v, "started")?,
        completed: usize_field(v, "completed")?,
        improvements: usize_field(v, "improvements")?,
        best_objective: opt_num(v, "best_objective")?,
        stop_reason: stop_reason_from_json(v, "stop_reason")?,
        drift_events: usize_field_or_zero(v, "drift_events")?,
        retune_count: usize_field_or_zero(v, "retune_count")?,
    })
}

/// Like [`usize_field`], but an absent key reads as zero — snapshots
/// written before the field existed stay restorable.
fn usize_field_or_zero(v: &Json, key: &str) -> Result<usize, ApiError> {
    match v.get(key) {
        None => Ok(0),
        Some(_) => usize_field(v, key),
    }
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
        ("best_seen", tagged_num(s.best_seen)),
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
        ("stats", stats_to_json(&s.stats)),
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
    // Absent (pre-drift snapshot) and explicit null both mean "no drift
    // controller state".
    let drift = match v.get("drift") {
        None | Some(Json::Null) => None,
        Some(d) => Some(drift_from_json(space, d)?),
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
        best_seen: num_field(v, "best_seen")?,
        stop_reason: stop_reason_from_json(v, "stop_reason")?,
        pending,
        finished: field(v, "finished")?
            .as_bool()
            .ok_or_else(|| ApiError("`finished` must be a bool".into()))?,
        stats: stats_from_json(field(v, "stats")?)?,
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
        ("seq", Json::Num(s.seq as f64)),
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
        seq: field(v, "seq")?
            .as_i64()
            .filter(|&s| s >= 0)
            .ok_or_else(|| ApiError("`seq` must be a non-negative integer".into()))?
            as u64,
        session: session_from_json(&space, field(v, "session")?)?,
        tuner: tuner_state_from_json(&space, field(v, "tuner")?)?,
        spec,
        last_report,
    })
}

/// Loads and verifies a checkpoint file. Returns `None` — never an
/// error — on a missing, torn, corrupt, or checksum-failing file:
/// every such case falls back to full-journal replay.
pub fn load(path: &Path) -> Option<SnapshotData> {
    let content = std::fs::read_to_string(path).ok()?;
    let frame = parse(content.trim_end()).ok()?;
    let crc = frame.get("crc")?.as_str()?;
    let data = frame.get("data")?;
    let rendered = data.render();
    if format!("{:016x}", fnv1a(rendered.as_bytes())) != crc {
        return None;
    }
    snapshot_from_json(data).ok()
}

/// Number of complete (newline-terminated) lines in `path`, and the
/// byte offset where the last complete line ends. Missing file = 0.
fn complete_lines(path: &Path) -> std::io::Result<(u64, u64)> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(e),
    }
    let mut lines = 0u64;
    let mut end = 0u64;
    for (i, &b) in buf.iter().enumerate() {
        if b == b'\n' {
            lines += 1;
            end = (i + 1) as u64;
        }
    }
    Ok((lines, end))
}

/// Installs a checkpoint: archives the active journal's records, writes
/// the snapshot atomically, and truncates the active journal to a
/// `base` marker. The active journal's own `base` marker (or its
/// absence, meaning 0) tells `install` which stream positions its
/// records occupy; `data.seq` must equal that base plus the number of
/// records present, i.e. the checkpoint covers exactly the acknowledged
/// stream.
///
/// # Errors
///
/// Propagates I/O errors; the caller logs and keeps serving (a failed
/// snapshot only costs restart speed, never correctness — the active
/// journal is untouched until the final rename).
pub fn install(files: &SessionFiles, data: &SnapshotData) -> std::io::Result<()> {
    let dir = files
        .active
        .parent()
        .ok_or_else(|| std::io::Error::other("journal path has no parent"))?;

    // (1) Top up the archive. The archive must end holding exactly the
    // stream's records [0, seq); a previous crashed install may have
    // left it already holding some (or all, or a torn tail) of them.
    let (hist_lines, hist_end) = complete_lines(&files.hist)?;
    let active_raw = std::fs::read_to_string(&files.active)?;
    let mut active_records: Vec<&str> = active_raw.lines().collect();
    let active_base = active_records
        .first()
        .and_then(|l| parse(l).ok())
        .filter(|v| v.get("op").and_then(Json::as_str) == Some("base"))
        .and_then(|v| v.get("seq").and_then(Json::as_i64))
        .filter(|&s| s >= 0)
        .map(|s| s as u64);
    if active_base.is_some() {
        active_records.remove(0);
    }
    let active_base = active_base.unwrap_or(0);
    if active_base + active_records.len() as u64 != data.seq {
        return Err(std::io::Error::other(format!(
            "checkpoint seq {} disagrees with journal (base {active_base} + {} records)",
            data.seq,
            active_records.len()
        )));
    }
    // Records the archive is missing: stream positions [hist_lines, seq).
    let have = hist_lines.saturating_sub(active_base); // active records already archived
    let missing: Vec<&str> = if hist_lines < active_base {
        return Err(std::io::Error::other(format!(
            "archive holds {hist_lines} records but active journal starts at {active_base}"
        )));
    } else {
        active_records.iter().skip(have as usize).copied().collect()
    };
    {
        let mut hist = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&files.hist)?;
        // Drop a torn tail from a crashed earlier append.
        hist.set_len(hist_end)?;
        use std::io::Seek as _;
        hist.seek(std::io::SeekFrom::End(0))?;
        let mut out = String::new();
        for line in missing {
            out.push_str(line);
            out.push('\n');
        }
        hist.write_all(out.as_bytes())?;
        hist.flush()?;
        hist.sync_data()?;
    }
    fsync_dir(dir)?;

    // (2) Atomically install the checkpoint.
    let rendered = snapshot_to_json(data).render();
    let frame = obj([
        (
            "crc",
            Json::Str(format!("{:016x}", fnv1a(rendered.as_bytes()))),
        ),
        ("data", snapshot_to_json(data)),
    ]);
    let snap_tmp = files.snap.with_extension("snap.tmp");
    {
        let mut f = File::create(&snap_tmp)?;
        let mut line = frame.render();
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.flush()?;
        f.sync_data()?;
    }
    std::fs::rename(&snap_tmp, &files.snap)?;
    fsync_dir(dir)?;

    // (3) Truncate the active journal to a base marker, atomically.
    let active_tmp = files.active.with_extension("jsonl.tmp");
    {
        let mut f = File::create(&active_tmp)?;
        let base = JournalOp::Base { seq: data.seq };
        f.write_all(base.line().as_bytes())?;
        f.flush()?;
        f.sync_data()?;
    }
    std::fs::rename(&active_tmp, &files.active)?;
    fsync_dir(dir)
}

/// Reads the active journal, returning `(base, records)` where `base`
/// is the stream position of the first record.
///
/// # Errors
///
/// Propagates read/parse errors (mid-file corruption stays an error:
/// the registry skips the session, preserving the evidence).
pub fn read_active(path: &Path) -> std::io::Result<(u64, Vec<JournalOp>)> {
    let mut ops = read_journal(path)?;
    let base = match ops.first() {
        Some(JournalOp::Base { seq }) => Some(*seq),
        _ => None,
    };
    match base {
        Some(b) => {
            ops.remove(0);
            Ok((b, ops))
        }
        None => Ok((0, ops)),
    }
}

/// Reads the first `count` archived records (the prefix a full replay
/// needs under an active journal based at `count`).
///
/// # Errors
///
/// Fails when the archive holds fewer than `count` complete records —
/// recovery for this session is then impossible and the caller skips it.
pub fn read_hist_prefix(path: &Path, count: u64) -> std::io::Result<Vec<JournalOp>> {
    if count == 0 {
        return Ok(Vec::new());
    }
    let ops = read_journal(path)?;
    if (ops.len() as u64) < count {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("archive holds {} records, need {count}", ops.len()),
        ));
    }
    Ok(ops.into_iter().take(count as usize).collect())
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
}
