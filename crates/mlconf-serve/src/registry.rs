//! The multi-tenant session registry: id-keyed ask/tell sessions,
//! sharded by session-id hash, each with its own journal.
//!
//! # Sharding
//!
//! The registry is split into N shards (`fnv1a(id) % N`). Each shard
//! owns its own lookup map behind its own mutex **and its own journal
//! subdirectory** (`<journal-dir>/shard-<k>/`), so suggest/report
//! traffic on sessions in different shards shares no lock and no
//! directory inode. Within a shard the map mutex is held only to look
//! up / insert / remove `Arc` handles (and, rarely, to revive a parked
//! session); each session still has its own mutex guarding the tuner +
//! state machine + journal. No code path holds a session lock and a
//! shard lock at once, so deadlock is impossible.
//!
//! # Memory bound: parked sessions and idle eviction
//!
//! A session is either *live* (tuner + history resident in memory) or
//! *parked* (only its journal/snapshot files on disk). Restart parks
//! everything — startup is O(#sessions) in directory entries, not in
//! journal bytes — and the first touch of a parked session revives it
//! by the usual recovery path (snapshot + tail, else full replay),
//! which is bit-identical to never having been parked. When
//! `max_sessions > 0`, exceeding the per-shard live bound evicts the
//! least-recently-touched idle session back to parked; because every
//! acknowledged operation is already fsynced to the journal, eviction
//! writes nothing and can never lose state.
//!
//! Shard assignment is a pure function of the id, so a restart with a
//! different shard count simply migrates each session's files to the
//! directory the new hash assigns. `shard-<k>/<id>.jsonl` plus
//! `<id>.snap` is the only layout read: a journal directly under the
//! journal directory (the pre-sharding flat layout) or a `.hist` archive
//! in a shard directory (the older compacting layout) makes
//! [`SessionRegistry::open`] fail with the file named, rather than
//! leave that session unserved.
//!
//! Recovery is two-tier. Every state transition is journaled before it
//! is acknowledged, and the journal is never rewritten, so a full
//! replay always reconstructs the session bit-identically. When
//! snapshots are enabled (`snapshot_every > 0`) the registry
//! additionally checkpoints each session every N journaled operations
//! (see [`crate::snapshot`]); revival then restores the checkpoint and
//! replays only the records after the journal offset it recorded —
//! O(N) instead of O(run length) — falling back to full replay whenever
//! the checkpoint is missing, torn, or rejected.

use crate::api::{
    config_to_json, executed_from_json, executed_to_json, outcome_to_json, pending_to_json,
    spec_from_json, spec_to_json, tagged_num, ApiError, SessionSpec,
};
use crate::journal::{fsync_dir, Journal, JournalOp};
use crate::json::{obj, Json};
use crate::snapshot::{self, SessionFiles, SnapshotData};
use mlconf_tuners::drift::{DriftConfig, DriftCtl};
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::AskTellSession;
use mlconf_tuners::tuner::Tuner;
use mlconf_util::hash::fnv1a;
use mlconf_workloads::tunespace::default_config;
use std::collections::HashMap;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Locks a mutex, recovering from poisoning. A request that panicked
/// mid-handler must cost only its own connection: the journal (not the
/// in-memory value) is the durable source of truth, and every journaled
/// operation is applied append-first, so the guarded state is consistent
/// at operation granularity even after a panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A request-level failure: HTTP status plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Human-readable explanation (sent as `{"error": ...}`).
    pub message: String,
    /// `Retry-After` seconds the response should carry (429 quota
    /// rejections compute one from the tenant's refill rate).
    pub retry_after: Option<u64>,
}

impl ServeError {
    /// 400 Bad Request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError {
            status: 400,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 404 Not Found.
    pub fn not_found(message: impl Into<String>) -> Self {
        ServeError {
            status: 404,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 409 Conflict (protocol misuse against session state).
    pub fn conflict(message: impl Into<String>) -> Self {
        ServeError {
            status: 409,
            message: message.into(),
            retry_after: None,
        }
    }

    /// 429 Too Many Requests (tenant over quota), with the seconds the
    /// client should wait before retrying.
    pub fn too_many_requests(message: impl Into<String>, retry_after: u64) -> Self {
        ServeError {
            status: 429,
            message: message.into(),
            retry_after: Some(retry_after),
        }
    }

    /// 500 Internal Server Error (journal write failures).
    pub fn internal(message: impl Into<String>) -> Self {
        ServeError {
            status: 500,
            message: message.into(),
            retry_after: None,
        }
    }
}

impl From<ApiError> for ServeError {
    fn from(e: ApiError) -> Self {
        ServeError::bad_request(e.0)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.status, self.message)
    }
}

impl std::error::Error for ServeError {}

/// One hosted tuning session: spec, tuner, state machine, journal.
pub struct ServedSession {
    id: String,
    spec: SessionSpec,
    tuner: Box<dyn Tuner + Send>,
    core: AskTellSession<'static>,
    journal: Journal,
    files: SessionFiles,
    /// Operations journaled since the last installed checkpoint.
    ops_since_snapshot: u64,
    /// Checkpoint every N operations; 0 disables snapshots.
    snapshot_every: u64,
    /// The last applied report's dedup key and exact response, for
    /// duplicate rejection when a client retries after a dropped ACK.
    last_report: Option<(String, Json)>,
}

/// Builds the tuner + state machine a spec describes, from scratch.
fn machinery(spec: &SessionSpec) -> (Box<dyn Tuner + Send>, AskTellSession<'static>) {
    let tuner = build_tuner(
        &spec.tuner,
        spec.space(),
        spec.budget,
        spec.seed,
        Some(default_config(spec.max_nodes)),
    )
    .expect("spec validation checked the tuner name");
    let core = AskTellSession::new(spec.budget, spec.seed)
        .stop_conditions(spec.conditions.iter().copied())
        .warm_start(spec.warm_start.iter().cloned())
        .drift_ctl(DriftCtl::new(
            spec.retune_policy,
            DriftConfig::default(),
            spec.space(),
            spec.seed,
        ));
    (tuner, core)
}

impl ServedSession {
    /// The session id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The creating spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Read access to the state machine (tests and status endpoints).
    pub fn core(&self) -> &AskTellSession<'static> {
        &self.core
    }

    /// Handles `POST /sessions/{id}/suggest`.
    ///
    /// Idempotent while a trial is outstanding: re-suggesting returns
    /// the same pending trial without touching the RNG or the journal.
    /// Polling a finished session likewise answers `done` without a
    /// journal write. A state-advancing ask — including the one that
    /// finishes the session — is journaled before it executes, so a
    /// crash between journal and response replays to the same state the
    /// client would have seen.
    ///
    /// # Errors
    ///
    /// Returns 500 if the journal write fails (the ask does not happen).
    pub fn suggest(&mut self) -> Result<Json, ServeError> {
        if self.core.pending().is_none() && !self.core.is_finished() {
            self.journal
                .append(&JournalOp::Suggest)
                .map_err(|e| ServeError::internal(format!("journal write failed: {e}")))?;
            self.core
                .ask(self.tuner.as_mut())
                .expect("no pending trial outstanding");
            self.after_op();
        }
        Ok(match self.core.pending() {
            Some(p) => with_epoch(pending_to_json(p), self.core.wall_secs()),
            None => obj([
                ("done", Json::Bool(true)),
                (
                    "reason",
                    self.core
                        .stop_reason()
                        .map_or(Json::Null, |r| Json::Str(r.name().into())),
                ),
            ]),
        })
    }

    /// Handles `POST /sessions/{id}/report`.
    ///
    /// A body may carry a client-chosen `"key"` (any string). If the key
    /// equals the *last applied* report's key, the report is recognized
    /// as a retry after a dropped ACK: the original response is returned
    /// with `"duplicate": true` appended, and the outcome is **not**
    /// applied a second time. The dedup check runs before the
    /// pending-trial check — after a dropped ACK no trial is pending,
    /// and the retry must get its answer, not a 409.
    ///
    /// # Errors
    ///
    /// Returns 409 when no trial is outstanding, 400 for undecodable
    /// bodies (decoded by the caller), 500 if the journal write fails.
    pub fn report(&mut self, body: &Json) -> Result<Json, ServeError> {
        let key = body.get("key").and_then(Json::as_str).map(str::to_owned);
        if let (Some(k), Some((last_key, cached))) = (&key, &self.last_report) {
            if k == last_key {
                let mut fields = match cached.clone() {
                    Json::Obj(fields) => fields,
                    other => vec![("response".to_owned(), other)],
                };
                fields.push(("duplicate".to_owned(), Json::Bool(true)));
                return Ok(Json::Obj(fields));
            }
        }
        let executed = executed_from_json(body)?;
        if self.core.pending().is_none() {
            return Err(ServeError::conflict(
                "no suggested trial is awaiting a report",
            ));
        }
        self.journal
            .append(&JournalOp::Report {
                executed: executed_to_json(&executed),
                key: key.clone(),
            })
            .map_err(|e| ServeError::internal(format!("journal write failed: {e}")))?;
        let trial = self
            .core
            .tell(self.tuner.as_mut(), executed)
            .expect("pending trial checked above");
        let response = report_response(&self.core, trial);
        self.last_report = key.map(|k| (k, response.clone()));
        self.after_op();
        Ok(response)
    }

    /// Bookkeeping after a successful journal-append + state advance:
    /// installs a checkpoint every `snapshot_every` operations.
    /// Checkpoint failures are logged and swallowed — a missed snapshot
    /// only costs restart speed.
    fn after_op(&mut self) {
        self.ops_since_snapshot += 1;
        if self.snapshot_every > 0 && self.ops_since_snapshot >= self.snapshot_every {
            if let Err(e) = self.snapshot_now() {
                eprintln!(
                    "mlconf-serve: checkpoint of session {} failed (serving continues): {e}",
                    self.id
                );
            }
        }
    }

    /// Checkpoints this session immediately: installs a `.snap` holding
    /// its state and the journal offset that state corresponds to.
    /// Returns `Ok(false)` when the tuner does not support checkpointing
    /// (the session keeps full-replay recovery).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the journal is untouched and remains
    /// authoritative, so serving safely continues.
    pub fn snapshot_now(&mut self) -> std::io::Result<bool> {
        let Some(tuner_state) = self.tuner.checkpoint() else {
            return Ok(false);
        };
        let data = SnapshotData {
            offset: self.journal.end(),
            spec: self.spec.clone(),
            session: self.core.resume_state(),
            tuner: tuner_state,
            last_report: self.last_report.clone(),
        };
        snapshot::install(&self.files.snap, &data)?;
        self.ops_since_snapshot = 0;
        Ok(true)
    }

    /// Re-executes journaled operations, mirroring exactly what the
    /// serving path did: `suggest` re-asks (consuming the same RNG
    /// draws), `report` re-tells, and keyed reports rebuild the
    /// duplicate-rejection cache.
    fn replay(&mut self, ops: Vec<JournalOp>) -> Result<(), ServeError> {
        let desync = |e: &dyn std::fmt::Display| {
            ServeError::internal(format!("journal replay desynchronized: {e}"))
        };
        for op in ops {
            match op {
                JournalOp::Create { .. } => {
                    return Err(ServeError::internal("duplicate create record"));
                }
                JournalOp::Suggest => {
                    self.core.ask(self.tuner.as_mut()).map_err(|e| desync(&e))?;
                }
                JournalOp::Report { executed, key } => {
                    let executed = executed_from_json(&executed)?;
                    let trial = self
                        .core
                        .tell(self.tuner.as_mut(), executed)
                        .map_err(|e| desync(&e))?;
                    self.last_report = key.map(|k| (k, report_response(&self.core, trial)));
                }
            }
            self.ops_since_snapshot += 1;
        }
        Ok(())
    }

    /// Handles `GET /sessions/{id}`: status, incumbent, full history.
    pub fn status_json(&self) -> Json {
        let history = self
            .core
            .history()
            .trials()
            .iter()
            .map(|t| {
                obj([
                    ("trial", Json::Num(t.index as f64)),
                    ("config", config_to_json(&t.config)),
                    ("outcome", outcome_to_json(&t.outcome)),
                ])
            })
            .collect();
        let best = self.core.history().best().map_or(Json::Null, |b| {
            obj([
                (
                    "objective",
                    b.outcome.objective.map_or(Json::Null, tagged_num),
                ),
                ("trial", Json::Num(b.index as f64)),
                ("config", config_to_json(&b.config)),
            ])
        });
        obj([
            ("id", Json::Str(self.id.clone())),
            ("spec", spec_to_json(&self.spec)),
            ("trials", Json::Num(self.core.history().len() as f64)),
            ("finished", Json::Bool(self.core.is_finished())),
            (
                "stop_reason",
                self.core
                    .stop_reason()
                    .map_or(Json::Null, |r| Json::Str(r.name().into())),
            ),
            (
                "pending",
                self.core.pending().map_or(Json::Null, pending_to_json),
            ),
            (
                "scenario",
                self.spec
                    .scenario
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            (
                "drift_events",
                Json::Num(self.core.drift().map_or(0, DriftCtl::drift_events) as f64),
            ),
            (
                "retune_count",
                Json::Num(self.core.drift().map_or(0, DriftCtl::retune_count) as f64),
            ),
            ("wall_secs", tagged_num(self.core.wall_secs())),
            ("best", best),
            ("history", Json::Arr(history)),
        ])
    }
}

fn best_objective(core: &AskTellSession<'_>) -> Option<f64> {
    core.history().best().and_then(|b| b.outcome.objective)
}

/// Appends the session's virtual wall clock to a pending-trial payload so
/// external executors can evaluate against the scenario state at the
/// epoch the trial was issued, matching what an in-process `drive()`
/// would pass to the executor.
fn with_epoch(pending: Json, epoch_secs: f64) -> Json {
    match pending {
        Json::Obj(mut fields) => {
            fields.push(("epoch_secs".to_owned(), tagged_num(epoch_secs)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// The `POST /sessions/{id}/report` success payload. Factored out so
/// journal replay can rebuild the exact response a keyed report was
/// acknowledged with (the duplicate-rejection cache must survive
/// restarts bit-identically).
fn report_response(core: &AskTellSession<'_>, trial: usize) -> Json {
    obj([
        ("trial", Json::Num(trial as f64)),
        ("trials", Json::Num(core.history().len() as f64)),
        (
            "best_objective",
            best_objective(core).map_or(Json::Null, tagged_num),
        ),
        ("finished", Json::Bool(core.is_finished())),
    ])
}

/// Revives a session from its journal: from `snap`'s state and the
/// journal records after its offset, or from the whole journal when
/// `snap` is `None`. Either way the journal comes back cut to its last
/// complete record and ready for appending.
fn revive(
    id: &str,
    files: SessionFiles,
    snap: Option<SnapshotData>,
    snapshot_every: u64,
) -> Result<ServedSession, ServeError> {
    let offset = snap.as_ref().map_or(0, |s| s.offset);
    let (journal, ops) = Journal::reopen(files.journal.clone(), offset)
        .map_err(|e| ServeError::internal(format!("unreadable journal: {e}")))?;
    let mut ops = ops.into_iter();
    let mut session = match snap {
        Some(snap) => {
            let (mut tuner, mut core) = machinery(&snap.spec);
            tuner
                .restore(&snap.tuner, &snap.session.history)
                .map_err(|e| ServeError::internal(format!("tuner restore failed: {e}")))?;
            core.restore_resume_state(snap.session)
                .map_err(|e| ServeError::internal(format!("session restore failed: {e}")))?;
            ServedSession {
                id: id.to_owned(),
                spec: snap.spec,
                tuner,
                core,
                journal,
                files,
                ops_since_snapshot: 0,
                snapshot_every,
                last_report: snap.last_report,
            }
        }
        None => {
            let Some(JournalOp::Create { spec }) = ops.next() else {
                return Err(ServeError::internal(
                    "journal does not begin with a create record",
                ));
            };
            let spec = spec_from_json(&spec)?;
            let (tuner, core) = machinery(&spec);
            ServedSession {
                id: id.to_owned(),
                spec,
                tuner,
                core,
                journal,
                files,
                // A full replay means the checkpoint (if any) was
                // unusable; the next journaled operation installs a
                // fresh one.
                ops_since_snapshot: snapshot_every,
                snapshot_every,
                last_report: None,
            }
        }
    };
    session.replay(ops.collect())?;
    Ok(session)
}

/// Tunables for opening a [`SessionRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Checkpoint each session every N journaled operations; 0 disables
    /// snapshots (pure full-replay recovery).
    pub snapshot_every: u64,
    /// Number of registry shards (lock + journal-directory granularity).
    pub shards: usize,
    /// Live in-memory session bound across the whole registry; 0 means
    /// unbounded. Sessions over the bound are parked (evicted to disk)
    /// least-recently-touched first.
    pub max_sessions: usize,
}

impl RegistryConfig {
    /// Snapshots-off, 4-shard, unbounded defaults.
    pub fn new(snapshot_every: u64) -> Self {
        RegistryConfig {
            snapshot_every,
            shards: 4,
            max_sessions: 0,
        }
    }
}

/// One live session plus its recency stamp.
struct LiveEntry {
    session: Arc<Mutex<ServedSession>>,
    /// Logical touch clock value at the last access (LRU eviction key).
    last_touch: u64,
}

/// One shard's lookup state.
struct ShardState {
    /// Sessions resident in memory.
    live: HashMap<String, LiveEntry>,
    /// Sessions that exist only as journal/snapshot files in this
    /// shard's directory (restart-parked or idle-evicted).
    parked: std::collections::BTreeSet<String>,
}

/// One registry shard: its journal directory and lookup map.
struct Shard {
    dir: PathBuf,
    inner: Mutex<ShardState>,
}

/// A point-in-time view of one shard, for the readiness probe.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub index: usize,
    /// The shard's journal directory.
    pub dir: PathBuf,
    /// Sessions resident in memory.
    pub live: usize,
    /// Sessions parked on disk.
    pub parked: usize,
}

/// Id-keyed, shard-partitioned collection of served sessions with
/// journal-backed recovery and idle eviction.
pub struct SessionRegistry {
    snapshot_every: u64,
    /// Per-shard live bound derived from `RegistryConfig::max_sessions`.
    max_live_per_shard: usize,
    shards: Vec<Shard>,
    next_id: std::sync::atomic::AtomicU64,
    touch_clock: std::sync::atomic::AtomicU64,
}

impl SessionRegistry {
    /// Opens a registry over `journal_dir`, discovering every session
    /// found there. Sessions are *parked*, not replayed: the first
    /// touch revives each one (snapshot-first, full replay as
    /// fallback), so startup cost is directory-entry scale regardless
    /// of journal lengths. Files from a previous shard count are
    /// migrated into the directory the current hash assigns. A journal
    /// without one complete record belongs to a `create` that never
    /// answered; its files are removed, and its id stays reserved.
    ///
    /// # Errors
    ///
    /// Fails with [`std::io::ErrorKind::InvalidData`], naming the file
    /// and touching none, on a layout this build does not read — a
    /// `*.jsonl` directly under `journal_dir` or a `*.hist` in a shard
    /// directory — and on a journal `s<n>` with no id after `n` left.
    /// Propagates failure to create, scan, or migrate the directories
    /// themselves.
    pub fn open(journal_dir: &Path, config: RegistryConfig) -> std::io::Result<Self> {
        let nshards = config.shards.max(1);
        std::fs::create_dir_all(journal_dir)?;
        let mut shards: Vec<Shard> = (0..nshards)
            .map(|k| Shard {
                dir: journal_dir.join(format!("shard-{k}")),
                inner: Mutex::new(ShardState {
                    live: HashMap::new(),
                    parked: std::collections::BTreeSet::new(),
                }),
            })
            .collect();
        for shard in &shards {
            std::fs::create_dir_all(&shard.dir)?;
        }

        // Discover the journals in every shard-* dir, current shard
        // count or not, refusing what this build does not read before
        // touching a file.
        let refuse = |path: &Path, what: &str| {
            let message = format!("{}: {what}, which this build does not read", path.display());
            std::io::Error::new(std::io::ErrorKind::InvalidData, message)
        };
        let mut scan_dirs = Vec::new();
        for entry in std::fs::read_dir(journal_dir)? {
            let p = entry?.path();
            let shard_named = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-"));
            if p.is_dir() && shard_named {
                scan_dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "jsonl") {
                return Err(refuse(&p, "a journal of the pre-sharding flat layout"));
            }
        }
        let mut journals = Vec::new();
        let mut next_id = 1u64;
        for dir in &scan_dirs {
            let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            paths.sort();
            for path in paths {
                let ext = path.extension().and_then(|x| x.to_str());
                if ext == Some("hist") {
                    return Err(refuse(&path, "an archive of the older compacting layout"));
                }
                let (Some("jsonl"), Some(id)) = (ext, path.file_stem().and_then(|s| s.to_str()))
                else {
                    continue;
                };
                // Reserve the id whether or not the session ever
                // revives, so a new session never truncates an existing
                // (possibly corrupt, possibly evidence-bearing) journal.
                if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
                    let after = n.checked_add(1);
                    next_id = next_id.max(after.ok_or_else(|| refuse(&path, "the largest id"))?);
                }
                journals.push((dir, id.to_owned()));
            }
        }
        for (dir, id) in journals {
            let k = (fnv1a(id.as_bytes()) % nshards as u64) as usize;
            migrate_session_files(&id, dir, &shards[k].dir)?;
            let files = SessionFiles::new(&shards[k].dir, &id);
            if let Ok(false) = holds_a_record(&files.journal) {
                // Never acknowledged: `create` answers once its record is fsynced.
                eprintln!("mlconf-serve: removing session {id}: its create never landed");
                files.remove_all();
                continue;
            }
            shards[k]
                .inner
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .parked
                .insert(id);
        }
        let max_live_per_shard = if config.max_sessions == 0 {
            usize::MAX
        } else {
            config.max_sessions.div_ceil(nshards).max(1)
        };
        Ok(SessionRegistry {
            snapshot_every: config.snapshot_every,
            max_live_per_shard,
            shards,
            next_id: std::sync::atomic::AtomicU64::new(next_id),
            touch_clock: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The shard `id` hashes to.
    fn shard_of(&self, id: &str) -> &Shard {
        &self.shards[(fnv1a(id.as_bytes()) % self.shards.len() as u64) as usize]
    }

    /// The on-disk files backing session `id` (under its shard's dir).
    pub fn files_for(&self, id: &str) -> SessionFiles {
        SessionFiles::new(&self.shard_of(id).dir, id)
    }

    /// Per-shard live/parked counts and directories (readiness probe).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let state = lock_recover(&shard.inner);
                ShardStats {
                    index,
                    dir: shard.dir.clone(),
                    live: state.live.len(),
                    parked: state.parked.len(),
                }
            })
            .collect()
    }

    /// Parks least-recently-touched idle sessions until the shard is
    /// back under its live bound. A session whose `Arc` is held by an
    /// in-flight request is never parked (a parked id must have exactly
    /// one journal writer — the one revival creates), so the bound is
    /// soft under concurrency.
    fn evict_over_bound(&self, state: &mut ShardState) {
        while state.live.len() > self.max_live_per_shard {
            let victim = state
                .live
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.session) == 1)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(id, _)| id.clone());
            let Some(id) = victim else { return };
            state.live.remove(&id);
            state.parked.insert(id);
        }
    }

    /// Rebuilds one session. Preferred path: restore the `.snap`
    /// checkpoint and replay only the journal records after its offset —
    /// bounded by the snapshot interval. Fallback (missing, torn or
    /// rejected checkpoint): replay the whole journal. Determinism makes
    /// either path bit-identical to the pre-crash state.
    fn recover(
        shard_dir: &Path,
        id: &str,
        snapshot_every: u64,
    ) -> Result<ServedSession, ServeError> {
        let files = SessionFiles::new(shard_dir, id);
        if let Some(snap) = snapshot::load(&files.snap) {
            match revive(id, files.clone(), Some(snap), snapshot_every) {
                Ok(session) => return Ok(session),
                Err(e) => eprintln!(
                    "mlconf-serve: checkpoint restore of session {id} failed \
                     ({e}); falling back to full replay"
                ),
            }
        }
        revive(id, files, None, snapshot_every)
    }

    /// Advances the logical recency clock and returns the new stamp.
    fn touch(&self) -> u64 {
        self.touch_clock
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Handles `POST /sessions`: validates the spec, journals the
    /// creation, and registers the new session in its shard.
    ///
    /// # Errors
    ///
    /// Returns 400 for invalid specs, 500 for journal I/O failures and
    /// once no session id is left.
    pub fn create(&self, body: &Json) -> Result<Json, ServeError> {
        let spec = spec_from_json(body)?;
        let (tuner, core) = machinery(&spec);
        // Atomic id allocation keeps ids unique without any global lock;
        // a failed journal create burns the id, which is harmless. It
        // never wraps: an id that came round again would truncate that
        // session's journal.
        let order = std::sync::atomic::Ordering::Relaxed;
        let n = self
            .next_id
            .fetch_update(order, order, |n| n.checked_add(1))
            .map_err(|_| ServeError::internal("no session id is left"))?;
        let id = format!("s{n}");
        let shard = self.shard_of(&id);
        let files = SessionFiles::new(&shard.dir, &id);
        let mut journal = Journal::create(files.journal.clone())
            .map_err(|e| ServeError::internal(format!("cannot create journal: {e}")))?;
        journal
            .append(&JournalOp::Create {
                spec: spec_to_json(&spec),
            })
            .map_err(|e| ServeError::internal(format!("journal write failed: {e}")))?;
        let session = ServedSession {
            id: id.clone(),
            spec,
            tuner,
            core,
            journal,
            files,
            ops_since_snapshot: 0,
            snapshot_every: self.snapshot_every,
            last_report: None,
        };
        // The local clone keeps the new session's strong count above 1
        // through the eviction sweep: a session someone is actively
        // creating is in flight, not an eviction candidate.
        let handle = Arc::new(Mutex::new(session));
        let mut state = lock_recover(&shard.inner);
        state.live.insert(
            id.clone(),
            LiveEntry {
                session: Arc::clone(&handle),
                last_touch: self.touch(),
            },
        );
        self.evict_over_bound(&mut state);
        Ok(obj([("id", Json::Str(id))]))
    }

    /// Looks up a session handle by id, reviving it from its journal if
    /// it is parked. Revival runs under the shard lock — that lock is
    /// what guarantees a parked id never gains two journal writers.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<ServedSession>>> {
        let shard = self.shard_of(id);
        let mut state = lock_recover(&shard.inner);
        let stamp = self.touch();
        if let Some(entry) = state.live.get_mut(id) {
            entry.last_touch = stamp;
            return Some(Arc::clone(&entry.session));
        }
        if !state.parked.contains(id) {
            return None;
        }
        match Self::recover(&shard.dir, id, self.snapshot_every) {
            Ok(session) => {
                state.parked.remove(id);
                let session = Arc::new(Mutex::new(session));
                state.live.insert(
                    id.to_owned(),
                    LiveEntry {
                        session: Arc::clone(&session),
                        last_touch: stamp,
                    },
                );
                self.evict_over_bound(&mut state);
                Some(session)
            }
            Err(e) => {
                // The id stays parked (and reserved): the journal is
                // preserved as evidence and a later touch may succeed
                // (e.g. after an operator repairs the file).
                eprintln!("mlconf-serve: revival of session {id} failed (stays parked): {e}");
                None
            }
        }
    }

    /// Handles `DELETE /sessions/{id}`: unregisters the session (live
    /// or parked) and removes every on-disk trace — journal,
    /// checkpoint, and any temp file a crashed checkpoint left behind.
    /// Returns `false` for unknown ids.
    pub fn delete(&self, id: &str) -> bool {
        let shard = self.shard_of(id);
        let mut state = lock_recover(&shard.inner);
        let was_live = state.live.remove(id).is_some();
        let was_parked = state.parked.remove(id);
        if !(was_live || was_parked) {
            return false;
        }
        SessionFiles::new(&shard.dir, id).remove_all();
        true
    }

    /// All session ids (live and parked), sorted.
    pub fn list(&self) -> Vec<String> {
        let mut ids: Vec<String> = Vec::new();
        for shard in &self.shards {
            let state = lock_recover(&shard.inner);
            ids.extend(state.live.keys().cloned());
            ids.extend(state.parked.iter().cloned());
        }
        ids.sort();
        ids
    }
}

/// Whether `journal` holds at least one complete (newline-terminated)
/// record. Reads only up to the first newline.
fn holds_a_record(journal: &Path) -> std::io::Result<bool> {
    let mut first = Vec::new();
    std::io::BufReader::new(std::fs::File::open(journal)?).read_until(b'\n', &mut first)?;
    Ok(first.last() == Some(&b'\n'))
}

/// Moves one session's files from the shard directory a previous shard
/// count assigned to the one the current hash assigns. The checkpoint
/// moves first and the journal last: the journal's location is the
/// commit point discovery keys on, so a crash mid-migration simply
/// re-runs it (at worst orphaning a stale checkpoint, which recovery
/// falls past via full replay).
fn migrate_session_files(id: &str, from: &Path, to: &Path) -> std::io::Result<()> {
    if from == to {
        return Ok(());
    }
    let src = SessionFiles::new(from, id);
    let dst = SessionFiles::new(to, id);
    for (s, d) in [(src.snap, dst.snap), (src.journal, dst.journal)] {
        if s.exists() {
            std::fs::rename(s, d)?;
        }
    }
    fsync_dir(to)?;
    fsync_dir(from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read_journal;
    use crate::json::parse;
    use std::io::Write as _;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlconf_registry_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn create_body(tuner: &str, budget: usize, seed: u64) -> Json {
        parse(&format!(
            r#"{{"tuner":"{tuner}","budget":{budget},"seed":{seed},"max_nodes":8}}"#
        ))
        .unwrap()
    }

    fn evaluator(seed: u64) -> mlconf_workloads::evaluator::ConfigEvaluator {
        use mlconf_workloads::objective::Objective;
        use mlconf_workloads::workload::mlp_mnist;
        mlconf_workloads::evaluator::ConfigEvaluator::new(
            mlp_mnist(),
            Objective::TimeToAccuracy,
            8,
            seed,
        )
    }

    /// Runs one suggest → evaluate → report cycle through the registry
    /// surface, with the simulator in the client role. Returns `false`
    /// once the session is done.
    fn step(
        registry: &SessionRegistry,
        id: &str,
        ev: &mlconf_workloads::evaluator::ConfigEvaluator,
    ) -> bool {
        let handle = registry.get(id).unwrap();
        let suggestion = handle.lock().unwrap().suggest().unwrap();
        if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
            return false;
        }
        let cfg =
            crate::api::config_from_json(&ev.space().clone(), suggestion.get("config").unwrap())
                .unwrap();
        let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
        let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
        let body = obj([("outcome", outcome_to_json(&outcome))]);
        handle.lock().unwrap().report(&body).unwrap();
        true
    }

    /// Drives a session to completion through the registry surface.
    fn drive(registry: &SessionRegistry, id: &str, seed: u64) {
        let ev = evaluator(seed);
        while step(registry, id, &ev) {}
    }

    #[test]
    fn create_suggest_report_lifecycle() {
        let dir = tmpdir("lifecycle");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("random", 4, 9)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        assert_eq!(registry.list(), vec![id.clone()]);

        drive(&registry, &id, 9);
        let handle = registry.get(&id).unwrap();
        let status = handle.lock().unwrap().status_json();
        assert_eq!(status.get("trials").unwrap().as_i64(), Some(4));
        assert_eq!(status.get("finished").unwrap().as_bool(), Some(true));
        assert!(status.get("best").unwrap().get("objective").is_some());

        assert!(registry.delete(&id));
        assert!(!registry.delete(&id));
        assert!(registry.get(&id).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suggest_is_idempotent_while_pending() {
        let dir = tmpdir("idem");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("bo", 5, 3)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap();
        let handle = registry.get(id).unwrap();
        let first = handle.lock().unwrap().suggest().unwrap();
        let second = handle.lock().unwrap().suggest().unwrap();
        assert_eq!(first, second);
        // Only one suggest was journaled.
        let ops = read_journal(&registry.files_for(id).journal).unwrap();
        let suggests = ops.iter().filter(|o| **o == JournalOp::Suggest).count();
        assert_eq!(suggests, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn polling_a_finished_session_writes_nothing() {
        let dir = tmpdir("poll_done");
        let config = RegistryConfig {
            snapshot_every: 2,
            shards: 1,
            max_sessions: 0,
        };
        let registry = SessionRegistry::open(&dir, config.clone()).unwrap();
        let created = registry.create(&create_body("bo", 3, 4)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        drive(&registry, &id, 4);
        let files = registry.files_for(&id);
        let journal = std::fs::read(&files.journal).unwrap();
        let snap = std::fs::read(&files.snap).unwrap();
        let handle = registry.get(&id).unwrap();
        let done = handle.lock().unwrap().suggest().unwrap();
        assert_eq!(done.get("done").and_then(Json::as_bool), Some(true));
        for _ in 0..3 {
            assert_eq!(handle.lock().unwrap().suggest().unwrap(), done);
        }
        assert_eq!(std::fs::read(&files.journal).unwrap(), journal);
        assert_eq!(std::fs::read(&files.snap).unwrap(), snap);
        let status = handle.lock().unwrap().status_json().render();
        drop((handle, registry));

        let registry = SessionRegistry::open(&dir, config).unwrap();
        let handle = registry.get(&id).expect("finished session revives");
        assert_eq!(handle.lock().unwrap().status_json().render(), status);
        assert_eq!(handle.lock().unwrap().suggest().unwrap(), done);
        assert_eq!(std::fs::read(&files.journal).unwrap(), journal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_removes_journals_whose_create_never_landed() {
        let dir = tmpdir("unacknowledged");
        let shard = dir.join("shard-0");
        std::fs::create_dir_all(&shard).unwrap();
        // An empty journal, and one torn inside its create record next
        // to a stray temp file from a checkpoint.
        std::fs::write(shard.join("s9.jsonl"), b"").unwrap();
        std::fs::write(shard.join("s8.jsonl"), b"{\"op\":\"create\",\"spec\":{\"tu").unwrap();
        std::fs::write(shard.join("s8.snap.tmp"), b"{\"crc\"").unwrap();
        // A complete first record that does not decode stays as evidence.
        std::fs::write(shard.join("s7.jsonl"), b"garbage\n").unwrap();
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 0,
        };
        let registry = SessionRegistry::open(&dir, config).unwrap();
        assert_eq!(registry.list(), vec!["s7".to_owned()]);
        assert_eq!(walk_files(&dir), vec!["s7.jsonl".to_owned()]);
        // The removed ids stay reserved.
        let created = registry.create(&create_body("random", 2, 1)).unwrap();
        assert_eq!(created.get("id").unwrap().as_str(), Some("s10"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A report body for a successful trial whose `objective` is the
    /// given JSON value (a number, or a tagged `"nan"`/`"inf"`).
    fn success_body(objective: Json) -> Json {
        let outcome = mlconf_workloads::objective::TrialOutcome {
            objective: Some(1.0),
            failure: None,
            tta_secs: 10.0,
            cost_usd: 0.5,
            throughput: 100.0,
            staleness_steps: 0.0,
            search_cost_machine_secs: 80.0,
            censored_at: None,
            attempts: 1,
        };
        let Json::Obj(mut fields) = outcome_to_json(&outcome) else {
            unreachable!("outcomes encode as objects")
        };
        for (key, value) in &mut fields {
            if key == "objective" {
                *value = objective.clone();
            }
        }
        obj([("outcome", Json::Obj(fields))])
    }

    #[test]
    fn non_finite_reports_are_refused_before_the_journal() {
        let dir = tmpdir("non_finite");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("random", 6, 2)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        let handle = registry.get(&id).unwrap();
        let journal = registry.files_for(&id).journal;
        handle.lock().unwrap().suggest().unwrap();
        let first = success_body(Json::Num(5.0));
        handle.lock().unwrap().report(&first).unwrap();
        handle.lock().unwrap().suggest().unwrap();
        let before = std::fs::read(&journal).unwrap();
        for bad in ["nan", "inf"] {
            let body = success_body(Json::Str(bad.into()));
            let err = handle.lock().unwrap().report(&body).unwrap_err();
            assert_eq!(err.status, 400, "objective {bad}: {}", err.message);
            assert_eq!(
                std::fs::read(&journal).unwrap(),
                before,
                "{bad} was journaled"
            );
            let status = handle.lock().unwrap().status_json();
            assert_eq!(status.get("trials").unwrap().as_i64(), Some(1));
        }
        handle
            .lock()
            .unwrap()
            .report(&success_body(Json::Num(4.0)))
            .unwrap();
        let status = handle.lock().unwrap().status_json();
        assert_eq!(status.get("trials").unwrap().as_i64(), Some(2));
        let best = status.get("best").unwrap().get("objective").unwrap();
        assert_eq!(best.as_f64(), Some(4.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_non_finite_report_stays_parked() {
        // A journal written before reports were checked can hold a NaN
        // objective: replay refuses it instead of panicking on it.
        let dir = tmpdir("non_finite_replay");
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 0,
        };
        let id = {
            let registry = SessionRegistry::open(&dir, config.clone()).unwrap();
            let created = registry.create(&create_body("random", 6, 2)).unwrap();
            let id = created.get("id").unwrap().as_str().unwrap().to_owned();
            let handle = registry.get(&id).unwrap();
            handle.lock().unwrap().suggest().unwrap();
            let first = success_body(Json::Num(5.0));
            handle.lock().unwrap().report(&first).unwrap();
            handle.lock().unwrap().suggest().unwrap();
            id
        };
        let journal = SessionFiles::new(&dir.join("shard-0"), &id).journal;
        let Json::Obj(executed) = success_body(Json::Str("nan".into())) else {
            unreachable!("report bodies are objects")
        };
        let record = JournalOp::Report {
            executed: Json::Obj(executed),
            key: None,
        };
        std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap()
            .write_all(record.line().as_bytes())
            .unwrap();
        let registry = SessionRegistry::open(&dir, config).unwrap();
        assert_eq!(registry.list(), vec![id.clone()]);
        assert!(registry.get(&id).is_none(), "a NaN report revived");
        assert!(registry.get(&id).is_none(), "the session stays parked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_without_pending_conflicts() {
        let dir = tmpdir("conflict");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("random", 3, 5)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap();
        let handle = registry.get(id).unwrap();
        let outcome = mlconf_workloads::objective::TrialOutcome::failed("nope", 1.0);
        let body = obj([("outcome", outcome_to_json(&outcome))]);
        let err = handle.lock().unwrap().report(&body).unwrap_err();
        assert_eq!(err.status, 409);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reconstructs_midrun_state_and_next_suggestion() {
        let dir = tmpdir("replay");
        // Run 1: create, execute three trials, leave one pending.
        let (id, pending_before, status_before) = {
            let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
            let created = registry.create(&create_body("bo", 8, 11)).unwrap();
            let id = created.get("id").unwrap().as_str().unwrap().to_owned();
            let handle = registry.get(&id).unwrap();
            use mlconf_workloads::evaluator::ConfigEvaluator;
            use mlconf_workloads::objective::Objective;
            use mlconf_workloads::workload::mlp_mnist;
            let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, 11);
            for _ in 0..3 {
                let s = handle.lock().unwrap().suggest().unwrap();
                let cfg =
                    crate::api::config_from_json(&ev.space().clone(), s.get("config").unwrap())
                        .unwrap();
                let rep = s.get("rep").unwrap().as_i64().unwrap() as u64;
                let fidelity = s.get("fidelity").unwrap().as_f64().unwrap();
                let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
                handle
                    .lock()
                    .unwrap()
                    .report(&obj([("outcome", outcome_to_json(&outcome))]))
                    .unwrap();
            }
            let pending = handle.lock().unwrap().suggest().unwrap();
            let status = handle.lock().unwrap().status_json().render();
            (id, pending, status)
        };
        // "Crash": drop the registry, reopen over the same directory.
        let recovered = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let handle = recovered.get(&id).expect("session recovered");
        // The unreported suggestion is pending again, bit-identical.
        let pending_after = handle.lock().unwrap().suggest().unwrap();
        assert_eq!(pending_before.render(), pending_after.render());
        assert_eq!(status_before, handle.lock().unwrap().status_json().render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keyed_report_is_rejected_not_reapplied() {
        let dir = tmpdir("dedup");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("random", 4, 21)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        let handle = registry.get(&id).unwrap();
        let suggestion = handle.lock().unwrap().suggest().unwrap();
        assert!(suggestion.get("config").is_some());
        let outcome = mlconf_workloads::objective::TrialOutcome::failed("oom", 3.0);
        let body = obj([
            ("outcome", outcome_to_json(&outcome)),
            ("key", Json::Str("t0".into())),
        ]);
        let first = handle.lock().unwrap().report(&body).unwrap();
        assert!(first.get("duplicate").is_none());
        assert_eq!(first.get("trials").unwrap().as_i64(), Some(1));

        // The client's ACK was "dropped"; it retries the same report.
        let retry = handle.lock().unwrap().report(&body).unwrap();
        assert_eq!(retry.get("duplicate").unwrap().as_bool(), Some(true));
        assert_eq!(
            retry.get("trial").unwrap().as_i64(),
            first.get("trial").unwrap().as_i64()
        );
        // Not double-applied: still one trial, and only one report in
        // the journal.
        assert_eq!(
            handle.lock().unwrap().core().history().len(),
            1,
            "duplicate must not be told to the tuner"
        );
        let ops = read_journal(&registry.files_for(&id).journal).unwrap();
        let reports = ops
            .iter()
            .filter(|o| matches!(o, JournalOp::Report { .. }))
            .count();
        assert_eq!(reports, 1);

        // The dedup cache survives a crash-restart (rebuilt by replay).
        drop(handle);
        drop(registry);
        let recovered = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let handle = recovered.get(&id).unwrap();
        let retry = handle.lock().unwrap().report(&body).unwrap();
        assert_eq!(retry.get("duplicate").unwrap().as_bool(), Some(true));
        assert_eq!(handle.lock().unwrap().core().history().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_key_does_not_mask_a_new_report() {
        let dir = tmpdir("dedup_fresh");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        let created = registry.create(&create_body("random", 4, 22)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        let handle = registry.get(&id).unwrap();
        let outcome = mlconf_workloads::objective::TrialOutcome::failed("x", 1.0);
        for trial in 0..2 {
            handle.lock().unwrap().suggest().unwrap();
            let body = obj([
                ("outcome", outcome_to_json(&outcome)),
                ("key", Json::Str(format!("t{trial}"))),
            ]);
            let resp = handle.lock().unwrap().report(&body).unwrap();
            assert!(resp.get("duplicate").is_none(), "t{trial} is not a dup");
        }
        assert_eq!(handle.lock().unwrap().core().history().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_removes_every_on_disk_trace() {
        let dir = tmpdir("delete_all");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(1)).unwrap();
        let created = registry.create(&create_body("random", 4, 5)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        drive(&registry, &id, 5);
        let files = registry.files_for(&id);
        assert!(files.snap.exists());
        // Plant a temp file as a crashed checkpoint would leave it.
        std::fs::write(files.snap.with_extension("snap.tmp"), b"partial").unwrap();
        assert!(registry.delete(&id));
        // The whole journal tree is clean of this session.
        let leftovers: Vec<String> = walk_files(&dir)
            .into_iter()
            .filter(|name| name.contains(&id))
            .collect();
        assert!(
            leftovers.is_empty(),
            "on-disk leak after delete: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file name (not path) under `dir`, recursively.
    fn walk_files(dir: &Path) -> Vec<String> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.extend(walk_files(&path));
            } else if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                out.push(name.to_owned());
            }
        }
        out
    }

    #[test]
    fn corrupt_journal_parks_but_never_revives() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        std::fs::write(
            dir.join("shard-0").join("s1.jsonl"),
            "garbage\n{\"op\":\"suggest\"}\n",
        )
        .unwrap();
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(0)).unwrap();
        // Discovery parks s1; the first touch fails and leaves it parked.
        assert_eq!(registry.list(), vec!["s1".to_owned()]);
        assert!(registry.get("s1").is_none());
        // Its id stays reserved (the bad journal is preserved as
        // evidence, migrated into its shard dir); new sessions skip it.
        let created = registry.create(&create_body("random", 2, 1)).unwrap();
        assert_eq!(created.get("id").unwrap().as_str(), Some("s2"));
        assert!(registry.files_for("s1").journal.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_an_older_layout_naming_the_file() {
        let record = b"{\"op\":\"suggest\"}\n";
        for (tag, name, layout) in [
            ("flat", "s1.jsonl", "pre-sharding flat layout"),
            ("hist", "shard-0/s1.hist", "older compacting layout"),
        ] {
            let dir = tmpdir(&format!("refuse_{tag}"));
            let file = dir.join(name);
            std::fs::create_dir_all(file.parent().unwrap()).unwrap();
            std::fs::write(&file, record).unwrap();
            let err = SessionRegistry::open(&dir, RegistryConfig::new(0))
                .err()
                .expect("an older layout opened");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}");
            let message = err.to_string();
            assert!(
                message.contains(&file.display().to_string()) && message.contains(layout),
                "{tag}: {message}"
            );
            assert_eq!(std::fs::read(&file).unwrap(), record, "{tag}: file touched");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn every_tuners_checkpoint_loads_back() {
        // `snapshot::load` refuses data that does not re-encode to the
        // same tree, so every tuner's checkpoint must be canonical or
        // its sessions silently fall back to full replay.
        let dir = tmpdir("canonical");
        let registry = SessionRegistry::open(&dir, RegistryConfig::new(1)).unwrap();
        let ev = evaluator(5);
        let mut loaded = Vec::new();
        for tuner in mlconf_tuners::factory::TUNER_NAMES
            .into_iter()
            .chain(["portfolio:bo,lhs"])
        {
            let created = registry.create(&create_body(tuner, 8, 5)).unwrap();
            let id = created.get("id").unwrap().as_str().unwrap().to_owned();
            for _ in 0..5 {
                assert!(step(&registry, &id, &ev), "{tuner} finished early");
            }
            let snap = registry.files_for(&id).snap;
            if snap.exists() {
                assert!(
                    snapshot::load(&snap).is_some(),
                    "{tuner}: checkpoint refused"
                );
                loaded.push(tuner);
            }
        }
        for tuner in ["bo", "random", "lhs", "grid", "anneal", "portfolio:bo,lhs"] {
            assert!(loaded.contains(&tuner), "{tuner} wrote no checkpoint");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_ids_neither_overflow_nor_wrap() {
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 0,
        };
        let dir = tmpdir("id_space");
        let shard = dir.join("shard-0");
        std::fs::create_dir_all(&shard).unwrap();
        // A journal holding the largest id leaves none for a new session.
        let last = shard.join(format!("s{}.jsonl", u64::MAX));
        std::fs::write(&last, "garbage\n").unwrap();
        let err = SessionRegistry::open(&dir, config.clone())
            .err()
            .expect("an id with no successor opened");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&last.display().to_string()),
            "{err}"
        );
        std::fs::remove_file(&last).unwrap();

        // Two ids below it: the next create takes the last id left, and
        // the one after is refused instead of wrapping round to `s1`.
        std::fs::write(shard.join(format!("s{}.jsonl", u64::MAX - 2)), "garbage\n").unwrap();
        let registry = SessionRegistry::open(&dir, config).unwrap();
        let created = registry.create(&create_body("random", 2, 1)).unwrap();
        let id = format!("s{}", u64::MAX - 1);
        assert_eq!(created.get("id").unwrap().as_str(), Some(id.as_str()));
        let err = registry.create(&create_body("random", 2, 1)).unwrap_err();
        assert_eq!(err.status, 500, "{err}");
        assert_eq!(registry.list().len(), 2);
        assert_eq!(walk_files(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn revival_cuts_a_torn_tail_before_appending() {
        let dir = tmpdir("torn_tail");
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 0,
        };
        let outcome = mlconf_workloads::objective::TrialOutcome::failed("x", 1.0);
        let body = obj([("outcome", outcome_to_json(&outcome))]);
        let trial = |registry: &SessionRegistry, id: &str| {
            let handle = registry.get(id).expect("session revives");
            handle.lock().unwrap().suggest().unwrap();
            handle.lock().unwrap().report(&body).unwrap();
        };
        let id = {
            let registry = SessionRegistry::open(&dir, config.clone()).unwrap();
            let created = registry.create(&create_body("random", 5, 3)).unwrap();
            let id = created.get("id").unwrap().as_str().unwrap().to_owned();
            trial(&registry, &id);
            trial(&registry, &id);
            id
        };
        // A crash mid-append left part of an unacknowledged record.
        let journal = SessionFiles::new(&dir.join("shard-0"), &id).journal;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap()
            .write_all(b"{\"op\":\"rep")
            .unwrap();
        {
            let registry = SessionRegistry::open(&dir, config.clone()).unwrap();
            trial(&registry, &id);
        }
        // The third trial's records follow the second's, not the tear,
        // so the next revival reads all three.
        let registry = SessionRegistry::open(&dir, config).unwrap();
        let handle = registry.get(&id).expect("journal stays readable");
        assert_eq!(handle.lock().unwrap().core().history().len(), 3);
        assert_eq!(read_journal(&journal).unwrap().len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_parks_idle_sessions_and_revives_bit_identically() {
        let dir = tmpdir("evict");
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 1,
        };
        let registry = SessionRegistry::open(&dir, config).unwrap();
        let created = registry.create(&create_body("bo", 6, 13)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        let handle = registry.get(&id).unwrap();
        let pending_before = handle.lock().unwrap().suggest().unwrap();
        let status_before = handle.lock().unwrap().status_json().render();
        drop(handle); // idle: no in-flight request holds the Arc

        // A second session pushes the shard over its live bound of 1,
        // evicting the idle first session to disk.
        registry.create(&create_body("random", 2, 14)).unwrap();
        let stats = &registry.shard_stats()[0];
        assert_eq!((stats.live, stats.parked), (1, 1), "first session parked");

        // The next touch revives it from the journal, bit-identically:
        // same pending suggestion, same status.
        let handle = registry.get(&id).expect("parked session revives");
        assert_eq!(
            handle.lock().unwrap().suggest().unwrap().render(),
            pending_before.render()
        );
        assert_eq!(handle.lock().unwrap().status_json().render(), status_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_flight_sessions_are_never_evicted() {
        let dir = tmpdir("evict_pinned");
        let config = RegistryConfig {
            snapshot_every: 0,
            shards: 1,
            max_sessions: 1,
        };
        let registry = SessionRegistry::open(&dir, config).unwrap();
        let created = registry.create(&create_body("random", 4, 1)).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        // Hold the Arc, as an in-flight request would.
        let _handle = registry.get(&id).unwrap();
        registry.create(&create_body("random", 4, 2)).unwrap();
        let stats = &registry.shard_stats()[0];
        // Both stay live: the pinned session must not lose its journal
        // writer, so the bound is soft under concurrency.
        assert_eq!((stats.live, stats.parked), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_change_migrates_files_and_recovers() {
        let dir = tmpdir("migrate");
        let id = {
            let config = RegistryConfig {
                snapshot_every: 1,
                shards: 2,
                max_sessions: 0,
            };
            let registry = SessionRegistry::open(&dir, config).unwrap();
            let created = registry.create(&create_body("random", 4, 17)).unwrap();
            let id = created.get("id").unwrap().as_str().unwrap().to_owned();
            drive(&registry, &id, 17);
            id
        };
        // Reopen with a different shard count: the journal and the
        // checkpoint follow the new hash assignment.
        let config = RegistryConfig {
            snapshot_every: 1,
            shards: 5,
            max_sessions: 0,
        };
        let registry = SessionRegistry::open(&dir, config).unwrap();
        let files = registry.files_for(&id);
        assert!(files.journal.exists(), "journal migrated");
        assert!(files.snap.exists(), "checkpoint migrated");
        let handle = registry.get(&id).expect("session revives after migration");
        let status = handle.lock().unwrap().status_json();
        assert_eq!(status.get("finished").unwrap().as_bool(), Some(true));
        assert_eq!(status.get("trials").unwrap().as_i64(), Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
