//! The workloads and one run of each: set-up, measured phases, output
//! checks, and the metrics they yield.
//!
//! Why these workloads (see `NOTES.md` for the predictions):
//!
//! - `serve-steady`: `random` sessions, server defaults, an open loop
//!   and a closed-loop peak phase. A step is HTTP framing, the IO-shard
//!   loop, a registry lookup and two journal append+fsyncs; tuner, GP
//!   and snapshots do nothing. Journal and IO-loop changes show here;
//!   GP and snapshot changes must read flat.
//! - `serve-bo`: tuning clients in a closed loop on the default `bo`
//!   tuner over E2's quick workloads, with a snapshot every 16 journaled
//!   operations. The tuner's ask is nearly all of the suggest service
//!   time; snapshot installs ride on about one request in 16; `regret`
//!   guards tuning quality.
//!
//! Both run in six rounds on fresh sessions, and each end-to-end timing
//! and rate is the best round's: the host's other tenants slow whole
//! stretches of a run, and the round they disturbed least stands for
//! the program.

use crate::loadgen::{self, Arrival, Done, LaneRun, OpKind, OpRecord, Target};
use crate::procfs;
use crate::replay;
use crate::stats::{self, Value};
use crate::trace::Tracer;
use mlconf_bench::oracle::find_oracle;
use mlconf_serve::api::{config_from_json, config_to_json, outcome_to_json};
use mlconf_serve::client::Client;
use mlconf_serve::json::{obj, parse, Json};
use mlconf_serve::{RegistryConfig, ServeConfig, Server, SessionRegistry};
use mlconf_space::{ConfigSpace, Configuration};
use mlconf_util::rng::SplitMix64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::{Objective, TrialOutcome};
use mlconf_workloads::tunespace::standard_space;
use mlconf_workloads::workload::{cnn_cifar, logreg_criteo, mlp_mnist, Workload};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cluster-size ceiling of every session's space (E2's quick scale).
pub const MAX_NODES: i64 = 32;

/// Seed of the evaluator the oracle searches with (E2's first quick
/// seed), fixed so the optimum is the same in every run.
const ORACLE_SEED: u64 = 11;

/// Budget of the open-ended `random` sessions: far beyond any run, so
/// no session finishes and answers `done` instead of suggesting.
const OPEN_BUDGET: usize = 100_000;

/// RNG stream tags, so specs and schedules draw independent streams.
const SPEC_STREAM: u64 = 0x5eed_5bec;
const SCHEDULE_STREAM: u64 = 0x5eed_a771;

/// End-to-end metrics (name, unit), reported with tracing off. The
/// 99th percentiles are measured too, but reported beside these rather
/// than gated: on a shared 2-vCPU host their run-to-run spread is several
/// times any usable bound (see `NOTES.md`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("step_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_steps_per_s", "steps/s"),
    ("regret", "ratio"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit) measurable on every workload,
/// reported by the traced run.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("loadgen.send_lateness_p99_ms", "ms"),
    ("serve.suggest_service_p50_ms", "ms"),
    ("serve.suggest_service_p99_ms", "ms"),
    ("serve.report_service_p50_ms", "ms"),
    ("serve.report_service_p99_ms", "ms"),
    ("serve.read_service_p50_ms", "ms"),
    ("serve.read_service_p99_ms", "ms"),
    ("serve.connections_per_1k_ops", "count"),
    ("serve.cpu_ms_per_op", "ms"),
    ("serve.idle_cpu_ms_per_s", "ms/s"),
    ("registry.get_p99_ms", "ms"),
    ("registry.lock_wait_p99_ms", "ms"),
    ("registry.suggest_p50_ms", "ms"),
    ("registry.report_p50_ms", "ms"),
    ("registry.status_p50_ms", "ms"),
    ("registry.status_p99_ms", "ms"),
    ("journal.append_p50_ms", "ms"),
    ("journal.append_p99_ms", "ms"),
    ("journal.bytes_per_step", "bytes"),
    ("snapshot.share_of_ops", "ratio"),
    ("io.write_bytes_per_op", "bytes"),
    ("tuner.suggest_p50_ms", "ms"),
    ("tuner.suggest_p99_ms", "ms"),
    ("tuner.observe_p50_ms", "ms"),
    ("session.ask_overhead_p50_ms", "ms"),
    ("gp.hyperopt_share", "ratio"),
    ("sim.evaluate_p50_ms", "ms"),
    ("loadgen.offered_ops_per_s", "ops/s"),
    ("loadgen.achieved_ops_per_s", "ops/s"),
];

/// Per-layer metrics that exist only where their layer does work
/// (snapshot installs on the request path and GP suggests, both on
/// `serve-bo`). Reported on their own line; `null` with the reason
/// elsewhere.
pub const WORKLOAD_SPECIFIC: [(&str, &str); 4] = [
    ("snapshot.op_p50_ms", "ms"),
    ("snapshot.op_p99_ms", "ms"),
    ("gp.hyperopt_suggest_p50_ms", "ms"),
    ("gp.plain_suggest_p50_ms", "ms"),
];

/// The workloads' names.
pub const WORKLOADS: [&str; 2] = ["serve-steady", "serve-bo"];

/// E2's quick workloads, which sessions are spread over.
fn quick_workload(i: usize) -> Workload {
    match i % 3 {
        0 => logreg_criteo(),
        1 => mlp_mnist(),
        _ => cnn_cifar(),
    }
}

/// Which load shape a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Rounds of open-loop arrivals, each followed by a closed-loop
    /// peak phase, then a quiet interval.
    Open,
    /// Rounds of a closed loop of tuning clients, each on sessions of
    /// its own run to completion, then a quiet interval.
    Closed,
}

/// Everything that sizes one workload run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Load shape.
    pub shape: Shape,
    /// Sessions: for `serve-steady`, the open-loop sessions of one
    /// round (beside `peak_sessions`); for `serve-bo`, all of them,
    /// split evenly over the rounds.
    pub sessions: usize,
    /// Tuner of every session.
    pub tuner: &'static str,
    /// Trial budget of every session.
    pub budget: usize,
    /// Server checkpoint cadence (0: no snapshots).
    pub snapshot_every: u64,
    /// Open-loop arrivals per second.
    pub rate: f64,
    /// Share of open-loop arrivals that are status reads.
    pub read_share: f64,
    /// Open-loop window, seconds.
    pub open_secs: f64,
    /// Quiet interval, seconds.
    pub quiet_secs: f64,
    /// Rounds a run is measured in, each on fresh sessions of its own,
    /// so that the rounds repeat one another and each end-to-end timing
    /// and rate is the best round's. Open shape: the open loop and the
    /// peak phase are split into rounds and alternated. Closed shape:
    /// the tuning clients run the round's sessions to completion.
    pub rounds: usize,
    /// Open shape: steps of the peak phase, over all rounds. A fixed
    /// count, not a fixed time, so the work done (and the memory it
    /// takes) is the same on a fast host and a slow one.
    pub peak_steps: usize,
    /// Open shape: sessions of one round that its peak phase steps, so
    /// the open-loop sessions see only the schedule.
    pub peak_sessions: usize,
    /// Set-ups timed: the first half before the measured phases (the
    /// last of these serves the run), the rest after it shuts down.
    pub setups: usize,
    /// Halton candidates of the oracle search.
    pub oracle_candidates: usize,
}

impl Plan {
    /// The full-size plan of `name` for a run of `seconds`.
    ///
    /// # Errors
    ///
    /// Unknown workload names.
    pub fn new(name: &str, seconds: f64) -> Result<Plan, String> {
        let seconds = seconds.max(1.0);
        let quiet_secs = (0.05 * seconds).min(1.0);
        match name {
            // The rate is under a fifth of the closed-loop peak, and the
            // window holds over 1000 reads, so every p99 (all rounds
            // pooled) has at least ten samples beyond it. The peak steps
            // take a quarter to a third of the open loop's time on the
            // measurement host.
            "serve-steady" => {
                let open_secs = 0.65 * seconds;
                Ok(Plan {
                    name: "serve-steady",
                    shape: Shape::Open,
                    sessions: 64,
                    tuner: "random",
                    budget: OPEN_BUDGET,
                    snapshot_every: 0,
                    rate: 400.0,
                    read_share: 0.25,
                    open_secs,
                    quiet_secs,
                    rounds: 6,
                    peak_steps: (500.0 * seconds) as usize,
                    peak_sessions: 64,
                    setups: 15,
                    oracle_candidates: 600,
                })
            }
            // E15's snapshot cadence: the snapshot chain rides on the
            // request path of a workload whose time is mostly CPU. A
            // fixed count of sessions, sized to fill the run at about
            // 200 trials/s on the measurement host.
            "serve-bo" => Ok(Plan {
                name: "serve-bo",
                shape: Shape::Closed,
                sessions: 6 * ((seconds * 3.2 / 6.0).round() as usize).max(1),
                tuner: "bo",
                budget: 60,
                snapshot_every: 16,
                rate: 0.0,
                read_share: 0.0,
                open_secs: 0.0,
                quiet_secs,
                rounds: 6,
                peak_steps: 0,
                peak_sessions: 0,
                setups: 15,
                oracle_candidates: 600,
            }),
            other => Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// A toy-sized plan for self-tests: every phase runs, but too few
    /// samples for the 99th percentiles.
    ///
    /// # Errors
    ///
    /// Unknown workload names.
    pub fn toy(name: &str) -> Result<Plan, String> {
        let mut plan = Plan::new(name, 3.0)?;
        plan.setups = 2;
        plan.oracle_candidates = 40;
        match plan.shape {
            Shape::Open => {
                plan.sessions = plan.sessions.min(8);
                plan.peak_sessions = plan.peak_sessions.min(4);
                plan.rate = 150.0;
                plan.rounds = 2;
                plan.open_secs = 1.0;
                plan.peak_steps = 400;
            }
            Shape::Closed => {
                plan.sessions = 12;
                plan.budget = 8;
                plan.rounds = 2;
            }
        }
        Ok(plan)
    }

    fn serve_config(&self, dir: &Path) -> ServeConfig {
        let mut config = ServeConfig::new(dir.to_path_buf());
        config.snapshot_every = self.snapshot_every;
        config
    }

    pub(crate) fn registry_config(&self) -> RegistryConfig {
        let serve = self.serve_config(Path::new("."));
        RegistryConfig {
            snapshot_every: serve.snapshot_every,
            shards: serve.shards,
            max_sessions: serve.max_sessions,
        }
    }

    /// Sessions over the whole run.
    fn total_sessions(&self) -> usize {
        match self.shape {
            Shape::Open => self.rounds * (self.sessions + self.peak_sessions),
            Shape::Closed => self.sessions,
        }
    }

    /// Sessions created at set-up: the first round's, or all of them.
    fn setup_sessions(&self) -> usize {
        match self.shape {
            Shape::Open => self.sessions + self.peak_sessions,
            Shape::Closed => self.sessions,
        }
    }

    /// Round `r`'s sessions as index ranges: all of them, the
    /// open-loop ones (first; all of them in the closed shape) and the
    /// peak ones.
    fn round_sessions(&self, r: usize) -> [Range<usize>; 3] {
        let (open, peak) = match self.shape {
            Shape::Open => (self.sessions, self.peak_sessions),
            Shape::Closed => (self.sessions / self.rounds, 0),
        };
        let base = r * (open + peak);
        let mid = base + open;
        let end = mid + peak;
        [base..end, base..mid, mid..end]
    }

    fn is_snapshot(&self, journaled: u64) -> bool {
        self.snapshot_every > 0 && journaled.is_multiple_of(self.snapshot_every)
    }
}

/// One journaled or read operation as the client saw it, kept for the
/// in-process replay.
#[derive(Debug, Clone)]
pub enum Logged {
    /// A state-advancing suggest and the configuration it returned.
    Suggest {
        /// Global completion order.
        order: u64,
        /// The suggested configuration, rendered.
        config: String,
        /// Whether this request crossed a snapshot boundary.
        snapshot: bool,
    },
    /// A report and the exact body sent.
    Report {
        /// Global completion order.
        order: u64,
        /// The request body.
        body: Json,
        /// Whether this request crossed a snapshot boundary.
        snapshot: bool,
    },
    /// A status read.
    Read {
        /// Global completion order.
        order: u64,
    },
}

impl Logged {
    /// Global completion order.
    pub fn order(&self) -> u64 {
        match self {
            Logged::Suggest { order, .. }
            | Logged::Report { order, .. }
            | Logged::Read { order } => *order,
        }
    }
}

/// The client's record of one session.
#[derive(Debug)]
pub struct Sess {
    /// Server-assigned id.
    pub id: String,
    /// The creating spec.
    pub spec: Json,
    /// Session seed.
    pub seed: u64,
    /// Index into E2's quick workloads.
    pub workload: usize,
    /// Evaluates this session's trials.
    pub evaluator: ConfigEvaluator,
    /// Reports the server acknowledged.
    pub acked: usize,
    /// Operations the server journaled after `create`.
    pub journaled: u64,
    /// Best successful trial so far (objective, configuration).
    pub best: Option<(f64, Configuration)>,
    /// Incumbent when `regret` is taken.
    pub scored: Option<Configuration>,
    /// Open-loop workloads: the configuration the in-process session
    /// suggests at each scheduled step, rendered, and the outcome the
    /// client reports for it.
    pub planned: Vec<(String, TrialOutcome)>,
    /// Every operation, in session order.
    pub log: Vec<Logged>,
}

/// Session specs of one run, deterministic in the seed.
fn session_specs(plan: &Plan, seed: u64) -> Vec<(Json, u64, usize)> {
    let mut rng = SplitMix64::new(seed ^ SPEC_STREAM);
    let rotate = (seed % 3) as usize;
    (0..plan.total_sessions())
        .map(|i| {
            let session_seed = rng.next_u64() % 1_000_000_007;
            let spec = obj([
                ("tuner", Json::Str(plan.tuner.into())),
                ("budget", Json::Num(plan.budget as f64)),
                ("seed", Json::Num(session_seed as f64)),
                ("max_nodes", Json::Num(MAX_NODES as f64)),
            ]);
            (spec, session_seed, (i + rotate) % 3)
        })
        .collect()
}

/// What every lane shares.
struct Ctx<'a> {
    plan: &'a Plan,
    addr: String,
    seed: u64,
    space: ConfigSpace,
    sessions: &'a [Mutex<Sess>],
    order: AtomicU64,
    /// `serve-bo`: next session of the round to start.
    next_session: AtomicUsize,
}

fn client(addr: &str, seed: u64) -> Client {
    let mut client = Client::new(addr.to_owned(), seed);
    // A retried request would hide a failure: every error counts.
    client.max_retries = 0;
    client
}

fn lock(s: &Mutex<Sess>) -> std::sync::MutexGuard<'_, Sess> {
    s.lock().expect("a lane panicked while holding a session")
}

/// One lane: a keep-alive connection and the sessions pinned to it.
struct HttpLane<'a> {
    ctx: &'a Ctx<'a>,
    client: Client,
    /// The round's peak sessions pinned to this lane (open-shape
    /// workloads).
    pinned: Vec<usize>,
    cursor: usize,
    /// Closed-loop steps left in the current open-shape segment.
    quota: usize,
    /// `serve-bo`: the end of the round's sessions, the session this
    /// lane is tuning, and whether its status read is due.
    round_end: usize,
    current: Option<usize>,
    read_due: bool,
    problems: Vec<String>,
}

impl<'a> HttpLane<'a> {
    fn new(ctx: &'a Ctx<'a>, lane: usize) -> Self {
        HttpLane {
            ctx,
            client: client(&ctx.addr, ctx.seed ^ lane as u64),
            pinned: Vec::new(),
            cursor: 0,
            quota: 0,
            round_end: 0,
            current: None,
            read_due: false,
            problems: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) -> bool {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
        false
    }

    fn order(&self) -> u64 {
        self.ctx.order.fetch_add(1, Ordering::Relaxed)
    }

    /// `suggest` → evaluate → `report`, checking both replies.
    fn step(
        &mut self,
        index: usize,
        step: u64,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> Done {
        let ctx = self.ctx;
        let mut s = lock(&ctx.sessions[index]);
        let t0 = Instant::now();
        let suggestion = self.client.suggest(&s.id);
        let t1 = Instant::now();
        let span = tracer.record("serve.suggest", parent, step, t0, t1);
        s.journaled += 1;
        let snapshot = ctx.plan.is_snapshot(s.journaled);
        if snapshot {
            tracer.tag(span, "snapshot");
        }
        let done = |ok, client_ms, end| Done { ok, client_ms, end };
        let suggestion = match suggestion {
            Ok(v) => v,
            Err(e) => return done(self.fail(format!("{}: suggest: {e}", s.id)), 0.0, t1),
        };
        let trial = suggestion.get("trial").and_then(Json::as_i64);
        if suggestion.get("done").and_then(Json::as_bool) != Some(false)
            || trial != Some(s.acked as i64)
        {
            let msg = format!(
                "{}: expected trial {}, got {}",
                s.id,
                s.acked,
                suggestion.render()
            );
            return done(self.fail(msg), 0.0, t1);
        }
        let pending = (|| {
            let config = config_from_json(&ctx.space, suggestion.get("config")?).ok()?;
            let rep = u64::try_from(suggestion.get("rep")?.as_i64()?).ok()?;
            Some((config, rep, suggestion.get("fidelity")?.as_f64()?))
        })();
        let Some((config, rep, fidelity)) = pending else {
            let msg = format!("{}: undecodable suggestion {}", s.id, suggestion.render());
            return done(self.fail(msg), 0.0, t1);
        };
        let rendered = config_to_json(&config).render();
        let outcome = match ctx.plan.shape {
            // Tuning clients evaluate each suggestion themselves.
            Shape::Closed => {
                let t2 = Instant::now();
                let outcome = s.evaluator.evaluate_with_fidelity(&config, rep, fidelity);
                tracer.record("sim.evaluate", parent, step, t2, Instant::now());
                outcome
            }
            // Open-loop clients report the outcome generated for the
            // scheduled step; steps beyond the schedule (the peak phase)
            // report a fixed failed trial.
            Shape::Open => match s.planned.get(s.acked) {
                Some((expected, outcome)) => {
                    if *expected != rendered {
                        let msg = format!(
                            "{}: trial {} differs from the in-process session",
                            s.id, s.acked
                        );
                        return done(self.fail(msg), 0.0, t1);
                    }
                    outcome.clone()
                }
                None => TrialOutcome::failed("unplanned step", 1.0),
            },
        };
        // The dedup key `Client::report` would add, set here so the
        // replay sees the exact body.
        let body = obj([
            ("outcome", outcome_to_json(&outcome)),
            ("key", Json::Str(format!("t{}", s.acked))),
        ]);
        let order = self.order();
        s.log.push(Logged::Suggest {
            order,
            config: rendered,
            snapshot,
        });
        let t4 = Instant::now();
        let reply = self.client.report(&s.id, s.acked, &body);
        let t5 = Instant::now();
        let span = tracer.record("serve.report", parent, step, t4, t5);
        s.journaled += 1;
        let snapshot = ctx.plan.is_snapshot(s.journaled);
        if snapshot {
            tracer.tag(span, "snapshot");
        }
        let client_ms = (t4 - t1).as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(v) => v,
            Err(e) => return done(self.fail(format!("{}: report: {e}", s.id)), client_ms, t5),
        };
        let order = self.order();
        s.log.push(Logged::Report {
            order,
            body,
            snapshot,
        });
        if let Some(v) = outcome.objective.filter(|_| outcome.is_ok()) {
            if s.best.as_ref().is_none_or(|(b, _)| v < *b) {
                s.best = Some((v, config));
            }
        }
        s.acked += 1;
        let best = s.best.as_ref().map(|(b, _)| b.to_bits());
        let ok = reply.get("trial").and_then(Json::as_i64) == Some(s.acked as i64 - 1)
            && reply.get("trials").and_then(Json::as_i64) == Some(s.acked as i64)
            && reply.get("best_objective").and_then(Json::as_f64).map(f64::to_bits) == best
            // A session finishes at the ask after its last report.
            && reply.get("finished").and_then(Json::as_bool) == Some(false);
        if !ok {
            let msg = format!(
                "{}: report {} acknowledged as {}",
                s.id,
                s.acked - 1,
                reply.render()
            );
            return done(self.fail(msg), client_ms, t5);
        }
        done(true, client_ms, t5)
    }

    /// `GET /sessions/{id}`, checking the trial count.
    fn read(
        &mut self,
        index: usize,
        step: u64,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> Done {
        let ctx = self.ctx;
        let mut s = lock(&ctx.sessions[index]);
        let path = format!("/sessions/{}", s.id);
        let t0 = Instant::now();
        let reply = self.client.request("GET", &path, None);
        let t1 = Instant::now();
        tracer.record("serve.read", parent, step, t0, t1);
        let order = self.order();
        s.log.push(Logged::Read { order });
        let ok = match reply {
            Ok((200, body)) => match status_matches(&body, s.acked) {
                Ok(()) => true,
                Err(e) => self.fail(format!("{}: read: {e}", s.id)),
            },
            Ok((code, body)) => self.fail(format!("{}: read -> {code}: {body}", s.id)),
            Err(e) => self.fail(format!("{}: read: {e}", s.id)),
        };
        Done {
            ok,
            client_ms: 0.0,
            end: t1,
        }
    }
}

/// Checks a status body: the top-level `trials` equals the acknowledged
/// reports and nothing is pending. The body is scanned, not parsed: it
/// grows with the session's history, and a full parse on the lane would
/// make the generator fall behind its schedule. (`trials` is the first
/// such key: only `id` and `spec` precede it.) The restart check
/// compares every final status in full.
fn status_matches(body: &str, acked: usize) -> Result<(), String> {
    let trials = body
        .split_once("\"trials\":")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse::<usize>().ok());
    let idle = body.contains("\"pending\":null");
    if trials != Some(acked) || !idle {
        return Err(format!(
            "status shows trials {trials:?} (pending null: {idle}); {acked} reports acknowledged"
        ));
    }
    Ok(())
}

impl Target for HttpLane<'_> {
    fn op(
        &mut self,
        kind: OpKind,
        session: usize,
        step: u64,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> Done {
        match kind {
            OpKind::Step => self.step(session, step, tracer, parent),
            OpKind::Read => self.read(session, step, tracer, parent),
        }
    }

    fn next_op(&mut self, past_deadline: bool) -> Option<(OpKind, usize)> {
        let ctx = self.ctx;
        match ctx.plan.shape {
            Shape::Open => {
                if past_deadline || self.quota == 0 || self.pinned.is_empty() {
                    return None;
                }
                self.quota -= 1;
                self.cursor += 1;
                Some((OpKind::Step, self.pinned[self.cursor % self.pinned.len()]))
            }
            Shape::Closed => loop {
                if past_deadline {
                    // The run's completion check reports the session.
                    self.current = None;
                    return None;
                }
                if let Some(c) = self.current {
                    if self.read_due {
                        self.read_due = false;
                        return Some((OpKind::Read, c));
                    }
                    if lock(&ctx.sessions[c]).acked < ctx.plan.budget {
                        self.read_due = true;
                        return Some((OpKind::Step, c));
                    }
                    self.current = None;
                }
                let next = ctx.next_session.fetch_add(1, Ordering::Relaxed);
                if next >= self.round_end {
                    return None;
                }
                self.current = Some(next);
            },
        }
    }
}

/// One measured phase: one segment, or the segments of one kind
/// absorbed together. Segment timestamps are relative to the segment's
/// start.
struct Phase {
    records: Vec<OpRecord>,
    /// The rounds: each one's records, as a range of `records`, and its
    /// length in seconds.
    rounds: Vec<(Range<usize>, f64)>,
    tracer: Tracer,
    /// Seconds from each segment's start to its last completion, summed.
    duration: f64,
    connections: u64,
    /// Server CPU: the process's CPU less the lane threads'.
    server_cpu_ms: Result<f64, String>,
    write_bytes: Result<u64, String>,
    /// Host CPU ticks the hypervisor gave to other guests, and all
    /// host CPU ticks.
    host_ticks: Result<(u64, u64), String>,
    /// Open loop: successful operations completed inside their
    /// segment's window.
    in_window: usize,
}

impl Phase {
    fn empty(trace: bool, epoch: Instant) -> Phase {
        Phase {
            records: Vec::new(),
            rounds: Vec::new(),
            tracer: Tracer::new(trace, epoch),
            duration: 0.0,
            connections: 0,
            server_cpu_ms: Ok(0.0),
            write_bytes: Ok(0),
            host_ticks: Ok((0, 0)),
            in_window: 0,
        }
    }

    /// Adds a later segment of the same kind.
    fn absorb(&mut self, other: Phase) {
        let base = self.records.len();
        self.rounds.extend(
            other
                .rounds
                .into_iter()
                .map(|(r, secs)| (r.start + base..r.end + base, secs)),
        );
        self.records.extend(other.records);
        self.tracer.absorb(other.tracer);
        self.duration += other.duration;
        self.connections += other.connections;
        self.server_cpu_ms = (|| Ok(self.server_cpu_ms.clone()? + other.server_cpu_ms?))();
        self.write_bytes = (|| Ok(self.write_bytes.clone()? + other.write_bytes?))();
        self.host_ticks = (|| {
            let ((s0, t0), (s1, t1)) = (self.host_ticks.clone()?, other.host_ticks?);
            Ok((s0 + s1, t0 + t1))
        })();
        self.in_window += other.in_window;
    }

    /// Each round's records and length.
    fn each_round(&self) -> impl Iterator<Item = (&[OpRecord], f64)> + '_ {
        self.rounds
            .iter()
            .map(|(r, secs)| (&self.records[r.clone()], *secs))
    }

    /// Share of the host's CPU time the hypervisor gave to other guests.
    fn host_steal(&self) -> Value {
        match &self.host_ticks {
            Ok((steal, total)) => Value::ratio(*steal as f64, *total as f64, "steal"),
            Err(e) => Value::Null(e.clone()),
        }
    }

    fn requests(&self) -> usize {
        self.records
            .iter()
            .map(|r| match r.kind {
                OpKind::Step => 2,
                OpKind::Read => 1,
            })
            .sum()
    }
}

/// Drives one segment over `lanes`: the open loop over `schedule`
/// (arrivals in `[0, secs)`) when given, else the closed loop for at
/// most `secs`, until the lanes run out of operations.
fn drive(
    lanes: &mut [HttpLane<'_>],
    trace: bool,
    schedule: Option<Vec<Arrival>>,
    secs: f64,
    epoch: Instant,
) -> Phase {
    let opened0: u64 = lanes.iter().map(|l| l.client.connections_opened()).sum();
    let cpu0 = procfs::process_cpu_secs();
    let io0 = procfs::write_bytes();
    let host0 = procfs::host_cpu_ticks();
    let open = schedule.is_some();
    let runs = match schedule {
        Some(arrivals) => {
            let mut schedules = vec![Vec::new(); lanes.len()];
            for a in arrivals {
                schedules[a.session % lanes.len()].push(a);
            }
            loadgen::run_open(lanes, schedules, trace, epoch)
        }
        None => loadgen::run_closed(lanes, secs, trace, epoch),
    };
    let cpu1 = procfs::process_cpu_secs();
    let io1 = procfs::write_bytes();
    let host_ticks = (|| {
        let ((s0, t0), (s1, t1)) = (host0?, procfs::host_cpu_ticks()?);
        Ok((s1.saturating_sub(s0), t1.saturating_sub(t0)))
    })();
    let lane_cpu_ns: Result<u64, String> = runs.iter().map(|r| r.cpu_ns.clone()).sum();
    let server_cpu_ms = (|| Ok((cpu1? - cpu0?) * 1e3 - lane_cpu_ns? as f64 / 1e6))();
    let write_bytes = (|| Ok(io1?.saturating_sub(io0?)))();
    let mut tracer = Tracer::new(trace, epoch);
    let mut records = Vec::new();
    for LaneRun {
        records: r,
        tracer: t,
        ..
    } in runs
    {
        records.extend(r);
        tracer.absorb(t);
    }
    let in_window = if open {
        loadgen::completed_in(&records, secs)
    } else {
        0
    };
    let duration = records.iter().map(|r| r.done).fold(0.0, f64::max);
    Phase {
        duration,
        rounds: vec![(0..records.len(), duration)],
        records,
        tracer,
        connections: lanes
            .iter()
            .map(|l| l.client.connections_opened())
            .sum::<u64>()
            - opened0,
        server_cpu_ms,
        write_bytes,
        host_ticks,
        in_window,
    }
}

/// A named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value or the reason there is none.
    pub value: Value,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or failed a reply check.
    pub failed: u64,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Workload-specific per-layer metrics (traced runs only).
    pub specific: Vec<Metric>,
    /// Supporting figures: error share, rates, sample counts.
    pub extras: Vec<Metric>,
    /// How the run was set up.
    pub provenance: Vec<(&'static str, Json)>,
    /// Failed checks, if any.
    pub problems: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

fn metric(name: &'static str, unit: &'static str, value: Value) -> Metric {
    Metric { name, unit, value }
}

fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (bind, journal directory, session creation); output
/// check failures are reported in [`RunOutput::problems`] instead.
pub fn run(plan: &Plan, seed: u64, trace: bool, work: &Path) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let lanes = lanes();
    let mut sessions: Vec<Sess> = session_specs(plan, seed)
        .into_iter()
        .map(|(spec, session_seed, w)| Sess {
            id: String::new(),
            spec,
            seed: session_seed,
            workload: w,
            evaluator: ConfigEvaluator::new(
                quick_workload(w),
                Objective::TimeToAccuracy,
                MAX_NODES,
                session_seed,
            ),
            acked: 0,
            journaled: 0,
            best: None,
            scored: None,
            planned: Vec::new(),
            log: Vec::new(),
        })
        .collect();

    // Inputs: the open-loop schedule and the outcome of every scheduled
    // step, generated in-process before the server exists.
    let mut inputs = Tracer::new(trace, epoch);
    // Round `k` takes the arrivals of the `k`-th slice of the window,
    // timed from the slice's start and aimed at its own sessions.
    let slice = plan.open_secs / plan.rounds as f64;
    let schedules = match plan.shape {
        Shape::Open => {
            let mut schedules = vec![Vec::new(); plan.rounds];
            for a in loadgen::open_schedule(
                plan.rate,
                plan.open_secs,
                plan.sessions,
                plan.read_share,
                seed ^ SCHEDULE_STREAM,
            ) {
                let k = ((a.at / slice) as usize).min(plan.rounds - 1);
                let [_, open, _] = plan.round_sessions(k);
                schedules[k].push(Arrival {
                    at: a.at - k as f64 * slice,
                    session: open.start + a.session,
                    kind: a.kind,
                });
            }
            let mut steps = vec![0usize; sessions.len()];
            for a in schedules
                .iter()
                .flatten()
                .filter(|a| a.kind == OpKind::Step)
            {
                steps[a.session] += 1;
            }
            plan_outcomes(plan, &mut sessions, &steps, lanes, &mut inputs)?;
            Some(schedules)
        }
        Shape::Closed => None,
    };

    // Set-up: server bind, registry open, session creation. Repeated,
    // half before the measured phases (the last of these serves the
    // run) and half after the server shuts down, so that the median
    // samples the host at both ends of the run.
    let mut setup_secs = Vec::new();
    let setup_specs: Vec<Json> = sessions[..plan.setup_sessions()]
        .iter()
        .map(|s| s.spec.clone())
        .collect();
    let mut setup = |k: usize| -> Result<(Server, PathBuf, Vec<String>), String> {
        let dir = work.join(format!("journal-{k}"));
        let t0 = Instant::now();
        let server = Server::bind("127.0.0.1:0", plan.serve_config(&dir))
            .map_err(|e| format!("server bind: {e}"))?;
        let mut setup_client = client(&server.local_addr().to_string(), seed);
        let ids = create_sessions(&mut setup_client, &setup_specs)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        Ok((server, dir, ids))
    };
    let discard = |(server, dir, _): (Server, PathBuf, Vec<String>)| {
        drop(server);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    };
    let setups_before = plan.setups.div_ceil(2).max(1);
    for k in 1..setups_before {
        discard(setup(k)?)?;
    }
    let (server, journal_dir, ids) = setup(0)?;
    for (s, id) in sessions.iter_mut().zip(ids) {
        s.id = id;
    }

    let sessions: Vec<Mutex<Sess>> = sessions.into_iter().map(Mutex::new).collect();
    let ctx = Ctx {
        plan,
        addr: server.local_addr().to_string(),
        seed,
        space: standard_space(MAX_NODES),
        sessions: &sessions,
        order: AtomicU64::new(0),
        next_session: AtomicUsize::new(0),
    };

    // Measured phases over `nproc` lanes whose connections stay open
    // throughout, in rounds. Open shape: each round on fresh sessions
    // (created before it, untimed), the open loop's next slice of the
    // schedule, then a slice of the peak phase (a closed loop on the
    // round's peak sessions). Closed shape: the tuning clients run the
    // round's sessions to completion. A quiet interval ends both.
    let mut http: Vec<HttpLane<'_>> = (0..lanes).map(|l| HttpLane::new(&ctx, l)).collect();
    let scheduled = schedules.iter().flatten().map(Vec::len).sum::<usize>();
    let mut main = Phase::empty(trace, epoch);
    let mut peak = Phase::empty(false, epoch);
    match schedules {
        Some(schedules) => {
            for (k, schedule) in schedules.into_iter().enumerate() {
                let [round, _, peak_sessions] = plan.round_sessions(k);
                if k > 0 {
                    let mut fresh: Vec<_> = sessions[round].iter().map(lock).collect();
                    let mut creator = client(&ctx.addr, seed);
                    let ids = create_sessions(&mut creator, fresh.iter().map(|s| &s.spec))?;
                    for (s, id) in fresh.iter_mut().zip(ids) {
                        s.id = id;
                    }
                }
                main.absorb(drive(&mut http, trace, Some(schedule), slice, epoch));
                // A fixed count of closed-loop steps, shared out over the
                // lanes.
                let steps = plan.peak_steps / plan.rounds;
                let n = http.len();
                for (l, lane) in http.iter_mut().enumerate() {
                    lane.pinned = peak_sessions.clone().skip(l).step_by(n).collect();
                    lane.quota = steps / n + usize::from(l < steps % n);
                }
                peak.absorb(drive(&mut http, false, None, CAP_SECS, epoch));
            }
        }
        None => {
            for k in 0..plan.rounds {
                let [round, _, _] = plan.round_sessions(k);
                ctx.next_session.store(round.start, Ordering::Relaxed);
                for lane in &mut http {
                    lane.round_end = round.end;
                }
                main.absorb(drive(&mut http, trace, None, CAP_SECS, epoch));
            }
        }
    }
    if plan.shape == Shape::Open {
        // Only the schedule steps the open-loop sessions, so their
        // incumbents are deterministic.
        for r in 0..plan.rounds {
            let [_, open, _] = plan.round_sessions(r);
            for s in &sessions[open] {
                let mut s = lock(s);
                s.scored = s.best.as_ref().map(|(_, c)| c.clone());
            }
        }
    }
    let mut problems: Vec<String> = http.into_iter().flat_map(|l| l.problems).collect();

    // Quiet interval: no requests; what the server burns is polling.
    std::thread::sleep(Duration::from_millis(50));
    let idle0 = procfs::live_threads_cpu_ns();
    let quiet_start = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(plan.quiet_secs));
    let idle1 = procfs::live_threads_cpu_ns();
    let quiet_secs = quiet_start.elapsed().as_secs_f64();
    let idle_cpu = match (idle0, idle1) {
        (Ok(a), Ok(b)) => Value::ratio(b.saturating_sub(a) as f64 / 1e6, quiet_secs, "idle CPU"),
        (Err(e), _) | (_, Err(e)) => Value::Null(e),
    };

    // Final statuses, then shutdown.
    let mut final_client = client(&ctx.addr, seed);
    let mut statuses = Vec::with_capacity(sessions.len());
    for s in &sessions {
        let s = lock(s);
        match final_client.request("GET", &format!("/sessions/{}", s.id), None) {
            Ok((200, body)) => {
                if let Err(e) = status_matches(&body, s.acked) {
                    problems.push(format!("{}: final status: {e}", s.id));
                }
                statuses.push(body);
            }
            Ok((code, body)) => {
                problems.push(format!("{}: final status -> {code}: {body}", s.id));
                statuses.push(String::new());
            }
            Err(e) => {
                problems.push(format!("{}: final status: {e}", s.id));
                statuses.push(String::new());
            }
        }
    }
    drop(final_client);
    drop(ctx);
    drop(server);
    let peak_rss = procfs::peak_rss_mb();
    for k in setups_before..plan.setups {
        discard(setup(k)?)?;
    }
    let mut sessions: Vec<Sess> = sessions
        .into_iter()
        .map(|m| m.into_inner().expect("lanes have finished"))
        .collect();

    // Output checks: replay (traced) or reference runs, and a restart.
    // In-process spans: input generation, then the replay.
    let mut tracer = inputs;
    let mut journal_bytes = Value::Null("journal replay runs only when tracing".into());
    let reference = if trace {
        match replay::traced(plan, &sessions, &work.join("replay"), &mut tracer) {
            Ok(out) => {
                for (i, status) in out.statuses.iter().enumerate() {
                    if *status != statuses[i] {
                        problems.push(format!(
                            "{}: replayed registry status differs",
                            sessions[i].id
                        ));
                    }
                }
                journal_bytes = out.journal_bytes_per_step;
                Ok(out.histories)
            }
            Err(e) => Err(e),
        }
    } else {
        Ok(Vec::new())
    };
    let checks = std::thread::scope(|scope| {
        let restart =
            scope.spawn(|| restart_check(plan, &journal_dir, &sessions, &statuses, lanes));
        let histories = match reference {
            Ok(h) if trace => Ok(h),
            Ok(_) if plan.shape == Shape::Closed => {
                replay::reference_histories(plan, &sessions, lanes)
            }
            Ok(_) => Ok(Vec::new()),
            Err(e) => Err(e),
        };
        (restart.join().expect("restart check panicked"), histories)
    });
    let (restart, histories) = checks;
    problems.extend(restart);
    match histories {
        Ok(histories) => {
            for (i, reference) in histories.iter().enumerate() {
                let served = parse(&statuses[i])
                    .ok()
                    .and_then(|s| s.get("history").map(Json::render));
                if served.as_deref() != Some(reference.as_str()) {
                    problems.push(format!(
                        "{}: served history differs from the in-process AskTellSession run",
                        sessions[i].id
                    ));
                }
            }
        }
        Err(e) => problems.push(format!("in-process reference: {e}")),
    }
    if plan.shape == Shape::Closed {
        for s in &mut sessions {
            if s.acked < plan.budget {
                problems.push(format!("{}: session stopped at trial {}", s.id, s.acked));
            }
            s.scored = s.best.as_ref().map(|(_, c)| c.clone());
        }
    }
    let regret = regret(plan, &sessions);

    // End-to-end metrics.
    let all: Vec<&OpRecord> = main.records.iter().chain(&peak.records).collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| !r.ok).count() as u64;
    // A failed operation misses every latency limit.
    let timing = |records: &[OpRecord], kind: OpKind| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| match (r.ok, plan.shape) {
                (false, _) => f64::INFINITY,
                (true, Shape::Open) => r.latency_ms(),
                (true, Shape::Closed) => r.service_ms(),
            })
            .collect()
    };
    let steps = timing(&main.records, OpKind::Step);
    let reads = timing(&main.records, OpKind::Read);
    let round_p50 = |kind: OpKind| {
        let rounds = main
            .each_round()
            .map(|(records, _)| stats::percentile(&timing(records, kind), 0.5));
        best_round(rounds, f64::min)
    };
    let peak_phase = match plan.shape {
        Shape::Open => &peak,
        Shape::Closed => &main,
    };
    let peak_rate = best_round(
        peak_phase.each_round().map(|(records, secs)| {
            let steps = records
                .iter()
                .filter(|r| r.ok && r.kind == OpKind::Step)
                .count();
            Value::ratio(steps as f64, secs, "round steps/s")
        }),
        f64::max,
    );
    let peak_steps = peak_phase
        .records
        .iter()
        .filter(|r| r.kind == OpKind::Step && r.ok)
        .count();
    let end_to_end = vec![
        metric("step_p50_ms", "ms", round_p50(OpKind::Step)),
        metric("read_p50_ms", "ms", round_p50(OpKind::Read)),
        metric("peak_steps_per_s", "steps/s", peak_rate),
        metric("regret", "ratio", regret),
        metric(
            "ok_share",
            "ratio",
            Value::ratio((attempted - failed) as f64, attempted as f64, "ok share"),
        ),
        metric(
            "setup_s",
            "s",
            stats::median(&setup_secs).map_or(Value::Null("no set-up".into()), Value::Num),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            peak_rss.map_or_else(Value::Null, Value::Num),
        ),
    ];

    let (offered, achieved) = match plan.shape {
        Shape::Open => (
            scheduled as f64 / plan.open_secs,
            main.in_window as f64 / plan.open_secs,
        ),
        // A closed loop offers what it achieves.
        Shape::Closed => {
            let rate = main.records.len() as f64 / main.duration.max(1e-9);
            (rate, rate)
        }
    };
    let lateness: Vec<f64> = main.records.iter().map(OpRecord::lateness_ms).collect();
    let extras = vec![
        metric("step_p99_ms", "ms", stats::percentile(&steps, 0.99)),
        metric("read_p99_ms", "ms", stats::percentile(&reads, 0.99)),
        metric(
            "step_p50_all_rounds_ms",
            "ms",
            stats::percentile(&steps, 0.5),
        ),
        metric(
            "read_p50_all_rounds_ms",
            "ms",
            stats::percentile(&reads, 0.5),
        ),
        metric(
            "error_share",
            "ratio",
            Value::ratio(failed as f64, attempted as f64, "error share"),
        ),
        metric("loadgen.offered_ops_per_s", "ops/s", Value::Num(offered)),
        metric("loadgen.achieved_ops_per_s", "ops/s", Value::Num(achieved)),
        metric(
            "loadgen.send_lateness_p99_ms",
            "ms",
            stats::percentile(&lateness, 0.99),
        ),
        metric("steps_measured", "count", Value::Num(steps.len() as f64)),
        metric("reads_measured", "count", Value::Num(reads.len() as f64)),
        metric("peak_steps", "count", Value::Num(peak_steps as f64)),
        metric("main_phase_s", "s", Value::Num(main.duration)),
        metric("host_steal_share", "ratio", main.host_steal()),
        metric("run_s", "s", Value::Num(ms_since(epoch) / 1e3)),
    ];

    let (per_layer, specific) = if trace {
        layer_metrics(
            plan,
            &main,
            idle_cpu,
            &tracer,
            journal_bytes,
            offered,
            achieved,
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let mut all_spans = main.tracer;
    all_spans.absorb(tracer);

    let provenance = vec![
        ("workload", Json::Str(plan.name.into())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("host_cores", Json::Num(lanes as f64)),
        ("loadgen_threads", Json::Num(lanes as f64)),
        ("loadgen_connections", Json::Num(lanes as f64)),
        ("connections_opened", Json::Num(main.connections as f64)),
        (
            "server_shards",
            Json::Num(plan.serve_config(Path::new(".")).shards as f64),
        ),
        ("snapshot_every", Json::Num(plan.snapshot_every as f64)),
        ("sessions", Json::Num(plan.sessions as f64)),
        ("tuner", Json::Str(plan.tuner.into())),
        ("budget", Json::Num(plan.budget as f64)),
        ("offered_rate_per_s", Json::Num(plan.rate)),
        ("read_share", Json::Num(plan.read_share)),
        ("open_secs", Json::Num(plan.open_secs)),
        ("quiet_secs", Json::Num(plan.quiet_secs)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("peak_steps", Json::Num(plan.peak_steps as f64)),
        ("peak_sessions", Json::Num(plan.peak_sessions as f64)),
        ("setups", Json::Num(plan.setups as f64)),
    ];
    Ok(RunOutput {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        specific,
        extras,
        provenance,
        problems,
        tracer: all_spans,
    })
}

/// Creates one session per spec, in order, returning the ids.
fn create_sessions<'s>(
    client: &mut Client,
    specs: impl IntoIterator<Item = &'s Json>,
) -> Result<Vec<String>, String> {
    specs
        .into_iter()
        .map(|spec| {
            let created = client
                .create_session(spec)
                .map_err(|e| format!("create session: {e}"))?;
            created
                .get("id")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "create: no id".to_owned())
        })
        .collect()
}

/// Runs each session in-process for its scheduled steps, the way the
/// server will, and records the suggested configuration and the
/// evaluator's outcome for each.
fn plan_outcomes(
    plan: &Plan,
    sessions: &mut [Sess],
    steps: &[usize],
    threads: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let chunk = sessions.len().div_ceil(threads.max(1)).max(1);
    let epoch = tracer.epoch();
    let on = tracer.is_on();
    let parts: Vec<Result<Tracer, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks_mut(chunk)
            .zip(steps.chunks(chunk))
            .map(|(group, steps)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(on, epoch);
                    for (s, &n) in group.iter_mut().zip(steps) {
                        let (mut tuner, mut core) = replay::machinery(plan, s.seed);
                        for k in 0..n {
                            let p = replay::ask(&mut core, tuner.as_mut())?;
                            let t0 = Instant::now();
                            let outcome = s
                                .evaluator
                                .evaluate_with_fidelity(&p.config, p.rep, p.fidelity);
                            tracer.record("sim.evaluate", None, k as u64, t0, Instant::now());
                            core.tell_outcome(tuner.as_mut(), outcome.clone())
                                .map_err(|e| e.to_string())?;
                            s.planned
                                .push((config_to_json(&p.config).render(), outcome));
                        }
                    }
                    Ok(tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("outcome planning panicked"))
            .collect()
    });
    for part in parts {
        tracer.absorb(part?);
    }
    Ok(())
}

/// Longest a closed-loop segment of fixed work may run, seconds: a
/// guard against a host too slow to measure, never reached otherwise.
const CAP_SECS: f64 = 60.0;

/// The best of the rounds' values by `pick` (`f64::min` when lower is
/// better): other tenants of a shared host slow whole stretches of a
/// run, and the round they disturbed least stands for the program.
/// Rounds without a value are skipped; with none, the first reason.
fn best_round(rounds: impl Iterator<Item = Value>, pick: fn(f64, f64) -> f64) -> Value {
    let mut best: Option<f64> = None;
    let mut reason = None;
    for v in rounds {
        match v {
            Value::Num(x) => best = Some(best.map_or(x, |b| pick(b, x))),
            Value::Null(why) => {
                reason.get_or_insert(why);
            }
        }
    }
    best.map_or_else(
        || Value::Null(reason.unwrap_or_else(|| "no rounds".into())),
        Value::Num,
    )
}

/// Reopens the served journal directory and requires every session's
/// status to equal the live one.
fn restart_check(
    plan: &Plan,
    dir: &Path,
    sessions: &[Sess],
    statuses: &[String],
    threads: usize,
) -> Vec<String> {
    let registry = match SessionRegistry::open(dir, plan.registry_config()) {
        Ok(r) => r,
        Err(e) => return vec![format!("restart: cannot reopen {}: {e}", dir.display())],
    };
    let registry = &registry;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                scope.spawn(move || {
                    let mut problems = Vec::new();
                    for i in (t..sessions.len()).step_by(threads.max(1)) {
                        let id = &sessions[i].id;
                        let revived = registry.get(id).map(|h| {
                            h.lock()
                                .expect("revived session lock")
                                .status_json()
                                .render()
                        });
                        if revived.as_deref() != Some(statuses[i].as_str()) {
                            problems.push(format!("{id}: status after restart differs from live"));
                        }
                    }
                    problems
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("restart check panicked"))
            .collect()
    })
}

/// Mean over the scored sessions of the incumbent's noise-free
/// objective over the oracle optimum of its workload.
fn regret(plan: &Plan, sessions: &[Sess]) -> Value {
    let scored: Vec<&Sess> = sessions.iter().filter(|s| s.scored.is_some()).collect();
    if scored.is_empty() {
        return Value::Null("no session has a successful trial to score".into());
    }
    // The three oracle searches are independent: run them side by side.
    let oracle: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|w| {
                scope.spawn(move || {
                    let ev = ConfigEvaluator::new(
                        quick_workload(w),
                        Objective::TimeToAccuracy,
                        MAX_NODES,
                        ORACLE_SEED,
                    );
                    find_oracle(&ev, plan.oracle_candidates).value
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle search panicked"))
            .collect()
    });
    let mut total = 0.0;
    for s in &scored {
        let incumbent = s.scored.as_ref().expect("filtered to scored sessions");
        match s.evaluator.true_objective(incumbent) {
            Some(v) => total += v / oracle[s.workload],
            None => return Value::Null(format!("{}: incumbent has no true objective", s.id)),
        }
    }
    Value::finite(total / scored.len() as f64, "regret")
}

/// Per-layer metrics of a traced run: the HTTP phase's spans, the
/// replay's spans and the process counters.
fn layer_metrics(
    plan: &Plan,
    main: &Phase,
    idle_cpu: Value,
    replay: &Tracer,
    journal_bytes: Value,
    offered: f64,
    achieved: f64,
) -> (Vec<Metric>, Vec<Metric>) {
    let http = &main.tracer;
    let p = |t: &Tracer, name: &str, q: f64| stats::percentile(&t.durations(name), q);
    let lateness: Vec<f64> = main.records.iter().map(OpRecord::lateness_ms).collect();
    let requests = main.requests() as f64;
    let snapshot_ops: Vec<f64> = ["serve.suggest", "serve.report"]
        .iter()
        .flat_map(|n| http.durations_tagged(n, Some("snapshot")))
        .collect();
    let suggests = replay
        .spans()
        .iter()
        .filter(|s| s.name == "tuner.suggest")
        .count();
    let hyperopt = replay.durations_tagged("tuner.suggest", Some("hyperopt"));
    let per_layer = vec![
        metric(
            "loadgen.send_lateness_p99_ms",
            "ms",
            stats::percentile(&lateness, 0.99),
        ),
        metric(
            "serve.suggest_service_p50_ms",
            "ms",
            p(http, "serve.suggest", 0.5),
        ),
        metric(
            "serve.suggest_service_p99_ms",
            "ms",
            p(http, "serve.suggest", 0.99),
        ),
        metric(
            "serve.report_service_p50_ms",
            "ms",
            p(http, "serve.report", 0.5),
        ),
        metric(
            "serve.report_service_p99_ms",
            "ms",
            p(http, "serve.report", 0.99),
        ),
        metric(
            "serve.read_service_p50_ms",
            "ms",
            p(http, "serve.read", 0.5),
        ),
        metric(
            "serve.read_service_p99_ms",
            "ms",
            p(http, "serve.read", 0.99),
        ),
        metric(
            "serve.connections_per_1k_ops",
            "count",
            Value::ratio(
                main.connections as f64 * 1e3,
                requests,
                "connections per op",
            ),
        ),
        metric(
            "serve.cpu_ms_per_op",
            "ms",
            match &main.server_cpu_ms {
                Ok(ms) => Value::ratio(*ms, requests, "server CPU per op"),
                Err(e) => Value::Null(e.clone()),
            },
        ),
        metric("serve.idle_cpu_ms_per_s", "ms/s", idle_cpu),
        metric("registry.get_p99_ms", "ms", p(replay, "registry.get", 0.99)),
        metric(
            "registry.lock_wait_p99_ms",
            "ms",
            p(replay, "registry.lock", 0.99),
        ),
        metric(
            "registry.suggest_p50_ms",
            "ms",
            p(replay, "registry.suggest", 0.5),
        ),
        metric(
            "registry.report_p50_ms",
            "ms",
            p(replay, "registry.report", 0.5),
        ),
        metric(
            "registry.status_p50_ms",
            "ms",
            p(replay, "registry.status", 0.5),
        ),
        metric(
            "registry.status_p99_ms",
            "ms",
            p(replay, "registry.status", 0.99),
        ),
        metric(
            "journal.append_p50_ms",
            "ms",
            p(replay, "journal.append", 0.5),
        ),
        metric(
            "journal.append_p99_ms",
            "ms",
            p(replay, "journal.append", 0.99),
        ),
        metric("journal.bytes_per_step", "bytes", journal_bytes),
        metric(
            "snapshot.share_of_ops",
            "ratio",
            Value::ratio(snapshot_ops.len() as f64, requests, "snapshot share"),
        ),
        metric(
            "io.write_bytes_per_op",
            "bytes",
            match &main.write_bytes {
                Ok(b) => Value::ratio(*b as f64, requests, "bytes written per op"),
                Err(e) => Value::Null(e.clone()),
            },
        ),
        metric(
            "tuner.suggest_p50_ms",
            "ms",
            p(replay, "tuner.suggest", 0.5),
        ),
        metric(
            "tuner.suggest_p99_ms",
            "ms",
            p(replay, "tuner.suggest", 0.99),
        ),
        metric(
            "tuner.observe_p50_ms",
            "ms",
            p(replay, "tuner.observe", 0.5),
        ),
        metric(
            "session.ask_overhead_p50_ms",
            "ms",
            stats::percentile(&replay.self_times("session.ask"), 0.5),
        ),
        metric(
            "gp.hyperopt_share",
            "ratio",
            Value::ratio(hyperopt.len() as f64, suggests as f64, "hyperopt share"),
        ),
        metric("sim.evaluate_p50_ms", "ms", {
            // Tuning clients evaluate in the loop; open-loop outcomes
            // are generated in-process beforehand.
            let mut evaluate = http.durations("sim.evaluate");
            evaluate.extend(replay.durations("sim.evaluate"));
            stats::percentile(&evaluate, 0.5)
        }),
        metric("loadgen.offered_ops_per_s", "ops/s", Value::Num(offered)),
        metric("loadgen.achieved_ops_per_s", "ops/s", Value::Num(achieved)),
    ];
    let gp_only = |v: Value| {
        if plan.tuner == "bo" {
            v
        } else {
            Value::Null(format!("the `{}` tuner has no GP", plan.tuner))
        }
    };
    let snapshot_only = |v: Value| {
        if plan.snapshot_every > 0 {
            v
        } else {
            Value::Null("snapshots are off in this workload".into())
        }
    };
    let specific = vec![
        metric(
            "snapshot.op_p50_ms",
            "ms",
            snapshot_only(stats::percentile(&snapshot_ops, 0.5)),
        ),
        metric(
            "snapshot.op_p99_ms",
            "ms",
            snapshot_only(stats::percentile(&snapshot_ops, 0.99)),
        ),
        metric(
            "gp.hyperopt_suggest_p50_ms",
            "ms",
            gp_only(stats::percentile(&hyperopt, 0.5)),
        ),
        metric(
            "gp.plain_suggest_p50_ms",
            "ms",
            gp_only(stats::percentile(
                &replay.durations_tagged("tuner.suggest", None),
                0.5,
            )),
        ),
    ];
    (per_layer, specific)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_best_round_skips_rounds_without_a_value() {
        let rounds = || {
            [
                Value::Num(2.0),
                Value::Null("too few".into()),
                Value::Num(1.5),
            ]
            .into_iter()
        };
        assert_eq!(best_round(rounds(), f64::min), Value::Num(1.5));
        assert_eq!(best_round(rounds(), f64::max), Value::Num(2.0));
        let none = [Value::Null("a".into()), Value::Null("b".into())];
        assert_eq!(
            best_round(none.into_iter(), f64::min),
            Value::Null("a".into())
        );
    }

    #[test]
    fn rounds_split_the_sessions_without_overlap() {
        for name in WORKLOADS {
            let plan = Plan::new(name, 30.0).expect("plan");
            let mut next = 0;
            for r in 0..plan.rounds {
                let [all, open, peak] = plan.round_sessions(r);
                assert_eq!((all.start, open.start), (next, next), "{name}");
                assert_eq!((open.end, peak.end), (peak.start, all.end), "{name}");
                next = all.end;
            }
            assert_eq!(next, plan.total_sessions(), "{name}");
        }
    }
}
