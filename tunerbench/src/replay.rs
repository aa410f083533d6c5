//! In-process runs behind the HTTP boundary.
//!
//! - [`reference_histories`]: each served `serve-bo` session run again
//!   in-process as a plain `AskTellSession` with the same spec and seed,
//!   evaluating its own trials; the served history must match it bit
//!   for bit.
//! - [`traced`]: the workload's exact operation sequence replayed
//!   through `SessionRegistry` (same `RegistryConfig`), through
//!   `AskTellSession` with a timing wrapper around the factory's tuner,
//!   and through `Journal::append` on a scratch journal, with a span
//!   around every call. The wrapped sessions are told the outcomes the
//!   client reported, and must suggest what the server suggested.

use crate::stats::Value;
use crate::trace::Tracer;
use crate::workload::{Logged, Plan, Sess, MAX_NODES};
use mlconf_serve::api::{config_to_json, executed_from_json, executed_to_json, outcome_to_json};
use mlconf_serve::journal::{Journal, JournalOp};
use mlconf_serve::json::{obj, Json};
use mlconf_serve::SessionRegistry;
use mlconf_space::Configuration;
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::{Ask, AskTellSession, PendingTrial};
use mlconf_tuners::tuner::{
    StateError, StateValue, TrialHistory, Tuner, TunerDiagnostics, TunerError, TunerNotice,
    TunerState,
};
use mlconf_util::rng::Pcg64;
use mlconf_workloads::objective::TrialOutcome;
use mlconf_workloads::tunespace::{default_config, standard_space};
use std::path::Path;
use std::time::Instant;

/// Times `suggest` and `observe` of the tuner it wraps, and marks a
/// suggest as a hyperopt round when the kernel hyperparameters in the
/// tuner's checkpoint change across the call. Everything else is passed
/// through, so the wrapped tuner behaves bit-identically.
struct Timed {
    inner: Box<dyn Tuner + Send>,
    suggested: Option<(Instant, Instant, bool)>,
    observed: Option<(Instant, Instant)>,
}

/// The checkpoint fields a hyperparameter re-optimization rewrites.
fn hyper_state(tuner: &dyn Tuner) -> Vec<(String, StateValue)> {
    tuner
        .checkpoint()
        .map(|s| {
            s.fields()
                .iter()
                .filter(|(k, _)| k.starts_with("kernel_") || k == "trials_at_last_hyperopt")
                .cloned()
                .collect()
        })
        .unwrap_or_default()
}

impl Tuner for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suggest(
        &mut self,
        history: &TrialHistory,
        rng: &mut Pcg64,
    ) -> Result<Configuration, TunerError> {
        let before = hyper_state(self.inner.as_ref());
        let t0 = Instant::now();
        let result = self.inner.suggest(history, rng);
        let t1 = Instant::now();
        let hyperopt = hyper_state(self.inner.as_ref()) != before;
        self.suggested = Some((t0, t1, hyperopt));
        result
    }

    fn observe(&mut self, config: &Configuration, outcome: &TrialOutcome) {
        let t0 = Instant::now();
        self.inner.observe(config, outcome);
        self.observed = Some((t0, Instant::now()));
    }

    fn diagnostics(&self) -> TunerDiagnostics {
        self.inner.diagnostics()
    }

    fn requested_fidelity(&self) -> f64 {
        self.inner.requested_fidelity()
    }

    fn checkpoint(&self) -> Option<TunerState> {
        self.inner.checkpoint()
    }

    fn take_notices(&mut self) -> Vec<TunerNotice> {
        self.inner.take_notices()
    }

    fn restore(&mut self, state: &TunerState, history: &TrialHistory) -> Result<(), StateError> {
        self.inner.restore(state, history)
    }
}

/// The tuner and state machine the registry builds for these specs
/// (no stop conditions, no warm start, drift re-tuning off).
pub(crate) fn machinery(
    plan: &Plan,
    seed: u64,
) -> (Box<dyn Tuner + Send>, AskTellSession<'static>) {
    let tuner = build_tuner(
        plan.tuner,
        standard_space(MAX_NODES),
        plan.budget,
        seed,
        Some(default_config(MAX_NODES)),
    )
    .expect("benchmark tuner names are valid");
    (tuner, AskTellSession::new(plan.budget, seed))
}

/// A history rendered exactly as `GET /sessions/{id}` renders it.
fn history_json(core: &AskTellSession<'_>) -> String {
    Json::Arr(
        core.history()
            .trials()
            .iter()
            .map(|t| {
                obj([
                    ("trial", Json::Num(t.index as f64)),
                    ("config", config_to_json(&t.config)),
                    ("outcome", outcome_to_json(&t.outcome)),
                ])
            })
            .collect(),
    )
    .render()
}

pub(crate) fn ask(
    core: &mut AskTellSession<'_>,
    tuner: &mut dyn Tuner,
) -> Result<PendingTrial, String> {
    match core.ask(tuner) {
        Ok(Ask::Trial(p)) => Ok(p),
        Ok(Ask::Finished { reason }) => {
            Err(format!("in-process session finished early ({reason:?})"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Each session's history from an independent in-process run of as
/// many trials as the server acknowledged, in session order.
///
/// # Errors
///
/// A reference session that ends before the served one did.
pub fn reference_histories(
    plan: &Plan,
    sessions: &[Sess],
    threads: usize,
) -> Result<Vec<String>, String> {
    let threads = threads.max(1);
    let parts: Vec<Vec<(usize, Result<String, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..sessions.len())
                        .step_by(threads)
                        .map(|i| (i, reference_one(plan, &sessions[i])))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference run panicked"))
            .collect()
    });
    let mut histories = vec![String::new(); sessions.len()];
    for (i, history) in parts.into_iter().flatten() {
        histories[i] = history?;
    }
    Ok(histories)
}

fn reference_one(plan: &Plan, s: &Sess) -> Result<String, String> {
    let (mut tuner, mut core) = machinery(plan, s.seed);
    for _ in 0..s.acked {
        let p = ask(&mut core, tuner.as_mut())?;
        let outcome = s
            .evaluator
            .evaluate_with_fidelity(&p.config, p.rep, p.fidelity);
        core.tell_outcome(tuner.as_mut(), outcome)
            .map_err(|e| e.to_string())?;
    }
    Ok(history_json(&core))
}

/// What the traced replay yields besides its spans.
pub struct Traced {
    /// In-process histories (the bit-identity reference).
    pub histories: Vec<String>,
    /// Replayed registry statuses, rendered.
    pub statuses: Vec<String>,
    /// Scratch-journal bytes appended per step.
    pub journal_bytes_per_step: Value,
}

/// Replays every operation of the run in its completion order.
///
/// # Errors
///
/// I/O failures on the scratch directory, or a replayed call whose
/// result differs from what the server answered.
pub fn traced(
    plan: &Plan,
    sessions: &[Sess],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let io = |what: &str, e: std::io::Error| format!("replay {what}: {e}");
    std::fs::create_dir_all(dir).map_err(|e| io("directory", e))?;
    let registry = SessionRegistry::open(&dir.join("registry"), plan.registry_config())
        .map_err(|e| io("registry", e))?;
    let mut journal = Journal::create(dir.join("journal.jsonl")).map_err(|e| io("journal", e))?;
    let mut machines = Vec::with_capacity(sessions.len());
    for s in sessions {
        let created = registry.create(&s.spec).map_err(|e| e.to_string())?;
        if created.get("id").and_then(Json::as_str) != Some(s.id.as_str()) {
            return Err(format!(
                "replayed registry assigned {} for {}",
                created.render(),
                s.id
            ));
        }
        journal
            .append(&JournalOp::Create {
                spec: s.spec.clone(),
            })
            .map_err(|e| io("journal", e))?;
        let (inner, core) = machinery(plan, s.seed);
        let timed = Timed {
            inner,
            suggested: None,
            observed: None,
        };
        machines.push((timed, core, None::<PendingTrial>));
    }
    let base = journal_len(journal.path())?;

    let mut order: Vec<(u64, usize, usize)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            s.log
                .iter()
                .enumerate()
                .map(move |(k, op)| (op.order(), i, k))
        })
        .collect();
    order.sort_unstable();
    let mut steps = 0usize;
    for (seq, i, k) in order {
        let s = &sessions[i];
        let op = &s.log[k];
        let root = tracer.open("replay.op", None, seq, Instant::now());

        // Registry: lookup, session lock, handler.
        let t0 = Instant::now();
        let handle = registry
            .get(&s.id)
            .ok_or_else(|| format!("{}: missing from the replayed registry", s.id))?;
        let t1 = Instant::now();
        tracer.record("registry.get", root, seq, t0, t1);
        let mut session = handle
            .lock()
            .map_err(|_| "replayed session lock poisoned")?;
        let t2 = Instant::now();
        tracer.record("registry.lock", root, seq, t1, t2);
        match op {
            Logged::Suggest {
                config, snapshot, ..
            } => {
                let reply = session.suggest();
                let span = tracer.record("registry.suggest", root, seq, t2, Instant::now());
                if *snapshot {
                    tracer.tag(span, "snapshot");
                }
                let reply = reply.map_err(|e| e.to_string())?;
                if reply.get("config").map(Json::render).as_deref() != Some(config.as_str()) {
                    return Err(format!("{}: replayed registry suggested differently", s.id));
                }
            }
            Logged::Report { body, snapshot, .. } => {
                let reply = session.report(body);
                let span = tracer.record("registry.report", root, seq, t2, Instant::now());
                if *snapshot {
                    tracer.tag(span, "snapshot");
                }
                reply.map_err(|e| e.to_string())?;
            }
            Logged::Read { .. } => {
                let status = session.status_json();
                tracer.record("registry.status", root, seq, t2, Instant::now());
                std::hint::black_box(status);
            }
        }
        drop(session);

        // Tuner: ask/tell on the wrapped tuner.
        let (timed, core, pending) = &mut machines[i];
        match op {
            Logged::Suggest { config, .. } => {
                let t0 = Instant::now();
                let p = ask(core, timed)?;
                let span = tracer.record("session.ask", root, seq, t0, Instant::now());
                if let Some((a, b, hyperopt)) = timed.suggested.take() {
                    let inner = tracer.record("tuner.suggest", span, seq, a, b);
                    if hyperopt {
                        tracer.tag(inner, "hyperopt");
                    }
                }
                if config_to_json(&p.config).render() != *config {
                    return Err(format!(
                        "{}: in-process session suggested differently",
                        s.id
                    ));
                }
                *pending = Some(p);
            }
            Logged::Report { body, .. } => {
                pending
                    .take()
                    .ok_or_else(|| format!("{}: report without a suggest", s.id))?;
                let executed = executed_from_json(body).map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                core.tell(timed, executed).map_err(|e| e.to_string())?;
                let span = tracer.record("session.tell", root, seq, t0, Instant::now());
                if let Some((a, b)) = timed.observed.take() {
                    tracer.record("tuner.observe", span, seq, a, b);
                }
            }
            Logged::Read { .. } => {}
        }

        // Journal: the record the server appends for this operation.
        let record = match op {
            Logged::Suggest { .. } => Some(JournalOp::Suggest),
            Logged::Report { body, .. } => Some(JournalOp::Report {
                executed: executed_to_json(&executed_from_json(body).map_err(|e| e.to_string())?),
                key: body.get("key").and_then(Json::as_str).map(str::to_owned),
            }),
            Logged::Read { .. } => None,
        };
        if let Some(record) = record {
            let t0 = Instant::now();
            journal.append(&record).map_err(|e| io("journal", e))?;
            tracer.record("journal.append", root, seq, t0, Instant::now());
            steps += usize::from(matches!(record, JournalOp::Report { .. }));
        }
        tracer.close(root, Instant::now());
    }

    let appended = journal_len(journal.path())? - base;
    let mut statuses = Vec::with_capacity(sessions.len());
    for s in sessions {
        let handle = registry
            .get(&s.id)
            .ok_or_else(|| format!("{}: missing from the replayed registry", s.id))?;
        let status = handle
            .lock()
            .map_err(|_| "replayed session lock poisoned")?;
        statuses.push(status.status_json().render());
    }
    Ok(Traced {
        histories: machines
            .iter()
            .map(|(_, core, _)| history_json(core))
            .collect(),
        statuses,
        journal_bytes_per_step: Value::ratio(
            appended as f64,
            steps as f64,
            "journal bytes per step",
        ),
    })
}

fn journal_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("replay journal: {e}"))
}
