//! The session orchestration layer: the one composable pipeline owning
//! the suggest→execute→observe loop.
//!
//! [`TuningSession`] is a builder: pick an execution policy (passthrough
//! or a [`TrialExecutor`] with timeouts/retries/fault plans), a
//! [`Concurrency`] mode (sequential, or batched constant-liar with a
//! bounded evaluation-thread pool), a stack of [`StopCondition`]s,
//! optional warm-start seed configurations, and any number of
//! [`TrialObserver`]s, then call [`TuningSession::run`]. Every trial
//! lifecycle transition is published to the observers as a typed
//! [`TrialEvent`]; two built-in observers ship with the crate — a JSONL
//! trace sink ([`JsonlTraceSink`], surfaced as `mlconf tune --trace`)
//! and an in-memory [`StatsAggregator`] the session itself uses to
//! assemble [`TuneResult::exec`].
//!
//! # Ask/tell stepping
//!
//! The loop's state machine is [`AskTellSession`]: [`AskTellSession::ask`]
//! produces the next [`PendingTrial`] (or reports the run finished) and
//! [`AskTellSession::tell`] commits its outcome. [`TuningSession::run`]
//! is a thin driver over the same machine — ask, execute through the
//! configured [`TrialExecutor`], tell — so an external executor (a real
//! training cluster behind `mlconf serve`, say) stepping ask/tell by hand
//! shares the budget accounting, stop-condition stack, warm-start queue,
//! and event bus with the in-process simulator path, and produces
//! bit-identical results.
//!
//! # Determinism contract
//!
//! A run is a pure function of its seed: the driver RNG is one `Pcg64`
//! stream, batched rounds preassign repetition indices, trial indices,
//! and the incumbent cutoff before fanning out, and results are
//! committed in suggestion order — so results are identical across any
//! evaluation thread count (golden-tested in
//! `mlconf-bench/tests/golden_e2.rs`). Observers are pure consumers:
//! they receive borrowed events and cannot perturb the run (property-
//! tested below).

use std::collections::VecDeque;

use mlconf_space::config::{config_to_json, Configuration};
use mlconf_util::json::{obj, Json};
use mlconf_util::rng::Pcg64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::TrialOutcome;

use crate::drift::{DriftConfig, DriftCtl, DriftResumeState, DriftSignal, ReTunePolicy};
use crate::executor::{ExecutedTrial, ExecutionStatus, TrialExecutor};
use crate::tuner::{StateError, TrialHistory, Tuner, TunerError, TunerNotice};

/// How the session schedules trial evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// One suggestion evaluated at a time.
    #[default]
    Sequential,
    /// `batch_size` concurrent evaluations per round, diversified with
    /// the constant-liar heuristic. `eval_threads` caps the evaluation
    /// threads per round (`0` = one thread per batch item); the result
    /// is bit-identical across any thread count.
    Batched {
        /// Suggestions per round (must be positive).
        batch_size: usize,
        /// Evaluation-thread cap per round (`0` = one per batch item).
        eval_threads: usize,
    },
}

/// One composable condition under which a session ends before its trial
/// budget. Conditions stack: the session stops when *any* of them fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// CherryPick-style: after `min_trials`, stop once the tuner's
    /// expected improvement (in its internal log-objective units) stays
    /// below `threshold` for `patience` consecutive suggestions. Only
    /// meaningful for tuners exposing acquisition diagnostics; others
    /// run the full budget. Checked after each suggestion.
    AcquisitionBelow {
        /// Minimum trials before the condition may fire.
        min_trials: usize,
        /// Acquisition threshold.
        threshold: f64,
        /// Consecutive below-threshold suggestions required.
        patience: usize,
    },
    /// Stop once cumulative search cost — machine-seconds billed for
    /// profiling runs plus machine-seconds wasted on failed attempts —
    /// reaches `machine_secs`. Checked between trials.
    CostBudget {
        /// Machine-second budget.
        machine_secs: f64,
    },
    /// Stop once the serialized wall-clock estimate of the search —
    /// per-trial run time (time-to-accuracy, or the censoring cutoff for
    /// killed runs) plus retry backoff — reaches `secs`. Checked between
    /// trials.
    WallBudget {
        /// Wall-clock second budget.
        secs: f64,
    },
}

/// Why a session ended before exhausting its trial budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The tuner ran out of suggestions (e.g. grid exhaustion).
    Exhausted,
    /// The configuration space rejected sampling (e.g. unsatisfiable
    /// constraints).
    SpaceRejected,
    /// A [`StopCondition::AcquisitionBelow`] condition fired.
    AcquisitionConverged,
    /// A [`StopCondition::CostBudget`] condition fired.
    CostBudgetExhausted,
    /// A [`StopCondition::WallBudget`] condition fired.
    WallBudgetExhausted,
}

impl StopReason {
    /// Stable short name for reports and trace lines.
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::Exhausted => "exhausted",
            StopReason::SpaceRejected => "space-rejected",
            StopReason::AcquisitionConverged => "acquisition-converged",
            StopReason::CostBudgetExhausted => "cost-budget-exhausted",
            StopReason::WallBudgetExhausted => "wall-budget-exhausted",
        }
    }

    /// Inverse of [`StopReason::name`], for codecs.
    pub fn from_name(name: &str) -> Option<StopReason> {
        [
            StopReason::Exhausted,
            StopReason::SpaceRejected,
            StopReason::AcquisitionConverged,
            StopReason::CostBudgetExhausted,
            StopReason::WallBudgetExhausted,
        ]
        .into_iter()
        .find(|r| r.name() == name)
    }
}

/// A trial lifecycle transition published to session observers.
///
/// Events borrow from the running session; observers that need to keep
/// data must copy it out.
#[derive(Debug)]
pub enum TrialEvent<'a> {
    /// A trial is about to execute.
    TrialStarted {
        /// Trial index (position in the history once committed).
        trial: usize,
        /// The configuration under evaluation.
        config: &'a Configuration,
        /// Repetition index (prior evaluations of this configuration).
        rep: u64,
        /// Requested fidelity in `(0, 1]`.
        fidelity: f64,
    },
    /// One execution attempt of a trial failed. Intermediate failures
    /// are always crashes (only crashes are retried); the final attempt
    /// carries the trial's concluding non-`Ok` status.
    AttemptFailed {
        /// Trial index.
        trial: usize,
        /// Zero-based attempt number.
        attempt: u32,
        /// How the attempt failed.
        status: &'a ExecutionStatus,
    },
    /// A trial finished (successfully or not) and entered the history.
    TrialCompleted {
        /// Trial index.
        trial: usize,
        /// The configuration evaluated.
        config: &'a Configuration,
        /// Full execution record (outcome, status, attempts, waste).
        executed: &'a ExecutedTrial,
    },
    /// A completed trial improved on the best successful objective.
    IncumbentImproved {
        /// Trial index.
        trial: usize,
        /// The new incumbent configuration.
        config: &'a Configuration,
        /// The new best objective value.
        objective: f64,
    },
    /// The session ended before its trial budget.
    StoppedEarly {
        /// Why the session stopped.
        reason: StopReason,
    },
    /// A portfolio tuner chose the arm behind the next suggestion.
    ArmSelected {
        /// Trial index the suggestion will occupy once committed.
        trial: usize,
        /// The chosen arm's factory short name.
        arm: &'a str,
        /// The arm's index within the portfolio.
        index: usize,
        /// The bandit score the arm won with (`inf` during warmup).
        score: f64,
    },
    /// A portfolio tuner's budget shares shifted (warmup ended, or a new
    /// arm took the race lead).
    ArmBudgetReallocated {
        /// `(arm name, dispatched-trial share in [0, 1])`, in arm order.
        shares: &'a [(String, f64)],
    },
    /// The session's drift monitor fired: repeated measurements of known
    /// configurations drifted from their remembered objectives.
    DriftDetected {
        /// Index of the trial whose commit revealed the drift.
        trial: usize,
        /// The Page-Hinkley statistic at firing time.
        statistic: f64,
    },
    /// A re-tune began: pre-drift history censored from the tuner's
    /// view, significance-first probe trials queued.
    ReTuneStarted {
        /// Index of the trial whose commit triggered the re-tune.
        trial: usize,
        /// 1-based re-tune ordinal within the session.
        retune: usize,
        /// The knobs the probes resample, most significant first.
        knobs: &'a [String],
    },
    /// A re-tune's probe queue drained.
    ReTuneCompleted {
        /// Index of the last probe trial.
        trial: usize,
        /// 1-based re-tune ordinal within the session.
        retune: usize,
    },
}

/// A consumer of session [`TrialEvent`]s.
///
/// Observers are notified synchronously, in registration order, after
/// the session's built-in stats aggregator. They receive borrowed events
/// and cannot influence the run. Registered observers must be `Send` so
/// a stepped [`AskTellSession`] can be owned by a service worker thread.
pub trait TrialObserver {
    /// Called once per lifecycle transition.
    fn on_event(&mut self, event: &TrialEvent<'_>);
}

/// Lends an observer to a session while the caller keeps ownership, so
/// it can be inspected once the run ends.
impl<T: TrialObserver + ?Sized> TrialObserver for &mut T {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        (**self).on_event(event);
    }
}

/// Execution-layer statistics accumulated over one tuning run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Trials killed at the timeout cutoff (censored observations).
    pub timeouts: usize,
    /// Trials whose every attempt crashed.
    pub crashes: usize,
    /// Trials killed by an injected startup OOM.
    pub ooms: usize,
    /// Total retries consumed across all trials.
    pub retries: usize,
    /// Machine-seconds burned without a usable measurement.
    pub wasted_machine_secs: f64,
    /// Wall-clock seconds spent in retry backoff.
    pub backoff_secs: f64,
}

impl ExecStats {
    /// Folds one executed trial into the running totals.
    pub fn absorb(&mut self, executed: &ExecutedTrial) {
        match executed.status {
            ExecutionStatus::Ok => {}
            ExecutionStatus::TimedOut { .. } => self.timeouts += 1,
            ExecutionStatus::Crashed { .. } => self.crashes += 1,
            ExecutionStatus::Oom => self.ooms += 1,
        }
        self.retries += executed.attempts.saturating_sub(1) as usize;
        self.wasted_machine_secs += executed.wasted_machine_secs;
        self.backoff_secs += executed.backoff_secs;
    }
}

/// Built-in observer: aggregates execution statistics and run milestones
/// in memory. The session always runs one internally — it is what
/// assembles [`TuneResult::exec`] — but standalone instances can be
/// registered to snapshot stats mid-pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsAggregator {
    /// Execution-layer totals.
    pub exec: ExecStats,
    /// Trials started.
    pub started: usize,
    /// Trials completed (committed to the history).
    pub completed: usize,
    /// Times the incumbent improved.
    pub improvements: usize,
    /// Best successful objective seen, if any.
    pub best_objective: Option<f64>,
    /// Why the run stopped early, if it did.
    pub stop_reason: Option<StopReason>,
    /// Times the drift monitor fired.
    pub drift_events: usize,
    /// Re-tunes started.
    pub retune_count: usize,
}

impl TrialObserver for StatsAggregator {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        match event {
            TrialEvent::TrialStarted { .. } => self.started += 1,
            TrialEvent::AttemptFailed { .. } => {}
            TrialEvent::TrialCompleted { executed, .. } => {
                self.completed += 1;
                self.exec.absorb(executed);
            }
            TrialEvent::IncumbentImproved { objective, .. } => {
                self.improvements += 1;
                self.best_objective = Some(*objective);
            }
            TrialEvent::StoppedEarly { reason } => self.stop_reason = Some(*reason),
            TrialEvent::DriftDetected { .. } => self.drift_events += 1,
            TrialEvent::ReTuneStarted { .. } => self.retune_count += 1,
            // Scheduling telemetry carries no execution statistics.
            TrialEvent::ArmSelected { .. }
            | TrialEvent::ArmBudgetReallocated { .. }
            | TrialEvent::ReTuneCompleted { .. } => {}
        }
    }
}

/// Built-in observer: writes one JSON object per event, newline-
/// delimited (JSONL), to any writer. Lines are self-describing via an
/// `"event"` discriminator; see [`TrialEvent::to_json`] for the exact
/// shapes. A write error never fails the run: the sink keeps the first
/// one, stops writing, and hands it back from [`JsonlTraceSink::finish`].
pub struct JsonlTraceSink {
    out: Box<dyn std::io::Write + Send>,
    error: Option<std::io::Error>,
}

impl JsonlTraceSink {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        JsonlTraceSink { out, error: None }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the stream.
    ///
    /// # Errors
    ///
    /// Returns the first error any write hit during the run, else the
    /// flush's own error.
    pub fn finish(mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl TrialObserver for JsonlTraceSink {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        if self.error.is_none() {
            if let Err(e) = writeln!(self.out, "{}", event.to_json().render()) {
                self.error = Some(e);
            }
        }
    }
}

impl Drop for JsonlTraceSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

impl TrialEvent<'_> {
    /// The event as one JSON object whose first field, `"event"`, names
    /// the variant — the line format of [`JsonlTraceSink`]. Non-finite
    /// numbers render as `null`.
    pub fn to_json(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let tag = |name: &str| ("event", Json::Str(name.into()));
        match self {
            TrialEvent::TrialStarted {
                trial,
                config,
                rep,
                fidelity,
            } => obj([
                tag("trial_started"),
                ("trial", num(*trial)),
                ("rep", Json::Num(*rep as f64)),
                ("fidelity", Json::Num(*fidelity)),
                ("config", config_to_json(config)),
            ]),
            TrialEvent::AttemptFailed {
                trial,
                attempt,
                status,
            } => obj([
                tag("attempt_failed"),
                ("trial", num(*trial)),
                ("attempt", Json::Num(f64::from(*attempt))),
                ("status", Json::Str(status.name().into())),
            ]),
            TrialEvent::TrialCompleted {
                trial,
                config,
                executed,
            } => {
                let o = &executed.outcome;
                obj([
                    tag("trial_completed"),
                    ("trial", num(*trial)),
                    ("status", Json::Str(executed.status.name().into())),
                    ("attempts", Json::Num(f64::from(executed.attempts))),
                    ("objective", opt(o.objective)),
                    ("tta_secs", Json::Num(o.tta_secs)),
                    (
                        "search_cost_machine_secs",
                        Json::Num(o.search_cost_machine_secs),
                    ),
                    (
                        "wasted_machine_secs",
                        Json::Num(executed.wasted_machine_secs),
                    ),
                    ("backoff_secs", Json::Num(executed.backoff_secs)),
                    ("censored_at", opt(o.censored_at)),
                    ("failure", o.failure.clone().map_or(Json::Null, Json::Str)),
                    ("config", config_to_json(config)),
                ])
            }
            TrialEvent::IncumbentImproved {
                trial,
                config,
                objective,
            } => obj([
                tag("incumbent_improved"),
                ("trial", num(*trial)),
                ("objective", Json::Num(*objective)),
                ("config", config_to_json(config)),
            ]),
            TrialEvent::StoppedEarly { reason } => obj([
                tag("stopped_early"),
                ("reason", Json::Str(reason.name().into())),
            ]),
            TrialEvent::ArmSelected {
                trial,
                arm,
                index,
                score,
            } => obj([
                tag("arm_selected"),
                ("trial", num(*trial)),
                ("arm", Json::Str((*arm).into())),
                ("index", num(*index)),
                ("score", Json::Num(*score)),
            ]),
            TrialEvent::ArmBudgetReallocated { shares } => obj([
                tag("arm_budget_reallocated"),
                (
                    "shares",
                    Json::Obj(
                        shares
                            .iter()
                            .map(|(arm, share)| (arm.clone(), Json::Num(*share)))
                            .collect(),
                    ),
                ),
            ]),
            TrialEvent::DriftDetected { trial, statistic } => obj([
                tag("drift_detected"),
                ("trial", num(*trial)),
                ("statistic", Json::Num(*statistic)),
            ]),
            TrialEvent::ReTuneStarted {
                trial,
                retune,
                knobs,
            } => obj([
                tag("retune_started"),
                ("trial", num(*trial)),
                ("retune", num(*retune)),
                (
                    "knobs",
                    Json::Arr(knobs.iter().map(|k| Json::Str(k.clone())).collect()),
                ),
            ]),
            TrialEvent::ReTuneCompleted { trial, retune } => obj([
                tag("retune_completed"),
                ("trial", num(*trial)),
                ("retune", num(*retune)),
            ]),
        }
    }
}

/// Result of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Tuner name.
    pub tuner: String,
    /// Full trial history in execution order.
    pub history: TrialHistory,
    /// Whether a stop condition (or tuner exhaustion) ended the run
    /// early.
    pub stopped_early: bool,
    /// Execution-layer statistics (all zero for passthrough execution).
    pub exec: ExecStats,
    /// Why the run stopped early (`None` when the budget ran out).
    pub stop_reason: Option<StopReason>,
    /// Times the drift monitor fired (zero without a re-tune policy).
    pub drift_events: usize,
    /// Re-tunes started (zero without a re-tune policy).
    pub retune_count: usize,
}

impl TuneResult {
    /// Best objective value found.
    pub fn best_value(&self) -> f64 {
        self.history.best_value()
    }

    /// Best-so-far curve (per trial).
    pub fn best_curve(&self) -> Vec<f64> {
        self.history.best_so_far_curve()
    }

    /// Cumulative search cost (per trial).
    pub fn cost_curve(&self) -> Vec<f64> {
        self.history.cumulative_search_cost()
    }

    /// Trials needed to reach within `factor` (≥ 1) of `target` (e.g.
    /// the oracle optimum): `None` if never reached.
    pub fn trials_to_within(&self, target: f64, factor: f64) -> Option<usize> {
        first_within(&self.best_curve(), target, factor)
    }

    /// Search cost (machine-seconds) spent when first reaching within
    /// `factor` of `target`; `None` if never reached.
    pub fn cost_to_within(&self, target: f64, factor: f64) -> Option<f64> {
        let idx = self.trials_to_within(target, factor)?;
        Some(self.cost_curve()[idx - 1])
    }
}

/// First 1-based index at which a best-so-far `curve` reaches within
/// `factor` (≥ 1) of `target`; `None` if it never does. The single
/// shared implementation behind [`TuneResult::trials_to_within`] and the
/// experiment harness' convergence tables.
///
/// # Panics
///
/// Panics if `factor < 1`.
pub fn first_within(curve: &[f64], target: f64, factor: f64) -> Option<usize> {
    assert!(factor >= 1.0, "factor must be >= 1");
    curve
        .iter()
        .position(|&v| v <= target * factor)
        .map(|i| i + 1)
}

/// Best successful time-to-accuracy in `history` (the incumbent the
/// budget-relative timeout is measured against); `None` before any
/// success.
pub(crate) fn incumbent_tta(history: &TrialHistory) -> Option<f64> {
    history
        .trials()
        .iter()
        .filter(|t| t.outcome.is_ok() && t.outcome.tta_secs.is_finite())
        .map(|t| t.outcome.tta_secs)
        .min_by(|a, b| a.partial_cmp(b).expect("finite tta"))
}

/// Serialized wall-clock estimate of one executed trial: the run's
/// duration (time-to-accuracy, or the censoring cutoff when killed)
/// plus retry backoff. Feeds [`StopCondition::WallBudget`].
fn trial_wall_secs(executed: &ExecutedTrial) -> f64 {
    let run = if let Some(cutoff) = executed.outcome.censored_at {
        cutoff
    } else if executed.outcome.is_ok() && executed.outcome.tta_secs.is_finite() {
        executed.outcome.tta_secs
    } else {
        0.0
    };
    run + executed.backoff_secs
}

/// A builder-configured tuning pipeline. See the module docs.
///
/// # Examples
///
/// ```
/// use mlconf_tuners::bo::BoTuner;
/// use mlconf_tuners::session::{StopCondition, TuningSession};
/// use mlconf_workloads::evaluator::ConfigEvaluator;
/// use mlconf_workloads::objective::Objective;
/// use mlconf_workloads::workload::mlp_mnist;
///
/// let evaluator = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, 42);
/// let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), 42);
/// let result = TuningSession::new(&evaluator, 10, 42)
///     .stop_when(StopCondition::CostBudget { machine_secs: 1e9 })
///     .run(&mut tuner);
/// assert_eq!(result.history.len(), 10);
/// ```
pub struct TuningSession<'a> {
    evaluator: &'a ConfigEvaluator,
    budget: usize,
    seed: u64,
    executor: TrialExecutor,
    concurrency: Concurrency,
    conditions: Vec<StopCondition>,
    warm_start: Vec<Configuration>,
    observers: Vec<Box<dyn TrialObserver + Send + 'a>>,
    retune_policy: ReTunePolicy,
    drift_config: DriftConfig,
}

impl<'a> TuningSession<'a> {
    /// Starts building a session: `budget` trials against `evaluator`,
    /// with the driver RNG derived from `seed`. Defaults: passthrough
    /// execution, sequential concurrency, no stop conditions, no warm
    /// start, no observers.
    pub fn new(evaluator: &'a ConfigEvaluator, budget: usize, seed: u64) -> Self {
        TuningSession {
            evaluator,
            budget,
            seed,
            executor: TrialExecutor::passthrough(),
            concurrency: Concurrency::Sequential,
            conditions: Vec::new(),
            warm_start: Vec::new(),
            observers: Vec::new(),
            retune_policy: ReTunePolicy::Off,
            drift_config: DriftConfig::default(),
        }
    }

    /// Routes every trial through `executor` (timeouts, retries, fault
    /// plans).
    pub fn executor(mut self, executor: TrialExecutor) -> Self {
        self.executor = executor;
        self
    }

    /// Sets the concurrency mode.
    pub fn concurrency(mut self, concurrency: Concurrency) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// Adds one stop condition (conditions stack; any may fire).
    pub fn stop_when(mut self, condition: StopCondition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Adds several stop conditions at once.
    pub fn stop_conditions(mut self, conditions: impl IntoIterator<Item = StopCondition>) -> Self {
        self.conditions.extend(conditions);
        self
    }

    /// Evaluates `configs` first (at full fidelity, counting against the
    /// budget) before handing control to the tuner — transfer-style
    /// seeding from a source workload's best configurations.
    pub fn warm_start(mut self, configs: Vec<Configuration>) -> Self {
        self.warm_start.extend(configs);
        self
    }

    /// Registers an observer on the trial-event bus.
    pub fn observe_with(mut self, observer: Box<dyn TrialObserver + Send + 'a>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Attaches a drift-detection / re-tune policy under `config`'s
    /// thresholds. [`ReTunePolicy::Off`] (the default) attaches nothing
    /// and leaves the session byte-identical to an unmonitored one.
    /// Re-tuning steps sequentially: combining a policy with batched
    /// concurrency panics in [`TuningSession::run`].
    pub fn retune(mut self, policy: ReTunePolicy, config: DriftConfig) -> Self {
        self.retune_policy = policy;
        self.drift_config = config;
        self
    }

    /// Converts the builder into a bare [`AskTellSession`] stepper,
    /// dropping the evaluator, executor, and concurrency mode — trial
    /// execution becomes the caller's job. Stop conditions, warm-start
    /// configurations, and observers carry over.
    pub fn into_ask_tell(self) -> AskTellSession<'a> {
        let ctl = DriftCtl::new(
            self.retune_policy,
            self.drift_config,
            self.evaluator.space().clone(),
            self.seed,
        );
        AskTellSession::new(self.budget, self.seed)
            .stop_conditions(self.conditions)
            .warm_start(self.warm_start)
            .observers(self.observers)
            .drift_ctl(ctl)
    }

    /// Runs the pipeline to completion and returns the result.
    ///
    /// Implemented as an ask/tell loop over [`AskTellSession`]: every
    /// suggestion comes from [`AskTellSession::ask`], is executed through
    /// the configured [`TrialExecutor`], and is committed with
    /// [`AskTellSession::tell`] — so externally stepped sessions follow
    /// exactly the same state machine.
    ///
    /// # Panics
    ///
    /// Panics if the concurrency mode is batched with `batch_size == 0`.
    pub fn run(self, tuner: &mut dyn Tuner) -> TuneResult {
        let evaluator = self.evaluator;
        let executor = self.executor.clone();
        let concurrency = self.concurrency;
        let mut core = self.into_ask_tell();

        match concurrency {
            Concurrency::Sequential => {
                core.drive(tuner, evaluator, &executor, None);
            }
            Concurrency::Batched {
                batch_size,
                eval_threads,
            } => {
                // Warm-start trials step sequentially (they are forced,
                // not suggested), then batched rounds take over.
                let warm = core.warm_remaining();
                core.drive(tuner, evaluator, &executor, Some(warm));
                if !core.is_finished() {
                    core.run_batched(tuner, evaluator, &executor, batch_size, eval_threads);
                }
            }
        }

        core.into_result(tuner.name())
    }
}

/// The event bus: the session's own stats aggregator plus user
/// observers, notified in that order.
struct Bus<'a> {
    stats: StatsAggregator,
    observers: Vec<Box<dyn TrialObserver + Send + 'a>>,
}

impl Bus<'_> {
    fn emit(&mut self, event: &TrialEvent<'_>) {
        self.stats.on_event(event);
        for o in &mut self.observers {
            o.on_event(event);
        }
    }
}

/// A suggestion produced by [`AskTellSession::ask`], awaiting its
/// outcome via [`AskTellSession::tell`].
#[derive(Debug, Clone, PartialEq)]
pub struct PendingTrial {
    /// Trial index (the position the outcome will occupy in the
    /// history).
    pub trial: usize,
    /// The configuration to evaluate.
    pub config: Configuration,
    /// Repetition index (prior evaluations of this configuration), so
    /// repeats observe fresh measurement noise.
    pub rep: u64,
    /// Requested profiling fidelity in `(0, 1]`.
    pub fidelity: f64,
}

/// Everything an [`AskTellSession`] holds beyond its construction
/// parameters, captured by [`AskTellSession::resume_state`] for
/// crash-consistent snapshots and restored by
/// [`AskTellSession::restore_resume_state`].
///
/// All fields are plain data so any codec can serialize them; floats
/// must round-trip bit-exactly for the restore to be bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResumeState {
    /// Committed trial history.
    pub history: TrialHistory,
    /// Driver RNG position as `(state, increment)`.
    pub rng: (u128, u128),
    /// Warm-start configurations not yet asked.
    pub warm_queue: Vec<Configuration>,
    /// Per-condition consecutive below-threshold counters.
    pub acq_below: Vec<usize>,
    /// Accumulated machine-seconds (search cost + waste).
    pub cost_secs: f64,
    /// Accumulated wall-clock seconds.
    pub wall_secs: f64,
    /// Best successful objective seen (`inf` when none).
    pub best_seen: f64,
    /// Why the session stopped early, if it did.
    pub stop_reason: Option<StopReason>,
    /// The suggestion awaiting its outcome, if any.
    pub pending: Option<PendingTrial>,
    /// Whether the session has ended.
    pub finished: bool,
    /// The built-in stats aggregator's totals.
    pub stats: StatsAggregator,
    /// The drift controller's state, when one is attached.
    pub drift: Option<DriftResumeState>,
}

/// What one [`AskTellSession::ask`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// Evaluate this trial and report back with
    /// [`AskTellSession::tell`].
    Trial(PendingTrial),
    /// The session is over; asking again keeps returning this.
    Finished {
        /// Why the session ended early (`None` when the trial budget ran
        /// out).
        reason: Option<StopReason>,
    },
}

/// Misuse of the ask/tell protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AskTellError {
    /// `ask` was called while a previous suggestion still awaits its
    /// `tell`.
    PendingOutstanding,
    /// `tell` was called with no suggestion outstanding.
    NothingPending,
}

impl std::fmt::Display for AskTellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AskTellError::PendingOutstanding => {
                write!(f, "a suggested trial is still awaiting its outcome")
            }
            AskTellError::NothingPending => write!(f, "no suggested trial is awaiting an outcome"),
        }
    }
}

impl std::error::Error for AskTellError {}

/// The session state machine, stepped one trial at a time.
///
/// `ask` → execute (anywhere: in-process simulator, remote cluster,
/// HTTP client) → `tell`, in strict alternation. The machine owns the
/// driver RNG, trial history, stop-condition stack, warm-start queue,
/// and event bus; it never evaluates anything itself, which is what lets
/// `mlconf serve` host it behind a network API while
/// [`TuningSession::run`] drives the identical machine in-process.
///
/// Everything observable is deterministic in `(seed, tuner, outcomes)`:
/// replaying the same ask/tell transcript against a fresh machine
/// reconstructs bit-identical state — the journal-recovery property the
/// service layer relies on.
pub struct AskTellSession<'o> {
    budget: usize,
    conditions: Vec<StopCondition>,
    warm_queue: VecDeque<Configuration>,
    bus: Bus<'o>,
    history: TrialHistory,
    rng: Pcg64,
    /// Per-condition consecutive below-threshold counters (parallel to
    /// `conditions`; unused slots for non-acquisition conditions).
    acq_below: Vec<usize>,
    cost_secs: f64,
    wall_secs: f64,
    best_seen: f64,
    stop_reason: Option<StopReason>,
    pending: Option<PendingTrial>,
    finished: bool,
    drift: Option<DriftCtl>,
}

impl<'o> AskTellSession<'o> {
    /// A fresh machine: `budget` trials, driver RNG derived from `seed`
    /// (the same stream [`TuningSession::run`] uses), no stop
    /// conditions, no warm start, no observers.
    pub fn new(budget: usize, seed: u64) -> Self {
        AskTellSession {
            budget,
            conditions: Vec::new(),
            warm_queue: VecDeque::new(),
            bus: Bus {
                stats: StatsAggregator::default(),
                observers: Vec::new(),
            },
            history: TrialHistory::new(),
            rng: Pcg64::with_stream(seed, 0xd21_7e5),
            acq_below: Vec::new(),
            cost_secs: 0.0,
            wall_secs: 0.0,
            best_seen: f64::INFINITY,
            stop_reason: None,
            pending: None,
            finished: false,
            drift: None,
        }
    }

    /// Adds one stop condition (conditions stack; any may fire).
    pub fn stop_when(mut self, condition: StopCondition) -> Self {
        self.conditions.push(condition);
        self.acq_below.push(0);
        self
    }

    /// Adds several stop conditions at once.
    pub fn stop_conditions(self, conditions: impl IntoIterator<Item = StopCondition>) -> Self {
        conditions.into_iter().fold(self, Self::stop_when)
    }

    /// Queues `configs` to be asked first (forced, at full fidelity,
    /// counting against the budget) before the tuner takes over.
    pub fn warm_start(mut self, configs: impl IntoIterator<Item = Configuration>) -> Self {
        self.warm_queue.extend(configs);
        self
    }

    /// Registers an observer on the trial-event bus.
    pub fn observe_with(mut self, observer: Box<dyn TrialObserver + Send + 'o>) -> Self {
        self.bus.observers.push(observer);
        self
    }

    /// Registers several observers at once.
    pub fn observers(
        mut self,
        observers: impl IntoIterator<Item = Box<dyn TrialObserver + Send + 'o>>,
    ) -> Self {
        self.bus.observers.extend(observers);
        self
    }

    /// Attaches (or detaches, with `None`) a drift controller. A session
    /// without one — including any [`ReTunePolicy::Off`] construction,
    /// where [`DriftCtl::new`] returns `None` — is byte-identical to the
    /// pre-drift state machine.
    pub fn drift_ctl(mut self, ctl: Option<DriftCtl>) -> Self {
        self.drift = ctl;
        self
    }

    /// The attached drift controller, if any.
    pub fn drift(&self) -> Option<&DriftCtl> {
        self.drift.as_ref()
    }

    /// The trial budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The committed trial history so far.
    pub fn history(&self) -> &TrialHistory {
        &self.history
    }

    /// The suggestion currently awaiting its outcome, if any.
    pub fn pending(&self) -> Option<&PendingTrial> {
        self.pending.as_ref()
    }

    /// Warm-start configurations not yet asked.
    pub fn warm_remaining(&self) -> usize {
        self.warm_queue.len()
    }

    /// Whether the session has ended (budget exhausted or a stop fired).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Why the session stopped early, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// The built-in stats aggregator's current totals.
    pub fn stats(&self) -> &StatsAggregator {
        &self.bus.stats
    }

    /// Accumulated virtual wall-clock seconds — the scenario epoch an
    /// external executor should evaluate the next trial at.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Best successful time-to-accuracy committed so far (the incumbent
    /// a budget-relative timeout is measured against).
    pub fn incumbent_tta(&self) -> Option<f64> {
        incumbent_tta(&self.history)
    }

    /// Produces the next trial to evaluate, or reports the session
    /// finished. Warm-start configurations are served first (forced, no
    /// budget-condition checks — they are paid-for seeds); after that
    /// each ask checks the between-trial budget conditions, draws the
    /// tuner's suggestion, and checks the acquisition conditions, in
    /// exactly [`TuningSession::run`]'s order. Emits
    /// [`TrialEvent::TrialStarted`] for the produced trial.
    ///
    /// # Errors
    ///
    /// Returns [`AskTellError::PendingOutstanding`] if the previous
    /// suggestion has not been told yet.
    pub fn ask(&mut self, tuner: &mut dyn Tuner) -> Result<Ask, AskTellError> {
        if self.pending.is_some() {
            return Err(AskTellError::PendingOutstanding);
        }
        if self.finished {
            return Ok(Ask::Finished {
                reason: self.stop_reason,
            });
        }
        if self.history.len() >= self.budget {
            self.finished = true;
            return Ok(Ask::Finished { reason: None });
        }
        if let Some(cfg) = self.warm_queue.pop_front() {
            return Ok(Ask::Trial(self.start_trial(cfg, 1.0)));
        }
        if let Some(reason) = self.budget_stop() {
            self.stop(reason);
            return Ok(Ask::Finished {
                reason: Some(reason),
            });
        }
        // Drift-forced trials (re-tune probes, incumbent re-measurements)
        // bypass the tuner entirely; their RNG draws come from the
        // controller's dedicated stream, never the driver RNG.
        let forced = match self.drift.as_mut() {
            Some(ctl) => ctl.forced_next(&self.history),
            None => None,
        };
        if let Some(cfg) = forced {
            return Ok(Ask::Trial(self.start_trial(cfg, 1.0)));
        }
        // After a re-tune, the tuner models only the post-drift world:
        // it suggests against a view with the stale region censored.
        let view = self
            .drift
            .as_ref()
            .and_then(|ctl| ctl.censored_view(&self.history));
        let suggest_history = view.as_ref().unwrap_or(&self.history);
        let cfg = match tuner.suggest(suggest_history, &mut self.rng) {
            Ok(c) => c,
            Err(TunerError::Exhausted) => {
                self.stop(StopReason::Exhausted);
                return Ok(Ask::Finished {
                    reason: Some(StopReason::Exhausted),
                });
            }
            Err(TunerError::Space(_)) => {
                // Space-level failure (e.g. unsatisfiable constraints):
                // nothing more to do.
                self.stop(StopReason::SpaceRejected);
                return Ok(Ask::Finished {
                    reason: Some(StopReason::SpaceRejected),
                });
            }
        };
        let trial = self.history.len();
        self.emit_notices(tuner, trial);
        if let Some(reason) = self.acquisition_stop(tuner) {
            self.stop(reason);
            return Ok(Ask::Finished {
                reason: Some(reason),
            });
        }
        let fidelity = tuner.requested_fidelity().clamp(1e-3, 1.0);
        Ok(Ask::Trial(self.start_trial(cfg, fidelity)))
    }

    /// Drains the tuner's scheduling notices (portfolio arm selections
    /// and budget reallocations) onto the event bus, tagged with the
    /// trial index the notices led to.
    fn emit_notices(&mut self, tuner: &mut dyn Tuner, trial: usize) {
        for notice in tuner.take_notices() {
            match &notice {
                TunerNotice::ArmSelected { arm, index, score } => {
                    self.bus.emit(&TrialEvent::ArmSelected {
                        trial,
                        arm,
                        index: *index,
                        score: *score,
                    });
                }
                TunerNotice::ArmBudgetReallocated { shares } => {
                    self.bus.emit(&TrialEvent::ArmBudgetReallocated { shares });
                }
            }
        }
    }

    /// Records `cfg` as the pending trial and emits `TrialStarted`.
    fn start_trial(&mut self, cfg: Configuration, fidelity: f64) -> PendingTrial {
        let trial = self.history.len();
        let rep = self.history.evaluations_of(&cfg);
        self.bus.emit(&TrialEvent::TrialStarted {
            trial,
            config: &cfg,
            rep,
            fidelity,
        });
        let pending = PendingTrial {
            trial,
            config: cfg,
            rep,
            fidelity,
        };
        self.pending = Some(pending.clone());
        pending
    }

    /// Commits the outcome of the pending trial: publishes failure /
    /// completion / incumbent events, updates the budget accumulators,
    /// feeds the tuner, and appends to the history. Returns the
    /// committed trial index.
    ///
    /// # Errors
    ///
    /// Returns [`AskTellError::NothingPending`] if no suggestion is
    /// outstanding.
    pub fn tell(
        &mut self,
        tuner: &mut dyn Tuner,
        executed: ExecutedTrial,
    ) -> Result<usize, AskTellError> {
        let pending = self.pending.take().ok_or(AskTellError::NothingPending)?;
        let trial = pending.trial;
        self.commit(tuner, pending.config, executed);
        Ok(trial)
    }

    /// [`Self::tell`] for externally measured outcomes with no execution
    /// metadata: wraps `outcome` the way a passthrough
    /// [`TrialExecutor`] would (status `Ok`, nothing wasted).
    ///
    /// # Errors
    ///
    /// Returns [`AskTellError::NothingPending`] if no suggestion is
    /// outstanding.
    pub fn tell_outcome(
        &mut self,
        tuner: &mut dyn Tuner,
        outcome: TrialOutcome,
    ) -> Result<usize, AskTellError> {
        let attempts = outcome.attempts;
        self.tell(
            tuner,
            ExecutedTrial {
                outcome,
                status: ExecutionStatus::Ok,
                attempts,
                wasted_machine_secs: 0.0,
                backoff_secs: 0.0,
            },
        )
    }

    /// Captures every field of the machine that is not derivable from
    /// its construction parameters, for a crash-consistent snapshot.
    ///
    /// The contract mirrors [`Tuner::checkpoint`]: constructing an
    /// identical machine (same budget, seed, stop conditions) and calling
    /// [`AskTellSession::restore_resume_state`] with this value yields a
    /// machine whose future behaviour is bit-identical to the original's.
    /// Registered observers are *not* part of the state — a restored
    /// service session has none, exactly like a journal-replayed one.
    pub fn resume_state(&self) -> SessionResumeState {
        SessionResumeState {
            history: self.history.clone(),
            rng: self.rng.to_raw(),
            warm_queue: self.warm_queue.iter().cloned().collect(),
            acq_below: self.acq_below.clone(),
            cost_secs: self.cost_secs,
            wall_secs: self.wall_secs,
            best_seen: self.best_seen,
            stop_reason: self.stop_reason,
            pending: self.pending.clone(),
            finished: self.finished,
            stats: self.bus.stats.clone(),
            drift: self.drift.as_ref().map(DriftCtl::resume_state),
        }
    }

    /// Restores state previously captured by
    /// [`AskTellSession::resume_state`] onto an identically-constructed
    /// machine. No events are emitted: the restore is invisible to
    /// observers, like a journal replay is.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot's stop-condition counters do
    /// not match this machine's conditions (the snapshot belongs to a
    /// differently-configured session).
    pub fn restore_resume_state(&mut self, state: SessionResumeState) -> Result<(), StateError> {
        if state.acq_below.len() != self.conditions.len() {
            return Err(StateError::new(format!(
                "snapshot has {} stop-condition counters, session has {} conditions",
                state.acq_below.len(),
                self.conditions.len()
            )));
        }
        match (self.drift.as_mut(), state.drift) {
            (Some(ctl), Some(drift)) => ctl.restore_resume_state(drift),
            (None, None) => {}
            (Some(_), None) => {
                return Err(StateError::new(
                    "session has a re-tune policy but the snapshot carries no drift state"
                        .to_owned(),
                ));
            }
            (None, Some(_)) => {
                return Err(StateError::new(
                    "snapshot carries drift state but the session has no re-tune policy".to_owned(),
                ));
            }
        }
        self.history = state.history;
        self.rng = Pcg64::from_raw(state.rng.0, state.rng.1);
        self.warm_queue = state.warm_queue.into();
        self.acq_below = state.acq_below;
        self.cost_secs = state.cost_secs;
        self.wall_secs = state.wall_secs;
        self.best_seen = state.best_seen;
        self.stop_reason = state.stop_reason;
        self.pending = state.pending;
        self.finished = state.finished;
        self.bus.stats = state.stats;
        Ok(())
    }

    /// Snapshots the machine into a [`TuneResult`] without consuming it.
    pub fn result(&self, tuner_name: &str) -> TuneResult {
        TuneResult {
            tuner: tuner_name.to_owned(),
            history: self.history.clone(),
            stopped_early: self.stop_reason.is_some(),
            exec: self.bus.stats.exec.clone(),
            stop_reason: self.stop_reason,
            drift_events: self.bus.stats.drift_events,
            retune_count: self.bus.stats.retune_count,
        }
    }

    /// Consumes the machine into a [`TuneResult`].
    pub fn into_result(self, tuner_name: &str) -> TuneResult {
        TuneResult {
            tuner: tuner_name.to_owned(),
            history: self.history,
            stopped_early: self.stop_reason.is_some(),
            exec: self.bus.stats.exec,
            stop_reason: self.stop_reason,
            drift_events: self.bus.stats.drift_events,
            retune_count: self.bus.stats.retune_count,
        }
    }

    /// Drives the ask → execute → tell loop against an in-process
    /// evaluator, for at most `max_trials` trials (`None` = until
    /// finished). The sequential arm of [`TuningSession::run`].
    fn drive(
        &mut self,
        tuner: &mut dyn Tuner,
        evaluator: &ConfigEvaluator,
        executor: &TrialExecutor,
        max_trials: Option<usize>,
    ) {
        let mut steps = 0;
        while max_trials.is_none_or(|m| steps < m) {
            match self.ask(tuner).expect("drive teller is in lockstep") {
                Ask::Finished { .. } => break,
                Ask::Trial(p) => {
                    // The session's virtual wall clock is the scenario
                    // epoch: evaluators with no scenario attached see a
                    // neutral environment regardless, so this is
                    // byte-identical to the epoch-less path for them.
                    let executed = executor.execute_at(
                        evaluator,
                        &p.config,
                        p.rep,
                        p.fidelity,
                        p.trial,
                        self.incumbent_tta(),
                        Some(self.wall_secs),
                    );
                    self.tell(tuner, executed).expect("asked trial is pending");
                }
            }
            steps += 1;
        }
    }

    /// Emits `StoppedEarly` and records the reason.
    fn stop(&mut self, reason: StopReason) {
        self.bus.emit(&TrialEvent::StoppedEarly { reason });
        self.stop_reason = Some(reason);
        self.finished = true;
    }

    /// Between-trial budget conditions (cost / wall).
    fn budget_stop(&self) -> Option<StopReason> {
        for c in &self.conditions {
            match *c {
                StopCondition::CostBudget { machine_secs } if self.cost_secs >= machine_secs => {
                    return Some(StopReason::CostBudgetExhausted);
                }
                StopCondition::WallBudget { secs } if self.wall_secs >= secs => {
                    return Some(StopReason::WallBudgetExhausted);
                }
                _ => {}
            }
        }
        None
    }

    /// Post-suggestion acquisition conditions. Counters persist across
    /// suggestions; a missing diagnostic leaves them untouched, an
    /// above-threshold reading resets them.
    fn acquisition_stop(&mut self, tuner: &dyn Tuner) -> Option<StopReason> {
        for (i, c) in self.conditions.iter().enumerate() {
            let StopCondition::AcquisitionBelow {
                min_trials,
                threshold,
                patience,
            } = *c
            else {
                continue;
            };
            if self.history.len() < min_trials {
                continue;
            }
            let Some(acq) = tuner.diagnostics().last_acquisition else {
                continue;
            };
            if acq < threshold {
                self.acq_below[i] += 1;
                if self.acq_below[i] >= patience {
                    return Some(StopReason::AcquisitionConverged);
                }
            } else {
                self.acq_below[i] = 0;
            }
        }
        None
    }

    /// Commits one executed trial: synthesizes per-attempt failure
    /// events, publishes completion/incumbent events, feeds the tuner,
    /// and appends to the history.
    fn commit(&mut self, tuner: &mut dyn Tuner, cfg: Configuration, executed: ExecutedTrial) {
        let trial = self.history.len();
        for attempt in 0..executed.attempts.saturating_sub(1) {
            // Intermediate attempts failed by crashing (the only
            // retriable failure).
            let status = ExecutionStatus::Crashed {
                attempts: attempt + 1,
            };
            self.bus.emit(&TrialEvent::AttemptFailed {
                trial,
                attempt,
                status: &status,
            });
        }
        if !matches!(executed.status, ExecutionStatus::Ok) {
            self.bus.emit(&TrialEvent::AttemptFailed {
                trial,
                attempt: executed.attempts.saturating_sub(1),
                status: &executed.status,
            });
        }
        self.bus.emit(&TrialEvent::TrialCompleted {
            trial,
            config: &cfg,
            executed: &executed,
        });
        self.cost_secs += executed.outcome.search_cost_machine_secs + executed.wasted_machine_secs;
        self.wall_secs += trial_wall_secs(&executed);
        if executed.outcome.is_ok() {
            if let Some(v) = executed.outcome.objective {
                if v < self.best_seen {
                    self.best_seen = v;
                    self.bus.emit(&TrialEvent::IncumbentImproved {
                        trial,
                        config: &cfg,
                        objective: v,
                    });
                }
            }
        }
        tuner.observe(&cfg, &executed.outcome);
        // The drift controller sees the commit before it is appended
        // (`history.len()` is still this trial's index), so a detection
        // censors everything *before* the revealing trial but keeps the
        // revealing measurement itself — it is post-drift evidence.
        if let Some(mut ctl) = self.drift.take() {
            for signal in ctl.after_commit(&cfg, &executed.outcome, &self.history) {
                match signal {
                    DriftSignal::Detected { statistic } => {
                        self.bus
                            .emit(&TrialEvent::DriftDetected { trial, statistic });
                    }
                    DriftSignal::RetuneStarted { retune, knobs } => {
                        self.bus.emit(&TrialEvent::ReTuneStarted {
                            trial,
                            retune,
                            knobs: &knobs,
                        });
                    }
                    DriftSignal::RetuneCompleted { retune } => {
                        self.bus
                            .emit(&TrialEvent::ReTuneCompleted { trial, retune });
                    }
                }
            }
            self.drift = Some(ctl);
        }
        self.history.push(cfg, executed.outcome);
    }

    /// Constant-liar batched rounds.
    ///
    /// Within a round, each suggestion after the first is made against a
    /// *fantasy* history in which the pending suggestions were already
    /// observed at the incumbent-best value, pushing model-based tuners
    /// to diversify the batch. Repetition indices, trial indices, and
    /// the incumbent cutoff are preassigned before the parallel fan-out
    /// and results committed in suggestion order, so the outcome is
    /// bit-identical across any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or a suggestion is pending.
    pub fn run_batched(
        &mut self,
        tuner: &mut dyn Tuner,
        evaluator: &ConfigEvaluator,
        executor: &TrialExecutor,
        batch_size: usize,
        eval_threads: usize,
    ) {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(
            self.pending.is_none(),
            "cannot run batched with a pending ask/tell trial"
        );
        assert!(
            self.drift.is_none(),
            "re-tune policies require sequential concurrency"
        );
        'outer: while self.history.len() < self.budget {
            if let Some(reason) = self.budget_stop() {
                self.stop(reason);
                break;
            }
            let round = batch_size.min(self.budget - self.history.len());
            // Phase 1: collect a diversified batch against a lied
            // history.
            let mut lied = self.history.clone();
            let lie_value = self.history.best_value();
            let mut batch: Vec<(Configuration, f64)> = Vec::with_capacity(round);
            for _ in 0..round {
                let cfg = match tuner.suggest(&lied, &mut self.rng) {
                    Ok(c) => c,
                    Err(TunerError::Exhausted) => {
                        self.stop(StopReason::Exhausted);
                        break 'outer;
                    }
                    Err(TunerError::Space(_)) => {
                        self.stop(StopReason::SpaceRejected);
                        break 'outer;
                    }
                };
                let trial = self.history.len() + batch.len();
                self.emit_notices(tuner, trial);
                if let Some(reason) = self.acquisition_stop(tuner) {
                    // The partial batch is discarded: convergence means
                    // the pending suggestions are not worth their cost.
                    self.stop(reason);
                    break 'outer;
                }
                let fidelity = tuner.requested_fidelity().clamp(1e-3, 1.0);
                if lie_value.is_finite() {
                    lied.push(
                        cfg.clone(),
                        TrialOutcome {
                            objective: Some(lie_value),
                            failure: None,
                            tta_secs: lie_value,
                            cost_usd: 0.0,
                            throughput: 0.0,
                            staleness_steps: 0.0,
                            search_cost_machine_secs: 0.0,
                            censored_at: None,
                            attempts: 1,
                        },
                    );
                }
                batch.push((cfg, fidelity));
            }

            // Phase 2: evaluate the batch concurrently. Repetition
            // indices, trial indices, and the incumbent cutoff are
            // assigned up front so parallelism cannot change them.
            let round_incumbent = incumbent_tta(&self.history);
            // One epoch per round: every job in the batch observes the
            // same scenario environment regardless of thread count.
            let round_epoch = self.wall_secs;
            let mut jobs = Vec::with_capacity(batch.len());
            for (i, (cfg, fidelity)) in batch.iter().enumerate() {
                let prior_in_batch = batch[..i]
                    .iter()
                    .filter(|(c, _)| c.key() == cfg.key())
                    .count() as u64;
                let rep = self.history.evaluations_of(cfg) + prior_in_batch;
                jobs.push((cfg, rep, *fidelity, self.history.len() + i));
            }
            for &(cfg, rep, fidelity, trial) in &jobs {
                self.bus.emit(&TrialEvent::TrialStarted {
                    trial,
                    config: cfg,
                    rep,
                    fidelity,
                });
            }
            let threads = if eval_threads == 0 {
                jobs.len()
            } else {
                eval_threads.min(jobs.len())
            };
            let chunk_size = jobs.len().div_ceil(threads);
            let executed: Vec<ExecutedTrial> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .chunks(chunk_size)
                    .map(|chunk| {
                        s.spawn(move |_| {
                            chunk
                                .iter()
                                .map(|&(cfg, rep, fidelity, trial)| {
                                    executor.execute_at(
                                        evaluator,
                                        cfg,
                                        rep,
                                        fidelity,
                                        trial,
                                        round_incumbent,
                                        Some(round_epoch),
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("evaluation thread panicked"))
                    .collect()
            })
            .expect("batch scope panicked");
            drop(jobs);

            // Phase 3: commit in suggestion order.
            for ((cfg, _), trial) in batch.into_iter().zip(executed) {
                self.commit(tuner, cfg, trial);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::BoTuner;
    use crate::grid::GridSearch;
    use crate::random::RandomSearch;
    use mlconf_workloads::objective::Objective;
    use mlconf_workloads::workload::mlp_mnist;

    fn evaluator(seed: u64) -> ConfigEvaluator {
        ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed)
    }

    /// Observer that copies every event into owned strings.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl TrialObserver for Recorder {
        fn on_event(&mut self, event: &TrialEvent<'_>) {
            self.0.push(event.to_json().render());
        }
    }

    #[test]
    fn events_cover_the_trial_lifecycle() {
        use mlconf_sim::faultplan::FaultPlan;
        let ev = evaluator(23);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut recorder = Recorder::default();
        let plan = FaultPlan::scripted(15, 2.0, 23);
        let r = TuningSession::new(&ev, 15, 23)
            .executor(TrialExecutor::standard(23).with_plan(plan))
            .observe_with(Box::new(&mut recorder))
            .run(&mut t);
        let lines = recorder.0;
        let count = |kind: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("trial_started"), 15);
        assert_eq!(count("trial_completed"), 15);
        assert!(count("incumbent_improved") >= 1);
        // The chaos plan produced at least one failure event, and every
        // failure tallied in ExecStats has a matching event.
        let failures = r.exec.timeouts + r.exec.crashes + r.exec.ooms + r.exec.retries;
        assert!(failures > 0, "severity-2 plan should strike");
        assert_eq!(count("attempt_failed"), failures);
        // Faults waste machine time but neither shorten the run nor
        // stop it finding a good configuration.
        assert!(r.exec.wasted_machine_secs > 0.0);
        assert!(r.history.trials().iter().all(|t| t.outcome.attempts >= 1));
        assert!(r.best_value().is_finite());
        // Full budget: no early stop.
        assert_eq!(count("stopped_early"), 0);
        assert_eq!(r.stop_reason, None);
    }

    #[test]
    fn stats_aggregator_mirrors_result() {
        let ev = evaluator(24);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut stats = StatsAggregator::default();
        let r = TuningSession::new(&ev, 10, 24)
            .observe_with(Box::new(&mut stats))
            .run(&mut t);
        assert_eq!(stats.exec, r.exec);
        assert_eq!(stats.started, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.best_objective, Some(r.best_value()));
        assert!(stats.improvements >= 1);
    }

    #[test]
    fn stacked_stop_conditions_any_fires() {
        let ev = evaluator(25);
        // Zero cost budget: stops before the first trial.
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::CostBudget { machine_secs: 0.0 })
            .stop_when(StopCondition::WallBudget { secs: 1e12 })
            .run(&mut t);
        assert!(r.stopped_early);
        assert_eq!(r.stop_reason, Some(StopReason::CostBudgetExhausted));
        assert_eq!(r.history.len(), 0);

        // A finite cost budget ends the run partway.
        let mut t = RandomSearch::new(ev.space().clone());
        let free = TuningSession::new(&ev, 10, 25).run(&mut t);
        let half = free.cost_curve()[4];
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::CostBudget { machine_secs: half })
            .run(&mut t);
        assert!(r.stopped_early);
        assert_eq!(r.stop_reason, Some(StopReason::CostBudgetExhausted));
        assert!(r.history.len() < 10);
        assert!(r.history.len() >= 5, "budget covers the first five trials");

        // Wall budget fires too, on its own.
        let wall_half: f64 = free
            .history
            .trials()
            .iter()
            .take(5)
            .map(|t| t.outcome.tta_secs)
            .filter(|v| v.is_finite())
            .sum();
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::WallBudget { secs: wall_half })
            .run(&mut t);
        assert!(r.stopped_early);
        assert_eq!(r.stop_reason, Some(StopReason::WallBudgetExhausted));
        assert!(r.history.len() < 10);
    }

    #[test]
    fn acquisition_stop_fires() {
        let ev = evaluator(4);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 4);
        // Absurdly high threshold: any acquisition is "below", so the
        // run stops right after min_trials + patience suggestions.
        let r = TuningSession::new(&ev, 60, 4)
            .stop_when(StopCondition::AcquisitionBelow {
                min_trials: 14,
                threshold: f64::INFINITY,
                patience: 2,
            })
            .run(&mut t);
        assert!(r.stopped_early);
        assert_eq!(r.stop_reason, Some(StopReason::AcquisitionConverged));
        assert!(
            r.history.len() < 30,
            "stop condition never fired ({} trials)",
            r.history.len()
        );
    }

    #[test]
    fn acquisition_stop_ignored_by_diagnostics_free_tuners() {
        let ev = evaluator(5);
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 5)
            .stop_when(StopCondition::AcquisitionBelow {
                min_trials: 1,
                threshold: f64::INFINITY,
                patience: 1,
            })
            .run(&mut t);
        assert_eq!(r.history.len(), 10, "random has no acquisition to stop on");
        assert_eq!(r.stop_reason, None);
    }

    #[test]
    fn grid_exhaustion_ends_runs() {
        let ev = evaluator(11);
        for concurrency in [
            Concurrency::Sequential,
            Concurrency::Batched {
                batch_size: 4,
                eval_threads: 0,
            },
        ] {
            let mut t = GridSearch::new(ev.space(), 1, 6);
            let r = TuningSession::new(&ev, 100, 11)
                .concurrency(concurrency)
                .run(&mut t);
            assert!(r.stopped_early, "{concurrency:?}");
            assert_eq!(r.stop_reason, Some(StopReason::Exhausted));
            assert!(r.history.len() <= 6);
        }
    }

    #[test]
    fn batch_of_one_equals_sequential() {
        let ev = evaluator(8);
        let mut t1 = BoTuner::with_defaults(ev.space().clone(), 8);
        let mut t2 = BoTuner::with_defaults(ev.space().clone(), 8);
        let seq = TuningSession::new(&ev, 10, 8).run(&mut t1);
        let bat = TuningSession::new(&ev, 10, 8)
            .concurrency(Concurrency::Batched {
                batch_size: 1,
                eval_threads: 0,
            })
            .run(&mut t2);
        assert_eq!(seq.history, bat.history);
    }

    #[test]
    fn constant_liar_diversifies_model_phase_batches() {
        let ev = evaluator(10);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 10);
        // Warm up past the init design so rounds are model-driven.
        let r = TuningSession::new(&ev, 24, 10)
            .concurrency(Concurrency::Batched {
                batch_size: 4,
                eval_threads: 0,
            })
            .run(&mut t);
        // Each post-init round of 4 should contain mostly distinct
        // configurations.
        let keys: Vec<String> = r.history.trials()[12..]
            .iter()
            .map(|t| t.config.key())
            .collect();
        for round in keys.chunks(4) {
            let mut uniq: Vec<&String> = round.iter().collect();
            uniq.sort();
            uniq.dedup();
            assert!(
                uniq.len() >= round.len() - 1,
                "round collapsed to {} unique of {}",
                uniq.len(),
                round.len()
            );
        }
    }

    #[test]
    fn faulted_batched_runs_are_bit_identical_across_thread_counts() {
        use mlconf_sim::faultplan::FaultPlan;
        // Same seed, same plan, retries and backoff active: 1/2/4/8
        // evaluation threads must produce bit-identical results.
        let run = |eval_threads: usize| {
            let ev = evaluator(14);
            let mut t = BoTuner::with_defaults(ev.space().clone(), 14);
            let plan = FaultPlan::scripted(16, 1.5, 14);
            TuningSession::new(&ev, 16, 14)
                .executor(TrialExecutor::standard(14).with_plan(plan))
                .concurrency(Concurrency::Batched {
                    batch_size: 4,
                    eval_threads,
                })
                .run(&mut t)
        };
        let one = run(1);
        for eval_threads in [2, 4, 8] {
            assert_eq!(one, run(eval_threads), "{eval_threads} threads diverged");
        }
        assert_eq!(one.history.len(), 16);
    }

    #[test]
    fn incumbent_timeout_censors_slow_configs() {
        use crate::executor::TimeoutPolicy;
        let ev = evaluator(16);
        let mut t = RandomSearch::new(ev.space().clone());
        // Tight budget-relative cutoff: anything 1.2× slower than the
        // incumbent is killed and right-censored.
        let ex = TrialExecutor::passthrough().with_timeout(TimeoutPolicy::IncumbentRelative {
            factor: 1.2,
            min_secs: 0.0,
        });
        let r = TuningSession::new(&ev, 25, 16).executor(ex).run(&mut t);
        assert!(r.exec.timeouts > 0, "tight cutoff should censor something");
        let censored: Vec<_> = r
            .history
            .trials()
            .iter()
            .filter(|t| t.outcome.is_censored())
            .collect();
        assert_eq!(censored.len(), r.exec.timeouts);
        for c in &censored {
            assert!(!c.outcome.is_ok(), "censored trials are not successes");
            assert!(c.outcome.censored_at.unwrap() > 0.0);
        }
        // The incumbent itself still stands.
        assert!(r.best_value().is_finite());
    }

    #[test]
    fn trials_and_cost_to_within() {
        let ev = evaluator(7);
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 20, 7).run(&mut t);
        let best = r.best_value();
        let n = r.trials_to_within(best, 1.0).unwrap();
        assert!(n <= 20);
        let c = r.cost_to_within(best, 1.0).unwrap();
        assert!(c > 0.0);
        // An unreachable target returns None.
        assert_eq!(r.trials_to_within(best / 1e9, 1.0), None);
        assert_eq!(r.cost_to_within(best / 1e9, 1.0), None);
    }

    #[test]
    fn warm_start_evaluates_seeds_first() {
        let ev = evaluator(27);
        let seeds: Vec<Configuration> = (0..3)
            .map(|i| {
                let mut rng = Pcg64::with_stream(27, 1000 + i);
                ev.space().sample(&mut rng).expect("sample")
            })
            .collect();
        let mut t = BoTuner::with_defaults(ev.space().clone(), 27);
        let r = TuningSession::new(&ev, 10, 27)
            .warm_start(seeds.clone())
            .run(&mut t);
        assert_eq!(r.history.len(), 10);
        for (i, cfg) in seeds.iter().enumerate() {
            assert_eq!(r.history.trials()[i].config.key(), cfg.key());
        }
        // Seeds count against the budget: an over-long seed list is
        // truncated.
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 2, 27)
            .warm_start(seeds.clone())
            .run(&mut t);
        assert_eq!(r.history.len(), 2);
    }

    #[test]
    fn trace_lines_are_valid_jsonl() {
        let ev = evaluator(28);
        let mut t = RandomSearch::new(ev.space().clone());
        let path = std::env::temp_dir().join(format!("mlconf_trace_{}.jsonl", std::process::id()));
        let mut sink = JsonlTraceSink::to_file(&path).unwrap();
        let r = TuningSession::new(&ev, 6, 28)
            .observe_with(Box::new(&mut sink))
            .run(&mut t);
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<Json> = text
            .lines()
            .map(|l| mlconf_util::json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect();
        let kind = |e: &Json| e.get("event").and_then(Json::as_str).map(str::to_owned);
        assert!(events.iter().all(|e| kind(e).is_some()));
        let completed: Vec<&Json> = events
            .iter()
            .filter(|e| kind(e).as_deref() == Some("trial_completed"))
            .collect();
        assert_eq!(completed.len(), r.history.len());
        for (e, trial) in completed.iter().zip(r.history.trials()) {
            assert_eq!(
                e.get("trial").and_then(Json::as_i64),
                Some(trial.index as i64)
            );
            let tta = trial.outcome.tta_secs;
            match e.get("tta_secs") {
                Some(Json::Num(x)) => {
                    assert_eq!(x.to_bits(), tta.to_bits(), "trial {}", trial.index)
                }
                Some(Json::Null) => assert!(!tta.is_finite(), "trial {}", trial.index),
                other => panic!("tta_secs missing or mistyped: {other:?}"),
            }
        }
        // JSON has no infinity: non-finite numbers render as null.
        let drift = TrialEvent::DriftDetected {
            trial: 3,
            statistic: f64::INFINITY,
        };
        assert_eq!(
            drift.to_json().render(),
            r#"{"event":"drift_detected","trial":3,"statistic":null}"#
        );
    }

    #[test]
    fn trace_sink_keeps_the_first_write_error() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("device full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ev = evaluator(29);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut sink = JsonlTraceSink::new(Box::new(Full));
        let r = TuningSession::new(&ev, 5, 29)
            .observe_with(Box::new(&mut sink))
            .run(&mut t);
        // Tracing never fails the run; the error surfaces afterwards.
        assert_eq!(r.history.len(), 5);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "device full");
    }

    #[test]
    fn first_within_shared_helper() {
        let curve = [10.0, 8.0, 8.0, 3.0];
        assert_eq!(first_within(&curve, 8.0, 1.0), Some(2));
        assert_eq!(first_within(&curve, 3.0, 1.0), Some(4));
        assert_eq!(first_within(&curve, 1.0, 2.0), None);
        assert_eq!(first_within(&[], 1.0, 1.0), None);
    }

    /// Drives an [`AskTellSession`] by hand, mirroring what an external
    /// trial-execution service would do.
    fn manual_ask_tell(
        ev: &ConfigEvaluator,
        tuner: &mut dyn Tuner,
        core: &mut AskTellSession<'_>,
        executor: &TrialExecutor,
    ) {
        loop {
            match core.ask(tuner).expect("strict ask/tell alternation") {
                Ask::Finished { .. } => break,
                Ask::Trial(p) => {
                    let executed = executor.execute(
                        ev,
                        &p.config,
                        p.rep,
                        p.fidelity,
                        p.trial,
                        core.incumbent_tta(),
                    );
                    core.tell(tuner, executed).expect("trial was pending");
                }
            }
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_at_golden_seeds() {
        for seed in [11u64, 22, 33] {
            let ev = evaluator(seed);
            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let via_run = TuningSession::new(&ev, 14, seed).run(&mut t1);

            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut core = AskTellSession::new(14, seed);
            manual_ask_tell(&ev, &mut t2, &mut core, &TrialExecutor::passthrough());
            let via_steps = core.into_result(t2.name());
            assert_eq!(via_run, via_steps, "seed {seed}");
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_with_faults_and_stops() {
        use mlconf_sim::faultplan::FaultPlan;
        for seed in [11u64, 22, 33] {
            let ev = evaluator(seed);
            // A chaos executor (censored + failed outcomes) plus a cost
            // budget that fires mid-run.
            let executor =
                || TrialExecutor::standard(seed).with_plan(FaultPlan::scripted(20, 2.0, seed));
            let conditions = [
                StopCondition::CostBudget {
                    machine_secs: 4000.0,
                },
                StopCondition::AcquisitionBelow {
                    min_trials: 8,
                    threshold: 1e-12,
                    patience: 2,
                },
            ];

            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let via_run = TuningSession::new(&ev, 20, seed)
                .executor(executor())
                .stop_conditions(conditions)
                .run(&mut t1);

            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut core = AskTellSession::new(20, seed).stop_conditions(conditions);
            manual_ask_tell(&ev, &mut t2, &mut core, &executor());
            let via_steps = core.into_result(t2.name());
            assert_eq!(via_run, via_steps, "seed {seed}");
            // The chaos plan produced at least one non-Ok status
            // somewhere across the golden seeds; censoring specifically
            // is covered by the executor's own tests.
            assert_eq!(via_run.stop_reason, via_steps.stop_reason);
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_with_warm_start() {
        let ev = evaluator(33);
        let seeds: Vec<Configuration> = (0..2)
            .map(|i| {
                let mut rng = Pcg64::with_stream(33, 2000 + i);
                ev.space().sample(&mut rng).expect("sample")
            })
            .collect();
        let mut t1 = BoTuner::with_defaults(ev.space().clone(), 33);
        let via_run = TuningSession::new(&ev, 9, 33)
            .warm_start(seeds.clone())
            .run(&mut t1);

        let mut t2 = BoTuner::with_defaults(ev.space().clone(), 33);
        let mut core = AskTellSession::new(9, 33).warm_start(seeds);
        manual_ask_tell(&ev, &mut t2, &mut core, &TrialExecutor::passthrough());
        let via_steps = core.into_result(t2.name());
        assert_eq!(via_run, via_steps);
    }

    #[test]
    fn ask_tell_protocol_misuse_is_rejected() {
        let ev = evaluator(40);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut core = AskTellSession::new(3, 40);

        // tell before any ask: nothing pending.
        assert_eq!(
            core.tell_outcome(&mut t, TrialOutcome::failed("early", 1.0)),
            Err(AskTellError::NothingPending)
        );

        // ask twice without a tell: pending outstanding.
        let Ask::Trial(p) = core.ask(&mut t).unwrap() else {
            panic!("budget not exhausted yet");
        };
        assert_eq!(core.ask(&mut t), Err(AskTellError::PendingOutstanding));
        assert_eq!(core.pending().map(|q| q.trial), Some(p.trial));

        // tell resolves the pending trial and unblocks the next ask.
        let outcome = ev.evaluate_with_fidelity(&p.config, p.rep, p.fidelity);
        assert_eq!(core.tell_outcome(&mut t, outcome), Ok(0));
        assert!(core.pending().is_none());
        assert!(matches!(core.ask(&mut t), Ok(Ask::Trial(_))));
    }

    #[test]
    fn finished_ask_is_repeatable() {
        let ev = evaluator(41);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut core = AskTellSession::new(2, 41);
        manual_ask_tell(&ev, &mut t, &mut core, &TrialExecutor::passthrough());
        assert!(core.is_finished());
        // Asking after the end is idempotent and reports the same
        // terminal state every time.
        for _ in 0..3 {
            assert_eq!(core.ask(&mut t), Ok(Ask::Finished { reason: None }));
        }
        assert_eq!(core.history().len(), 2);
        assert_eq!(core.stop_reason(), None);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Counts events and discards them — registration must be
        /// invisible to the run.
        struct Counter(usize);
        impl TrialObserver for Counter {
            fn on_event(&mut self, _event: &TrialEvent<'_>) {
                self.0 += 1;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn observer_registration_never_perturbs_results(
                seed in 0u64..1000,
                budget in 3usize..10,
                observers in 0usize..4,
                batched in 0u8..2,
            ) {
                let ev = evaluator(seed);
                let concurrency = if batched == 1 {
                    Concurrency::Batched { batch_size: 3, eval_threads: 2 }
                } else {
                    Concurrency::Sequential
                };
                let run = |n: usize| {
                    let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                    let mut s = TuningSession::new(&ev, budget, seed)
                        .concurrency(concurrency);
                    for _ in 0..n {
                        s = s.observe_with(Box::new(Counter(0)));
                    }
                    s.run(&mut t)
                };
                let bare = run(0);
                let observed = run(observers);
                prop_assert_eq!(bare, observed);
            }
        }
    }

    mod drift_sessions {
        use super::*;
        use crate::drift::{DriftConfig, DriftCtl, ReTunePolicy};
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        use proptest::prelude::*;

        /// A harsh environment shift: compute throttled to a quarter,
        /// network to a tenth — big enough that any workload's
        /// log-objective moves far beyond measurement noise.
        fn harsh_shift_at(t: f64) -> ScenarioScript {
            let mut script = ScenarioScript::stationary("harsh-shift");
            script.push(ScenarioEvent {
                at_secs: t,
                env: EnvState {
                    compute_scale: 0.25,
                    net_scale: 0.1,
                    node_delta: 0,
                },
            });
            script
        }

        /// A trigger-happy detector for tests that want to see firings
        /// within a small budget.
        fn eager() -> DriftConfig {
            DriftConfig {
                delta: 0.2,
                lambda: 1.0,
                min_obs: 1,
                probe_every: 2,
                top_knobs: 2,
                probes: 3,
            }
        }

        #[test]
        fn off_policy_is_byte_identical_at_golden_seeds() {
            for seed in [11, 22, 33] {
                let ev = evaluator(seed);
                let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
                let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
                let plain = TuningSession::new(&ev, 12, seed).run(&mut t1);
                let off = TuningSession::new(&ev, 12, seed)
                    .retune(ReTunePolicy::Off, DriftConfig::default())
                    .run(&mut t2);
                assert_eq!(plain, off, "seed {seed}");
                assert_eq!(off.drift_events, 0);
                assert_eq!(off.retune_count, 0);
            }
        }

        #[test]
        fn stationary_scenario_never_retunes_at_golden_seeds() {
            for seed in [11, 22, 33] {
                let ev = evaluator(seed).with_scenario(ScenarioScript::stationary("flat"));
                let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                let r = TuningSession::new(&ev, 25, seed)
                    .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                    .run(&mut t);
                assert_eq!(r.drift_events, 0, "seed {seed}: false drift detection");
                assert_eq!(r.retune_count, 0, "seed {seed}: false re-tune");
            }
        }

        #[test]
        fn drifting_world_detects_and_retunes() {
            let seed = 11;
            // Establish where the virtual wall clock sits after five
            // trials so the shift lands mid-session: the pre-shift
            // prefix is identical between the two runs.
            let ev = evaluator(seed);
            let mut t0 = BoTuner::with_defaults(ev.space().clone(), seed);
            let base = TuningSession::new(&ev, 5, seed).run(&mut t0);
            let t_shift: f64 = base
                .history
                .trials()
                .iter()
                .map(|t| {
                    if t.outcome.is_ok() {
                        t.outcome.tta_secs
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                + 1.0;

            let ev = evaluator(seed).with_scenario(harsh_shift_at(t_shift));
            let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut recorder = Recorder::default();
            let r = TuningSession::new(&ev, 30, seed)
                .retune(ReTunePolicy::OnDrift, eager())
                .observe_with(Box::new(&mut recorder))
                .run(&mut t);
            assert!(r.drift_events >= 1, "harsh shift went undetected");
            assert!(r.retune_count >= 1, "detection without re-tune");
            let lines = recorder.0;
            let count = |kind: &str| {
                lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                    .count()
            };
            assert_eq!(count("drift_detected"), r.drift_events);
            assert_eq!(count("retune_started"), r.retune_count);
            assert!(count("retune_completed") >= 1, "no re-tune ever completed");
            assert!(
                lines.iter().any(
                    |l| l.contains("\"event\":\"retune_started\"") && l.contains("\"knobs\":[")
                ),
                "retune_started must carry the significant knobs"
            );
        }

        #[test]
        fn always_policy_retunes_without_a_scenario() {
            let ev = evaluator(44);
            let mut t = BoTuner::with_defaults(ev.space().clone(), 44);
            let r = TuningSession::new(&ev, 20, 44)
                .retune(
                    ReTunePolicy::Always { every: 4 },
                    DriftConfig {
                        probes: 2,
                        ..DriftConfig::default()
                    },
                )
                .run(&mut t);
            assert!(
                r.retune_count >= 2,
                "every=4 over 20 trials: {}",
                r.retune_count
            );
        }

        #[test]
        fn drift_resume_state_roundtrips_mid_retune() {
            let seed = 22;
            let ev = evaluator(seed).with_scenario(harsh_shift_at(2000.0));
            let executor = TrialExecutor::passthrough();
            let make = || {
                AskTellSession::new(24, seed).drift_ctl(DriftCtl::new(
                    ReTunePolicy::OnDrift,
                    eager(),
                    ev.space().clone(),
                    seed,
                ))
            };
            let step = |s: &mut AskTellSession<'_>, t: &mut dyn Tuner| match s.ask(t).unwrap() {
                Ask::Finished { .. } => false,
                Ask::Trial(p) => {
                    let executed = executor.execute_at(
                        &ev,
                        &p.config,
                        p.rep,
                        p.fidelity,
                        p.trial,
                        s.incumbent_tta(),
                        Some(s.wall_secs()),
                    );
                    s.tell(t, executed).unwrap();
                    true
                }
            };
            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut a = make();
            for _ in 0..12 {
                if !step(&mut a, &mut t1) {
                    break;
                }
            }
            // Snapshot mid-run (ideally mid-re-tune), restore into a
            // fresh machine, and race both to the end.
            let snap = a.resume_state();
            assert!(snap.drift.is_some(), "drift state must be snapshotted");
            let mut b = make();
            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            t2.restore(&t1.checkpoint().unwrap(), a.history()).unwrap();
            b.restore_resume_state(snap).unwrap();
            loop {
                let more_a = step(&mut a, &mut t1);
                let more_b = step(&mut b, &mut t2);
                assert_eq!(more_a, more_b);
                if !more_a {
                    break;
                }
            }
            assert_eq!(a.resume_state(), b.resume_state());
            assert_eq!(a.result("bo"), b.result("bo"));
        }

        #[test]
        fn restore_rejects_drift_state_mismatch() {
            let ev = evaluator(7);
            let with_ctl = || {
                AskTellSession::new(5, 7).drift_ctl(DriftCtl::new(
                    ReTunePolicy::OnDrift,
                    DriftConfig::default(),
                    ev.space().clone(),
                    7,
                ))
            };
            let without = AskTellSession::new(5, 7);
            assert!(with_ctl()
                .restore_resume_state(without.resume_state())
                .is_err());
            let mut plain = AskTellSession::new(5, 7);
            assert!(plain
                .restore_resume_state(with_ctl().resume_state())
                .is_err());
        }

        #[test]
        #[should_panic(expected = "sequential")]
        fn batched_concurrency_rejects_retune_policies() {
            let ev = evaluator(9);
            let mut t = RandomSearch::new(ev.space().clone());
            TuningSession::new(&ev, 8, 9)
                .concurrency(Concurrency::Batched {
                    batch_size: 4,
                    eval_threads: 2,
                })
                .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                .run(&mut t);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// False-positive guard: under stationary scenarios the
            /// default detector never fires, whatever the seed.
            #[test]
            fn stationary_scenario_never_retunes(seed in 0u64..500) {
                let ev = evaluator(seed)
                    .with_scenario(ScenarioScript::stationary("flat"));
                let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                let r = TuningSession::new(&ev, 15, seed)
                    .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                    .run(&mut t);
                prop_assert_eq!(r.drift_events, 0);
                prop_assert_eq!(r.retune_count, 0);
            }
        }
    }
}
