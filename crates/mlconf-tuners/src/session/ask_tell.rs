//! The ask/tell state machine every session runs on, and the stop
//! conditions and reasons it ends by.

use std::collections::VecDeque;

use mlconf_space::config::Configuration;
use mlconf_util::optim::claim_map;
use mlconf_util::rng::Pcg64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::TrialOutcome;

use super::{ExecStats, TrialEvent, TrialObserver, TuneResult};
use crate::drift::{DriftCtl, DriftResumeState, DriftSignal};
use crate::executor::{ExecutedTrial, ExecutionStatus, TrialExecutor};
use crate::tuner::{StateError, TrialHistory, Tuner, TunerError, TunerNotice};

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
    /// Why the session stopped early, if it did.
    pub stop_reason: Option<StopReason>,
    /// The suggestion awaiting its outcome, if any.
    pub pending: Option<PendingTrial>,
    /// Whether the session has ended.
    pub finished: bool,
    /// Execution-layer totals.
    pub exec: ExecStats,
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
/// execution totals and observers; it never evaluates anything itself,
/// which is what lets `mlconf serve` host it behind a network API while
/// [`TuningSession::run`](super::TuningSession::run) drives the
/// identical machine in-process.
///
/// Everything observable is deterministic in `(seed, tuner, outcomes)`:
/// replaying the same ask/tell transcript against a fresh machine
/// reconstructs bit-identical state — the journal-recovery property the
/// service layer relies on.
pub struct AskTellSession<'o> {
    budget: usize,
    conditions: Vec<StopCondition>,
    warm_queue: VecDeque<Configuration>,
    observers: Vec<Box<dyn TrialObserver + Send + 'o>>,
    history: TrialHistory,
    rng: Pcg64,
    /// Per-condition consecutive below-threshold counters (parallel to
    /// `conditions`; unused slots for non-acquisition conditions).
    acq_below: Vec<usize>,
    cost_secs: f64,
    wall_secs: f64,
    exec: ExecStats,
    stop_reason: Option<StopReason>,
    pending: Option<PendingTrial>,
    finished: bool,
    drift: Option<DriftCtl>,
}

impl<'o> AskTellSession<'o> {
    /// A fresh machine: `budget` trials, driver RNG derived from `seed`
    /// (the same stream [`TuningSession::run`](super::TuningSession::run)
    /// uses), no stop conditions, no warm start, no observers.
    pub fn new(budget: usize, seed: u64) -> Self {
        AskTellSession {
            budget,
            conditions: Vec::new(),
            warm_queue: VecDeque::new(),
            observers: Vec::new(),
            history: TrialHistory::new(),
            rng: Pcg64::with_stream(seed, 0xd21_7e5),
            acq_below: Vec::new(),
            cost_secs: 0.0,
            wall_secs: 0.0,
            exec: ExecStats::default(),
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
        self.observers.push(observer);
        self
    }

    /// Attaches (or detaches, with `None`) a drift controller. A session
    /// without one — including any
    /// [`ReTunePolicy::Off`](crate::drift::ReTunePolicy::Off) construction,
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

    /// Accumulated virtual wall-clock seconds — the scenario epoch an
    /// external executor should evaluate the next trial at.
    pub fn wall_secs(&self) -> f64 {
        self.wall_secs
    }

    /// Best successful time-to-accuracy committed so far (the incumbent
    /// a budget-relative timeout is measured against); `None` before any
    /// success.
    pub fn incumbent_tta(&self) -> Option<f64> {
        self.history
            .trials()
            .iter()
            .filter(|t| t.outcome.is_ok() && t.outcome.tta_secs.is_finite())
            .map(|t| t.outcome.tta_secs)
            .min_by(|a, b| a.partial_cmp(b).expect("finite tta"))
    }

    /// Produces the next trial to evaluate, or reports the session
    /// finished. Warm-start configurations are served first (forced, no
    /// budget-condition checks — they are paid-for seeds); after that
    /// each ask checks the between-trial budget conditions, draws the
    /// tuner's suggestion, and checks the acquisition conditions, in
    /// exactly [`TuningSession::run`](super::TuningSession::run)'s
    /// order. Emits [`TrialEvent::TrialStarted`] for the produced trial.
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
        let trial = self.history.len();
        Ok(match self.suggest(tuner, view.as_ref(), trial) {
            Some((cfg, fidelity)) => Ask::Trial(self.start_trial(cfg, fidelity)),
            None => Ask::Finished {
                reason: self.stop_reason,
            },
        })
    }

    /// Draws the tuner's suggestion for trial index `trial` against
    /// `against` (the session's own history when `None`), drains the
    /// tuner's notices onto the bus, and checks the acquisition
    /// conditions. Returns the configuration and its requested fidelity,
    /// or `None` once a stop has ended the session.
    fn suggest(
        &mut self,
        tuner: &mut dyn Tuner,
        against: Option<&TrialHistory>,
        trial: usize,
    ) -> Option<(Configuration, f64)> {
        let cfg = match tuner.suggest(against.unwrap_or(&self.history), &mut self.rng) {
            Ok(c) => c,
            Err(e) => {
                self.stop(match e {
                    TunerError::Exhausted => StopReason::Exhausted,
                    // Space-level failure (e.g. unsatisfiable
                    // constraints): nothing more to do.
                    TunerError::Space(_) => StopReason::SpaceRejected,
                });
                return None;
            }
        };
        self.emit_notices(tuner, trial);
        if let Some(reason) = self.acquisition_stop(tuner) {
            self.stop(reason);
            return None;
        }
        Some((cfg, tuner.requested_fidelity().clamp(1e-3, 1.0)))
    }

    /// Drains the tuner's scheduling notices (portfolio arm selections
    /// and budget reallocations) onto the event bus, tagged with the
    /// trial index the notices led to.
    fn emit_notices(&mut self, tuner: &mut dyn Tuner, trial: usize) {
        for notice in tuner.take_notices() {
            match &notice {
                TunerNotice::ArmSelected { arm, index, score } => {
                    self.emit(&TrialEvent::ArmSelected {
                        trial,
                        arm,
                        index: *index,
                        score: *score,
                    });
                }
                TunerNotice::ArmBudgetReallocated { shares } => {
                    self.emit(&TrialEvent::ArmBudgetReallocated { shares });
                }
            }
        }
    }

    /// Records `cfg` as the pending trial and emits `TrialStarted`.
    fn start_trial(&mut self, cfg: Configuration, fidelity: f64) -> PendingTrial {
        let trial = self.history.len();
        let rep = self.history.evaluations_of(&cfg);
        self.emit(&TrialEvent::TrialStarted {
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
            stop_reason: self.stop_reason,
            pending: self.pending.clone(),
            finished: self.finished,
            exec: self.exec.clone(),
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
        self.stop_reason = state.stop_reason;
        self.pending = state.pending;
        self.finished = state.finished;
        self.exec = state.exec;
        Ok(())
    }

    /// Consumes the machine into a [`TuneResult`].
    pub fn into_result(self, tuner_name: &str) -> TuneResult {
        let drift = self.drift.as_ref();
        TuneResult {
            tuner: tuner_name.to_owned(),
            drift_events: drift.map_or(0, DriftCtl::drift_events),
            retune_count: drift.map_or(0, DriftCtl::retune_count),
            history: self.history,
            exec: self.exec,
            stop_reason: self.stop_reason,
        }
    }

    /// Drives the ask → execute → tell loop against an in-process
    /// evaluator, for at most `max_trials` trials (`None` = until
    /// finished). The sequential arm of [`TuningSession::run`](super::TuningSession::run).
    pub(super) fn drive(
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

    /// Publishes `event` to every observer, in registration order.
    fn emit(&mut self, event: &TrialEvent<'_>) {
        for o in &mut self.observers {
            o.on_event(event);
        }
    }

    /// Emits `StoppedEarly` and records the reason.
    fn stop(&mut self, reason: StopReason) {
        self.emit(&TrialEvent::StoppedEarly { reason });
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
            self.emit(&TrialEvent::AttemptFailed {
                trial,
                attempt,
                status: &status,
            });
        }
        if !matches!(executed.status, ExecutionStatus::Ok) {
            self.emit(&TrialEvent::AttemptFailed {
                trial,
                attempt: executed.attempts.saturating_sub(1),
                status: &executed.status,
            });
        }
        self.emit(&TrialEvent::TrialCompleted {
            trial,
            config: &cfg,
            executed: &executed,
        });
        self.exec.absorb(&executed);
        self.cost_secs += executed.outcome.search_cost_machine_secs + executed.wasted_machine_secs;
        self.wall_secs += trial_wall_secs(&executed);
        let best = self.history.best_value();
        if let Some(v) = executed.outcome.objective.filter(|&v| v < best) {
            self.emit(&TrialEvent::IncumbentImproved {
                trial,
                config: &cfg,
                objective: v,
            });
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
                        self.emit(&TrialEvent::DriftDetected { trial, statistic });
                    }
                    DriftSignal::RetuneStarted { retune, knobs } => {
                        self.emit(&TrialEvent::ReTuneStarted {
                            trial,
                            retune,
                            knobs: &knobs,
                        });
                    }
                    DriftSignal::RetuneCompleted { retune } => {
                        self.emit(&TrialEvent::ReTuneCompleted { trial, retune });
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
    /// the incumbent cutoff are preassigned before the round is evaluated
    /// through [`claim_map`] (at the calling thread's
    /// [`set_threads`](mlconf_util::optim::set_threads) count) and results
    /// committed in suggestion order, so the outcome is bit-identical
    /// across any thread count.
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
                let trial = self.history.len() + batch.len();
                // A stop discards the partial batch: convergence means
                // the pending suggestions are not worth their cost.
                let Some((cfg, fidelity)) = self.suggest(tuner, Some(&lied), trial) else {
                    break 'outer;
                };
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
            let round_incumbent = self.incumbent_tta();
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
                let trial = self.history.len() + i;
                self.emit(&TrialEvent::TrialStarted {
                    trial,
                    config: cfg,
                    rep,
                    fidelity: *fidelity,
                });
                jobs.push((cfg, rep, *fidelity, trial));
            }
            let executed = claim_map(jobs.len(), |i| {
                let (cfg, rep, fidelity, trial) = jobs[i];
                executor.execute_at(
                    evaluator,
                    cfg,
                    rep,
                    fidelity,
                    trial,
                    round_incumbent,
                    Some(round_epoch),
                )
            });

            // Phase 3: commit in suggestion order.
            for ((cfg, _), trial) in batch.into_iter().zip(executed) {
                self.commit(tuner, cfg, trial);
            }
        }
    }
}
