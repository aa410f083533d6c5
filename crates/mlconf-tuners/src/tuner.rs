//! The tuner abstraction: propose-observe loops over a configuration
//! space, with a shared trial history.

use mlconf_space::config::Configuration;
use mlconf_space::error::SpaceError;
use mlconf_util::rng::Pcg64;
use mlconf_workloads::objective::TrialOutcome;
use serde::{Deserialize, Serialize};

/// Error returned by a tuner's `suggest`.
#[derive(Debug, Clone, PartialEq)]
pub enum TunerError {
    /// The tuner has no more configurations to propose (e.g. a grid is
    /// exhausted).
    Exhausted,
    /// The configuration space rejected an operation.
    Space(SpaceError),
}

impl std::fmt::Display for TunerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerError::Exhausted => write!(f, "tuner exhausted its candidate set"),
            TunerError::Space(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TunerError {}

impl From<SpaceError> for TunerError {
    fn from(e: SpaceError) -> Self {
        TunerError::Space(e)
    }
}

/// One completed trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Trial index (0-based, in execution order).
    pub index: usize,
    /// The configuration that was run.
    pub config: Configuration,
    /// What happened.
    pub outcome: TrialOutcome,
}

/// Ordered record of all completed trials.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrialHistory {
    trials: Vec<TrialRecord>,
}

impl TrialHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completed trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Returns `true` if no trials have run.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Appends a completed trial.
    pub fn push(&mut self, config: Configuration, outcome: TrialOutcome) {
        self.trials.push(TrialRecord {
            index: self.trials.len(),
            config,
            outcome,
        });
    }

    /// All trials in execution order.
    pub fn trials(&self) -> &[TrialRecord] {
        &self.trials
    }

    /// Iterates over successful trials only.
    pub fn successes(&self) -> impl Iterator<Item = &TrialRecord> {
        self.trials.iter().filter(|t| t.outcome.is_ok())
    }

    /// The best (lowest-objective) successful trial so far.
    pub fn best(&self) -> Option<&TrialRecord> {
        self.successes().min_by(|a, b| {
            a.outcome
                .objective
                .partial_cmp(&b.outcome.objective)
                .expect("successful outcomes are finite")
        })
    }

    /// The best objective value so far (`inf` when nothing succeeded).
    pub fn best_value(&self) -> f64 {
        self.best()
            .and_then(|t| t.outcome.objective)
            .unwrap_or(f64::INFINITY)
    }

    /// Number of times a configuration (by key) has been evaluated; used
    /// as the repetition index so repeats see fresh noise.
    pub fn evaluations_of(&self, config: &Configuration) -> u64 {
        let key = config.key();
        self.trials.iter().filter(|t| t.config.key() == key).count() as u64
    }

    /// Mean objective of all successful evaluations of `config`
    /// (`None` if it never succeeded).
    pub fn mean_objective_of(&self, config: &Configuration) -> Option<f64> {
        let key = config.key();
        let vals: Vec<f64> = self
            .successes()
            .filter(|t| t.config.key() == key)
            .filter_map(|t| t.outcome.objective)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Cumulative search cost (machine-seconds) after each trial.
    pub fn cumulative_search_cost(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.trials
            .iter()
            .map(|t| {
                acc += t.outcome.search_cost_machine_secs;
                acc
            })
            .collect()
    }

    /// Best-so-far objective after each trial (`inf` until the first
    /// success).
    pub fn best_so_far_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.trials
            .iter()
            .map(|t| {
                if let Some(v) = t.outcome.objective {
                    best = best.min(v);
                }
                best
            })
            .collect()
    }
}

/// Diagnostics a tuner may expose to the session's stop conditions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TunerDiagnostics {
    /// The acquisition value of the most recent suggestion (model-based
    /// tuners only).
    pub last_acquisition: Option<f64>,
}

/// A structured announcement a composite tuner queues during `suggest`
/// for the session to publish on its trial-event bus. Plain tuners never
/// produce any; the portfolio tuner uses them to surface its arm
/// scheduling decisions as [`crate::session::TrialEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum TunerNotice {
    /// An arm was chosen to produce the next suggestion.
    ArmSelected {
        /// The chosen arm's tuner name (e.g. `"bo-ei"`).
        arm: String,
        /// The arm's index within the portfolio.
        index: usize,
        /// The bandit score the arm won with (`inf` during warmup).
        score: f64,
    },
    /// The bandit's budget shares shifted (warmup ended, or a new arm
    /// took the lead).
    ArmBudgetReallocated {
        /// `(arm name, dispatched-trial share in [0, 1])`, in arm order.
        shares: Vec<(String, f64)>,
    },
}

/// Error produced when restoring a tuner from a [`TunerState`] fails
/// (missing key, mistyped field, or a tuner without snapshot support).
#[derive(Debug, Clone, PartialEq)]
pub struct StateError {
    message: String,
}

impl StateError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        StateError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for StateError {}

/// A single checkpointable field of a tuner's internal state.
///
/// The variants are deliberately few and flat so that any codec (the
/// service's bit-exact JSON, a future binary format) can serialize them
/// without knowing which tuner produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum StateValue {
    /// Unsigned counter (cursors, trial counts).
    U64(u64),
    /// 128-bit integer — RNG state halves.
    U128(u128),
    /// Floating-point scalar; must round-trip bit-exactly.
    F64(f64),
    /// Short string (kernel family names and the like).
    Str(String),
    /// List of floats (lengthscales, early objective values).
    F64List(Vec<f64>),
    /// A single configuration.
    Config(Configuration),
    /// An ordered list of configurations (pending buffers, grid order).
    ConfigList(Vec<Configuration>),
}

/// An opaque, codec-friendly checkpoint of a tuner's internal state.
///
/// Produced by [`Tuner::checkpoint`] and consumed by [`Tuner::restore`].
/// Keys are flat strings chosen by each tuner; `Option`-valued fields
/// are encoded by key *presence* (an absent key is `None`, a present —
/// possibly empty — value is `Some`), which preserves distinctions like
/// "empty pending buffer" vs "buffer not yet generated".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TunerState {
    fields: Vec<(String, StateValue)>,
}

impl TunerState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a state from decoded `(key, value)` pairs.
    pub fn from_fields(fields: Vec<(String, StateValue)>) -> Self {
        TunerState { fields }
    }

    /// All fields in insertion order (for codecs).
    pub fn fields(&self) -> &[(String, StateValue)] {
        &self.fields
    }

    /// Sets `key` to `value`, replacing any existing entry.
    pub fn set(&mut self, key: &str, value: StateValue) {
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_owned(), value));
        }
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&StateValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Returns `true` if `key` is present.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn require(&self, key: &str) -> Result<&StateValue, StateError> {
        self.get(key)
            .ok_or_else(|| StateError::new(format!("missing state field '{key}'")))
    }

    /// Typed accessor for a [`StateValue::U64`] field.
    pub fn u64(&self, key: &str) -> Result<u64, StateError> {
        match self.require(key)? {
            StateValue::U64(v) => Ok(*v),
            other => Err(StateError::new(format!(
                "field '{key}' is not u64: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::U128`] field.
    pub fn u128(&self, key: &str) -> Result<u128, StateError> {
        match self.require(key)? {
            StateValue::U128(v) => Ok(*v),
            other => Err(StateError::new(format!(
                "field '{key}' is not u128: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::F64`] field.
    pub fn f64(&self, key: &str) -> Result<f64, StateError> {
        match self.require(key)? {
            StateValue::F64(v) => Ok(*v),
            other => Err(StateError::new(format!(
                "field '{key}' is not f64: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::Str`] field.
    pub fn str(&self, key: &str) -> Result<&str, StateError> {
        match self.require(key)? {
            StateValue::Str(v) => Ok(v),
            other => Err(StateError::new(format!(
                "field '{key}' is not a string: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::F64List`] field.
    pub fn f64_list(&self, key: &str) -> Result<&[f64], StateError> {
        match self.require(key)? {
            StateValue::F64List(v) => Ok(v),
            other => Err(StateError::new(format!(
                "field '{key}' is not a float list: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::Config`] field.
    pub fn config(&self, key: &str) -> Result<&Configuration, StateError> {
        match self.require(key)? {
            StateValue::Config(v) => Ok(v),
            other => Err(StateError::new(format!(
                "field '{key}' is not a configuration: {other:?}"
            ))),
        }
    }

    /// Typed accessor for a [`StateValue::ConfigList`] field.
    pub fn config_list(&self, key: &str) -> Result<&[Configuration], StateError> {
        match self.require(key)? {
            StateValue::ConfigList(v) => Ok(v),
            other => Err(StateError::new(format!(
                "field '{key}' is not a configuration list: {other:?}"
            ))),
        }
    }

    /// Stores an RNG's raw position under `{key}.state` / `{key}.inc`.
    pub fn set_rng(&mut self, key: &str, rng: &Pcg64) {
        let (state, inc) = rng.to_raw();
        self.set(&format!("{key}.state"), StateValue::U128(state));
        self.set(&format!("{key}.inc"), StateValue::U128(inc));
    }

    /// Reconstructs an RNG stored via [`TunerState::set_rng`].
    pub fn rng(&self, key: &str) -> Result<Pcg64, StateError> {
        let state = self.u128(&format!("{key}.state"))?;
        let inc = self.u128(&format!("{key}.inc"))?;
        Ok(Pcg64::from_raw(state, inc))
    }
}

/// A configuration tuner: proposes the next configuration to try.
///
/// Tuners are driven by a [`TuningSession`](crate::session::TuningSession):
/// the session evaluates each suggestion and appends it to the shared
/// [`TrialHistory`] before the next `suggest` call, so stateless tuners
/// can be written purely against the history.
pub trait Tuner {
    /// A stable short name for reports (e.g. `"bo-ei"`, `"random"`).
    fn name(&self) -> &str;

    /// Proposes the next configuration to evaluate.
    ///
    /// # Errors
    ///
    /// Returns [`TunerError::Exhausted`] when the tuner has nothing left
    /// to propose; the session treats this as early termination.
    fn suggest(
        &mut self,
        history: &TrialHistory,
        rng: &mut Pcg64,
    ) -> Result<Configuration, TunerError>;

    /// Notifies the tuner of a completed trial (after it was appended to
    /// the history). Most tuners need no extra state; the default is a
    /// no-op.
    fn observe(&mut self, _config: &Configuration, _outcome: &TrialOutcome) {}

    /// Optional diagnostics for stopping rules.
    fn diagnostics(&self) -> TunerDiagnostics {
        TunerDiagnostics::default()
    }

    /// The profiling fidelity in `(0, 1]` the *next* evaluation should
    /// run at. Multi-fidelity tuners (Hyperband) lower this for cheap
    /// screening rounds; everything else runs at full fidelity.
    fn requested_fidelity(&self) -> f64 {
        1.0
    }

    /// Captures the tuner's internal state for a crash-consistent
    /// snapshot.
    ///
    /// The contract: constructing an identical tuner (same space, same
    /// options, same seed), then calling [`Tuner::restore`] with this
    /// state and the trial history at checkpoint time, must yield a tuner
    /// whose future `suggest`/`observe` behaviour is bit-identical to the
    /// original's. Tuners that cannot honour the contract return `None`
    /// (the default) and callers fall back to full history replay.
    fn checkpoint(&self) -> Option<TunerState> {
        None
    }

    /// Drains the structured notices queued since the last drain, in
    /// the order they were produced. The session calls this after every
    /// successful `suggest` and republishes each notice on its
    /// trial-event bus. The default is empty: only composite tuners
    /// (the portfolio) announce anything.
    fn take_notices(&mut self) -> Vec<TunerNotice> {
        Vec::new()
    }

    /// Restores internal state previously produced by
    /// [`Tuner::checkpoint`] on an identically-constructed tuner.
    ///
    /// `history` is the trial history as of the checkpoint; tuners that
    /// derive model state from past trials (e.g. BO's cached surrogate)
    /// rebuild it from here.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] when the state is missing or mistyped, or
    /// when the tuner has no snapshot support.
    fn restore(&mut self, _state: &TunerState, _history: &TrialHistory) -> Result<(), StateError> {
        Err(StateError::new(format!(
            "tuner '{}' does not support state restore",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_space::param::ParamValue;

    fn cfg(v: i64) -> Configuration {
        Configuration::from_pairs([("x", ParamValue::Int(v))])
    }

    fn ok(value: f64) -> TrialOutcome {
        TrialOutcome {
            objective: Some(value),
            failure: None,
            tta_secs: value,
            cost_usd: value / 100.0,
            throughput: 1.0,
            staleness_steps: 0.0,
            search_cost_machine_secs: 10.0,
            censored_at: None,
            attempts: 1,
        }
    }

    #[test]
    fn best_ignores_failures() {
        let mut h = TrialHistory::new();
        h.push(cfg(1), TrialOutcome::failed("oom", 5.0));
        h.push(cfg(2), ok(7.0));
        h.push(cfg(3), ok(3.0));
        h.push(cfg(4), TrialOutcome::failed("oom", 5.0));
        assert_eq!(h.best().unwrap().config, cfg(3));
        assert_eq!(h.best_value(), 3.0);
        assert_eq!(h.successes().count(), 2);
    }

    #[test]
    fn empty_history() {
        let h = TrialHistory::new();
        assert!(h.is_empty());
        assert!(h.best().is_none());
        assert_eq!(h.best_value(), f64::INFINITY);
        assert!(h.best_so_far_curve().is_empty());
    }

    #[test]
    fn best_so_far_is_monotone() {
        let mut h = TrialHistory::new();
        for (i, v) in [5.0, 7.0, 3.0, 9.0, 2.0].into_iter().enumerate() {
            h.push(cfg(i as i64), ok(v));
        }
        let curve = h.best_so_far_curve();
        assert_eq!(curve, vec![5.0, 5.0, 3.0, 3.0, 2.0]);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn cumulative_cost_accumulates() {
        let mut h = TrialHistory::new();
        h.push(cfg(0), ok(1.0));
        h.push(cfg(1), TrialOutcome::failed("x", 5.0));
        assert_eq!(h.cumulative_search_cost(), vec![10.0, 15.0]);
    }

    #[test]
    fn repetition_counting_by_key() {
        let mut h = TrialHistory::new();
        h.push(cfg(1), ok(4.0));
        h.push(cfg(2), ok(5.0));
        h.push(cfg(1), ok(6.0));
        assert_eq!(h.evaluations_of(&cfg(1)), 2);
        assert_eq!(h.evaluations_of(&cfg(2)), 1);
        assert_eq!(h.evaluations_of(&cfg(9)), 0);
        assert_eq!(h.mean_objective_of(&cfg(1)), Some(5.0));
        assert_eq!(h.mean_objective_of(&cfg(9)), None);
    }

    #[test]
    fn trial_indices_sequential() {
        let mut h = TrialHistory::new();
        h.push(cfg(5), ok(1.0));
        h.push(cfg(6), ok(1.0));
        assert_eq!(h.trials()[0].index, 0);
        assert_eq!(h.trials()[1].index, 1);
    }
}
