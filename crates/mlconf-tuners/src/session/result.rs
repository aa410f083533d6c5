//! What a run leaves behind: its result and its execution totals.

use super::StopReason;
use crate::executor::{ExecutedTrial, ExecutionStatus};
use crate::tuner::TrialHistory;

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

/// Result of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Tuner name.
    pub tuner: String,
    /// Full trial history in execution order.
    pub history: TrialHistory,
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
