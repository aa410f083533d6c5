//! The [`TuningSession`] builder: an [`AskTellSession`] plus the
//! evaluator, executor and concurrency mode that drive it in-process.

use mlconf_space::config::Configuration;
use mlconf_workloads::evaluator::ConfigEvaluator;

use super::{AskTellSession, StopCondition, TrialObserver, TuneResult};
use crate::drift::{DriftConfig, DriftCtl, ReTunePolicy};
use crate::executor::TrialExecutor;
use crate::tuner::Tuner;

/// How the session schedules trial evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// One suggestion evaluated at a time.
    #[default]
    Sequential,
    /// `batch_size` concurrent evaluations per round, diversified with
    /// the constant-liar heuristic and evaluated through
    /// [`claim_map`](mlconf_util::optim::claim_map) at the calling thread's
    /// [`set_threads`](mlconf_util::optim::set_threads) count; the result
    /// is bit-identical across any thread count.
    Batched {
        /// Suggestions per round (must be positive).
        batch_size: usize,
    },
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
    seed: u64,
    executor: TrialExecutor,
    concurrency: Concurrency,
    core: AskTellSession<'a>,
}

impl<'a> TuningSession<'a> {
    /// Starts building a session: `budget` trials against `evaluator`,
    /// with the driver RNG derived from `seed`. Defaults: passthrough
    /// execution, sequential concurrency, no stop conditions, no warm
    /// start, no observers.
    pub fn new(evaluator: &'a ConfigEvaluator, budget: usize, seed: u64) -> Self {
        TuningSession {
            evaluator,
            seed,
            executor: TrialExecutor::passthrough(),
            concurrency: Concurrency::Sequential,
            core: AskTellSession::new(budget, seed),
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
        self.core = self.core.stop_when(condition);
        self
    }

    /// Adds several stop conditions at once.
    pub fn stop_conditions(mut self, conditions: impl IntoIterator<Item = StopCondition>) -> Self {
        self.core = self.core.stop_conditions(conditions);
        self
    }

    /// Evaluates `configs` first (at full fidelity, counting against the
    /// budget) before handing control to the tuner — transfer-style
    /// seeding from a source workload's best configurations.
    pub fn warm_start(mut self, configs: Vec<Configuration>) -> Self {
        self.core = self.core.warm_start(configs);
        self
    }

    /// Registers an observer on the trial-event bus.
    pub fn observe_with(mut self, observer: Box<dyn TrialObserver + Send + 'a>) -> Self {
        self.core = self.core.observe_with(observer);
        self
    }

    /// Attaches a drift-detection / re-tune policy under `config`'s
    /// thresholds. [`ReTunePolicy::Off`] (the default) attaches nothing
    /// and leaves the session byte-identical to an unmonitored one.
    /// Re-tuning steps sequentially: combining a policy with batched
    /// concurrency panics in [`TuningSession::run`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn retune(mut self, policy: ReTunePolicy, config: DriftConfig) -> Self {
        let ctl = DriftCtl::new(policy, config, self.evaluator.space().clone(), self.seed);
        self.core = self.core.drift_ctl(ctl);
        self
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
    pub fn run(mut self, tuner: &mut dyn Tuner) -> TuneResult {
        let (core, evaluator, executor) = (&mut self.core, self.evaluator, &self.executor);
        match self.concurrency {
            Concurrency::Sequential => {
                core.drive(tuner, evaluator, executor, None);
            }
            Concurrency::Batched { batch_size } => {
                // Warm-start trials step sequentially (they are forced,
                // not suggested), then batched rounds take over.
                let warm = core.warm_remaining();
                core.drive(tuner, evaluator, executor, Some(warm));
                if !core.is_finished() {
                    core.run_batched(tuner, evaluator, executor, batch_size);
                }
            }
        }
        self.core.into_result(tuner.name())
    }
}
