#![warn(missing_docs)]
//! Configuration tuners for distributed machine learning — the paper's
//! primary contribution plus every baseline its evaluation compares
//! against.
//!
//! - [`tuner`] — the [`tuner::Tuner`] trait and shared
//!   [`tuner::TrialHistory`].
//! - [`bo`] — the Bayesian-optimization tuner (GP surrogate on the unit-
//!   hypercube encoding, log-objective, failure penalties, EI/PI/LCB
//!   acquisitions; CherryPick-style), which also takes [`transfer`]'s
//!   source histories as prior data (OtterTune-style warm starts).
//! - Baselines: [`random`] (uniform + Latin hypercube), [`grid`],
//!   [`coordinate`] (hill climbing), [`anneal`] (simulated annealing),
//!   [`halving`] (successive halving under noise), and [`ernest`] (the
//!   parametric performance-model approach).
//! - [`session`] — the [`session::TuningSession`] pipeline: the one
//!   suggest→execute→observe loop, with pluggable execution,
//!   concurrency, stop conditions, warm starting, and a trial-event
//!   observer bus — plus the [`session::AskTellSession`] stepper that
//!   lets external systems (e.g. `mlconf serve`) execute trials.
//! - [`portfolio`] — the bandit-scheduled tuner portfolio: race N arms
//!   in one session, reallocating budget toward observed progress.
//! - [`factory`] — name-keyed construction of boxed tuners (including
//!   `portfolio:bo,lhs,...` specs), shared by the CLI and the service
//!   layer.
//! - [`drift`] — the dynamic-environment layer: a Page-Hinkley
//!   [`drift::DriftMonitor`] on repeated-measurement residuals and a
//!   [`drift::ReTunePolicy`] that censors stale history and re-tunes
//!   the significant knobs first (experiment E17). Experiment E8's
//!   runtime reconfiguration uses the same monitor.
//!
//! # Examples
//!
//! ```
//! use mlconf_tuners::bo::BoTuner;
//! use mlconf_tuners::session::TuningSession;
//! use mlconf_workloads::evaluator::ConfigEvaluator;
//! use mlconf_workloads::objective::Objective;
//! use mlconf_workloads::workload::mlp_mnist;
//!
//! let evaluator = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, 42);
//! let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), 42);
//! let result = TuningSession::new(&evaluator, 10, 42).run(&mut tuner);
//! println!(
//!     "best time-to-accuracy after {} trials: {:.0}s",
//!     result.history.len(),
//!     result.best_value()
//! );
//! ```

pub mod anneal;
pub mod bo;
pub mod coordinate;
pub mod drift;
pub mod ernest;
pub mod executor;
pub mod factory;
pub mod grid;
pub mod halving;
pub mod history_io;
pub mod hyperband;
pub mod importance;
pub mod pareto;
pub mod portfolio;
pub mod random;
pub mod session;
pub mod transfer;
pub mod tuner;

pub use bo::{BoConfig, BoTuner, SurrogateMode};
pub use drift::{DriftConfig, DriftCtl, DriftMonitor, DriftResumeState, ReTunePolicy};
pub use executor::{ExecutedTrial, ExecutionStatus, RetryPolicy, TimeoutPolicy, TrialExecutor};
pub use factory::{bo_spec, build_tuner, FactoryError};
pub use portfolio::PortfolioTuner;
pub use session::{
    Ask, AskTellError, AskTellSession, Concurrency, ExecStats, JsonlTraceSink, PendingTrial,
    StatsAggregator, StopCondition, StopReason, TrialEvent, TrialObserver, TuneResult,
    TuningSession,
};
pub use tuner::{TrialHistory, TrialRecord, Tuner, TunerError};
