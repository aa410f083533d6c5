#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Distributed-ML workload models, convergence laws, and tuning
//! objectives.
//!
//! This crate closes the loop between the configuration space
//! (`mlconf-space`), the cluster simulator (`mlconf-sim`), and the tuners
//! (`mlconf-tuners`):
//!
//! - [`workload`] — the evaluation suite: seven jobs (sparse logistic
//!   regression, matrix factorization, LDA, MLP, CNN, word2vec, a dense
//!   LM) spanning compute-, network-, and memory-bound regimes.
//! - [`convergence`] — the statistical-efficiency model mapping global
//!   batch size and gradient staleness to epochs-to-target (critical-
//!   batch-size law + staleness penalty + run-to-run noise).
//! - [`tunespace`] — the standard 9-knob tuning space and its mapping to
//!   simulator run configurations.
//! - [`objective`] — time-to-accuracy / cost / deadline objectives and
//!   the [`objective::TrialOutcome`] record.
//! - [`evaluator`] — [`evaluator::ConfigEvaluator`], the deterministic
//!   noisy black-box function tuners optimize.
//!
//! # Examples
//!
//! ```
//! use mlconf_workloads::evaluator::ConfigEvaluator;
//! use mlconf_workloads::objective::Objective;
//! use mlconf_workloads::tunespace::default_config;
//! use mlconf_workloads::workload::mlp_mnist;
//!
//! let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 42);
//! let outcome = ev.evaluate(&default_config(16), 0);
//! assert!(outcome.is_ok());
//! println!("default config reaches target in {:.0}s", outcome.tta_secs);
//! ```

pub mod convergence;
pub mod evaluator;
pub mod objective;
pub mod tunespace;
pub mod workload;

pub use convergence::ConvergenceModel;
pub use evaluator::ConfigEvaluator;
pub use objective::{Objective, TrialOutcome};
pub use tunespace::{default_config, standard_space, to_run_config};
pub use workload::{suite, Workload};
