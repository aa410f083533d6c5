#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # mlconf — automating system configuration of distributed machine learning
//!
//! `mlconf` is a full reconstruction of a Bayesian-optimization-based
//! automatic configuration tuner for distributed ML training systems
//! (ICDCS 2019 class; see `DESIGN.md` for the reconstruction notes),
//! together with every substrate it needs: a typed configuration space,
//! a from-scratch Gaussian-process/BO stack, a discrete-event cluster
//! simulator (parameter server and ring all-reduce), workload and
//! convergence models, baseline tuners, and drift detection that re-tunes
//! when scripted cluster conditions shift.
//!
//! This crate is the facade: it re-exports each layer under a stable
//! module name. Downstream users depend on `mlconf` alone.
//!
//! ## Layers
//!
//! | Module | Crate | Provides |
//! |---|---|---|
//! | [`util`] | `mlconf-util` | deterministic RNG, stats, linalg, optimizers, sampling |
//! | [`space`] | `mlconf-space` | typed parameters, constraints, unit-cube encoding |
//! | [`gp`] | `mlconf-gp` | GP regression, acquisitions, hyperparameter fitting |
//! | [`sim`] | `mlconf-sim` | the cluster: machines, network, PS/all-reduce engines, stragglers, OOM, failures |
//! | [`workloads`] | `mlconf-workloads` | the job suite, convergence laws, objectives, evaluator |
//! | [`tuners`] | `mlconf-tuners` | BO tuner + baselines, tuning sessions, drift re-tuning |
//!
//! ## Quickstart
//!
//! ```
//! use mlconf::tuners::bo::BoTuner;
//! use mlconf::tuners::session::TuningSession;
//! use mlconf::workloads::evaluator::ConfigEvaluator;
//! use mlconf::workloads::objective::Objective;
//! use mlconf::workloads::workload::mlp_mnist;
//!
//! // Tune the time-to-accuracy of a small MLP training job on clusters
//! // of up to 8 machines.
//! let evaluator = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, 42);
//! let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), 42);
//! let result = TuningSession::new(&evaluator, 10, 42).run(&mut tuner);
//!
//! let best = result.history.best().expect("at least one feasible trial");
//! println!("best config: {}", best.config);
//! println!("time-to-accuracy: {:.0}s", best.outcome.tta_secs);
//! ```

pub use mlconf_gp as gp;
pub use mlconf_sim as sim;
pub use mlconf_space as space;
pub use mlconf_tuners as tuners;
pub use mlconf_util as util;
pub use mlconf_workloads as workloads;

/// Crate version, for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Touch one item from each layer so a broken re-export fails here.
        let _ = crate::util::rng::Pcg64::seed(0);
        let _ = crate::space::param::Param::int("x", 0, 1).unwrap();
        let _ = crate::gp::kernel::KernelFamily::Matern52;
        let _ = crate::sim::cluster::default_catalog();
        let _ = crate::workloads::workload::suite();
        let _ = crate::tuners::session::Concurrency::Sequential;
        assert!(!crate::VERSION.is_empty());
    }
}
