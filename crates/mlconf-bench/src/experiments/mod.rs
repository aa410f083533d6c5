//! The experiment suite: one module per table/figure of the evaluation
//! (see DESIGN.md's per-experiment index and EXPERIMENTS.md for measured
//! results).

pub mod e10_transfer;
pub mod e11_availability;
pub mod e12_importance;
pub mod e13_pareto;
pub mod e14_portfolio;
pub mod e15_serve;
pub mod e16_sparse;
pub mod e17_dynamic;
pub mod e1_workloads;
pub mod e2_quality;
pub mod e3_convergence;
pub mod e4_search_cost;
pub mod e5_ablation;
pub mod e6_crossover;
pub mod e7_model_accuracy;
pub mod e8_online;
pub mod e9_robustness;

use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::tuner::Tuner;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::tunespace::default_config;
use mlconf_workloads::workload::{self, Workload};

use crate::report::Table;

/// Experiment scale: `quick` finishes in minutes and is what CI runs;
/// `full` uses more seeds, workloads, and budget for the EXPERIMENTS.md
/// numbers.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Replicate seeds.
    pub seeds: Vec<u64>,
    /// Trial budget per tuning run.
    pub budget: usize,
    /// Halton candidates for the oracle.
    pub oracle_candidates: usize,
    /// Cluster-size cap for the tuning space.
    pub max_nodes: i64,
    /// Workloads used by tuner-comparison experiments.
    pub workloads: Vec<Workload>,
}

impl Scale {
    /// Minutes-scale configuration.
    pub fn quick() -> Self {
        Scale {
            seeds: vec![11, 22, 33],
            budget: 30,
            oracle_candidates: 600,
            max_nodes: 32,
            workloads: vec![
                workload::logreg_criteo(),
                workload::mlp_mnist(),
                workload::cnn_cifar(),
            ],
        }
    }

    /// The configuration used for EXPERIMENTS.md.
    pub fn full() -> Self {
        Scale {
            seeds: vec![11, 22, 33, 44, 55],
            budget: 40,
            oracle_candidates: 1500,
            max_nodes: 32,
            workloads: workload::suite(),
        }
    }
}

/// A boxed tuner factory: builds a fresh tuner for an evaluator + seed.
pub type BoxedTunerFactory = Box<dyn Fn(&ConfigEvaluator, u64) -> Box<dyn Tuner> + Sync>;

/// A named tuner constructor for comparison experiments.
pub struct TunerEntry {
    /// Stable name (column label).
    pub name: &'static str,
    /// Factory building a fresh tuner for an evaluator + seed.
    pub build: BoxedTunerFactory,
}

/// The standard tuner line-up of the comparison experiments (BO plus
/// every baseline), each built by [`build_tuner`] with the factory's
/// defaults; `coord` starts from the operator default at `max_nodes`.
pub fn tuner_registry(budget: usize, max_nodes: i64) -> Vec<TunerEntry> {
    [
        "bo",
        "random",
        "lhs",
        "coord",
        "anneal",
        "halving",
        "hyperband",
        "ernest",
    ]
    .into_iter()
    .map(|name| TunerEntry {
        name,
        build: Box::new(move |ev: &ConfigEvaluator, seed: u64| -> Box<dyn Tuner> {
            let start = Some(default_config(max_nodes));
            build_tuner(name, ev.space().clone(), budget, seed, start)
                .expect("line-up names are factory base names")
        }),
    })
    .collect()
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id (the binary validates first).
pub fn run_experiment(id: &str, scale: &Scale) -> Vec<Table> {
    match id {
        "e1" => e1_workloads::run(scale),
        "e2" => e2_quality::run(scale),
        "e3" => e3_convergence::run(scale),
        "e4" => e4_search_cost::run(scale),
        "e5" => e5_ablation::run(scale),
        "e6" => e6_crossover::run(scale),
        "e7" => e7_model_accuracy::run(scale),
        "e8" => e8_online::run(scale),
        "e9" => e9_robustness::run(scale),
        "e10" => e10_transfer::run(scale),
        "e11" => e11_availability::run(scale),
        "e12" => e12_importance::run(scale),
        "e13" => e13_pareto::run(scale),
        "e14" => e14_portfolio::run(scale),
        "e15" => e15_serve::run(scale),
        "e16" => e16_sparse::run(scale),
        "e17" => e17_dynamic::run(scale),
        other => panic!("unknown experiment id `{other}`"),
    }
}
