//! Head-to-head tuner comparison on one workload.
//!
//! Runs every tuner (BO, random, LHS, coordinate descent, simulated
//! annealing, successive halving, Ernest-style parametric model) with
//! the same 30-trial budget on the sparse logistic-regression workload
//! and prints a leaderboard plus each tuner's best-so-far trajectory —
//! a single-seed miniature of experiment E2/E3.
//!
//! ```text
//! cargo run --release --example compare_tuners
//! ```

use mlconf::tuners::anneal::SimulatedAnnealing;
use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::coordinate::CoordinateDescent;
use mlconf::tuners::ernest::ErnestTuner;
use mlconf::tuners::halving::SuccessiveHalving;
use mlconf::tuners::random::{LatinHypercubeSearch, RandomSearch};
use mlconf::tuners::session::{TuneResult, TuningSession};
use mlconf::tuners::tuner::Tuner;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::tunespace::default_config;
use mlconf::workloads::workload::logreg_criteo;

fn main() {
    const SEED: u64 = 3;
    const MAX_NODES: i64 = 32;
    const BUDGET: usize = 30;

    let evaluator =
        ConfigEvaluator::new(logreg_criteo(), Objective::TimeToAccuracy, MAX_NODES, SEED);
    let space = evaluator.space().clone();

    let mut tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(BoTuner::with_defaults(space.clone(), SEED)),
        Box::new(RandomSearch::new(space.clone())),
        Box::new(LatinHypercubeSearch::new(space.clone(), 10)),
        Box::new(CoordinateDescent::new(
            space.clone(),
            Some(default_config(MAX_NODES)),
        )),
        Box::new(SimulatedAnnealing::new(space.clone(), BUDGET, SEED)),
        Box::new(SuccessiveHalving::new(space.clone(), 16)),
        Box::new(ErnestTuner::new(space.clone(), 15, 128)),
    ];

    let mut results: Vec<TuneResult> = tuners
        .iter_mut()
        .map(|t| TuningSession::new(&evaluator, BUDGET, SEED).run(t.as_mut()))
        .collect();
    results.sort_by(|a, b| a.best_value().partial_cmp(&b.best_value()).unwrap());

    println!(
        "workload: {} — {} trials each, seed {SEED}\n",
        evaluator.workload().name(),
        BUDGET
    );
    println!(
        "{:<12} {:>14} {:>10}   best-so-far every 5 trials",
        "tuner", "best tta(s)", "fails"
    );
    for r in &results {
        let curve = r.best_curve();
        let samples: Vec<String> = (4..curve.len())
            .step_by(5)
            .map(|i| {
                if curve[i].is_finite() {
                    format!("{:>9.0}", curve[i])
                } else {
                    format!("{:>9}", "inf")
                }
            })
            .collect();
        let fails = r
            .history
            .trials()
            .iter()
            .filter(|t| !t.outcome.is_ok())
            .count();
        println!(
            "{:<12} {:>14.0} {:>10}   {}",
            r.tuner,
            r.best_value(),
            fails,
            samples.join("")
        );
    }
    println!("\nlower is better; `fails` counts OOM/infeasible trials the tuner burned");
}
