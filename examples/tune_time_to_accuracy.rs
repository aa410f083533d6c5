//! Tune time-to-accuracy for every workload in the evaluation suite.
//!
//! For each of the seven suite workloads, runs the BO tuner for 25
//! trials and reports the best configuration, its predicted
//! time-to-accuracy, and the improvement over the operator default —
//! the scenario the paper's motivation section describes: the right
//! configuration differs *per workload*, so no static default wins
//! everywhere.
//!
//! ```text
//! cargo run --release --example tune_time_to_accuracy
//! ```

use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::session::TuningSession;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::tunespace::default_config;
use mlconf::workloads::workload::suite;

fn main() {
    const SEED: u64 = 7;
    const MAX_NODES: i64 = 32;
    const BUDGET: usize = 25;

    println!(
        "{:<16} {:>12} {:>12} {:>8}   best configuration",
        "workload", "default(s)", "tuned(s)", "speedup"
    );
    for workload in suite() {
        let evaluator =
            ConfigEvaluator::new(workload.clone(), Objective::TimeToAccuracy, MAX_NODES, SEED);
        let default_outcome = evaluator.evaluate(&default_config(MAX_NODES), 0);

        let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), SEED);
        let result = TuningSession::new(&evaluator, BUDGET, SEED).run(&mut tuner);
        let Some(best) = result.history.best() else {
            println!(
                "{:<16} {:>12.0} {:>12} — nothing feasible found",
                workload.name(),
                default_outcome.tta_secs,
                "-"
            );
            continue;
        };

        let speedup = default_outcome.tta_secs / best.outcome.tta_secs;
        println!(
            "{:<16} {:>12.0} {:>12.0} {:>7.1}x   {}",
            workload.name(),
            default_outcome.tta_secs,
            best.outcome.tta_secs,
            speedup,
            best.config
        );
    }
    println!("\n(25 BO trials per workload, clusters up to 32 nodes, seed 7)");
}
