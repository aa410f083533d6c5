//! Quickstart: tune the system configuration of one training job.
//!
//! Runs the Bayesian-optimization tuner for 20 trials against the small
//! MLP workload and prints the best configuration it found, alongside
//! the operator-default configuration for comparison.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::session::TuningSession;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::tunespace::default_config;
use mlconf::workloads::workload::mlp_mnist;

fn main() {
    const SEED: u64 = 42;
    const MAX_NODES: i64 = 16;
    const BUDGET: usize = 20;

    let evaluator = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, MAX_NODES, SEED);
    println!(
        "tuning `{}` ({}), objective: {}",
        evaluator.workload().name(),
        evaluator.workload().description(),
        evaluator.objective().name()
    );

    // How good is the configuration an operator would pick by hand?
    let default_cfg = default_config(MAX_NODES);
    let default_outcome = evaluator.evaluate(&default_cfg, 0);
    println!(
        "\noperator default: {default_cfg}\n  -> time-to-accuracy {:.0}s (${:.2})",
        default_outcome.tta_secs, default_outcome.cost_usd
    );

    // Let the tuner search.
    let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), SEED);
    let result = TuningSession::new(&evaluator, BUDGET, SEED).run(&mut tuner);

    println!("\ntrials:");
    for trial in result.history.trials() {
        match trial.outcome.objective {
            Some(v) => println!("  #{:>2}  {:>10.0}s  {}", trial.index, v, trial.config),
            None => println!(
                "  #{:>2}      FAILED  {}  ({})",
                trial.index,
                trial.config,
                trial.outcome.failure.as_deref().unwrap_or("?")
            ),
        }
    }

    let best = result
        .history
        .best()
        .expect("some sampled configuration must be feasible");
    println!("\nbest found: {}", best.config);
    println!(
        "  time-to-accuracy {:.0}s (${:.2}) — {:.1}x better than the default",
        best.outcome.tta_secs,
        best.outcome.cost_usd,
        default_outcome.tta_secs / best.outcome.tta_secs
    );
}
