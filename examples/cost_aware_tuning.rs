//! Cost-aware tuning: dollars, not seconds — and deadlines.
//!
//! The cheapest configuration is rarely the fastest: small clusters of
//! cheap machines win on cost while big clusters win on time. This
//! example tunes the CNN workload under three objectives and shows how
//! the chosen configuration shifts:
//!
//! 1. minimize time-to-accuracy,
//! 2. minimize dollar cost to accuracy,
//! 3. minimize cost subject to a deadline (penalized).
//!
//! ```text
//! cargo run --release --example cost_aware_tuning
//! ```

use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::session::TuningSession;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::workload::cnn_cifar;

fn main() {
    const SEED: u64 = 11;
    const MAX_NODES: i64 = 32;
    const BUDGET: usize = 25;

    let objectives = [
        ("fastest", Objective::TimeToAccuracy),
        ("cheapest", Objective::CostToAccuracy),
        (
            "cheapest within 2h",
            Objective::DeadlineCost {
                deadline_secs: 2.0 * 3600.0,
                penalty: 5.0,
            },
        ),
    ];

    println!("workload: cnn-cifar (compute-bound residual network)\n");
    println!(
        "{:<20} {:>10} {:>10} {:>7} {:>6}   machine / arch",
        "objective", "tta", "cost($)", "nodes", "batch"
    );
    for (label, objective) in objectives {
        let evaluator = ConfigEvaluator::new(cnn_cifar(), objective, MAX_NODES, SEED);
        let mut tuner = BoTuner::with_defaults(evaluator.space().clone(), SEED);
        let result = TuningSession::new(&evaluator, BUDGET, SEED).run(&mut tuner);
        let Some(best) = result.history.best() else {
            println!("{label:<20} found nothing feasible");
            continue;
        };
        let cfg = &best.config;
        println!(
            "{:<20} {:>9.0}s {:>10.2} {:>7} {:>6}   {} / {}",
            label,
            best.outcome.tta_secs,
            best.outcome.cost_usd,
            cfg.get_int("num_nodes").unwrap(),
            cfg.get_int("batch_per_worker").unwrap(),
            cfg.get_str("machine_type").unwrap(),
            cfg.get_str("arch").unwrap(),
        );
    }
    println!(
        "\nNote how the cost objective prefers smaller/cheaper clusters and \
         the deadline objective lands in between."
    );
}
