//! Transfer learning: reuse yesterday's tuning run to accelerate today's.
//!
//! Tunes the compute-bound LDA workload once (the "source"), then tunes
//! the CNN workload three ways under a tight 10-trial budget:
//!
//! 1. cold-start BO,
//! 2. BO warm-started from the related LDA history,
//! 3. BO warm-started from an *unrelated* (memory-bound w2v) history —
//!    demonstrating negative transfer, the classic caveat.
//!
//! ```text
//! cargo run --release --example transfer_learning
//! ```

use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::session::TuningSession;
use mlconf::tuners::transfer::SourceHistory;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::workload::{cnn_cifar, lda_news, w2v_wiki, Workload};

const MAX_NODES: i64 = 32;
const SEED: u64 = 21;
const SOURCE_BUDGET: usize = 30;
const TARGET_BUDGET: usize = 10;

fn tune_source(workload: Workload, label: &str) -> SourceHistory {
    let ev = ConfigEvaluator::new(workload, Objective::TimeToAccuracy, MAX_NODES, SEED);
    let mut tuner = BoTuner::with_defaults(ev.space().clone(), SEED);
    let r = TuningSession::new(&ev, SOURCE_BUDGET, SEED).run(&mut tuner);
    println!(
        "source `{label}` tuned: best {:.0}s over {} trials",
        r.best_value(),
        r.history.len()
    );
    SourceHistory::from_history(&r.history, ev.space()).expect("source history usable")
}

fn main() {
    println!("== phase 1: tune the source workloads ==");
    let related = tune_source(lda_news(), "lda-news (compute-bound, like the target)");
    let unrelated = tune_source(w2v_wiki(), "w2v-wiki (memory-bound, unlike the target)");

    println!("\n== phase 2: tune cnn-cifar with only {TARGET_BUDGET} trials ==");
    let ev = ConfigEvaluator::new(cnn_cifar(), Objective::TimeToAccuracy, MAX_NODES, SEED + 1);

    let mut cold = BoTuner::with_defaults(ev.space().clone(), SEED);
    let cold_r = TuningSession::new(&ev, TARGET_BUDGET, SEED + 1).run(&mut cold);

    let mut warm = BoTuner::with_defaults(ev.space().clone(), SEED).with_prior(vec![related]);
    let warm_r = TuningSession::new(&ev, TARGET_BUDGET, SEED + 1).run(&mut warm);

    let mut mismatched =
        BoTuner::with_defaults(ev.space().clone(), SEED).with_prior(vec![unrelated]);
    let mis_r = TuningSession::new(&ev, TARGET_BUDGET, SEED + 1).run(&mut mismatched);

    println!("\n{:<34} {:>14}", "strategy", "best tta(s)");
    for (label, r) in [
        ("cold-start BO", &cold_r),
        ("warm start from related source", &warm_r),
        ("warm start from unrelated source", &mis_r),
    ] {
        println!("{:<34} {:>14.0}", label, r.best_value());
    }
    println!(
        "\nRelated-source transfer should win at this budget; an unrelated\n\
         source can mislead the surrogate (negative transfer) — audit your\n\
         sources' similarity before reusing them."
    );
}
