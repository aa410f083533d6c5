//! E10 — extension experiment: transfer learning across workloads.
//!
//! Claim validated (paper-class "future work" direction, OtterTune's
//! core idea): *warm-starting the surrogate with trials from a
//! previously tuned, related workload cuts the trials needed on a new
//! workload.* Sources and targets are paired within and across regimes
//! to show that relatedness matters. A prior shrinks BO's initial
//! design to 3 points, so a cold arm with that same design
//! (`bo:init=3`) separates the effect of transfer from the effect of a
//! shorter design.

use mlconf_tuners::bo::BoTuner;
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::TuningSession;
use mlconf_tuners::transfer::SourceHistory;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::{by_name, Workload};

use crate::oracle::find_oracle;
use crate::report::Table;

use super::Scale;

/// Budget for the *target* workload (the interesting, scarce resource).
const TARGET_BUDGET: usize = 12;

/// Budget for tuning the source workload (assumed already spent in the
/// past).
const SOURCE_BUDGET: usize = 30;

fn tune_source(workload: &Workload, seed: u64, max_nodes: i64) -> Option<SourceHistory> {
    let ev = ConfigEvaluator::new(workload.clone(), Objective::TimeToAccuracy, max_nodes, seed);
    let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
    let r = TuningSession::new(&ev, SOURCE_BUDGET, seed).run(&mut t);
    SourceHistory::from_history(&r.history, ev.space())
}

/// Runs E10.
pub fn run(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "e10_transfer",
        format!("Warm-start transfer: median best/oracle after {TARGET_BUDGET} target trials"),
        [
            "target",
            "source",
            "cold bo",
            "cold bo (init 3)",
            "warm bo",
            "improvement",
        ],
    );
    // (target, related source, unrelated source) triples.
    let pairs = [
        ("cnn-cifar", "lda-news"),       // compute-bound → compute-bound
        ("mf-netflix", "logreg-criteo"), // sparse → sparse
        ("cnn-cifar", "w2v-wiki"),       // memory-bound → compute-bound (mismatch)
    ];
    for (target_name, source_name) in pairs {
        let target = by_name(target_name).expect("suite workload");
        let source_w = by_name(source_name).expect("suite workload");
        let oracle_ev = ConfigEvaluator::new(
            target.clone(),
            Objective::TimeToAccuracy,
            scale.max_nodes,
            scale.seeds[0],
        );
        let oracle = find_oracle(&oracle_ev, scale.oracle_candidates);

        let mut cold_vals = Vec::new();
        let mut short_vals = Vec::new();
        let mut warm_vals = Vec::new();
        for &seed in &scale.seeds {
            let ev = ConfigEvaluator::new(
                target.clone(),
                Objective::TimeToAccuracy,
                scale.max_nodes,
                seed,
            );
            let mut cold = BoTuner::with_defaults(ev.space().clone(), seed);
            let cold_r = TuningSession::new(&ev, TARGET_BUDGET, seed).run(&mut cold);
            cold_vals.push(cold_r.best_value() / oracle.value);

            let mut short = build_tuner("bo:init=3", ev.space().clone(), TARGET_BUDGET, seed, None)
                .expect("valid bo spec");
            let short_r = TuningSession::new(&ev, TARGET_BUDGET, seed).run(short.as_mut());
            short_vals.push(short_r.best_value() / oracle.value);

            let sources: Vec<SourceHistory> =
                tune_source(&source_w, seed.wrapping_add(1000), scale.max_nodes)
                    .into_iter()
                    .collect();
            let mut warm = BoTuner::with_defaults(ev.space().clone(), seed).with_prior(sources);
            let warm_r = TuningSession::new(&ev, TARGET_BUDGET, seed).run(&mut warm);
            warm_vals.push(warm_r.best_value() / oracle.value);
        }
        let cold = mlconf_util::stats::median(&cold_vals);
        let short = mlconf_util::stats::median(&short_vals);
        let warm = mlconf_util::stats::median(&warm_vals);
        t.push_row([
            target_name.to_owned(),
            source_name.to_owned(),
            format!("{cold:.2}"),
            format!("{short:.2}"),
            format!("{warm:.2}"),
            format!("{:+.0}%", (1.0 - warm / cold) * 100.0),
        ]);
    }
    t.note(format!(
        "source tuned for {SOURCE_BUDGET} trials beforehand; improvement is warm bo \
         over cold bo; seeds {:?}",
        scale.seeds
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_workloads::workload::mlp_mnist;

    #[test]
    fn transfer_table_has_three_pairs_and_finite_ratios() {
        let scale = Scale {
            seeds: vec![1, 2],
            budget: 0,
            oracle_candidates: 120,
            max_nodes: 16,
            workloads: vec![mlp_mnist()],
        };
        let tables = run(&scale);
        assert_eq!(tables[0].rows.len(), 3);
        for row in &tables[0].rows {
            let cold: f64 = row[2].parse().expect("cold ratio");
            let short: f64 = row[3].parse().expect("cold init-3 ratio");
            let warm: f64 = row[4].parse().expect("warm ratio");
            assert!(cold >= 0.9 && cold.is_finite());
            assert!(short >= 0.9 && short.is_finite());
            assert!(warm >= 0.9 && warm.is_finite());
        }
    }
}
