//! E4 — figure analogue: cost of the search itself.
//!
//! Claim validated: *BO reaches threshold quality at a fraction
//! of the baselines' search cost*, where cost is counted both in trials
//! and in price-normalized machine-seconds actually burned profiling
//! candidate clusters. Also reports the CherryPick-style stopping rule:
//! how many trials BO saves when allowed to stop on low expected
//! improvement, and the quality it gives up.

use mlconf_tuners::session::{first_within, StopCondition, TuneResult};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;

use crate::oracle::find_oracle;
use crate::replicate::replicate;
use crate::report::{fmt_num, Table};

use super::{tuner_registry, Scale};

/// Quality threshold: "good enough" = within 50% of the oracle optimum.
/// (The oracle spends ~1000+ evaluations plus local polish; reaching
/// 1.5x of it with ~30 profiling runs over a 9-knob space is the
/// operationally interesting bar.)
const WITHIN_FACTOR: f64 = 1.50;

/// The incumbent-quality curve: after each trial, the *noise-free* value
/// of the configuration the tuner would deploy (its observed best).
/// Observed objectives carry straggler/convergence noise and are biased
/// above the noise-free oracle, so thresholding must happen on true
/// config quality, not raw observations.
fn true_quality_curve(result: &TuneResult, oracle_ev: &ConfigEvaluator) -> Vec<f64> {
    let mut best_observed = f64::INFINITY;
    let mut incumbent_true = f64::INFINITY;
    result
        .history
        .trials()
        .iter()
        .map(|t| {
            if let Some(v) = t.outcome.objective {
                if v < best_observed {
                    best_observed = v;
                    incumbent_true = oracle_ev.true_objective(&t.config).unwrap_or(f64::INFINITY);
                }
            }
            incumbent_true
        })
        .collect()
}

/// Runs E4.
pub fn run(scale: &Scale) -> Vec<Table> {
    let tuners = tuner_registry(scale.budget, scale.max_nodes);
    let mut t = Table::new(
        "e4_search_cost",
        format!(
            "Search cost to reach within {:.0}% of the oracle",
            (WITHIN_FACTOR - 1.0) * 100.0
        ),
        [
            "workload",
            "tuner",
            "median trials",
            "median cost",
            "reached",
        ],
    );

    for w in &scale.workloads {
        let oracle_ev = ConfigEvaluator::new(
            w.clone(),
            Objective::TimeToAccuracy,
            scale.max_nodes,
            scale.seeds[0],
        );
        let oracle = find_oracle(&oracle_ev, scale.oracle_candidates);
        for entry in &tuners {
            let results = replicate(
                w,
                Objective::TimeToAccuracy,
                scale.max_nodes,
                entry.build.as_ref(),
                &scale.seeds,
                scale.budget,
                &[],
            );
            let mut trials: Vec<f64> = Vec::new();
            let mut costs: Vec<f64> = Vec::new();
            for r in &results {
                let curve = true_quality_curve(r, &oracle_ev);
                if let Some(n) = first_within(&curve, oracle.value, WITHIN_FACTOR) {
                    trials.push(n as f64);
                    costs.push(r.cost_curve()[n - 1]);
                }
            }
            let reached = format!("{}/{}", trials.len(), results.len());
            let med_trials = if trials.is_empty() {
                ">budget".to_owned()
            } else {
                fmt_num(mlconf_util::stats::median(&trials))
            };
            let med_cost = if costs.is_empty() {
                "-".to_owned()
            } else {
                fmt_num(mlconf_util::stats::median(&costs))
            };
            t.push_row([
                w.name().to_owned(),
                entry.name.to_owned(),
                med_trials,
                med_cost,
                reached,
            ]);
        }
    }
    t.note("cost unit: price-normalized machine-seconds (m4.large-equivalent)");

    // The stopping-rule sub-experiment on the first workload.
    let mut stop_table = Table::new(
        "e4_stopping_rule",
        "CherryPick-style early stopping (BO only)",
        [
            "workload",
            "rule",
            "median trials used",
            "median best/oracle",
        ],
    );
    if let Some(w) = scale.workloads.first() {
        let oracle_ev = ConfigEvaluator::new(
            w.clone(),
            Objective::TimeToAccuracy,
            scale.max_nodes,
            scale.seeds[0],
        );
        let oracle = find_oracle(&oracle_ev, scale.oracle_candidates);
        let bo = &tuners[0];
        for (label, conditions) in [
            ("none (full budget)", Vec::new()),
            // EI is in log10-objective units: 0.1 means the model expects
            // no better than a ~26% multiplicative improvement.
            (
                "acq < 0.1, patience 3",
                vec![StopCondition::AcquisitionBelow {
                    min_trials: 15,
                    threshold: 0.1,
                    patience: 3,
                }],
            ),
        ] {
            let results = replicate(
                w,
                Objective::TimeToAccuracy,
                scale.max_nodes,
                bo.build.as_ref(),
                &scale.seeds,
                scale.budget,
                &conditions,
            );
            let trials: Vec<f64> = results.iter().map(|r| r.history.len() as f64).collect();
            let quality: Vec<f64> = results
                .iter()
                .map(|r| r.best_value() / oracle.value)
                .collect();
            stop_table.push_row([
                w.name().to_owned(),
                label.to_owned(),
                fmt_num(mlconf_util::stats::median(&trials)),
                format!("{:.2}", mlconf_util::stats::median(&quality)),
            ]);
        }
    }
    vec![t, stop_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_workloads::workload::mlp_mnist;

    #[test]
    fn reports_rows_for_each_tuner_and_stopping_rule() {
        let scale = Scale {
            seeds: vec![5, 6],
            budget: 16,
            oracle_candidates: 150,
            max_nodes: 16,
            workloads: vec![mlp_mnist()],
        };
        let tables = run(&scale);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 8, "one row per tuner");
        assert_eq!(tables[1].rows.len(), 2, "two stopping rules");
        // The stopped run uses no more trials than the full run.
        let full: f64 = tables[1].rows[0][2].parse().unwrap();
        let stopped: f64 = tables[1].rows[1][2].parse().unwrap();
        assert!(stopped <= full + 1e-9);
    }
}
