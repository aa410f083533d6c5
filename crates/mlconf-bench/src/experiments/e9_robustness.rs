//! E9 — figure analogue: robustness to fault-injected trial execution.
//!
//! Claim validated: *the BO tuner's advantage persists when trials
//! crash, hang, OOM, and straggle* — and treating timed-out trials as
//! right-censored lower bounds beats penalizing them like failures.
//!
//! Every tuner in the registry (plus a `bo-naive` arm with censoring
//! disabled) is driven through a scripted [`FaultPlan`] at three
//! severity levels, with the standard production executor (3×-incumbent
//! timeout, 2 retries with backoff). Reported per `(severity, tuner)`:
//! median best-found/oracle, degradation versus the clean run, the
//! fraction of search machine-time wasted on faults, and fault counts.
//! The chosen configurations are re-scored noise-free so the metric
//! isolates decision quality.
//!
//! Besides the `results/e9_robustness.csv` table, `run` writes a
//! `BENCH_robustness.json` artifact pinning the same numbers. Everything
//! is deterministic in the scale's seeds: the same seeds and plans give
//! a byte-identical CSV across invocations and thread counts.

use mlconf_sim::faultplan::FaultPlan;
use mlconf_tuners::bo::{BoConfig, BoTuner};
use mlconf_tuners::executor::TrialExecutor;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;

use crate::oracle::find_oracle;
use crate::replicate::replicate_executed;
use crate::report::{json_num, Table};

use super::{tuner_registry, Scale, TunerEntry};

/// The severity ladder: scripted-plan severity by preset name (0 =
/// clean, no plan).
pub const SEVERITIES: [(&str, f64); 4] = [
    ("clean", 0.0),
    ("mild", 0.5),
    ("moderate", 1.0),
    ("severe", 2.0),
];

/// Per-(severity, tuner) summary backing one table row and one JSON
/// record.
struct ArmResult {
    severity: &'static str,
    tuner: String,
    /// Median best-found/oracle (noise-free re-score); infinite when no
    /// replicate found anything feasible.
    ratio: f64,
    /// Fraction of total search machine-time burned without a usable
    /// measurement.
    wasted_frac: f64,
    timeouts: usize,
    crashes: usize,
    ooms: usize,
    retries: usize,
}

/// The registry plus the naive-penalty BO arm E9's censoring claim is
/// measured against.
fn arms(budget: usize, max_nodes: i64) -> Vec<TunerEntry> {
    let mut arms = tuner_registry(budget, max_nodes);
    arms.push(TunerEntry {
        name: "bo-naive",
        build: Box::new(|ev, seed| {
            Box::new(BoTuner::new(
                ev.space().clone(),
                BoConfig {
                    censored_as_bound: false,
                    ..BoConfig::default()
                },
                seed,
            ))
        }),
    });
    arms
}

/// Runs E9 and returns the table plus the JSON artifact body.
fn run_with_json(scale: &Scale) -> (Vec<Table>, String) {
    let w = scale
        .workloads
        .first()
        .expect("scale has a workload")
        .clone();
    let oracle_ev = ConfigEvaluator::new(
        w.clone(),
        Objective::TimeToAccuracy,
        scale.max_nodes,
        scale.seeds[0],
    );
    let oracle = find_oracle(&oracle_ev, scale.oracle_candidates);
    let arms = arms(scale.budget, scale.max_nodes);

    let mut results: Vec<ArmResult> = Vec::new();
    for (sev_name, severity) in SEVERITIES {
        for entry in &arms {
            let runs = replicate_executed(
                &w,
                Objective::TimeToAccuracy,
                scale.max_nodes,
                entry.build.as_ref(),
                &scale.seeds,
                scale.budget,
                &[],
                &|seed| {
                    let ex = TrialExecutor::standard(seed);
                    if severity > 0.0 {
                        ex.with_plan(FaultPlan::scripted(scale.budget, severity, seed))
                    } else {
                        ex
                    }
                },
            );
            // Judge each replicate's chosen config by its noise-free
            // value, then take the median across seeds.
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.history
                        .best()
                        .and_then(|b| oracle_ev.true_objective(&b.config))
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            let ratio = mlconf_util::stats::median(&vals) / oracle.value;
            let total_cost: f64 = runs
                .iter()
                .map(|r| r.cost_curve().last().copied().unwrap_or(0.0))
                .sum();
            let wasted: f64 = runs.iter().map(|r| r.exec.wasted_machine_secs).sum();
            results.push(ArmResult {
                severity: sev_name,
                tuner: entry.name.to_owned(),
                ratio,
                wasted_frac: if total_cost > 0.0 {
                    wasted / total_cost
                } else {
                    0.0
                },
                timeouts: runs.iter().map(|r| r.exec.timeouts).sum(),
                crashes: runs.iter().map(|r| r.exec.crashes).sum(),
                ooms: runs.iter().map(|r| r.exec.ooms).sum(),
                retries: runs.iter().map(|r| r.exec.retries).sum(),
            });
        }
    }

    let mut t = Table::new(
        "e9_robustness",
        format!(
            "Fault-injected robustness on {} (median best/oracle under scripted fault plans)",
            w.name()
        ),
        [
            "severity",
            "tuner",
            "best_over_oracle",
            "vs_clean",
            "wasted_pct",
            "timeouts",
            "crashes",
            "ooms",
            "retries",
        ],
    );
    let clean_ratio = |tuner: &str| -> f64 {
        results
            .iter()
            .find(|r| r.severity == "clean" && r.tuner == tuner)
            .map(|r| r.ratio)
            .unwrap_or(f64::NAN)
    };
    for r in &results {
        let vs_clean = r.ratio / clean_ratio(&r.tuner);
        let fmt_ratio = |v: f64| {
            if v.is_finite() {
                format!("{v:.2}")
            } else {
                "fail".to_owned()
            }
        };
        t.push_row([
            r.severity.to_owned(),
            r.tuner.clone(),
            fmt_ratio(r.ratio),
            fmt_ratio(vs_clean),
            format!("{:.1}", r.wasted_frac * 100.0),
            r.timeouts.to_string(),
            r.crashes.to_string(),
            r.ooms.to_string(),
            r.retries.to_string(),
        ]);
    }
    t.note(
        "standard executor: 3x-incumbent timeout (600s floor), 2 retries with backoff; \
         plans scripted per seed; chosen configs re-scored noise-free",
    );
    t.note(
        "bo-naive = censoring disabled (timeouts penalized like failures); \
         bo treats them as right-censored lower bounds",
    );

    let mut sev_blocks = Vec::new();
    for (sev_name, severity) in SEVERITIES {
        let tuners: Vec<String> = results
            .iter()
            .filter(|r| r.severity == sev_name)
            .map(|r| {
                format!(
                    "{{\"tuner\": \"{}\", \"best_over_oracle\": {}, \"wasted_frac\": {}, \
                     \"timeouts\": {}, \"crashes\": {}, \"ooms\": {}, \"retries\": {}}}",
                    r.tuner,
                    json_num(r.ratio),
                    json_num(r.wasted_frac),
                    r.timeouts,
                    r.crashes,
                    r.ooms,
                    r.retries
                )
            })
            .collect();
        sev_blocks.push(format!(
            "{{\"severity\": \"{sev_name}\", \"plan_severity\": {}, \"tuners\": [\n    {}\n  ]}}",
            json_num(severity),
            tuners.join(",\n    ")
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e9_robustness\",\n  \"workload\": \"{}\",\n  \
         \"budget\": {},\n  \"seeds\": {:?},\n  \"oracle\": {},\n  \"severities\": [\n  {}\n  ]\n}}\n",
        w.name(),
        scale.budget,
        scale.seeds,
        json_num(oracle.value),
        sev_blocks.join(",\n  ")
    );
    (vec![t], json)
}

/// Runs E9, writing `BENCH_robustness.json` beside the working
/// directory's results (same convention as `BENCH_gp.json`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let (tables, json) = run_with_json(scale);
    match std::fs::write("BENCH_robustness.json", &json) {
        Ok(()) => println!("wrote BENCH_robustness.json"),
        Err(e) => eprintln!("failed to write BENCH_robustness.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_workloads::workload::mlp_mnist;

    fn mini_scale() -> Scale {
        Scale {
            seeds: vec![5, 6],
            budget: 12,
            oracle_candidates: 120,
            max_nodes: 16,
            workloads: vec![mlp_mnist()],
        }
    }

    /// The headline structural test: every tuner survives every plan
    /// (no panics, no hangs), rows cover the full severity × arm grid,
    /// and fault counters actually fire at non-zero severity.
    #[test]
    fn all_tuners_survive_all_plans() {
        let (tables, json) = run_with_json(&mini_scale());
        let t = &tables[0];
        let n_arms = arms(12, 16).len();
        assert_eq!(t.rows.len(), SEVERITIES.len() * n_arms);
        // Clean rows: no injected faults (natural timeouts possible).
        for row in t.rows.iter().take(n_arms) {
            assert_eq!(row[7], "0", "clean rows must have no crashes: {row:?}");
            assert_eq!(row[8], "0", "clean rows must have no OOMs: {row:?}");
        }
        // Severe rows: the plan must actually strike someone.
        let severe_hits: usize = t
            .rows
            .iter()
            .filter(|r| r[0] == "severe")
            .map(|r| {
                r[5].parse::<usize>().unwrap()
                    + r[6].parse::<usize>().unwrap()
                    + r[7].parse::<usize>().unwrap()
                    + r[8].parse::<usize>().unwrap()
            })
            .sum();
        assert!(severe_hits > 0, "severity-2 plans never fired");
        assert!(json.contains("\"severity\": \"severe\""));
        assert!(json.contains("bo-naive"));
    }

    /// The acceptance determinism check in miniature: two invocations
    /// produce byte-identical tables (and JSON), despite replicate
    /// threading and fault injection.
    #[test]
    fn byte_identical_across_invocations() {
        let a = run_with_json(&mini_scale());
        let b = run_with_json(&mini_scale());
        assert_eq!(a.0[0].rows, b.0[0].rows);
        assert_eq!(a.1, b.1);
    }
}
