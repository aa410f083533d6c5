//! E14 — portfolio tuning: racing arms under a bandit schedule.
//!
//! Claim validated: *when the fault regime is unknown, the portfolio
//! tuner tracks the best fixed arm without knowing it in advance* — the
//! no-free-lunch answer to E9's observation that no single tuner wins
//! every severity level.
//!
//! Every fixed arm in the registry plus `portfolio` (the default
//! bo/ernest race) runs the E9 severity ladder under the standard
//! production executor. Reported per `(severity, tuner)`: median
//! best-found/oracle (noise-free re-score), plus two reference columns —
//! the ratio of the single fixed arm with the best *average* across the
//! ladder ("best fixed", chosen with hindsight over the whole ladder)
//! and the per-severity hindsight winner ("oracle arm").
//!
//! Besides `results/e14_portfolio.csv`, `run` writes a
//! `BENCH_portfolio.json` artifact pinning the same numbers together
//! with the acceptance booleans: the portfolio must match or beat the
//! best fixed arm on at least 2 of the 4 severities and stay within
//! 1.2× of the per-severity oracle arm on ladder average. Everything is
//! deterministic in the scale's seeds.

use mlconf_sim::faultplan::FaultPlan;
use mlconf_tuners::executor::TrialExecutor;
use mlconf_tuners::factory::build_tuner;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::tunespace::default_config;

use crate::oracle::find_oracle;
use crate::replicate::replicate_executed;
use crate::report::{json_num, Table};

use super::e9_robustness::SEVERITIES;
use super::{tuner_registry, Scale, TunerEntry};

/// The acceptance ceiling on ladder-average regret versus the
/// per-severity hindsight-best arm.
pub const ORACLE_ARM_SLACK: f64 = 1.2;

/// How many of the ladder's severities the portfolio must match or beat
/// the best fixed arm on.
pub const MIN_SEVERITIES_WON: usize = 2;

/// The fixed-arm registry plus the portfolio under test.
fn arms(budget: usize, max_nodes: i64) -> Vec<TunerEntry> {
    let mut arms = tuner_registry(budget, max_nodes);
    arms.push(TunerEntry {
        name: "portfolio",
        build: Box::new(move |ev, seed| {
            build_tuner(
                "portfolio",
                ev.space().clone(),
                budget,
                seed,
                Some(default_config(max_nodes)),
            )
            .expect("the default portfolio spec builds")
        }),
    });
    arms
}

/// Median best/oracle for one `(severity, arm)` cell.
struct Cell {
    severity: &'static str,
    tuner: String,
    ratio: f64,
}

/// Mean of the finite per-severity ratios for `tuner`; infinite if any
/// severity failed outright (a total failure disqualifies an arm).
fn ladder_mean(cells: &[Cell], tuner: &str) -> f64 {
    let vals: Vec<f64> = cells
        .iter()
        .filter(|c| c.tuner == tuner)
        .map(|c| c.ratio)
        .collect();
    if vals.is_empty() || vals.iter().any(|v| !v.is_finite()) {
        f64::INFINITY
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Runs E14 and returns the table plus the JSON artifact body.
fn run_with_json(scale: &Scale) -> (Vec<Table>, String) {
    // mlp-mnist is the ladder's most contested workload (no fixed arm
    // dominates every severity — see E2/E9), which is exactly the regime
    // a portfolio exists for; fall back to the scale's first workload if
    // it is absent.
    let w = scale
        .workloads
        .iter()
        .find(|w| w.name() == "mlp-mnist")
        .or_else(|| scale.workloads.first())
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

    let mut cells: Vec<Cell> = Vec::new();
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
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.history
                        .best()
                        .and_then(|b| oracle_ev.true_objective(&b.config))
                        .unwrap_or(f64::INFINITY)
                })
                .collect();
            cells.push(Cell {
                severity: sev_name,
                tuner: entry.name.to_owned(),
                ratio: mlconf_util::stats::median(&vals) / oracle.value,
            });
        }
    }

    // "Best fixed" = the single fixed arm with the lowest ladder-average
    // ratio, chosen with hindsight; "oracle arm" = the per-severity
    // hindsight winner among fixed arms.
    let fixed: Vec<&str> = arms
        .iter()
        .map(|e| e.name)
        .filter(|n| *n != "portfolio")
        .collect();
    let best_fixed = *fixed
        .iter()
        .min_by(|a, b| {
            ladder_mean(&cells, a)
                .partial_cmp(&ladder_mean(&cells, b))
                .expect("ladder means are comparable")
        })
        .expect("registry is non-empty");
    let at = |sev: &str, tuner: &str| -> f64 {
        cells
            .iter()
            .find(|c| c.severity == sev && c.tuner == tuner)
            .map(|c| c.ratio)
            .unwrap_or(f64::INFINITY)
    };
    let oracle_arm = |sev: &str| -> (&str, f64) {
        fixed
            .iter()
            .map(|t| (*t, at(sev, t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("ratios are comparable"))
            .expect("registry is non-empty")
    };

    let mut t = Table::new(
        "e14_portfolio",
        format!(
            "Portfolio vs fixed arms on {} (median best/oracle across the E9 severity ladder)",
            w.name()
        ),
        [
            "severity",
            "tuner",
            "best_over_oracle",
            "vs_best_fixed",
            "vs_oracle_arm",
        ],
    );
    let fmt_ratio = |v: f64| {
        if v.is_finite() {
            format!("{v:.2}")
        } else {
            "fail".to_owned()
        }
    };
    for c in &cells {
        t.push_row([
            c.severity.to_owned(),
            c.tuner.clone(),
            fmt_ratio(c.ratio),
            fmt_ratio(c.ratio / at(c.severity, best_fixed)),
            fmt_ratio(c.ratio / oracle_arm(c.severity).1),
        ]);
    }
    t.note(format!(
        "best fixed arm across the ladder: {best_fixed} (lowest mean best/oracle); \
         oracle arm = per-severity hindsight winner"
    ));
    t.note(
        "portfolio = bandit-scheduled bo/ernest race (UCB over incumbent \
         improvement, static warmup share); standard executor, scripted plans per seed",
    );

    // Acceptance: match-or-beat the best fixed arm on enough severities,
    // and stay close to the per-severity oracle on ladder average.
    let severities_won: Vec<&str> = SEVERITIES
        .iter()
        .filter(|(sev, _)| at(sev, "portfolio") <= at(sev, best_fixed) + 1e-12)
        .map(|(sev, _)| *sev)
        .collect();
    let oracle_mean = SEVERITIES
        .iter()
        .map(|(sev, _)| oracle_arm(sev).1)
        .sum::<f64>()
        / SEVERITIES.len() as f64;
    let portfolio_mean = ladder_mean(&cells, "portfolio");
    let beats_best_fixed = severities_won.len() >= MIN_SEVERITIES_WON;
    let within_oracle_slack = portfolio_mean <= ORACLE_ARM_SLACK * oracle_mean;

    let mut sev_blocks = Vec::new();
    for (sev_name, severity) in SEVERITIES {
        let tuners: Vec<String> = cells
            .iter()
            .filter(|c| c.severity == sev_name)
            .map(|c| {
                format!(
                    "{{\"tuner\": \"{}\", \"best_over_oracle\": {}}}",
                    c.tuner,
                    json_num(c.ratio)
                )
            })
            .collect();
        let (oracle_name, oracle_ratio) = oracle_arm(sev_name);
        sev_blocks.push(format!(
            "{{\"severity\": \"{sev_name}\", \"plan_severity\": {}, \
             \"oracle_arm\": \"{oracle_name}\", \"oracle_arm_ratio\": {}, \"tuners\": [\n    {}\n  ]}}",
            json_num(severity),
            json_num(oracle_ratio),
            tuners.join(",\n    ")
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e14_portfolio\",\n  \"workload\": \"{}\",\n  \
         \"budget\": {},\n  \"seeds\": {:?},\n  \"oracle\": {},\n  \
         \"best_fixed_arm\": \"{best_fixed}\",\n  \
         \"best_fixed_mean\": {},\n  \"portfolio_mean\": {},\n  \
         \"oracle_arm_mean\": {},\n  \"acceptance\": {{\n    \
         \"severities_won\": {:?},\n    \
         \"beats_best_fixed_on_{MIN_SEVERITIES_WON}_of_{}\": {beats_best_fixed},\n    \
         \"within_{ORACLE_ARM_SLACK}x_of_oracle_arm\": {within_oracle_slack}\n  }},\n  \
         \"severities\": [\n  {}\n  ]\n}}\n",
        w.name(),
        scale.budget,
        scale.seeds,
        json_num(oracle.value),
        json_num(ladder_mean(&cells, best_fixed)),
        json_num(portfolio_mean),
        json_num(oracle_mean),
        severities_won,
        SEVERITIES.len(),
        sev_blocks.join(",\n  ")
    );
    (vec![t], json)
}

/// Runs E14, writing `BENCH_portfolio.json` beside the working
/// directory's results (same convention as `BENCH_robustness.json`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let (tables, json) = run_with_json(scale);
    match std::fs::write("BENCH_portfolio.json", &json) {
        Ok(()) => println!("wrote BENCH_portfolio.json"),
        Err(e) => eprintln!("failed to write BENCH_portfolio.json: {e}"),
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

    /// Structural: the grid covers every severity × arm (fixed registry
    /// plus the portfolio), the reference columns exist, and the JSON
    /// carries the acceptance block.
    #[test]
    fn grid_covers_every_arm_and_severity() {
        let (tables, json) = run_with_json(&mini_scale());
        let t = &tables[0];
        let n_arms = arms(12, 16).len();
        assert_eq!(t.rows.len(), SEVERITIES.len() * n_arms);
        assert!(t.rows.iter().any(|r| r[1] == "portfolio"));
        // The per-severity oracle arm has vs_oracle_arm == 1.00.
        for (sev, _) in SEVERITIES {
            assert!(
                t.rows
                    .iter()
                    .any(|r| r[0] == sev && r[1] != "portfolio" && r[4] == "1.00"),
                "severity {sev} has no oracle arm row"
            );
        }
        assert!(json.contains("\"acceptance\""), "{json}");
        assert!(json.contains("\"best_fixed_arm\""), "{json}");
    }

    /// The acceptance determinism check in miniature: two invocations
    /// produce byte-identical tables and JSON, despite replicate
    /// threading and fault injection.
    #[test]
    fn byte_identical_across_invocations() {
        let a = run_with_json(&mini_scale());
        let b = run_with_json(&mini_scale());
        assert_eq!(a.0[0].rows, b.0[0].rows);
        assert_eq!(a.1, b.1);
    }
}
