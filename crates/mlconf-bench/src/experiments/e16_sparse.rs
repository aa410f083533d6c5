//! E16 — sparse surrogate ablation: regret parity at small n, bounded
//! suggest cost at large n.
//!
//! Claim validated: *the subset-of-data sparse surrogate keeps BO's
//! search quality at the trial counts the experiments actually run
//! while cutting the per-suggest cost from O(n²) kernel evaluations to
//! O(m²) at scale* — the justification for auto-switching
//! `BoTuner::fit_surrogate` above the sparse threshold.
//!
//! Two halves, one table:
//!
//! - **Regret parity (small n).** The full BO session (mlp-mnist,
//!   time-to-accuracy) runs once per seed with the exact GP and once
//!   with the surrogate forced sparse at an aggressively small subset
//!   (`max_points` 16 — far under the budget, so the subset selection
//!   genuinely drops points). Reported: median best-found/oracle per
//!   mode and the sparse/exact parity ratio. Acceptance (gated in
//!   `BENCH_gp.json` by `bench-baseline`): parity ≤
//!   [`REGRET_PARITY_SLACK`].
//! - **Suggest cost (large n).** Kernel-evaluation counts — not wall
//!   clock, so the CSV is byte-deterministic and can sit behind CI's
//!   reproducibility diff — for one sparse fit plus a 256-candidate
//!   scoring pass at n = 2k and n = 10k, against the exact path's
//!   analytic floor (one Gram, `n(n+1)/2`, plus `n + 1` evals per
//!   candidate). The counted sparse figure is cross-checked against its
//!   own closed form, so a regression that sneaks O(n²) work into the
//!   sparse path shows up as a CSV diff.
//!
//! Wall-clock timings for the same shapes (and the acceptance booleans
//! `sparse_regret_parity_small_n` / `sparse_suggest_bounded_large_n`)
//! are recorded by `bench-baseline` into `BENCH_gp.json`, which reuses
//! this module's helpers so the two artifacts cannot drift apart.

use mlconf_gp::kernel::{Kernel, KernelFamily};
use mlconf_gp::ops;
use mlconf_gp::sparse::{SparseConfig, SparseGaussianProcess};
use mlconf_gp::{PredictWorkspace, Surrogate};
use mlconf_tuners::bo::{BoConfig, BoTuner, SurrogateMode};
use mlconf_util::rng::Pcg64;
use mlconf_util::sampling::latin_hypercube;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;

use crate::oracle::find_oracle;
use crate::replicate::replicate;
use crate::report::Table;

use super::Scale;

/// Acceptance ceiling on the sparse/exact regret ratio at small n.
pub const REGRET_PARITY_SLACK: f64 = 1.05;

/// Acceptance floor on the exact/sparse per-suggest cost ratio at the
/// largest probed n (10k).
pub const SUGGEST_SPEEDUP_FLOOR: f64 = 20.0;

/// The large-n shapes probed by the suggest-cost half.
pub const LARGE_NS: [usize; 2] = [2_000, 10_000];

/// Candidate pool per suggest — the BO tuner's own.
pub const CANDIDATES: usize = mlconf_tuners::bo::CANDIDATES;

/// Dimensionality of the synthetic large-n training sets (matches the
/// tuning space's feature width used across the GP benches).
const DIMS: usize = 9;

/// The ablation's deliberately tight subset budget: small enough that a
/// quick-scale session (budget 30) genuinely discards points, so parity
/// is measured against real subsetting rather than a full-rank subset.
pub fn ablation_sparse_config() -> SparseConfig {
    SparseConfig {
        max_points: 16,
        incumbent_k: 4,
        recent_k: 4,
    }
}

/// Median best-found/oracle for the exact and forced-sparse BO modes.
pub struct ParityOutcome {
    /// Median best/oracle with the exact GP surrogate.
    pub exact: f64,
    /// Median best/oracle with the surrogate forced sparse.
    pub sparse: f64,
}

impl ParityOutcome {
    /// Sparse regret over exact regret (≤ 1 means sparse matched or
    /// beat exact; the acceptance bar allows [`REGRET_PARITY_SLACK`]).
    pub fn parity(&self) -> f64 {
        self.sparse / self.exact
    }
}

/// Runs the regret-parity half: full BO sessions per seed on the
/// scale's mlp-mnist workload, exact vs forced-sparse, both normalized
/// by the same quasi-exhaustive oracle.
pub fn regret_parity(scale: &Scale) -> ParityOutcome {
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

    let ratio_for = |mode: SurrogateMode| -> f64 {
        let runs = replicate(
            &w,
            Objective::TimeToAccuracy,
            scale.max_nodes,
            &|ev: &ConfigEvaluator, seed: u64| {
                let config = BoConfig {
                    surrogate: mode,
                    sparse: ablation_sparse_config(),
                    ..BoConfig::default()
                };
                Box::new(BoTuner::new(ev.space().clone(), config, seed))
            },
            &scale.seeds,
            scale.budget,
            &[],
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
        mlconf_util::stats::median(&vals) / oracle.value
    };

    ParityOutcome {
        exact: ratio_for(SurrogateMode::Exact),
        sparse: ratio_for(SurrogateMode::Sparse),
    }
}

/// Kernel-evaluation counts for one suggest at history size `n`.
pub struct SuggestCost {
    /// History size.
    pub n: usize,
    /// Subset size the sparse fit used.
    pub m: usize,
    /// Counted evals: sparse fit + [`CANDIDATES`]-point scoring pass.
    pub sparse_evals: u64,
    /// Analytic exact-path floor: one Gram plus per-candidate cross
    /// rows (`n(n+1)/2 + CANDIDATES·(n+1)`), ignoring the exact path's
    /// additional O(n³) factorization work entirely.
    pub exact_evals: u64,
}

impl SuggestCost {
    /// Exact/sparse eval ratio (the conservative speedup lower bound).
    pub fn speedup(&self) -> f64 {
        self.exact_evals as f64 / self.sparse_evals as f64
    }
}

/// Counts kernel evals for a sparse fit + candidate scoring pass at
/// history size `n` on a synthetic latin-hypercube training set, using
/// the production `SparseConfig::default()` subset budget.
///
/// Deterministic: subset selection uses plain distances (zero kernel
/// evals) and the counter is thread-local, so the count is a pure
/// function of `n`.
pub fn suggest_cost(n: usize) -> SuggestCost {
    let cfg = SparseConfig::default();
    let mut rng = Pcg64::seed(1);
    let xs = latin_hypercube(n, DIMS, &mut rng);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (v - 0.3).powi(2) * (i + 1) as f64)
                .sum()
        })
        .collect();

    ops::reset_kernel_evals();
    let sparse = SparseGaussianProcess::fit(
        Kernel::new(KernelFamily::Matern52, DIMS),
        &xs,
        &ys,
        1e-4,
        &cfg,
    )
    .expect("sparse fit on synthetic data");
    let mut ws = PredictWorkspace::default();
    for i in 0..CANDIDATES {
        let q = vec![i as f64 / CANDIDATES as f64; DIMS];
        let p = sparse.predict_with(&q, &mut ws);
        assert!(p.mean.is_finite(), "sparse prediction degenerated");
    }
    let sparse_evals = ops::kernel_evals();

    let m = sparse.inner().n_train();
    let (nu, mu, cu) = (n as u64, m as u64, CANDIDATES as u64);
    // Cross-check the counted figure against the closed form so any
    // accidental O(n²) work in the sparse path fails loudly (and
    // diffs the committed CSV).
    assert_eq!(sparse_evals, mu * (mu + 1) / 2 + cu * (mu + 1));
    SuggestCost {
        n,
        m,
        sparse_evals,
        exact_evals: nu * (nu + 1) / 2 + cu * (nu + 1),
    }
}

/// Runs E16 and writes `results/e16_sparse.csv` via the runner.
pub fn run(scale: &Scale) -> Vec<Table> {
    let parity = regret_parity(scale);
    let costs: Vec<SuggestCost> = LARGE_NS.iter().map(|&n| suggest_cost(n)).collect();

    let mut t = Table::new(
        "e16_sparse",
        "Sparse vs exact surrogate: regret parity (small n) and per-suggest kernel-eval cost (large n)",
        ["metric", "n", "exact", "sparse", "sparse_over_exact"],
    );
    t.push_row([
        "regret_vs_oracle".to_owned(),
        format!("{}", scale.budget),
        format!("{:.4}", parity.exact),
        format!("{:.4}", parity.sparse),
        format!("{:.4}", parity.parity()),
    ]);
    for c in &costs {
        t.push_row([
            "suggest_kernel_evals".to_owned(),
            format!("{}", c.n),
            format!("{}", c.exact_evals),
            format!("{}", c.sparse_evals),
            format!("{:.6}", c.sparse_evals as f64 / c.exact_evals as f64),
        ]);
    }
    t.note(format!(
        "regret row: median best/oracle over seeds {:?}, budget {}, surrogate forced \
         sparse at max_points {} (acceptance: parity ≤ {REGRET_PARITY_SLACK})",
        scale.seeds,
        scale.budget,
        ablation_sparse_config().max_points
    ));
    t.note(format!(
        "eval rows: counted sparse fit + {CANDIDATES}-candidate scoring at subset \
         {} vs the exact path's analytic floor n(n+1)/2 + {CANDIDATES}(n+1); \
         acceptance: exact/sparse ≥ {SUGGEST_SPEEDUP_FLOOR} at n = {}",
        SparseConfig::default().max_points,
        LARGE_NS[1]
    ));
    t.note(
        "wall-clock timings and the acceptance booleans for both halves are \
         pinned in BENCH_gp.json by bench-baseline (same helpers)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_workloads::workload::mlp_mnist;

    fn mini_scale() -> Scale {
        Scale {
            seeds: vec![5, 6],
            budget: 16,
            oracle_candidates: 120,
            max_nodes: 16,
            workloads: vec![mlp_mnist()],
        }
    }

    /// Structural: one regret row plus one eval row per probed n, every
    /// cell finite/positive, and the eval rows obey the closed forms.
    #[test]
    fn table_shape_and_cost_floors() {
        let tables = run(&mini_scale());
        let t = &tables[0];
        assert_eq!(t.rows.len(), 1 + LARGE_NS.len());
        assert_eq!(t.rows[0][0], "regret_vs_oracle");
        let parity: f64 = t.rows[0][4].parse().unwrap();
        assert!(parity.is_finite() && parity > 0.0);
        for (row, &n) in t.rows[1..].iter().zip(LARGE_NS.iter()) {
            assert_eq!(row[0], "suggest_kernel_evals");
            assert_eq!(row[1], format!("{n}"));
            let exact: u64 = row[2].parse().unwrap();
            let sparse: u64 = row[3].parse().unwrap();
            assert_eq!(
                exact,
                (n as u64) * (n as u64 + 1) / 2 + (CANDIDATES as u64) * (n as u64 + 1)
            );
            assert!(sparse < exact);
        }
    }

    /// The headline large-n bound: at n = 10k the sparse suggest costs
    /// at least [`SUGGEST_SPEEDUP_FLOOR`]× fewer kernel evals than the
    /// exact path's floor.
    #[test]
    fn suggest_cost_at_10k_clears_the_speedup_floor() {
        let c = suggest_cost(LARGE_NS[1]);
        assert!(
            c.speedup() >= SUGGEST_SPEEDUP_FLOOR,
            "exact/sparse eval ratio {:.1} below the {SUGGEST_SPEEDUP_FLOOR} floor",
            c.speedup()
        );
    }

    /// The acceptance determinism check in miniature: two invocations
    /// produce byte-identical tables despite replicate threading.
    #[test]
    fn byte_identical_across_invocations() {
        let a = run(&mini_scale());
        let b = run(&mini_scale());
        assert_eq!(a[0].rows, b[0].rows);
        assert_eq!(a[0].notes, b[0].notes);
    }
}
