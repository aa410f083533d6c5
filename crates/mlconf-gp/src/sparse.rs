//! Subset-of-data sparse Gaussian process.
//!
//! Exact GP inference is O(n³) in the number of observations; a
//! long-lived tuning session accumulating thousands of trials cannot
//! afford that per suggest. [`SparseGaussianProcess`] bounds the cost by
//! conditioning on a fixed-size subset of at most `m` points chosen by a
//! deterministic three-part policy:
//!
//! 1. **Incumbent anchors** — the `incumbent_k` best-target points, so
//!    the model stays sharp around the optimum the acquisition exploits;
//! 2. **Recency** — the `recent_k` most recent points, so the model
//!    tracks where the search currently is;
//! 3. **Diversity fill** — greedy farthest-point (k-center) selection
//!    over the remainder, so posterior variance stays calibrated across
//!    the rest of the space.
//!
//! Selection touches every point once per round (O(n·m) distance work,
//! no kernel evaluations), and the exact GP fit on the subset is O(m³)
//! with O(m) kernel evaluations per posterior query — so a whole suggest
//! is O(n·m), not O(n³). The subset fit reuses [`GaussianProcess`]
//! wholesale, inheriting the jitter-escalation path that keeps duplicate
//! and clustered points finite.

use crate::gp::{GaussianProcess, GpError, PredictWorkspace, Prediction};
use crate::kernel::Kernel;
use crate::surrogate::Surrogate;

/// Subset-selection policy for [`SparseGaussianProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseConfig {
    /// Maximum conditioning-set size `m`; with `n ≤ max_points` the
    /// sparse model degenerates to the exact GP on all data.
    pub max_points: usize,
    /// How many best-target points are always kept.
    pub incumbent_k: usize,
    /// How many most-recent points are always kept.
    pub recent_k: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            max_points: 256,
            incumbent_k: 64,
            recent_k: 64,
        }
    }
}

impl SparseConfig {
    /// Deterministically selects the conditioning subset for `(xs, ys)`.
    ///
    /// Returns ascending, duplicate-free indices into `xs`; all of them
    /// when `n ≤ max_points`. Ties (equal targets, equal distances) break
    /// toward the lower index, so the selection is a pure function of the
    /// data — no RNG is consumed.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length or `max_points == 0`.
    pub fn select(&self, xs: &[Vec<f64>], ys: &[f64]) -> Vec<usize> {
        assert_eq!(xs.len(), ys.len(), "selection input length mismatch");
        assert!(self.max_points > 0, "max_points must be positive");
        let n = xs.len();
        if n <= self.max_points {
            return (0..n).collect();
        }

        let mut chosen = vec![false; n];
        let mut n_chosen = 0usize;

        // 1. Incumbent anchors: best targets first, index as tie-break.
        // NaNs (never produced by the tuner's training-data mapping) sort
        // last so they are only kept when everything else ran out.
        let mut by_target: Vec<usize> = (0..n).collect();
        by_target.sort_by(|&a, &b| {
            ys[a]
                .partial_cmp(&ys[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &i in by_target.iter().take(self.incumbent_k.min(self.max_points)) {
            if !chosen[i] {
                chosen[i] = true;
                n_chosen += 1;
            }
        }

        // 2. Recency: the tail of the history.
        for i in (0..n).rev().take(self.recent_k) {
            if n_chosen >= self.max_points {
                break;
            }
            if !chosen[i] {
                chosen[i] = true;
                n_chosen += 1;
            }
        }

        // 3. Greedy farthest-point fill: repeatedly take the unchosen
        // point farthest (squared Euclidean, encoded space) from the
        // current subset. `min_sq` caches each point's distance to the
        // subset so every round is one O(n·d) sweep.
        let mut min_sq = vec![f64::INFINITY; n];
        for i in 0..n {
            if chosen[i] {
                min_sq[i] = 0.0;
                continue;
            }
            for j in 0..n {
                if chosen[j] {
                    min_sq[i] = min_sq[i].min(sq_dist(&xs[i], &xs[j]));
                }
            }
        }
        while n_chosen < self.max_points {
            let mut far = None;
            let mut far_d = -1.0;
            for i in 0..n {
                if !chosen[i] && min_sq[i] > far_d {
                    far = Some(i);
                    far_d = min_sq[i];
                }
            }
            let Some(pick) = far else { break };
            chosen[pick] = true;
            n_chosen += 1;
            min_sq[pick] = 0.0;
            for i in 0..n {
                if !chosen[i] {
                    min_sq[i] = min_sq[i].min(sq_dist(&xs[i], &xs[pick]));
                }
            }
        }

        (0..n).filter(|&i| chosen[i]).collect()
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// An exact GP conditioned on a bounded, deterministically chosen subset
/// of the observations (see the module docs for the policy).
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    gp: GaussianProcess,
    selected: Vec<usize>,
    n_total: usize,
}

impl SparseGaussianProcess {
    /// Selects the conditioning subset and fits an exact GP on it.
    ///
    /// # Errors
    ///
    /// Propagates [`GpError`] from the subset fit (empty data, ragged
    /// inputs, or a Gram matrix the jitter schedule cannot rescue).
    pub fn fit(
        kernel: Kernel,
        xs: &[Vec<f64>],
        ys: &[f64],
        noise_variance: f64,
        config: &SparseConfig,
    ) -> Result<Self, GpError> {
        if xs.len() != ys.len() {
            return Err(GpError::BadTrainingData {
                reason: format!("{} inputs but {} targets", xs.len(), ys.len()),
            });
        }
        let selected = config.select(xs, ys);
        let sub_x: Vec<Vec<f64>> = selected.iter().map(|&i| xs[i].clone()).collect();
        let sub_y: Vec<f64> = selected.iter().map(|&i| ys[i]).collect();
        let gp = GaussianProcess::fit(kernel, sub_x, sub_y, noise_variance)?;
        Ok(SparseGaussianProcess {
            gp,
            selected,
            n_total: xs.len(),
        })
    }

    /// Wraps an already-fitted subset GP (used when hyperparameters were
    /// optimized on the subset and the fitted model should be kept as-is).
    ///
    /// # Panics
    ///
    /// Panics if `gp.n_train() != selected.len()` or `selected` is not
    /// within `0..n_total`.
    pub fn from_fitted(gp: GaussianProcess, selected: Vec<usize>, n_total: usize) -> Self {
        assert_eq!(
            gp.n_train(),
            selected.len(),
            "fitted GP size must match the selection"
        );
        assert!(
            selected.iter().all(|&i| i < n_total),
            "selection index out of range"
        );
        SparseGaussianProcess {
            gp,
            selected,
            n_total,
        }
    }

    /// The exact GP over the selected subset.
    pub fn inner(&self) -> &GaussianProcess {
        &self.gp
    }

    /// Ascending indices (into the full history) of the conditioning set.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Size of the full history the subset was drawn from.
    pub fn n_total(&self) -> usize {
        self.n_total
    }
}

impl Surrogate for SparseGaussianProcess {
    fn predict_with(&self, x_star: &[f64], ws: &mut PredictWorkspace) -> Prediction {
        self.gp.predict_with(x_star, ws)
    }

    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        self.gp.predict_many(xs)
    }

    fn kernel(&self) -> &Kernel {
        self.gp.kernel()
    }

    fn n_train(&self) -> usize {
        self.gp.n_train()
    }

    fn noise_variance(&self) -> f64 {
        self.gp.noise_variance()
    }

    fn log_marginal_likelihood(&self) -> f64 {
        self.gp.log_marginal_likelihood()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;
    use crate::ops;

    const DIMS: usize = 3;

    /// Deterministic pseudo-random training set on the unit cube.
    fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..DIMS).map(|_| next()).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                let a = x[0] - 0.3;
                let b = x[1] - 0.6;
                a * a + b * b + 0.1 * x[2]
            })
            .collect();
        (xs, ys)
    }

    fn small_config() -> SparseConfig {
        SparseConfig {
            max_points: 16,
            incumbent_k: 4,
            recent_k: 4,
        }
    }

    #[test]
    fn selection_is_identity_below_budget() {
        let (xs, ys) = training_data(10);
        let sel = small_config().select(&xs, &ys);
        assert_eq!(sel, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn selection_is_sorted_unique_and_sized() {
        let (xs, ys) = training_data(80);
        let cfg = small_config();
        let sel = cfg.select(&xs, &ys);
        assert_eq!(sel.len(), cfg.max_points);
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        assert!(sel.iter().all(|&i| i < 80));
    }

    #[test]
    fn selection_keeps_incumbent_and_most_recent() {
        let (xs, ys) = training_data(120);
        let cfg = small_config();
        let sel = cfg.select(&xs, &ys);
        let best = (0..ys.len())
            .min_by(|&a, &b| ys[a].partial_cmp(&ys[b]).unwrap())
            .unwrap();
        assert!(sel.contains(&best), "incumbent dropped from the subset");
        assert!(sel.contains(&119), "most recent point dropped");
    }

    #[test]
    fn selection_is_deterministic() {
        let (xs, ys) = training_data(200);
        let cfg = SparseConfig::default();
        assert_eq!(cfg.select(&xs, &ys), cfg.select(&xs, &ys));
    }

    #[test]
    fn diversity_fill_spreads_out() {
        // All mass clustered at one corner except a handful of far
        // points: farthest-point fill must pick up the far points.
        let mut xs: Vec<Vec<f64>> = (0..60).map(|i| vec![0.01 * (i % 5) as f64; DIMS]).collect();
        xs.push(vec![0.95; DIMS]);
        let ys: Vec<f64> = (0..xs.len()).map(|i| i as f64).collect();
        let cfg = SparseConfig {
            max_points: 8,
            incumbent_k: 2,
            recent_k: 2,
        };
        let sel = cfg.select(&xs, &ys);
        assert!(
            sel.contains(&60),
            "farthest point must be selected by the diversity fill: {sel:?}"
        );
    }

    #[test]
    fn below_budget_fit_is_bit_identical_to_exact() {
        let (xs, ys) = training_data(12);
        let kernel = Kernel::new(KernelFamily::Matern52, DIMS);
        let sparse =
            SparseGaussianProcess::fit(kernel.clone(), &xs, &ys, 1e-4, &small_config()).unwrap();
        let exact = GaussianProcess::fit(kernel, xs.clone(), ys, 1e-4).unwrap();
        assert_eq!(
            sparse.log_marginal_likelihood().to_bits(),
            exact.log_marginal_likelihood().to_bits()
        );
        for x in &xs {
            let a = Surrogate::predict(&sparse, x);
            let b = GaussianProcess::predict(&exact, x);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
    }

    #[test]
    fn predictions_finite_on_duplicate_and_clustered_points() {
        // Duplicates both inside and outside the subset: the inherited
        // jitter escalation must keep everything finite.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        for i in 0..50 {
            let base = vec![0.5 + 1e-12 * (i % 3) as f64; DIMS];
            xs.push(base);
        }
        let ys: Vec<f64> = (0..50).map(|i| 1.0 + 0.01 * (i % 7) as f64).collect();
        let sparse = SparseGaussianProcess::fit(
            Kernel::new(KernelFamily::SquaredExp, DIMS),
            &xs,
            &ys,
            1e-6,
            &small_config(),
        )
        .expect("jitter escalation rescues duplicate-heavy subsets");
        for x in [&vec![0.5; DIMS], &vec![0.9; DIMS]] {
            let p = Surrogate::predict(&sparse, x);
            assert!(p.mean.is_finite());
            assert!(p.variance.is_finite() && p.variance >= 0.0);
        }
    }

    #[test]
    fn exposes_selection_metadata() {
        let (xs, ys) = training_data(40);
        let cfg = small_config();
        let sparse = SparseGaussianProcess::fit(
            Kernel::new(KernelFamily::Matern52, DIMS),
            &xs,
            &ys,
            1e-4,
            &cfg,
        )
        .unwrap();
        assert_eq!(sparse.n_total(), 40);
        assert_eq!(Surrogate::n_train(&sparse), cfg.max_points);
        assert_eq!(sparse.selected().len(), cfg.max_points);
        assert_eq!(sparse.inner().n_train(), cfg.max_points);
    }

    /// The per-suggest latency bound, in kernel evaluations rather than
    /// wall clock so CI stays deterministic: at n = 10k a sparse
    /// fit-plus-candidate-scoring pass must cost O(n·m) kernel evals —
    /// nowhere near the O(n²)-per-query (and O(n³) refit) exact path.
    #[test]
    fn sparse_suggest_cost_at_10k_is_linear_in_n() {
        let n = 10_000usize;
        let candidates = 64usize;
        let cfg = SparseConfig::default();
        let m = cfg.max_points as u64;
        let (xs, ys) = training_data(n);

        ops::reset_kernel_evals();
        let sparse = SparseGaussianProcess::fit(
            Kernel::new(KernelFamily::Matern52, DIMS),
            &xs,
            &ys,
            1e-4,
            &cfg,
        )
        .unwrap();
        let mut ws = PredictWorkspace::default();
        for i in 0..candidates {
            let q = vec![i as f64 / candidates as f64; DIMS];
            let p = sparse.predict_with(&q, &mut ws);
            assert!(p.mean.is_finite());
        }
        let evals = ops::kernel_evals();

        // Expected: subset Gram m(m+1)/2, plus (m cross + 1 diagonal)
        // per candidate. Selection uses plain distances — zero kernel
        // evals — so the total is far below even one exact Gram row per
        // history point.
        let expected = m * (m + 1) / 2 + candidates as u64 * (m + 1);
        assert_eq!(evals, expected, "unexpected kernel-eval count");
        assert!(
            evals <= (n as u64) * m,
            "sparse suggest used {evals} kernel evals, above the O(n·m) budget {}",
            (n as u64) * m
        );
        // And the exact path's cost floor for comparison: one Gram alone
        // is n(n+1)/2 ≈ 50M evals — two orders of magnitude above.
        assert!(evals * 100 <= (n as u64) * (n as u64 + 1) / 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kernel::KernelFamily;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Heavily duplicated / clustered training sets — the worst case
        /// for a subset fit's Gram conditioning — must still yield
        /// finite, nonnegative-variance predictions everywhere.
        #[test]
        fn predictions_stay_finite_on_clustered_data(
            centers in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 3), 1..4),
            copies in 8usize..25,
            jitter in 0.0f64..1e-10,
            query in proptest::collection::vec(0.0f64..=1.0, 3),
        ) {
            let mut xs: Vec<Vec<f64>> = Vec::new();
            for i in 0..copies {
                for c in &centers {
                    xs.push(
                        c.iter()
                            .map(|&v| (v + jitter * (i % 3) as f64).min(1.0))
                            .collect(),
                    );
                }
            }
            let ys: Vec<f64> = (0..xs.len()).map(|i| 1.0 + 0.1 * (i % 5) as f64).collect();
            let cfg = SparseConfig { max_points: 12, incumbent_k: 3, recent_k: 3 };
            let sparse = SparseGaussianProcess::fit(
                Kernel::new(KernelFamily::SquaredExp, 3), &xs, &ys, 1e-6, &cfg)
                .expect("jitter escalation rescues duplicate-heavy subsets");
            let p = Surrogate::predict(&sparse, &query);
            prop_assert!(p.mean.is_finite());
            prop_assert!(p.variance.is_finite() && p.variance >= 0.0);
        }

        /// With the whole training set under budget, the sparse model IS
        /// the exact GP — likelihood and posterior agree to the bit for
        /// arbitrary data and queries.
        #[test]
        fn below_budget_matches_exact_to_the_bit(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 3), 2..16),
            query in proptest::collection::vec(0.0f64..=1.0, 3),
        ) {
            let ys: Vec<f64> = pts
                .iter()
                .map(|p| p[0] - 0.5 * p[1] + p[2] * p[2])
                .collect();
            let kernel = Kernel::new(KernelFamily::Matern52, 3);
            let cfg = SparseConfig { max_points: 16, incumbent_k: 4, recent_k: 4 };
            let sparse =
                SparseGaussianProcess::fit(kernel.clone(), &pts, &ys, 1e-6, &cfg).unwrap();
            let exact = GaussianProcess::fit(kernel, pts.clone(), ys, 1e-6).unwrap();
            prop_assert_eq!(
                Surrogate::log_marginal_likelihood(&sparse).to_bits(),
                exact.log_marginal_likelihood().to_bits()
            );
            let a = Surrogate::predict(&sparse, &query);
            let b = exact.predict(&query);
            prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            prop_assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        }
    }
}
