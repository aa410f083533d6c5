//! Cached pairwise-distance workspace for hyperparameter search.
//!
//! The marginal-likelihood optimizer evaluates the kernel Gram matrix
//! hundreds of times over the *same* training inputs while only the ARD
//! hyperparameters change. For stationary ARD kernels the Gram entry is
//! `σ² · g(Σ_d (xᵢ[d]−xⱼ[d])² / ℓ_d²)`, so the per-dimension squared
//! differences can be computed once and recombined per candidate
//! lengthscale vector. That turns each likelihood evaluation's Gram
//! assembly from `O(n² d)` input-touching work (with a division per
//! dimension) into one multiply–add sweep per dimension over a
//! precomputed table.

use mlconf_util::matrix::Matrix;

use crate::kernel::Kernel;

/// Precomputed per-dimension squared differences for a fixed training
/// set, shared by all Gram evaluations during hyperparameter search.
///
/// Storage is dimension-major over the lower triangle: dimension `d`'s
/// squared differences of every pair sit contiguously, in the row-major
/// order of the Gram's lower triangle. A Gram row's pairs then
/// accumulate their `r²` together, one independent, vectorizable sweep
/// per dimension, where a pair-major table would make each `r²` one
/// dependent chain. Each pair still starts at `0.0` and adds its
/// dimensions in ascending order, so every `r²`, and with it the Gram,
/// is bit-identical to the pair-major sum.
///
/// # Examples
///
/// ```
/// use mlconf_gp::kernel::{Kernel, KernelFamily};
/// use mlconf_gp::workspace::DistanceWorkspace;
///
/// let xs = vec![vec![0.1, 0.9], vec![0.4, 0.2], vec![0.8, 0.5]];
/// let ws = DistanceWorkspace::new(&xs);
/// let kernel = Kernel::new(KernelFamily::Matern52, 2);
/// let fast = ws.gram(&kernel);
/// let slow = kernel.gram(&xs);
/// assert!(fast.max_abs_diff(&slow) < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceWorkspace {
    n: usize,
    dims: usize,
    /// `sq[d * pairs + i(i+1)/2 + j] = (xs[i][d] - xs[j][d])²` for
    /// `j ≤ i`, with `pairs = n(n+1)/2`.
    sq: Vec<f64>,
}

impl DistanceWorkspace {
    /// Builds the workspace from training inputs.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or its rows have differing lengths.
    pub fn new(xs: &[Vec<f64>]) -> Self {
        assert!(
            !xs.is_empty(),
            "distance workspace needs at least one point"
        );
        let n = xs.len();
        let dims = xs[0].len();
        for xi in xs {
            assert_eq!(xi.len(), dims, "ragged training inputs");
        }
        let mut sq = Vec::with_capacity(n * (n + 1) / 2 * dims);
        for d in 0..dims {
            for (i, xi) in xs.iter().enumerate() {
                for xj in &xs[..=i] {
                    let diff = xi[d] - xj[d];
                    sq.push(diff * diff);
                }
            }
        }
        DistanceWorkspace { n, dims, sq }
    }

    /// Number of training points covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: construction rejects empty input.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Assembles the Gram matrix `K(X, X)` for `kernel` from the cached
    /// differences.
    ///
    /// Numerically equivalent to [`Kernel::gram`] on the original inputs
    /// (the scaled distance is recombined as `Σ d²/ℓ²` instead of
    /// `Σ (d/ℓ)²`, so entries may differ at the last ulp).
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensionality differs from the workspace's.
    pub fn gram(&self, kernel: &Kernel) -> Matrix {
        let mut k = Matrix::zeros(self.n, self.n);
        self.gram_into(kernel, &mut k);
        k
    }

    /// Allocation-free variant of [`DistanceWorkspace::gram`] writing
    /// into a caller-owned `n × n` matrix. Every entry is overwritten, so
    /// a reused buffer gives the same matrix as a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if the kernel dimensionality differs from the workspace's
    /// or `out` is not `n × n`.
    pub fn gram_into(&self, kernel: &Kernel, out: &mut Matrix) {
        assert_eq!(
            kernel.dims(),
            self.dims,
            "kernel dimensionality does not match workspace"
        );
        assert!(
            out.rows() == self.n && out.cols() == self.n,
            "gram_into output must be {n}x{n}",
            n = self.n
        );
        crate::ops::add_kernel_evals((self.n as u64 * (self.n as u64 + 1)) / 2);
        let pairs = self.n * (self.n + 1) / 2;
        let sv = kernel.signal_variance();
        for i in 0..self.n {
            // Row i's pairs accumulate r² in place: 0.0, then dimension
            // 0, 1, … in order, each dimension one sweep over the row.
            let first = i * (i + 1) / 2;
            let row = &mut out.row_mut(i)[..=i];
            row.fill(0.0);
            for (block, l) in self.sq.chunks_exact(pairs).zip(kernel.lengthscales()) {
                let w = 1.0 / (l * l);
                for (r2, &d2) in row.iter_mut().zip(&block[first..=first + i]) {
                    *r2 += d2 * w;
                }
            }
            for r2 in row.iter_mut() {
                *r2 = sv * kernel.shape(*r2);
            }
            for j in 0..i {
                out[(j, i)] = out[(i, j)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    fn grid(n: usize, dims: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| ((i * (d + 3) + d) % 17) as f64 / 16.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_direct_gram_for_all_families() {
        let xs = grid(12, 3);
        let ws = DistanceWorkspace::new(&xs);
        for fam in KernelFamily::all() {
            let mut kernel = Kernel::new(fam, 3);
            kernel.set_log_params(&[0.4, -0.7, 0.2, -1.3]);
            let fast = ws.gram(&kernel);
            let slow = kernel.gram(&xs);
            assert!(
                fast.max_abs_diff(&slow) < 1e-12,
                "{fam}: {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn recombines_for_changing_lengthscales() {
        // The point of the cache: one workspace, many hyperparameter
        // settings.
        let xs = grid(8, 2);
        let ws = DistanceWorkspace::new(&xs);
        for ls in [0.1, 0.5, 2.0] {
            let kernel = Kernel::with_params(KernelFamily::SquaredExp, 1.7, vec![ls, ls * 2.0]);
            assert!(ws.gram(&kernel).max_abs_diff(&kernel.gram(&xs)) < 1e-12);
        }
    }

    /// The pair-major recombination the dimension-major table replaced:
    /// each pair's `r²` summed over its dimensions in one chain.
    fn pair_major_gram(xs: &[Vec<f64>], kernel: &Kernel) -> Matrix {
        let inv_l2: Vec<f64> = kernel
            .lengthscales()
            .iter()
            .map(|l| 1.0 / (l * l))
            .collect();
        let mut out = Matrix::zeros(xs.len(), xs.len());
        for i in 0..xs.len() {
            for j in 0..=i {
                let mut r2 = 0.0;
                for ((&a, &b), &w) in xs[i].iter().zip(&xs[j]).zip(&inv_l2) {
                    let d = a - b;
                    r2 += d * d * w;
                }
                let v = kernel.signal_variance() * kernel.shape(r2);
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        out
    }

    #[test]
    fn dimension_major_gram_is_bit_identical_to_pair_major() {
        use mlconf_util::rng::Pcg64;
        use rand::Rng;
        let mut rng = Pcg64::seed(5);
        for (n, dims) in [(1, 1), (2, 3), (9, 1), (17, 4), (40, 9), (65, 2)] {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let ws = DistanceWorkspace::new(&xs);
            // A dirty buffer: gram_into must overwrite every entry.
            let mut reused = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64 - 7.5);
            for fam in KernelFamily::all() {
                let mut kernel = Kernel::new(fam, dims);
                let params: Vec<f64> = (0..=dims).map(|_| rng.gen_range(-3.0..2.0)).collect();
                kernel.set_log_params(&params);
                let want = pair_major_gram(&xs, &kernel);
                ws.gram_into(&kernel, &mut reused);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&ws.gram(&kernel)),
                    bits(&want),
                    "{fam} n={n} dims={dims}"
                );
                assert_eq!(bits(&reused), bits(&want), "{fam} n={n} dims={dims} reused");
            }
        }
    }

    #[test]
    fn reports_shape() {
        let ws = DistanceWorkspace::new(&grid(5, 4));
        assert_eq!(ws.len(), 5);
        assert_eq!(ws.dims(), 4);
        assert!(!ws.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match workspace")]
    fn rejects_mismatched_kernel() {
        let ws = DistanceWorkspace::new(&grid(4, 2));
        ws.gram(&Kernel::new(KernelFamily::Matern52, 3));
    }
}
