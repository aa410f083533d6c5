//! Gaussian-process regression with exact inference.
//!
//! The GP is the surrogate model of the Bayesian-optimization tuner: it is
//! fit to `(encoded configuration, observed objective)` pairs and queried
//! for a posterior mean and variance at candidate configurations. Training
//! targets are standardized internally so kernel hyperpriors are scale-
//! free.

use mlconf_util::linalg::{Cholesky, LinalgError};
use mlconf_util::matrix::{dot, Matrix};

use crate::kernel::Kernel;

/// Error returned by GP construction or queries.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Training inputs were empty or inconsistent.
    BadTrainingData {
        /// Human-readable reason.
        reason: String,
    },
    /// The kernel matrix could not be factored even with jitter.
    Factorization(LinalgError),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::BadTrainingData { reason } => write!(f, "bad training data: {reason}"),
            GpError::Factorization(e) => write!(f, "kernel factorization failed: {e}"),
        }
    }
}

impl std::error::Error for GpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpError::Factorization(e) => Some(e),
            _ => None,
        }
    }
}

/// Posterior prediction at a single point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean, in the original (un-standardized) target units.
    pub mean: f64,
    /// Posterior variance (≥ 0), in squared original units. Includes the
    /// model's observation-noise variance.
    pub variance: f64,
}

impl Prediction {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted Gaussian process.
///
/// # Examples
///
/// ```
/// use mlconf_gp::kernel::{Kernel, KernelFamily};
/// use mlconf_gp::gp::GaussianProcess;
///
/// // One-dimensional toy data: y = sin(4x).
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin()).collect();
/// let kernel = Kernel::new(KernelFamily::Matern52, 1);
/// let gp = GaussianProcess::fit(kernel, xs.clone(), ys.clone(), 1e-6)?;
///
/// // Interpolates the training points closely.
/// let p = gp.predict(&xs[3]);
/// assert!((p.mean - ys[3]).abs() < 0.05);
/// # Ok::<(), mlconf_gp::gp::GpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Kernel,
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    noise_variance: f64,
    /// Diagonal jitter the factorization needed beyond the noise term;
    /// appended rows in [`GaussianProcess::extend`] must add the same
    /// amount to stay consistent with the stored factor.
    jitter: f64,
    chol: Cholesky,
    alpha: Vec<f64>,
    log_marginal_likelihood: f64,
}

/// The smallest batch [`GaussianProcess::predict_many`] solves as one
/// matrix: below it, the batched solve's per-row overhead costs more than
/// its independent updates save (measured at 35–160 training points).
const MIN_BATCH: usize = 4;

/// Reusable scratch buffers for posterior queries, so batch prediction
/// performs no per-point allocation.
#[derive(Debug, Clone, Default)]
pub struct PredictWorkspace {
    k_star: Vec<f64>,
    v: Vec<f64>,
}

impl GaussianProcess {
    fn validate(
        kernel: &Kernel,
        x: &[Vec<f64>],
        y: &[f64],
        noise_variance: f64,
    ) -> Result<(), GpError> {
        if x.is_empty() {
            return Err(GpError::BadTrainingData {
                reason: "no training points".into(),
            });
        }
        if x.len() != y.len() {
            return Err(GpError::BadTrainingData {
                reason: format!("{} inputs but {} targets", x.len(), y.len()),
            });
        }
        for (i, row) in x.iter().enumerate() {
            if row.len() != kernel.dims() {
                return Err(GpError::BadTrainingData {
                    reason: format!(
                        "input {i} has {} dims, kernel expects {}",
                        row.len(),
                        kernel.dims()
                    ),
                });
            }
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadTrainingData {
                reason: "non-finite target".into(),
            });
        }
        if !(noise_variance >= 0.0 && noise_variance.is_finite()) {
            return Err(GpError::BadTrainingData {
                reason: format!("noise variance {noise_variance}"),
            });
        }
        Ok(())
    }

    /// Fits a GP to training data with fixed kernel hyperparameters.
    ///
    /// `noise_variance` is the observation noise σₙ² *in standardized
    /// units* (the targets are z-scored internally); `1e-4`–`1e-2` is
    /// typical for noisy systems measurements.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingData`] for empty/ragged inputs or
    /// non-finite targets, and [`GpError::Factorization`] if the kernel
    /// matrix cannot be factored.
    pub fn fit(
        kernel: Kernel,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        noise_variance: f64,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &x, &y, noise_variance)?;
        let gram = kernel.gram(&x);
        Self::fit_with_gram(kernel, x, y, noise_variance, gram)
    }

    /// Fits a GP from a precomputed (noise-free) kernel Gram matrix.
    ///
    /// `gram` must equal `kernel.gram(&x)` up to floating-point
    /// recombination; the hyperparameter optimizer uses this with
    /// [`crate::workspace::DistanceWorkspace`] so each likelihood
    /// evaluation reuses cached pairwise distances instead of re-touching
    /// every input pair.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GaussianProcess::fit`], plus
    /// [`GpError::BadTrainingData`] when `gram` is not `n × n`.
    pub fn fit_with_gram(
        kernel: Kernel,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        noise_variance: f64,
        gram: Matrix,
    ) -> Result<Self, GpError> {
        Self::validate(&kernel, &x, &y, noise_variance)?;
        if gram.rows() != x.len() || gram.cols() != x.len() {
            return Err(GpError::BadTrainingData {
                reason: format!(
                    "gram is {}x{}, expected {}x{}",
                    gram.rows(),
                    gram.cols(),
                    x.len(),
                    x.len()
                ),
            });
        }

        // Standardize targets.
        let (y_mean, y_std, y_z) = standardize(&y);

        let mut k = gram;
        k.add_diagonal(noise_variance.max(1e-10));
        let (chol, jitter) =
            Cholesky::factor_with_jitter(&k, 0.0, 12).map_err(GpError::Factorization)?;
        let alpha = chol.solve_vec(&y_z);
        let lml = lml_from_parts(&y_z, &alpha, &chol);

        Ok(GaussianProcess {
            kernel,
            x,
            y,
            y_mean,
            y_std,
            noise_variance: noise_variance.max(1e-10),
            jitter,
            chol,
            alpha,
            log_marginal_likelihood: lml,
        })
    }

    /// Appends observations to a fitted GP without refactorizing.
    ///
    /// The Cholesky factor is extended in O(n²) per row, into one
    /// allocation sized for every appended row ([`Cholesky::append`]);
    /// target standardization, `alpha`, and the log marginal
    /// likelihood are recomputed over the full data exactly as
    /// [`GaussianProcess::fit`] would, so with unchanged hyperparameters
    /// the result matches a fresh fit (bit-identically when no jitter
    /// is involved). Falls back to a full refit when an
    /// appended point makes the factor update numerically non-positive
    /// (e.g. a near-duplicate configuration).
    ///
    /// # Errors
    ///
    /// Returns [`GpError::BadTrainingData`] for ragged or non-finite new
    /// observations, and [`GpError::Factorization`] if the fallback refit
    /// itself fails.
    pub fn extend(&self, x_new: &[Vec<f64>], y_new: &[f64]) -> Result<Self, GpError> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadTrainingData {
                reason: format!("{} new inputs but {} new targets", x_new.len(), y_new.len()),
            });
        }
        for (i, row) in x_new.iter().enumerate() {
            if row.len() != self.kernel.dims() {
                return Err(GpError::BadTrainingData {
                    reason: format!(
                        "new input {i} has {} dims, kernel expects {}",
                        row.len(),
                        self.kernel.dims()
                    ),
                });
            }
        }
        if y_new.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadTrainingData {
                reason: "non-finite target".into(),
            });
        }
        if x_new.is_empty() {
            return Ok(self.clone());
        }

        let appended = self.chol.append(x_new.len(), |i, col| {
            // Covariances against every point already in the factor,
            // including earlier appends from this same call.
            let xi = &x_new[i];
            for (c, xp) in col.iter_mut().zip(self.x.iter().chain(&x_new[..i])) {
                *c = self.kernel.eval(xp, xi);
            }
            self.kernel.eval(xi, xi) + self.noise_variance + self.jitter
        });
        let mut x = Vec::with_capacity(self.x.len() + x_new.len());
        x.extend_from_slice(&self.x);
        x.extend_from_slice(x_new);
        let mut y = Vec::with_capacity(x.len());
        y.extend_from_slice(&self.y);
        y.extend_from_slice(y_new);
        let Ok(chol) = appended else {
            return GaussianProcess::fit(self.kernel.clone(), x, y, self.noise_variance);
        };

        // Restandardize and solve against the extended factor, mirroring
        // `fit` step for step.
        let (y_mean, y_std, y_z) = standardize(&y);
        let alpha = chol.solve_vec(&y_z);
        let lml = lml_from_parts(&y_z, &alpha, &chol);

        Ok(GaussianProcess {
            kernel: self.kernel.clone(),
            x,
            y,
            y_mean,
            y_std,
            noise_variance: self.noise_variance,
            jitter: self.jitter,
            chol,
            alpha,
            log_marginal_likelihood: lml,
        })
    }

    /// The kernel in use (with its fitted hyperparameters).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.x.len()
    }

    /// The training inputs.
    pub fn x_train(&self) -> &[Vec<f64>] {
        &self.x
    }

    /// The training targets (original units).
    pub fn y_train(&self) -> &[f64] {
        &self.y
    }

    /// The observation-noise variance (standardized units).
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Log marginal likelihood of the training targets (standardized).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.log_marginal_likelihood
    }

    /// Posterior prediction at `x_star` (original target units).
    ///
    /// # Panics
    ///
    /// Panics if `x_star` has the wrong dimensionality.
    pub fn predict(&self, x_star: &[f64]) -> Prediction {
        self.predict_with(x_star, &mut PredictWorkspace::default())
    }

    /// Posterior prediction using caller-owned scratch buffers; identical
    /// results to [`GaussianProcess::predict`] with zero allocation once
    /// the workspace has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `x_star` has the wrong dimensionality.
    pub fn predict_with(&self, x_star: &[f64], ws: &mut PredictWorkspace) -> Prediction {
        let n = self.x.len();
        ws.k_star.resize(n, 0.0);
        ws.v.resize(n, 0.0);
        self.kernel.cross_into(&self.x, x_star, &mut ws.k_star);
        self.chol.solve_lower_vec_into(&ws.k_star, &mut ws.v);
        self.posterior(x_star, &ws.k_star, &ws.v)
    }

    /// The posterior at `x_star` from its cross-covariances
    /// `k_star = k(X, x*)` and `v = L⁻¹ k_star`.
    fn posterior(&self, x_star: &[f64], k_star: &[f64], v: &[f64]) -> Prediction {
        let mean_z = dot(k_star, &self.alpha);
        let var_z = (self.kernel.eval(x_star, x_star) + self.noise_variance - dot(v, v)).max(0.0);
        Prediction {
            mean: self.y_mean + self.y_std * mean_z,
            variance: var_z * self.y_std * self.y_std,
        }
    }

    /// Batch prediction, bit-identical to [`GaussianProcess::predict_with`]
    /// at every query and counting the same kernel evaluations.
    ///
    /// The whole batch's cross-covariances go through one batched forward
    /// solve ([`Cholesky::solve_lower_mat`]): each factor row updates
    /// every query at once, where one query's solve is a single
    /// dependent chain. Batches of fewer than four queries take the
    /// per-point path, which is faster there.
    pub fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        if xs.len() < MIN_BATCH {
            let mut ws = PredictWorkspace::default();
            return xs.iter().map(|x| self.predict_with(x, &mut ws)).collect();
        }
        // Row j holds query j's cross-covariances, as in `predict_with`;
        // the solve wants one column per query.
        let mut k_rows = Matrix::zeros(xs.len(), self.x.len());
        for (j, x_star) in xs.iter().enumerate() {
            self.kernel.cross_into(&self.x, x_star, k_rows.row_mut(j));
        }
        let v_rows = self.chol.solve_lower_mat(&k_rows.transpose()).transpose();
        xs.iter()
            .enumerate()
            .map(|(j, x_star)| self.posterior(x_star, k_rows.row(j), v_rows.row(j)))
            .collect()
    }

    /// Leave-one-out style sanity metric: RMSE of posterior means at the
    /// training inputs (not a true LOO, but a cheap overfit indicator used
    /// by tests and diagnostics).
    pub fn train_rmse(&self, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.x.len(), "target length mismatch");
        let preds: Vec<f64> = self.predict_many(&self.x).iter().map(|p| p.mean).collect();
        mlconf_util::stats::rmse(&preds, y)
    }
}

/// Z-scores `y`, returning `(mean, std, standardized)`. A degenerate
/// spread falls back to unit scale so constant targets stay finite.
pub(crate) fn standardize(y: &[f64]) -> (f64, f64, Vec<f64>) {
    let n = y.len() as f64;
    let y_mean = y.iter().sum::<f64>() / n;
    let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n;
    let y_std = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
    let y_z: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
    (y_mean, y_std, y_z)
}

/// LML in standardized space: `-0.5 yᵀα − 0.5 log|K| − n/2 log 2π`.
pub(crate) fn lml_from_parts(y_z: &[f64], alpha: &[f64], chol: &Cholesky) -> f64 {
    -0.5 * dot(y_z, alpha)
        - 0.5 * chol.log_det()
        - 0.5 * y_z.len() as f64 * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    fn toy_1d(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin() + 2.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = toy_1d(12);
        let gp = GaussianProcess::fit(
            Kernel::new(KernelFamily::SquaredExp, 1),
            xs.clone(),
            ys.clone(),
            1e-8,
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 1e-3, "pred {} want {y}", p.mean);
        }
    }

    #[test]
    fn variance_small_at_data_large_far_away() {
        let (xs, ys) = toy_1d(8);
        let gp = GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs.clone(), ys, 1e-6)
            .unwrap();
        let at_data = gp.predict(&xs[0]).variance;
        // Far outside the data (unit cube edge extended).
        let far = gp.predict(&[5.0]).variance;
        assert!(at_data < far, "{at_data} !< {far}");
    }

    #[test]
    fn variance_nonnegative_everywhere() {
        let (xs, ys) = toy_1d(10);
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::Matern32, 1), xs, ys, 1e-6).unwrap();
        for i in 0..100 {
            let x = [i as f64 / 99.0];
            assert!(gp.predict(&x).variance >= 0.0);
        }
    }

    #[test]
    fn mean_reverts_to_prior_far_from_data() {
        let (xs, ys) = toy_1d(8);
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::SquaredExp, 1), xs, ys, 1e-6).unwrap();
        let p = gp.predict(&[100.0]);
        assert!(
            (p.mean - y_mean).abs() < 1e-6,
            "far-field mean {} vs prior {y_mean}",
            p.mean
        );
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let ys = vec![3.0; 5];
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs, ys, 1e-6).unwrap();
        let p = gp.predict(&[0.35]);
        assert!((p.mean - 3.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_inputs() {
        let k = Kernel::new(KernelFamily::SquaredExp, 1);
        assert!(matches!(
            GaussianProcess::fit(k.clone(), vec![], vec![], 1e-6),
            Err(GpError::BadTrainingData { .. })
        ));
        assert!(GaussianProcess::fit(k.clone(), vec![vec![0.0]], vec![1.0, 2.0], 1e-6).is_err());
        assert!(GaussianProcess::fit(k.clone(), vec![vec![0.0, 1.0]], vec![1.0], 1e-6).is_err());
        assert!(GaussianProcess::fit(k.clone(), vec![vec![0.0]], vec![f64::NAN], 1e-6).is_err());
        assert!(GaussianProcess::fit(k, vec![vec![0.0]], vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn duplicate_points_need_jitter_and_succeed() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5]];
        let ys = vec![1.0, 1.1, 0.9];
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::SquaredExp, 1), xs, ys, 1e-6).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn higher_noise_smooths_predictions() {
        let (xs, mut ys) = toy_1d(20);
        // Add a spike.
        ys[10] += 5.0;
        let tight = GaussianProcess::fit(
            Kernel::new(KernelFamily::SquaredExp, 1),
            xs.clone(),
            ys.clone(),
            1e-8,
        )
        .unwrap();
        let smooth = GaussianProcess::fit(
            Kernel::new(KernelFamily::SquaredExp, 1),
            xs.clone(),
            ys,
            0.5,
        )
        .unwrap();
        let x_spike = &xs[10];
        // The noisy model should not chase the spike as hard.
        assert!(smooth.predict(x_spike).mean < tight.predict(x_spike).mean);
    }

    #[test]
    fn lml_prefers_correct_lengthscale() {
        // Data drawn from a smooth function: a reasonable lengthscale
        // should out-score a badly mismatched tiny one.
        let (xs, ys) = toy_1d(15);
        let good = GaussianProcess::fit(
            Kernel::with_params(KernelFamily::SquaredExp, 1.0, vec![0.3]),
            xs.clone(),
            ys.clone(),
            1e-4,
        )
        .unwrap();
        let bad = GaussianProcess::fit(
            Kernel::with_params(KernelFamily::SquaredExp, 1.0, vec![0.001]),
            xs,
            ys,
            1e-4,
        )
        .unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn extend_matches_fresh_fit_exactly() {
        let (xs, ys) = toy_1d(14);
        let kernel = Kernel::new(KernelFamily::Matern52, 1);
        let base = GaussianProcess::fit(kernel.clone(), xs[..10].to_vec(), ys[..10].to_vec(), 1e-4)
            .unwrap();
        let extended = base.extend(&xs[10..], &ys[10..]).unwrap();
        let fresh = GaussianProcess::fit(kernel, xs.clone(), ys.clone(), 1e-4).unwrap();

        assert_eq!(extended.n_train(), 14);
        assert_eq!(
            extended.log_marginal_likelihood(),
            fresh.log_marginal_likelihood(),
            "LML must match bit-for-bit on the jitter-free path"
        );
        for x in &xs {
            let a = extended.predict(x);
            let b = fresh.predict(x);
            assert_eq!(a.mean, b.mean);
            assert_eq!(a.variance, b.variance);
        }
    }

    #[test]
    fn extend_with_empty_batch_is_identity() {
        let (xs, ys) = toy_1d(6);
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::SquaredExp, 1), xs, ys, 1e-4).unwrap();
        let same = gp.extend(&[], &[]).unwrap();
        assert_eq!(same.n_train(), gp.n_train());
        assert_eq!(same.log_marginal_likelihood(), gp.log_marginal_likelihood());
    }

    #[test]
    fn extend_validates_new_observations() {
        let (xs, ys) = toy_1d(6);
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::SquaredExp, 1), xs, ys, 1e-4).unwrap();
        assert!(gp.extend(&[vec![0.5]], &[]).is_err());
        assert!(gp.extend(&[vec![0.5, 0.5]], &[1.0]).is_err());
        assert!(gp.extend(&[vec![0.5]], &[f64::NAN]).is_err());
    }

    #[test]
    fn extend_falls_back_on_duplicate_points() {
        // Appending an exact duplicate with tiny noise makes the
        // incremental pivot non-positive; extend must transparently refit
        // (which rescues itself with jitter) instead of failing.
        let xs = vec![vec![0.2], vec![0.8]];
        let ys = vec![1.0, 2.0];
        let gp = GaussianProcess::fit(
            Kernel::new(KernelFamily::SquaredExp, 1),
            xs.clone(),
            ys,
            1e-12,
        )
        .unwrap();
        let extended = gp.extend(&[vec![0.2], vec![0.2]], &[1.1, 0.9]).unwrap();
        assert_eq!(extended.n_train(), 4);
        assert!(extended.predict(&[0.2]).variance >= 0.0);
    }

    #[test]
    fn fit_with_gram_matches_fit() {
        let (xs, ys) = toy_1d(9);
        let kernel = Kernel::new(KernelFamily::Matern32, 1);
        let gram = kernel.gram(&xs);
        let a = GaussianProcess::fit(kernel.clone(), xs.clone(), ys.clone(), 1e-4).unwrap();
        let b = GaussianProcess::fit_with_gram(kernel, xs, ys, 1e-4, gram).unwrap();
        assert_eq!(a.log_marginal_likelihood(), b.log_marginal_likelihood());
    }

    #[test]
    fn fit_with_gram_rejects_wrong_shape() {
        let (xs, ys) = toy_1d(5);
        let kernel = Kernel::new(KernelFamily::SquaredExp, 1);
        let gram = mlconf_util::matrix::Matrix::zeros(3, 3);
        assert!(matches!(
            GaussianProcess::fit_with_gram(kernel, xs, ys, 1e-4, gram),
            Err(GpError::BadTrainingData { .. })
        ));
    }

    #[test]
    fn predict_many_matches_predict_exactly() {
        let (xs, ys) = toy_1d(11);
        let gp =
            GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs, ys, 1e-4).unwrap();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 13.0 - 0.5]).collect();
        let batch = gp.predict_many(&queries);
        for (q, p) in queries.iter().zip(&batch) {
            let single = gp.predict(q);
            assert_eq!(p.mean, single.mean);
            assert_eq!(p.variance, single.variance);
        }
    }

    #[test]
    fn multidimensional_fit() {
        let xs: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 / 4.0, (i / 5) as f64 / 4.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + (3.0 * x[1]).cos()).collect();
        let gp = GaussianProcess::fit(
            Kernel::new(KernelFamily::Matern52, 2),
            xs.clone(),
            ys.clone(),
            1e-6,
        )
        .unwrap();
        assert!(gp.train_rmse(&ys) < 0.01);
        // Prediction between grid points is sensible.
        let p = gp.predict(&[0.5, 0.5]);
        let want = 0.5 * 2.0 + (1.5f64).cos();
        assert!((p.mean - want).abs() < 0.1, "pred {} want {want}", p.mean);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kernel::KernelFamily;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn posterior_variance_nonnegative(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 2..12),
            query in proptest::collection::vec(0.0f64..=1.0, 2),
        ) {
            let ys: Vec<f64> = pts.iter().map(|p| p[0] - p[1]).collect();
            let gp = GaussianProcess::fit(
                Kernel::new(KernelFamily::Matern52, 2), pts, ys, 1e-6).unwrap();
            prop_assert!(gp.predict(&query).variance >= 0.0);
        }

        #[test]
        fn variance_at_training_point_below_prior(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 2..10),
        ) {
            let ys: Vec<f64> = pts.iter().map(|p| p[0] * 2.0 + p[1]).collect();
            let gp = GaussianProcess::fit(
                Kernel::new(KernelFamily::SquaredExp, 2), pts.clone(), ys, 1e-6).unwrap();
            // Prior variance (standardized) maps to y_std² + noise; the
            // posterior at an observed point must be no larger.
            let prior_like = gp.predict(&[50.0, 50.0]).variance;
            let at_data = gp.predict(&pts[0]).variance;
            prop_assert!(at_data <= prior_like + 1e-9);
        }

        #[test]
        fn extend_posterior_matches_fit(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 4..16),
            split in 2usize..14,
            scale in 0.5f64..50.0,
            shift in -20.0f64..20.0,
            query in proptest::collection::vec(0.0f64..=1.0, 2),
        ) {
            // Incremental extension must reproduce a fresh fit to ≤ 1e-8
            // across arbitrary observation histories, including the target
            // standardization path (targets are shifted/scaled so y_mean
            // and y_std change when the new points arrive).
            let split = split.min(pts.len() - 1);
            let ys: Vec<f64> = pts
                .iter()
                .map(|p| shift + scale * ((4.0 * p[0]).sin() - p[1]))
                .collect();
            let kernel = Kernel::new(KernelFamily::Matern52, 2);
            let base = GaussianProcess::fit(
                kernel.clone(), pts[..split].to_vec(), ys[..split].to_vec(), 1e-4).unwrap();
            let extended = base.extend(&pts[split..], &ys[split..]).unwrap();
            let fresh = GaussianProcess::fit(kernel, pts.clone(), ys, 1e-4).unwrap();

            prop_assert!(
                (extended.log_marginal_likelihood() - fresh.log_marginal_likelihood()).abs()
                    <= 1e-8);
            let a = extended.predict(&query);
            let b = fresh.predict(&query);
            prop_assert!((a.mean - b.mean).abs() <= 1e-8, "means {} vs {}", a.mean, b.mean);
            prop_assert!((a.variance - b.variance).abs() <= 1e-8);
        }

        #[test]
        fn predict_many_is_bit_identical_to_predict_with(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 3), 1..40),
            queries in proptest::collection::vec(
                proptest::collection::vec(-0.2f64..=1.2, 3), 65),
            log_params in proptest::collection::vec(-2.0f64..1.0, 4),
        ) {
            let ys: Vec<f64> = pts.iter().map(|p| (4.0 * p[0]).sin() + p[1] * p[2]).collect();
            let mut kernel = Kernel::new(KernelFamily::Matern52, 3);
            kernel.set_log_params(&log_params);
            let gp = GaussianProcess::fit(kernel, pts, ys, 1e-4).unwrap();
            for batch in [1usize, 7, 64, 65] {
                let qs = &queries[..batch];
                crate::ops::reset_kernel_evals();
                let many = gp.predict_many(qs);
                let batched_evals = crate::ops::kernel_evals();
                crate::ops::reset_kernel_evals();
                let mut ws = PredictWorkspace::default();
                let single: Vec<Prediction> = qs.iter().map(|q| gp.predict_with(q, &mut ws)).collect();
                prop_assert_eq!(batched_evals, crate::ops::kernel_evals(), "batch {}", batch);
                for (a, b) in many.iter().zip(&single) {
                    prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "batch {}", batch);
                    prop_assert_eq!(a.variance.to_bits(), b.variance.to_bits(), "batch {}", batch);
                }
                prop_assert_eq!(many.len(), batch);
            }
        }

        #[test]
        fn jitter_escalation_factors_degenerate_gram_matrices(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 1..6),
            dups in 1usize..4,
        ) {
            // Exact duplicates make the Gram matrix singular: the plain
            // factorization must fail cleanly and the jitter schedule
            // must rescue it — never a panic, never a NaN in the factor.
            let mut all = pts.clone();
            for d in 0..dups {
                all.push(pts[d % pts.len()].clone());
            }
            let kernel = Kernel::new(KernelFamily::SquaredExp, 2);
            let gram = kernel.gram(&all);
            let (chol, jitter) = Cholesky::factor_with_jitter(&gram, 0.0, 12)
                .expect("jitter escalation rescues a singular PSD Gram");
            prop_assert!(jitter.is_finite());
            let rhs = vec![1.0; all.len()];
            prop_assert!(chol.solve_vec(&rhs).iter().all(|v| v.is_finite()));
        }

        #[test]
        fn extend_with_duplicate_and_clustered_points_stays_finite(
            pts in proptest::collection::vec(
                proptest::collection::vec(0.0f64..=1.0, 2), 3..10),
            dup_index in 0usize..10,
            nudge in 0.0f64..1e-9,
            query in proptest::collection::vec(0.0f64..=1.0, 2),
        ) {
            // Appending an (almost-)exact copy of a training point drives
            // the incremental factor update toward a non-positive pivot;
            // `extend` must fall back to a jittered refit and keep every
            // prediction finite rather than panic or poison the factor.
            let ys: Vec<f64> = pts.iter().map(|p| (5.0 * p[0]).sin() + p[1]).collect();
            let gp = GaussianProcess::fit(
                Kernel::new(KernelFamily::Matern52, 2), pts.clone(), ys.clone(), 1e-6).unwrap();
            let src = &pts[dup_index % pts.len()];
            let clustered = vec![
                src.clone(),
                vec![src[0] + nudge, src[1]],
                vec![src[0], src[1] + nudge],
            ];
            let y_new = vec![ys[dup_index % pts.len()]; 3];
            let extended = gp.extend(&clustered, &y_new)
                .expect("refit fallback absorbs duplicate points");
            let p = extended.predict(&query);
            prop_assert!(p.mean.is_finite());
            prop_assert!(p.variance.is_finite());
            prop_assert!(p.variance >= 0.0);
            prop_assert!(extended.log_marginal_likelihood().is_finite());
        }
    }
}
