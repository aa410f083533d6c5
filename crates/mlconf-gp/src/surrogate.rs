//! The surrogate-model abstraction.
//!
//! Acquisition maximization only ever needs a posterior mean and
//! variance at query points; it does not care whether those come from an
//! exact GP or a bounded-cost approximation. [`Surrogate`] captures that
//! contract so [`crate::acquisition`] can score candidates against any
//! implementation — today the exact [`GaussianProcess`] and the
//! subset-of-data [`crate::sparse::SparseGaussianProcess`] — and tuners
//! can switch models without touching their suggest loop.

use crate::gp::{GaussianProcess, PredictWorkspace, Prediction};
use crate::kernel::Kernel;

/// A fitted surrogate model: posterior queries plus the metadata the
/// Bayesian-optimization loop persists across refits.
pub trait Surrogate {
    /// Posterior prediction at `x_star` using caller-owned scratch
    /// buffers, so batch scoring performs no per-point allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x_star` has the wrong dimensionality.
    fn predict_with(&self, x_star: &[f64], ws: &mut PredictWorkspace) -> Prediction;

    /// Posterior prediction at a single point (allocates a transient
    /// workspace; use [`Surrogate::predict_with`] in loops).
    ///
    /// # Panics
    ///
    /// Panics if `x_star` has the wrong dimensionality.
    fn predict(&self, x_star: &[f64]) -> Prediction {
        self.predict_with(x_star, &mut PredictWorkspace::default())
    }

    /// Posterior predictions at every query, each bit-identical to
    /// [`Surrogate::predict_with`]. The default loops over the queries
    /// with one shared workspace; implementations override it with a
    /// batched path.
    ///
    /// # Panics
    ///
    /// Panics if a query has the wrong dimensionality.
    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        let mut ws = PredictWorkspace::default();
        xs.iter().map(|x| self.predict_with(x, &mut ws)).collect()
    }

    /// The kernel in use (with its fitted hyperparameters).
    fn kernel(&self) -> &Kernel;

    /// Number of training points the model actually conditions on (for
    /// a sparse model this is the subset size, not the history length).
    fn n_train(&self) -> usize;

    /// The observation-noise variance (standardized units).
    fn noise_variance(&self) -> f64;

    /// Log marginal likelihood of the conditioned-on targets.
    fn log_marginal_likelihood(&self) -> f64;
}

impl Surrogate for GaussianProcess {
    fn predict_with(&self, x_star: &[f64], ws: &mut PredictWorkspace) -> Prediction {
        GaussianProcess::predict_with(self, x_star, ws)
    }

    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        GaussianProcess::predict_many(self, xs)
    }

    fn kernel(&self) -> &Kernel {
        GaussianProcess::kernel(self)
    }

    fn n_train(&self) -> usize {
        GaussianProcess::n_train(self)
    }

    fn noise_variance(&self) -> f64 {
        GaussianProcess::noise_variance(self)
    }

    fn log_marginal_likelihood(&self) -> f64 {
        GaussianProcess::log_marginal_likelihood(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelFamily;

    #[test]
    fn trait_dispatch_matches_inherent_methods() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).cos()).collect();
        let gp = GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs, ys, 1e-4)
            .expect("fit");
        let via_trait = Surrogate::predict(&gp, &[0.4]);
        let direct = GaussianProcess::predict(&gp, &[0.4]);
        assert_eq!(via_trait.mean, direct.mean);
        assert_eq!(via_trait.variance, direct.variance);
        assert_eq!(Surrogate::n_train(&gp), 8);
        assert_eq!(
            Surrogate::log_marginal_likelihood(&gp),
            GaussianProcess::log_marginal_likelihood(&gp)
        );
    }
}
