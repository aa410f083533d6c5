#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Gaussian-process regression and acquisition functions for Bayesian
//! optimization, written from scratch on `mlconf-util`'s dense linear
//! algebra (the Rust BO ecosystem is too immature to depend on — the
//! point the paper's reproduction band makes).
//!
//! The three layers:
//!
//! 1. [`kernel`] — stationary ARD kernels (squared-exponential, Matérn 3/2
//!    and 5/2) over encoded configurations in the unit hypercube.
//! 2. [`gp`] — exact GP regression: Cholesky fit, posterior mean/variance,
//!    log marginal likelihood; [`hyperopt`] selects hyperparameters by
//!    maximizing the marginal likelihood.
//! 3. [`acquisition`] — EI / PI / LCB scores and a hybrid random +
//!    Nelder–Mead acquisition maximizer, generic over any [`surrogate`]
//!    implementation.
//!
//! For long histories, [`sparse`] bounds per-suggest cost with a
//! subset-of-data approximation behind the same [`surrogate::Surrogate`]
//! trait, and [`ops`] counts kernel evaluations so complexity bounds can
//! be asserted deterministically.
//!
//! # Examples
//!
//! ```
//! use mlconf_gp::kernel::{Kernel, KernelFamily};
//! use mlconf_gp::gp::GaussianProcess;
//! use mlconf_gp::acquisition::{maximize_acquisition, Acquisition};
//! use mlconf_util::rng::Pcg64;
//!
//! // Observed trials: objective has a minimum near x = 0.6.
//! let xs: Vec<Vec<f64>> = vec![vec![0.1], vec![0.4], vec![0.9]];
//! let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.6_f64).powi(2)).collect();
//! let gp = GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs, ys.clone(), 1e-6)?;
//!
//! let best = ys.iter().cloned().fold(f64::INFINITY, f64::min);
//! let mut rng = Pcg64::seed(0);
//! let next = maximize_acquisition(&gp, Acquisition::default_ei(), best, 1, 128, &[], &mut rng);
//! assert!((0.0..=1.0).contains(&next.point[0]));
//! # Ok::<(), mlconf_gp::gp::GpError>(())
//! ```

pub mod acquisition;
pub mod gp;
pub mod hyperopt;
pub mod kernel;
pub mod ops;
pub mod sparse;
pub mod surrogate;
pub mod workspace;

pub use acquisition::{maximize_acquisition, Acquisition, AcquisitionChoice};
pub use gp::{GaussianProcess, GpError, PredictWorkspace, Prediction};
pub use hyperopt::{fit_optimized, HyperoptOptions};
pub use kernel::{Kernel, KernelFamily};
pub use ops::{kernel_evals, reset_kernel_evals};
pub use sparse::{SparseConfig, SparseGaussianProcess};
pub use surrogate::Surrogate;
pub use workspace::DistanceWorkspace;
