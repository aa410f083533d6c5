#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Numeric substrate for the `mlconf` workspace.
//!
//! This crate deliberately has no dependency on the rest of the workspace;
//! it provides the deterministic randomness, statistics, dense linear
//! algebra, derivative-free optimization, and space-filling sampling that
//! the Gaussian-process layer (`mlconf-gp`), the cluster simulator
//! (`mlconf-sim`), and the tuners (`mlconf-tuners`) are built on.
//!
//! # Why hand-rolled numerics?
//!
//! The reproduction targets an offline dependency set without a mature
//! linear-algebra or Bayesian-optimization stack, and the problem sizes are
//! small (kernel matrices of at most a few hundred trials), so a compact,
//! well-tested in-repo implementation is both sufficient and easier to
//! audit than a heavyweight dependency.
//!
//! # Examples
//!
//! ```
//! use mlconf_util::rng::Pcg64;
//! use mlconf_util::sampling::latin_hypercube;
//! use mlconf_util::stats::OnlineStats;
//!
//! let mut rng = Pcg64::seed(42);
//! let design = latin_hypercube(16, 4, &mut rng);
//! let spread: OnlineStats = design.iter().map(|p| p[0]).collect();
//! assert!(spread.count() == 16);
//! ```

pub mod dist;
pub mod hash;
pub mod json;
pub mod linalg;
pub mod matrix;
pub mod optim;
pub mod rng;
pub mod sampling;
pub mod special;
pub mod stats;
