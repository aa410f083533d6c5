#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Typed configuration spaces for distributed-ML tuning.
//!
//! A [`space::ConfigSpace`] declares the tunable knobs of a distributed
//! training job — integer ranges (optionally log-scaled), floats,
//! categorical choices, booleans — plus structural feasibility
//! [`constraint::Constraint`]s (e.g. *parameter servers < cluster nodes*).
//! The space provides a canonical bijective-up-to-rounding encoding into
//! the unit hypercube, which is what the Gaussian-process tuner models,
//! plus sampling, neighbourhood generation for local search, and grid
//! enumeration for the exhaustive-oracle baseline.
//!
//! # Examples
//!
//! ```
//! use mlconf_space::space::ConfigSpaceBuilder;
//! use mlconf_util::rng::Pcg64;
//!
//! let space = ConfigSpaceBuilder::new()
//!     .int("num_workers", 1, 32)?
//!     .log_int("batch_per_worker", 8, 2048)?
//!     .categorical("sync", ["bsp", "async", "ssp"])?
//!     .build()?;
//! let mut rng = Pcg64::seed(7);
//! let cfg = space.sample(&mut rng)?;
//! println!("proposed: {cfg}");
//! # Ok::<(), mlconf_space::error::SpaceError>(())
//! ```

pub mod config;
pub mod constraint;
pub mod error;
pub mod param;
pub mod space;

pub use config::Configuration;
pub use constraint::Constraint;
pub use error::SpaceError;
pub use param::{Param, ParamKind, ParamValue};
pub use space::{ConfigSpace, ConfigSpaceBuilder};
