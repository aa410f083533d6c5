#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Command-line interface for the `mlconf` tuner.
//!
//! The binary (`mlconf`) wraps four commands:
//!
//! - `mlconf workloads` / `mlconf catalog` — inspect the built-in job
//!   suite and machine-type catalog;
//! - `mlconf simulate --workload cnn-cifar --nodes 16 --arch allreduce`
//!   — profile one configuration (throughput, phase breakdown,
//!   time-to-accuracy, OOM diagnosis);
//! - `mlconf tune --workload logreg-criteo --objective cost --budget 30`
//!   — run any tuner and print the best configuration found.
//!
//! All logic lives in [`commands`] (returning strings) so the behaviour
//! is unit-testable; [`args`] is a small dependency-free flag parser.

pub mod args;
pub mod commands;
