#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Experiment harness reproducing the paper-style evaluation.
//!
//! Layout:
//!
//! - [`report`] — text tables + CSV emitters (one file per table/figure);
//! - [`oracle`] — the quasi-exhaustive optimum used to normalize tuner
//!   quality;
//! - [`replicate`] — parallel multi-seed tuning runs and median curves;
//! - [`experiments`] — the nine experiments E1–E9 (see DESIGN.md's
//!   per-experiment index).
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p mlconf-bench --bin experiments -- all
//! cargo run --release -p mlconf-bench --bin experiments -- e2 --full
//! ```
//!
//! Criterion micro-benchmarks for the hot code paths live in
//! `benches/`.

pub mod experiments;
pub mod loadgen;
pub mod oracle;
pub mod replicate;
pub mod report;
