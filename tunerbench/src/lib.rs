//! `tunerbench` — the end-to-end benchmark of the mlconf tuner stack.
//!
//! One command runs a named workload against the real `mlconf-serve`
//! server and the real tuners, from one process, and prints every
//! metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path tunerbench/Cargo.toml -- \
//!     --workload serve-steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload again with spans on, replays it in-process behind the HTTP
//! boundary, and reports the per-layer metrics. Layers are measured
//! from outside only, by timing the benchmark's own calls into their
//! public functions. See `NOTES.md` for the workloads, the metrics and
//! the predictions they support.

pub mod loadgen;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
