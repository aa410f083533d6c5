#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Discrete-event simulator of distributed machine-learning training
//! clusters.
//!
//! This crate is the substitute for the physical cluster the paper's
//! tuner evaluated configurations on (see DESIGN.md, "Substitutions"). It
//! models:
//!
//! - **Clusters** ([`cluster`]) — a catalog of cloud machine types
//!   (cores, memory, NIC bandwidth, price) and homogeneous clusters of
//!   them.
//! - **Jobs** ([`job`]) — per-sample FLOPs/bytes, model size and gradient
//!   sparsity of a training workload.
//! - **Execution** — an event-driven parameter-server engine ([`ps`])
//!   with BSP/ASP/SSP synchronization and queued server applies, and a
//!   lockstep ring all-reduce engine ([`allreduce`]).
//! - **Infrastructure noise** ([`straggler`]) — persistent node
//!   heterogeneity, per-task jitter, heavy-tailed transient stragglers.
//! - **Feasibility** ([`memory`]) — OOM cliffs on workers and servers,
//!   reported as first-class failed outcomes the tuner must learn from.
//! - **Failures** ([`failure`]) — checkpoint duty cycle and expected
//!   failure losses.
//! - **Dynamic environments** ([`scenario`]) — deterministic scripts of
//!   time-varying shifts (workload phases, spot-preemption waves,
//!   autoscaling, congestion) so evaluations at different wall-clock
//!   epochs see different ground truth.
//!
//! The entry point is [`engine::simulate`], which returns a
//! [`outcome::SimResult`] with steady-state throughput, a per-phase time
//! breakdown, and measured gradient staleness.
//!
//! # Examples
//!
//! ```
//! use mlconf_sim::cluster::{machine_by_name, ClusterSpec};
//! use mlconf_sim::engine::{simulate, SimOptions};
//! use mlconf_sim::job::JobSpec;
//! use mlconf_sim::runconfig::{Arch, RunConfig, SyncMode};
//! use mlconf_util::rng::Pcg64;
//!
//! let job = JobSpec::new("mlp", 10_000_000, 5e7, 1e3, 1e3, 1.0, 1_000_000);
//! let cluster = ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), 8);
//! let rc = RunConfig::new(
//!     cluster,
//!     Arch::ParameterServer { num_ps: 2, sync: SyncMode::Bsp },
//!     64,
//!     8,
//!     false,
//! )?;
//! let mut rng = Pcg64::seed(42);
//! let result = simulate(&job, &rc, &SimOptions::default(), &mut rng);
//! assert!(result.is_feasible());
//! println!("throughput: {:.0} samples/s", result.throughput());
//! # Ok::<(), mlconf_sim::runconfig::InvalidRunConfig>(())
//! ```

pub mod allreduce;
pub mod cluster;
pub mod compute;
pub mod engine;
pub mod events;
pub mod failure;
pub mod faultplan;
pub mod job;
pub mod memory;
pub mod network;
pub mod outcome;
pub mod ps;
pub mod runconfig;
pub mod scenario;
pub mod straggler;
pub mod time;

pub use cluster::{ClusterSpec, MachineType};
pub use engine::{simulate, SimOptions};
pub use faultplan::{FaultEvent, FaultKind, FaultPlan};
pub use job::JobSpec;
pub use outcome::{PhaseBreakdown, SimResult};
pub use runconfig::{Arch, RunConfig, SyncMode};
pub use scenario::{EnvState, ScenarioEvent, ScenarioScript};
pub use straggler::StragglerModel;
