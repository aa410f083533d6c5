//! Top-level simulation entry point: memory checks, engine dispatch, and
//! failure-overhead application.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::allreduce::run_allreduce;
use crate::compute::ComputeModel;
use crate::failure::{CrashEvent, FailureModel};
use crate::job::JobSpec;
use crate::memory;
use crate::network::NetworkModel;
use crate::outcome::SimResult;
use crate::ps::run_ps;
use crate::runconfig::{Arch, RunConfig};
use crate::straggler::StragglerModel;

/// Options controlling one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Optimization steps simulated per worker.
    pub steps_per_worker: u32,
    /// Leading steps excluded from measurement.
    pub warmup_steps: u32,
    /// Straggler/heterogeneity model.
    pub straggler: StragglerModel,
    /// Network model.
    pub network: NetworkModel,
    /// Compute model.
    pub compute: ComputeModel,
    /// Failure/checkpoint overhead, if modelled.
    pub failure: Option<FailureModel>,
    /// Injected worker outages, played out event-by-event.
    pub crashes: Vec<CrashEvent>,
}

impl SimOptions {
    /// Defaults: 60 steps with 10 warmup, cloud-default noise, no
    /// failure modelling.
    pub fn default_options() -> Self {
        SimOptions {
            steps_per_worker: 60,
            warmup_steps: 10,
            straggler: StragglerModel::cloud_default(),
            network: NetworkModel::default_model(),
            compute: ComputeModel::default_model(),
            failure: None,
            crashes: Vec::new(),
        }
    }

    /// A fast, noise-free variant for analytic cross-checks and tests.
    pub fn deterministic() -> Self {
        SimOptions {
            steps_per_worker: 20,
            warmup_steps: 4,
            straggler: StragglerModel::none(),
            ..Self::default_options()
        }
    }

    /// These options under scenario environment `env`: congestion drift
    /// (`net_scale`) lands on the network model's achievable bandwidth,
    /// and `straggler_scale` on the straggler model's magnitudes
    /// ([`StragglerModel::with_severity_scaled`]). The cluster-side
    /// fields (`compute_scale`, `node_delta`) apply to the [`RunConfig`]
    /// instead — see [`ClusterSpec`](crate::cluster::ClusterSpec) and
    /// [`MachineType::with_compute_scaled`](crate::cluster::MachineType::with_compute_scaled).
    /// A neutral state returns the options unchanged, bit for bit.
    pub fn with_env(&self, env: &crate::scenario::EnvState) -> Self {
        let mut opts = self.clone();
        if env.net_scale != 1.0 {
            opts.network = self.network.with_bandwidth_scaled(env.net_scale);
        }
        if env.straggler_scale != 1.0 {
            opts.straggler = self.straggler.with_severity_scaled(env.straggler_scale);
        }
        opts
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::default_options()
    }
}

/// Simulates one training run of `job` under `rc`.
///
/// Returns an infeasible [`SimResult`] (zero throughput, OOM reason) when
/// the configuration does not fit in memory; otherwise runs the
/// appropriate engine and reports steady-state measurements.
///
/// # Panics
///
/// Panics if `opts.warmup_steps >= opts.steps_per_worker`.
pub fn simulate<R: Rng + ?Sized>(
    job: &JobSpec,
    rc: &RunConfig,
    opts: &SimOptions,
    rng: &mut R,
) -> SimResult {
    assert!(
        opts.warmup_steps < opts.steps_per_worker,
        "warmup {} must be below steps {}",
        opts.warmup_steps,
        opts.steps_per_worker
    );
    let price = rc.cluster().price_per_hour();
    if let Some(oom) = memory::check(job, rc) {
        return SimResult::infeasible(oom, price);
    }

    let (measured_steps, mut measured_secs, step_time, phases, staleness) = match rc.arch() {
        Arch::ParameterServer { .. } => {
            let m = run_ps(
                job,
                rc,
                &opts.network,
                &opts.compute,
                &opts.straggler,
                &opts.crashes,
                opts.steps_per_worker,
                opts.warmup_steps,
                rng,
            );
            (
                m.measured_steps as u64,
                m.measured_secs,
                m.step_time,
                m.phases,
                m.avg_staleness_steps,
            )
        }
        Arch::AllReduce => {
            let m = run_allreduce(
                job,
                rc,
                &opts.network,
                &opts.compute,
                &opts.straggler,
                &opts.crashes,
                opts.steps_per_worker,
                opts.warmup_steps,
                rng,
            );
            (
                m.measured_steps as u64,
                m.measured_secs,
                m.step_time,
                m.phases,
                0.0,
            )
        }
    };

    if let Some(failure) = &opts.failure {
        let mean_step = step_time.mean().max(1e-9);
        let eff = failure.efficiency_factor(mean_step, rc.cluster().num_nodes());
        // Failure losses stretch the wall-clock needed for the same
        // number of useful steps.
        measured_secs /= eff;
    }

    SimResult::feasible(
        measured_steps,
        rc.global_batch(),
        measured_secs,
        step_time,
        phases,
        staleness,
        price,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{machine_by_name, ClusterSpec};
    use crate::runconfig::SyncMode;
    use crate::scenario::EnvState;
    use mlconf_util::rng::Pcg64;

    fn job(params: u64, flops_per_sample: f64) -> JobSpec {
        JobSpec::new("t", params, flops_per_sample, 1e3, 1e3, 1.0, 1_000_000)
    }

    fn rc(nodes: u32, arch: Arch, batch: u32) -> RunConfig {
        RunConfig::new(
            ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), nodes),
            arch,
            batch,
            8,
            false,
        )
        .unwrap()
    }

    fn ps(num_ps: u32) -> Arch {
        Arch::ParameterServer {
            num_ps,
            sync: SyncMode::Bsp,
        }
    }

    #[test]
    fn feasible_run_reports_throughput() {
        let mut rng = Pcg64::seed(1);
        let r = simulate(
            &job(10_000_000, 5e7),
            &rc(8, ps(2), 64),
            &SimOptions::deterministic(),
            &mut rng,
        );
        assert!(r.is_feasible());
        assert!(r.throughput() > 0.0);
        assert_eq!(r.global_batch(), 6 * 64);
        assert!(r.step_time().mean() > 0.0);
    }

    #[test]
    fn oom_is_reported_not_run() {
        let mut rng = Pcg64::seed(2);
        let r = simulate(
            &job(4_000_000_000, 5e7), // 16 GB model > 15 GB node
            &rc(8, Arch::AllReduce, 8),
            &SimOptions::deterministic(),
            &mut rng,
        );
        assert!(!r.is_feasible());
        assert_eq!(r.throughput(), 0.0);
        assert!(r.cluster_price_per_hour() > 0.0);
    }

    #[test]
    fn failure_model_reduces_throughput() {
        let mut rng1 = Pcg64::seed(3);
        let mut rng2 = Pcg64::seed(3);
        let base = SimOptions::deterministic();
        let with_failures = SimOptions {
            failure: Some(FailureModel {
                node_mtbf_hours: 10.0,
                restart_secs: 300.0,
                checkpoint_interval_steps: 20,
                checkpoint_secs: 30.0,
            }),
            ..SimOptions::deterministic()
        };
        let j = job(10_000_000, 5e7);
        let cfg = rc(8, ps(2), 64);
        let r_base = simulate(&j, &cfg, &base, &mut rng1);
        let r_fail = simulate(&j, &cfg, &with_failures, &mut rng2);
        assert!(r_fail.throughput() < r_base.throughput());
    }

    #[test]
    fn compute_bound_jobs_scale_with_workers() {
        // Heavy compute, tiny model: near-linear scaling expected.
        let j = job(100_000, 1e9);
        let mut rng = Pcg64::seed(4);
        let small = simulate(
            &j,
            &rc(3, ps(1), 64),
            &SimOptions::deterministic(),
            &mut rng,
        );
        let big = simulate(
            &j,
            &rc(9, ps(1), 64),
            &SimOptions::deterministic(),
            &mut rng,
        );
        let scaling = big.throughput() / small.throughput();
        assert!(
            scaling > 3.0,
            "2→8 workers gave only {scaling:.2}x for a compute-bound job"
        );
    }

    #[test]
    fn network_bound_jobs_do_not_scale() {
        // Huge dense model, light compute: PS with 1 server saturates.
        let j = job(200_000_000, 1e5);
        let mut rng = Pcg64::seed(5);
        let small = simulate(
            &j,
            &rc(3, ps(1), 64),
            &SimOptions::deterministic(),
            &mut rng,
        );
        let big = simulate(
            &j,
            &rc(9, ps(1), 64),
            &SimOptions::deterministic(),
            &mut rng,
        );
        let scaling = big.throughput() / small.throughput();
        assert!(
            scaling < 2.5,
            "network-bound job scaled {scaling:.2}x, expected saturation"
        );
    }

    #[test]
    fn allreduce_beats_ps_for_big_dense_models_on_fat_nodes() {
        // The classic crossover: with a large dense model and a single
        // parameter server, incast kills PS; all-reduce's bandwidth-
        // optimal ring wins.
        let j = job(100_000_000, 1e6);
        let mut rng = Pcg64::seed(6);
        let opts = SimOptions::deterministic();
        let ps_run = simulate(&j, &rc(9, ps(1), 64), &opts, &mut rng);
        let ar_run = simulate(&j, &rc(9, Arch::AllReduce, 64), &opts, &mut rng);
        assert!(
            ar_run.throughput() > ps_run.throughput(),
            "allreduce {} !> ps {}",
            ar_run.throughput(),
            ps_run.throughput()
        );
    }

    #[test]
    fn ps_beats_allreduce_for_sparse_models() {
        // Sparse gradients: PS pushes only non-zeros; all-reduce must
        // reduce the dense vector.
        let sparse = JobSpec::new("lr", 100_000_000, 1e6, 1e3, 1e2, 0.001, 1_000_000);
        let mut rng = Pcg64::seed(7);
        let opts = SimOptions::deterministic();
        let ps_run = simulate(&sparse, &rc(9, ps(4), 64), &opts, &mut rng);
        let ar_run = simulate(&sparse, &rc(9, Arch::AllReduce, 64), &opts, &mut rng);
        assert!(
            ps_run.throughput() > ar_run.throughput(),
            "ps {} !> allreduce {}",
            ps_run.throughput(),
            ar_run.throughput()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let j = job(10_000_000, 5e7);
        let cfg = rc(6, ps(2), 32);
        let a = simulate(&j, &cfg, &SimOptions::default(), &mut Pcg64::seed(8));
        let b = simulate(&j, &cfg, &SimOptions::default(), &mut Pcg64::seed(8));
        assert_eq!(a, b);
    }

    #[test]
    fn crash_injection_bsp_stalls_everyone_async_contains_it() {
        use crate::failure::CrashEvent;
        // Compute-bound job so phase timing is worker-driven.
        let j = job(100_000, 1e9);
        let mk_opts = |crash: bool| {
            let mut o = SimOptions::deterministic();
            if crash {
                o.crashes = vec![CrashEvent {
                    worker: 0,
                    at_secs: 5.0,
                    outage_secs: 60.0,
                }];
            }
            o
        };
        let run = |arch: Arch, crash: bool, seed: u64| {
            simulate(
                &j,
                &rc(6, arch, 64),
                &mk_opts(crash),
                &mut Pcg64::seed(seed),
            )
        };
        let bsp = Arch::ParameterServer {
            num_ps: 1,
            sync: SyncMode::Bsp,
        };
        let asp = Arch::ParameterServer {
            num_ps: 1,
            sync: SyncMode::Async,
        };
        let bsp_extra =
            run(bsp, true, 1).phases().sync_wait - run(bsp, false, 1).phases().sync_wait;
        let asp_extra =
            run(asp, true, 1).phases().sync_wait - run(asp, false, 1).phases().sync_wait;
        // BSP: the barrier transmits the 60 s outage to all 5 workers
        // (plus the crashed worker's own downtime) ≈ 6 × 60 s.
        assert!(
            bsp_extra > 4.0 * 60.0,
            "bsp barrier should amplify the outage: {bsp_extra}"
        );
        // Async: only the crashed worker loses time.
        assert!(
            asp_extra < 1.5 * 60.0,
            "async should contain the outage: {asp_extra}"
        );
        assert!(asp_extra > 0.5 * 60.0, "the crashed worker still stalls");
    }

    #[test]
    fn crash_injection_stalls_allreduce_lockstep() {
        use crate::failure::CrashEvent;
        let j = job(10_000_000, 5e7);
        let base = SimOptions::deterministic();
        let mut crashed = SimOptions::deterministic();
        crashed.crashes = vec![CrashEvent {
            worker: 3,
            at_secs: 2.0,
            outage_secs: 30.0,
        }];
        let cfg = rc(8, Arch::AllReduce, 64);
        let r_base = simulate(&j, &cfg, &base, &mut Pcg64::seed(2));
        let r_crash = simulate(&j, &cfg, &crashed, &mut Pcg64::seed(2));
        let extra = r_crash.duration_secs() - r_base.duration_secs();
        assert!(
            (extra - 30.0).abs() < 2.0,
            "one outage should cost the lockstep group ~its duration, got {extra}"
        );
        assert!(r_crash.throughput() < r_base.throughput());
    }

    #[test]
    #[should_panic(expected = "warmup")]
    fn rejects_bad_warmup() {
        let mut rng = Pcg64::seed(9);
        let opts = SimOptions {
            steps_per_worker: 5,
            warmup_steps: 5,
            ..SimOptions::default()
        };
        simulate(&job(1_000_000, 1e6), &rc(4, ps(1), 8), &opts, &mut rng);
    }

    #[test]
    fn neutral_env_leaves_options_unchanged() {
        for opts in [SimOptions::default(), SimOptions::deterministic()] {
            assert_eq!(opts.with_env(&EnvState::neutral()), opts);
        }
    }

    #[test]
    fn straggler_scale_matches_the_scaled_model() {
        for s in [0.5, 1.0, 2.0, 8.0, 1000.0] {
            let env = EnvState {
                straggler_scale: s,
                ..EnvState::neutral()
            };
            let opts = SimOptions::default().with_env(&env);
            assert_eq!(opts.straggler, StragglerModel::scaled(s), "scale {s}");
            assert_eq!(
                SimOptions {
                    straggler: SimOptions::default().straggler,
                    ..opts
                },
                SimOptions::default(),
                "straggler_scale {s} must touch only the straggler model"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::cluster::{machine_by_name, ClusterSpec};
    use crate::runconfig::SyncMode;
    use mlconf_util::rng::Pcg64;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn throughput_finite_and_nonnegative(
            nodes in 2u32..12,
            num_ps in 1u32..4,
            batch in 1u32..512,
            seed in 0u64..100,
        ) {
            prop_assume!(num_ps < nodes);
            let job = JobSpec::new("p", 5_000_000, 1e7, 1e3, 1e3, 1.0, 100_000);
            let rc = RunConfig::new(
                ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), nodes),
                Arch::ParameterServer { num_ps, sync: SyncMode::Bsp },
                batch, 4, false,
            ).unwrap();
            let mut rng = Pcg64::seed(seed);
            let r = simulate(&job, &rc, &SimOptions::deterministic(), &mut rng);
            prop_assert!(r.throughput().is_finite());
            prop_assert!(r.throughput() >= 0.0);
            if r.is_feasible() {
                prop_assert!(r.step_time().mean() > 0.0);
            }
        }

        #[test]
        fn bigger_batch_higher_throughput_when_compute_light(
            seed in 0u64..50,
        ) {
            // Throughput in samples/sec rises with batch size while comm
            // dominates (amortizes fixed per-step comm).
            let job = JobSpec::new("p", 20_000_000, 1e5, 1e2, 1e2, 1.0, 100_000);
            let mk = |batch| RunConfig::new(
                ClusterSpec::new(machine_by_name("c4.2xlarge").unwrap(), 5),
                Arch::ParameterServer { num_ps: 1, sync: SyncMode::Bsp },
                batch, 4, false,
            ).unwrap();
            let opts = SimOptions::deterministic();
            let small = simulate(&job, &mk(16), &opts, &mut Pcg64::seed(seed));
            let large = simulate(&job, &mk(256), &opts, &mut Pcg64::seed(seed));
            prop_assert!(large.throughput() > small.throughput());
        }
    }
}
