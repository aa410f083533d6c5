//! The evaluator: the function-under-optimization handed to tuners.
//!
//! `ConfigEvaluator` owns a workload, an objective, and the simulation
//! options, and maps `Configuration → TrialOutcome` deterministically in
//! `(base_seed, configuration, repetition)`. Repetitions of the same
//! configuration see different simulator noise and convergence noise —
//! exactly the measurement noise a real cluster would exhibit.

use mlconf_sim::engine::{simulate, SimOptions};
use mlconf_sim::faultplan::FaultKind;
use mlconf_sim::runconfig::{Arch, RunConfig};
use mlconf_sim::scenario::{EnvState, ScenarioScript};
use mlconf_space::config::Configuration;
use mlconf_space::space::ConfigSpace;
use mlconf_util::hash::fnv1a;
use mlconf_util::rng::Pcg64;

use crate::objective::{score, Objective, TrialOutcome, PROVISIONING_SECS};
use crate::tunespace::{standard_space, to_run_config};
use crate::workload::Workload;

/// Evaluates configurations for one workload/objective pair.
#[derive(Debug, Clone)]
pub struct ConfigEvaluator {
    workload: Workload,
    objective: Objective,
    space: ConfigSpace,
    sim_opts: SimOptions,
    base_seed: u64,
    scenario: Option<ScenarioScript>,
}

impl ConfigEvaluator {
    /// Creates an evaluator over the standard tuning space.
    pub fn new(workload: Workload, objective: Objective, max_nodes: i64, base_seed: u64) -> Self {
        ConfigEvaluator {
            workload,
            objective,
            space: standard_space(max_nodes),
            sim_opts: SimOptions::default(),
            base_seed,
            scenario: None,
        }
    }

    /// Replaces the simulation options (e.g. noise-free for oracles).
    pub fn with_sim_options(mut self, opts: SimOptions) -> Self {
        self.sim_opts = opts;
        self
    }

    /// Attaches a scenario script: epoch-tagged evaluations
    /// ([`Self::evaluate_faulted_at`] and friends) see the script's
    /// environment at their epoch instead of the static world. With no
    /// script attached — or whenever the script's state is neutral —
    /// every path is byte-identical to the static evaluator.
    pub fn with_scenario(mut self, scenario: ScenarioScript) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The attached scenario script, if any.
    pub fn scenario(&self) -> Option<&ScenarioScript> {
        self.scenario.as_ref()
    }

    /// The scenario environment an evaluation tagged `epoch_secs` sees
    /// (no tag or no scenario means neutral).
    pub fn env_for(&self, epoch_secs: Option<f64>) -> EnvState {
        match (&self.scenario, epoch_secs) {
            (Some(s), Some(t)) => s.env_at(t),
            _ => EnvState::neutral(),
        }
    }

    /// The tuning space configurations must come from.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The workload being tuned.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The objective being minimized.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The base seed (replicates should use different base seeds).
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Evaluates `cfg` as trial number `rep` (repetition index). The same
    /// `(base_seed, cfg, rep)` triple always returns the same outcome.
    pub fn evaluate(&self, cfg: &Configuration, rep: u64) -> TrialOutcome {
        self.evaluate_with_fidelity(cfg, rep, 1.0)
    }

    /// Evaluates `cfg` at a reduced profiling fidelity in `(0, 1]`.
    ///
    /// Fidelity scales the number of simulated steps, so a `0.25`
    /// evaluation costs roughly a quarter of the machine time but
    /// observes a noisier throughput estimate — the resource knob
    /// multi-fidelity tuners (successive halving, Hyperband) exploit.
    ///
    /// # Panics
    ///
    /// Panics if `fidelity` is outside `(0, 1]`.
    pub fn evaluate_with_fidelity(
        &self,
        cfg: &Configuration,
        rep: u64,
        fidelity: f64,
    ) -> TrialOutcome {
        self.evaluate_with_fidelity_at(cfg, rep, fidelity, None)
    }

    /// [`Self::evaluate_with_fidelity`] at scenario epoch `epoch_secs`:
    /// the run is simulated under the environment the attached scenario
    /// script has in force at that instant. `None` (or no scenario)
    /// falls back to the static world, byte-identically.
    ///
    /// # Panics
    ///
    /// Panics if `fidelity` is outside `(0, 1]`.
    pub fn evaluate_with_fidelity_at(
        &self,
        cfg: &Configuration,
        rep: u64,
        fidelity: f64,
        epoch_secs: Option<f64>,
    ) -> TrialOutcome {
        assert!(
            fidelity > 0.0 && fidelity <= 1.0,
            "fidelity must be in (0,1], got {fidelity}"
        );
        self.evaluate_env(cfg, rep, fidelity, &self.env_for(epoch_secs))
    }

    /// The shared evaluation core. A neutral `env` is the exact legacy
    /// path: same RNG stream, same draw order, same structs — so
    /// attaching a scenario perturbs nothing until its script actually
    /// shifts the environment.
    fn evaluate_env(
        &self,
        cfg: &Configuration,
        rep: u64,
        fidelity: f64,
        env: &EnvState,
    ) -> TrialOutcome {
        let stream = fnv1a(cfg.key().as_bytes()) ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = Pcg64::with_stream(self.base_seed, stream);
        match to_run_config(cfg) {
            Ok(rc) => {
                let rc = if env.is_neutral() {
                    rc
                } else {
                    env_adjusted(&rc, env)
                };
                let mut opts = if env.is_neutral() {
                    self.sim_opts.clone()
                } else {
                    self.sim_opts.with_env(env)
                };
                if fidelity < 1.0 {
                    let full_measured = opts.steps_per_worker - opts.warmup_steps;
                    let measured = ((full_measured as f64 * fidelity).round() as u32).max(5);
                    opts.steps_per_worker = opts.warmup_steps + measured;
                }
                let sim = simulate(self.workload.job(), &rc, &opts, &mut rng);
                score(self.objective, &self.workload, &sim, &mut rng)
            }
            Err(e) => TrialOutcome::failed(e.to_string(), PROVISIONING_SECS),
        }
    }

    /// Evaluates `cfg` under an injected fault from a
    /// [`FaultPlan`](mlconf_sim::faultplan::FaultPlan) schedule.
    ///
    /// - `None` — identical to [`Self::evaluate_with_fidelity`].
    /// - `Straggle` — the attempt is simulated under the scaled
    ///   straggler model (injected *through the engine*: the corrupted
    ///   measurement comes from actually noisier simulated steps).
    /// - `Oom` — the trial dies at startup: a failed outcome charging
    ///   only provisioning cost.
    /// - `Crash` — the attempt dies `at_frac` of the way through the
    ///   run: a failed outcome charging provisioning plus that fraction
    ///   of the run's machine cost.
    /// - `Hang` — evaluated cleanly; hang semantics (kill at the cutoff,
    ///   right-censor the observation) live in the trial executor, which
    ///   owns the timeout.
    ///
    /// Determinism: the same `(base_seed, cfg, rep, fidelity, fault)`
    /// always produces the same outcome.
    ///
    /// # Panics
    ///
    /// Panics if `fidelity` is outside `(0, 1]` or the fault's parameter
    /// is out of range.
    pub fn evaluate_faulted(
        &self,
        cfg: &Configuration,
        rep: u64,
        fidelity: f64,
        fault: Option<&FaultKind>,
    ) -> TrialOutcome {
        self.evaluate_faulted_at(cfg, rep, fidelity, fault, None)
    }

    /// [`Self::evaluate_faulted`] at scenario epoch `epoch_secs`: the
    /// attempt (clean, straggle-corrupted, or crash-costed) is measured
    /// under the environment in force at that instant. `None` (or no
    /// scenario) is byte-identical to [`Self::evaluate_faulted`].
    ///
    /// # Panics
    ///
    /// Panics if `fidelity` is outside `(0, 1]` or the fault's parameter
    /// is out of range.
    pub fn evaluate_faulted_at(
        &self,
        cfg: &Configuration,
        rep: u64,
        fidelity: f64,
        fault: Option<&FaultKind>,
        epoch_secs: Option<f64>,
    ) -> TrialOutcome {
        let Some(fault) = fault else {
            return self.evaluate_with_fidelity_at(cfg, rep, fidelity, epoch_secs);
        };
        fault.validate();
        match fault {
            FaultKind::Hang => self.evaluate_with_fidelity_at(cfg, rep, fidelity, epoch_secs),
            FaultKind::Straggle { .. } => {
                let straggler = fault
                    .straggler_override()
                    .expect("straggle fault has a straggler model");
                let mut noisy = self.clone();
                noisy.sim_opts.straggler = straggler;
                noisy.evaluate_with_fidelity_at(cfg, rep, fidelity, epoch_secs)
            }
            FaultKind::Oom => {
                let pn = self.price_nodes_of(cfg);
                TrialOutcome::failed("injected: node OOM at startup", PROVISIONING_SECS * pn)
            }
            FaultKind::Crash { at_frac } => {
                // Charge what the dead attempt actually burned: full
                // provisioning plus `at_frac` of the profiling run the
                // clean evaluation would have cost.
                let clean = self.evaluate_with_fidelity_at(cfg, rep, fidelity, epoch_secs);
                let pn = self.price_nodes_of(cfg);
                let provisioning = PROVISIONING_SECS * pn;
                let run = (clean.search_cost_machine_secs - provisioning).max(0.0);
                TrialOutcome::failed(
                    "injected: node crash mid-measurement",
                    provisioning + at_frac * run,
                )
            }
        }
    }

    /// Price-weighted node count of `cfg`'s cluster (the search-cost
    /// unit used by `score`); 1.0 when the configuration is unmappable.
    fn price_nodes_of(&self, cfg: &Configuration) -> f64 {
        const BASE_PRICE_PER_HOUR: f64 = 0.10;
        to_run_config(cfg)
            .map(|rc| rc.cluster().price_per_hour() / BASE_PRICE_PER_HOUR)
            .unwrap_or(1.0)
    }

    /// Noise-free expected objective of `cfg`: deterministic simulator
    /// (no stragglers/jitter) and mean convergence. Used by oracles and
    /// the E7 model-accuracy experiment as "ground truth".
    pub fn true_objective(&self, cfg: &Configuration) -> Option<f64> {
        self.true_objective_at(cfg, None)
    }

    /// [`Self::true_objective`] at scenario epoch `epoch_secs`: the
    /// noise-free ground truth of `cfg` under the environment in force
    /// at that instant — what E17 scores deployed configurations (and
    /// per-segment oracles) against. `None` (or no scenario) matches
    /// [`Self::true_objective`] exactly.
    pub fn true_objective_at(&self, cfg: &Configuration, epoch_secs: Option<f64>) -> Option<f64> {
        let env = self.env_for(epoch_secs);
        let rc = to_run_config(cfg).ok()?;
        let rc = if env.is_neutral() {
            rc
        } else {
            env_adjusted(&rc, &env)
        };
        let mut opts = if env.is_neutral() {
            self.sim_opts.clone()
        } else {
            self.sim_opts.with_env(&env)
        };
        opts.straggler = mlconf_sim::straggler::StragglerModel::none();
        let mut rng = Pcg64::with_stream(self.base_seed, fnv1a(cfg.key().as_bytes()));
        let sim = simulate(self.workload.job(), &rc, &opts, &mut rng);
        if !sim.is_feasible() {
            return None;
        }
        // Mean convergence: bypass the noisy sampler.
        let epochs = self.workload.convergence().epochs_to_target(
            sim.global_batch(),
            sim.avg_staleness_steps(),
            self.workload.job().dataset_samples(),
        );
        let samples = epochs * self.workload.job().dataset_samples() as f64;
        let tta = samples / sim.throughput();
        Some(match self.objective {
            Objective::TimeToAccuracy => tta,
            Objective::CostToAccuracy => tta / 3600.0 * sim.cluster_price_per_hour(),
            Objective::DeadlineCost {
                deadline_secs,
                penalty,
            } => {
                let cost = tta / 3600.0 * sim.cluster_price_per_hour();
                if tta <= deadline_secs {
                    cost
                } else {
                    cost * (1.0 + penalty * (tta / deadline_secs - 1.0))
                }
            }
        })
    }
}

/// Rebuilds `rc` under scenario environment `env`: the per-core compute
/// rate scales with `compute_scale`, the cluster gains/loses
/// `node_delta` nodes (clamped to stay a valid cluster), and a
/// parameter-server architecture's server count is clamped below the new
/// node count. Congestion (`net_scale`) lands on the network model via
/// [`SimOptions::with_env`], not here.
fn env_adjusted(rc: &RunConfig, env: &EnvState) -> RunConfig {
    let cluster = rc.cluster();
    let machine = if env.compute_scale == 1.0 {
        cluster.machine().clone()
    } else {
        cluster.machine().with_compute_scaled(env.compute_scale)
    };
    let nodes = (i64::from(cluster.num_nodes()) + env.node_delta).clamp(2, 4096) as u32;
    let cluster = cluster.with_machine(machine).resized(nodes);
    let arch = match rc.arch() {
        Arch::ParameterServer { num_ps, sync } => Arch::ParameterServer {
            num_ps: num_ps.clamp(1, nodes - 1),
            sync,
        },
        a => a,
    };
    RunConfig::new(
        cluster,
        arch,
        rc.batch_per_worker(),
        rc.threads_per_worker(),
        rc.compress_gradients(),
    )
    .expect("env-adjusted run config stays valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::mlp_mnist;

    fn evaluator() -> ConfigEvaluator {
        ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 42)
    }

    #[test]
    fn deterministic_per_triple() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let a = ev.evaluate(&cfg, 0);
        let b = ev.evaluate(&cfg, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn repetitions_vary_but_cluster_around_truth() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let outs: Vec<f64> = (0..8)
            .map(|rep| ev.evaluate(&cfg, rep).objective.unwrap())
            .collect();
        // Not all identical (noise present)...
        assert!(outs.windows(2).any(|w| w[0] != w[1]));
        // ...but within a band around the noise-free truth.
        let truth = ev.true_objective(&cfg).unwrap();
        for o in outs {
            assert!(
                (o / truth - 1.0).abs() < 0.6,
                "noisy {o} too far from truth {truth}"
            );
        }
    }

    #[test]
    fn different_configs_different_objectives() {
        let ev = evaluator();
        let mut rng = Pcg64::seed(7);
        let a = ev.space().sample(&mut rng).unwrap();
        let mut b = ev.space().sample(&mut rng).unwrap();
        while b == a {
            b = ev.space().sample(&mut rng).unwrap();
        }
        let oa = ev.evaluate(&a, 0);
        let ob = ev.evaluate(&b, 0);
        // Extremely unlikely to coincide exactly.
        assert_ne!(oa.objective, ob.objective);
    }

    #[test]
    fn sampled_configs_usually_evaluate_ok() {
        let ev = evaluator();
        let mut rng = Pcg64::seed(8);
        let mut ok = 0;
        for _ in 0..50 {
            let cfg = ev.space().sample(&mut rng).unwrap();
            if ev.evaluate(&cfg, 0).is_ok() {
                ok += 1;
            }
        }
        // Memory cliffs exist (that is the point) but most of the space
        // must be viable for tuning to be meaningful.
        assert!(ok >= 30, "only {ok}/50 sampled configs were feasible");
    }

    #[test]
    fn true_objective_is_noise_free_and_stable() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        assert_eq!(ev.true_objective(&cfg), ev.true_objective(&cfg));
    }

    #[test]
    fn low_fidelity_is_cheaper_and_consistent() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let full = ev.evaluate_with_fidelity(&cfg, 0, 1.0);
        let quarter = ev.evaluate_with_fidelity(&cfg, 0, 0.25);
        assert!(quarter.is_ok());
        // Cheaper to run...
        assert!(
            quarter.search_cost_machine_secs < full.search_cost_machine_secs,
            "quarter {} !< full {}",
            quarter.search_cost_machine_secs,
            full.search_cost_machine_secs
        );
        // ...but measuring the same quantity, within noise.
        let f = full.objective.unwrap();
        let q = quarter.objective.unwrap();
        assert!((q / f - 1.0).abs() < 0.5, "quarter {q} vs full {f}");
        // Full fidelity equals the plain evaluate path.
        assert_eq!(full, ev.evaluate(&cfg, 0));
    }

    #[test]
    #[should_panic(expected = "fidelity")]
    fn rejects_bad_fidelity() {
        let ev = evaluator();
        ev.evaluate_with_fidelity(&crate::tunespace::default_config(16), 0, 0.0);
    }

    #[test]
    fn faulted_none_matches_clean_path() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        assert_eq!(
            ev.evaluate_faulted(&cfg, 0, 1.0, None),
            ev.evaluate_with_fidelity(&cfg, 0, 1.0)
        );
        assert_eq!(
            ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Hang)),
            ev.evaluate_with_fidelity(&cfg, 0, 1.0)
        );
    }

    #[test]
    fn injected_oom_fails_cheaply() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let clean = ev.evaluate(&cfg, 0);
        let oom = ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Oom));
        assert!(!oom.is_ok());
        assert!(oom.failure.as_deref().unwrap().contains("OOM"));
        assert!(
            oom.search_cost_machine_secs < clean.search_cost_machine_secs,
            "an OOM at startup must cost less than the full run"
        );
        assert!(oom.search_cost_machine_secs > 0.0);
    }

    #[test]
    fn injected_crash_charges_partial_run() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let clean = ev.evaluate(&cfg, 0);
        let early = ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Crash { at_frac: 0.2 }));
        let late = ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Crash { at_frac: 0.9 }));
        assert!(!early.is_ok() && !late.is_ok());
        assert!(early.search_cost_machine_secs < late.search_cost_machine_secs);
        assert!(late.search_cost_machine_secs < clean.search_cost_machine_secs);
        // Deterministic in the full key.
        assert_eq!(
            early,
            ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Crash { at_frac: 0.2 }))
        );
    }

    #[test]
    fn injected_straggle_goes_through_engine() {
        let ev = evaluator();
        let cfg = crate::tunespace::default_config(16);
        let clean = ev.evaluate(&cfg, 0);
        let corrupted =
            ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Straggle { severity: 8.0 }));
        assert!(corrupted.is_ok(), "straggle corrupts, it does not kill");
        // Heavier stragglers must slow the measured run down.
        assert!(
            corrupted.throughput < clean.throughput,
            "straggle-corrupted throughput {} !< clean {}",
            corrupted.throughput,
            clean.throughput
        );
    }

    #[test]
    fn neutral_scenario_is_byte_identical() {
        use mlconf_sim::scenario::ScenarioScript;
        let ev = evaluator();
        let quiet = ev
            .clone()
            .with_scenario(ScenarioScript::scripted("stationary", 0).unwrap());
        let cfg = crate::tunespace::default_config(16);
        // Every path — plain, fidelity, faulted, epoch-tagged, truth —
        // must match the scenario-free evaluator bit for bit.
        assert_eq!(ev.evaluate(&cfg, 0), quiet.evaluate(&cfg, 0));
        assert_eq!(
            ev.evaluate_with_fidelity(&cfg, 1, 0.25),
            quiet.evaluate_with_fidelity_at(&cfg, 1, 0.25, Some(12_345.0))
        );
        assert_eq!(
            ev.evaluate_faulted(&cfg, 0, 1.0, Some(&FaultKind::Crash { at_frac: 0.5 })),
            quiet.evaluate_faulted_at(
                &cfg,
                0,
                1.0,
                Some(&FaultKind::Crash { at_frac: 0.5 }),
                Some(9_999.0)
            )
        );
        assert_eq!(
            ev.true_objective(&cfg),
            quiet.true_objective_at(&cfg, Some(5_000.0))
        );
    }

    #[test]
    fn scenario_epochs_shift_ground_truth() {
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        let mut script = ScenarioScript::stationary("slowdown");
        script.push(ScenarioEvent {
            at_secs: 1_000.0,
            env: EnvState {
                compute_scale: 0.3,
                ..EnvState::neutral()
            },
        });
        // A compute-heavy workload, so the compute cut dominates.
        let ev = ConfigEvaluator::new(
            crate::workload::cnn_cifar(),
            Objective::TimeToAccuracy,
            16,
            42,
        )
        .with_scenario(script);
        let cfg = crate::tunespace::default_config(16);
        let before = ev.true_objective_at(&cfg, Some(0.0)).unwrap();
        let after = ev.true_objective_at(&cfg, Some(2_000.0)).unwrap();
        assert!(
            after > before * 1.2,
            "a 70% compute cut must slow time-to-accuracy: {before} -> {after}"
        );
        // Untagged evaluations still see the static world.
        assert_eq!(ev.true_objective(&cfg).unwrap(), before);
    }

    #[test]
    fn straggler_shift_moves_measurements_but_not_truth() {
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        let mut script = ScenarioScript::stationary("stragglers");
        script.push(ScenarioEvent {
            at_secs: 1_000.0,
            env: EnvState {
                straggler_scale: 8.0,
                ..EnvState::neutral()
            },
        });
        let ev = evaluator().with_scenario(script);
        let cfg = crate::tunespace::default_config(16);
        let calm = ev.evaluate_with_fidelity_at(&cfg, 0, 1.0, Some(0.0));
        let noisy = ev.evaluate_with_fidelity_at(&cfg, 0, 1.0, Some(2_000.0));
        assert_eq!(calm, ev.evaluate(&cfg, 0));
        assert!(
            noisy.throughput < calm.throughput,
            "8x stragglers must slow the measured run: {} -> {}",
            calm.throughput,
            noisy.throughput
        );
        // The noise-free truth strips stragglers by design.
        assert_eq!(
            ev.true_objective_at(&cfg, Some(2_000.0)),
            ev.true_objective(&cfg)
        );
    }

    #[test]
    fn preemption_shrinks_the_cluster_but_stays_valid() {
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        let mut script = ScenarioScript::stationary("wave");
        script.push(ScenarioEvent {
            at_secs: 10.0,
            env: EnvState {
                node_delta: -1_000,
                ..EnvState::neutral()
            },
        });
        let ev = evaluator().with_scenario(script);
        let cfg = crate::tunespace::default_config(16);
        // Losing far more nodes than exist clamps to a 2-node cluster
        // rather than panicking; the evaluation still completes.
        let out = ev.evaluate_with_fidelity_at(&cfg, 0, 1.0, Some(100.0));
        assert!(out.objective.is_some() || out.failure.is_some());
        let truth = ev.true_objective_at(&cfg, Some(100.0));
        let clean = ev.true_objective_at(&cfg, Some(0.0));
        if let (Some(t), Some(c)) = (truth, clean) {
            assert!(t > c, "fewer nodes must be slower: {c} -> {t}");
        }
    }

    #[test]
    fn congestion_flows_through_the_network_model() {
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        let mut script = ScenarioScript::stationary("congested");
        script.push(ScenarioEvent {
            at_secs: 0.0,
            env: EnvState {
                net_scale: 0.15,
                ..EnvState::neutral()
            },
        });
        let ev = evaluator().with_scenario(script);
        let cfg = crate::tunespace::default_config(16);
        let clear = ev.true_objective_at(&cfg, None).unwrap();
        let jammed = ev.true_objective_at(&cfg, Some(1.0)).unwrap();
        assert!(
            jammed > clear,
            "an 85% bandwidth cut must hurt: {clear} -> {jammed}"
        );
    }
}
