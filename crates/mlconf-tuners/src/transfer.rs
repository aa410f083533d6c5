//! Transfer learning across workloads (OtterTune-style warm starting).
//!
//! When a new job arrives, trials from *previously tuned* workloads are
//! informative even though the objective scale differs: configuration
//! quality is strongly rank-correlated across jobs that share a regime
//! (a good cluster shape for one compute-bound CNN is good for another).
//! [`WarmStartBo`] wraps the BO tuner and seeds its surrogate with
//! source-workload trials whose targets are *z-scored per source*, so
//! only the shape transfers, never the scale. Source points also carry
//! extra observation noise so fresh target observations quickly dominate
//! them.

use mlconf_gp::acquisition::maximize_acquisition;
use mlconf_gp::gp::GaussianProcess;
use mlconf_gp::hyperopt::{fit_optimized, HyperoptOptions};
use mlconf_gp::kernel::Kernel;
use mlconf_space::config::Configuration;
use mlconf_space::space::ConfigSpace;
use mlconf_util::rng::Pcg64;
use mlconf_util::sampling::latin_hypercube;

use crate::bo::BoConfig;
use crate::tuner::{TrialHistory, Tuner, TunerDiagnostics, TunerError};

/// A source workload's tuning history, prepared for transfer.
#[derive(Debug, Clone)]
pub struct SourceHistory {
    /// Encoded configurations.
    encoded: Vec<Vec<f64>>,
    /// Z-scored log-objectives.
    z_scores: Vec<f64>,
}

impl SourceHistory {
    /// Prepares a finished tuning history for transfer into `space`.
    ///
    /// Failed trials are dropped (their penalty scale is source-
    /// specific); returns `None` if fewer than 3 successes remain or the
    /// source objective had no variance.
    pub fn from_history(history: &TrialHistory, space: &ConfigSpace) -> Option<Self> {
        let mut encoded = Vec::new();
        let mut logs = Vec::new();
        for t in history.successes() {
            let Some(v) = t.outcome.objective else {
                continue;
            };
            let Ok(enc) = space.encode(&t.config) else {
                continue;
            };
            encoded.push(enc);
            logs.push(v.max(1e-12).log10());
        }
        if logs.len() < 3 {
            return None;
        }
        let n = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        if var.sqrt() < 1e-9 {
            return None;
        }
        let std = var.sqrt();
        let z_scores = logs.iter().map(|v| (v - mean) / std).collect();
        Some(SourceHistory { encoded, z_scores })
    }

    /// The source's `k` best configurations, decoded into `space`,
    /// ranked by z-scored objective (best first); infeasible decodes
    /// are skipped. This is the seeding rule behind both
    /// [`WarmStartBo`]'s initial design and session-level warm starting
    /// ([`crate::session::TuningSession::warm_start`]).
    pub fn best_configs(
        &self,
        space: &ConfigSpace,
        k: usize,
        rng: &mut Pcg64,
    ) -> Vec<Configuration> {
        let mut ranked: Vec<(f64, &Vec<f64>)> =
            self.z_scores.iter().copied().zip(&self.encoded).collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let mut configs = Vec::new();
        for (_, enc) in ranked.into_iter().take(k) {
            if let Ok(cfg) = space.decode_feasible(enc, rng) {
                configs.push(cfg);
            }
        }
        configs
    }

    /// Number of transferred points.
    pub fn len(&self) -> usize {
        self.encoded.len()
    }

    /// Returns `true` if the source carries no points.
    pub fn is_empty(&self) -> bool {
        self.encoded.is_empty()
    }
}

/// BO with warm-started surrogate.
///
/// Until the target history has `handoff` trials, the surrogate is fit
/// on source + target points jointly (targets z-scored the same way);
/// afterwards it behaves exactly like plain BO on target data only.
#[derive(Debug, Clone)]
pub struct WarmStartBo {
    space: ConfigSpace,
    config: BoConfig,
    sources: Vec<SourceHistory>,
    /// Target-trial count at which transfer is switched off.
    handoff: usize,
    /// Initial design size (smaller than cold BO: the transfer replaces
    /// most of the exploration budget).
    init_design: usize,
    pending_init: Option<Vec<Configuration>>,
    last_acquisition: Option<f64>,
    hyperopt_rng: Pcg64,
}

impl WarmStartBo {
    /// Creates a warm-started BO tuner.
    ///
    /// # Panics
    ///
    /// Panics if `handoff == 0`.
    pub fn new(
        space: ConfigSpace,
        config: BoConfig,
        sources: Vec<SourceHistory>,
        handoff: usize,
        seed: u64,
    ) -> Self {
        assert!(handoff > 0, "handoff must be positive");
        let init_design = if sources.iter().any(|s| !s.is_empty()) {
            3
        } else {
            (3 * space.dims()).clamp(4, 12)
        };
        WarmStartBo {
            space,
            config,
            sources,
            handoff,
            init_design,
            pending_init: None,
            last_acquisition: None,
            hyperopt_rng: Pcg64::with_stream(seed, 0x7a6e),
        }
    }

    /// Extra noise variance (standardized units) added to source points.
    const SOURCE_NOISE: f64 = 0.25;

    /// Builds joint training data: target history (z-scored) plus all
    /// source points.
    fn joint_training_data(&self, history: &TrialHistory) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut logs = Vec::new();
        let mut target_enc = Vec::new();
        for t in history.successes() {
            let Some(v) = t.outcome.objective else {
                continue;
            };
            let Ok(enc) = self.space.encode(&t.config) else {
                continue;
            };
            target_enc.push(enc);
            logs.push(v.max(1e-12).log10());
        }
        // Z-score the target the same way sources were.
        let n = logs.len().max(1) as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let std = {
            let var = logs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            var.sqrt().max(1e-6)
        };
        let mut xs = target_enc;
        let mut ys: Vec<f64> = logs.iter().map(|v| (v - mean) / std).collect();
        for s in &self.sources {
            xs.extend(s.encoded.iter().cloned());
            ys.extend(s.z_scores.iter().copied());
        }
        (xs, ys)
    }

    fn fit_joint(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Option<GaussianProcess> {
        let template = Kernel::new(self.config.kernel, self.space.dims());
        // The inflated noise floor stands in for source-target mismatch.
        let opts = HyperoptOptions {
            log_noise_bounds: (Self::SOURCE_NOISE.ln(), (1.5f64).ln()),
            ..HyperoptOptions::default()
        };
        fit_optimized(&template, xs, ys, &opts, &mut self.hyperopt_rng).ok()
    }
}

impl Tuner for WarmStartBo {
    fn name(&self) -> &str {
        "bo-transfer"
    }

    fn suggest(
        &mut self,
        history: &TrialHistory,
        rng: &mut Pcg64,
    ) -> Result<Configuration, TunerError> {
        // Past the handoff, or with no usable sources, defer to the
        // plain-BO data path by fitting on target data only. (We keep
        // one implementation and simply drop the sources.)
        if history.len() >= self.handoff {
            self.sources.clear();
        }

        if history.len() < self.init_design {
            if self.pending_init.is_none() {
                let mut configs = Vec::new();
                // Seed with the best source configurations (decoded) plus
                // a couple of LHS points for coverage.
                for s in &self.sources {
                    configs.extend(s.best_configs(&self.space, 2, rng));
                }
                for p in latin_hypercube(self.init_design, self.space.dims(), rng) {
                    if let Ok(cfg) = self.space.decode_feasible(&p, rng) {
                        configs.push(cfg);
                    }
                }
                configs.truncate(self.init_design.max(2));
                configs.reverse();
                self.pending_init = Some(configs);
            }
            if let Some(cfg) = self.pending_init.as_mut().and_then(Vec::pop) {
                return Ok(cfg);
            }
            return Ok(self.space.sample(rng)?);
        }

        let (xs, ys) = self.joint_training_data(history);
        if xs.len() < 2 {
            return Ok(self.space.sample(rng)?);
        }
        let Some(gp) = self.fit_joint(&xs, &ys) else {
            return Ok(self.space.sample(rng)?);
        };
        // Incumbent in z-space: the minimum of the *target* portion.
        let target_successes = history.successes().count();
        let best = ys
            .iter()
            .take(target_successes)
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let best = if best.is_finite() { best } else { 0.0 };

        let anchors: Vec<Vec<f64>> = history
            .best()
            .and_then(|b| self.space.encode(&b.config).ok())
            .into_iter()
            .collect();
        let choice = maximize_acquisition(
            &gp,
            self.config.acquisition,
            best,
            self.space.dims(),
            self.config.candidates,
            &anchors,
            rng,
        );
        self.last_acquisition = Some(choice.value);
        let cfg = self
            .space
            .decode_feasible(&choice.point, rng)
            .or_else(|_| self.space.sample(rng))?;
        if history.evaluations_of(&cfg) >= 2 {
            let neighbors = self.space.neighbors(&cfg)?;
            if !neighbors.is_empty() {
                use rand::Rng;
                return Ok(neighbors[rng.gen_range(0..neighbors.len())].clone());
            }
        }
        Ok(cfg)
    }

    fn diagnostics(&self) -> TunerDiagnostics {
        TunerDiagnostics {
            last_acquisition: self.last_acquisition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::BoTuner;
    use crate::session::TuningSession;
    use mlconf_workloads::evaluator::ConfigEvaluator;
    use mlconf_workloads::objective::Objective;
    use mlconf_workloads::workload::{cnn_cifar, lda_news, mlp_mnist};

    fn tuned_source(seed: u64) -> (TrialHistory, ConfigSpace) {
        // Tune a *related* compute-bound workload to produce transferable
        // history.
        let ev = ConfigEvaluator::new(lda_news(), Objective::TimeToAccuracy, 16, seed);
        let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
        let r = TuningSession::new(&ev, 25, seed).run(&mut t);
        (r.history, ev.space().clone())
    }

    #[test]
    fn source_history_zscores_and_filters() {
        let (h, space) = tuned_source(1);
        let s = SourceHistory::from_history(&h, &space).expect("source usable");
        assert!(s.len() >= 3);
        let mean: f64 = s.z_scores.iter().sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < 1e-9, "z-scores must have zero mean");
    }

    #[test]
    fn source_history_rejects_degenerate() {
        let space = mlconf_workloads::tunespace::standard_space(16);
        let mut h = TrialHistory::new();
        assert!(SourceHistory::from_history(&h, &space).is_none());
        // Constant objective: no variance, nothing to transfer.
        let cfg = mlconf_workloads::tunespace::default_config(16);
        for _ in 0..5 {
            h.push(
                cfg.clone(),
                mlconf_workloads::objective::TrialOutcome {
                    objective: Some(10.0),
                    failure: None,
                    tta_secs: 10.0,
                    cost_usd: 1.0,
                    throughput: 1.0,
                    staleness_steps: 0.0,
                    search_cost_machine_secs: 1.0,
                    censored_at: None,
                    attempts: 1,
                },
            );
        }
        assert!(SourceHistory::from_history(&h, &space).is_none());
    }

    #[test]
    fn warm_start_beats_cold_start_early() {
        // Tune cnn (compute-bound) warm-started from lda (also compute-
        // bound). Compare best-so-far at a small budget against cold BO,
        // across seeds; transfer should win in the early regime on most.
        let budget = 10;
        let mut wins = 0;
        for seed in [1u64, 2, 3, 4, 5] {
            let (src_hist, src_space) = tuned_source(seed);
            let source = SourceHistory::from_history(&src_hist, &src_space).expect("usable");

            let ev = ConfigEvaluator::new(cnn_cifar(), Objective::TimeToAccuracy, 16, seed + 100);
            let mut warm = WarmStartBo::new(
                ev.space().clone(),
                BoConfig::default(),
                vec![source],
                20,
                seed,
            );
            let warm_r = TuningSession::new(&ev, budget, seed + 100).run(&mut warm);

            let mut cold = BoTuner::with_defaults(ev.space().clone(), seed);
            let cold_r = TuningSession::new(&ev, budget, seed + 100).run(&mut cold);

            if warm_r.best_value() <= cold_r.best_value() {
                wins += 1;
            }
        }
        assert!(
            wins >= 3,
            "warm start won only {wins}/5 seeds at 10 trials against cold BO"
        );
    }

    #[test]
    fn empty_sources_degrade_to_plain_bo_behaviour() {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 7);
        let mut t = WarmStartBo::new(ev.space().clone(), BoConfig::default(), vec![], 20, 7);
        let r = TuningSession::new(&ev, 12, 7).run(&mut t);
        assert_eq!(r.history.len(), 12);
        assert!(r.best_value().is_finite());
    }

    #[test]
    fn handoff_clears_sources() {
        let (src_hist, src_space) = tuned_source(9);
        let source = SourceHistory::from_history(&src_hist, &src_space).expect("usable");
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 9);
        let mut t = WarmStartBo::new(ev.space().clone(), BoConfig::default(), vec![source], 5, 9);
        let r = TuningSession::new(&ev, 8, 9).run(&mut t);
        assert_eq!(r.history.len(), 8);
        assert!(t.sources.is_empty(), "sources must be dropped at handoff");
    }

    #[test]
    fn session_warm_start_seeds_from_source_best_configs() {
        let (src_hist, src_space) = tuned_source(11);
        let source = SourceHistory::from_history(&src_hist, &src_space).expect("usable");
        let ev = ConfigEvaluator::new(cnn_cifar(), Objective::TimeToAccuracy, 16, 11);
        let mut rng = Pcg64::with_stream(11, 0x5eed);
        let seeds = source.best_configs(ev.space(), 2, &mut rng);
        assert!(!seeds.is_empty(), "a usable source yields seed configs");
        let mut t = BoTuner::with_defaults(ev.space().clone(), 11);
        let r = TuningSession::new(&ev, 10, 11)
            .warm_start(seeds.clone())
            .run(&mut t);
        assert_eq!(r.history.len(), 10);
        for (i, cfg) in seeds.iter().enumerate() {
            assert_eq!(r.history.trials()[i].config.key(), cfg.key());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let (src_hist, src_space) = tuned_source(4);
            let source = SourceHistory::from_history(&src_hist, &src_space).expect("usable");
            let ev = ConfigEvaluator::new(cnn_cifar(), Objective::TimeToAccuracy, 16, 4);
            let mut t =
                WarmStartBo::new(ev.space().clone(), BoConfig::default(), vec![source], 20, 4);
            TuningSession::new(&ev, 8, 4).run(&mut t)
        };
        assert_eq!(run(), run());
    }
}
