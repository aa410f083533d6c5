//! Transfer learning across workloads (OtterTune-style warm starting).
//!
//! When a new job arrives, trials from *previously tuned* workloads are
//! informative even though the objective scale differs: configuration
//! quality is strongly rank-correlated across jobs that share a regime
//! (a good cluster shape for one compute-bound CNN is good for another).
//! A [`SourceHistory`] holds a source workload's trials with targets
//! *z-scored per source*, so only the shape transfers, never the scale.
//! Sources enter the one BO implementation as prior data
//! ([`crate::bo::BoTuner::with_prior`]), which seeds its initial design
//! with each source's best configurations, z-scores the target trials
//! the same way, and floors the surrogate's noise so fresh target
//! observations quickly dominate the source points.

use mlconf_space::config::Configuration;
use mlconf_space::space::ConfigSpace;
use mlconf_util::rng::Pcg64;

use crate::tuner::TrialHistory;

/// A source workload's tuning history, prepared for transfer.
#[derive(Debug, Clone)]
pub struct SourceHistory {
    /// Encoded configurations.
    pub(crate) encoded: Vec<Vec<f64>>,
    /// Z-scored log-objectives.
    pub(crate) z_scores: Vec<f64>,
}

/// Mean and population standard deviation of `values` (`(0, 0)` when
/// empty).
pub(crate) fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
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
        let (mean, std) = mean_std(&logs);
        if std < 1e-9 {
            return None;
        }
        let z_scores = logs.iter().map(|v| (v - mean) / std).collect();
        Some(SourceHistory { encoded, z_scores })
    }

    /// The source's `k` best configurations, decoded into `space`,
    /// ranked by z-scored objective (best first); infeasible decodes
    /// are skipped. This is the seeding rule behind both a prior's
    /// initial design in [`crate::bo::BoTuner`] and session-level warm
    /// starting ([`crate::session::TuningSession::warm_start`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::BoTuner;
    use crate::session::TuningSession;
    use crate::tuner::Tuner;
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
            let mut warm =
                BoTuner::with_defaults(ev.space().clone(), seed).with_prior(vec![source]);
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
    fn empty_prior_is_plain_bo_at_golden_seeds() {
        // Past the 12-point default design, so the model phase runs too.
        for seed in [11u64, 22, 33] {
            let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
            let mut plain = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut empty = BoTuner::with_defaults(ev.space().clone(), seed).with_prior(vec![]);
            let a = TuningSession::new(&ev, 16, seed).run(&mut plain);
            let b = TuningSession::new(&ev, 16, seed).run(&mut empty);
            assert_eq!(a.history, b.history, "seed {seed}");
            assert_eq!(plain.checkpoint(), empty.checkpoint(), "seed {seed}");
        }
    }

    #[test]
    fn prior_tuners_do_not_checkpoint() {
        // A snapshot cannot carry the sources, so none is offered.
        let (src_hist, src_space) = tuned_source(9);
        let source = SourceHistory::from_history(&src_hist, &src_space).expect("usable");
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 9);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 9).with_prior(vec![source]);
        assert!(t.checkpoint().is_none());
        let r = TuningSession::new(&ev, 8, 9).run(&mut t);
        assert_eq!(r.history.len(), 8);
        assert!(t.checkpoint().is_none());
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
            let mut t = BoTuner::with_defaults(ev.space().clone(), 4).with_prior(vec![source]);
            TuningSession::new(&ev, 8, 4).run(&mut t)
        };
        assert_eq!(run(), run());
    }
}
