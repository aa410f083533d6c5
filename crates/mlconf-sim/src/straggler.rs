//! Straggler and heterogeneity modelling.
//!
//! Three effects observed in real clusters, each independently tunable:
//!
//! 1. **Persistent heterogeneity** — each node gets a fixed speed factor
//!    drawn once per run (co-location, silicon lottery).
//! 2. **Per-task jitter** — every task's duration is multiplied by a
//!    unit-mean log-normal factor (OS noise, GC, cache state).
//! 3. **Transient stragglers** — with small probability a task is hit by
//!    a heavy-tailed Pareto slowdown (page cache miss storms, network
//!    incast, background maintenance).

use mlconf_util::dist::{LogNormal, Pareto};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the straggler model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerModel {
    /// Coefficient of variation of persistent per-node speed factors.
    pub node_speed_cv: f64,
    /// Coefficient of variation of per-task multiplicative jitter.
    pub task_jitter_cv: f64,
    /// Probability that a task is hit by a transient slowdown.
    pub transient_prob: f64,
    /// Pareto shape of transient slowdowns (smaller = heavier tail);
    /// slowdown factors start at [`StragglerModel::TRANSIENT_MIN_FACTOR`].
    pub transient_shape: f64,
}

impl StragglerModel {
    /// Minimum multiplicative slowdown of a transient straggler event.
    pub const TRANSIENT_MIN_FACTOR: f64 = 1.5;

    /// The default model: mild heterogeneity matching public cloud
    /// measurements (±5% node spread, 10% task jitter, 1% transient
    /// stragglers with a 2.2-shaped tail).
    pub fn cloud_default() -> Self {
        StragglerModel {
            node_speed_cv: 0.05,
            task_jitter_cv: 0.10,
            transient_prob: 0.01,
            transient_shape: 2.2,
        }
    }

    /// A perfectly homogeneous, noise-free cluster (for tests and
    /// analytic cross-checks).
    pub fn none() -> Self {
        StragglerModel {
            node_speed_cv: 0.0,
            task_jitter_cv: 0.0,
            transient_prob: 0.0,
            transient_shape: 2.2,
        }
    }

    /// The cloud default with every noise magnitude scaled by
    /// `severity` (0 = none, 1 = default); used by the robustness
    /// experiment (E9).
    ///
    /// # Panics
    ///
    /// Panics if `severity` is negative or non-finite.
    pub fn scaled(severity: f64) -> Self {
        StragglerModel::cloud_default().with_severity_scaled(severity)
    }

    /// This model with its magnitudes multiplied by `severity`: node-speed
    /// CV, task-jitter CV, and transient probability (capped at 0.5).
    /// The tail shape is kept. This is how a scenario's
    /// `straggler_scale` lands on the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `severity` is negative or non-finite.
    pub fn with_severity_scaled(&self, severity: f64) -> Self {
        assert!(
            severity >= 0.0 && severity.is_finite(),
            "severity must be >= 0, got {severity}"
        );
        StragglerModel {
            node_speed_cv: self.node_speed_cv * severity,
            task_jitter_cv: self.task_jitter_cv * severity,
            transient_prob: (self.transient_prob * severity).min(0.5),
            transient_shape: self.transient_shape,
        }
    }

    /// Validates the model's parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (negative CVs, probability
    /// outside `[0,1]`, shape ≤ 1 which would make the tail mean infinite).
    pub fn validate(&self) {
        assert!(self.node_speed_cv >= 0.0, "node_speed_cv < 0");
        assert!(self.task_jitter_cv >= 0.0, "task_jitter_cv < 0");
        assert!(
            (0.0..=1.0).contains(&self.transient_prob),
            "transient_prob out of [0,1]"
        );
        assert!(self.transient_shape > 1.0, "transient_shape must exceed 1");
    }

    /// Draws persistent speed factors for `n` nodes (multiplies task
    /// durations; ≥ means slower).
    pub fn draw_node_factors<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        self.validate();
        if self.node_speed_cv == 0.0 {
            return vec![1.0; n];
        }
        let d = LogNormal::unit_mean(self.node_speed_cv).expect("validated cv");
        (0..n).map(|_| d.sample(rng)).collect()
    }

    /// Draws one task's multiplicative duration factor (jitter plus a
    /// possible transient slowdown).
    pub fn draw_task_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut factor = if self.task_jitter_cv == 0.0 {
            1.0
        } else {
            LogNormal::unit_mean(self.task_jitter_cv)
                .expect("validated cv")
                .sample(rng)
        };
        if self.transient_prob > 0.0 && rng.gen::<f64>() < self.transient_prob {
            let p = Pareto::new(Self::TRANSIENT_MIN_FACTOR, self.transient_shape)
                .expect("validated shape");
            factor *= p.sample(rng);
        }
        factor
    }
}

impl Default for StragglerModel {
    fn default() -> Self {
        StragglerModel::cloud_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_util::rng::Pcg64;
    use mlconf_util::stats::OnlineStats;

    #[test]
    fn none_is_deterministic_unity() {
        let m = StragglerModel::none();
        let mut rng = Pcg64::seed(1);
        assert_eq!(m.draw_node_factors(5, &mut rng), vec![1.0; 5]);
        for _ in 0..32 {
            assert_eq!(m.draw_task_factor(&mut rng), 1.0);
        }
    }

    #[test]
    fn node_factors_have_requested_spread() {
        let m = StragglerModel {
            node_speed_cv: 0.2,
            ..StragglerModel::none()
        };
        let mut rng = Pcg64::seed(2);
        let s: OnlineStats = m.draw_node_factors(20_000, &mut rng).into_iter().collect();
        assert!((s.mean() - 1.0).abs() < 0.01, "mean {}", s.mean());
        assert!(
            (s.std_dev() - 0.2).abs() < 0.02,
            "cv {} want 0.2",
            s.std_dev()
        );
        assert!(s.min() > 0.0);
    }

    #[test]
    fn task_factor_mean_near_one_without_transients() {
        let m = StragglerModel {
            task_jitter_cv: 0.1,
            ..StragglerModel::none()
        };
        let mut rng = Pcg64::seed(3);
        let s: OnlineStats = (0..40_000).map(|_| m.draw_task_factor(&mut rng)).collect();
        assert!((s.mean() - 1.0).abs() < 0.01, "mean {}", s.mean());
    }

    #[test]
    fn transients_fatten_the_tail() {
        let base = StragglerModel {
            task_jitter_cv: 0.05,
            ..StragglerModel::none()
        };
        let heavy = StragglerModel {
            task_jitter_cv: 0.05,
            transient_prob: 0.05,
            transient_shape: 2.0,
            ..StragglerModel::none()
        };
        let mut rng = Pcg64::seed(4);
        let max_base = (0..20_000)
            .map(|_| base.draw_task_factor(&mut rng))
            .fold(0.0, f64::max);
        let max_heavy = (0..20_000)
            .map(|_| heavy.draw_task_factor(&mut rng))
            .fold(0.0, f64::max);
        assert!(
            max_heavy > max_base * 1.2,
            "heavy tail max {max_heavy} vs base {max_base}"
        );
    }

    #[test]
    fn scaled_zero_equals_none() {
        let s = StragglerModel::scaled(0.0);
        assert_eq!(s.node_speed_cv, 0.0);
        assert_eq!(s.task_jitter_cv, 0.0);
        assert_eq!(s.transient_prob, 0.0);
    }

    #[test]
    fn scaled_caps_probability() {
        let s = StragglerModel::scaled(1000.0);
        assert!(s.transient_prob <= 0.5);
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn scaled_rejects_negative() {
        StragglerModel::scaled(-1.0);
    }

    #[test]
    #[should_panic(expected = "transient_shape")]
    fn validate_rejects_infinite_mean_tail() {
        StragglerModel {
            transient_shape: 1.0,
            ..StragglerModel::cloud_default()
        }
        .validate();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mlconf_util::rng::Pcg64;
    use proptest::prelude::*;

    fn model(params: (f64, f64, f64, f64)) -> StragglerModel {
        let (node_speed_cv, task_jitter_cv, transient_prob, transient_shape) = params;
        StragglerModel {
            node_speed_cv,
            task_jitter_cv,
            transient_prob,
            transient_shape,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Node factors are always strictly positive and finite — the
        /// unit-mean log-normal can dip below 1 (a fast node) but never
        /// to zero or infinity — and identical seeds give identical
        /// draws.
        #[test]
        fn node_factors_positive_finite_deterministic(
            params in (0.0f64..0.5, 0.0f64..0.5, 0.0f64..0.3, 1.5f64..4.0),
            n in 0usize..64,
            seed in 0u64..100,
        ) {
            let m = model(params);
            let a = m.draw_node_factors(n, &mut Pcg64::seed(seed));
            prop_assert_eq!(a.len(), n);
            for &f in &a {
                prop_assert!(f > 0.0 && f.is_finite(), "bad node factor {f}");
            }
            let b = m.draw_node_factors(n, &mut Pcg64::seed(seed));
            prop_assert_eq!(a, b, "same seed must give same factors");
        }

        /// Task factors are strictly positive, finite, and at least the
        /// Pareto floor whenever a transient actually fired (factor can
        /// only grow); identical seeds replay identically.
        #[test]
        fn task_factors_positive_finite_deterministic(
            params in (0.0f64..0.5, 0.0f64..0.5, 0.0f64..0.3, 1.5f64..4.0),
            seed in 0u64..100,
        ) {
            let m = model(params);
            let mut rng = Pcg64::seed(seed);
            let draws: Vec<f64> = (0..64).map(|_| m.draw_task_factor(&mut rng)).collect();
            // With cv <= 0.5 and a Pareto tail of shape >= 1.5 starting
            // at 1.5, a 1e4x slowdown would be a ~1-in-1e6 event; the
            // deterministic draw stream makes this bound stable.
            for &f in &draws {
                prop_assert!(f > 0.0 && f.is_finite(), "bad task factor {f}");
                prop_assert!(f < 1e4, "tail unreasonably heavy for params: {f}");
            }
            let mut rng2 = Pcg64::seed(seed);
            let replay: Vec<f64> = (0..64).map(|_| m.draw_task_factor(&mut rng2)).collect();
            prop_assert_eq!(draws, replay, "same seed must replay identically");
        }
    }
}
