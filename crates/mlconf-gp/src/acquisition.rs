//! Acquisition functions for Bayesian optimization (minimization
//! convention) and their maximization over the unit hypercube.
//!
//! All scores are *higher-is-better*: the tuner picks the candidate with
//! the maximum acquisition value. The objective being tuned (time-to-
//! accuracy, cost) is minimized, so "improvement" means falling below the
//! incumbent.

use mlconf_util::optim::{claim_map, nelder_mead, NelderMeadOptions};
use mlconf_util::sampling::{halton, uniform_hypercube};
use mlconf_util::special::{normal_cdf, normal_pdf};
use rand::Rng;

use crate::gp::PredictWorkspace;
use crate::surrogate::Surrogate;

/// Acquisition function family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement below the incumbent, with an exploration
    /// jitter `xi` (0.01 is the CherryPick-style default).
    ExpectedImprovement {
        /// Exploration jitter ξ subtracted from the incumbent.
        xi: f64,
    },
    /// Probability of improvement below the incumbent.
    ProbabilityOfImprovement {
        /// Exploration jitter ξ subtracted from the incumbent.
        xi: f64,
    },
    /// Lower confidence bound `−(μ − β·σ)` (a.k.a. GP-UCB for
    /// minimization).
    LowerConfidenceBound {
        /// Exploration weight β.
        beta: f64,
    },
}

impl Acquisition {
    /// The default used by the paper-style tuner: EI with ξ = 0.01.
    pub fn default_ei() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Acquisition::ExpectedImprovement { .. } => "ei",
            Acquisition::ProbabilityOfImprovement { .. } => "pi",
            Acquisition::LowerConfidenceBound { .. } => "lcb",
        }
    }

    /// Scores a posterior `(mean, std_dev)` against the incumbent best
    /// (smallest) observed objective. Higher is better.
    pub fn score(&self, mean: f64, std_dev: f64, best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                let improvement = best - xi - mean;
                if std_dev <= 1e-12 {
                    improvement.max(0.0)
                } else {
                    let z = improvement / std_dev;
                    improvement * normal_cdf(z) + std_dev * normal_pdf(z)
                }
            }
            Acquisition::ProbabilityOfImprovement { xi } => {
                let improvement = best - xi - mean;
                if std_dev <= 1e-12 {
                    if improvement > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    normal_cdf(improvement / std_dev)
                }
            }
            Acquisition::LowerConfidenceBound { beta } => -(mean - beta * std_dev),
        }
    }

    /// Scores a surrogate posterior at an encoded point.
    pub fn score_at<S: Surrogate + ?Sized>(&self, gp: &S, x: &[f64], best: f64) -> f64 {
        let p = gp.predict(x);
        self.score(p.mean, p.std_dev(), best)
    }
}

impl std::fmt::Display for Acquisition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Acquisition::ExpectedImprovement { xi } => write!(f, "ei(xi={xi})"),
            Acquisition::ProbabilityOfImprovement { xi } => write!(f, "pi(xi={xi})"),
            Acquisition::LowerConfidenceBound { beta } => write!(f, "lcb(beta={beta})"),
        }
    }
}

/// Result of acquisition maximization.
#[derive(Debug, Clone, PartialEq)]
pub struct AcquisitionChoice {
    /// The chosen point in the unit hypercube.
    pub point: Vec<f64>,
    /// Acquisition value at the point.
    pub value: f64,
}

/// Candidates scored per [`claim_map`] job: each job scores its chunk
/// in one [`Surrogate::predict_many`] batch.
const SCORE_CHUNK: usize = 64;

/// Maximizes the acquisition over `[0,1]^dims` with a hybrid strategy:
/// a large cheap candidate set (uniform + Halton + perturbations of the
/// incumbent-best training points implicit in `anchors`), followed by
/// Nelder–Mead refinement of the best few candidates.
///
/// `anchors` (may be empty) are points worth local exploration, typically
/// the best observed configurations so far.
///
/// Scoring and refinement run through [`claim_map`], so they use the
/// calling thread's [`auto_threads`](mlconf_util::optim::auto_threads)
/// count. Seed-stable by construction: every random candidate is drawn
/// from `rng` before any scoring happens, candidate scores land back in
/// draw order, the sort is stable, and the refined winners fold in rank
/// order — so for a fixed seed the choice is bit-identical for any
/// thread count.
///
/// # Panics
///
/// Panics if `dims == 0` or `n_candidates == 0`.
pub fn maximize_acquisition<S: Surrogate + Sync + ?Sized, R: Rng + ?Sized>(
    gp: &S,
    acq: Acquisition,
    best: f64,
    dims: usize,
    n_candidates: usize,
    anchors: &[Vec<f64>],
    rng: &mut R,
) -> AcquisitionChoice {
    assert!(dims > 0, "maximize_acquisition needs dims > 0");
    assert!(n_candidates > 0, "need at least one candidate");

    // All randomness happens up front, before any (possibly parallel)
    // scoring: the consumed RNG stream is independent of the thread count.
    let mut candidates = uniform_hypercube(n_candidates / 2 + 1, dims, rng);
    if dims <= 16 {
        candidates.extend(halton(n_candidates / 2 + 1, dims));
    } else {
        candidates.extend(uniform_hypercube(n_candidates / 2 + 1, dims, rng));
    }
    // Local perturbations around anchors.
    for anchor in anchors.iter().take(8) {
        for _ in 0..4 {
            let p: Vec<f64> = anchor
                .iter()
                .map(|&v| (v + rng.gen_range(-0.08..0.08)).clamp(0.0, 1.0))
                .collect();
            candidates.push(p);
        }
    }

    let chunks: Vec<&[Vec<f64>]> = candidates.chunks(SCORE_CHUNK).collect();
    let scores = claim_map(chunks.len(), |i| {
        gp.predict_many(chunks[i])
            .iter()
            .map(|p| acq.score(p.mean, p.std_dev(), best))
            .collect::<Vec<f64>>()
    })
    .concat();
    let mut scored: Vec<(f64, Vec<f64>)> = scores.into_iter().zip(candidates).collect();
    // Stable sort: candidates with equal scores keep draw order, so the
    // refinement starts below do not depend on the chunking above.
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    // Refine the top few with bounded Nelder–Mead on the negated score.
    let bounds: Vec<(f64, f64)> = vec![(0.0, 1.0); dims];
    let nm = NelderMeadOptions {
        max_evals: 60,
        initial_step: 0.05,
        ..Default::default()
    };
    let refined = claim_map(scored.len().min(3), |i| {
        let mut ws = PredictWorkspace::default();
        let mut f = |x: &[f64]| {
            let p = gp.predict_with(x, &mut ws);
            -acq.score(p.mean, p.std_dev(), best)
        };
        nelder_mead(&mut f, &scored[i].1, Some(&bounds), &nm)
    });

    // Fold in rank order with strict improvement, matching the
    // sequential loop's earliest-winner tie-breaking.
    let mut best_choice = AcquisitionChoice {
        point: scored[0].1.clone(),
        value: scored[0].0,
    };
    for r in refined {
        if -r.fx > best_choice.value {
            best_choice = AcquisitionChoice {
                point: r.x,
                value: -r.fx,
            };
        }
    }
    best_choice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GaussianProcess;
    use crate::kernel::{Kernel, KernelFamily};
    use mlconf_util::optim::set_threads;
    use mlconf_util::rng::Pcg64;

    #[test]
    fn ei_zero_when_mean_far_above_best_with_no_uncertainty() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        assert_eq!(acq.score(10.0, 0.0, 5.0), 0.0);
        assert_eq!(acq.score(3.0, 0.0, 5.0), 2.0);
    }

    #[test]
    fn ei_increases_with_uncertainty() {
        let acq = Acquisition::default_ei();
        let low = acq.score(5.0, 0.1, 5.0);
        let high = acq.score(5.0, 2.0, 5.0);
        assert!(high > low);
    }

    #[test]
    fn ei_decreases_with_mean() {
        let acq = Acquisition::default_ei();
        assert!(acq.score(4.0, 1.0, 5.0) > acq.score(6.0, 1.0, 5.0));
    }

    #[test]
    fn pi_is_a_probability() {
        let acq = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        for (m, s) in [(0.0, 1.0), (10.0, 3.0), (-5.0, 0.5)] {
            let v = acq.score(m, s, 1.0);
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(acq.score(0.0, 0.0, 1.0), 1.0);
        assert_eq!(acq.score(2.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn lcb_trades_off_mean_and_variance() {
        let acq = Acquisition::LowerConfidenceBound { beta: 2.0 };
        // Lower mean wins at equal std.
        assert!(acq.score(1.0, 1.0, 0.0) > acq.score(2.0, 1.0, 0.0));
        // Higher std wins at equal mean.
        assert!(acq.score(1.0, 2.0, 0.0) > acq.score(1.0, 1.0, 0.0));
    }

    fn fitted_gp() -> GaussianProcess {
        // V-shaped objective with minimum at x = 0.7.
        let xs: Vec<Vec<f64>> = vec![
            vec![0.0],
            vec![0.2],
            vec![0.4],
            vec![0.55],
            vec![0.85],
            vec![1.0],
        ];
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] - 0.7).abs() * 10.0).collect();
        GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, 1), xs, ys, 1e-6).unwrap()
    }

    #[test]
    fn maximizer_targets_the_minimum_region() {
        let gp = fitted_gp();
        let mut rng = Pcg64::seed(1);
        let choice = maximize_acquisition(
            &gp,
            Acquisition::default_ei(),
            1.5, // best observed = |0.85-0.7|*10
            1,
            200,
            &[vec![0.85]],
            &mut rng,
        );
        assert!(
            (choice.point[0] - 0.7).abs() < 0.15,
            "chose {} (value {})",
            choice.point[0],
            choice.value
        );
        assert!(choice.value > 0.0);
    }

    #[test]
    fn maximizer_stays_in_unit_cube() {
        let gp = fitted_gp();
        let mut rng = Pcg64::seed(2);
        for acq in [
            Acquisition::default_ei(),
            Acquisition::ProbabilityOfImprovement { xi: 0.01 },
            Acquisition::LowerConfidenceBound { beta: 2.0 },
        ] {
            let c = maximize_acquisition(&gp, acq, 1.5, 1, 64, &[], &mut rng);
            assert!((0.0..=1.0).contains(&c.point[0]), "{acq}: {:?}", c.point);
        }
    }

    #[test]
    fn maximizer_deterministic_under_seed() {
        let gp = fitted_gp();
        let a = maximize_acquisition(
            &gp,
            Acquisition::default_ei(),
            1.5,
            1,
            100,
            &[],
            &mut Pcg64::seed(5),
        );
        let b = maximize_acquisition(
            &gp,
            Acquisition::default_ei(),
            1.5,
            1,
            100,
            &[],
            &mut Pcg64::seed(5),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn acquisition_bit_identical_for_any_thread_count() {
        let gp = fitted_gp();
        let anchors = vec![vec![0.85], vec![0.55]];
        let run = |threads: usize| {
            set_threads(threads);
            maximize_acquisition(
                &gp,
                Acquisition::default_ei(),
                1.5,
                1,
                200,
                &anchors,
                &mut Pcg64::seed(9),
            )
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.point, sequential.point, "threads={threads}");
            assert_eq!(
                parallel.value.to_bits(),
                sequential.value.to_bits(),
                "threads={threads}"
            );
        }
        set_threads(0);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Acquisition::default_ei().name(), "ei");
        let s = format!("{}", Acquisition::LowerConfidenceBound { beta: 2.0 });
        assert!(s.contains("beta=2"));
    }
}
