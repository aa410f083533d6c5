//! Multi-objective tuning: the time-to-accuracy vs dollar-cost Pareto
//! front.
//!
//! Faster clusters are more expensive; the interesting answer is rarely
//! one configuration but the *frontier* of non-dominated trade-offs.
//! Every [`TrialOutcome`](mlconf_workloads::objective::TrialOutcome)
//! already carries both objectives, so the frontier comes almost for
//! free: run the single-objective tuner a few times with different
//! emphases (pure time, pure cost, and a spread of deadline-penalized
//! compromises), pool every trial ever evaluated, and keep the
//! non-dominated set.

use mlconf_space::config::Configuration;
use mlconf_util::rng::Pcg64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::Workload;

use crate::bo::BoTuner;
use crate::session::TuningSession;
use crate::tuner::TrialHistory;

/// One point on (or off) the time/cost plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: Configuration,
    /// Predicted wall-clock seconds to target quality.
    pub tta_secs: f64,
    /// Predicted dollars to target quality.
    pub cost_usd: f64,
}

impl ParetoPoint {
    /// Whether `self` dominates `other` (no worse on both axes, strictly
    /// better on at least one).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.tta_secs <= other.tta_secs
            && self.cost_usd <= other.cost_usd
            && (self.tta_secs < other.tta_secs || self.cost_usd < other.cost_usd)
    }
}

/// Extracts candidate points from a trial history (successes only, one
/// per distinct configuration, keeping its best observation).
pub fn points_from_history(history: &TrialHistory) -> Vec<ParetoPoint> {
    let mut best: std::collections::BTreeMap<String, ParetoPoint> = Default::default();
    for t in history.successes() {
        let p = ParetoPoint {
            config: t.config.clone(),
            tta_secs: t.outcome.tta_secs,
            cost_usd: t.outcome.cost_usd,
        };
        match best.get(&t.config.key()) {
            Some(existing) if existing.tta_secs <= p.tta_secs => {}
            _ => {
                best.insert(t.config.key(), p);
            }
        }
    }
    best.into_values().collect()
}

/// Filters a point set down to its Pareto front, sorted by ascending
/// time-to-accuracy (and therefore descending cost).
pub fn pareto_front(points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    let mut front: Vec<ParetoPoint> = Vec::new();
    for p in points {
        if !p.tta_secs.is_finite() || !p.cost_usd.is_finite() {
            continue;
        }
        if front.iter().any(|q| q.dominates(&p)) {
            continue;
        }
        front.retain(|q| !p.dominates(q));
        front.push(p);
    }
    front.sort_by(|a, b| {
        a.tta_secs
            .partial_cmp(&b.tta_secs)
            .expect("finite")
            .then(a.cost_usd.partial_cmp(&b.cost_usd).expect("finite"))
    });
    front.dedup_by(|a, b| a.config.key() == b.config.key());
    front
}

/// The "knee": the front point minimizing the product of normalized
/// time and cost (a scale-free balance heuristic). `None` on an empty
/// front.
pub fn knee(front: &[ParetoPoint]) -> Option<&ParetoPoint> {
    let t_min = front
        .iter()
        .map(|p| p.tta_secs)
        .fold(f64::INFINITY, f64::min);
    let c_min = front
        .iter()
        .map(|p| p.cost_usd)
        .fold(f64::INFINITY, f64::min);
    front.iter().min_by(|a, b| {
        let score = |p: &ParetoPoint| (p.tta_secs / t_min) * (p.cost_usd / c_min);
        score(a).partial_cmp(&score(b)).expect("finite")
    })
}

/// Runs the multi-objective search: BO under pure-time, pure-cost, and
/// `compromise_deadlines` deadline-penalized objectives, pooling every
/// trial into one front.
///
/// Deadlines are derived automatically: the pure-time run's best TTA is
/// multiplied by the given factors (e.g. `[2.0, 5.0]`).
pub fn tune_pareto(
    workload: &Workload,
    max_nodes: i64,
    budget_per_run: usize,
    compromise_factors: &[f64],
    seed: u64,
) -> Vec<ParetoPoint> {
    let mut pool: Vec<ParetoPoint> = Vec::new();
    let mut run_one = |objective: Objective, stream: u64| -> f64 {
        let ev = ConfigEvaluator::new(workload.clone(), objective, max_nodes, seed);
        let mut tuner = BoTuner::with_defaults(
            ev.space().clone(),
            Pcg64::with_stream(seed, stream).fork_seed(),
        );
        let r = TuningSession::new(&ev, budget_per_run, seed ^ stream).run(&mut tuner);
        pool.extend(points_from_history(&r.history));
        r.history
            .best()
            .map(|b| b.outcome.tta_secs)
            .unwrap_or(f64::INFINITY)
    };
    let best_tta = run_one(Objective::TimeToAccuracy, 1);
    run_one(Objective::CostToAccuracy, 2);
    if best_tta.is_finite() {
        for (i, factor) in compromise_factors.iter().enumerate() {
            run_one(
                Objective::DeadlineCost {
                    deadline_secs: best_tta * factor,
                    penalty: 5.0,
                },
                3 + i as u64,
            );
        }
    }
    pareto_front(pool)
}

/// Helper: derive a 64-bit seed from a stream (keeps `tune_pareto`'s
/// sub-runs decorrelated without exposing RNG plumbing).
trait ForkSeed {
    fn fork_seed(&mut self) -> u64;
}

impl ForkSeed for Pcg64 {
    fn fork_seed(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_space::param::ParamValue;
    use mlconf_workloads::workload::dense_lm;

    fn pt(tta: f64, cost: f64, tag: i64) -> ParetoPoint {
        ParetoPoint {
            config: Configuration::from_pairs([("x", ParamValue::Int(tag))]),
            tta_secs: tta,
            cost_usd: cost,
        }
    }

    #[test]
    fn dominance_semantics() {
        assert!(pt(1.0, 1.0, 0).dominates(&pt(2.0, 2.0, 1)));
        assert!(pt(1.0, 2.0, 0).dominates(&pt(1.0, 3.0, 1)));
        assert!(!pt(1.0, 3.0, 0).dominates(&pt(2.0, 2.0, 1)));
        assert!(
            !pt(1.0, 1.0, 0).dominates(&pt(1.0, 1.0, 1)),
            "equal points don't dominate"
        );
    }

    #[test]
    fn front_filters_and_sorts() {
        let points = vec![
            pt(10.0, 1.0, 0),
            pt(5.0, 2.0, 1),
            pt(7.0, 3.0, 2), // dominated by (5, 2)
            pt(1.0, 10.0, 3),
            pt(20.0, 20.0, 4), // dominated by everything
        ];
        let front = pareto_front(points);
        let ttas: Vec<f64> = front.iter().map(|p| p.tta_secs).collect();
        assert_eq!(ttas, vec![1.0, 5.0, 10.0]);
        // Costs strictly decrease along the front.
        let costs: Vec<f64> = front.iter().map(|p| p.cost_usd).collect();
        assert!(costs.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn front_ignores_infinite_points() {
        let front = pareto_front(vec![pt(f64::INFINITY, 1.0, 0), pt(2.0, 2.0, 1)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn knee_balances_the_axes() {
        let front = pareto_front(vec![
            pt(1.0, 100.0, 0),
            pt(3.0, 3.0, 1), // balanced: normalized product 3*3/ (1*1)... smallest
            pt(100.0, 1.0, 2),
        ]);
        assert_eq!(knee(&front).unwrap().config, pt(3.0, 3.0, 1).config);
        assert!(knee(&[]).is_none());
    }

    #[test]
    fn history_pooling_dedups_by_config() {
        use mlconf_workloads::objective::TrialOutcome;
        let mut h = TrialHistory::new();
        let cfg = Configuration::from_pairs([("x", ParamValue::Int(1))]);
        for tta in [5.0, 3.0, 4.0] {
            h.push(
                cfg.clone(),
                TrialOutcome {
                    objective: Some(tta),
                    failure: None,
                    tta_secs: tta,
                    cost_usd: tta / 10.0,
                    throughput: 1.0,
                    staleness_steps: 0.0,
                    search_cost_machine_secs: 1.0,
                    censored_at: None,
                    attempts: 1,
                },
            );
        }
        let points = points_from_history(&h);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].tta_secs, 3.0, "keeps the best observation");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn front_invariants(
                raw in proptest::collection::vec((0.1f64..1e6, 0.1f64..1e6), 1..60)
            ) {
                let points: Vec<ParetoPoint> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(t, c))| pt(t, c, i as i64))
                    .collect();
                let front = pareto_front(points.clone());
                prop_assert!(!front.is_empty());
                // (a) mutual non-domination on the front.
                for a in &front {
                    for b in &front {
                        prop_assert!(!a.dominates(b), "front contains dominated point");
                    }
                }
                // (b) every input point is dominated by or equal to some
                // front member.
                for p in &points {
                    let covered = front
                        .iter()
                        .any(|f| f.dominates(p) || (f.tta_secs == p.tta_secs && f.cost_usd == p.cost_usd));
                    prop_assert!(covered, "input point escapes the front");
                }
                // (c) sorted by time, anti-sorted by cost.
                for w in front.windows(2) {
                    prop_assert!(w[0].tta_secs <= w[1].tta_secs);
                    prop_assert!(w[0].cost_usd >= w[1].cost_usd);
                }
            }
        }
    }

    #[test]
    fn end_to_end_front_spans_a_real_tradeoff() {
        // dense-lm scales sublinearly (network-bound), so speed costs
        // money and a genuine frontier exists; a tiny job like mlp-mnist
        // would legitimately collapse to one dominating point.
        let front = tune_pareto(&dense_lm(), 16, 12, &[3.0], 7);
        assert!(
            front.len() >= 2,
            "a time/cost trade-off must yield multiple frontier points"
        );
        let fastest = front.first().unwrap();
        let cheapest = front.last().unwrap();
        assert!(fastest.tta_secs < cheapest.tta_secs);
        assert!(fastest.cost_usd > cheapest.cost_usd);
        // The knee sits between the extremes on both axes (inclusive).
        let k = knee(&front).unwrap();
        assert!(k.tta_secs >= fastest.tta_secs && k.tta_secs <= cheapest.tta_secs);
    }
}
