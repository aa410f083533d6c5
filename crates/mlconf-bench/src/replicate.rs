//! Replicated tuning runs: the same tuner family re-run across seeds
//! (in parallel) so experiments report medians and spreads, not single
//! lucky runs. Each replicate is one [`TuningSession`] run.

use crossbeam::thread;
use mlconf_tuners::executor::TrialExecutor;
use mlconf_tuners::session::{StopCondition, TuneResult, TuningSession};
use mlconf_tuners::tuner::Tuner;
use mlconf_util::optim::set_threads;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::Workload;

/// A tuner factory: builds a fresh tuner instance for a given seed.
/// Each replicate gets its own instance so runs are independent.
pub type TunerFactory<'a> = dyn Fn(&ConfigEvaluator, u64) -> Box<dyn Tuner> + Sync + 'a;

/// Runs `factory`'s tuner across `seeds`, one evaluator per seed, in
/// parallel: one thread per seed, each running its tuner's GP work at
/// one thread. The evaluator's base seed doubles as the tuner/driver seed
/// so each replicate is fully determined by its seed. `conditions` is
/// the stop-condition stack applied to every replicate (empty = full
/// budget).
pub fn replicate(
    workload: &Workload,
    objective: Objective,
    max_nodes: i64,
    factory: &TunerFactory<'_>,
    seeds: &[u64],
    budget: usize,
    conditions: &[StopCondition],
) -> Vec<TuneResult> {
    replicate_executed(
        workload,
        objective,
        max_nodes,
        factory,
        seeds,
        budget,
        conditions,
        &|_seed| TrialExecutor::passthrough(),
    )
}

/// Builds the trial executor a given replicate seed runs under (e.g. a
/// seed-specific fault plan).
pub type ExecutorFactory<'a> = dyn Fn(u64) -> TrialExecutor + Sync + 'a;

/// [`replicate`] with every trial routed through a seed-specific
/// [`TrialExecutor`] — the entry point for fault-injected experiments.
#[allow(clippy::too_many_arguments)]
// One thread per seed, not a claim pool: each replicate is a whole run.
#[allow(clippy::disallowed_methods)]
pub fn replicate_executed(
    workload: &Workload,
    objective: Objective,
    max_nodes: i64,
    factory: &TunerFactory<'_>,
    seeds: &[u64],
    budget: usize,
    conditions: &[StopCondition],
    executor_for: &ExecutorFactory<'_>,
) -> Vec<TuneResult> {
    thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let workload = workload.clone();
                s.spawn(move |_| {
                    // The seeds already run side by side: keep each
                    // replicate's GP work on its own thread.
                    set_threads(1);
                    let evaluator = ConfigEvaluator::new(workload, objective, max_nodes, seed);
                    let mut tuner = factory(&evaluator, seed);
                    TuningSession::new(&evaluator, budget, seed)
                        .stop_conditions(conditions.iter().copied())
                        .executor(executor_for(seed))
                        .run(tuner.as_mut())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replicate thread panicked"))
            .collect()
    })
    .expect("replicate scope panicked")
}

/// Median of each replicate's best value.
pub fn median_best(results: &[TuneResult]) -> f64 {
    let vals: Vec<f64> = results.iter().map(TuneResult::best_value).collect();
    mlconf_util::stats::median(&vals)
}

/// Per-trial median of the best-so-far curves (curves may differ in
/// length when stopping rules fire; the median is taken over the curves
/// still active at each index, carrying finished runs' final values
/// forward).
pub fn median_curve(results: &[TuneResult]) -> Vec<f64> {
    let curves: Vec<Vec<f64>> = results.iter().map(TuneResult::best_curve).collect();
    let max_len = curves.iter().map(Vec::len).max().unwrap_or(0);
    (0..max_len)
        .map(|i| {
            let at: Vec<f64> = curves
                .iter()
                .filter_map(|c| {
                    if c.is_empty() {
                        None
                    } else {
                        Some(c[i.min(c.len() - 1)])
                    }
                })
                .collect();
            mlconf_util::stats::median(&at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlconf_tuners::random::RandomSearch;
    use mlconf_workloads::workload::mlp_mnist;

    fn factory() -> Box<TunerFactory<'static>> {
        Box::new(|ev: &ConfigEvaluator, _seed: u64| {
            Box::new(RandomSearch::new(ev.space().clone())) as Box<dyn Tuner>
        })
    }

    #[test]
    fn replicates_are_independent_and_deterministic() {
        let w = mlp_mnist();
        let f = factory();
        let a = replicate(&w, Objective::TimeToAccuracy, 8, &f, &[1, 2, 3], 6, &[]);
        let b = replicate(&w, Objective::TimeToAccuracy, 8, &f, &[1, 2, 3], 6, &[]);
        assert_eq!(a, b, "parallel replication must be deterministic");
        assert_eq!(a.len(), 3);
        // Different seeds produce different histories.
        assert_ne!(a[0].history, a[1].history);
    }

    #[test]
    fn median_helpers() {
        let w = mlp_mnist();
        let f = factory();
        let rs = replicate(&w, Objective::TimeToAccuracy, 8, &f, &[4, 5, 6], 5, &[]);
        let med = median_best(&rs);
        assert!(med.is_finite());
        let curve = median_curve(&rs);
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12 || w[0].is_infinite());
        }
    }
}
