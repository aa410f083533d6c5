//! End-to-end integration tests: the full tune-a-workload pipeline
//! across all crates through the `mlconf` facade.

use mlconf::tuners::anneal::SimulatedAnnealing;
use mlconf::tuners::bo::BoTuner;
use mlconf::tuners::coordinate::CoordinateDescent;
use mlconf::tuners::ernest::ErnestTuner;
use mlconf::tuners::halving::SuccessiveHalving;
use mlconf::tuners::random::{LatinHypercubeSearch, RandomSearch};
use mlconf::tuners::session::TuningSession;
use mlconf::tuners::tuner::Tuner;
use mlconf::workloads::evaluator::ConfigEvaluator;
use mlconf::workloads::objective::Objective;
use mlconf::workloads::tunespace::default_config;
use mlconf::workloads::workload::{mlp_mnist, suite};

fn evaluator(seed: u64) -> ConfigEvaluator {
    ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed)
}

#[test]
fn every_tuner_completes_a_small_run() {
    let ev = evaluator(1);
    let space = ev.space().clone();
    let mut tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(BoTuner::with_defaults(space.clone(), 1)),
        Box::new(RandomSearch::new(space.clone())),
        Box::new(LatinHypercubeSearch::new(space.clone(), 8)),
        Box::new(CoordinateDescent::new(
            space.clone(),
            Some(default_config(16)),
        )),
        Box::new(SimulatedAnnealing::new(space.clone(), 12, 1)),
        Box::new(SuccessiveHalving::new(space.clone(), 8)),
        Box::new(ErnestTuner::new(space.clone(), 13, 32)),
    ];
    for t in &mut tuners {
        let name = t.name().to_owned();
        let r = TuningSession::new(&ev, 14, 1).run(t.as_mut());
        assert_eq!(r.history.len(), 14, "{name} did not fill its budget");
        assert!(
            r.best_value().is_finite(),
            "{name} found nothing feasible in 14 trials"
        );
        // Best-so-far curve is monotone non-increasing once finite.
        let curve = r.best_curve();
        for w in curve.windows(2) {
            assert!(
                w[1] <= w[0] || w[0].is_infinite(),
                "{name} curve not monotone"
            );
        }
    }
}

#[test]
fn tuned_config_beats_default_on_most_workloads() {
    // The headline claim in miniature: with a modest budget the BO tuner
    // finds configurations no worse than the operator default, usually
    // much better, on most suite workloads.
    let mut wins = 0;
    let mut total = 0;
    for workload in suite() {
        let ev = ConfigEvaluator::new(workload, Objective::TimeToAccuracy, 16, 9);
        let default_outcome = ev.evaluate(&default_config(16), 0);
        let mut tuner = BoTuner::with_defaults(ev.space().clone(), 9);
        let r = TuningSession::new(&ev, 18, 9).run(&mut tuner);
        total += 1;
        if r.best_value() <= default_outcome.tta_secs * 1.05 {
            wins += 1;
        }
    }
    assert!(
        wins * 10 >= total * 8,
        "tuner matched/beat the default on only {wins}/{total} workloads"
    );
}

#[test]
fn runs_are_reproducible_across_identical_invocations() {
    let mk = || {
        let ev = evaluator(17);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 17);
        TuningSession::new(&ev, 12, 17).run(&mut t)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "same seeds must reproduce bit-identical histories");
}

#[test]
fn different_seeds_explore_differently() {
    let ev = evaluator(2);
    let mut t1 = BoTuner::with_defaults(ev.space().clone(), 100);
    let mut t2 = BoTuner::with_defaults(ev.space().clone(), 200);
    let a = TuningSession::new(&ev, 10, 100).run(&mut t1);
    let b = TuningSession::new(&ev, 10, 200).run(&mut t2);
    let keys_a: Vec<String> = a.history.trials().iter().map(|t| t.config.key()).collect();
    let keys_b: Vec<String> = b.history.trials().iter().map(|t| t.config.key()).collect();
    assert_ne!(keys_a, keys_b);
}

#[test]
fn failed_trials_carry_reasons_and_cost() {
    // Sample broadly; some configurations hit memory cliffs on the
    // biggest workload. Their outcomes must carry a reason and a
    // non-zero search cost.
    let ev = ConfigEvaluator::new(
        mlconf::workloads::workload::w2v_wiki(),
        Objective::TimeToAccuracy,
        16,
        3,
    );
    let mut rt = RandomSearch::new(ev.space().clone());
    let r = TuningSession::new(&ev, 40, 3).run(&mut rt);
    let failures: Vec<_> = r
        .history
        .trials()
        .iter()
        .filter(|t| !t.outcome.is_ok())
        .collect();
    for f in &failures {
        assert!(f.outcome.failure.is_some());
        assert!(f.outcome.search_cost_machine_secs > 0.0);
        assert_eq!(f.outcome.objective, None);
    }
    // w2v's 300M-param model (1.2 GB dense + optimizer state) must OOM
    // at least one sampled single-server configuration in 40 draws.
    assert!(
        !failures.is_empty(),
        "expected some OOM trials on the memory-bound workload"
    );
}
