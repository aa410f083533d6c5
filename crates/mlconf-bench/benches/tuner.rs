//! End-to-end tuner micro-benchmarks: suggestion latency vs history
//! size, and the cost of one full (small) tuning run per tuner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlconf_tuners::bo::BoTuner;
use mlconf_tuners::random::RandomSearch;
use mlconf_tuners::session::TuningSession;
use mlconf_tuners::tuner::{TrialHistory, Tuner};
use mlconf_util::rng::Pcg64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;

fn evaluator(seed: u64) -> ConfigEvaluator {
    ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed)
}

/// Builds a history of `n` random feasible trials.
fn history_of(ev: &ConfigEvaluator, n: usize) -> TrialHistory {
    let mut h = TrialHistory::new();
    let mut t = RandomSearch::new(ev.space().clone());
    let mut rng = Pcg64::seed(7);
    while h.len() < n {
        let cfg = t.suggest(&h, &mut rng).expect("random suggests");
        let out = ev.evaluate(&cfg, 0);
        h.push(cfg, out);
    }
    h
}

fn bench_bo_suggest_vs_history(c: &mut Criterion) {
    let ev = evaluator(1);
    let mut group = c.benchmark_group("bo_suggest");
    group.sample_size(10);
    for n in [15usize, 40, 80] {
        let h = history_of(&ev, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut tuner = BoTuner::with_defaults(ev.space().clone(), 1);
                let mut rng = Pcg64::seed(2);
                tuner.suggest(&h, &mut rng).expect("suggests")
            })
        });
    }
    group.finish();
}

fn bench_bo_suggest_warm_cache(c: &mut Criterion) {
    // Same suggestion latency but with a *reused* tuner: after the first
    // call the surrogate is cached, so later fits take the incremental
    // extend path instead of refactorizing from scratch.
    let ev = evaluator(1);
    let mut group = c.benchmark_group("bo_suggest_warm");
    group.sample_size(10);
    for n in [40usize, 80] {
        let h = history_of(&ev, n);
        let mut tuner = BoTuner::with_defaults(ev.space().clone(), 1);
        let mut rng = Pcg64::seed(2);
        tuner.suggest(&h, &mut rng).expect("prime the cache");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| tuner.suggest(&h, &mut rng).expect("suggests"))
        });
    }
    group.finish();
}

fn bench_trial_evaluation(c: &mut Criterion) {
    let ev = evaluator(2);
    let cfg = mlconf_workloads::tunespace::default_config(16);
    c.bench_function("trial_evaluate", |b| {
        let mut rep = 0u64;
        b.iter(|| {
            rep += 1;
            ev.evaluate(&cfg, rep)
        })
    });
}

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuning_run_10_trials");
    group.sample_size(10);
    group.bench_function("bo", |b| {
        b.iter(|| {
            let ev = evaluator(3);
            let mut t = BoTuner::with_defaults(ev.space().clone(), 3);
            TuningSession::new(&ev, 10, 3).run(&mut t)
        })
    });
    group.bench_function("random", |b| {
        b.iter(|| {
            let ev = evaluator(3);
            let mut t = RandomSearch::new(ev.space().clone());
            TuningSession::new(&ev, 10, 3).run(&mut t)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bo_suggest_vs_history,
    bench_bo_suggest_warm_cache,
    bench_trial_evaluation,
    bench_full_runs
);
criterion_main!(benches);
