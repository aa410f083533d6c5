//! Golden regression test for E2 (search quality).
//!
//! Runs a small fixed scale — the quick-scale seeds {11, 22, 33}, two
//! fast workloads, a short budget — and compares every table cell
//! against committed values. Any change to the simulator, the
//! evaluator's seeding, a tuner's proposal stream, or the session's RNG
//! layout shows up here as a cell diff, which is exactly the point:
//! those streams are load-bearing for reproducibility, and drift must
//! be a conscious, reviewed decision (regenerate by running this test
//! and updating `GOLDEN`).

use mlconf_bench::experiments::e2_quality;
use mlconf_bench::experiments::Scale;
use mlconf_tuners::bo::BoTuner;
use mlconf_tuners::factory::build_tuner;
use mlconf_tuners::session::{
    Ask, AskTellSession, Concurrency, TrialEvent, TrialObserver, TuningSession,
};
use mlconf_util::optim::set_threads;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::{logreg_criteo, mlp_mnist};

fn golden_scale() -> Scale {
    Scale {
        seeds: vec![11, 22, 33],
        budget: 14,
        oracle_candidates: 150,
        max_nodes: 16,
        workloads: vec![logreg_criteo(), mlp_mnist()],
    }
}

/// Expected rows, one slice per workload, in table column order
/// (workload, oracle, then one quality ratio per registry tuner).
const GOLDEN: &[&[&str]] = &[
    &[
        "logreg-criteo",
        "37s",
        "1.65",
        "6.17",
        "2.89",
        "2.62",
        "234.67",
        "6.17",
        "4.93",
        "6.17",
    ],
    &[
        "mlp-mnist",
        "24s",
        "1.59",
        "1.98",
        "4.49",
        "2.18",
        "5.35",
        "1.98",
        "2.49",
        "1.98",
    ],
];

/// Counts events without influencing anything — attached to the session
/// runs below to prove observers are inert at the golden scale.
#[derive(Default)]
struct CountingObserver {
    events: usize,
}

impl TrialObserver for CountingObserver {
    fn on_event(&mut self, _event: &TrialEvent<'_>) {
        self.events += 1;
    }
}

/// Observers are pure consumers: attaching one must leave a plain
/// session's result bit-identical at the golden seeds {11, 22, 33},
/// sequentially and in constant-liar batches. A divergence here means an
/// observer moved an RNG draw or reordered a suggest/observe step, which
/// would silently invalidate every committed results table.
#[test]
fn observers_are_inert_at_golden_seeds() {
    for seed in [11u64, 22, 33] {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        for concurrency in [
            Concurrency::Sequential,
            Concurrency::Batched { batch_size: 4 },
        ] {
            let mut plain_tuner = BoTuner::with_defaults(ev.space().clone(), seed);
            let plain = TuningSession::new(&ev, 14, seed)
                .concurrency(concurrency)
                .run(&mut plain_tuner);
            let mut observer = CountingObserver::default();
            let mut observed_tuner = BoTuner::with_defaults(ev.space().clone(), seed);
            let observed = TuningSession::new(&ev, 14, seed)
                .concurrency(concurrency)
                .observe_with(Box::new(&mut observer))
                .run(&mut observed_tuner);
            assert_eq!(
                plain, observed,
                "observed {concurrency:?} session diverged (seed {seed})"
            );
            assert!(observer.events > 0, "the observer was attached");
        }
    }
}

/// Constant-liar batches preassign every trial's index, repetition and
/// incumbent cutoff before fanning out, so a batched run is
/// bit-identical across 1/2/4/8 threads at the golden seeds.
#[test]
fn batched_runs_are_thread_count_invariant_at_golden_seeds() {
    for seed in [11u64, 22, 33] {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        let run = |threads: usize| {
            set_threads(threads);
            let mut tuner = BoTuner::with_defaults(ev.space().clone(), seed);
            TuningSession::new(&ev, 14, seed)
                .concurrency(Concurrency::Batched { batch_size: 4 })
                .run(&mut tuner)
        };
        let one = run(1);
        assert_eq!(one.history.len(), 14);
        for threads in [2, 4, 8] {
            assert_eq!(
                one,
                run(threads),
                "batched session diverged (seed {seed}, {threads} threads)"
            );
        }
    }
    set_threads(0);
}

/// Records the arm names of every `ArmSelected` event, in order.
#[derive(Default)]
struct ArmTrace(Vec<String>);

impl TrialObserver for ArmTrace {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        if let TrialEvent::ArmSelected { arm, .. } = event {
            self.0.push((*arm).to_owned());
        }
    }
}

/// The portfolio tuner run through [`TuningSession`] must be
/// bit-identical to driving the same portfolio by hand through
/// [`AskTellSession`] at the golden seeds — the same contract the
/// service layer's journal replay depends on. Also pins that the
/// bandit actually races (every default arm is selected at least once
/// within the golden budget).
#[test]
fn portfolio_session_matches_manual_ask_tell_at_golden_seeds() {
    for seed in [11u64, 22, 33] {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        let budget = 14;

        let mut pipeline_tuner =
            build_tuner("portfolio", ev.space().clone(), budget, seed, None).unwrap();
        let mut trace = ArmTrace::default();
        let pipeline = TuningSession::new(&ev, budget, seed)
            .observe_with(Box::new(&mut trace))
            .run(pipeline_tuner.as_mut());

        let mut manual_tuner =
            build_tuner("portfolio", ev.space().clone(), budget, seed, None).unwrap();
        let mut machine = AskTellSession::new(budget, seed);
        loop {
            match machine.ask(manual_tuner.as_mut()).unwrap() {
                Ask::Finished { .. } => break,
                Ask::Trial(p) => {
                    let outcome = ev.evaluate_with_fidelity(&p.config, p.rep, p.fidelity);
                    machine
                        .tell_outcome(manual_tuner.as_mut(), outcome)
                        .unwrap();
                }
            }
        }

        assert_eq!(
            pipeline.history,
            *machine.history(),
            "seed {seed}: manual ask/tell diverged from the session pipeline"
        );
        let arms = trace.0;
        assert_eq!(arms.len(), budget, "seed {seed}: one selection per trial");
        for arm in ["bo", "ernest"] {
            assert!(
                arms.iter().any(|a| a == arm),
                "seed {seed}: default arm {arm} never selected in {arms:?}"
            );
        }
    }
}

/// A one-arm portfolio must be bit-identical to the bare arm at the
/// golden seeds, sequentially and batched: arm selection consumes no
/// session RNG draws, so the wrapper is invisible. This is the
/// degenerate case the determinism contract hangs on.
#[test]
fn single_arm_portfolio_is_bit_identical_to_bare_arm_at_golden_seeds() {
    for seed in [11u64, 22, 33] {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        let budget = 14;

        // Only the history (plus exec stats and stop reason) can agree:
        // the wrapper necessarily reports its own tuner name.
        let mut bare = build_tuner("bo", ev.space().clone(), budget, seed, None).unwrap();
        let reference = TuningSession::new(&ev, budget, seed).run(bare.as_mut());
        let mut wrapped =
            build_tuner("portfolio:bo", ev.space().clone(), budget, seed, None).unwrap();
        let portfolio = TuningSession::new(&ev, budget, seed).run(wrapped.as_mut());
        assert_eq!(portfolio.tuner, "portfolio:bo");
        assert_eq!(
            reference.history, portfolio.history,
            "seed {seed}: sequential"
        );
        assert_eq!(reference.stop_reason, portfolio.stop_reason, "seed {seed}");

        let mut bare = build_tuner("bo", ev.space().clone(), budget, seed, None).unwrap();
        let reference = TuningSession::new(&ev, budget, seed)
            .concurrency(Concurrency::Batched { batch_size: 4 })
            .run(bare.as_mut());
        let mut wrapped =
            build_tuner("portfolio:bo", ev.space().clone(), budget, seed, None).unwrap();
        let portfolio = TuningSession::new(&ev, budget, seed)
            .concurrency(Concurrency::Batched { batch_size: 4 })
            .run(wrapped.as_mut());
        assert_eq!(reference.history, portfolio.history, "seed {seed}: batched");
    }
}

/// The multi-arm portfolio's run — history *and* the arm-selection
/// trace — must not depend on parallelism: batched runs at 1/2/4/8
/// threads all reproduce the single-thread result.
#[test]
fn portfolio_arm_selection_is_thread_count_invariant_at_golden_seeds() {
    for seed in [11u64, 22, 33] {
        let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        let budget = 14;
        let run_at = |threads: usize| {
            set_threads(threads);
            let mut tuner =
                build_tuner("portfolio", ev.space().clone(), budget, seed, None).unwrap();
            let mut trace = ArmTrace::default();
            let result = TuningSession::new(&ev, budget, seed)
                .concurrency(Concurrency::Batched { batch_size: 4 })
                .observe_with(Box::new(&mut trace))
                .run(tuner.as_mut());
            (result, trace.0)
        };
        let reference = run_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                run_at(threads),
                reference,
                "seed {seed}: {threads} threads changed the run"
            );
        }
    }
    set_threads(0);
}

/// Attaching a *stationary* scenario script must be invisible: the
/// evaluator takes the scenario code path (`env_for`, epoch plumbing)
/// but the world never changes, so every golden-seed run — sequential
/// and batched — must be byte-identical to the scenario-free session.
/// This is what lets E2/E9's committed tables stay valid while the
/// same binaries grow drift support.
#[test]
fn noop_scenario_leaves_golden_sessions_byte_identical() {
    use mlconf_sim::scenario::ScenarioScript;
    for seed in [11u64, 22, 33] {
        let plain_ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed);
        let scripted_ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, seed)
            .with_scenario(ScenarioScript::stationary("noop"));

        let mut plain_tuner = BoTuner::with_defaults(plain_ev.space().clone(), seed);
        let plain = TuningSession::new(&plain_ev, 14, seed).run(&mut plain_tuner);
        let mut scripted_tuner = BoTuner::with_defaults(scripted_ev.space().clone(), seed);
        let scripted = TuningSession::new(&scripted_ev, 14, seed).run(&mut scripted_tuner);
        assert_eq!(
            plain, scripted,
            "seed {seed}: stationary scenario changed a sequential run"
        );

        let mut plain_tuner = BoTuner::with_defaults(plain_ev.space().clone(), seed);
        let plain = TuningSession::new(&plain_ev, 14, seed)
            .concurrency(Concurrency::Batched { batch_size: 4 })
            .run(&mut plain_tuner);
        let mut scripted_tuner = BoTuner::with_defaults(scripted_ev.space().clone(), seed);
        let scripted = TuningSession::new(&scripted_ev, 14, seed)
            .concurrency(Concurrency::Batched { batch_size: 4 })
            .run(&mut scripted_tuner);
        assert_eq!(
            plain, scripted,
            "seed {seed}: stationary scenario changed a batched run"
        );
    }
}

#[test]
fn e2_rows_match_committed_golden_values() {
    let tables = e2_quality::run(&golden_scale());
    assert_eq!(tables.len(), 1);
    let t = &tables[0];
    assert_eq!(
        t.rows.len(),
        GOLDEN.len(),
        "row count changed; regenerate GOLDEN"
    );
    for (row, want) in t.rows.iter().zip(GOLDEN) {
        let got: Vec<&str> = row.iter().map(String::as_str).collect();
        assert_eq!(
            &got[..],
            *want,
            "E2 drifted from golden values. If the change is intentional \
             (simulator/tuner/RNG update), rerun this test and update GOLDEN."
        );
    }
}
