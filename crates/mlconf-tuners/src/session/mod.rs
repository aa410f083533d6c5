//! The session orchestration layer: the one composable pipeline owning
//! the suggest→execute→observe loop.
//!
//! [`TuningSession`] is a builder: pick an execution policy (passthrough
//! or a [`TrialExecutor`](crate::executor::TrialExecutor) with
//! timeouts/retries/fault plans), a [`Concurrency`] mode (sequential, or
//! batched constant-liar rounds evaluated at the calling thread's
//! [`set_threads`](mlconf_util::optim::set_threads) count), a stack of
//! [`StopCondition`]s, optional warm-start seed configurations, and any
//! number of [`TrialObserver`]s, then call [`TuningSession::run`]. Every
//! trial lifecycle transition is published to the observers as a typed
//! [`TrialEvent`]; one built-in observer ships with the crate, a JSONL
//! trace sink ([`JsonlTraceSink`], surfaced as `mlconf tune --trace`).
//!
//! # Ask/tell stepping
//!
//! The loop's state machine is [`AskTellSession`]: [`AskTellSession::ask`]
//! produces the next [`PendingTrial`] (or reports the run finished) and
//! [`AskTellSession::tell`] commits its outcome. [`TuningSession::run`]
//! is a thin driver over the same machine — ask, execute through the
//! configured executor, tell — so an external executor (a real
//! training cluster behind `mlconf serve`, say) stepping ask/tell by hand
//! shares the budget accounting, stop-condition stack, warm-start queue,
//! and event bus with the in-process simulator path, and produces
//! bit-identical results.
//!
//! # Determinism contract
//!
//! A run is a pure function of its seed: the driver RNG is one `Pcg64`
//! stream, batched rounds preassign repetition indices, trial indices,
//! and the incumbent cutoff before fanning out, and results are
//! committed in suggestion order — so results are identical across any
//! thread count (golden-tested in
//! `mlconf-bench/tests/golden_e2.rs`). Observers are pure consumers:
//! they receive borrowed events and cannot perturb the run (property-
//! tested below).

mod ask_tell;
mod events;
mod result;
mod tuning;

pub use ask_tell::{
    Ask, AskTellError, AskTellSession, PendingTrial, SessionResumeState, StopCondition, StopReason,
};
pub use events::{JsonlTraceSink, TrialEvent, TrialObserver};
pub use result::{first_within, ExecStats, TuneResult};
pub use tuning::{Concurrency, TuningSession};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bo::BoTuner;
    use crate::executor::TrialExecutor;
    use crate::grid::GridSearch;
    use crate::random::RandomSearch;
    use crate::tuner::Tuner;
    use mlconf_space::config::Configuration;
    use mlconf_util::json::Json;
    use mlconf_util::rng::Pcg64;
    use mlconf_workloads::evaluator::ConfigEvaluator;
    use mlconf_workloads::objective::Objective;
    use mlconf_workloads::objective::TrialOutcome;
    use mlconf_workloads::workload::mlp_mnist;

    fn evaluator(seed: u64) -> ConfigEvaluator {
        ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed)
    }

    /// Observer that copies every event into owned strings.
    #[derive(Default)]
    struct Recorder(Vec<String>);

    impl TrialObserver for Recorder {
        fn on_event(&mut self, event: &TrialEvent<'_>) {
            self.0.push(event.to_json().render());
        }
    }

    #[test]
    fn events_cover_the_trial_lifecycle() {
        use mlconf_sim::faultplan::FaultPlan;
        let ev = evaluator(23);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut recorder = Recorder::default();
        let plan = FaultPlan::scripted(15, 2.0, 23);
        let r = TuningSession::new(&ev, 15, 23)
            .executor(TrialExecutor::standard(23).with_plan(plan))
            .observe_with(Box::new(&mut recorder))
            .run(&mut t);
        let lines = recorder.0;
        let count = |kind: &str| {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("trial_started"), 15);
        assert_eq!(count("trial_completed"), 15);
        assert!(count("incumbent_improved") >= 1);
        // The chaos plan produced at least one failure event, and every
        // failure tallied in ExecStats has a matching event.
        let failures = r.exec.timeouts + r.exec.crashes + r.exec.ooms + r.exec.retries;
        assert!(failures > 0, "severity-2 plan should strike");
        assert_eq!(count("attempt_failed"), failures);
        // Faults waste machine time but neither shorten the run nor
        // stop it finding a good configuration.
        assert!(r.exec.wasted_machine_secs > 0.0);
        assert!(r.history.trials().iter().all(|t| t.outcome.attempts >= 1));
        assert!(r.best_value().is_finite());
        // Full budget: no early stop.
        assert_eq!(count("stopped_early"), 0);
        assert_eq!(r.stop_reason, None);
    }

    #[test]
    fn stacked_stop_conditions_any_fires() {
        let ev = evaluator(25);
        // Zero cost budget: stops before the first trial.
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::CostBudget { machine_secs: 0.0 })
            .stop_when(StopCondition::WallBudget { secs: 1e12 })
            .run(&mut t);
        assert!(r.stop_reason.is_some());
        assert_eq!(r.stop_reason, Some(StopReason::CostBudgetExhausted));
        assert_eq!(r.history.len(), 0);

        // A finite cost budget ends the run partway.
        let mut t = RandomSearch::new(ev.space().clone());
        let free = TuningSession::new(&ev, 10, 25).run(&mut t);
        let half = free.cost_curve()[4];
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::CostBudget { machine_secs: half })
            .run(&mut t);
        assert!(r.stop_reason.is_some());
        assert_eq!(r.stop_reason, Some(StopReason::CostBudgetExhausted));
        assert!(r.history.len() < 10);
        assert!(r.history.len() >= 5, "budget covers the first five trials");

        // Wall budget fires too, on its own.
        let wall_half: f64 = free
            .history
            .trials()
            .iter()
            .take(5)
            .map(|t| t.outcome.tta_secs)
            .filter(|v| v.is_finite())
            .sum();
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 25)
            .stop_when(StopCondition::WallBudget { secs: wall_half })
            .run(&mut t);
        assert!(r.stop_reason.is_some());
        assert_eq!(r.stop_reason, Some(StopReason::WallBudgetExhausted));
        assert!(r.history.len() < 10);
    }

    #[test]
    fn acquisition_stop_fires() {
        let ev = evaluator(4);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 4);
        // Absurdly high threshold: any acquisition is "below", so the
        // run stops right after min_trials + patience suggestions.
        let r = TuningSession::new(&ev, 60, 4)
            .stop_when(StopCondition::AcquisitionBelow {
                min_trials: 14,
                threshold: f64::INFINITY,
                patience: 2,
            })
            .run(&mut t);
        assert!(r.stop_reason.is_some());
        assert_eq!(r.stop_reason, Some(StopReason::AcquisitionConverged));
        assert!(
            r.history.len() < 30,
            "stop condition never fired ({} trials)",
            r.history.len()
        );
    }

    #[test]
    fn acquisition_stop_ignored_by_diagnostics_free_tuners() {
        let ev = evaluator(5);
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 10, 5)
            .stop_when(StopCondition::AcquisitionBelow {
                min_trials: 1,
                threshold: f64::INFINITY,
                patience: 1,
            })
            .run(&mut t);
        assert_eq!(r.history.len(), 10, "random has no acquisition to stop on");
        assert_eq!(r.stop_reason, None);
    }

    #[test]
    fn grid_exhaustion_ends_runs() {
        let ev = evaluator(11);
        for concurrency in [
            Concurrency::Sequential,
            Concurrency::Batched { batch_size: 4 },
        ] {
            let mut t = GridSearch::new(ev.space(), 1, 6);
            let r = TuningSession::new(&ev, 100, 11)
                .concurrency(concurrency)
                .run(&mut t);
            assert!(r.stop_reason.is_some(), "{concurrency:?}");
            assert_eq!(r.stop_reason, Some(StopReason::Exhausted));
            assert!(r.history.len() <= 6);
        }
    }

    #[test]
    fn batch_of_one_equals_sequential() {
        let ev = evaluator(8);
        let mut t1 = BoTuner::with_defaults(ev.space().clone(), 8);
        let mut t2 = BoTuner::with_defaults(ev.space().clone(), 8);
        let seq = TuningSession::new(&ev, 10, 8).run(&mut t1);
        let bat = TuningSession::new(&ev, 10, 8)
            .concurrency(Concurrency::Batched { batch_size: 1 })
            .run(&mut t2);
        assert_eq!(seq.history, bat.history);
    }

    #[test]
    fn constant_liar_diversifies_model_phase_batches() {
        let ev = evaluator(10);
        let mut t = BoTuner::with_defaults(ev.space().clone(), 10);
        // Warm up past the init design so rounds are model-driven.
        let r = TuningSession::new(&ev, 24, 10)
            .concurrency(Concurrency::Batched { batch_size: 4 })
            .run(&mut t);
        // Each post-init round of 4 should contain mostly distinct
        // configurations.
        let keys: Vec<String> = r.history.trials()[12..]
            .iter()
            .map(|t| t.config.key())
            .collect();
        for round in keys.chunks(4) {
            let mut uniq: Vec<&String> = round.iter().collect();
            uniq.sort();
            uniq.dedup();
            assert!(
                uniq.len() >= round.len() - 1,
                "round collapsed to {} unique of {}",
                uniq.len(),
                round.len()
            );
        }
    }

    #[test]
    fn faulted_batched_runs_are_bit_identical_across_thread_counts() {
        use mlconf_sim::faultplan::FaultPlan;
        use mlconf_util::optim::set_threads;
        // Same seed, same plan, retries and backoff active: 1/2/4/8
        // threads must produce bit-identical results.
        let run = |threads: usize| {
            set_threads(threads);
            let ev = evaluator(14);
            let mut t = BoTuner::with_defaults(ev.space().clone(), 14);
            let plan = FaultPlan::scripted(16, 1.5, 14);
            TuningSession::new(&ev, 16, 14)
                .executor(TrialExecutor::standard(14).with_plan(plan))
                .concurrency(Concurrency::Batched { batch_size: 4 })
                .run(&mut t)
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(one, run(threads), "{threads} threads diverged");
        }
        set_threads(0);
        assert_eq!(one.history.len(), 16);
    }

    #[test]
    fn incumbent_timeout_censors_slow_configs() {
        use crate::executor::TimeoutPolicy;
        let ev = evaluator(16);
        let mut t = RandomSearch::new(ev.space().clone());
        // Tight budget-relative cutoff: anything 1.2× slower than the
        // incumbent is killed and right-censored.
        let ex = TrialExecutor::passthrough().with_timeout(TimeoutPolicy::IncumbentRelative {
            factor: 1.2,
            min_secs: 0.0,
        });
        let r = TuningSession::new(&ev, 25, 16).executor(ex).run(&mut t);
        assert!(r.exec.timeouts > 0, "tight cutoff should censor something");
        let censored: Vec<_> = r
            .history
            .trials()
            .iter()
            .filter(|t| t.outcome.is_censored())
            .collect();
        assert_eq!(censored.len(), r.exec.timeouts);
        for c in &censored {
            assert!(!c.outcome.is_ok(), "censored trials are not successes");
            assert!(c.outcome.censored_at.unwrap() > 0.0);
        }
        // The incumbent itself still stands.
        assert!(r.best_value().is_finite());
    }

    #[test]
    fn trials_and_cost_to_within() {
        let ev = evaluator(7);
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 20, 7).run(&mut t);
        let best = r.best_value();
        let n = r.trials_to_within(best, 1.0).unwrap();
        assert!(n <= 20);
        let c = r.cost_to_within(best, 1.0).unwrap();
        assert!(c > 0.0);
        // An unreachable target returns None.
        assert_eq!(r.trials_to_within(best / 1e9, 1.0), None);
        assert_eq!(r.cost_to_within(best / 1e9, 1.0), None);
    }

    #[test]
    fn warm_start_evaluates_seeds_first() {
        let ev = evaluator(27);
        let seeds: Vec<Configuration> = (0..3)
            .map(|i| {
                let mut rng = Pcg64::with_stream(27, 1000 + i);
                ev.space().sample(&mut rng).expect("sample")
            })
            .collect();
        let mut t = BoTuner::with_defaults(ev.space().clone(), 27);
        let r = TuningSession::new(&ev, 10, 27)
            .warm_start(seeds.clone())
            .run(&mut t);
        assert_eq!(r.history.len(), 10);
        for (i, cfg) in seeds.iter().enumerate() {
            assert_eq!(r.history.trials()[i].config.key(), cfg.key());
        }
        // Seeds count against the budget: an over-long seed list is
        // truncated.
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 2, 27)
            .warm_start(seeds.clone())
            .run(&mut t);
        assert_eq!(r.history.len(), 2);
    }

    #[test]
    fn trace_lines_are_valid_jsonl() {
        let ev = evaluator(28);
        let mut t = RandomSearch::new(ev.space().clone());
        let path = std::env::temp_dir().join(format!("mlconf_trace_{}.jsonl", std::process::id()));
        let mut sink = JsonlTraceSink::to_file(&path).unwrap();
        let r = TuningSession::new(&ev, 6, 28)
            .observe_with(Box::new(&mut sink))
            .run(&mut t);
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let events: Vec<Json> = text
            .lines()
            .map(|l| mlconf_util::json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
            .collect();
        let kind = |e: &Json| e.get("event").and_then(Json::as_str).map(str::to_owned);
        assert!(events.iter().all(|e| kind(e).is_some()));
        let completed: Vec<&Json> = events
            .iter()
            .filter(|e| kind(e).as_deref() == Some("trial_completed"))
            .collect();
        assert_eq!(completed.len(), r.history.len());
        for (e, trial) in completed.iter().zip(r.history.trials()) {
            assert_eq!(
                e.get("trial").and_then(Json::as_i64),
                Some(trial.index as i64)
            );
            let tta = trial.outcome.tta_secs;
            match e.get("tta_secs") {
                Some(Json::Num(x)) => {
                    assert_eq!(x.to_bits(), tta.to_bits(), "trial {}", trial.index)
                }
                Some(Json::Null) => assert!(!tta.is_finite(), "trial {}", trial.index),
                other => panic!("tta_secs missing or mistyped: {other:?}"),
            }
        }
        // JSON has no infinity: non-finite numbers render as null.
        let drift = TrialEvent::DriftDetected {
            trial: 3,
            statistic: f64::INFINITY,
        };
        assert_eq!(
            drift.to_json().render(),
            r#"{"event":"drift_detected","trial":3,"statistic":null}"#
        );
    }

    #[test]
    fn trace_sink_keeps_the_first_write_error() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("device full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let ev = evaluator(29);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut sink = JsonlTraceSink::new(Box::new(Full));
        let r = TuningSession::new(&ev, 5, 29)
            .observe_with(Box::new(&mut sink))
            .run(&mut t);
        // Tracing never fails the run; the error surfaces afterwards.
        assert_eq!(r.history.len(), 5);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "device full");
    }

    #[test]
    fn first_within_shared_helper() {
        let curve = [10.0, 8.0, 8.0, 3.0];
        assert_eq!(first_within(&curve, 8.0, 1.0), Some(2));
        assert_eq!(first_within(&curve, 3.0, 1.0), Some(4));
        assert_eq!(first_within(&curve, 1.0, 2.0), None);
        assert_eq!(first_within(&[], 1.0, 1.0), None);
    }

    /// Drives an [`AskTellSession`] by hand, mirroring what an external
    /// trial-execution service would do.
    fn manual_ask_tell(
        ev: &ConfigEvaluator,
        tuner: &mut dyn Tuner,
        core: &mut AskTellSession<'_>,
        executor: &TrialExecutor,
    ) {
        loop {
            match core.ask(tuner).expect("strict ask/tell alternation") {
                Ask::Finished { .. } => break,
                Ask::Trial(p) => {
                    let executed = executor.execute(
                        ev,
                        &p.config,
                        p.rep,
                        p.fidelity,
                        p.trial,
                        core.incumbent_tta(),
                    );
                    core.tell(tuner, executed).expect("trial was pending");
                }
            }
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_at_golden_seeds() {
        for seed in [11u64, 22, 33] {
            let ev = evaluator(seed);
            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let via_run = TuningSession::new(&ev, 14, seed).run(&mut t1);

            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut core = AskTellSession::new(14, seed);
            manual_ask_tell(&ev, &mut t2, &mut core, &TrialExecutor::passthrough());
            let via_steps = core.into_result(t2.name());
            assert_eq!(via_run, via_steps, "seed {seed}");
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_with_faults_and_stops() {
        use mlconf_sim::faultplan::FaultPlan;
        for seed in [11u64, 22, 33] {
            let ev = evaluator(seed);
            // A chaos executor (censored + failed outcomes) plus a cost
            // budget that fires mid-run.
            let executor =
                || TrialExecutor::standard(seed).with_plan(FaultPlan::scripted(20, 2.0, seed));
            let conditions = [
                StopCondition::CostBudget {
                    machine_secs: 4000.0,
                },
                StopCondition::AcquisitionBelow {
                    min_trials: 8,
                    threshold: 1e-12,
                    patience: 2,
                },
            ];

            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let via_run = TuningSession::new(&ev, 20, seed)
                .executor(executor())
                .stop_conditions(conditions)
                .run(&mut t1);

            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut core = AskTellSession::new(20, seed).stop_conditions(conditions);
            manual_ask_tell(&ev, &mut t2, &mut core, &executor());
            let via_steps = core.into_result(t2.name());
            assert_eq!(via_run, via_steps, "seed {seed}");
            // The chaos plan produced at least one non-Ok status
            // somewhere across the golden seeds; censoring specifically
            // is covered by the executor's own tests.
            assert_eq!(via_run.stop_reason, via_steps.stop_reason);
        }
    }

    #[test]
    fn run_matches_manual_ask_tell_with_warm_start() {
        let ev = evaluator(33);
        let seeds: Vec<Configuration> = (0..2)
            .map(|i| {
                let mut rng = Pcg64::with_stream(33, 2000 + i);
                ev.space().sample(&mut rng).expect("sample")
            })
            .collect();
        let mut t1 = BoTuner::with_defaults(ev.space().clone(), 33);
        let via_run = TuningSession::new(&ev, 9, 33)
            .warm_start(seeds.clone())
            .run(&mut t1);

        let mut t2 = BoTuner::with_defaults(ev.space().clone(), 33);
        let mut core = AskTellSession::new(9, 33).warm_start(seeds);
        manual_ask_tell(&ev, &mut t2, &mut core, &TrialExecutor::passthrough());
        let via_steps = core.into_result(t2.name());
        assert_eq!(via_run, via_steps);
    }

    #[test]
    fn ask_tell_protocol_misuse_is_rejected() {
        let ev = evaluator(40);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut core = AskTellSession::new(3, 40);

        // tell before any ask: nothing pending.
        assert_eq!(
            core.tell_outcome(&mut t, TrialOutcome::failed("early", 1.0)),
            Err(AskTellError::NothingPending)
        );

        // ask twice without a tell: pending outstanding.
        let Ask::Trial(p) = core.ask(&mut t).unwrap() else {
            panic!("budget not exhausted yet");
        };
        assert_eq!(core.ask(&mut t), Err(AskTellError::PendingOutstanding));
        assert_eq!(core.pending().map(|q| q.trial), Some(p.trial));

        // tell resolves the pending trial and unblocks the next ask.
        let outcome = ev.evaluate_with_fidelity(&p.config, p.rep, p.fidelity);
        assert_eq!(core.tell_outcome(&mut t, outcome), Ok(0));
        assert!(core.pending().is_none());
        assert!(matches!(core.ask(&mut t), Ok(Ask::Trial(_))));
    }

    #[test]
    fn finished_ask_is_repeatable() {
        let ev = evaluator(41);
        let mut t = RandomSearch::new(ev.space().clone());
        let mut core = AskTellSession::new(2, 41);
        manual_ask_tell(&ev, &mut t, &mut core, &TrialExecutor::passthrough());
        assert!(core.is_finished());
        // Asking after the end is idempotent and reports the same
        // terminal state every time.
        for _ in 0..3 {
            assert_eq!(core.ask(&mut t), Ok(Ask::Finished { reason: None }));
        }
        assert_eq!(core.history().len(), 2);
        assert_eq!(core.stop_reason(), None);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Counts events and discards them — registration must be
        /// invisible to the run.
        struct Counter(usize);
        impl TrialObserver for Counter {
            fn on_event(&mut self, _event: &TrialEvent<'_>) {
                self.0 += 1;
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn observer_registration_never_perturbs_results(
                seed in 0u64..1000,
                budget in 3usize..10,
                observers in 0usize..4,
                batched in 0u8..2,
            ) {
                let ev = evaluator(seed);
                let concurrency = if batched == 1 {
                    Concurrency::Batched { batch_size: 3 }
                } else {
                    Concurrency::Sequential
                };
                let run = |n: usize| {
                    let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                    let mut s = TuningSession::new(&ev, budget, seed)
                        .concurrency(concurrency);
                    for _ in 0..n {
                        s = s.observe_with(Box::new(Counter(0)));
                    }
                    s.run(&mut t)
                };
                let bare = run(0);
                let observed = run(observers);
                prop_assert_eq!(bare, observed);
            }
        }
    }

    mod drift_sessions {
        use super::*;
        use crate::drift::{DriftConfig, DriftCtl, ReTunePolicy};
        use mlconf_sim::scenario::{EnvState, ScenarioEvent, ScenarioScript};
        use proptest::prelude::*;

        /// A harsh environment shift: compute throttled to a quarter,
        /// network to a tenth — big enough that any workload's
        /// log-objective moves far beyond measurement noise.
        fn harsh_shift_at(t: f64) -> ScenarioScript {
            let mut script = ScenarioScript::stationary("harsh-shift");
            script.push(ScenarioEvent {
                at_secs: t,
                env: EnvState {
                    compute_scale: 0.25,
                    net_scale: 0.1,
                    ..EnvState::neutral()
                },
            });
            script
        }

        /// A trigger-happy detector for tests that want to see firings
        /// within a small budget.
        fn eager() -> DriftConfig {
            DriftConfig {
                delta: 0.2,
                lambda: 1.0,
                min_obs: 1,
                probe_every: 2,
                top_knobs: 2,
                probes: 3,
            }
        }

        #[test]
        fn off_policy_is_byte_identical_at_golden_seeds() {
            for seed in [11, 22, 33] {
                let ev = evaluator(seed);
                let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
                let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
                let plain = TuningSession::new(&ev, 12, seed).run(&mut t1);
                let off = TuningSession::new(&ev, 12, seed)
                    .retune(ReTunePolicy::Off, DriftConfig::default())
                    .run(&mut t2);
                assert_eq!(plain, off, "seed {seed}");
                assert_eq!(off.drift_events, 0);
                assert_eq!(off.retune_count, 0);
            }
        }

        #[test]
        fn stationary_scenario_never_retunes_at_golden_seeds() {
            for seed in [11, 22, 33] {
                let ev = evaluator(seed).with_scenario(ScenarioScript::stationary("flat"));
                let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                let r = TuningSession::new(&ev, 25, seed)
                    .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                    .run(&mut t);
                assert_eq!(r.drift_events, 0, "seed {seed}: false drift detection");
                assert_eq!(r.retune_count, 0, "seed {seed}: false re-tune");
            }
        }

        #[test]
        fn drifting_world_detects_and_retunes() {
            let seed = 11;
            // Establish where the virtual wall clock sits after five
            // trials so the shift lands mid-session: the pre-shift
            // prefix is identical between the two runs.
            let ev = evaluator(seed);
            let mut t0 = BoTuner::with_defaults(ev.space().clone(), seed);
            let base = TuningSession::new(&ev, 5, seed).run(&mut t0);
            let t_shift: f64 = base
                .history
                .trials()
                .iter()
                .map(|t| {
                    if t.outcome.is_ok() {
                        t.outcome.tta_secs
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                + 1.0;

            let ev = evaluator(seed).with_scenario(harsh_shift_at(t_shift));
            let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut recorder = Recorder::default();
            let r = TuningSession::new(&ev, 30, seed)
                .retune(ReTunePolicy::OnDrift, eager())
                .observe_with(Box::new(&mut recorder))
                .run(&mut t);
            assert!(r.drift_events >= 1, "harsh shift went undetected");
            assert!(r.retune_count >= 1, "detection without re-tune");
            let lines = recorder.0;
            let count = |kind: &str| {
                lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                    .count()
            };
            assert_eq!(count("drift_detected"), r.drift_events);
            assert_eq!(count("retune_started"), r.retune_count);
            assert!(count("retune_completed") >= 1, "no re-tune ever completed");
            assert!(
                lines.iter().any(
                    |l| l.contains("\"event\":\"retune_started\"") && l.contains("\"knobs\":[")
                ),
                "retune_started must carry the significant knobs"
            );
        }

        #[test]
        fn always_policy_retunes_without_a_scenario() {
            let ev = evaluator(44);
            let mut t = BoTuner::with_defaults(ev.space().clone(), 44);
            let r = TuningSession::new(&ev, 20, 44)
                .retune(
                    ReTunePolicy::Always { every: 4 },
                    DriftConfig {
                        probes: 2,
                        ..DriftConfig::default()
                    },
                )
                .run(&mut t);
            assert!(
                r.retune_count >= 2,
                "every=4 over 20 trials: {}",
                r.retune_count
            );
        }

        #[test]
        fn drift_resume_state_roundtrips_mid_retune() {
            let seed = 22;
            let ev = evaluator(seed).with_scenario(harsh_shift_at(2000.0));
            let executor = TrialExecutor::passthrough();
            let make = || {
                AskTellSession::new(24, seed).drift_ctl(DriftCtl::new(
                    ReTunePolicy::OnDrift,
                    eager(),
                    ev.space().clone(),
                    seed,
                ))
            };
            let step = |s: &mut AskTellSession<'_>, t: &mut dyn Tuner| match s.ask(t).unwrap() {
                Ask::Finished { .. } => false,
                Ask::Trial(p) => {
                    let executed = executor.execute_at(
                        &ev,
                        &p.config,
                        p.rep,
                        p.fidelity,
                        p.trial,
                        s.incumbent_tta(),
                        Some(s.wall_secs()),
                    );
                    s.tell(t, executed).unwrap();
                    true
                }
            };
            let mut t1 = BoTuner::with_defaults(ev.space().clone(), seed);
            let mut a = make();
            for _ in 0..12 {
                if !step(&mut a, &mut t1) {
                    break;
                }
            }
            // Snapshot mid-run (ideally mid-re-tune), restore into a
            // fresh machine, and race both to the end.
            let snap = a.resume_state();
            assert!(snap.drift.is_some(), "drift state must be snapshotted");
            let mut b = make();
            let mut t2 = BoTuner::with_defaults(ev.space().clone(), seed);
            t2.restore(&t1.checkpoint().unwrap(), a.history()).unwrap();
            b.restore_resume_state(snap).unwrap();
            loop {
                let more_a = step(&mut a, &mut t1);
                let more_b = step(&mut b, &mut t2);
                assert_eq!(more_a, more_b);
                if !more_a {
                    break;
                }
            }
            assert_eq!(a.resume_state(), b.resume_state());
            assert_eq!(a.into_result("bo"), b.into_result("bo"));
        }

        #[test]
        fn restore_rejects_drift_state_mismatch() {
            let ev = evaluator(7);
            let with_ctl = || {
                AskTellSession::new(5, 7).drift_ctl(DriftCtl::new(
                    ReTunePolicy::OnDrift,
                    DriftConfig::default(),
                    ev.space().clone(),
                    7,
                ))
            };
            let without = AskTellSession::new(5, 7);
            assert!(with_ctl()
                .restore_resume_state(without.resume_state())
                .is_err());
            let mut plain = AskTellSession::new(5, 7);
            assert!(plain
                .restore_resume_state(with_ctl().resume_state())
                .is_err());
        }

        #[test]
        #[should_panic(expected = "sequential")]
        fn batched_concurrency_rejects_retune_policies() {
            let ev = evaluator(9);
            let mut t = RandomSearch::new(ev.space().clone());
            TuningSession::new(&ev, 8, 9)
                .concurrency(Concurrency::Batched { batch_size: 4 })
                .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                .run(&mut t);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// False-positive guard: under stationary scenarios the
            /// default detector never fires, whatever the seed.
            #[test]
            fn stationary_scenario_never_retunes(seed in 0u64..500) {
                let ev = evaluator(seed)
                    .with_scenario(ScenarioScript::stationary("flat"));
                let mut t = BoTuner::with_defaults(ev.space().clone(), seed);
                let r = TuningSession::new(&ev, 15, seed)
                    .retune(ReTunePolicy::OnDrift, DriftConfig::default())
                    .run(&mut t);
                prop_assert_eq!(r.drift_events, 0);
                prop_assert_eq!(r.retune_count, 0);
            }
        }
    }
}
