//! `mlconf tune` — search for the best configuration, driven through
//! the [`TuningSession`] pipeline (executor policy, optional batched
//! concurrency, JSONL event tracing).

use mlconf_sim::scenario::ScenarioScript;
use mlconf_space::config::config_to_json;
use mlconf_tuners::bo::{BoConfig, BoTuner};
use mlconf_tuners::drift::{DriftConfig, ReTunePolicy};
use mlconf_tuners::executor::{RetryPolicy, TimeoutPolicy, TrialExecutor};
use mlconf_tuners::factory::{bo_spec, build_tuner};
use mlconf_tuners::history_io::{load_csv, load_fault_plan, save_csv};
use mlconf_tuners::session::{Concurrency, JsonlTraceSink, TuneResult, TuningSession};
use mlconf_tuners::transfer::SourceHistory;
use mlconf_tuners::tuner::Tuner;
use mlconf_util::json::{obj, Json};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::tunespace::default_config;
use mlconf_workloads::workload::by_name;

use crate::args::Args;
use crate::commands::CliError;

/// `mlconf tune ...`
pub fn tune_cmd(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "workload",
        "objective",
        "deadline",
        "tuner",
        "portfolio-arms",
        "surrogate",
        "sparse-threshold",
        "budget",
        "max-nodes",
        "seed",
        "verbose",
        "save-history",
        "warm-start",
        "parallel",
        "trial-timeout",
        "max-retries",
        "fault-plan",
        "trace",
        "json",
        "scenario",
        "retune-policy",
    ])?;
    let workload_name = args
        .get("workload")
        .ok_or_else(|| CliError::Usage("--workload is required".into()))?;
    let workload = by_name(workload_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown workload `{workload_name}` (see `mlconf workloads`)"
        ))
    })?;
    let objective = match args.get_or("objective", "tta") {
        "tta" => Objective::TimeToAccuracy,
        "cost" => Objective::CostToAccuracy,
        "deadline" => Objective::DeadlineCost {
            deadline_secs: args
                .get("deadline")
                .ok_or_else(|| CliError::Usage("--deadline is required for deadline".into()))?
                .parse()
                .map_err(|_| CliError::Usage("--deadline: not a number".into()))?,
            penalty: 5.0,
        },
        other => return Err(CliError::Usage(format!("unknown objective `{other}`"))),
    };
    let budget: usize = args.get_parse("budget", 30)?;
    let max_nodes: i64 = args.get_parse("max-nodes", 32)?;
    let seed: u64 = args.get_parse("seed", 42)?;

    let mut evaluator = ConfigEvaluator::new(workload, objective, max_nodes, seed);
    // `--scenario` pins a time-varying environment: either a named spec
    // (`congestion:7`) or a path to a CSV script written by hand or by
    // `ScenarioScript::to_csv`.
    let dynamic = args.get("scenario").is_some();
    if let Some(spec) = args.get("scenario") {
        let script = if std::path::Path::new(spec).is_file() {
            let csv = std::fs::read_to_string(spec)
                .map_err(|e| CliError::Failed(format!("cannot read {spec}: {e}")))?;
            ScenarioScript::from_csv(spec, &csv)
                .map_err(|e| CliError::Usage(format!("--scenario {spec}: {e}")))?
        } else {
            ScenarioScript::parse_spec(spec)
                .map_err(|e| CliError::Usage(format!("--scenario: {e}")))?
        };
        evaluator = evaluator.with_scenario(script);
    }
    let retune_policy = ReTunePolicy::parse_spec(args.get_or("retune-policy", "off"))
        .map_err(|e| CliError::Usage(format!("--retune-policy: {e}")))?;
    let space = evaluator.space().clone();

    // `--portfolio-arms bo,lhs` is sugar for `--tuner portfolio:bo,lhs`.
    let tuner_name = match (args.get_or("tuner", "bo"), args.get("portfolio-arms")) {
        (name, None) => name.to_owned(),
        ("portfolio", Some(arms)) => format!("portfolio:{arms}"),
        (other, Some(_)) => {
            return Err(CliError::Usage(format!(
                "--portfolio-arms only applies to --tuner portfolio, not `{other}`"
            )))
        }
    };
    // `--surrogate sparse --sparse-threshold 64` are sugar for the
    // corresponding `bo:` spec options (`bo:surrogate=sparse,...`),
    // mirroring how `--portfolio-arms` expands to a portfolio spec.
    let tuner_name = match (args.get("surrogate"), args.get("sparse-threshold")) {
        (None, None) => tuner_name,
        (surrogate, threshold) => {
            let mut opts: Vec<String> = match tuner_name.as_str() {
                "bo" => Vec::new(),
                spec => match spec.strip_prefix("bo:") {
                    Some(rest) => vec![rest.to_owned()],
                    None => {
                        return Err(CliError::Usage(format!(
                            "--surrogate/--sparse-threshold only apply to --tuner bo, \
                             not `{tuner_name}`"
                        )))
                    }
                },
            };
            if let Some(s) = surrogate {
                opts.push(format!("surrogate={s}"));
            }
            if let Some(t) = threshold {
                opts.push(format!("threshold={t}"));
            }
            format!("bo:{}", opts.join(","))
        }
    };
    // `--warm-start F` attaches a saved history as prior data to the
    // same BO tuner `--tuner bo[:spec]` builds. The tuner is checked
    // before the file is opened, so a misuse is reported as such.
    let mut tuner: Box<dyn Tuner + Send> = match args.get("warm-start") {
        None => build_tuner(
            &tuner_name,
            space,
            budget,
            seed,
            Some(default_config(max_nodes)),
        )
        .map_err(|e| CliError::Usage(e.to_string()))?,
        Some(path) => {
            let config = match tuner_name.as_str() {
                "bo" => BoConfig::default(),
                spec => bo_spec(spec)
                    .map_err(|e| CliError::Usage(e.to_string()))?
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "--warm-start only applies to --tuner bo, not `{tuner_name}`"
                        ))
                    })?,
            };
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Failed(format!("cannot open {path}: {e}")))?;
            let loaded = load_csv(&space, std::io::BufReader::new(file))
                .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
            let source = SourceHistory::from_history(&loaded, &space).ok_or_else(|| {
                CliError::Failed(format!(
                    "{path}: too few successful trials to warm-start from"
                ))
            })?;
            Box::new(BoTuner::new(space, config, seed).with_prior(vec![source]))
        }
    };

    let parallel: usize = args.get_parse("parallel", 1)?;
    if parallel == 0 {
        return Err(CliError::Usage("--parallel must be at least 1".into()));
    }
    if retune_policy != ReTunePolicy::Off && parallel > 1 {
        return Err(CliError::Usage(
            "--retune-policy requires sequential execution (drop --parallel)".into(),
        ));
    }

    // Robust-execution policy: all three flags are optional and compose.
    let trial_timeout: f64 = args.get_parse("trial-timeout", 0.0)?;
    if trial_timeout < 0.0 || !trial_timeout.is_finite() {
        return Err(CliError::Usage(
            "--trial-timeout must be a finite number >= 0".into(),
        ));
    }
    let max_retries: u32 = args.get_parse("max-retries", 0)?;
    let mut executor = TrialExecutor::passthrough();
    if trial_timeout > 0.0 {
        executor = executor.with_timeout(TimeoutPolicy::Absolute(trial_timeout));
    }
    if max_retries > 0 {
        executor = executor.with_retry(RetryPolicy {
            max_retries,
            ..RetryPolicy::standard()
        });
    }
    let chaos = args.get("fault-plan").is_some();
    if let Some(path) = args.get("fault-plan") {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::Failed(format!("cannot open {path}: {e}")))?;
        let plan = load_fault_plan(std::io::BufReader::new(file))
            .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
        executor = executor.with_plan(plan);
    }
    let robust = chaos || trial_timeout > 0.0 || max_retries > 0;
    // Seed the executor's backoff-jitter stream even when only timeouts
    // are enabled, so adding retries later never reorders anything else.
    executor = executor.with_seed(seed);

    let mut trace = match args.get("trace") {
        Some(path) => Some((
            path,
            JsonlTraceSink::to_file(std::path::Path::new(path))
                .map_err(|e| CliError::Failed(format!("cannot create {path}: {e}")))?,
        )),
        None => None,
    };
    let mut session = TuningSession::new(&evaluator, budget, seed)
        .executor(executor)
        .retune(retune_policy, DriftConfig::default());
    if parallel > 1 {
        session = session.concurrency(Concurrency::Batched {
            batch_size: parallel,
            eval_threads: 0,
        });
    }
    if let Some((_, sink)) = trace.as_mut() {
        session = session.observe_with(Box::new(sink));
    }
    let result = session.run(tuner.as_mut());

    let mut out = format!(
        "tuned {} for {} with {} ({} trials)\n",
        workload_name,
        evaluator.objective().name(),
        result.tuner,
        result.history.len()
    );
    if args.has("verbose") {
        for t in result.history.trials() {
            match t.outcome.objective {
                Some(v) => out.push_str(&format!("  #{:>2}  {:>12.2}  {}\n", t.index, v, t.config)),
                None => out.push_str(&format!(
                    "  #{:>2}        FAILED  {} ({})\n",
                    t.index,
                    t.config,
                    t.outcome.failure.as_deref().unwrap_or("?")
                )),
            }
        }
    }
    match result.history.best() {
        Some(best) => {
            out.push_str(&format!("\nbest configuration: {}\n", best.config));
            out.push_str(&format!(
                "objective {:.2} | time-to-accuracy {:.0}s | cost ${:.2} | throughput {:.0}/s\n",
                best.outcome.objective.unwrap_or(f64::NAN),
                best.outcome.tta_secs,
                best.outcome.cost_usd,
                best.outcome.throughput
            ));
        }
        None => out.push_str("\nno feasible configuration found\n"),
    }
    let failed = result
        .history
        .trials()
        .iter()
        .filter(|t| !t.outcome.is_ok())
        .count();
    out.push_str(&format!(
        "search: {} trials, {} failed, {:.0} machine-seconds burned\n",
        result.history.len(),
        failed,
        result
            .history
            .cumulative_search_cost()
            .last()
            .copied()
            .unwrap_or(0.0)
    ));
    if robust {
        out.push_str(&format!(
            "execution: {} timeouts, {} crashes, {} ooms, {} retries, {:.0} machine-seconds wasted\n",
            result.exec.timeouts,
            result.exec.crashes,
            result.exec.ooms,
            result.exec.retries,
            result.exec.wasted_machine_secs
        ));
    }
    if dynamic || retune_policy != ReTunePolicy::Off {
        out.push_str(&format!(
            "dynamics: {} drift events, {} re-tunes ({} policy)\n",
            result.drift_events,
            result.retune_count,
            retune_policy.to_spec()
        ));
    }
    if let Some(path) = args.get("save-history") {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Failed(format!("cannot create {path}: {e}")))?;
        save_csv(
            &result.history,
            evaluator.space(),
            std::io::BufWriter::new(file),
        )
        .map_err(|e| CliError::Failed(format!("cannot write history to {path}: {e}")))?;
        out.push_str(&format!("history saved to {path}\n"));
    }
    // A failed trace write never stops the run or the history save; it
    // fails the command once both are done.
    if let Some((path, sink)) = trace {
        sink.finish()
            .map_err(|e| CliError::Failed(format!("cannot write trace to {path}: {e}")))?;
    }
    if args.has("json") {
        out.push_str(&json_summary(workload_name, &evaluator, &result, failed).render());
        out.push('\n');
    }
    Ok(out)
}

/// Machine-readable one-line JSON summary appended by `--json`.
fn json_summary(
    workload_name: &str,
    evaluator: &ConfigEvaluator,
    result: &TuneResult,
    failed: usize,
) -> Json {
    let count = |n: usize| Json::Num(n as f64);
    let best = match result.history.best() {
        Some(b) => obj([
            (
                "objective",
                b.outcome.objective.map_or(Json::Null, Json::Num),
            ),
            ("tta_secs", Json::Num(b.outcome.tta_secs)),
            ("cost_usd", Json::Num(b.outcome.cost_usd)),
            ("throughput", Json::Num(b.outcome.throughput)),
            ("config", config_to_json(&b.config)),
        ]),
        None => Json::Null,
    };
    let search_cost = result
        .history
        .cumulative_search_cost()
        .last()
        .copied()
        .unwrap_or(0.0);
    let exec = &result.exec;
    obj([
        ("workload", Json::Str(workload_name.into())),
        ("objective", Json::Str(evaluator.objective().name().into())),
        ("tuner", Json::Str(result.tuner.clone())),
        ("trials", count(result.history.len())),
        ("failed", count(failed)),
        ("stopped_early", Json::Bool(result.stopped_early)),
        (
            "stop_reason",
            result
                .stop_reason
                .map_or(Json::Null, |r| Json::Str(r.name().into())),
        ),
        ("search_cost_machine_secs", Json::Num(search_cost)),
        ("drift_events", count(result.drift_events)),
        ("retune_count", count(result.retune_count)),
        ("best", best),
        (
            "exec",
            obj([
                ("timeouts", count(exec.timeouts)),
                ("crashes", count(exec.crashes)),
                ("ooms", count(exec.ooms)),
                ("retries", count(exec.retries)),
                ("wasted_machine_secs", Json::Num(exec.wasted_machine_secs)),
                ("backoff_secs", Json::Num(exec.backoff_secs)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use crate::commands::{run_argv, CliError};
    use mlconf_tuners::history_io::{load_csv, save_csv};
    use mlconf_tuners::tuner::TrialHistory;
    use mlconf_util::json::{parse, Json};
    use mlconf_workloads::tunespace::standard_space;
    use std::path::{Path, PathBuf};

    #[test]
    fn tune_small_run() {
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "6",
            "--max-nodes",
            "8",
            "--tuner",
            "random",
        ])
        .unwrap();
        assert!(out.contains("best configuration"));
        assert!(out.contains("6 trials"));
    }

    #[test]
    fn tune_deadline_objective_needs_deadline() {
        assert!(matches!(
            run_argv(&["tune", "--workload", "mlp-mnist", "--objective", "deadline"]),
            Err(CliError::Usage(_))
        ));
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--objective",
            "deadline",
            "--deadline",
            "3600",
            "--budget",
            "4",
            "--tuner",
            "random",
        ])
        .unwrap();
        assert!(out.contains("deadline-cost"));
    }

    #[test]
    fn tune_verbose_prints_trials() {
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "3",
            "--tuner",
            "random",
            "--verbose",
        ])
        .unwrap();
        assert!(out.contains("# 0"));
        assert!(out.contains("# 2"));
    }

    /// A fresh temp dir holding `history.csv`: a short random-search
    /// history of lda-news, the warm-start source of the tests below.
    fn dir_with_source_history(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mlconf_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.csv");
        let out = run_argv(&[
            "tune",
            "--workload",
            "lda-news",
            "--budget",
            "8",
            "--tuner",
            "random",
            "--save-history",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("history saved"), "{out}");
        (dir, path)
    }

    fn load_history(path: &Path) -> TrialHistory {
        let file = std::fs::File::open(path).unwrap();
        load_csv(&standard_space(32), std::io::BufReader::new(file)).unwrap()
    }

    #[test]
    fn save_then_warm_start_roundtrip() {
        let (dir, path) = dir_with_source_history("cli_test");
        // Warm-start a related workload from the saved history.
        let warm_path = dir.join("warm.csv");
        let out = run_argv(&[
            "tune",
            "--workload",
            "cnn-cifar",
            "--budget",
            "5",
            "--tuner",
            "bo",
            "--warm-start",
            path.to_str().unwrap(),
            "--save-history",
            warm_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("5 trials"), "{out}");
        // The prior's initial design opens with the source's best
        // configuration.
        let (source, warm) = (load_history(&path), load_history(&warm_path));
        assert_eq!(warm.trials()[0].config, source.best().unwrap().config);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_composes_with_a_sparse_bo_spec() {
        let (dir, path) = dir_with_source_history("warm_sparse");
        // Forced-sparse mode fits every model-phase round, source points
        // included, on the sparse path.
        let out = run_argv(&[
            "tune",
            "--workload",
            "cnn-cifar",
            "--budget",
            "10",
            "--tuner",
            "bo:surrogate=sparse,threshold=4",
            "--warm-start",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("10 trials"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_rejects_non_finite_objectives_naming_the_line() {
        let (dir, path) = dir_with_source_history("warm_nonfinite");
        let history = load_history(&path);
        let first_ok = history.trials().iter().position(|t| t.outcome.is_ok());
        let first_ok = first_ok.expect("a successful trial");
        for bad in [f64::INFINITY, f64::NAN] {
            let mut doctored = TrialHistory::new();
            for (i, t) in history.trials().iter().enumerate() {
                let mut outcome = t.outcome.clone();
                if i == first_ok {
                    outcome.objective = Some(bad);
                }
                doctored.push(t.config.clone(), outcome);
            }
            let file = std::fs::File::create(&path).unwrap();
            save_csv(&doctored, &standard_space(32), file).unwrap();
            let err = run_argv(&[
                "tune",
                "--workload",
                "cnn-cifar",
                "--budget",
                "5",
                "--warm-start",
                path.to_str().unwrap(),
            ]);
            let line = format!("line {}", first_ok + 1);
            match err {
                Err(CliError::Failed(msg)) => assert!(msg.contains(&line), "{bad}: {msg}"),
                other => panic!("{bad}: expected a failure naming {line}, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn surrogate_flags_run_and_reject_misuse() {
        // A sparse-mode run small enough for CI: the threshold forces the
        // sparse path as soon as the model phase starts.
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "8",
            "--max-nodes",
            "8",
            "--tuner",
            "bo",
            "--surrogate",
            "sparse",
            "--sparse-threshold",
            "4",
        ])
        .unwrap();
        assert!(out.contains("8 trials"), "{out}");
        // Equivalent spec spelling works without the sugar flags.
        let out2 = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "8",
            "--max-nodes",
            "8",
            "--tuner",
            "bo:surrogate=sparse,threshold=4",
        ])
        .unwrap();
        assert!(out2.contains("8 trials"), "{out2}");
        // Only the BO tuner has a surrogate.
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--tuner",
                "random",
                "--surrogate",
                "sparse"
            ]),
            Err(CliError::Usage(_))
        ));
        // Bad mode values surface the factory's error.
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--tuner",
                "bo",
                "--surrogate",
                "lazy"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn tune_under_fault_plan_reports_execution_and_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("mlconf_chaos_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.csv");
        let plan = mlconf_sim::faultplan::FaultPlan::scripted(10, 2.0, 7);
        let mut buf = Vec::new();
        mlconf_tuners::history_io::save_fault_plan(&plan, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let argv = [
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "10",
            "--tuner",
            "random",
            "--seed",
            "7",
            "--max-retries",
            "2",
            "--trial-timeout",
            "5000",
            "--fault-plan",
            path.to_str().unwrap(),
        ];
        let out = run_argv(&argv).unwrap();
        assert!(out.contains("execution:"), "{out}");
        assert!(out.contains("10 trials"), "{out}");
        // Chaos runs replay exactly: same seed + same plan, same output.
        assert_eq!(out, run_argv(&argv).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_rejects_bad_robustness_flags() {
        assert!(matches!(
            run_argv(&["tune", "--workload", "mlp-mnist", "--trial-timeout", "-3"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--fault-plan",
                "/nonexistent/p.csv"
            ]),
            Err(CliError::Failed(_))
        ));
    }

    #[test]
    fn parallel_tuning_runs_and_rejects_zero() {
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "8",
            "--tuner",
            "random",
            "--parallel",
            "4",
        ])
        .unwrap();
        assert!(out.contains("8 trials"));
        assert!(matches!(
            run_argv(&["tune", "--workload", "mlp-mnist", "--parallel", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn warm_start_rejects_non_bo_and_missing_file() {
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--tuner",
                "random",
                "--warm-start",
                "/nonexistent.csv"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--tuner",
                "bo",
                "--warm-start",
                "/definitely/not/here.csv"
            ]),
            Err(CliError::Failed(_))
        ));
    }

    #[test]
    fn json_flag_appends_parseable_summary() {
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "5",
            "--tuner",
            "random",
            "--json",
        ])
        .unwrap();
        let json_line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("a JSON summary line");
        let summary = parse(json_line).unwrap_or_else(|e| panic!("{e}: {json_line}"));
        let field = |key: &str| summary.get(key).unwrap_or_else(|| panic!("missing {key}"));
        assert_eq!(field("workload").as_str(), Some("mlp-mnist"));
        assert_eq!(field("tuner").as_str(), Some("random"));
        assert_eq!(field("trials").as_i64(), Some(5));
        assert_eq!(field("stopped_early").as_bool(), Some(false));
        assert!(field("best").get("config").is_some(), "{json_line}");
        assert_eq!(field("exec").get("retries").and_then(Json::as_i64), Some(0));
        // The human-readable report is still there.
        assert!(out.contains("best configuration"));
    }

    #[test]
    fn scenario_and_retune_flags_run_and_report_dynamics() {
        let argv = [
            "tune",
            "--workload",
            "cnn-cifar",
            "--budget",
            "10",
            "--max-nodes",
            "8",
            "--tuner",
            "random",
            "--seed",
            "11",
            "--scenario",
            "congestion:7",
            "--retune-policy",
            "always:4",
            "--json",
        ];
        let out = run_argv(&argv).unwrap();
        assert!(out.contains("dynamics:"), "{out}");
        let json_line = out.lines().find(|l| l.starts_with('{')).unwrap();
        assert!(json_line.contains("\"drift_events\":"), "{json_line}");
        assert!(json_line.contains("\"retune_count\":"), "{json_line}");
        // An `always` policy re-tunes by schedule, scenario or not.
        assert!(!json_line.contains("\"retune_count\":0"), "{json_line}");
        // Dynamic runs replay exactly: same seed, same output.
        assert_eq!(out, run_argv(&argv).unwrap());
    }

    #[test]
    fn scenario_csv_file_is_accepted() {
        let dir = std::env::temp_dir().join(format!("mlconf_scen_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("script.csv");
        std::fs::write(
            &path,
            "at_secs,compute_scale,net_scale,node_delta,straggler_scale\n5000,0.5,0.8,-1,2\n",
        )
        .unwrap();
        let out = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "4",
            "--tuner",
            "random",
            "--scenario",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("4 trials"), "{out}");
        assert!(out.contains("dynamics:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_and_retune_usage_errors() {
        for argv in [
            // Unknown scenario kind.
            vec!["tune", "--workload", "mlp-mnist", "--scenario", "warpdrive"],
            // Malformed scenario spec fields.
            vec![
                "tune",
                "--workload",
                "mlp-mnist",
                "--scenario",
                "congestion:x",
            ],
            vec![
                "tune",
                "--workload",
                "mlp-mnist",
                "--scenario",
                "congestion:1:0",
            ],
            // Unknown policy and a zero period.
            vec![
                "tune",
                "--workload",
                "mlp-mnist",
                "--retune-policy",
                "sometimes",
            ],
            vec![
                "tune",
                "--workload",
                "mlp-mnist",
                "--retune-policy",
                "always:0",
            ],
            // Re-tuning is sequential-only.
            vec![
                "tune",
                "--workload",
                "mlp-mnist",
                "--retune-policy",
                "on-drift",
                "--parallel",
                "4",
            ],
        ] {
            assert!(
                matches!(run_argv(&argv), Err(CliError::Usage(_))),
                "should reject {argv:?}"
            );
        }
        // A scenario CSV that fails to parse is a usage error too.
        let dir = std::env::temp_dir().join(format!("mlconf_badscen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(
            &path,
            "at_secs,compute_scale,net_scale,node_delta,straggler_scale\n5,zap,1,0,1\n",
        )
        .unwrap();
        assert!(matches!(
            run_argv(&[
                "tune",
                "--workload",
                "mlp-mnist",
                "--scenario",
                path.to_str().unwrap()
            ]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_csv_node_delta_overflow_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("mlconf_minscen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("min.csv");
        std::fs::write(
            &path,
            "at_secs,compute_scale,net_scale,node_delta,straggler_scale\n\
             100,1,1,-9223372036854775808,1\n",
        )
        .unwrap();
        let result = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "3",
            "--tuner",
            "random",
            "--scenario",
            path.to_str().unwrap(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        match result {
            Err(CliError::Usage(m)) => {
                assert!(m.contains("line 2") && m.contains("node_delta"), "{m}")
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn stationary_run_is_unchanged_by_noop_scenario_flags() {
        // A stationary world plus an `off` policy must not perturb the
        // tuning trajectory: the report (minus the dynamics line) is
        // byte-identical to a plain run.
        let plain = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "6",
            "--tuner",
            "random",
            "--seed",
            "22",
        ])
        .unwrap();
        let scripted = run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "6",
            "--tuner",
            "random",
            "--seed",
            "22",
            "--scenario",
            "stationary",
            "--retune-policy",
            "off",
        ])
        .unwrap();
        let stripped: String = scripted
            .lines()
            .filter(|l| !l.starts_with("dynamics:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(plain, stripped);
        assert!(scripted.contains("dynamics: 0 drift events, 0 re-tunes"));
    }

    #[test]
    fn trace_flag_writes_one_event_per_lifecycle_transition() {
        let dir = std::env::temp_dir().join(format!("mlconf_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        run_argv(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "6",
            "--tuner",
            "random",
            "--seed",
            "3",
            "--trace",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        let events: Vec<&str> = trace.lines().collect();
        let count = |kind: &str| {
            events
                .iter()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count("trial_started"), 6, "{trace}");
        assert_eq!(count("trial_completed"), 6, "{trace}");
        assert!(count("incumbent_improved") >= 1, "{trace}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
