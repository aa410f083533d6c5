//! Process-kill chaos harness: a full tuning loop driven through the
//! real `mlconf serve` binary while a supervisor SIGKILLs and restarts
//! it at seeded random points. The resilient client rides through every
//! outage — retrying connects, re-issuing the pending suggest, and
//! replaying a dedup-keyed report whose ACK the crash swallowed — and
//! the final history must be bit-identical to an uninterrupted
//! in-process run at the same seed.

use mlconf_serve::api::{config_from_json, outcome_from_json, outcome_to_json};
use mlconf_serve::client::Client;
use mlconf_serve::json::{obj, Json};
use mlconf_tuners::bo::BoTuner;
use mlconf_tuners::session::TuningSession;
use mlconf_tuners::tuner::TrialHistory;
use mlconf_util::rng::SplitMix64;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 11;
const BUDGET: usize = 14;
const MIN_KILL_CYCLES: usize = 5;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlconf_chaos_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Session files live under per-shard subdirectories (`shard-<k>/`);
/// which shard a session lands on is an implementation detail, so look
/// for `name` in every one.
fn shard_file(dir: &Path, name: &str) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path().join(name))
        .find(|p| p.exists())
}

/// Spawns `mlconf serve` on `addr` and scrapes the bound address from
/// its banner. Returns `None` if the process died before printing one
/// (e.g. the port is still in TIME_WAIT after a kill).
fn try_spawn(dir: &Path, addr: &str) -> Option<(Child, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mlconf"))
        .args([
            "serve",
            "--addr",
            addr,
            "--journal-dir",
            dir.to_str().unwrap(),
            "--shards",
            "2",
            "--snapshot-every",
            "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("mlconf binary spawns");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .ok();
    match banner.split_whitespace().find(|w| w.contains("127.0.0.1:")) {
        Some(bound) => Some((child, bound.to_owned())),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            None
        }
    }
}

fn spawn_server(dir: &Path, addr: &str) -> (Child, String) {
    for _ in 0..100 {
        if let Some(up) = try_spawn(dir, addr) {
            return up;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("server never came back on {addr}");
}

/// The supervised server: either running, or being resurrected by a
/// background thread after a seeded delay — during which the client is
/// on its own, retrying against a dead port.
enum Supervised {
    Up(Child),
    Restarting(std::thread::JoinHandle<Child>),
}

impl Supervised {
    fn settle(self) -> Child {
        match self {
            Supervised::Up(child) => child,
            Supervised::Restarting(handle) => handle.join().expect("restart thread"),
        }
    }

    /// SIGKILL (no shutdown, no drain: `Child::kill` is SIGKILL on
    /// unix), then restart on the same port after `delay` — from a
    /// background thread, so the tuning loop immediately runs into the
    /// outage.
    fn kill_and_restart(self, dir: &Path, addr: &str, delay: Duration) -> Supervised {
        let mut child = self.settle();
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
        let dir = dir.to_path_buf();
        let addr = addr.to_owned();
        Supervised::Restarting(std::thread::spawn(move || {
            std::thread::sleep(delay);
            spawn_server(&dir, &addr).0
        }))
    }
}

fn evaluator() -> ConfigEvaluator {
    ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, SEED)
}

fn chaos_client(addr: &str) -> Client {
    let mut client = Client::new(addr, SEED);
    client.max_retries = 20;
    client.backoff_base_secs = 0.02;
    client.max_backoff_secs = 0.3;
    client
}

fn decode_history(ev: &ConfigEvaluator, status: &Json) -> TrialHistory {
    let mut history = TrialHistory::new();
    for t in status.get("history").unwrap().as_arr().unwrap() {
        let cfg = config_from_json(ev.space(), t.get("config").unwrap()).unwrap();
        let outcome = outcome_from_json(t.get("outcome").unwrap()).unwrap();
        history.push(cfg, outcome);
    }
    history
}

#[test]
fn tuning_loop_rides_through_repeated_sigkill_chaos() {
    let ev = evaluator();

    // Reference: the same run, in process, never interrupted.
    let mut tuner = BoTuner::with_defaults(ev.space().clone(), SEED);
    let reference = TuningSession::new(&ev, BUDGET, SEED).run(&mut tuner);

    let dir = tmpdir("sigkill");
    let (child, addr) = spawn_server(&dir, "127.0.0.1:0");
    let mut server = Supervised::Up(child);
    let mut client = chaos_client(&addr);

    let spec = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"bo","budget":{BUDGET},"seed":{SEED},"max_nodes":8}}"#
    ))
    .unwrap();
    let id = client
        .create_session(&spec)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();

    // Seeded chaos schedule: kill every 1–2 steps, restart after
    // 50–250 ms. Budget 14 yields well over MIN_KILL_CYCLES kills.
    let mut chaos_rng = SplitMix64::new(0xc4a0_5eed ^ SEED);
    let mut until_kill = 1 + (chaos_rng.next_u64() % 2) as usize;
    let mut kills = 0usize;

    let mut steps = 0usize;
    loop {
        let suggestion = client.suggest(&id).expect("suggest rides through chaos");
        if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
            break;
        }
        let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
        let cfg = config_from_json(ev.space(), suggestion.get("config").unwrap()).unwrap();
        let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();

        // Half the kills land between suggest and report: the pending
        // trial must survive the crash and the report still apply.
        until_kill -= 1;
        let kill_mid_trial = until_kill == 0 && kills.is_multiple_of(2);
        if kill_mid_trial {
            let delay = Duration::from_millis(50 + chaos_rng.next_u64() % 200);
            server = server.kill_and_restart(&dir, &addr, delay);
            kills += 1;
            until_kill = 1 + (chaos_rng.next_u64() % 2) as usize;
        }

        let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
        let report = obj([("outcome", outcome_to_json(&outcome))]);

        if steps == 3 {
            // The dropped-ACK scenario: the report reaches the server
            // and is journaled, but the crash swallows the ACK. The
            // retried tell must come back `duplicate: true` — applied
            // once, not twice.
            let keyed = match &report {
                Json::Obj(fields) => {
                    let mut fields = fields.clone();
                    fields.push(("key".to_owned(), Json::Str(format!("t{trial}"))));
                    Json::Obj(fields)
                }
                _ => unreachable!(),
            };
            let (status, _) = client
                .request(
                    "POST",
                    &format!("/sessions/{id}/report"),
                    Some(&keyed.render()),
                )
                .expect("first report lands");
            assert_eq!(status, 200);
            server = server.kill_and_restart(&dir, &addr, Duration::from_millis(50));
            kills += 1;
            let retried = client.report(&id, trial, &keyed).expect("retried tell");
            assert_eq!(
                retried.get("duplicate").and_then(Json::as_bool),
                Some(true),
                "replayed keyed report must be deduplicated: {}",
                retried.render()
            );
        } else {
            let response = client
                .report(&id, trial, &report)
                .expect("report rides through");
            assert!(
                response.get("duplicate").is_none(),
                "fresh report flagged duplicate: {}",
                response.render()
            );
        }

        // The other half of the kills land after a completed step.
        if until_kill == 0 && !kill_mid_trial {
            let delay = Duration::from_millis(50 + chaos_rng.next_u64() % 200);
            server = server.kill_and_restart(&dir, &addr, delay);
            kills += 1;
            until_kill = 1 + (chaos_rng.next_u64() % 2) as usize;
        }
        steps += 1;
        assert!(steps <= BUDGET + 2, "loop failed to terminate");
    }

    assert!(
        kills >= MIN_KILL_CYCLES,
        "only {kills} kill/restart cycles; the harness must exercise at least {MIN_KILL_CYCLES}"
    );

    // Bit-identity with the uninterrupted in-process run.
    let status = client.status(&id).expect("final status");
    assert_eq!(
        decode_history(&ev, &status),
        reference.history,
        "chaos run diverged from the uninterrupted reference"
    );
    assert_eq!(
        status.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        status.render()
    );

    // The binary must actually be checkpointing (`--snapshot-every 3`):
    // recovery above would also succeed via full replay, so without this
    // a broken flag would pass silently.
    let snap = shard_file(&dir, &format!("{id}.snap"))
        .and_then(|p| mlconf_serve::snapshot::load(&p))
        .expect("server never wrote a snapshot despite --snapshot-every");
    let journal = std::fs::read(shard_file(&dir, &format!("{id}.jsonl")).unwrap()).unwrap();
    let tail = &journal[snap.offset as usize..];
    assert!(
        tail.iter().filter(|&&b| b == b'\n').count() <= 3,
        "journal holds more than 3 records past its checkpoint:\n{}",
        String::from_utf8_lossy(tail)
    );

    let mut child = server.settle();
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A BO session that crosses the sparse-surrogate threshold mid-run,
/// under the same SIGKILL chaos: snapshots taken after the crossing
/// carry the sparse cached-surrogate marker, and recovery through them
/// must land on the exact same trajectory as the uninterrupted
/// in-process run.
#[test]
fn sparse_surrogate_session_rides_through_sigkill_chaos() {
    const SPARSE_TUNER: &str = "bo:surrogate=auto,threshold=6,max-points=8,init=4";
    let ev = evaluator();

    let mut tuner =
        mlconf_tuners::factory::build_tuner(SPARSE_TUNER, ev.space().clone(), BUDGET, SEED, None)
            .expect("bo spec builds");
    let reference = TuningSession::new(&ev, BUDGET, SEED).run(tuner.as_mut());

    let dir = tmpdir("sparse_sigkill");
    let (child, addr) = spawn_server(&dir, "127.0.0.1:0");
    let mut server = Supervised::Up(child);
    let mut client = chaos_client(&addr);

    let spec = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"{SPARSE_TUNER}","budget":{BUDGET},"seed":{SEED},"max_nodes":8}}"#
    ))
    .unwrap();
    let id = client
        .create_session(&spec)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();

    let mut chaos_rng = SplitMix64::new(0x5ba_a5e ^ SEED);
    let mut kills = 0usize;
    let mut steps = 0usize;
    loop {
        let suggestion = client.suggest(&id).expect("suggest rides through chaos");
        if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
            break;
        }
        let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
        let cfg = config_from_json(ev.space(), suggestion.get("config").unwrap()).unwrap();
        let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();

        // Kill mid-trial every other step, so several kills land after
        // the tuner has switched to the sparse surrogate (trial >= 6).
        if steps.is_multiple_of(2) {
            let delay = Duration::from_millis(50 + chaos_rng.next_u64() % 150);
            server = server.kill_and_restart(&dir, &addr, delay);
            kills += 1;
        }

        let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
        let report = obj([("outcome", outcome_to_json(&outcome))]);
        client
            .report(&id, trial, &report)
            .expect("report rides through");
        steps += 1;
        assert!(steps <= BUDGET + 2, "loop failed to terminate");
    }

    assert!(
        kills >= MIN_KILL_CYCLES,
        "only {kills} kill/restart cycles; the harness must exercise at least {MIN_KILL_CYCLES}"
    );

    let status = client.status(&id).expect("final status");
    assert_eq!(
        decode_history(&ev, &status),
        reference.history,
        "sparse-surrogate chaos run diverged from the uninterrupted reference"
    );
    assert_eq!(
        status.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        status.render()
    );
    // The snapshot on disk must hold the sparse cached-surrogate marker:
    // the run crossed the threshold, so the last checkpoint was sparse.
    let snap = shard_file(&dir, &format!("{id}.snap")).expect("sparse session wrote a snapshot");
    let bytes = std::fs::read_to_string(snap).unwrap();
    assert!(
        bytes.contains("cached_kind") && bytes.contains("sparse"),
        "snapshot lacks the sparse cached-surrogate marker"
    );

    let mut child = server.settle();
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A scenario-driven session with an active re-tune policy under the
/// same SIGKILL chaos: the virtual wall clock, the Page–Hinkley monitor,
/// probe queues, and the censoring horizon must all ride through kills
/// (journaled + snapshotted) and land bit-identically on the
/// uninterrupted in-process run. The client evaluates each trial at the
/// `epoch_secs` the suggestion carries — the external-executor contract
/// for time-varying worlds.
#[test]
fn drift_session_rides_through_sigkill_chaos() {
    use mlconf_tuners::drift::{DriftConfig, ReTunePolicy};

    const SCENARIO: &str = "congestion:7";
    let ev = evaluator().with_scenario(
        mlconf_sim::scenario::ScenarioScript::parse_spec(SCENARIO).expect("valid scenario"),
    );

    // Reference: same scenario, same policy, in process, uninterrupted.
    // The serve side builds its DriftCtl from the spec with default
    // drift thresholds, so the reference must too.
    let mut tuner = BoTuner::with_defaults(ev.space().clone(), SEED);
    let reference = TuningSession::new(&ev, BUDGET, SEED)
        .retune(ReTunePolicy::Always { every: 4 }, DriftConfig::default())
        .run(&mut tuner);
    assert!(
        reference.retune_count >= 1,
        "reference run never re-tuned; the chaos test would not exercise drift state"
    );

    let dir = tmpdir("drift_sigkill");
    let (child, addr) = spawn_server(&dir, "127.0.0.1:0");
    let mut server = Supervised::Up(child);
    let mut client = chaos_client(&addr);

    let spec = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"bo","budget":{BUDGET},"seed":{SEED},"max_nodes":8,"scenario":"{SCENARIO}","retune_policy":"always:4"}}"#
    ))
    .unwrap();
    let id = client
        .create_session(&spec)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();

    let mut chaos_rng = SplitMix64::new(0xd21f_7a11 ^ SEED);
    let mut kills = 0usize;
    let mut steps = 0usize;
    loop {
        let suggestion = client.suggest(&id).expect("suggest rides through chaos");
        if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
            break;
        }
        let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
        let cfg = config_from_json(ev.space(), suggestion.get("config").unwrap()).unwrap();
        let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
        let epoch = suggestion
            .get("epoch_secs")
            .expect("suggestions carry the scenario epoch")
            .as_f64()
            .unwrap();

        // Kill mid-trial every other step: probe-queue trials and the
        // censoring horizon must survive alongside the pending trial.
        if steps.is_multiple_of(2) {
            let delay = Duration::from_millis(50 + chaos_rng.next_u64() % 150);
            server = server.kill_and_restart(&dir, &addr, delay);
            kills += 1;
        }

        let outcome = ev.evaluate_with_fidelity_at(&cfg, rep, fidelity, Some(epoch));
        let report = obj([("outcome", outcome_to_json(&outcome))]);
        client
            .report(&id, trial, &report)
            .expect("report rides through");
        steps += 1;
        assert!(steps <= BUDGET + 2, "loop failed to terminate");
    }

    assert!(
        kills >= MIN_KILL_CYCLES,
        "only {kills} kill/restart cycles; the harness must exercise at least {MIN_KILL_CYCLES}"
    );

    let status = client.status(&id).expect("final status");
    assert_eq!(
        decode_history(&ev, &status),
        reference.history,
        "drift chaos run diverged from the uninterrupted reference"
    );
    assert_eq!(
        status.get("retune_count").and_then(Json::as_i64),
        Some(reference.retune_count as i64),
        "re-tune count diverged: {}",
        status.render()
    );
    assert_eq!(
        status.get("drift_events").and_then(Json::as_i64),
        Some(reference.drift_events as i64),
        "drift-event count diverged: {}",
        status.render()
    );
    assert_eq!(
        status.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        status.render()
    );
    // The snapshot on disk must hold the drift-detector state: without
    // it, recovery above would silently fall back to replay-only.
    let snap = shard_file(&dir, &format!("{id}.snap")).expect("drift session wrote a snapshot");
    let bytes = std::fs::read_to_string(snap).unwrap();
    assert!(
        bytes.contains("ph_pos") && bytes.contains("stale_before"),
        "snapshot lacks drift-detector state"
    );

    let mut child = server.settle();
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The portfolio tuner under the same SIGKILL chaos: the bandit's
/// composite state (arm counters, attribution FIFO, per-arm sub-states)
/// must resume bit-identically across kills — through snapshots, since
/// both arms checkpoint — and the finished run must match the
/// uninterrupted in-process portfolio at the same seed.
#[test]
fn portfolio_session_rides_through_sigkill_chaos() {
    let ev = evaluator();

    let mut tuner = mlconf_tuners::factory::build_tuner(
        "portfolio:bo,lhs",
        ev.space().clone(),
        BUDGET,
        SEED,
        None,
    )
    .expect("portfolio builds");
    let reference = TuningSession::new(&ev, BUDGET, SEED).run(tuner.as_mut());

    let dir = tmpdir("pf_sigkill");
    let (child, addr) = spawn_server(&dir, "127.0.0.1:0");
    let mut server = Supervised::Up(child);
    let mut client = chaos_client(&addr);

    // The arm list travels as JSON; the server canonicalises it.
    let spec = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"portfolio","arms":["bo","lhs"],"budget":{BUDGET},"seed":{SEED},"max_nodes":8}}"#
    ))
    .unwrap();
    let id = client
        .create_session(&spec)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();

    let mut chaos_rng = SplitMix64::new(0xf0_1102 ^ SEED);
    let mut kills = 0usize;
    let mut steps = 0usize;
    loop {
        let suggestion = client.suggest(&id).expect("suggest rides through chaos");
        if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
            break;
        }
        let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
        let cfg = config_from_json(ev.space(), suggestion.get("config").unwrap()).unwrap();
        let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();

        // Kill mid-trial every other step: the pending suggestion and
        // the portfolio's attribution FIFO must both survive.
        if steps.is_multiple_of(2) {
            let delay = Duration::from_millis(50 + chaos_rng.next_u64() % 150);
            server = server.kill_and_restart(&dir, &addr, delay);
            kills += 1;
        }

        let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
        let report = obj([("outcome", outcome_to_json(&outcome))]);
        client
            .report(&id, trial, &report)
            .expect("report rides through");
        steps += 1;
        assert!(steps <= BUDGET + 2, "loop failed to terminate");
    }

    assert!(
        kills >= MIN_KILL_CYCLES,
        "only {kills} kill/restart cycles; the harness must exercise at least {MIN_KILL_CYCLES}"
    );

    let status = client.status(&id).expect("final status");
    assert_eq!(
        decode_history(&ev, &status),
        reference.history,
        "portfolio chaos run diverged from the uninterrupted reference"
    );
    assert_eq!(
        status.get("finished").and_then(Json::as_bool),
        Some(true),
        "{}",
        status.render()
    );
    // Both arms checkpoint, so the composite must too: the binary's
    // `--snapshot-every 3` has to produce a real snapshot.
    assert!(
        shard_file(&dir, &format!("{id}.snap")).is_some(),
        "portfolio of checkpointable arms never wrote a snapshot"
    );

    let mut child = server.settle();
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
