//! Golden guarantees for journal snapshots: recovery through a
//! checkpoint is **bit-identical** to full-journal replay — same
//! history, same RNG position, same next suggestion — at seeds
//! {11, 22, 33}, under fault injection and censoring, across repeated
//! crash-restarts. And the point of the feature: restart replays at
//! most `snapshot_every` journal records past the checkpoint's offset,
//! not the whole run.

use mlconf_serve::api::{config_from_json, executed_to_json};
use mlconf_serve::journal::read_journal;
use mlconf_serve::json::Json;
use mlconf_serve::snapshot;
use mlconf_serve::{RegistryConfig, SessionRegistry};
use mlconf_sim::faultplan::FaultPlan;
use mlconf_sim::scenario::ScenarioScript;
use mlconf_tuners::executor::TrialExecutor;
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;
use std::path::{Path, PathBuf};

const GOLDEN_SEEDS: [u64; 3] = [11, 22, 33];
const BUDGET: usize = 12;
const SNAPSHOT_EVERY: u64 = 3;

fn tmpdir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mlconf_snapgolden_{tag}_{seed}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A fault-injecting trial runner shared by both sides of a comparison:
/// identical (seed, trial, config) always produce identical
/// `ExecutedTrial`s, including crashes, OOMs, and censored timeouts.
fn harness(seed: u64) -> (ConfigEvaluator, TrialExecutor) {
    let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed);
    let ex = TrialExecutor::standard(seed).with_plan(FaultPlan::scripted(BUDGET, 2.0, seed));
    (ev, ex)
}

/// Runs one suggest→execute→report cycle through the registry surface.
/// Returns `false` once the session declares itself finished. Reports
/// carry a dedup key so the `last_report` cache rides through
/// checkpoints too.
fn step(registry: &SessionRegistry, id: &str, ev: &ConfigEvaluator, ex: &TrialExecutor) -> bool {
    let handle = registry.get(id).expect("session exists");
    let mut session = handle.lock().unwrap();
    let suggestion = session.suggest().unwrap();
    if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
        return false;
    }
    let cfg = config_from_json(&session.spec().space(), suggestion.get("config").unwrap()).unwrap();
    let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
    let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
    let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
    let incumbent = session.core().incumbent_tta();
    let executed = ex.execute(ev, &cfg, rep, fidelity, trial, incumbent);
    let Json::Obj(mut body) = executed_to_json(&executed) else {
        unreachable!("executed_to_json returns an object")
    };
    body.push(("key".to_owned(), Json::Str(format!("t{trial}"))));
    session.report(&Json::Obj(body)).unwrap();
    true
}

fn create(registry: &SessionRegistry, tuner: &str, seed: u64) -> String {
    let body = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"{tuner}","budget":{BUDGET},"seed":{seed},"max_nodes":8}}"#
    ))
    .unwrap();
    let created = registry.create(&body).unwrap();
    created.get("id").unwrap().as_str().unwrap().to_owned()
}

fn final_state(registry: &SessionRegistry, id: &str) -> String {
    let handle = registry.get(id).unwrap();
    let session = handle.lock().unwrap();
    session.status_json().render()
}

/// Opens the registry with a single shard so on-disk paths stay
/// predictable (`<dir>/shard-0/…`) even after the registry is dropped.
fn open_one_shard(dir: &Path, snapshot_every: u64) -> SessionRegistry {
    let config = RegistryConfig {
        snapshot_every,
        shards: 1,
        max_sessions: 0,
    };
    SessionRegistry::open(dir, config).unwrap()
}

fn session_file(dir: &Path, id: &str, ext: &str) -> PathBuf {
    dir.join("shard-0").join(format!("{id}.{ext}"))
}

/// Journal records past the `.snap`'s offset — what a restart replays
/// (every record while there is no checkpoint).
fn records_past_checkpoint(dir: &Path, id: &str) -> usize {
    let journal = std::fs::read(session_file(dir, id, "jsonl")).unwrap();
    let offset = snapshot::load(&session_file(dir, id, "snap")).map_or(0, |s| s.offset);
    journal[offset as usize..]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// Drives a full session with crash-restarts every `restart_every`
/// steps, returning the final rendered status. `snapshot_every` = 0
/// means pure full-journal replay (the PR 4 behavior).
fn run_with_restarts(
    dir: &Path,
    tuner: &str,
    seed: u64,
    snapshot_every: u64,
    restart_every: usize,
) -> String {
    let (ev, ex) = harness(seed);
    let mut registry = open_one_shard(dir, snapshot_every);
    let id = create(&registry, tuner, seed);
    let mut steps = 0usize;
    loop {
        if !step(&registry, &id, &ev, &ex) {
            break;
        }
        steps += 1;
        if snapshot_every > 0 {
            // The replay bound: the journal never holds more than
            // snapshot_every records past the checkpoint's offset.
            assert!(
                records_past_checkpoint(dir, &id) as u64 <= snapshot_every,
                "journal grew past the snapshot interval beyond its checkpoint"
            );
        }
        if steps.is_multiple_of(restart_every) {
            // Crash: drop everything, recover from disk.
            drop(registry);
            registry = open_one_shard(dir, snapshot_every);
        }
    }
    let state = final_state(&registry, &id);
    drop(registry);
    state
}

/// The drift-session analogue of `run_with_restarts`: the spec pins a
/// scenario script and a re-tune policy, and the reporting client
/// evaluates each trial with the same scenario attached at the
/// `epoch_secs` the suggestion carries — the serve-side mirror of what
/// an in-process `drive()` would do.
fn run_drift_with_restarts(
    dir: &Path,
    seed: u64,
    snapshot_every: u64,
    restart_every: usize,
) -> String {
    const SCENARIO: &str = "congestion:7";
    let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed)
        .with_scenario(ScenarioScript::parse_spec(SCENARIO).unwrap());
    let ex = TrialExecutor::standard(seed).with_plan(FaultPlan::scripted(BUDGET, 2.0, seed));
    let mut registry = open_one_shard(dir, snapshot_every);
    let body = mlconf_serve::json::parse(&format!(
        r#"{{"tuner":"bo","budget":{BUDGET},"seed":{seed},"max_nodes":8,"scenario":"{SCENARIO}","retune_policy":"always:4"}}"#
    ))
    .unwrap();
    let id = registry
        .create(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let mut steps = 0usize;
    loop {
        let done = {
            let handle = registry.get(&id).expect("session exists");
            let mut session = handle.lock().unwrap();
            let suggestion = session.suggest().unwrap();
            if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
                true
            } else {
                let cfg =
                    config_from_json(&session.spec().space(), suggestion.get("config").unwrap())
                        .unwrap();
                let trial = suggestion.get("trial").unwrap().as_i64().unwrap() as usize;
                let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
                let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
                let epoch = suggestion.get("epoch_secs").unwrap().as_f64().unwrap();
                let incumbent = session.core().incumbent_tta();
                let executed =
                    ex.execute_at(&ev, &cfg, rep, fidelity, trial, incumbent, Some(epoch));
                let Json::Obj(mut body) = executed_to_json(&executed) else {
                    unreachable!("executed_to_json returns an object")
                };
                body.push(("key".to_owned(), Json::Str(format!("t{trial}"))));
                session.report(&Json::Obj(body)).unwrap();
                false
            }
        };
        if done {
            break;
        }
        steps += 1;
        if restart_every > 0 && steps.is_multiple_of(restart_every) {
            drop(registry);
            registry = open_one_shard(dir, snapshot_every);
        }
    }
    let state = final_state(&registry, &id);
    drop(registry);
    state
}

/// A session with a scenario and an `always:4` re-tune policy survives
/// crash-restarts bit-identically: probe queues, censoring horizons,
/// and the Page–Hinkley monitor state all ride through `.snap` files
/// and journal replay.
#[test]
fn drift_session_recovery_is_bit_identical_at_golden_seeds() {
    for seed in GOLDEN_SEEDS {
        let snap_dir = tmpdir("drift_restart", seed);
        let straight_dir = tmpdir("drift_straight", seed);
        let restarted = run_drift_with_restarts(&snap_dir, seed, SNAPSHOT_EVERY, 2);
        let straight = run_drift_with_restarts(&straight_dir, seed, 0, 0);
        assert_eq!(
            restarted, straight,
            "seed {seed}: drift session diverged across restarts"
        );
        // The policy must actually have engaged: re-tunes happened and
        // the status surfaces them.
        let parsed = mlconf_serve::json::parse(&straight).unwrap();
        let retunes = parsed.get("retune_count").unwrap().as_i64().unwrap();
        assert!(
            retunes >= 1,
            "seed {seed}: always:4 policy never re-tuned in {BUDGET} trials"
        );
        // And the checkpoint on disk holds the drift-detector state —
        // proof it was snapshotted, not rebuilt from scratch.
        let shard = snap_dir.join("shard-0");
        let snap = std::fs::read_dir(&shard)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .expect("a snapshot file exists");
        let bytes = std::fs::read_to_string(snap.path()).unwrap();
        assert!(
            bytes.contains("ph_pos") && bytes.contains("stale_before"),
            "seed {seed}: snapshot lacks drift-detector state"
        );
        std::fs::remove_dir_all(&snap_dir).ok();
        std::fs::remove_dir_all(&straight_dir).ok();
    }
}

#[test]
fn snapshot_recovery_is_bit_identical_to_full_replay_at_golden_seeds() {
    // `portfolio:bo,lhs` rides along: both arms checkpoint, so the
    // composite state (bandit counters + per-arm sub-states) must
    // round-trip through `.snap` files exactly like a bare tuner's.
    // The `bo:` spec crosses the sparse-surrogate threshold mid-run
    // (init 4, threshold 6, budget 12), so its snapshots hold the
    // sparse cached-surrogate marker and recovery must rebuild the
    // subset model bit-identically.
    for tuner in [
        "bo",
        "anneal",
        "portfolio:bo,lhs",
        "bo:surrogate=auto,threshold=6,max-points=8,init=4",
    ] {
        for seed in GOLDEN_SEEDS {
            let tag = tuner.replace([':', ',', '='], "_");
            let snap_dir = tmpdir(&format!("{tag}_snap"), seed);
            let full_dir = tmpdir(&format!("{tag}_full"), seed);
            let with_snapshots = run_with_restarts(&snap_dir, tuner, seed, SNAPSHOT_EVERY, 4);
            let full_replay = run_with_restarts(&full_dir, tuner, seed, 0, 4);
            assert_eq!(
                with_snapshots, full_replay,
                "{tuner} seed {seed}: snapshot recovery diverged from full replay"
            );
            std::fs::remove_dir_all(&snap_dir).ok();
            std::fs::remove_dir_all(&full_dir).ok();
        }
    }
}

#[test]
fn snapshot_recovery_matches_uninterrupted_run() {
    for seed in GOLDEN_SEEDS {
        let snap_dir = tmpdir("bo_restart", seed);
        let straight_dir = tmpdir("bo_straight", seed);
        let restarted = run_with_restarts(&snap_dir, "bo", seed, SNAPSHOT_EVERY, 2);
        // Reference: same flow, no snapshots, no restarts at all.
        let straight = run_with_restarts(&straight_dir, "bo", seed, 0, usize::MAX);
        assert_eq!(
            restarted, straight,
            "seed {seed}: restarting every 2 steps with snapshots diverged"
        );
        std::fs::remove_dir_all(&snap_dir).ok();
        std::fs::remove_dir_all(&straight_dir).ok();
    }
}

/// A session whose BO tuner crosses the sparse-surrogate threshold
/// mid-run: snapshots taken after the crossing carry the sparse
/// cached-surrogate marker, and frequent crash-restarts through those
/// snapshots must reproduce the uninterrupted run bit-for-bit.
#[test]
fn sparse_surrogate_session_survives_restarts_bit_identically() {
    const SPARSE_TUNER: &str = "bo:surrogate=auto,threshold=6,max-points=8,init=4";
    for seed in GOLDEN_SEEDS {
        let snap_dir = tmpdir("sparse_restart", seed);
        let straight_dir = tmpdir("sparse_straight", seed);
        let restarted = run_with_restarts(&snap_dir, SPARSE_TUNER, seed, SNAPSHOT_EVERY, 2);
        let straight = run_with_restarts(&straight_dir, SPARSE_TUNER, seed, 0, usize::MAX);
        assert_eq!(
            restarted, straight,
            "seed {seed}: sparse-surrogate session diverged across restarts"
        );
        // The final snapshot on disk must actually hold the sparse
        // marker — proof the sparse path engaged and was checkpointed,
        // not silently skipped.
        let shard = snap_dir.join("shard-0");
        let snap = std::fs::read_dir(&shard)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .expect("a snapshot file exists");
        let bytes = std::fs::read_to_string(snap.path()).unwrap();
        assert!(
            bytes.contains("cached_kind") && bytes.contains("sparse"),
            "seed {seed}: snapshot lacks the sparse cached-surrogate marker"
        );
        std::fs::remove_dir_all(&snap_dir).ok();
        std::fs::remove_dir_all(&straight_dir).ok();
    }
}

/// A portfolio with a non-checkpointable arm (hyperband) downgrades the
/// whole composite to `checkpoint() == None`: the registry never
/// installs a `.snap` and recovery is full journal replay — which must
/// still reproduce the pending suggestion bit-for-bit across a crash.
#[test]
fn non_checkpointable_portfolio_recovers_by_full_replay() {
    let seed = 33;
    let dir = tmpdir("pf_fallback", seed);
    let (ev, ex) = harness(seed);
    let registry = open_one_shard(&dir, SNAPSHOT_EVERY);
    let id = create(&registry, "portfolio:bo,hyperband", seed);
    for _ in 0..6 {
        assert!(step(&registry, &id, &ev, &ex));
    }
    let pending_before = {
        let handle = registry.get(&id).unwrap();
        let mut s = handle.lock().unwrap();
        s.suggest().unwrap().render()
    };
    drop(registry);

    assert!(
        !session_file(&dir, &id, "snap").exists(),
        "a non-checkpointable portfolio must never install a snapshot"
    );

    let recovered = open_one_shard(&dir, SNAPSHOT_EVERY);
    let handle = recovered.get(&id).expect("full-replay recovery succeeds");
    let pending_after = handle.lock().unwrap().suggest().unwrap().render();
    assert_eq!(
        pending_before, pending_after,
        "journal replay changed the portfolio's pending suggestion"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_falls_back_to_full_replay_bit_identically() {
    let seed = 11;
    let dir = tmpdir("corrupt_snap", seed);
    let (ev, ex) = harness(seed);
    let registry = open_one_shard(&dir, SNAPSHOT_EVERY);
    let id = create(&registry, "bo", seed);
    for _ in 0..6 {
        assert!(step(&registry, &id, &ev, &ex));
    }
    let pending_before = {
        let handle = registry.get(&id).unwrap();
        let mut s = handle.lock().unwrap();
        s.suggest().unwrap().render()
    };
    drop(registry);

    // Flip bytes in the checkpoint: the checksum rejects it and recovery
    // must replay the whole journal instead.
    let snap_path = session_file(&dir, &id, "snap");
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snap_path, &bytes).unwrap();

    let recovered = open_one_shard(&dir, SNAPSHOT_EVERY);
    let handle = recovered.get(&id).expect("fallback recovery succeeds");
    let pending_after = handle.lock().unwrap().suggest().unwrap().render();
    assert_eq!(pending_before, pending_after);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_replays_at_most_snapshot_interval_records() {
    let seed = 22;
    let dir = tmpdir("bounded", seed);
    let (ev, ex) = harness(seed);
    let registry = open_one_shard(&dir, SNAPSHOT_EVERY);
    let id = create(&registry, "bo", seed);
    for _ in 0..5 {
        assert!(step(&registry, &id, &ev, &ex));
    }
    drop(registry);
    // 5 steps = 11 ops (create + 5 suggests + 5 reports): far more than
    // a restart may replay past the checkpoint.
    assert!(session_file(&dir, &id, "snap").exists(), "no checkpoint");
    let remaining = records_past_checkpoint(&dir, &id);
    assert!(
        remaining as u64 <= SNAPSHOT_EVERY,
        "restart would replay {remaining} records, expected at most {SNAPSHOT_EVERY}"
    );
    // And the journal still holds every record, so full replay stays
    // possible.
    let journal = read_journal(&session_file(&dir, &id, "jsonl")).unwrap();
    assert_eq!(journal.len(), 11);
    let registry = open_one_shard(&dir, SNAPSHOT_EVERY);
    assert!(registry.get(&id).is_some());
    std::fs::remove_dir_all(&dir).ok();
}
