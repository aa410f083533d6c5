//! Crash-state enumeration for the journal + checkpoint protocol.
//!
//! A session's journal is only ever appended to, each record fsynced
//! before it is acknowledged, and a checkpoint is installed by temp
//! file, fsync, rename and directory fsync without touching the
//! journal. So a crash can leave only these states: any byte prefix of
//! `<id>.jsonl`, next to no `.snap` or any `.snap` installed at an
//! offset within that prefix, optionally plus a stray `.snap.tmp`.
//!
//! This test records an uninterrupted run, rebuilds every such state —
//! each record boundary plus one cut inside each record, crossed with
//! each checkpoint choice and the stray temp file — and checks that
//! revival lands on the uninterrupted run's status and next suggestion
//! at the last complete record, and that finishing the run from there
//! reproduces its final status and journal. A state with no complete
//! record was never acknowledged, and opening removes it.

use mlconf_serve::api::{config_from_json, outcome_to_json};
use mlconf_serve::json::{obj, parse, Json};
use mlconf_serve::{RegistryConfig, ServedSession, SessionRegistry};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;
use std::path::{Path, PathBuf};

const BUDGET: usize = 12;
const SNAPSHOT_EVERY: u64 = 3;
const SEED: u64 = 11;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mlconf_crash_states_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &Path) -> SessionRegistry {
    let config = RegistryConfig {
        snapshot_every: SNAPSHOT_EVERY,
        shards: 1,
        max_sessions: 0,
    };
    SessionRegistry::open(dir, config).unwrap()
}

fn is_done(suggestion: &Json) -> bool {
    suggestion.get("done").and_then(Json::as_bool) == Some(true)
}

/// Evaluates a suggestion with the simulator in the client role and
/// reports it under a dedup key, so the checkpoints carry the
/// duplicate-rejection cache too.
fn report(session: &mut ServedSession, ev: &ConfigEvaluator, suggestion: &Json) {
    let cfg = config_from_json(&session.spec().space(), suggestion.get("config").unwrap()).unwrap();
    let trial = suggestion.get("trial").unwrap().as_i64().unwrap();
    let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
    let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
    let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
    let body = obj([
        ("outcome", outcome_to_json(&outcome)),
        ("key", Json::Str(format!("t{trial}"))),
    ]);
    session.report(&body).unwrap();
}

/// The uninterrupted run, observed after each journal record.
struct Reference {
    id: String,
    journal: Vec<u8>,
    /// Byte offset just past each record.
    ends: Vec<usize>,
    /// Rendered status after each record.
    status: Vec<String>,
    /// What `suggest` answers after each record.
    next: Vec<String>,
    /// Every checkpoint the run installed, with its offset.
    snaps: Vec<(usize, Vec<u8>)>,
}

fn reference(dir: &Path, tuner: &str, ev: &ConfigEvaluator) -> Reference {
    let registry = open(dir);
    let spec = parse(&format!(
        r#"{{"tuner":"{tuner}","budget":{BUDGET},"seed":{SEED},"max_nodes":8}}"#
    ))
    .unwrap();
    let created = registry.create(&spec).unwrap();
    let id = created.get("id").unwrap().as_str().unwrap().to_owned();
    let journal_path = dir.join("shard-0").join(format!("{id}.jsonl"));
    let snap_path = dir.join("shard-0").join(format!("{id}.snap"));
    let handle = registry.get(&id).unwrap();
    let mut session = handle.lock().unwrap();
    let mut r = Reference {
        id,
        journal: Vec::new(),
        ends: Vec::new(),
        status: Vec::new(),
        next: Vec::new(),
        snaps: Vec::new(),
    };
    let observe = |r: &mut Reference, session: &ServedSession| {
        r.ends
            .push(std::fs::metadata(&journal_path).unwrap().len() as usize);
        r.status.push(session.status_json().render());
        if let Ok(snap) = std::fs::read(&snap_path) {
            if r.snaps.last().is_none_or(|(_, last)| *last != snap) {
                let frame = parse(std::str::from_utf8(&snap).unwrap().trim_end()).unwrap();
                let offset = frame.get("data").unwrap().get("offset").unwrap();
                r.snaps.push((offset.as_i64().unwrap() as usize, snap));
            }
        }
    };
    observe(&mut r, &session);
    loop {
        // The state before this suggest answers with it; so does the
        // state after it (a pending trial, or "done", repeats).
        let suggestion = session.suggest().unwrap();
        r.next.push(suggestion.render());
        observe(&mut r, &session);
        r.next.push(suggestion.render());
        if is_done(&suggestion) {
            break;
        }
        report(&mut session, ev, &suggestion);
        observe(&mut r, &session);
    }
    r.journal = std::fs::read(&journal_path).unwrap();
    r
}

/// Every crash state of `tuner`'s run, rebuilt and revived.
fn check_every_crash_state(tuner: &str) {
    let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, SEED);
    let ref_dir = tmpdir(&format!("{tuner}_reference"));
    let r = reference(&ref_dir, tuner, &ev);
    std::fs::remove_dir_all(&ref_dir).ok();
    assert!(
        r.snaps.len() >= 3,
        "{tuner}: the run installed too few checkpoints"
    );
    let records = r.ends.len();
    let final_status = r.status.last().unwrap();
    // A torn checkpoint: what a crash mid-install leaves as `.snap.tmp`.
    let torn_snap = {
        let last = &r.snaps.last().unwrap().1;
        last[..last.len() / 2].to_vec()
    };

    let mut cuts = vec![0];
    for (i, &end) in r.ends.iter().enumerate() {
        let start = if i == 0 { 0 } else { r.ends[i - 1] };
        cuts.extend([start + (end - start) / 2, end]);
    }
    let root = tmpdir(tuner);
    let mut states = 0;
    for cut in cuts {
        let complete = r.ends.iter().filter(|&&end| end <= cut).count();
        let snaps = std::iter::once(None).chain(
            r.snaps
                .iter()
                .filter(|(offset, _)| *offset <= cut)
                .map(|(_, bytes)| Some(bytes)),
        );
        for snap in snaps {
            for stray_tmp in [false, true] {
                let label = format!(
                    "{tuner}: cut {cut} ({complete}/{records} records), snap {:?}, tmp {stray_tmp}",
                    snap.map(|b| b.len())
                );
                let dir = root.join(states.to_string());
                states += 1;
                let shard = dir.join("shard-0");
                std::fs::create_dir_all(&shard).unwrap();
                let file = |ext: &str| shard.join(format!("{}.{ext}", r.id));
                std::fs::write(file("jsonl"), &r.journal[..cut]).unwrap();
                if let Some(bytes) = snap {
                    std::fs::write(file("snap"), bytes).unwrap();
                }
                if stray_tmp {
                    std::fs::write(file("snap.tmp"), &torn_snap).unwrap();
                }

                let registry = open(&dir);
                if complete == 0 {
                    // The create record never landed, so the session was
                    // never acknowledged: opening removes its files.
                    assert!(registry.get(&r.id).is_none(), "{label}");
                    assert!(!registry.list().contains(&r.id), "{label}");
                    assert!(!file("jsonl").exists(), "{label}");
                    continue;
                }
                let handle = registry.get(&r.id).expect(&label);
                let mut session = handle.lock().unwrap();
                assert_eq!(
                    session.status_json().render(),
                    r.status[complete - 1],
                    "{label}"
                );
                let mut suggestion = session.suggest().unwrap();
                assert_eq!(suggestion.render(), r.next[complete - 1], "{label}");
                while !is_done(&suggestion) {
                    report(&mut session, &ev, &suggestion);
                    suggestion = session.suggest().unwrap();
                }
                assert_eq!(&session.status_json().render(), final_status, "{label}");
                if complete < records {
                    // Same records, byte for byte: the torn tail was cut
                    // and nothing was replayed twice.
                    assert_eq!(std::fs::read(file("jsonl")).unwrap(), r.journal, "{label}");
                }
                drop(session);
                drop(handle);
                drop(registry);
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    std::fs::remove_dir_all(&root).ok();
    assert!(states > 4 * records, "{tuner}: only {states} crash states");
}

#[test]
fn random_session_recovers_from_every_crash_state() {
    check_every_crash_state("random");
}

#[test]
fn bo_session_recovers_from_every_crash_state() {
    check_every_crash_state("bo");
}
