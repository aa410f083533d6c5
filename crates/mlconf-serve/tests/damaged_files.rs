//! Damaged on-disk files: one bit flipped, the file cut short, or up to
//! 16 bytes overwritten, at an arbitrary offset.
//!
//! A `.snap` is a cache the journal can always rebuild, so any damage to
//! a real `bo` session's checkpoint must leave revival equal to a full
//! replay of its journal, bit for bit: same status, same next
//! suggestion. Damage to a journal cannot always be told from a record
//! (a flipped digit is another valid number), so there the bar is that
//! nothing panics: the damaged session revives, stays parked, or — with
//! no complete record left — is removed as a `create` that never
//! landed, and an untouched second session still revives
//! bit-identically.

use mlconf_serve::api::{config_from_json, outcome_to_json};
use mlconf_serve::json::{obj, parse, Json};
use mlconf_serve::{RegistryConfig, SessionRegistry};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const BUDGET: usize = 10;
const SNAPSHOT_EVERY: u64 = 3;
/// Trials reported before the recorded state; one more is then pending.
const REPORTED: usize = 6;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mlconf_damaged_files_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &Path) -> SessionRegistry {
    let config = RegistryConfig {
        snapshot_every: SNAPSHOT_EVERY,
        shards: 1,
        max_sessions: 0,
    };
    SessionRegistry::open(dir, config).expect("the registry opens")
}

fn file(dir: &Path, id: &str, ext: &str) -> PathBuf {
    dir.join("shard-0").join(format!("{id}.{ext}"))
}

/// One session as it lies on disk, with what revival must answer.
struct Recorded {
    id: String,
    journal: Vec<u8>,
    snap: Vec<u8>,
    /// Rendered status.
    status: String,
    /// Rendered answer to the next `suggest` (the pending trial).
    next: String,
}

impl Recorded {
    fn write(&self, dir: &Path, journal: &[u8], snap: &[u8]) {
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        std::fs::write(file(dir, &self.id, "jsonl"), journal).unwrap();
        std::fs::write(file(dir, &self.id, "snap"), snap).unwrap();
    }
}

/// Runs `REPORTED` trials of a `tuner` session, leaves the next one
/// pending, and records its files together with the status and next
/// suggestion that a full replay of its journal answers.
fn record(dir: &Path, registry: &SessionRegistry, tuner: &str, seed: u64) -> Recorded {
    let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, seed);
    let spec = parse(&format!(
        r#"{{"tuner":"{tuner}","budget":{BUDGET},"seed":{seed},"max_nodes":8}}"#
    ))
    .unwrap();
    let created = registry.create(&spec).unwrap();
    let id = created.get("id").unwrap().as_str().unwrap().to_owned();
    let handle = registry.get(&id).unwrap();
    let mut session = handle.lock().unwrap();
    for trial in 0..REPORTED {
        let s = session.suggest().unwrap();
        let cfg = config_from_json(&session.spec().space(), s.get("config").unwrap()).unwrap();
        let rep = s.get("rep").unwrap().as_i64().unwrap() as u64;
        let fidelity = s.get("fidelity").unwrap().as_f64().unwrap();
        let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
        let body = obj([
            ("outcome", outcome_to_json(&outcome)),
            ("key", Json::Str(format!("t{trial}"))),
        ]);
        session.report(&body).unwrap();
    }
    let next = session.suggest().unwrap().render();
    let status = session.status_json().render();
    let journal = std::fs::read(file(dir, &id, "jsonl")).unwrap();
    let snap = std::fs::read(file(dir, &id, "snap")).expect("the run installed a checkpoint");
    drop(session);

    // The reference is the full replay: the journal alone, revived.
    let replay_dir = tmpdir(&format!("{tuner}_replay"));
    std::fs::create_dir_all(replay_dir.join("shard-0")).unwrap();
    std::fs::write(file(&replay_dir, &id, "jsonl"), &journal).unwrap();
    let replayed = open(&replay_dir);
    let handle = replayed.get(&id).expect("the journal replays");
    let mut session = handle.lock().unwrap();
    assert_eq!(session.status_json().render(), status, "{tuner}: replay");
    assert_eq!(session.suggest().unwrap().render(), next, "{tuner}: replay");
    drop(session);
    std::fs::remove_dir_all(&replay_dir).ok();
    Recorded {
        id,
        journal,
        snap,
        status,
        next,
    }
}

/// A `bo` session, recorded once for every case.
fn bo() -> &'static Recorded {
    static BO: OnceLock<Recorded> = OnceLock::new();
    BO.get_or_init(|| {
        let dir = tmpdir("bo_reference");
        let r = record(&dir, &open(&dir), "bo", 11);
        std::fs::remove_dir_all(&dir).ok();
        r
    })
}

/// Two `random` sessions in one registry, recorded once for every case:
/// the one whose journal is damaged, and the one left alone.
fn randoms() -> &'static (Recorded, Recorded) {
    static RANDOMS: OnceLock<(Recorded, Recorded)> = OnceLock::new();
    RANDOMS.get_or_init(|| {
        let dir = tmpdir("random_reference");
        let registry = open(&dir);
        let pair = (
            record(&dir, &registry, "random", 21),
            record(&dir, &registry, "random", 22),
        );
        drop(registry);
        std::fs::remove_dir_all(&dir).ok();
        pair
    })
}

/// `bytes` with one damage applied at `at` (taken modulo the length):
/// kind 0 flips bit `bit`, kind 1 cuts the file there, kind 2
/// overwrites up to `with.len()` bytes from there on.
fn damaged(bytes: &[u8], kind: u8, at: usize, bit: u8, with: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % out.len();
    match kind {
        0 => out[at] ^= 1 << bit,
        1 => out.truncate(at),
        _ => {
            let end = (at + with.len()).min(out.len());
            out[at..end].copy_from_slice(&with[..end - at]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn damaged_checkpoint_revives_as_full_replay(
        kind in 0u8..3,
        at in 0usize..usize::MAX,
        bit in 0u8..8,
        with in proptest::collection::vec(0u8..=255, 1..=16),
    ) {
        let r = bo();
        let snap = damaged(&r.snap, kind, at, bit, &with);
        let dir = tmpdir("bo");
        r.write(&dir, &r.journal, &snap);
        let registry = open(&dir);
        let handle = registry.get(&r.id);
        prop_assert!(handle.is_some(), "a damaged checkpoint parked the session");
        let handle = handle.unwrap();
        let mut session = handle.lock().unwrap();
        prop_assert_eq!(session.status_json().render(), r.status.clone());
        prop_assert_eq!(session.suggest().unwrap().render(), r.next.clone());
        drop(session);
        drop((handle, registry));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_journal_never_panics_nor_touches_its_neighbour(
        kind in 0u8..3,
        at in 0usize..usize::MAX,
        bit in 0u8..8,
        with in proptest::collection::vec(0u8..=255, 1..=16),
        keep_snap in 0u8..2,
    ) {
        let (hit, other) = randoms();
        let journal = damaged(&hit.journal, kind, at, bit, &with);
        let dir = tmpdir("random");
        hit.write(&dir, &journal, &hit.snap);
        if keep_snap == 0 {
            // Without its checkpoint, revival replays every damaged byte.
            std::fs::remove_file(file(&dir, &hit.id, "snap")).unwrap();
        }
        other.write(&dir, &other.journal, &other.snap);
        let registry = open(&dir);

        let landed = journal.contains(&b'\n');
        prop_assert_eq!(registry.list().contains(&hit.id), landed);
        prop_assert_eq!(file(&dir, &hit.id, "jsonl").exists(), landed);
        match registry.get(&hit.id) {
            Some(handle) => {
                let mut session = handle.lock().unwrap();
                session.status_json();
                let _ = session.suggest();
                session.status_json();
            }
            // Parked: it stays listed, and stays parked.
            None if landed => prop_assert!(registry.get(&hit.id).is_none()),
            None => {}
        }

        let handle = registry.get(&other.id);
        prop_assert!(handle.is_some(), "the untouched session did not revive");
        let handle = handle.unwrap();
        let mut session = handle.lock().unwrap();
        prop_assert_eq!(session.status_json().render(), other.status.clone());
        prop_assert_eq!(session.suggest().unwrap().render(), other.next.clone());
        drop(session);
        drop((handle, registry));
        std::fs::remove_dir_all(&dir).ok();
    }
}
