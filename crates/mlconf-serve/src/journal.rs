//! Per-session JSONL write-ahead journals.
//!
//! Every state-mutating request (`create`, each RNG-consuming
//! `suggest`, each `report`) appends one JSON line to
//! `<journal-dir>/<session-id>.jsonl` and flushes it **before** the
//! response is acknowledged. Because the session state machine is
//! deterministic in `(spec, told outcomes)`, replaying a journal against
//! a fresh [`AskTellSession`](mlconf_tuners::session::AskTellSession)
//! reconstructs bit-identical state — including the RNG position, so
//! the next suggestion after a crash-restart equals the one an
//! uninterrupted server would have produced.
//!
//! Record shapes (one object per line):
//!
//! ```json
//! {"op":"create","spec":{...}}
//! {"op":"suggest","trial":3}        // ask() produced trial 3
//! {"op":"suggest","done":true}      // ask() declared the session over
//! {"op":"report","executed":{...}}  // tell() committed this result
//! {"op":"report","executed":{...},"key":"t3"}  // with a dedup key
//! {"op":"base","seq":12}            // ops [0,12) live in snapshot/archive
//! ```
//!
//! Idempotent re-suggests (polling an already-pending trial) consume no
//! RNG and are deliberately *not* journaled.
//!
//! A `base` record appears only as the first line of a journal that has
//! been compacted by a snapshot (see [`crate::snapshot`]): it declares
//! that the `seq` preceding operations were rotated into the session's
//! `.hist` archive and are covered by the `.snap` checkpoint, so the
//! records that follow sit at stream positions `seq`, `seq+1`, ….

use crate::json::{obj, parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Fsyncs a directory so a just-created / just-renamed entry survives a
/// crash. File-content fsync alone does not persist the *name*: the
/// directory inode holding the entry must itself reach disk.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// One replayable journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Session creation, with the full spec.
    Create {
        /// The decoded spec JSON (left encoded; the registry decodes).
        spec: Json,
    },
    /// One `ask()` happened (its result is deterministic; replay
    /// re-executes it rather than trusting the recorded value).
    Suggest,
    /// One `tell()` happened with this executed trial.
    Report {
        /// The encoded executed-trial JSON.
        executed: Json,
        /// Client-supplied dedup key, if any; replay rebuilds the
        /// duplicate-rejection state from it.
        key: Option<String>,
    },
    /// Compaction marker: this journal holds only records from stream
    /// position `seq` onward (earlier ones live in the snapshot/archive).
    Base {
        /// Number of operations preceding this journal's first record.
        seq: u64,
    },
}

/// An append-only JSONL journal for one session.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Creates (or truncates) the journal for a brand-new session.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let file = File::create(&path)?;
        // Persist the directory entry too: without this a crash right
        // after creation can lose the file itself even though its
        // contents were fsynced.
        if let Some(dir) = path.parent() {
            fsync_dir(dir)?;
        }
        Ok(Journal { path, file })
    }

    /// Reopens an existing journal for appending (after replay).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: PathBuf) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal { path, file })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and forces it to the OS before returning —
    /// the write-ahead guarantee the recovery contract depends on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller must fail the request.
    pub fn append(&mut self, op: &JournalOp) -> std::io::Result<()> {
        self.file.write_all(op.line().as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()
    }
}

impl JournalOp {
    /// The record as one newline-terminated JSONL line.
    pub(crate) fn line(&self) -> String {
        let record = match self {
            JournalOp::Create { spec } => {
                obj([("op", Json::Str("create".into())), ("spec", spec.clone())])
            }
            JournalOp::Suggest => obj([("op", Json::Str("suggest".into()))]),
            JournalOp::Report { executed, key } => {
                let mut fields = vec![
                    ("op", Json::Str("report".into())),
                    ("executed", executed.clone()),
                ];
                if let Some(k) = key {
                    fields.push(("key", Json::Str(k.clone())));
                }
                obj(fields)
            }
            JournalOp::Base { seq } => obj([
                ("op", Json::Str("base".into())),
                ("seq", Json::Num(*seq as f64)),
            ]),
        };
        let mut line = record.render();
        line.push('\n');
        line
    }
}

/// Reads and decodes every record of a journal file.
///
/// # Errors
///
/// Returns an error for unreadable files, non-JSON lines, or unknown
/// `op` values; a trailing partial line (torn write from a crash
/// mid-append) is tolerated and skipped, since its request was never
/// acknowledged.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalOp>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let reader = BufReader::new(File::open(path)?);
    let mut ops = Vec::new();
    let mut lines = reader.lines().peekable();
    while let Some(line) = lines.next() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = match parse(&line) {
            Ok(v) => v,
            // Only the final line may be torn; anything earlier is real
            // corruption.
            Err(_) if lines.peek().is_none() => break,
            Err(e) => return Err(bad(format!("{}: {e}", path.display()))),
        };
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("{}: record without op", path.display())))?;
        ops.push(match op {
            "create" => JournalOp::Create {
                spec: v
                    .get("spec")
                    .cloned()
                    .ok_or_else(|| bad(format!("{}: create without spec", path.display())))?,
            },
            "suggest" => JournalOp::Suggest,
            "report" => JournalOp::Report {
                executed: v
                    .get("executed")
                    .cloned()
                    .ok_or_else(|| bad(format!("{}: report without executed", path.display())))?,
                key: v.get("key").and_then(Json::as_str).map(str::to_owned),
            },
            "base" => JournalOp::Base {
                seq: v
                    .get("seq")
                    .and_then(Json::as_i64)
                    .filter(|&s| s >= 0)
                    .ok_or_else(|| bad(format!("{}: base without seq", path.display())))?
                    as u64,
            },
            other => return Err(bad(format!("{}: unknown op `{other}`", path.display()))),
        });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlconf_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp("roundtrip.jsonl");
        let spec = parse(r#"{"tuner":"random","budget":3,"seed":1}"#).unwrap();
        let executed = parse(r#"{"outcome":{"tta_secs":1,"cost_usd":1,"throughput":1,"staleness_steps":0,"search_cost_machine_secs":1,"attempts":1}}"#).unwrap();
        let ops = vec![
            JournalOp::Create { spec },
            JournalOp::Suggest,
            JournalOp::Report {
                executed,
                key: Some("t1".into()),
            },
            JournalOp::Suggest,
            JournalOp::Base { seq: 4 },
        ];
        let mut j = Journal::create(path.clone()).unwrap();
        for op in &ops {
            j.append(op).unwrap();
        }
        assert_eq!(read_journal(&path).unwrap(), ops);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = tmp("torn.jsonl");
        std::fs::write(&path, "{\"op\":\"suggest\"}\n{\"op\":\"rep").unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalOp::Suggest]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt.jsonl");
        std::fs::write(&path, "not json\n{\"op\":\"suggest\"}\n").unwrap();
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_reopens_after_restart() {
        let path = tmp("reopen.jsonl");
        Journal::create(path.clone())
            .unwrap()
            .append(&JournalOp::Suggest)
            .unwrap();
        // "Restart": reopen for append and add another record.
        Journal::open_append(path.clone())
            .unwrap()
            .append(&JournalOp::Suggest)
            .unwrap();
        assert_eq!(
            read_journal(&path).unwrap(),
            vec![JournalOp::Suggest, JournalOp::Suggest]
        );
        std::fs::remove_file(&path).ok();
    }
}
