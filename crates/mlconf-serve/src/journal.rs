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
//! {"op":"suggest"}                  // ask() ran (a trial or "done")
//! {"op":"report","executed":{...}}  // tell() committed this result
//! {"op":"report","executed":{...},"key":"t3"}  // with a dedup key
//! ```
//!
//! Idempotent re-suggests (polling an already-pending trial) consume no
//! RNG and are deliberately *not* journaled.
//!
//! The journal is the session's only record stream and is never
//! rewritten: it is only appended to, or cut back to its last newline.
//! A checkpoint (see [`crate::snapshot`]) records the byte offset just
//! after the last record it covers, and revival replays the records
//! from that offset on ([`Journal::reopen`]).
//!
//! Framing is by bytes, not by parse success: every newline-terminated
//! line is an acknowledged record and must decode, while the bytes
//! after the last newline are a torn tail — a crash mid-append, never
//! acknowledged — that revival cuts off before its first append.

use crate::json::{obj, parse, Json};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
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
}

/// An append-only JSONL journal for one session.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Byte offset just past the last complete record.
    end: u64,
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
        Ok(Journal { path, file, end: 0 })
    }

    /// Reopens an existing journal to revive its session: decodes the
    /// records that start at byte `offset` (0, or just after a record's
    /// newline), cuts a torn tail back to the last newline, and returns
    /// the journal ready for appending.
    ///
    /// # Errors
    ///
    /// Fails when `offset` is not a record boundary inside the file,
    /// when a newline-terminated line after it does not decode (the
    /// file is left untouched as evidence), and on filesystem errors.
    pub fn reopen(path: PathBuf, offset: u64) -> std::io::Result<(Self, Vec<JournalOp>)> {
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        // Read from the byte before `offset`: it must be the newline
        // that ends the last record the caller already holds.
        file.seek(SeekFrom::Start(offset.saturating_sub(1)))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let records = match (offset, buf.split_first()) {
            (0, _) => &buf[..],
            (_, Some((b'\n', rest))) => rest,
            _ => {
                return Err(invalid(format!(
                    "{}: offset {offset} is not a record boundary",
                    path.display()
                )))
            }
        };
        let (ops, complete) = decode_lines(records, offset, &path)?;
        let end = offset + complete as u64;
        if complete < records.len() {
            file.set_len(end)?;
            file.sync_data()?;
        }
        Ok((Journal { path, file, end }, ops))
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset just past the last record: where the next append
    /// starts, and what a checkpoint taken now records.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Appends one record and forces it to the OS before returning —
    /// the write-ahead guarantee the recovery contract depends on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller must fail the request.
    pub fn append(&mut self, op: &JournalOp) -> std::io::Result<()> {
        let line = op.line();
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.end += line.len() as u64;
        Ok(())
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
        };
        let mut line = record.render();
        line.push('\n');
        line
    }

    /// Decodes one record line (without its newline).
    fn decode(line: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        let v = parse(text).map_err(|e| e.to_string())?;
        match v.get("op").and_then(Json::as_str) {
            Some("create") => Ok(JournalOp::Create {
                spec: v.get("spec").cloned().ok_or("create without spec")?,
            }),
            Some("suggest") => Ok(JournalOp::Suggest),
            Some("report") => Ok(JournalOp::Report {
                executed: v
                    .get("executed")
                    .cloned()
                    .ok_or("report without executed")?,
                key: v.get("key").and_then(Json::as_str).map(str::to_owned),
            }),
            Some(other) => Err(format!("unknown op `{other}`")),
            None => Err("record without op".into()),
        }
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Decodes every newline-terminated line of `bytes` (which start at
/// file offset `offset`) and returns the records plus the length of
/// those complete lines; the bytes after the last newline are the torn
/// tail and are not decoded.
fn decode_lines(
    bytes: &[u8],
    offset: u64,
    path: &Path,
) -> std::io::Result<(Vec<JournalOp>, usize)> {
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut ops = Vec::new();
    let mut at = offset;
    for line in bytes[..complete].split_inclusive(|&b| b == b'\n') {
        let op = JournalOp::decode(&line[..line.len() - 1])
            .map_err(|e| invalid(format!("{}: record at byte {at}: {e}", path.display())))?;
        ops.push(op);
        at += line.len() as u64;
    }
    Ok((ops, complete))
}

/// Reads and decodes every complete record of a journal file, leaving
/// the file as it is.
///
/// # Errors
///
/// Returns an error for unreadable files and for any newline-terminated
/// line that does not decode (non-UTF-8, non-JSON, unknown `op`). The
/// bytes after the last newline — a torn write from a crash mid-append,
/// never acknowledged — are skipped whatever they hold.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<JournalOp>> {
    Ok(decode_lines(&std::fs::read(path)?, 0, path)?.0)
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
        ];
        let mut j = Journal::create(path.clone()).unwrap();
        for op in &ops {
            j.append(op).unwrap();
        }
        assert_eq!(j.end(), std::fs::metadata(&path).unwrap().len());
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
    fn tear_inside_a_multibyte_character_is_skipped() {
        let path = tmp("torn_utf8.jsonl");
        let mut bytes = b"{\"op\":\"suggest\"}\n{\"op\":\"report\",\"key\":\"".to_vec();
        bytes.extend_from_slice(&"é".as_bytes()[..1]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalOp::Suggest]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_final_record_is_an_error() {
        // A bit flip turned the closing `}` (0x7d) into `|` (0x7c): the
        // line is newline-terminated, so it was acknowledged and must
        // not vanish as if it were a torn tail.
        let path = tmp("flipped.jsonl");
        std::fs::write(&path, "{\"op\":\"suggest\"}\n{\"op\":\"suggest\"|\n").unwrap();
        assert!(read_journal(&path).is_err());
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
    fn reopen_replays_from_an_offset_and_cuts_the_torn_tail() {
        let path = tmp("reopen.jsonl");
        let mut j = Journal::create(path.clone()).unwrap();
        j.append(&JournalOp::Suggest).unwrap();
        let mid = j.end();
        j.append(&JournalOp::Suggest).unwrap();
        drop(j);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"op\":\"rep").unwrap();

        // "Restart": the records after `mid`, with the tear cut off.
        let (mut j, ops) = Journal::reopen(path.clone(), mid).unwrap();
        assert_eq!(ops, vec![JournalOp::Suggest]);
        assert_eq!(j.end(), 2 * mid);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * mid);
        j.append(&JournalOp::Suggest).unwrap();
        assert_eq!(read_journal(&path).unwrap(), vec![JournalOp::Suggest; 3]);

        // An offset inside a record, or past the end, is refused.
        assert!(Journal::reopen(path.clone(), mid + 1).is_err());
        assert!(Journal::reopen(path.clone(), 4 * mid).is_err());
        std::fs::remove_file(&path).ok();
    }
}
