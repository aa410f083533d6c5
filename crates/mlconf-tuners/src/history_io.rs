//! Saving and loading trial histories as CSV.
//!
//! Tuning runs are expensive; their histories are assets. This module
//! round-trips a [`TrialHistory`] through a plain CSV file (one column
//! per parameter, then the outcome fields) so histories can be archived,
//! plotted, and — most importantly — fed back as transfer-learning
//! sources for future jobs (`mlconf tune --warm-start old_run.csv`).

use std::io::{BufRead, Write};

use mlconf_sim::faultplan::{FaultEvent, FaultKind, FaultPlan};
use mlconf_space::config::Configuration;
use mlconf_space::space::ConfigSpace;
use mlconf_workloads::objective::TrialOutcome;

use crate::tuner::TrialHistory;

/// Error from history serialization.
#[derive(Debug)]
pub enum HistoryIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file's shape or contents do not match the space.
    Format {
        /// 1-based line number (0 for the header).
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for HistoryIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryIoError::Io(e) => write!(f, "history io: {e}"),
            HistoryIoError::Format { line, reason } => {
                write!(f, "history format error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for HistoryIoError {}

impl From<std::io::Error> for HistoryIoError {
    fn from(e: std::io::Error) -> Self {
        HistoryIoError::Io(e)
    }
}

const OUTCOME_COLUMNS: [&str; 9] = [
    "objective",
    "failure",
    "tta_secs",
    "cost_usd",
    "throughput",
    "staleness_steps",
    "search_cost_machine_secs",
    "censored_at",
    "attempts",
];

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// Splits one CSV line honouring double-quote escaping.
fn csv_split(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                cells.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    cells.push(cur);
    cells
}

/// Writes `history` as CSV; the column order for parameters follows
/// `space`'s declaration order.
///
/// # Errors
///
/// Returns I/O errors from the writer, or a format error if a trial's
/// configuration does not match the space.
pub fn save_csv<W: Write>(
    history: &TrialHistory,
    space: &ConfigSpace,
    mut w: W,
) -> Result<(), HistoryIoError> {
    let mut header: Vec<String> = space.params().iter().map(|p| p.name().to_owned()).collect();
    header.extend(OUTCOME_COLUMNS.iter().map(|s| s.to_string()));
    writeln!(w, "{}", header.join(","))?;
    for (i, t) in history.trials().iter().enumerate() {
        let mut cells: Vec<String> = Vec::with_capacity(header.len());
        for p in space.params() {
            let v = t
                .config
                .get(p.name())
                .ok_or_else(|| HistoryIoError::Format {
                    line: i + 1,
                    reason: format!("trial missing parameter `{}`", p.name()),
                })?;
            cells.push(csv_escape(&v.to_string()));
        }
        let o = &t.outcome;
        cells.push(o.objective.map(|v| format!("{v:?}")).unwrap_or_default());
        cells.push(csv_escape(o.failure.as_deref().unwrap_or("")));
        cells.push(format!("{:?}", o.tta_secs));
        cells.push(format!("{:?}", o.cost_usd));
        cells.push(format!("{:?}", o.throughput));
        cells.push(format!("{:?}", o.staleness_steps));
        cells.push(format!("{:?}", o.search_cost_machine_secs));
        cells.push(o.censored_at.map(|v| format!("{v:?}")).unwrap_or_default());
        cells.push(o.attempts.to_string());
        writeln!(w, "{}", cells.join(","))?;
    }
    // Flush here: a buffered writer's own drop-time flush swallows
    // errors (e.g. a full disk).
    w.flush()?;
    Ok(())
}

const FAULT_PLAN_HEADER: &str = "trial,attempt,kind,param";

/// Writes a [`FaultPlan`] as CSV (`trial,attempt,kind,param`), so
/// adversarial schedules can be archived and replayed with
/// `mlconf tune --fault-plan plan.csv`.
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn save_fault_plan<W: Write>(plan: &FaultPlan, mut w: W) -> Result<(), HistoryIoError> {
    writeln!(w, "{FAULT_PLAN_HEADER}")?;
    for e in plan.events() {
        writeln!(
            w,
            "{},{},{},{:?}",
            e.trial,
            e.attempt,
            e.kind.name(),
            e.kind.param()
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a fault plan written by [`save_fault_plan`].
///
/// # Errors
///
/// Returns format errors with line numbers for a bad header, unknown
/// fault kinds, unparsable numbers, out-of-range parameters, or
/// duplicate `(trial, attempt)` slots.
pub fn load_fault_plan<R: BufRead>(r: R) -> Result<FaultPlan, HistoryIoError> {
    let mut lines = r.lines();
    let header = lines.next().ok_or(HistoryIoError::Format {
        line: 0,
        reason: "empty fault plan".into(),
    })??;
    if header.trim() != FAULT_PLAN_HEADER {
        return Err(HistoryIoError::Format {
            line: 0,
            reason: format!("fault plan header mismatch: got `{header}`"),
        });
    }
    let mut plan = FaultPlan::none();
    for (idx, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let cells = csv_split(&line);
        if cells.len() != 4 {
            return Err(HistoryIoError::Format {
                line: lineno,
                reason: format!("{} cells, expected 4", cells.len()),
            });
        }
        let trial: usize = cells[0].parse().map_err(|_| HistoryIoError::Format {
            line: lineno,
            reason: format!("cannot parse trial from `{}`", cells[0]),
        })?;
        let attempt: u32 = cells[1].parse().map_err(|_| HistoryIoError::Format {
            line: lineno,
            reason: format!("cannot parse attempt from `{}`", cells[1]),
        })?;
        let param = parse_f64(&cells[3], lineno, "param")?;
        let kind =
            FaultKind::from_name_param(&cells[2], param).ok_or_else(|| HistoryIoError::Format {
                line: lineno,
                reason: format!("unknown fault kind `{}`", cells[2]),
            })?;
        if plan.event_for(trial, attempt).is_some() {
            return Err(HistoryIoError::Format {
                line: lineno,
                reason: format!("duplicate fault for trial {trial} attempt {attempt}"),
            });
        }
        kind.try_validate()
            .map_err(|reason| HistoryIoError::Format {
                line: lineno,
                reason,
            })?;
        plan.push(FaultEvent {
            trial,
            attempt,
            kind,
        });
    }
    Ok(plan)
}

fn parse_f64(cell: &str, line: usize, what: &str) -> Result<f64, HistoryIoError> {
    cell.parse().map_err(|_| HistoryIoError::Format {
        line,
        reason: format!("cannot parse {what} from `{cell}`"),
    })
}

/// [`parse_f64`] for the values a surrogate trains on: `inf`, `-inf`
/// and `NaN` are format errors.
fn parse_finite(cell: &str, line: usize, what: &str) -> Result<f64, HistoryIoError> {
    match parse_f64(cell, line, what)? {
        v if v.is_finite() => Ok(v),
        _ => Err(HistoryIoError::Format {
            line,
            reason: format!("{what} must be finite, got `{cell}`"),
        }),
    }
}

/// Reads a history written by [`save_csv`], validating every
/// configuration against `space`.
///
/// # Errors
///
/// Returns format errors with line numbers for mismatched headers,
/// unparsable values, a non-finite `objective` or `censored_at`, or
/// out-of-domain configurations. (A failed trial's `tta_secs` of `inf`
/// is legitimate and loads.)
pub fn load_csv<R: BufRead>(space: &ConfigSpace, r: R) -> Result<TrialHistory, HistoryIoError> {
    let mut lines = r.lines();
    let header_line = lines.next().ok_or(HistoryIoError::Format {
        line: 0,
        reason: "empty file".into(),
    })??;
    let header = csv_split(&header_line);
    let expected: Vec<String> = space
        .params()
        .iter()
        .map(|p| p.name().to_owned())
        .chain(OUTCOME_COLUMNS.iter().map(|s| s.to_string()))
        .collect();
    if header != expected {
        return Err(HistoryIoError::Format {
            line: 0,
            reason: format!("header mismatch: got {header:?}"),
        });
    }

    let n_params = space.params().len();
    let mut history = TrialHistory::new();
    for (idx, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let cells = csv_split(&line);
        if cells.len() != expected.len() {
            return Err(HistoryIoError::Format {
                line: lineno,
                reason: format!("{} cells, expected {}", cells.len(), expected.len()),
            });
        }
        let mut pairs = Vec::with_capacity(n_params);
        for (p, cell) in space.params().iter().zip(&cells) {
            let value = p.parse_value(cell).map_err(|e| HistoryIoError::Format {
                line: lineno,
                reason: e.to_string(),
            })?;
            pairs.push((p.name().to_owned(), value));
        }
        let config = Configuration::from_pairs(pairs);
        space
            .validate(&config)
            .map_err(|e| HistoryIoError::Format {
                line: lineno,
                reason: e.to_string(),
            })?;

        let objective = if cells[n_params].is_empty() {
            None
        } else {
            Some(parse_finite(&cells[n_params], lineno, "objective")?)
        };
        let failure = if cells[n_params + 1].is_empty() {
            None
        } else {
            Some(cells[n_params + 1].clone())
        };
        let outcome = TrialOutcome {
            objective,
            failure,
            tta_secs: parse_f64(&cells[n_params + 2], lineno, "tta_secs")?,
            cost_usd: parse_f64(&cells[n_params + 3], lineno, "cost_usd")?,
            throughput: parse_f64(&cells[n_params + 4], lineno, "throughput")?,
            staleness_steps: parse_f64(&cells[n_params + 5], lineno, "staleness_steps")?,
            search_cost_machine_secs: parse_f64(
                &cells[n_params + 6],
                lineno,
                "search_cost_machine_secs",
            )?,
            censored_at: if cells[n_params + 7].is_empty() {
                None
            } else {
                Some(parse_finite(&cells[n_params + 7], lineno, "censored_at")?)
            },
            attempts: cells[n_params + 8]
                .parse()
                .map_err(|_| HistoryIoError::Format {
                    line: lineno,
                    reason: format!("cannot parse attempts from `{}`", cells[n_params + 8]),
                })?,
        };
        history.push(config, outcome);
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomSearch;
    use crate::session::TuningSession;
    use mlconf_workloads::evaluator::ConfigEvaluator;
    use mlconf_workloads::objective::Objective;
    use mlconf_workloads::workload::{mlp_mnist, w2v_wiki};

    fn real_history(seed: u64) -> (TrialHistory, ConfigSpace) {
        let ev = ConfigEvaluator::new(w2v_wiki(), Objective::TimeToAccuracy, 16, seed);
        let mut t = RandomSearch::new(ev.space().clone());
        let r = TuningSession::new(&ev, 25, seed).run(&mut t);
        (r.history, ev.space().clone())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (h, space) = real_history(1);
        // w2v at 16 nodes OOMs sometimes → failures with messages present.
        assert!(h.trials().iter().any(|t| !t.outcome.is_ok()));
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let loaded = load_csv(&space, buf.as_slice()).unwrap();
        assert_eq!(loaded, h);
    }

    #[test]
    fn header_mismatch_rejected() {
        let (h, space) = real_history(2);
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let other_ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 16, 2);
        // Same 9-knob space → header matches (spaces are structurally
        // identical across workloads). Corrupt the header instead.
        let mut text = String::from_utf8(buf).unwrap();
        text = text.replacen("num_nodes", "bogus_col", 1);
        let err = load_csv(other_ev.space(), text.as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 0, .. }));
    }

    #[test]
    fn corrupt_value_reports_line() {
        let (h, space) = real_history(3);
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let mut lines: Vec<String> = String::from_utf8(buf)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        // Corrupt the first data row's first cell (num_nodes int).
        let mut cells = csv_split(&lines[1]);
        cells[0] = "not_a_number".into();
        lines[1] = cells.join(",");
        let err = load_csv(&space, lines.join("\n").as_bytes()).unwrap_err();
        match err {
            HistoryIoError::Format { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_finite_objective_or_bound_is_rejected_with_its_line() {
        let (h, space) = real_history(6);
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let n_params = space.params().len();
        let ok_row = 1 + h.trials().iter().position(|t| t.outcome.is_ok()).unwrap();
        for (column, bad) in [
            (n_params, "inf"),
            (n_params, "-inf"),
            (n_params, "NaN"),
            (n_params + 7, "inf"),
            (n_params + 7, "NaN"),
        ] {
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            let mut cells = csv_split(&lines[ok_row]);
            cells[column] = bad.into();
            lines[ok_row] = cells
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",");
            match load_csv(&space, lines.join("\n").as_bytes()).unwrap_err() {
                HistoryIoError::Format { line, reason } => {
                    assert_eq!(line, ok_row, "{bad} in column {column}");
                    assert!(reason.contains("finite"), "{reason}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
        // A failed trial's infinite time-to-accuracy still loads.
        let failed = h.trials().iter().find(|t| !t.outcome.is_ok()).unwrap();
        assert_eq!(failed.outcome.tta_secs, f64::INFINITY);
        assert_eq!(load_csv(&space, text.as_bytes()).unwrap(), h);
    }

    #[test]
    fn csv_split_handles_quotes() {
        assert_eq!(csv_split("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(csv_split(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(
            csv_split(r#""he said ""hi""",x"#),
            vec![r#"he said "hi""#, "x"]
        );
        assert_eq!(csv_split(""), vec![""]);
    }

    #[test]
    fn loaded_history_feeds_transfer() {
        use crate::transfer::SourceHistory;
        let (h, space) = real_history(4);
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let loaded = load_csv(&space, buf.as_slice()).unwrap();
        let source = SourceHistory::from_history(&loaded, &space);
        assert!(source.is_some(), "loaded history must be transfer-usable");
    }

    #[test]
    fn empty_history_roundtrips() {
        let space = mlconf_workloads::tunespace::standard_space(16);
        let h = TrialHistory::new();
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let loaded = load_csv(&space, buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn censored_and_retried_outcomes_roundtrip() {
        let (mut h, space) = real_history(5);
        // Hand-mark one trial censored and one retried, as the executor
        // would, then verify both survive the CSV round trip exactly.
        {
            let trials = h.trials();
            assert!(trials.len() >= 2);
        }
        let mut doctored = TrialHistory::new();
        for (i, t) in h.trials().iter().enumerate() {
            let mut o = t.outcome.clone();
            if i == 0 {
                o.censored_at = Some(1234.5);
            }
            if i == 1 {
                o.attempts = 3;
            }
            doctored.push(t.config.clone(), o);
        }
        h = doctored;
        let mut buf = Vec::new();
        save_csv(&h, &space, &mut buf).unwrap();
        let loaded = load_csv(&space, buf.as_slice()).unwrap();
        assert_eq!(loaded, h);
        assert_eq!(loaded.trials()[0].outcome.censored_at, Some(1234.5));
        assert_eq!(loaded.trials()[1].outcome.attempts, 3);
    }

    #[test]
    fn fault_plan_roundtrips() {
        let plan = FaultPlan::scripted(40, 1.5, 11);
        assert!(!plan.is_empty());
        let mut buf = Vec::new();
        save_fault_plan(&plan, &mut buf).unwrap();
        let loaded = load_fault_plan(buf.as_slice()).unwrap();
        assert_eq!(loaded, plan);
    }

    #[test]
    fn empty_fault_plan_roundtrips() {
        let mut buf = Vec::new();
        save_fault_plan(&FaultPlan::none(), &mut buf).unwrap();
        let loaded = load_fault_plan(buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn malformed_fault_plans_rejected() {
        // Bad header.
        let err = load_fault_plan("trial,attempt,type,param\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 0, .. }));
        // Unknown kind.
        let err =
            load_fault_plan("trial,attempt,kind,param\n0,0,meteor,1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 1, .. }));
        // Unparsable number.
        let err =
            load_fault_plan("trial,attempt,kind,param\nx,0,hang,0.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 1, .. }));
        // Out-of-range crash fraction.
        let err =
            load_fault_plan("trial,attempt,kind,param\n0,0,crash,1.5\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 1, .. }));
        // Duplicate slot.
        let text = "trial,attempt,kind,param\n0,0,hang,0.0\n0,0,oom,0.0\n";
        let err = load_fault_plan(text.as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 2, .. }));
        // Wrong cell count.
        let err = load_fault_plan("trial,attempt,kind,param\n0,0,hang\n".as_bytes()).unwrap_err();
        assert!(matches!(err, HistoryIoError::Format { line: 1, .. }));
    }
}
