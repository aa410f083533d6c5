//! Trial lifecycle events, the observer trait, and the one built-in
//! observer, the JSONL trace sink.

use mlconf_space::config::{config_to_json, Configuration};
use mlconf_util::json::{obj, Json};

use super::StopReason;
use crate::executor::{ExecutedTrial, ExecutionStatus};

/// A trial lifecycle transition published to session observers.
///
/// Events borrow from the running session; observers that need to keep
/// data must copy it out.
#[derive(Debug)]
pub enum TrialEvent<'a> {
    /// A trial is about to execute.
    TrialStarted {
        /// Trial index (position in the history once committed).
        trial: usize,
        /// The configuration under evaluation.
        config: &'a Configuration,
        /// Repetition index (prior evaluations of this configuration).
        rep: u64,
        /// Requested fidelity in `(0, 1]`.
        fidelity: f64,
    },
    /// One execution attempt of a trial failed. Intermediate failures
    /// are always crashes (only crashes are retried); the final attempt
    /// carries the trial's concluding non-`Ok` status.
    AttemptFailed {
        /// Trial index.
        trial: usize,
        /// Zero-based attempt number.
        attempt: u32,
        /// How the attempt failed.
        status: &'a ExecutionStatus,
    },
    /// A trial finished (successfully or not) and entered the history.
    TrialCompleted {
        /// Trial index.
        trial: usize,
        /// The configuration evaluated.
        config: &'a Configuration,
        /// Full execution record (outcome, status, attempts, waste).
        executed: &'a ExecutedTrial,
    },
    /// A completed trial improved on the best successful objective.
    IncumbentImproved {
        /// Trial index.
        trial: usize,
        /// The new incumbent configuration.
        config: &'a Configuration,
        /// The new best objective value.
        objective: f64,
    },
    /// The session ended before its trial budget.
    StoppedEarly {
        /// Why the session stopped.
        reason: StopReason,
    },
    /// A portfolio tuner chose the arm behind the next suggestion.
    ArmSelected {
        /// Trial index the suggestion will occupy once committed.
        trial: usize,
        /// The chosen arm's factory short name.
        arm: &'a str,
        /// The arm's index within the portfolio.
        index: usize,
        /// The bandit score the arm won with (`inf` during warmup).
        score: f64,
    },
    /// A portfolio tuner's budget shares shifted (warmup ended, or a new
    /// arm took the race lead).
    ArmBudgetReallocated {
        /// `(arm name, dispatched-trial share in [0, 1])`, in arm order.
        shares: &'a [(String, f64)],
    },
    /// The session's drift monitor fired: repeated measurements of known
    /// configurations drifted from their remembered objectives.
    DriftDetected {
        /// Index of the trial whose commit revealed the drift.
        trial: usize,
        /// The Page-Hinkley statistic at firing time.
        statistic: f64,
    },
    /// A re-tune began: pre-drift history censored from the tuner's
    /// view, significance-first probe trials queued.
    ReTuneStarted {
        /// Index of the trial whose commit triggered the re-tune.
        trial: usize,
        /// 1-based re-tune ordinal within the session.
        retune: usize,
        /// The knobs the probes resample, most significant first.
        knobs: &'a [String],
    },
    /// A re-tune's probe queue drained.
    ReTuneCompleted {
        /// Index of the last probe trial.
        trial: usize,
        /// 1-based re-tune ordinal within the session.
        retune: usize,
    },
}

/// A consumer of session [`TrialEvent`]s.
///
/// Observers are notified synchronously, in registration order. They
/// receive borrowed events and cannot influence the run. Registered
/// observers must be `Send` so a stepped [`AskTellSession`](super::AskTellSession) can be owned
/// by a service worker thread.
pub trait TrialObserver {
    /// Called once per lifecycle transition.
    fn on_event(&mut self, event: &TrialEvent<'_>);
}

/// Lends an observer to a session while the caller keeps ownership, so
/// it can be inspected once the run ends.
impl<T: TrialObserver + ?Sized> TrialObserver for &mut T {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        (**self).on_event(event);
    }
}

/// Built-in observer: writes one JSON object per event, newline-
/// delimited (JSONL), to any writer. Lines are self-describing via an
/// `"event"` discriminator; see [`TrialEvent::to_json`] for the exact
/// shapes. A write error never fails the run: the sink keeps the first
/// one, stops writing, and hands it back from [`JsonlTraceSink::finish`].
pub struct JsonlTraceSink {
    out: Box<dyn std::io::Write + Send>,
    error: Option<std::io::Error>,
}

impl JsonlTraceSink {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn std::io::Write + Send>) -> Self {
        JsonlTraceSink { out, error: None }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the stream.
    ///
    /// # Errors
    ///
    /// Returns the first error any write hit during the run, else the
    /// flush's own error.
    pub fn finish(mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl TrialObserver for JsonlTraceSink {
    fn on_event(&mut self, event: &TrialEvent<'_>) {
        if self.error.is_none() {
            if let Err(e) = writeln!(self.out, "{}", event.to_json().render()) {
                self.error = Some(e);
            }
        }
    }
}

impl Drop for JsonlTraceSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

impl TrialEvent<'_> {
    /// The event as one JSON object whose first field, `"event"`, names
    /// the variant — the line format of [`JsonlTraceSink`]. Non-finite
    /// numbers render as `null`.
    pub fn to_json(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let tag = |name: &str| ("event", Json::Str(name.into()));
        match self {
            TrialEvent::TrialStarted {
                trial,
                config,
                rep,
                fidelity,
            } => obj([
                tag("trial_started"),
                ("trial", num(*trial)),
                ("rep", Json::Num(*rep as f64)),
                ("fidelity", Json::Num(*fidelity)),
                ("config", config_to_json(config)),
            ]),
            TrialEvent::AttemptFailed {
                trial,
                attempt,
                status,
            } => obj([
                tag("attempt_failed"),
                ("trial", num(*trial)),
                ("attempt", Json::Num(f64::from(*attempt))),
                ("status", Json::Str(status.name().into())),
            ]),
            TrialEvent::TrialCompleted {
                trial,
                config,
                executed,
            } => {
                let o = &executed.outcome;
                obj([
                    tag("trial_completed"),
                    ("trial", num(*trial)),
                    ("status", Json::Str(executed.status.name().into())),
                    ("attempts", Json::Num(f64::from(executed.attempts))),
                    ("objective", opt(o.objective)),
                    ("tta_secs", Json::Num(o.tta_secs)),
                    (
                        "search_cost_machine_secs",
                        Json::Num(o.search_cost_machine_secs),
                    ),
                    (
                        "wasted_machine_secs",
                        Json::Num(executed.wasted_machine_secs),
                    ),
                    ("backoff_secs", Json::Num(executed.backoff_secs)),
                    ("censored_at", opt(o.censored_at)),
                    ("failure", o.failure.clone().map_or(Json::Null, Json::Str)),
                    ("config", config_to_json(config)),
                ])
            }
            TrialEvent::IncumbentImproved {
                trial,
                config,
                objective,
            } => obj([
                tag("incumbent_improved"),
                ("trial", num(*trial)),
                ("objective", Json::Num(*objective)),
                ("config", config_to_json(config)),
            ]),
            TrialEvent::StoppedEarly { reason } => obj([
                tag("stopped_early"),
                ("reason", Json::Str(reason.name().into())),
            ]),
            TrialEvent::ArmSelected {
                trial,
                arm,
                index,
                score,
            } => obj([
                tag("arm_selected"),
                ("trial", num(*trial)),
                ("arm", Json::Str((*arm).into())),
                ("index", num(*index)),
                ("score", Json::Num(*score)),
            ]),
            TrialEvent::ArmBudgetReallocated { shares } => obj([
                tag("arm_budget_reallocated"),
                (
                    "shares",
                    Json::Obj(
                        shares
                            .iter()
                            .map(|(arm, share)| (arm.clone(), Json::Num(*share)))
                            .collect(),
                    ),
                ),
            ]),
            TrialEvent::DriftDetected { trial, statistic } => obj([
                tag("drift_detected"),
                ("trial", num(*trial)),
                ("statistic", Json::Num(*statistic)),
            ]),
            TrialEvent::ReTuneStarted {
                trial,
                retune,
                knobs,
            } => obj([
                tag("retune_started"),
                ("trial", num(*trial)),
                ("retune", num(*retune)),
                (
                    "knobs",
                    Json::Arr(knobs.iter().map(|k| Json::Str(k.clone())).collect()),
                ),
            ]),
            TrialEvent::ReTuneCompleted { trial, retune } => obj([
                tag("retune_completed"),
                ("trial", num(*trial)),
                ("retune", num(*retune)),
            ]),
        }
    }
}
