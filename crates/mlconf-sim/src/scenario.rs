//! Scripted time-varying environments (dynamic scenarios).
//!
//! A tuner in production does not optimize a frozen cluster: workload
//! phases change, spot nodes vanish and rejoin, autoscalers resize the
//! fleet, and shared fabrics congest. A [`ScenarioScript`] scripts those
//! shifts *by wall-clock epoch*, fully deterministically, so evaluations
//! at different epochs see different ground truth — the substrate behind
//! the E17 dynamic-environment experiment and the drift-detection /
//! re-tuning layer in `mlconf-tuners`.
//!
//! Scripts are plain data: serializable (`serde`), comparable, and
//! generatable from a `(kind, seed)` pair via [`ScenarioScript::scripted`]
//! in the same unconditional-draw style as
//! [`FaultPlan::scripted`](crate::faultplan::FaultPlan::scripted), so two
//! invocations anywhere produce byte-identical schedules.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mlconf_util::rng::Pcg64;

/// The environment multipliers in force at one instant.
///
/// The neutral state (`compute_scale = net_scale = straggler_scale = 1`,
/// `node_delta = 0`) is exactly the static world every existing
/// experiment runs in: applying it changes nothing, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvState {
    /// Multiplier on per-core compute rate (machine phase changes,
    /// co-tenant interference). Must be positive and finite.
    pub compute_scale: f64,
    /// Multiplier on achievable network bandwidth (fabric congestion).
    /// Must be positive and finite.
    pub net_scale: f64,
    /// Signed change to the cluster's node count (spot preemption waves,
    /// autoscaling). Evaluations clamp the resulting size to stay valid.
    pub node_delta: i64,
    /// Multiplier on the straggler model's magnitudes (degraded nodes,
    /// noisy neighbours): see
    /// [`StragglerModel::with_severity_scaled`](crate::straggler::StragglerModel::with_severity_scaled).
    /// Must be positive and finite. It moves measured runs only: the
    /// noise-free ground truth strips stragglers, so this field leaves
    /// it unchanged.
    pub straggler_scale: f64,
}

impl EnvState {
    /// The do-nothing environment.
    pub fn neutral() -> Self {
        EnvState {
            compute_scale: 1.0,
            net_scale: 1.0,
            node_delta: 0,
            straggler_scale: 1.0,
        }
    }

    /// Whether applying this state is a no-op.
    pub fn is_neutral(&self) -> bool {
        self.compute_scale == 1.0
            && self.net_scale == 1.0
            && self.node_delta == 0
            && self.straggler_scale == 1.0
    }

    /// Checks the state's parameters, returning a description of the
    /// problem if any is out of range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when a field is invalid.
    pub fn try_validate(&self) -> Result<(), String> {
        for (label, v) in [
            ("compute_scale", self.compute_scale),
            ("net_scale", self.net_scale),
            ("straggler_scale", self.straggler_scale),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{label} must be positive and finite, got {v}"));
            }
        }
        if !(-10_000..=10_000).contains(&self.node_delta) {
            return Err(format!(
                "node_delta out of range (|delta| <= 10000), got {}",
                self.node_delta
            ));
        }
        Ok(())
    }

    /// Validates the state.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fields.
    pub fn validate(&self) {
        if let Err(reason) = self.try_validate() {
            panic!("{reason}");
        }
    }
}

impl Default for EnvState {
    fn default() -> Self {
        Self::neutral()
    }
}

/// One scheduled environment change: `env` takes effect at `at_secs` and
/// holds until the next event (piecewise-constant semantics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Wall-clock epoch (seconds) the state takes effect.
    pub at_secs: f64,
    /// The environment in force from `at_secs` on.
    pub env: EnvState,
}

/// A deterministic, replayable schedule of environment changes.
///
/// Before the first event (and for an empty script) the environment is
/// [`EnvState::neutral`]; each event's state holds until the next
/// event's epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScript {
    name: String,
    events: Vec<ScenarioEvent>,
}

/// Default scenario horizon in seconds: scripted presets place their
/// events at fractions of this span.
pub const DEFAULT_HORIZON_SECS: f64 = 40_000.0;

/// The header line of the scenario CSV format ([`ScenarioScript::to_csv`]
/// writes it, [`ScenarioScript::from_csv`] requires it).
pub const CSV_HEADER: &str = "at_secs,compute_scale,net_scale,node_delta,straggler_scale";

/// RNG stream tag reserved for scripted scenario generation, so scenario
/// draws never collide with simulation, evaluator, or fault-plan streams.
const SCENARIO_STREAM: u64 = 0x5ce9_a210;

/// The preset kinds accepted by [`ScenarioScript::scripted`].
pub const SCENARIO_KINDS: [&str; 6] = [
    "stationary",
    "phases",
    "preemption",
    "autoscale",
    "congestion",
    "mixed",
];

impl ScenarioScript {
    /// An empty (stationary) script under `name`.
    pub fn stationary(name: impl Into<String>) -> Self {
        ScenarioScript {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// The script's name (preset kind or user label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduled events, ordered by epoch.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Whether the script schedules no changes at all.
    pub fn is_stationary(&self) -> bool {
        self.events.iter().all(|e| e.env.is_neutral())
    }

    /// Adds one event.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is negative/non-finite or the state is
    /// invalid.
    pub fn push(&mut self, event: ScenarioEvent) {
        assert!(
            event.at_secs >= 0.0 && event.at_secs.is_finite(),
            "event epoch must be finite and >= 0, got {}",
            event.at_secs
        );
        event.env.validate();
        self.events.push(event);
        self.events
            .sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite epochs"));
    }

    /// The environment in force at epoch `t` (the last event at or
    /// before `t`; neutral before the first event).
    pub fn env_at(&self, t: f64) -> EnvState {
        self.events
            .iter()
            .take_while(|e| e.at_secs <= t)
            .last()
            .map_or_else(EnvState::neutral, |e| e.env)
    }

    /// Epochs at which the environment changes (event times), for
    /// oracle re-tuners that know the script.
    pub fn change_points(&self) -> Vec<f64> {
        self.events.iter().map(|e| e.at_secs).collect()
    }

    /// Generates a deterministic preset script over the default horizon.
    /// Returns `None` for an unknown kind (see [`SCENARIO_KINDS`]).
    pub fn scripted(kind: &str, seed: u64) -> Option<Self> {
        Self::scripted_over(kind, seed, DEFAULT_HORIZON_SECS)
    }

    /// Generates a deterministic preset script with events placed at
    /// fractions of `horizon_secs`. Identical `(kind, seed, horizon)`
    /// always yields an identical script, independent of everything
    /// else: all RNG draws happen unconditionally in a fixed order (the
    /// `FaultPlan::scripted` discipline), so no draw's position depends
    /// on an earlier draw's value.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_secs` is not positive/finite.
    pub fn scripted_over(kind: &str, seed: u64, horizon_secs: f64) -> Option<Self> {
        assert!(
            horizon_secs > 0.0 && horizon_secs.is_finite(),
            "horizon must be positive and finite, got {horizon_secs}"
        );
        let h = horizon_secs;
        let mut rng = Pcg64::with_stream(seed, SCENARIO_STREAM);
        let mut script = ScenarioScript::stationary(kind);
        match kind {
            "stationary" => {}
            "phases" => {
                // Alternating workload phases: odd phases run hot (co-
                // tenant pressure slashes the compute rate), even phases
                // recover. Both draws happen every iteration.
                for i in 1..=3u32 {
                    let slow: f64 = rng.gen_range(0.25..0.45);
                    let fast: f64 = rng.gen_range(0.9..1.1);
                    let scale = if i % 2 == 1 { slow } else { fast };
                    script.push(ScenarioEvent {
                        at_secs: f64::from(i) * h / 4.0,
                        env: EnvState {
                            compute_scale: scale,
                            ..EnvState::neutral()
                        },
                    });
                }
            }
            "preemption" => {
                // Spot-preemption waves: correlated node loss, then
                // rejoin once replacements arrive.
                for k in 0..2u32 {
                    let lost: i64 = rng.gen_range(8..=16);
                    let dur: f64 = rng.gen_range(0.08..0.15) * h;
                    let at = (0.25 + 0.40 * f64::from(k)) * h;
                    script.push(ScenarioEvent {
                        at_secs: at,
                        env: EnvState {
                            node_delta: -lost,
                            ..EnvState::neutral()
                        },
                    });
                    script.push(ScenarioEvent {
                        at_secs: at + dur,
                        env: EnvState::neutral(),
                    });
                }
            }
            "autoscale" => {
                // Autoscaler steps: scale in, scale out, settle.
                let down: i64 = rng.gen_range(6..=14);
                let up: i64 = rng.gen_range(4..=10);
                script.push(ScenarioEvent {
                    at_secs: 0.2 * h,
                    env: EnvState {
                        node_delta: -down,
                        ..EnvState::neutral()
                    },
                });
                script.push(ScenarioEvent {
                    at_secs: 0.5 * h,
                    env: EnvState {
                        node_delta: up,
                        ..EnvState::neutral()
                    },
                });
                script.push(ScenarioEvent {
                    at_secs: 0.8 * h,
                    env: EnvState::neutral(),
                });
            }
            "congestion" => {
                // Fabric congestion windows: bandwidth collapses, clears,
                // then collapses again and stays.
                let first: f64 = rng.gen_range(0.15..0.35);
                let second: f64 = rng.gen_range(0.2..0.4);
                script.push(ScenarioEvent {
                    at_secs: 0.3 * h,
                    env: EnvState {
                        net_scale: first,
                        ..EnvState::neutral()
                    },
                });
                script.push(ScenarioEvent {
                    at_secs: 0.55 * h,
                    env: EnvState::neutral(),
                });
                script.push(ScenarioEvent {
                    at_secs: 0.7 * h,
                    env: EnvState {
                        net_scale: second,
                        ..EnvState::neutral()
                    },
                });
            }
            "mixed" => {
                // One of everything: a compute phase, a preemption wave
                // stacked on it, then congestion while nodes rejoin.
                let slow: f64 = rng.gen_range(0.3..0.5);
                let lost: i64 = rng.gen_range(8..=14);
                let net: f64 = rng.gen_range(0.2..0.4);
                script.push(ScenarioEvent {
                    at_secs: 0.25 * h,
                    env: EnvState {
                        compute_scale: slow,
                        ..EnvState::neutral()
                    },
                });
                script.push(ScenarioEvent {
                    at_secs: 0.5 * h,
                    env: EnvState {
                        compute_scale: slow,
                        node_delta: -lost,
                        ..EnvState::neutral()
                    },
                });
                script.push(ScenarioEvent {
                    at_secs: 0.75 * h,
                    env: EnvState {
                        net_scale: net,
                        ..EnvState::neutral()
                    },
                });
            }
            _ => return None,
        }
        Some(script)
    }

    /// Parses a CLI/service scenario spec: `kind`, `kind:seed`, or
    /// `kind:seed:horizon_secs` (e.g. `"preemption:7"`,
    /// `"phases:11:20000"`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the spec is malformed or
    /// names an unknown kind.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let seed = match parts.next() {
            None => 0,
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| format!("scenario seed must be an integer, got `{s}`"))?,
        };
        let horizon = match parts.next() {
            None => DEFAULT_HORIZON_SECS,
            Some(s) => {
                let h = s
                    .parse::<f64>()
                    .map_err(|_| format!("scenario horizon must be a number, got `{s}`"))?;
                if !(h > 0.0 && h.is_finite()) {
                    return Err(format!("scenario horizon must be positive, got `{s}`"));
                }
                h
            }
        };
        if parts.next().is_some() {
            return Err(format!(
                "scenario spec has too many `:` fields: `{spec}` (expected kind[:seed[:horizon]])"
            ));
        }
        Self::scripted_over(kind, seed, horizon).ok_or_else(|| {
            format!(
                "unknown scenario kind `{kind}` (expected one of: {})",
                SCENARIO_KINDS.join(", ")
            )
        })
    }

    /// Renders the script as CSV ([`CSV_HEADER`] plus one row per
    /// event), the file format `mlconf tune --scenario <file>` reads.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{CSV_HEADER}\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.at_secs,
                e.env.compute_scale,
                e.env.net_scale,
                e.env.node_delta,
                e.env.straggler_scale
            ));
        }
        out
    }

    /// Parses a CSV script produced by [`ScenarioScript::to_csv`] (or
    /// written by hand). The header line is required.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on a malformed line or invalid
    /// state.
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != CSV_HEADER {
            return Err(format!(
                "scenario CSV must start with header `{CSV_HEADER}`, got `{header}`"
            ));
        }
        let mut script = ScenarioScript::stationary(name);
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(format!(
                    "scenario CSV line {} needs 5 fields: `{line}`",
                    i + 2
                ));
            }
            let num = |s: &str| -> Result<f64, String> {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("scenario CSV line {}: bad number `{s}`", i + 2))
            };
            let at_secs = num(fields[0])?;
            let env = EnvState {
                compute_scale: num(fields[1])?,
                net_scale: num(fields[2])?,
                node_delta: fields[3].trim().parse::<i64>().map_err(|_| {
                    format!(
                        "scenario CSV line {}: bad node_delta `{}`",
                        i + 2,
                        fields[3]
                    )
                })?,
                straggler_scale: num(fields[4])?,
            };
            if !(at_secs >= 0.0 && at_secs.is_finite()) {
                return Err(format!(
                    "scenario CSV line {}: epoch must be finite and >= 0",
                    i + 2
                ));
            }
            env.try_validate()
                .map_err(|e| format!("scenario CSV line {}: {e}", i + 2))?;
            script.push(ScenarioEvent { at_secs, env });
        }
        Ok(script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_state_is_noop() {
        let n = EnvState::neutral();
        assert!(n.is_neutral());
        assert_eq!(EnvState::default(), n);
        n.validate();
        assert!(!EnvState {
            compute_scale: 0.5,
            ..EnvState::neutral()
        }
        .is_neutral());
    }

    #[test]
    #[should_panic(expected = "compute_scale")]
    fn rejects_nonpositive_scale() {
        EnvState {
            compute_scale: 0.0,
            ..EnvState::neutral()
        }
        .validate();
    }

    #[test]
    fn empty_script_is_neutral_everywhere() {
        let s = ScenarioScript::stationary("quiet");
        assert!(s.is_stationary());
        assert_eq!(s.env_at(0.0), EnvState::neutral());
        assert_eq!(s.env_at(1e9), EnvState::neutral());
        assert!(s.change_points().is_empty());
    }

    #[test]
    fn env_at_is_piecewise_constant() {
        let mut s = ScenarioScript::stationary("test");
        let slow = EnvState {
            compute_scale: 0.5,
            ..EnvState::neutral()
        };
        let fast = EnvState::neutral();
        s.push(ScenarioEvent {
            at_secs: 100.0,
            env: slow,
        });
        s.push(ScenarioEvent {
            at_secs: 200.0,
            env: fast,
        });
        assert_eq!(s.env_at(0.0), EnvState::neutral());
        assert_eq!(s.env_at(99.9), EnvState::neutral());
        assert_eq!(s.env_at(100.0), slow);
        assert_eq!(s.env_at(150.0), slow);
        assert_eq!(s.env_at(200.0), fast);
        assert_eq!(s.env_at(1e6), fast);
    }

    #[test]
    fn events_sorted_regardless_of_push_order() {
        let mut s = ScenarioScript::stationary("test");
        s.push(ScenarioEvent {
            at_secs: 300.0,
            env: EnvState::neutral(),
        });
        s.push(ScenarioEvent {
            at_secs: 100.0,
            env: EnvState {
                net_scale: 0.3,
                ..EnvState::neutral()
            },
        });
        assert_eq!(s.events()[0].at_secs, 100.0);
        assert_eq!(s.change_points(), vec![100.0, 300.0]);
    }

    #[test]
    fn scripted_is_deterministic() {
        for kind in SCENARIO_KINDS {
            let a = ScenarioScript::scripted(kind, 7).unwrap();
            let b = ScenarioScript::scripted(kind, 7).unwrap();
            assert_eq!(a, b, "{kind}");
            for e in a.events() {
                e.env.validate();
            }
        }
        let a = ScenarioScript::scripted("phases", 7).unwrap();
        let c = ScenarioScript::scripted("phases", 8).unwrap();
        assert_ne!(a, c, "different seeds must give different scripts");
        assert!(ScenarioScript::scripted("bogus", 1).is_none());
    }

    #[test]
    fn presets_are_genuinely_nonstationary() {
        for kind in SCENARIO_KINDS {
            let s = ScenarioScript::scripted(kind, 3).unwrap();
            if kind == "stationary" {
                assert!(s.is_stationary());
            } else {
                assert!(!s.is_stationary(), "{kind} should shift the environment");
            }
        }
    }

    #[test]
    fn spec_parsing() {
        let s = ScenarioScript::parse_spec("preemption:7").unwrap();
        assert_eq!(s, ScenarioScript::scripted("preemption", 7).unwrap());
        let d = ScenarioScript::parse_spec("phases").unwrap();
        assert_eq!(d, ScenarioScript::scripted("phases", 0).unwrap());
        let h = ScenarioScript::parse_spec("phases:11:20000").unwrap();
        assert_eq!(
            h,
            ScenarioScript::scripted_over("phases", 11, 20_000.0).unwrap()
        );
        assert!(ScenarioScript::parse_spec("bogus").is_err());
        assert!(ScenarioScript::parse_spec("phases:x").is_err());
        assert!(ScenarioScript::parse_spec("phases:1:-5").is_err());
        assert!(ScenarioScript::parse_spec("phases:1:2:3").is_err());
    }

    #[test]
    fn node_delta_range_check_cannot_overflow() {
        for node_delta in [i64::MIN, i64::MAX, -10_001, 10_001] {
            let err = EnvState {
                node_delta,
                ..EnvState::neutral()
            }
            .try_validate()
            .unwrap_err();
            assert!(err.contains("node_delta"), "{err}");
        }
        for node_delta in [-10_000, 0, 10_000] {
            EnvState {
                node_delta,
                ..EnvState::neutral()
            }
            .validate();
        }
    }

    #[test]
    fn csv_roundtrip() {
        let mut s = ScenarioScript::scripted("mixed", 5).unwrap();
        s.push(ScenarioEvent {
            at_secs: 33_000.0,
            env: EnvState {
                straggler_scale: 4.0,
                ..EnvState::neutral()
            },
        });
        let csv = s.to_csv();
        let back = ScenarioScript::from_csv("mixed", &csv).unwrap();
        assert_eq!(s, back);
        let reject = |csv: &str, reason: &str| {
            let err = ScenarioScript::from_csv("x", csv).unwrap_err();
            assert!(err.contains(reason), "`{csv}` failed with `{err}`");
        };
        reject("nope\n1,2,3,4,5\n", "header");
        // A four-column header (no straggler_scale) is rejected.
        reject(
            "at_secs,compute_scale,net_scale,node_delta\n1,1,1,0\n",
            "header",
        );
        reject(&format!("{CSV_HEADER}\n1,2,3,4\n"), "needs 5 fields");
        reject(&format!("{CSV_HEADER}\n1,0,1,0,1\n"), "compute_scale");
        reject(
            &format!("{CSV_HEADER}\n1,1,1,-9223372036854775808,1\n"),
            "line 2: node_delta",
        );
        reject(
            &format!("{CSV_HEADER}\n1,1,1,0,1\n2,1,1,0,0\n"),
            "line 3: straggler_scale",
        );
        reject(
            &format!("{CSV_HEADER}\n1,1,1,0,NaN\n"),
            "line 2: straggler_scale",
        );
    }
}
