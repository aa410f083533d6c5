//! Wire codecs between the service's JSON protocol and the domain
//! types (`SessionSpec`, configurations, outcomes, executed trials).
//!
//! Every codec here is lossless and deterministic: floats ride Rust's
//! shortest round-trip `Display` form, and the non-finite values the
//! simulator produces for failed trials (`tta_secs = inf`) are tagged as
//! the strings `"inf"` / `"-inf"` / `"nan"`, so decode(encode(x)) is
//! bit-identical for every field. That property is what lets the journal
//! replay and the HTTP loop reproduce in-process results exactly.

use crate::json::{obj, Json};
use mlconf_sim::scenario::ScenarioScript;
pub use mlconf_space::config::config_to_json;
use mlconf_space::config::Configuration;
use mlconf_space::param::{Param, ParamKind, ParamValue};
use mlconf_space::space::ConfigSpace;
use mlconf_tuners::drift::ReTunePolicy;
use mlconf_tuners::executor::{ExecutedTrial, ExecutionStatus};
use mlconf_tuners::session::{PendingTrial, StopCondition};
use mlconf_workloads::objective::TrialOutcome;
use mlconf_workloads::tunespace::standard_space;

/// Largest cluster size a session may be created with (the standard
/// space needs at least 3 nodes; the ceiling bounds per-session memory).
pub const MAX_NODES_LIMIT: i64 = 4096;

/// Largest trial budget a session may be created with.
pub const MAX_BUDGET: usize = 100_000;

/// Tenant name a session belongs to when the spec names none.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name.
pub const MAX_TENANT_LEN: usize = 64;

/// A request the API layer could not decode or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    v.get(key)
        .ok_or_else(|| ApiError(format!("missing field `{key}`")))
}

/// Everything needed to (re)build a served session deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tuner short name (see `mlconf_tuners::factory::TUNER_NAMES`).
    pub tuner: String,
    /// Trial budget.
    pub budget: usize,
    /// Seed for the driver RNG and the tuner.
    pub seed: u64,
    /// Cluster-size ceiling defining the standard space.
    pub max_nodes: i64,
    /// Stop conditions, in evaluation order.
    pub conditions: Vec<StopCondition>,
    /// Configurations to evaluate first, before the tuner takes over.
    pub warm_start: Vec<Configuration>,
    /// The tenant this session belongs to (admission control key).
    pub tenant: String,
    /// Scenario spec (`kind[:seed[:horizon]]`) describing the dynamic
    /// environment the reporting executor evaluates under. Validated at
    /// admission, journaled with the create record, and surfaced in
    /// status so executors replay the identical script after restarts.
    pub scenario: Option<String>,
    /// Drift-detection / re-tune policy attached to the session's state
    /// machine.
    pub retune_policy: ReTunePolicy,
}

impl SessionSpec {
    /// The configuration space this spec tunes over.
    pub fn space(&self) -> ConfigSpace {
        standard_space(self.max_nodes)
    }
}

/// Decodes a `POST /sessions` body.
///
/// An optional `"arms"` array (strings, only with `"tuner":"portfolio"`)
/// is canonicalised into the tuner name — `{"tuner":"portfolio",
/// "arms":["bo","lhs"]}` stores `portfolio:bo,lhs` — so the journal and
/// snapshot formats carry the arm set with zero extra fields.
///
/// # Errors
///
/// Returns [`ApiError`] on missing/invalid fields, an unknown tuner
/// name, a malformed portfolio arm list, or out-of-range budget /
/// max-nodes.
pub fn spec_from_json(v: &Json) -> Result<SessionSpec, ApiError> {
    let mut tuner = field(v, "tuner")?
        .as_str()
        .ok_or_else(|| ApiError("`tuner` must be a string".into()))?
        .to_owned();
    match v.get("arms") {
        None | Some(Json::Null) => {}
        Some(a) => {
            if tuner != "portfolio" {
                return Err(ApiError(format!(
                    "`arms` only applies to tuner `portfolio`, not `{tuner}`"
                )));
            }
            let arms = a
                .as_arr()
                .ok_or_else(|| ApiError("`arms` must be an array of strings".into()))?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| ApiError("`arms` must be an array of strings".into()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            tuner = format!("portfolio:{}", arms.join(","));
        }
    }
    mlconf_tuners::factory::validate_tuner_name(&tuner).map_err(|e| ApiError(e.to_string()))?;
    let budget = field(v, "budget")?
        .as_i64()
        .filter(|&b| b >= 1 && b <= MAX_BUDGET as i64)
        .ok_or_else(|| ApiError(format!("`budget` must be an integer in 1..={MAX_BUDGET}")))?
        as usize;
    let seed = field(v, "seed")?
        .as_i64()
        .filter(|&s| s >= 0)
        .ok_or_else(|| ApiError("`seed` must be a non-negative integer".into()))?
        as u64;
    let max_nodes = match v.get("max_nodes") {
        None => 32,
        Some(n) => n
            .as_i64()
            .filter(|&m| (3..=MAX_NODES_LIMIT).contains(&m))
            .ok_or_else(|| {
                ApiError(format!(
                    "`max_nodes` must be an integer in 3..={MAX_NODES_LIMIT}"
                ))
            })?,
    };
    let conditions = match v.get("conditions") {
        None => Vec::new(),
        Some(c) => c
            .as_arr()
            .ok_or_else(|| ApiError("`conditions` must be an array".into()))?
            .iter()
            .map(condition_from_json)
            .collect::<Result<_, _>>()?,
    };
    let space = standard_space(max_nodes);
    let warm_start = match v.get("warm_start") {
        None => Vec::new(),
        Some(w) => w
            .as_arr()
            .ok_or_else(|| ApiError("`warm_start` must be an array".into()))?
            .iter()
            .map(|c| config_from_json(&space, c))
            .collect::<Result<_, _>>()?,
    };
    let tenant = match v.get("tenant") {
        None | Some(Json::Null) => DEFAULT_TENANT.to_owned(),
        Some(t) => {
            let t = t
                .as_str()
                .ok_or_else(|| ApiError("`tenant` must be a string".into()))?;
            if t.is_empty() || t.len() > MAX_TENANT_LEN {
                return Err(ApiError(format!(
                    "`tenant` must be 1..={MAX_TENANT_LEN} characters"
                )));
            }
            if !t
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            {
                return Err(ApiError("`tenant` may only contain [A-Za-z0-9._-]".into()));
            }
            t.to_owned()
        }
    };
    let scenario = match v.get("scenario") {
        None | Some(Json::Null) => None,
        Some(s) => {
            let s = s
                .as_str()
                .ok_or_else(|| ApiError("`scenario` must be a string".into()))?;
            ScenarioScript::parse_spec(s).map_err(|e| ApiError(format!("`scenario`: {e}")))?;
            Some(s.to_owned())
        }
    };
    let retune_policy = match v.get("retune_policy") {
        None | Some(Json::Null) => ReTunePolicy::Off,
        Some(p) => {
            let p = p
                .as_str()
                .ok_or_else(|| ApiError("`retune_policy` must be a string".into()))?;
            ReTunePolicy::parse_spec(p).map_err(|e| ApiError(format!("`retune_policy`: {e}")))?
        }
    };
    Ok(SessionSpec {
        tuner,
        budget,
        seed,
        max_nodes,
        conditions,
        warm_start,
        tenant,
        scenario,
        retune_policy,
    })
}

/// Encodes a spec (journal `create` records, `GET /sessions/{id}`).
pub fn spec_to_json(spec: &SessionSpec) -> Json {
    obj([
        ("tuner", Json::Str(spec.tuner.clone())),
        ("budget", Json::Num(spec.budget as f64)),
        ("seed", Json::Num(spec.seed as f64)),
        ("max_nodes", Json::Num(spec.max_nodes as f64)),
        (
            "conditions",
            Json::Arr(spec.conditions.iter().map(condition_to_json).collect()),
        ),
        (
            "warm_start",
            Json::Arr(spec.warm_start.iter().map(config_to_json).collect()),
        ),
        ("tenant", Json::Str(spec.tenant.clone())),
        (
            "scenario",
            spec.scenario
                .as_ref()
                .map_or(Json::Null, |s| Json::Str(s.clone())),
        ),
        ("retune_policy", Json::Str(spec.retune_policy.to_spec())),
    ])
}

fn condition_from_json(v: &Json) -> Result<StopCondition, ApiError> {
    let kind = field(v, "kind")?
        .as_str()
        .ok_or_else(|| ApiError("condition `kind` must be a string".into()))?;
    let num = |key: &str| -> Result<f64, ApiError> {
        field(v, key)?
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| ApiError(format!("condition `{key}` must be a non-negative number")))
    };
    let int = |key: &str| -> Result<usize, ApiError> {
        field(v, key)?
            .as_i64()
            .filter(|&n| n >= 0)
            .map(|n| n as usize)
            .ok_or_else(|| ApiError(format!("condition `{key}` must be a non-negative integer")))
    };
    match kind {
        "cost_budget" => Ok(StopCondition::CostBudget {
            machine_secs: num("machine_secs")?,
        }),
        "wall_budget" => Ok(StopCondition::WallBudget { secs: num("secs")? }),
        "acquisition_below" => Ok(StopCondition::AcquisitionBelow {
            min_trials: int("min_trials")?,
            threshold: field(v, "threshold")?
                .as_f64()
                .ok_or_else(|| ApiError("condition `threshold` must be a number".into()))?,
            patience: int("patience")?,
        }),
        other => Err(ApiError(format!("unknown condition kind `{other}`"))),
    }
}

fn condition_to_json(c: &StopCondition) -> Json {
    match *c {
        StopCondition::CostBudget { machine_secs } => obj([
            ("kind", Json::Str("cost_budget".into())),
            ("machine_secs", Json::Num(machine_secs)),
        ]),
        StopCondition::WallBudget { secs } => obj([
            ("kind", Json::Str("wall_budget".into())),
            ("secs", Json::Num(secs)),
        ]),
        StopCondition::AcquisitionBelow {
            min_trials,
            threshold,
            patience,
        } => obj([
            ("kind", Json::Str("acquisition_below".into())),
            ("min_trials", Json::Num(min_trials as f64)),
            ("threshold", tagged_num(threshold)),
            ("patience", Json::Num(patience as f64)),
        ]),
    }
}

/// Decodes a configuration against `space`: every space parameter must
/// be present with an in-domain value, and no extra keys are allowed.
/// The result stores values in space parameter order, making the key —
/// and thus repetition counting — identical to server-built configs.
///
/// # Errors
///
/// Returns [`ApiError`] for missing, extra, mistyped, or out-of-domain
/// parameters.
pub fn config_from_json(space: &ConfigSpace, v: &Json) -> Result<Configuration, ApiError> {
    let Json::Obj(fields) = v else {
        return Err(ApiError("a configuration must be an object".into()));
    };
    if fields.len() != space.params().len() {
        return Err(ApiError(format!(
            "configuration must have exactly the space's {} parameters",
            space.params().len()
        )));
    }
    let mut pairs: Vec<(String, ParamValue)> = Vec::with_capacity(space.params().len());
    for param in space.params() {
        let value = field(v, param.name())?;
        let value = param_value_from_json(param, value)?;
        if !param.contains(&value) {
            return Err(ApiError(format!(
                "`{}` = {value} is outside the parameter's domain",
                param.name()
            )));
        }
        pairs.push((param.name().to_owned(), value));
    }
    Ok(Configuration::from_pairs(pairs))
}

fn param_value_from_json(param: &Param, v: &Json) -> Result<ParamValue, ApiError> {
    let mistyped = || {
        ApiError(format!(
            "`{}` must be a {} value",
            param.name(),
            param.kind().type_name()
        ))
    };
    Ok(match param.kind() {
        ParamKind::Int { .. } => ParamValue::Int(v.as_i64().ok_or_else(mistyped)?),
        ParamKind::Float { .. } => ParamValue::Float(v.as_f64().ok_or_else(mistyped)?),
        ParamKind::Categorical { .. } => ParamValue::Str(v.as_str().ok_or_else(mistyped)?.into()),
        ParamKind::Bool => ParamValue::Bool(v.as_bool().ok_or_else(mistyped)?),
    })
}

/// Encodes an `f64` that may be non-finite (JSON has no inf/nan).
pub fn tagged_num(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else if x.is_nan() {
        Json::Str("nan".into())
    } else if x > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

/// Decodes a [`tagged_num`]-encoded number.
pub(crate) fn num_from_json(v: &Json, key: &str) -> Result<f64, ApiError> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            _ => Err(ApiError(format!("`{key}` is not a number"))),
        },
        _ => Err(ApiError(format!("`{key}` is not a number"))),
    }
}

fn num_field(v: &Json, key: &str) -> Result<f64, ApiError> {
    num_from_json(field(v, key)?, key)
}

/// Encodes a trial outcome.
pub fn outcome_to_json(o: &TrialOutcome) -> Json {
    obj([
        ("objective", o.objective.map_or(Json::Null, tagged_num)),
        (
            "failure",
            o.failure
                .as_ref()
                .map_or(Json::Null, |f| Json::Str(f.clone())),
        ),
        ("tta_secs", tagged_num(o.tta_secs)),
        ("cost_usd", tagged_num(o.cost_usd)),
        ("throughput", tagged_num(o.throughput)),
        ("staleness_steps", tagged_num(o.staleness_steps)),
        (
            "search_cost_machine_secs",
            tagged_num(o.search_cost_machine_secs),
        ),
        ("censored_at", o.censored_at.map_or(Json::Null, tagged_num)),
        ("attempts", Json::Num(f64::from(o.attempts))),
    ])
}

/// Decodes a trial outcome.
///
/// # Errors
///
/// Returns [`ApiError`] on missing or mistyped fields, and on a
/// non-finite `objective` or `censored_at`: the tuner ranks successes by
/// objective and trains on censoring bounds, and neither has a place for
/// `nan` or `inf`.
pub fn outcome_from_json(v: &Json) -> Result<TrialOutcome, ApiError> {
    let opt_num = |key: &str| -> Result<Option<f64>, ApiError> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => match num_from_json(x, key)? {
                n if n.is_finite() => Ok(Some(n)),
                n => Err(ApiError(format!("`{key}` must be finite, got {n}"))),
            },
        }
    };
    let failure = match v.get("failure") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err(ApiError("`failure` must be a string or null".into())),
    };
    Ok(TrialOutcome {
        objective: opt_num("objective")?,
        failure,
        tta_secs: num_field(v, "tta_secs")?,
        cost_usd: num_field(v, "cost_usd")?,
        throughput: num_field(v, "throughput")?,
        staleness_steps: num_field(v, "staleness_steps")?,
        search_cost_machine_secs: num_field(v, "search_cost_machine_secs")?,
        censored_at: opt_num("censored_at")?,
        attempts: field(v, "attempts")?
            .as_i64()
            .filter(|&a| (0..=i64::from(u32::MAX)).contains(&a))
            .ok_or_else(|| ApiError("`attempts` must be a non-negative integer".into()))?
            as u32,
    })
}

fn status_to_json(s: &ExecutionStatus) -> Json {
    match *s {
        ExecutionStatus::Ok => obj([("status", Json::Str("ok".into()))]),
        ExecutionStatus::TimedOut { elapsed } => obj([
            ("status", Json::Str("timed-out".into())),
            ("elapsed", tagged_num(elapsed)),
        ]),
        ExecutionStatus::Crashed { attempts } => obj([
            ("status", Json::Str("crashed".into())),
            ("crash_attempts", Json::Num(f64::from(attempts))),
        ]),
        ExecutionStatus::Oom => obj([("status", Json::Str("oom".into()))]),
    }
}

fn status_from_json(v: &Json) -> Result<ExecutionStatus, ApiError> {
    let name = field(v, "status")?
        .as_str()
        .ok_or_else(|| ApiError("`status` must be a string".into()))?;
    match name {
        "ok" => Ok(ExecutionStatus::Ok),
        "timed-out" => Ok(ExecutionStatus::TimedOut {
            elapsed: num_field(v, "elapsed")?,
        }),
        "crashed" => Ok(ExecutionStatus::Crashed {
            attempts: field(v, "crash_attempts")?
                .as_i64()
                .filter(|&a| (0..=i64::from(u32::MAX)).contains(&a))
                .ok_or_else(|| ApiError("`crash_attempts` must be a non-negative integer".into()))?
                as u32,
        }),
        "oom" => Ok(ExecutionStatus::Oom),
        other => Err(ApiError(format!("unknown execution status `{other}`"))),
    }
}

/// Encodes an executed trial (journal `report` records).
pub fn executed_to_json(e: &ExecutedTrial) -> Json {
    obj([
        ("outcome", outcome_to_json(&e.outcome)),
        ("exec", status_to_json(&e.status)),
        ("attempts", Json::Num(f64::from(e.attempts))),
        ("wasted_machine_secs", tagged_num(e.wasted_machine_secs)),
        ("backoff_secs", tagged_num(e.backoff_secs)),
    ])
}

/// Decodes a `POST /sessions/{id}/report` body or a journal `report`
/// record. Only `outcome` is required: execution metadata defaults to a
/// clean single-attempt run, matching a passthrough executor.
///
/// # Errors
///
/// Returns [`ApiError`] on missing or mistyped fields.
pub fn executed_from_json(v: &Json) -> Result<ExecutedTrial, ApiError> {
    let outcome = outcome_from_json(field(v, "outcome")?)?;
    let status = match v.get("exec") {
        None | Some(Json::Null) => ExecutionStatus::Ok,
        Some(s) => status_from_json(s)?,
    };
    let attempts = match v.get("attempts") {
        None => outcome.attempts,
        Some(a) => a
            .as_i64()
            .filter(|&a| (1..=i64::from(u32::MAX)).contains(&a))
            .ok_or_else(|| ApiError("`attempts` must be a positive integer".into()))?
            as u32,
    };
    let opt = |key: &str| -> Result<f64, ApiError> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(0.0),
            Some(x) => num_from_json(x, key),
        }
    };
    Ok(ExecutedTrial {
        outcome,
        status,
        attempts,
        wasted_machine_secs: opt("wasted_machine_secs")?,
        backoff_secs: opt("backoff_secs")?,
    })
}

/// Encodes a pending trial (the `suggest` response payload).
pub fn pending_to_json(p: &PendingTrial) -> Json {
    obj([
        ("done", Json::Bool(false)),
        ("trial", Json::Num(p.trial as f64)),
        ("config", config_to_json(&p.config)),
        ("rep", Json::Num(p.rep as f64)),
        ("fidelity", Json::Num(p.fidelity)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn spec() -> SessionSpec {
        SessionSpec {
            tuner: "bo".into(),
            budget: 12,
            seed: 7,
            max_nodes: 8,
            conditions: vec![
                StopCondition::CostBudget {
                    machine_secs: 5000.0,
                },
                StopCondition::AcquisitionBelow {
                    min_trials: 4,
                    threshold: 1e-9,
                    patience: 2,
                },
            ],
            warm_start: vec![mlconf_workloads::tunespace::default_config(8)],
            tenant: "team-a".into(),
            scenario: Some("congestion:7".into()),
            retune_policy: ReTunePolicy::OnDrift,
        }
    }

    #[test]
    fn tenant_defaults_and_is_validated() {
        let d = spec_from_json(&parse(r#"{"tuner":"bo","budget":5,"seed":1}"#).unwrap()).unwrap();
        assert_eq!(d.tenant, DEFAULT_TENANT);
        for body in [
            r#"{"tuner":"bo","budget":5,"seed":1,"tenant":""}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"tenant":7}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"tenant":"has space"}"#,
        ] {
            assert!(
                spec_from_json(&parse(body).unwrap()).is_err(),
                "should reject {body}"
            );
        }
    }

    #[test]
    fn spec_round_trips() {
        let s = spec();
        let back = spec_from_json(&parse(&spec_to_json(&s).render()).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn spec_validation_rejects_garbage() {
        for body in [
            r#"{}"#,
            r#"{"tuner":"bo"}"#,
            r#"{"tuner":"nope","budget":5,"seed":1}"#,
            r#"{"tuner":"bo","budget":0,"seed":1}"#,
            r#"{"tuner":"bo","budget":5,"seed":-1}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"max_nodes":2}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"conditions":[{"kind":"warp"}]}"#,
        ] {
            assert!(
                spec_from_json(&parse(body).unwrap()).is_err(),
                "should reject {body}"
            );
        }
    }

    #[test]
    fn spec_rejects_bad_scenario_and_retune_policy() {
        for body in [
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":"bogus-kind"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":42}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":"congestion:x"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":"congestion:1:-5"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":"congestion:1:2:3"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"retune_policy":"sometimes"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"retune_policy":"always:0"}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"retune_policy":7}"#,
        ] {
            assert!(
                spec_from_json(&parse(body).unwrap()).is_err(),
                "should reject {body}"
            );
        }
    }

    #[test]
    fn spec_accepts_scenario_and_retune_policy_variants() {
        let s = spec_from_json(
            &parse(
                r#"{"tuner":"bo","budget":5,"seed":1,"scenario":"preemption:3:20000","retune_policy":"always:5"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(s.scenario.as_deref(), Some("preemption:3:20000"));
        assert_eq!(s.retune_policy, ReTunePolicy::Always { every: 5 });
        // Round-trips through the journal codec.
        assert_eq!(
            spec_from_json(&parse(&spec_to_json(&s).render()).unwrap()).unwrap(),
            s
        );
        // Absent or null fields mean stationary world, no re-tuning.
        for body in [
            r#"{"tuner":"bo","budget":5,"seed":1}"#,
            r#"{"tuner":"bo","budget":5,"seed":1,"scenario":null,"retune_policy":null}"#,
        ] {
            let d = spec_from_json(&parse(body).unwrap()).unwrap();
            assert_eq!(d.scenario, None);
            assert_eq!(d.retune_policy, ReTunePolicy::Off);
        }
    }

    #[test]
    fn portfolio_spec_canonicalises_arms_into_the_name() {
        let s = spec_from_json(
            &parse(r#"{"tuner":"portfolio","arms":["bo","lhs"],"budget":5,"seed":1}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(s.tuner, "portfolio:bo,lhs");
        // The canonical form round-trips through the journal codec.
        assert_eq!(
            spec_from_json(&parse(&spec_to_json(&s).render()).unwrap()).unwrap(),
            s
        );
        // Bare `portfolio` (default arms) is accepted as-is.
        let d = spec_from_json(&parse(r#"{"tuner":"portfolio","budget":5,"seed":1}"#).unwrap())
            .unwrap();
        assert_eq!(d.tuner, "portfolio");
    }

    #[test]
    fn portfolio_spec_rejects_bad_arm_lists() {
        for body in [
            r#"{"tuner":"bo","arms":["lhs"],"budget":5,"seed":1}"#,
            r#"{"tuner":"portfolio","arms":[],"budget":5,"seed":1}"#,
            r#"{"tuner":"portfolio","arms":["bo",7],"budget":5,"seed":1}"#,
            r#"{"tuner":"portfolio","arms":["bo","bo"],"budget":5,"seed":1}"#,
            r#"{"tuner":"portfolio","arms":["bo","warp"],"budget":5,"seed":1}"#,
            r#"{"tuner":"portfolio:bo,,lhs","budget":5,"seed":1}"#,
        ] {
            assert!(
                spec_from_json(&parse(body).unwrap()).is_err(),
                "should reject {body}"
            );
        }
    }

    #[test]
    fn outcome_round_trips_including_nonfinite() {
        let ok = TrialOutcome {
            objective: Some(1234.5678901234),
            failure: None,
            tta_secs: 1234.5678901234,
            cost_usd: 0.300_000_000_000_000_04,
            throughput: 9999.25,
            staleness_steps: 0.5,
            search_cost_machine_secs: 777.125,
            censored_at: None,
            attempts: 1,
        };
        let failed = TrialOutcome::failed("oom: worker 3", 42.0);
        let censored = TrialOutcome {
            censored_at: Some(100.0),
            ..TrialOutcome::failed("timeout", 10.0)
        };
        for o in [ok, failed, censored] {
            let wire = outcome_to_json(&o).render();
            let back = outcome_from_json(&parse(&wire).unwrap()).unwrap();
            assert_eq!(o, back, "via {wire}");
        }
    }

    #[test]
    fn executed_round_trips_all_statuses() {
        for status in [
            ExecutionStatus::Ok,
            ExecutionStatus::TimedOut { elapsed: 12.5 },
            ExecutionStatus::Crashed { attempts: 3 },
            ExecutionStatus::Oom,
        ] {
            let e = ExecutedTrial {
                outcome: TrialOutcome::failed("x", 5.0),
                status,
                attempts: 3,
                wasted_machine_secs: 17.5,
                backoff_secs: 2.25,
            };
            let wire = executed_to_json(&e).render();
            let back = executed_from_json(&parse(&wire).unwrap()).unwrap();
            assert_eq!(e, back, "via {wire}");
        }
    }

    #[test]
    fn config_codec_enforces_the_space() {
        let space = standard_space(8);
        let cfg = mlconf_workloads::tunespace::default_config(8);
        let wire = config_to_json(&cfg).render();
        let back = config_from_json(&space, &parse(&wire).unwrap()).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(cfg.key(), back.key());

        // Missing, extra, mistyped, and out-of-domain params all fail.
        let missing = r#"{"num_nodes":4}"#;
        assert!(config_from_json(&space, &parse(missing).unwrap()).is_err());
        let Json::Obj(mut fields) = parse(&wire).unwrap() else {
            unreachable!()
        };
        fields.push(("bogus".into(), Json::Num(1.0)));
        assert!(config_from_json(&space, &Json::Obj(fields.clone())).is_err());
        fields.pop();
        fields[0].1 = Json::Str("four".into());
        assert!(config_from_json(&space, &Json::Obj(fields.clone())).is_err());
        fields[0].1 = Json::Num(-5.0);
        assert!(config_from_json(&space, &Json::Obj(fields)).is_err());
    }
}
