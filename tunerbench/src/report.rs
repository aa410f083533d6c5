//! Rendering a run: the one-line result a harness reads, the human
//! summary, and the report file with provenance and every metric.

use crate::stats::Value;
use crate::workload::{Metric, RunOutput};
use mlconf_serve::json::{obj, Json};

fn value_json(m: &Metric) -> Json {
    let mut fields = vec![
        (
            "value".to_owned(),
            match &m.value {
                Value::Num(v) => Json::Num(*v),
                Value::Null(_) => Json::Null,
            },
        ),
        ("unit".to_owned(), Json::Str(m.unit.into())),
    ];
    if let Value::Null(reason) = &m.value {
        fields.push(("reason".to_owned(), Json::Str(reason.clone())));
    }
    Json::Obj(fields)
}

/// `{name: {"value": v, "unit": u}}`, with a `reason` beside a `null`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), value_json(m)))
            .collect(),
    )
}

/// The last line of standard output: end-to-end metrics untraced,
/// per-layer metrics traced.
pub fn result_line(out: &RunOutput, trace: bool) -> String {
    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn show(m: &Metric) -> String {
    match &m.value {
        Value::Num(v) => format!("  {:<34} {v:>14.6} {}", m.name, m.unit),
        Value::Null(reason) => format!("  {:<34} {:>14} {} ({reason})", m.name, "null", m.unit),
    }
}

/// Human-readable lines printed before the result line.
pub fn summary(out: &RunOutput, overhead: &[Metric]) -> Vec<String> {
    let mut lines = vec![format!(
        "provenance {}",
        Json::Obj(
            out.provenance
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect()
        )
        .render()
    )];
    let sections: [(&str, &[Metric]); 5] = [
        ("end-to-end", &out.end_to_end),
        ("also measured (not gated)", &out.extras),
        ("per-layer", &out.per_layer),
        ("per-layer, workload-specific", &out.specific),
        ("tracing overhead (traced - untraced)", overhead),
    ];
    for (title, metrics) in sections {
        if !metrics.is_empty() {
            lines.push(format!("{title}:"));
            lines.extend(metrics.iter().map(show));
        }
    }
    for p in &out.problems {
        lines.push(format!("CHECK FAILED: {p}"));
    }
    lines
}

/// The report file: provenance, checks and every metric.
pub fn report_json(out: &RunOutput, overhead: &[Metric]) -> Json {
    obj([
        (
            "provenance",
            Json::Obj(
                out.provenance
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "problems",
            Json::Arr(out.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", metrics_json(&out.end_to_end)),
        ("supporting", metrics_json(&out.extras)),
        ("per_layer", metrics_json(&out.per_layer)),
        ("workload_specific", metrics_json(&out.specific)),
        ("tracing_overhead", metrics_json(overhead)),
    ])
}

/// Traced minus untraced end-to-end values, given the untraced run's
/// report of the same workload and seed.
pub fn tracing_overhead(traced: &[Metric], untraced: Option<&Json>) -> Vec<Metric> {
    traced
        .iter()
        .map(|m| {
            let before = untraced
                .and_then(|r| r.get("end_to_end"))
                .and_then(|e| e.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64);
            let value = match (m.value.num(), before) {
                (Some(t), Some(u)) => Value::Num(t - u),
                (None, _) => Value::Null("the traced run has no value".into()),
                (_, None) => {
                    Value::Null("no untraced run of this workload and seed in .bench_out".into())
                }
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect()
}
