//! Miniature self-test: every workload, at toy size, traced and not,
//! must pass its output checks and emit every named metric with its
//! unit — a number, or a `null` with the reason. And `BENCHMARK.json`
//! must name exactly the workloads and metrics the code emits.

use mlconf_serve::json::{parse, Json};
use tunerbench::report;
use tunerbench::stats::Value;
use tunerbench::workload::{
    self, Metric, Plan, END_TO_END, PER_LAYER, WORKLOADS, WORKLOAD_SPECIFIC,
};

fn assert_metrics(what: &str, expected: &[(&str, &str)], got: &[Metric]) {
    let names: Vec<(&str, &str)> = got.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, expected, "{what}: metric names and units");
    for m in got {
        if let Value::Null(reason) = &m.value {
            assert!(
                !reason.is_empty(),
                "{what}: {} is null without a reason",
                m.name
            );
        }
    }
}

/// The last output line parses and carries exactly `expected`, each with
/// its unit.
fn assert_result_line(what: &str, line: &str, expected: &[(&str, &str)]) {
    let v = parse(line).unwrap_or_else(|e| panic!("{what}: result line is not JSON: {e}"));
    let Json::Obj(top) = &v else {
        panic!("{what}: result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(k, m)| {
            (
                k.as_str(),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect();
    assert_eq!(got, expected, "{what}: result-line metrics");
}

#[test]
fn every_workload_emits_every_metric_at_toy_size() {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tunerbench-selftest");
    for name in WORKLOADS {
        let mut regrets = Vec::new();
        for trace in [false, true] {
            let what = format!("{name} trace={trace}");
            let plan = Plan::toy(name).expect("toy plan");
            let dir = scratch.join(format!("{name}-{trace}"));
            let out = workload::run(&plan, 3, trace, &dir).expect("toy run");
            std::fs::remove_dir_all(&dir).ok();
            assert!(out.correct, "{what}: {:?}", out.problems);
            assert_eq!(out.failed, 0, "{what}");
            assert!(out.attempted > 0, "{what}");
            assert_metrics(&what, &END_TO_END, &out.end_to_end);
            if trace {
                assert_metrics(&what, &PER_LAYER, &out.per_layer);
                assert_metrics(&what, &WORKLOAD_SPECIFIC, &out.specific);
                assert!(!out.tracer.spans().is_empty(), "{what}: no spans");
                assert_result_line(&what, &report::result_line(&out, true), &PER_LAYER);
            } else {
                assert!(out.per_layer.is_empty(), "{what}");
                assert_result_line(&what, &report::result_line(&out, false), &END_TO_END);
            }
            regrets.push(
                out.end_to_end
                    .iter()
                    .find(|m| m.name == "regret")
                    .map(|m| m.value.clone()),
            );
        }
        // The workload is deterministic in its seed, tracing or not.
        assert_eq!(
            regrets[0], regrets[1],
            "{name}: regret differs with tracing"
        );
        assert!(
            matches!(regrets[0], Some(Value::Num(_))),
            "{name}: regret {:?}",
            regrets[0]
        );
    }
}

#[test]
fn benchmark_json_names_what_the_code_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(&END_TO_END));
    assert_eq!(names("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned();
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            (name, bound)
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    assert!(
        bounds.iter().all(|(_, b)| *b <= setup),
        "setup_s has the largest bound"
    );
}
