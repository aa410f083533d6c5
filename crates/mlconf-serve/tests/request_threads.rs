//! A served request's tuner work runs on its IO shard's own thread: a
//! BO suggest (GP fit, hyperopt, acquisition) or report spawns no
//! thread, so concurrent requests on different shards cannot
//! oversubscribe the cores. This lives in its own test binary so no
//! other test's threads come and go while it watches the thread list.
#![cfg(target_os = "linux")]

use mlconf_serve::api::{config_from_json, outcome_to_json};
use mlconf_serve::client::request;
use mlconf_serve::json::{obj, parse, Json};
use mlconf_serve::{ServeConfig, Server};
use mlconf_workloads::evaluator::ConfigEvaluator;
use mlconf_workloads::objective::Objective;
use mlconf_workloads::workload::mlp_mnist;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// BO trials run past the 12-trial initial design of the 9-knob space:
/// enough acquisitions and hyperopts (every third trial) to see any
/// per-request thread.
const BO_TRIALS: usize = 20;
const BUDGET: usize = 12 + BO_TRIALS;

/// The ids of this process's live threads.
fn task_ids() -> HashSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The calling thread's id (`/proc/thread-self` links to `<pid>/task/<tid>`).
fn own_task_id() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("procfs is mounted");
    link.file_name()
        .and_then(|n| n.to_str()?.parse().ok())
        .expect("thread-self names a task id")
}

/// One suggest → evaluate → report step over HTTP; `false` once the
/// session reports itself done.
fn step(addr: &str, id: &str, ev: &ConfigEvaluator) -> bool {
    let (status, body) =
        request(addr, "POST", &format!("/sessions/{id}/suggest"), None).expect("suggest");
    assert_eq!(status, 200, "{body}");
    let suggestion = parse(&body).unwrap();
    if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
        return false;
    }
    let cfg = config_from_json(ev.space(), suggestion.get("config").unwrap()).unwrap();
    let rep = suggestion.get("rep").unwrap().as_i64().unwrap() as u64;
    let fidelity = suggestion.get("fidelity").unwrap().as_f64().unwrap();
    let outcome = ev.evaluate_with_fidelity(&cfg, rep, fidelity);
    let report = obj([("outcome", outcome_to_json(&outcome))]).render();
    let (status, response) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/report"),
        Some(&report),
    )
    .expect("report");
    assert_eq!(status, 200, "{response}");
    true
}

#[test]
fn served_bo_session_starts_no_threads() {
    let dir = std::env::temp_dir().join(format!("mlconf_request_threads_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::bind("127.0.0.1:0", ServeConfig::new(dir.clone())).unwrap();
    let addr = server.local_addr().to_string();
    let baseline = task_ids();

    // Watch the thread list in a tight loop while the session runs.
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let own = own_task_id();
            let mut seen = HashSet::new();
            let mut samples = 0usize;
            while !done.load(Ordering::Relaxed) {
                seen.extend(task_ids());
                samples += 1;
            }
            seen.remove(&own);
            (seen, samples)
        })
    };

    let body = format!(r#"{{"tuner":"bo","budget":{BUDGET},"seed":7,"max_nodes":8}}"#);
    let (status, response) = request(&addr, "POST", "/sessions", Some(&body)).expect("create");
    assert_eq!(status, 201, "{response}");
    let id = parse(&response)
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let ev = ConfigEvaluator::new(mlp_mnist(), Objective::TimeToAccuracy, 8, 7);
    let mut trials = 0;
    while step(&addr, &id, &ev) {
        trials += 1;
    }

    done.store(true, Ordering::Relaxed);
    let (seen, samples) = sampler.join().unwrap();
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(trials, BUDGET, "the session ran past its initial design");
    assert!(samples > 100, "only {samples} samples of the thread list");
    let extra: Vec<u32> = seen.difference(&baseline).copied().collect();
    assert!(
        extra.is_empty(),
        "serving {BO_TRIALS} BO trials started threads {extra:?} \
         (baseline {} threads, {samples} samples)",
        baseline.len()
    );
}
