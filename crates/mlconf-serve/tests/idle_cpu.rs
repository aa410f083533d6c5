//! An idle server must cost (almost) no CPU: IO shards with nothing to
//! do block until a socket is ready instead of waking on a timer. This
//! lives in its own test binary so no other test's threads add to the
//! process's CPU time while it measures.
#![cfg(target_os = "linux")]

use mlconf_serve::{ServeConfig, Server};
use std::time::Duration;

/// Sum of on-CPU nanoseconds over every live thread of this process
/// (first field of `/proc/self/task/*/schedstat`).
fn process_cpu_ns() -> u64 {
    let mut total = 0;
    let mut threads = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs is mounted") {
        let path = entry.expect("task entry").path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let ns: u64 = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .expect("schedstat starts with on-CPU nanoseconds");
        total += ns;
        threads += 1;
    }
    assert!(threads > 0, "no thread reported schedstat");
    total
}

#[test]
fn idle_server_burns_no_cpu() {
    let dir = std::env::temp_dir().join(format!("mlconf_idle_cpu_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Server::bind("127.0.0.1:0", ServeConfig::new(dir.clone())).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_millis(500));
    let burned = Duration::from_nanos(process_cpu_ns().saturating_sub(before));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        burned < Duration::from_millis(5),
        "an idle 4-shard server burned {burned:?} of CPU in 500 ms"
    );
}
