//! True end-to-end tests: spawn the compiled `mlconf` binary and check
//! its stdout/stderr/exit codes, exactly as a user would experience it.

use std::process::Command;

use mlconf_util::json::{parse, Json};

fn mlconf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mlconf"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A spawned `mlconf serve`, killed even when an assertion panics, so a
/// failing test never leaks a live server process.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

impl KillOnDrop {
    /// Reads the server's banner, printed with the real bound port
    /// before it starts blocking, and returns it with the address.
    fn banner(&mut self) -> (String, String) {
        use std::io::{BufRead, BufReader};
        let mut stdout = BufReader::new(self.0.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .unwrap_or_else(|| panic!("no address in banner: {banner}"))
            .to_owned();
        (banner, addr)
    }
}

#[test]
fn help_exits_zero() {
    let out = mlconf(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn no_args_prints_help() {
    let out = mlconf(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COMMANDS"));
}

#[test]
fn workloads_and_catalog() {
    let out = mlconf(&["workloads"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("cnn-cifar"));
    let out = mlconf(&["catalog"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("m4.large"));
}

#[test]
fn simulate_end_to_end() {
    let out = mlconf(&[
        "simulate",
        "--workload",
        "mlp-mnist",
        "--nodes",
        "6",
        "--severity",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("throughput"));
    assert!(text.contains("time-to-accuracy"));
}

#[test]
fn usage_errors_exit_2_with_message() {
    let out = mlconf(&["simulate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workload is required"));
    assert!(err.contains("mlconf help"));
}

#[test]
fn unknown_flag_rejected() {
    let out = mlconf(&["tune", "--workload", "mlp-mnist", "--frob", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn tune_end_to_end_with_history_save() {
    let dir = std::env::temp_dir().join(format!("mlconf_bin_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("h.csv");
    let out = mlconf(&[
        "tune",
        "--workload",
        "mlp-mnist",
        "--budget",
        "5",
        "--tuner",
        "random",
        "--save-history",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best configuration"));
    let csv = std::fs::read_to_string(&path).unwrap();
    assert!(csv.starts_with("num_nodes,"));
    assert_eq!(csv.lines().count(), 6, "header + 5 trials");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--tuner portfolio:` with an explicit arm list runs a full tuning
/// loop end-to-end, deterministically across processes.
#[test]
fn tune_portfolio_end_to_end() {
    let run = || {
        let out = mlconf(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "6",
            "--tuner",
            "portfolio:bo,lhs",
            "--seed",
            "11",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let text = run();
    assert!(text.contains("best configuration"), "{text}");
    assert!(text.contains("portfolio:bo,lhs"), "{text}");
    assert_eq!(text, run(), "portfolio runs must agree across processes");
}

/// Malformed portfolio arm lists are rejected with a usage error, not a
/// panic.
#[test]
fn portfolio_spec_misuse_is_a_usage_error() {
    let base = ["tune", "--workload", "mlp-mnist", "--budget", "4"];
    for (extra, needle) in [
        (
            &["--tuner", "portfolio:bo,warp"][..],
            "unknown portfolio arm `warp`",
        ),
        (
            &["--tuner", "portfolio:bo,bo"][..],
            "duplicate portfolio arm `bo`",
        ),
    ] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let out = mlconf(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{extra:?}: {err}");
    }
}

#[test]
fn trace_round_trips_one_event_per_lifecycle_transition() {
    let dir = std::env::temp_dir().join(format!("mlconf_bin_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.jsonl");
    let out = mlconf(&[
        "tune",
        "--workload",
        "mlp-mnist",
        "--budget",
        "7",
        "--tuner",
        "random",
        "--seed",
        "5",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    let mut started = 0;
    let mut completed = 0;
    let mut improved = 0;
    for line in trace.lines() {
        // Every line must parse fully as one JSON object.
        let event = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert!(line.starts_with("{\"event\":\""), "{line}");
        match event.get("event").and_then(Json::as_str) {
            Some("trial_started") => started += 1,
            Some("trial_completed") => completed += 1,
            Some("incumbent_improved") => improved += 1,
            _ => {}
        }
    }
    // One started + one completed event per trial; at least the first
    // feasible trial improves the incumbent.
    assert_eq!(started, 7, "{trace}");
    assert_eq!(completed, 7, "{trace}");
    assert!(improved >= 1, "{trace}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A write that fails (here: `/dev/full`, which rejects every write with
/// ENOSPC) must fail the command naming the path, never report success.
#[test]
#[cfg(target_os = "linux")]
fn tune_fails_loudly_when_outputs_cannot_be_written() {
    for flag in ["--save-history", "--trace"] {
        let out = mlconf(&[
            "tune",
            "--workload",
            "mlp-mnist",
            "--budget",
            "3",
            "--tuner",
            "random",
            flag,
            "/dev/full",
        ]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("/dev/full"), "{flag}: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("saved to"), "{flag}: {stdout}");
    }
}

#[test]
fn serve_end_to_end_over_real_sockets() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let dir = std::env::temp_dir().join(format!("mlconf_bin_serve_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_mlconf"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--journal-dir",
                dir.to_str().unwrap(),
                "--shards",
                "3",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("binary spawns"),
    );
    let (banner, addr) = child.banner();
    // The banner echoes the effective shard count — catches a --shards
    // flag that parses but is silently dropped.
    assert!(banner.contains("(3 shards"), "{banner}");

    let http = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(&addr).expect("server accepts");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    };

    let (status, body) = http("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\":true"), "{body}");
    assert!(body.contains("\"shards\":"), "{body}");
    let (status, body) = http(
        "POST",
        "/sessions",
        "{\"tuner\":\"random\",\"budget\":2,\"seed\":5,\"max_nodes\":8}",
    );
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"id\":\"s1\""), "{body}");
    let (status, body) = http("POST", "/sessions/s1/suggest", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"config\":{"), "{body}");
    // Journals live in per-shard subdirectories; the session lands on
    // whichever shard fnv1a("s1") picks.
    let journaled = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.path().join("s1.jsonl").exists());
    assert!(journaled, "journal written under a shard subdirectory");

    drop(child);
    std::fs::remove_dir_all(&dir).ok();
}

/// utime + stime of process `pid`, in clock ticks (`/proc/<pid>/stat`
/// fields 14 and 15, counted after the parenthesised command name).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("process is alive");
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("stat has a command name")
        .1
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn serve_backs_off_when_accept_keeps_failing() {
    use std::net::TcpStream;
    use std::time::Duration;

    // At a 40-fd limit the server runs out of descriptors well before
    // 100 connections, so every further accept fails with EMFILE while
    // the connection stays queued in the backlog.
    let dir = std::env::temp_dir().join(format!("mlconf_bin_emfile_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut child = KillOnDrop(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -n 40; exec "$0" serve --addr 127.0.0.1:0 --journal-dir "$1""#,
                env!("CARGO_BIN_EXE_mlconf"),
                dir.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("shell spawns"),
    );
    let (_, addr) = child.banner();
    let conns: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&addr).expect("the backlog holds the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    let pid = child.0.id();
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(pid) - before;
    assert!(
        used < 20,
        "server burned {used} clock ticks in 1 s retrying a failing accept"
    );
    drop(conns);
    drop(child);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_across_invocations() {
    let run = || {
        let out = mlconf(&[
            "tune",
            "--workload",
            "lda-news",
            "--budget",
            "4",
            "--tuner",
            "random",
            "--seed",
            "123",
        ]);
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(run(), run(), "separate processes must agree bit-for-bit");
}
