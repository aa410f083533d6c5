//! Overload and drain behavior: a saturated server must *answer* —
//! 429/503 with `Retry-After` — never hang clients or queue unbounded
//! work, and shutdown must drain gracefully.

use mlconf_serve::{ServeConfig, Server};
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlconf_overload_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Reads whatever the server sends until EOF (bounded by the socket
/// read timeout). An empty string means the server closed without a
/// response (a timed-out idle connection) — which is fine; a *hang* is
/// not, and the read timeout turns a hang into a test failure.
fn read_all(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = String::new();
    let _ = stream.read_to_string(&mut buf);
    buf
}

#[test]
fn saturated_queue_sheds_with_429_and_retry_after() {
    let dir = tmpdir("shed");
    let mut config = ServeConfig::new(dir.clone());
    config.shards = 1;
    config.queue_depth = 1; // the one IO shard holds 2 connections
                            // Idle connections free their slots quickly.
    config.timeout = Duration::from_millis(300);
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Open a burst of connections that never send a request: the first
    // two fill the shard's slots, the rest must be shed — immediately,
    // with an answer.
    let conns: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut shed = 0;
    for conn in conns {
        let response = read_all(conn);
        if response.contains("429 Too Many Requests") {
            assert!(
                response.contains("retry-after:"),
                "shed response must carry Retry-After: {response:?}"
            );
            assert!(response.contains("\"error\""));
            shed += 1;
        }
    }
    assert!(
        shed >= 1,
        "an 8-connection burst against a 1-shard, 2-slot server must shed"
    );

    // The server recovers once the burst clears: health returns 200.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((status, _)) =
            mlconf_serve::client::request(&addr.to_string(), "GET", "/healthz", None)
        {
            if status == 200 {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server did not recover from the burst"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_mode_answers_new_connections_with_503() {
    let dir = tmpdir("drain");
    let mut config = ServeConfig::new(dir.clone());
    config.shards = 1;
    config.timeout = Duration::from_secs(1);
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();

    // Pin the shard with an idle connection so drain has something to
    // wait for, then request shutdown.
    let pinned = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // A connection arriving during the drain window is answered — 503,
    // Retry-After — not ignored and not hung.
    std::thread::sleep(Duration::from_millis(100));
    let late = TcpStream::connect(addr).unwrap();
    let response = read_all(late);
    assert!(
        response.contains("503 Service Unavailable"),
        "drain must answer with 503: {response:?}"
    );
    assert!(response.contains("retry-after:"), "{response:?}");

    drop(pinned);
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connection_is_closed_at_its_read_timeout() {
    let dir = tmpdir("idle_deadline");
    let mut config = ServeConfig::new(dir.clone());
    config.shards = 1;
    config.timeout = Duration::from_millis(200);
    let server = Server::bind("127.0.0.1:0", config).unwrap();

    // A connection that never sends: the shard has nothing to read, so
    // only the idle deadline can end its wait and close the socket.
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = Instant::now();
    let mut byte = [0u8; 1];
    let read = silent.read(&mut byte);
    let waited = start.elapsed();
    assert!(
        matches!(read, Ok(0)),
        "the server must close the idle connection: {read:?}"
    );
    assert!(
        waited < Duration::from_secs(2),
        "idle connection closed only after {waited:?}"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    let dir = tmpdir("idle_shutdown");
    let server = Server::bind("127.0.0.1:0", ServeConfig::new(dir.clone())).unwrap();
    let handle = server.handle();
    // Every shard is idle and waiting: stop must wake them all. Join on
    // a helper thread so a shard that never wakes fails the test
    // instead of hanging it.
    std::thread::sleep(Duration::from_millis(200));
    let (joined_tx, joined) = std::sync::mpsc::channel();
    handle.shutdown();
    let joiner = std::thread::spawn(move || {
        server.join();
        joined_tx.send(()).ok();
    });
    assert!(
        joined.recv_timeout(Duration::from_secs(1)).is_ok(),
        "shutdown + join of an idle server took over 1 s"
    );
    joiner.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
