//! HTTP clients for the ask/tell service.
//!
//! Two layers over one connection type, which writes each request with
//! [`http::write_request`] and reads each response with the same
//! [`http::parse`] the server's IO shards use:
//!
//! - [`request`]: one blocking request per connection, no retries. Used
//!   by tests that want to observe a single server response verbatim.
//! - [`Client`]: the resilient client. Reuses one keep-alive connection
//!   across requests (reconnecting only when the server closes it or a
//!   request fails), retries connect/read failures and overload
//!   responses (429/503) with exponential backoff and seeded jitter —
//!   the same `(seed, op, retry)`-streamed shape as `mlconf-tuners`'
//!   `RetryPolicy` — honors `Retry-After`, re-issues `suggest` safely
//!   (the server is idempotent while a trial is pending), and keys every
//!   `report` so a retried tell after a dropped ACK is deduplicated
//!   server-side instead of double-applied. This is what lets a tuning
//!   loop ride through process-kill chaos.

use crate::http::{self, ReadLimits, Response, StatusLine};
use crate::json::{self, Json};
use mlconf_util::rng::SplitMix64;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// RNG stream tag for client backoff jitter; distinct from the
/// executor's `0xbac0_ff5e_ed00_0000` so a co-seeded client and
/// executor never draw correlated jitter.
const CLIENT_BACKOFF_STREAM: u64 = 0xbac0_ff5e_c11e_0000;

/// Multiplier applied to the backoff per additional retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Jitter fraction: each backoff scales by `1 ± BACKOFF_JITTER`.
const BACKOFF_JITTER: f64 = 0.25;

/// Socket read and write timeout of every connection.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The fewest bytes each read asks the socket for.
const READ_CHUNK: usize = 8 * 1024;

/// Response limits: the default head budget and no body bound, since a
/// long session's status is large. The declared length is never
/// allocated up front; the buffer grows only as bytes arrive.
const RESPONSE_LIMITS: ReadLimits = ReadLimits {
    max_head_bytes: 16 * 1024,
    max_body_bytes: usize::MAX,
};

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// One connection and the bytes read from it but not yet parsed.
struct Conn {
    stream: TcpStream,
    /// Every byte of `buf` is initialized once, when it grows, so a read
    /// goes straight into `buf[filled..]`; `buf[..filled]` is unparsed.
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            buf: Vec::new(),
            filled: 0,
        })
    }

    /// Sends one request and reads its response.
    fn round_trip(
        &mut self,
        host: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> io::Result<Response> {
        let body = body.unwrap_or("");
        let mut request = Vec::with_capacity(body.len() + 128);
        http::write_request(&mut request, method, path, host, body, close);
        // One write: a peer that answers after a partial read could
        // reset the tail of a request sent in pieces.
        self.stream.write_all(&request)?;
        loop {
            let parsed = http::parse::<StatusLine>(&self.buf[..self.filled], &RESPONSE_LIMITS)
                .map_err(|e| bad(&e.message))?;
            if let Some((response, used)) = parsed {
                self.buf.copy_within(used..self.filled, 0);
                self.filled -= used;
                return Ok(response);
            }
            if self.buf.len() - self.filled < READ_CHUNK {
                let grown = (2 * self.buf.len()).max(READ_CHUNK);
                self.buf.resize(grown, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a complete response",
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Performs one HTTP request against `addr` (e.g. `"127.0.0.1:8080"`)
/// on a connection of its own, asking the server to close it after
/// answering, and returns `(status, body)`. No retries.
///
/// # Errors
///
/// Propagates connection and protocol errors as `io::Error`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let response = Conn::open(addr)?.round_trip(addr, method, path, body, true)?;
    Ok((response.start.status, response.body))
}

/// A retrying client bound to one server address (re-pointable after a
/// restart via [`Client::set_addr`]).
///
/// Retryable outcomes: any transport error (refused, reset, timeout —
/// the server being dead or mid-restart) and overload answers (429,
/// 503). Everything else is returned to the caller on the first
/// attempt. Backoff before retry `r` of operation `op` is
/// `base * 2^r`, jittered by ±25% with a draw from the deterministic
/// stream `(seed, op, r)` and capped at `max_backoff`; a
/// server-provided `Retry-After` overrides the computed backoff (still
/// capped).
pub struct Client {
    addr: String,
    seed: u64,
    /// Maximum retries after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds.
    pub backoff_base_secs: f64,
    /// Upper bound on any single sleep, in seconds.
    pub max_backoff_secs: f64,
    /// Monotonic operation counter; salts the jitter stream so distinct
    /// operations draw distinct backoff sequences.
    ops: u64,
    /// The live keep-alive connection, if the last request left one.
    conn: Option<Conn>,
    /// Connections dialed over the client's lifetime (observability:
    /// a healthy loop against a healthy server opens exactly one).
    connections_opened: u64,
}

impl Client {
    /// A client with the default chaos-riding policy: 10 retries,
    /// 50 ms base doubling per retry, ±25% jitter, 2 s cap.
    pub fn new(addr: impl Into<String>, seed: u64) -> Self {
        Client {
            addr: addr.into(),
            seed,
            max_retries: 10,
            backoff_base_secs: 0.05,
            max_backoff_secs: 2.0,
            ops: 0,
            conn: None,
            connections_opened: 0,
        }
    }

    /// The address requests are sent to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Re-points the client, e.g. after a restarted server binds a new
    /// port. Drops any live connection to the old address.
    pub fn set_addr(&mut self, addr: impl Into<String>) {
        self.addr = addr.into();
        self.conn = None;
    }

    /// How many TCP connections this client has dialed. A multi-request
    /// loop against a healthy server stays at 1 (keep-alive reuse);
    /// each reconnect after an error or server-side close adds one.
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened
    }

    /// One request over the persistent connection, dialing a new one if
    /// none is live. Any failure drops the connection, so the caller's
    /// retry dials fresh; a server-side `connection: close` drops it
    /// after the response is read.
    fn attempt(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let conn = Conn::open(&self.addr)?;
                self.connections_opened += 1;
                conn
            }
        };
        let response = conn.round_trip(&self.addr, method, path, body, false)?;
        if !response.wants_close() {
            self.conn = Some(conn);
        }
        Ok(response)
    }

    /// Deterministic jittered backoff before retry `retry` of operation
    /// `op` — the `RetryPolicy::backoff_secs` shape with the client's
    /// own stream tag.
    fn backoff_secs(&self, op: u64, retry: u32) -> f64 {
        let raw = self.backoff_base_secs * BACKOFF_FACTOR.powi(retry as i32);
        let raw = raw.min(self.max_backoff_secs);
        if raw <= 0.0 {
            return raw;
        }
        let stream = CLIENT_BACKOFF_STREAM ^ (op << 16 | u64::from(retry));
        let mut rng = SplitMix64::new(self.seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream));
        // Uniform in [0, 1) from the top 53 bits.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (raw * (1.0 + BACKOFF_JITTER * (2.0 * u - 1.0))).min(self.max_backoff_secs)
    }

    /// Performs `method path` with retries; returns the final
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns the last transport error once retries are exhausted.
    /// Overload statuses that persist past the retry budget are returned
    /// as the final `(status, body)`, not an error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let op = self.ops;
        self.ops += 1;
        let mut last: Option<io::Result<Response>> = None;
        for retry in 0..=self.max_retries {
            if retry > 0 {
                let secs = match last
                    .as_ref()
                    .and_then(|r| r.as_ref().ok())
                    .and_then(|r| r.header("retry-after")?.parse::<u64>().ok())
                {
                    Some(server_says) => (server_says as f64).min(self.max_backoff_secs),
                    None => self.backoff_secs(op, retry - 1),
                };
                if secs > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
            }
            match self.attempt(method, path, body) {
                Ok(response) if matches!(response.start.status, 429 | 503) => {
                    last = Some(Ok(response));
                }
                Ok(response) => return Ok((response.start.status, response.body)),
                Err(err) => last = Some(Err(err)),
            }
        }
        match last.expect("at least one attempt ran") {
            Ok(response) => Ok((response.start.status, response.body)),
            Err(err) => Err(err),
        }
    }

    /// `request` expecting a 2xx JSON answer; anything else becomes an
    /// error carrying the status and body.
    fn request_json(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Json> {
        let (status, body) = self.request(method, path, body)?;
        if !(200..300).contains(&status) {
            return Err(io::Error::other(format!(
                "{method} {path} -> {status}: {body}"
            )));
        }
        json::parse(&body).map_err(|e| bad(&format!("{method} {path}: bad JSON response: {e}")))
    }

    /// Creates a session from a spec body and returns the server's
    /// response (including the assigned `id`).
    ///
    /// # Errors
    ///
    /// Transport errors after retries, or a non-2xx final status.
    pub fn create_session(&mut self, spec: &Json) -> io::Result<Json> {
        self.request_json("POST", "/sessions", Some(&spec.render()))
    }

    /// Asks for the next suggestion. Safe to re-issue blindly: while a
    /// trial is pending the server returns the *same* pending suggestion
    /// without consuming RNG state or journaling, so a retry after a
    /// dropped response cannot skip or duplicate a trial.
    ///
    /// # Errors
    ///
    /// Transport errors after retries, or a non-2xx final status.
    pub fn suggest(&mut self, session_id: &str) -> io::Result<Json> {
        self.request_json("POST", &format!("/sessions/{session_id}/suggest"), None)
    }

    /// Reports an executed trial, stamping the dedup key `t<trial>` so
    /// the server rejects a replayed tell (e.g. a retry after the ACK
    /// was lost to a crash) as a duplicate instead of applying it twice.
    /// A `"duplicate": true` answer is success — the cached response is
    /// returned as-is.
    ///
    /// # Errors
    ///
    /// Transport errors after retries, or a non-2xx final status.
    pub fn report(&mut self, session_id: &str, trial: usize, executed: &Json) -> io::Result<Json> {
        let mut fields = match executed {
            Json::Obj(fields) => fields.clone(),
            _ => return Err(bad("report body must be a JSON object")),
        };
        if !fields.iter().any(|(k, _)| k == "key") {
            fields.push(("key".to_owned(), Json::Str(format!("t{trial}"))));
        }
        let body = Json::Obj(fields).render();
        self.request_json(
            "POST",
            &format!("/sessions/{session_id}/report"),
            Some(&body),
        )
    }

    /// Fetches session status.
    ///
    /// # Errors
    ///
    /// Transport errors after retries, or a non-2xx final status.
    pub fn status(&mut self, session_id: &str) -> io::Result<Json> {
        self.request_json("GET", &format!("/sessions/{session_id}"), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Reads until the end of the request headers, so stub servers never
    /// answer a half-received request.
    fn read_request(stream: &mut TcpStream) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let a = Client::new("127.0.0.1:1", 7);
        let b = Client::new("127.0.0.1:1", 7);
        for retry in 0..6 {
            assert_eq!(a.backoff_secs(3, retry), b.backoff_secs(3, retry));
            assert!(a.backoff_secs(3, retry) <= a.max_backoff_secs);
            assert!(a.backoff_secs(3, retry) > 0.0);
        }
        // Different ops and different seeds draw different jitter.
        assert_ne!(a.backoff_secs(0, 0), a.backoff_secs(1, 0));
        let c = Client::new("127.0.0.1:1", 8);
        assert_ne!(a.backoff_secs(0, 0), c.backoff_secs(0, 0));
    }

    #[test]
    fn retries_reconnect_until_a_server_appears() {
        // Bind, learn the port, drop the listener: the first attempts hit
        // connection-refused; a listener resurrected mid-retry then
        // answers. This is the chaos-restart shape in miniature.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream);
            let body = r#"{"ok":true}"#;
            write!(
                stream,
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
        });

        let mut client = Client::new(addr.to_string(), 11);
        client.backoff_base_secs = 0.02;
        client.max_backoff_secs = 0.1;
        let (status, body) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        server.join().unwrap();
    }

    #[test]
    fn overload_answers_are_retried_honoring_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: shed with 429 + sub-second-capped
            // Retry-After. Second: succeed.
            for (i, conn) in listener.incoming().take(2).enumerate() {
                let mut stream = conn.unwrap();
                read_request(&mut stream);
                if i == 0 {
                    let body = r#"{"error":"worker queue is full"}"#;
                    write!(
                        stream,
                        "HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                } else {
                    let body = r#"{"fine":true}"#;
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                }
            }
        });

        let mut client = Client::new(addr.to_string(), 5);
        client.max_backoff_secs = 0.05; // caps the honored Retry-After
        let start = std::time::Instant::now();
        let (status, body) = client.request("GET", "/x", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"fine":true}"#);
        // It did wait (honored Retry-After), but capped, not the full 1 s.
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(waited < Duration::from_millis(800), "{waited:?}");
        server.join().unwrap();
    }

    #[test]
    fn keep_alive_connection_is_reused_across_requests() {
        let dir = std::env::temp_dir().join(format!("mlconf_client_ka_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let server = crate::server::Server::bind(
            "127.0.0.1:0",
            crate::server::ServeConfig::new(dir.clone()),
        )
        .unwrap();
        let mut client = Client::new(server.local_addr().to_string(), 9);
        let spec = r#"{"tuner":"random","budget":3,"seed":4,"max_nodes":8}"#;
        let created = client.create_session(&json::parse(spec).unwrap()).unwrap();
        let id = created.get("id").unwrap().as_str().unwrap().to_owned();
        for _ in 0..5 {
            client.status(&id).unwrap();
            let (status, _) = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(
            client.connections_opened(),
            1,
            "11 requests over one keep-alive connection"
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_content_length_is_an_error_not_a_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream);
            write!(
                stream,
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{{}}",
                u64::MAX
            )
            .unwrap();
        });
        let result = request(&addr, "GET", "/healthz", None);
        assert!(result.is_err(), "{result:?}");
        server.join().unwrap();
    }

    #[test]
    fn non_retryable_statuses_return_immediately() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream);
            let body = r#"{"error":"no such session"}"#;
            write!(
                stream,
                "HTTP/1.1 404 Not Found\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            // A second accept would hang the test if the client retried.
        });
        let mut client = Client::new(addr.to_string(), 3);
        let (status, _) = client.request("GET", "/sessions/nope", None).unwrap();
        assert_eq!(status, 404);
        server.join().unwrap();
    }
}
