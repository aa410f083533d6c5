//! The serving loop: N sharded, readiness-driven IO threads, each
//! owning its connections outright — no shared worker pool, no global
//! queue, no lock crossing shard boundaries.
//!
//! An accept thread places each new connection on the least-loaded IO
//! shard with room (bounded by `queue_depth + 1` connections per
//! shard). Each shard thread multiplexes its connections with
//! non-blocking reads into a per-connection buffer, parses each request
//! once, in place, as soon as the buffer holds all of it
//! ([`crate::http::parse`]), and buffers non-blocking writes. It reads
//! a connection only while the buffer lacks a whole request, and ends
//! a connection by half-closing it after the last response.
//! When a pass over its connections moves no bytes, the shard blocks in
//! `poll(2)` until a socket is ready: each connection for reading, or
//! for writing while a response is pending, plus a per-shard wake
//! socket the accept thread writes one byte to after each hand-off and
//! at stop. The wait ends no later than the earliest connection
//! deadline (`last_activity` plus the connection timeout, which bounds
//! idle and write-stalled connections alike), so timeouts fire on time
//! and an idle shard makes no timer wake-ups.
//! Session state is sharded the same way ([`crate::registry`]), so two
//! requests against different sessions contend on nothing. A shard
//! thread runs its requests' tuner work (GP fit, hyperopt, acquisition)
//! itself at one thread ([`mlconf_util::optim::set_threads`]): the
//! shards already run side by side, so spawning more would only
//! oversubscribe the cores.
//!
//! Routing (all request/response bodies are JSON):
//!
//! | Method & path                | Action                              |
//! |------------------------------|-------------------------------------|
//! | `GET /healthz`               | readiness probe (503 when degraded) |
//! | `POST /sessions`             | create a session from a spec        |
//! | `GET /sessions`              | list session ids                    |
//! | `GET /sessions/{id}`         | status + incumbent + history        |
//! | `DELETE /sessions/{id}`      | drop the session and its journal    |
//! | `POST /sessions/{id}/suggest`| next trial to evaluate (ask)        |
//! | `POST /sessions/{id}/report` | completed-trial outcome (tell)      |
//!
//! Failures are `{"error": "..."}` with a matching 4xx/5xx status.
//!
//! # Admission control
//!
//! Two layers. Connection-level: when every IO shard is at capacity the
//! accept thread *sheds* — `429 Too Many Requests` + `Retry-After`,
//! then close — instead of queueing unbounded work. Tenant-level: with
//! `tenant_rps > 0`, every state-advancing request (`POST /sessions`,
//! `suggest`, `report`) is charged to its tenant's token bucket
//! ([`crate::quota`]) and over-rate tenants get 429 with a computed
//! `Retry-After`. Shutdown enters *drain* mode: in-flight requests
//! finish, while new connections — and new requests on live keep-alive
//! connections — get `503` + `Retry-After` until every shard has let go
//! of its connections or the 5 s grace period runs out.
//!
//! # Resilience
//!
//! Request handling runs under `catch_unwind` and every lock is taken
//! with poison recovery, so one panicking request costs only its own
//! connection — never an IO shard, and never the server.

use crate::api::DEFAULT_TENANT;
use crate::http::{self, HttpError, ReadLimits, Request, RequestLine};
use crate::json::{obj, parse, Json};
use crate::poll::{PollFd, POLLIN, POLLOUT};
use crate::quota::TenantQuotas;
use crate::registry::{lock_recover, RegistryConfig, ServeError, SessionRegistry};
use mlconf_util::optim::set_threads;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `Retry-After` value (seconds) sent on shed (429 capacity) and drain
/// (503) responses. Quota 429s compute their own from the refill rate.
const RETRY_AFTER_SECS: u64 = 1;

/// Bytes an IO shard reads from a connection at a time.
const READ_CHUNK: usize = 8192;

/// Reads a lingering connection gets per pass: one pass stays bounded,
/// so a peer that keeps sending cannot starve the shard's other
/// connections.
const LINGER_READS: usize = 16;

/// How long shutdown keeps answering 503 while shards drain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// IO + registry shards (each IO shard is one thread owning its
    /// connections; each registry shard is one lock + journal subdir).
    pub shards: usize,
    /// Directory for per-session journals (sharded beneath it).
    pub journal_dir: PathBuf,
    /// How long a connection may sit idle (no request bytes) or stall
    /// a response write before it is closed.
    pub timeout: Duration,
    /// Request head/body size limits.
    pub limits: ReadLimits,
    /// Requests served per connection before it is closed (bounds how
    /// long one client can pin a connection slot).
    pub max_requests_per_conn: usize,
    /// Connections each IO shard will hold beyond the one it is
    /// serving; past `queue_depth + 1` per shard, new connections are
    /// shed with 429.
    pub queue_depth: usize,
    /// Checkpoint each session every N journaled operations (see
    /// [`crate::snapshot`]); 0 disables snapshots.
    pub snapshot_every: u64,
    /// Live in-memory session bound; 0 means unbounded. Idle sessions
    /// over the bound are evicted to disk and revived on next touch.
    pub max_sessions: usize,
    /// Per-tenant sustained requests/second; 0 disables tenant quotas.
    pub tenant_rps: f64,
    /// Per-tenant burst allowance; <= 0 defaults to `2 * tenant_rps`.
    pub tenant_burst: f64,
}

impl ServeConfig {
    /// Defaults rooted at `journal_dir`.
    pub fn new(journal_dir: PathBuf) -> Self {
        ServeConfig {
            shards: 4,
            journal_dir,
            timeout: Duration::from_secs(10),
            limits: ReadLimits::default(),
            max_requests_per_conn: 1000,
            queue_depth: 64,
            snapshot_every: 0,
            max_sessions: 0,
            tenant_rps: 0.0,
            tenant_burst: 0.0,
        }
    }
}

/// One IO shard's accept-side state: the mailbox the accept
/// thread pushes new connections into, the connection count that
/// bounds it (owned + handed-off, so shedding is decided without
/// touching the shard thread), and the non-blocking wake socket pair
/// that interrupts the shard's readiness wait.
struct IoShard {
    inbox: Mutex<Vec<TcpStream>>,
    conns: AtomicUsize,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl IoShard {
    fn new() -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(IoShard {
            inbox: Mutex::new(Vec::new()),
            conns: AtomicUsize::new(0),
            wake_tx,
            wake_rx,
        })
    }

    /// Makes the shard's current or next readiness wait return. A full
    /// socket buffer (`WouldBlock`) already holds a pending wake-up.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Consumes every pending wake-up byte.
    fn drain_wakes(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Everything the accept loop, IO shards, and request handlers share.
struct Ctx {
    registry: Arc<SessionRegistry>,
    quotas: Option<TenantQuotas>,
    config: ServeConfig,
    /// Per-shard connection capacity (`queue_depth + 1`).
    capacity: usize,
    io_shards: Vec<Arc<IoShard>>,
    /// Set by [`ShutdownHandle::shutdown`]: enter drain mode.
    shutdown: AtomicBool,
    /// Set when drain completes: IO shards drop everything and exit.
    stop: AtomicBool,
}

/// A bound, running server.
pub struct Server {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    ctx: Arc<Ctx>,
}

/// A clonable handle that can stop the server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
}

impl ShutdownHandle {
    /// Requests shutdown: the server enters drain mode (in-flight
    /// requests finish; new ones get 503 + `Retry-After`), then the
    /// accept loop and IO shards exit. Idempotent.
    pub fn shutdown(&self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), opens/recovers
    /// the sharded registry, and starts the accept + IO shard threads.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-directory failures.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let nshards = config.shards.max(1);
        let registry = Arc::new(SessionRegistry::open(
            &config.journal_dir,
            RegistryConfig {
                snapshot_every: config.snapshot_every,
                shards: nshards,
                max_sessions: config.max_sessions,
            },
        )?);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let io_shards = (0..nshards)
            .map(|_| IoShard::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let ctx = Arc::new(Ctx {
            registry,
            quotas: TenantQuotas::new(config.tenant_rps, config.tenant_burst),
            capacity: config.queue_depth.max(1) + 1,
            config,
            io_shards,
            shutdown: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });

        let shard_threads = (0..nshards)
            .map(|k| {
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || {
                    set_threads(1);
                    shard_loop(k, &ctx);
                })
            })
            .collect();
        let accept_ctx = Arc::clone(&ctx);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_ctx));

        Ok(Server {
            addr,
            accept_thread: Some(accept_thread),
            shard_threads,
            ctx,
        })
    }

    /// The bound address (reports the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle other threads can use to stop the server.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            addr: self.addr,
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Blocks until the server shuts down (via a [`ShutdownHandle`]).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle().shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Accepts connections and places each on an IO shard with room,
/// rotating the starting shard for fairness. When every shard is at
/// capacity the connection is shed with 429 — the accept thread writes
/// the tiny response itself; shards never see it.
fn accept_loop(listener: &TcpListener, ctx: &Ctx) {
    let nshards = ctx.io_shards.len();
    let mut next = 0usize;
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            if let Ok(stream) = stream {
                shed(stream, 503, "server is draining");
            }
            drain(listener, ctx);
            break;
        }
        let Ok(stream) = stream else {
            // A persistent error (at the fd limit, EMFILE leaves the
            // connection in the backlog) fails again at once: back off
            // instead of spinning a core on retries.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let mut stream = Some(stream);
        for i in 0..nshards {
            let k = (next + i) % nshards;
            let shard = &ctx.io_shards[k];
            // The accept thread is the only incrementer, so this
            // load-then-add never overshoots the capacity.
            if shard.conns.load(Ordering::Relaxed) < ctx.capacity {
                shard.conns.fetch_add(1, Ordering::Relaxed);
                lock_recover(&shard.inbox).push(stream.take().expect("stream not yet placed"));
                shard.wake();
                break;
            }
        }
        next = next.wrapping_add(1);
        if let Some(stream) = stream {
            shed(stream, 429, "server is at connection capacity");
        }
    }
    ctx.stop.store(true, Ordering::SeqCst);
    for shard in &ctx.io_shards {
        shard.wake();
    }
}

/// Answers a connection the server will not serve (saturation or drain)
/// with a one-shot JSON error + `Retry-After`, then closes it.
fn shed(mut stream: TcpStream, status: u16, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let body = obj([("error", Json::Str(message.to_owned()))]).render();
    let mut out = Vec::new();
    http::write_response(&mut out, status, &body, true, Some(RETRY_AFTER_SECS));
    let _ = stream.write_all(&out);
}

/// Drain mode: keep answering new connections with 503 + `Retry-After`
/// until every IO shard has released its connections (in-flight
/// requests answered, idle connections timed out), or the grace period
/// runs out.
fn drain(listener: &TcpListener, ctx: &Ctx) {
    let deadline = Instant::now() + DRAIN_GRACE;
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let busy = || {
        ctx.io_shards
            .iter()
            .any(|s| s.conns.load(Ordering::Relaxed) > 0)
    };
    while Instant::now() < deadline && busy() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                shed(stream, 503, "server is draining");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// One IO shard: adopts handed-off connections, then loops pumping each
/// one (read → parse → handle → write) without ever blocking on a
/// single socket, so a slow peer can't stall its neighbors. A pass that
/// moves nothing ends in [`wait_for_readiness`].
fn shard_loop(k: usize, ctx: &Ctx) {
    let shard = &ctx.io_shards[k];
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        {
            let mut inbox = lock_recover(&shard.inbox);
            for stream in inbox.drain(..) {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    conns.push(Conn::new(stream));
                } else {
                    shard.conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if ctx.stop.load(Ordering::SeqCst) {
            shard.conns.fetch_sub(conns.len(), Ordering::Relaxed);
            return;
        }
        let draining = ctx.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        let mut progress = false;
        conns.retain_mut(|conn| match conn.pump(ctx, draining, now) {
            Pump::Progress => {
                progress = true;
                true
            }
            Pump::Idle => true,
            Pump::Drop => {
                shard.conns.fetch_sub(1, Ordering::Relaxed);
                false
            }
        });
        if !progress {
            wait_for_readiness(shard, &conns, &mut fds, &ctx.config);
        }
    }
}

/// Blocks in `poll(2)` until the wake socket or one of `conns` is ready
/// for what it waits on, or the earliest connection deadline passes
/// (no timeout without connections), then consumes the wake-ups. A
/// hand-off that lands after this pass drained the inbox left a wake
/// byte, so the wait returns at once and no hand-off is missed.
fn wait_for_readiness(
    shard: &IoShard,
    conns: &[Conn],
    fds: &mut Vec<PollFd>,
    config: &ServeConfig,
) {
    fds.clear();
    fds.push(PollFd::new(shard.wake_rx.as_raw_fd(), POLLIN));
    let mut deadline: Option<Instant> = None;
    for conn in conns {
        let (events, due) = conn.interest(config);
        fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        if let Some(due) = due {
            deadline = Some(deadline.map_or(due, |d| d.min(due)));
        }
    }
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    crate::poll::wait(fds, timeout);
    shard.drain_wakes();
}

/// What one pump pass did with a connection.
enum Pump {
    /// Bytes moved or a request was served; pump again without waiting.
    Progress,
    /// Nothing to do; the connection stays registered.
    Idle,
    /// The connection is finished (cleanly or not); drop it.
    Drop,
}

/// Result of flushing buffered response bytes.
enum Flush {
    /// Wrote everything (or made progress writing).
    Progress,
    /// The socket would block before anything moved.
    Blocked,
    /// The peer is gone.
    Drop,
}

/// One multiplexed connection: accumulating read buffer, pending
/// response bytes, and keep-alive bookkeeping.
struct Conn {
    stream: TcpStream,
    /// Bytes read; `buf[used..]` are not yet parsed into a request.
    buf: Vec<u8>,
    used: usize,
    out: Vec<u8>,
    out_pos: usize,
    served: usize,
    last_activity: Instant,
    close_after_write: bool,
    /// The last response is out and the write half is shut: the
    /// connection only discards what the peer still sends.
    lingering: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            used: 0,
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            last_activity: Instant::now(),
            close_after_write: false,
            lingering: false,
        }
    }

    /// What the connection waits for, and until when: the rest of a
    /// pending response, otherwise request bytes, either within the
    /// connection timeout (`None` when the deadline is unrepresentable,
    /// i.e. effectively never).
    fn interest(&self, config: &ServeConfig) -> (i16, Option<Instant>) {
        let events = if self.out.is_empty() { POLLIN } else { POLLOUT };
        (events, self.last_activity.checked_add(config.timeout))
    }

    /// One non-blocking pass: flush pending writes, serve at most one
    /// complete request, enforce idle and write-stall timeouts.
    ///
    /// A request already buffered (pipelined behind the last one) is
    /// served before anything more is read, and the socket is read one
    /// 8 KB chunk at a time only while the buffer lacks a whole request.
    /// So the buffer holds at most one request plus one read, and each
    /// request costs the shard only its own bytes.
    fn pump(&mut self, ctx: &Ctx, draining: bool, now: Instant) -> Pump {
        if self.lingering {
            return self.linger(ctx, now);
        }
        if !self.out.is_empty() {
            match self.flush() {
                Flush::Drop => return Pump::Drop,
                Flush::Blocked => {
                    if now.duration_since(self.last_activity) > ctx.config.timeout {
                        return Pump::Drop;
                    }
                    return Pump::Idle;
                }
                Flush::Progress => {
                    self.last_activity = now;
                    if !self.out.is_empty() {
                        return Pump::Progress;
                    }
                    if self.close_after_write {
                        return self.half_close();
                    }
                }
            }
        }

        let mut progressed = false;
        let mut socket_drained = false;
        let parsed = loop {
            let parsed = http::parse::<RequestLine>(&self.buf[self.used..], &ctx.config.limits);
            if !matches!(parsed, Ok(None)) || socket_drained {
                break parsed;
            }
            // Incomplete: keep only the partial request, then read on.
            self.buf.drain(..self.used);
            self.used = 0;
            match self.read_more() {
                None => return Pump::Drop,
                Some(0) => break Ok(None),
                Some(n) => {
                    self.last_activity = now;
                    progressed = true;
                    socket_drained = n < READ_CHUNK;
                }
            }
        };

        match parsed {
            Ok(None) => {}
            Ok(Some((request, used))) => {
                self.used += used;
                if !self.respond(&request, ctx, draining) {
                    return Pump::Drop;
                }
                progressed = true;
                match self.flush() {
                    Flush::Drop => return Pump::Drop,
                    Flush::Blocked => {}
                    Flush::Progress => {
                        if self.out.is_empty() && self.close_after_write {
                            return self.half_close();
                        }
                    }
                }
                self.last_activity = now;
            }
            Err(HttpError { status, message }) => {
                self.buf.clear();
                self.used = 0;
                self.queue_error(status, &message);
                if let Flush::Drop = self.flush() {
                    return Pump::Drop;
                }
                if self.out.is_empty() {
                    return self.half_close();
                }
                progressed = true;
            }
        }

        if progressed {
            Pump::Progress
        } else if now.duration_since(self.last_activity) > ctx.config.timeout {
            Pump::Drop
        } else {
            Pump::Idle
        }
    }

    /// Reads at most one [`READ_CHUNK`] of what the socket has ready onto
    /// the end of `buf`: the byte count, `Some(0)` when nothing is
    /// ready, `None` at end of stream or on a read error.
    fn read_more(&mut self) -> Option<usize> {
        let start = self.buf.len();
        self.buf.resize(start + READ_CHUNK, 0);
        let got = loop {
            match self.stream.read(&mut self.buf[start..]) {
                Ok(0) => break None,
                Ok(n) => break Some(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Some(0),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break None,
            }
        };
        self.buf.truncate(start + got.unwrap_or(0));
        got
    }

    /// Shuts the write half once the last response is out, then lingers
    /// ([`Conn::linger`]). Closing outright while the peer's pipelined
    /// bytes sit unread makes the kernel answer with a reset, which can
    /// destroy responses the peer has not read yet.
    fn half_close(&mut self) -> Pump {
        let _ = self.stream.shutdown(Shutdown::Write);
        self.buf.clear();
        self.used = 0;
        self.lingering = true;
        Pump::Progress
    }

    /// Discards what a half-closed connection's peer still sends, up to
    /// [`LINGER_READS`] reads a pass, until the peer closes or the
    /// connection timeout passes since the last response went out.
    fn linger(&mut self, ctx: &Ctx, now: Instant) -> Pump {
        if now.duration_since(self.last_activity) > ctx.config.timeout {
            return Pump::Drop;
        }
        for _ in 0..LINGER_READS {
            match self.read_more() {
                None => return Pump::Drop,
                Some(0) => return Pump::Idle,
                Some(_) => self.buf.clear(),
            }
        }
        Pump::Progress
    }

    /// Queues the response to one parsed request. Returns `false` when
    /// the connection should be dropped instead (handler panic).
    fn respond(&mut self, request: &Request, ctx: &Ctx, draining: bool) -> bool {
        // Requests arriving on a live keep-alive connection after
        // shutdown began are "new work": refuse them so drain converges.
        if draining {
            let body = obj([("error", Json::Str("server is draining".into()))]).render();
            self.queue(503, &body, true, Some(RETRY_AFTER_SECS));
            return true;
        }
        self.served += 1;
        let close = request.wants_close() || self.served >= ctx.config.max_requests_per_conn;
        // A panicking request must not take the IO shard (let alone the
        // server) down with it: contain it, drop its connection, keep
        // serving the rest.
        let handled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(request, ctx)));
        let (status, body, retry_after) = match handled {
            Err(_) => {
                eprintln!(
                    "mlconf-serve: recovered from a panicking request; \
                     its connection was dropped"
                );
                return false;
            }
            Ok(Ok((status, v))) => (status, v.render(), None),
            Ok(Err(e)) => {
                let retry = e
                    .retry_after
                    .or((e.status == 503).then_some(RETRY_AFTER_SECS));
                (
                    e.status,
                    obj([("error", Json::Str(e.message))]).render(),
                    retry,
                )
            }
        };
        self.queue(status, &body, close, retry_after);
        true
    }

    /// Queues one rendered response for (non-blocking) writing.
    fn queue(&mut self, status: u16, body: &str, close: bool, retry_after: Option<u64>) {
        let mut bytes = Vec::with_capacity(body.len() + 128);
        http::write_response(&mut bytes, status, body, close, retry_after);
        self.out = bytes;
        self.out_pos = 0;
        self.close_after_write = close;
    }

    /// Queues a protocol-violation response (always closes after).
    fn queue_error(&mut self, status: u16, message: &str) {
        let body = obj([("error", Json::Str(message.into()))]).render();
        self.queue(status, &body, true, None);
    }

    /// Writes as much pending response as the socket accepts.
    fn flush(&mut self) -> Flush {
        let mut wrote = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flush::Drop,
                Ok(n) => {
                    self.out_pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return if wrote {
                        Flush::Progress
                    } else {
                        Flush::Blocked
                    };
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Drop,
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Flush::Progress
    }
}

/// Readiness probe: per shard, verifies the journal subdirectory
/// accepts writes (the write-ahead guarantee is unserviceable without
/// it) and that the shard has connection capacity. Healthy →
/// `200 {"ok":true,"shards":[...]}`; otherwise `503` with each failing
/// check named **with its shard** (`journal_dir_unwritable:shard-2`).
fn healthz(ctx: &Ctx) -> (u16, Json) {
    let mut degraded: Vec<Json> = Vec::new();
    let mut shards_json: Vec<Json> = Vec::new();
    for (k, stat) in ctx.registry.shard_stats().iter().enumerate() {
        let probe = stat.dir.join(".healthz.probe");
        let writable =
            std::fs::write(&probe, b"ok").is_ok() && std::fs::remove_file(&probe).is_ok();
        if !writable {
            degraded.push(Json::Str(format!("journal_dir_unwritable:shard-{k}")));
        }
        let conns = ctx
            .io_shards
            .get(k)
            .map_or(0, |s| s.conns.load(Ordering::Relaxed));
        if conns >= ctx.capacity {
            degraded.push(Json::Str(format!("connections_saturated:shard-{k}")));
        }
        shards_json.push(obj([
            ("shard", Json::Num(k as f64)),
            ("connections", Json::Num(conns as f64)),
            ("capacity", Json::Num(ctx.capacity as f64)),
            ("live_sessions", Json::Num(stat.live as f64)),
            ("parked_sessions", Json::Num(stat.parked as f64)),
            ("journal_dir_writable", Json::Bool(writable)),
        ]));
    }
    if degraded.is_empty() {
        (
            200,
            obj([("ok", Json::Bool(true)), ("shards", Json::Arr(shards_json))]),
        )
    } else {
        (
            503,
            obj([
                ("ok", Json::Bool(false)),
                ("degraded", Json::Arr(degraded)),
                ("shards", Json::Arr(shards_json)),
            ]),
        )
    }
}

/// Charges one request to `tenant`, mapping an empty bucket to 429.
fn admit(quotas: &TenantQuotas, tenant: &str) -> Result<(), ServeError> {
    quotas.admit(tenant).map_err(|wait| {
        ServeError::too_many_requests(format!("tenant `{tenant}` is over its request rate"), wait)
    })
}

/// Dispatches one request against the registry. State-advancing routes
/// (`POST`) pass tenant admission first; reads and deletes are never
/// throttled (a throttled tenant must still be able to observe and
/// free its sessions).
fn route(request: &Request, ctx: &Ctx) -> Result<(u16, Json), ServeError> {
    let registry = &ctx.registry;
    let segments: Vec<&str> = request
        .start
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (request.start.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(healthz(ctx)),
        ("POST", ["sessions"]) => {
            let body = parse_body(request)?;
            if let Some(quotas) = &ctx.quotas {
                let tenant = body
                    .get("tenant")
                    .and_then(Json::as_str)
                    .unwrap_or(DEFAULT_TENANT);
                admit(quotas, tenant)?;
            }
            registry.create(&body).map(|v| (201, v))
        }
        ("GET", ["sessions"]) => Ok((
            200,
            obj([(
                "sessions",
                Json::Arr(registry.list().into_iter().map(Json::Str).collect()),
            )]),
        )),
        ("GET", ["sessions", id]) => {
            let session = lookup(registry, id)?;
            let status = lock_recover(&session).status_json();
            Ok((200, status))
        }
        ("DELETE", ["sessions", id]) => {
            if registry.delete(id) {
                Ok((200, obj([("deleted", Json::Str((*id).to_owned()))])))
            } else {
                Err(ServeError::not_found(format!("no session `{id}`")))
            }
        }
        ("POST", ["sessions", id, "suggest"]) => {
            let session = lookup(registry, id)?;
            if let Some(quotas) = &ctx.quotas {
                let tenant = lock_recover(&session).spec().tenant.clone();
                admit(quotas, &tenant)?;
            }
            let result = lock_recover(&session).suggest()?;
            Ok((200, result))
        }
        ("POST", ["sessions", id, "report"]) => {
            let body = parse_body(request)?;
            let session = lookup(registry, id)?;
            if let Some(quotas) = &ctx.quotas {
                let tenant = lock_recover(&session).spec().tenant.clone();
                admit(quotas, &tenant)?;
            }
            let result = lock_recover(&session).report(&body)?;
            Ok((200, result))
        }
        (_, ["healthz" | "sessions", ..]) => Err(ServeError {
            status: 405,
            message: format!("method {} not allowed here", request.start.method),
            retry_after: None,
        }),
        _ => Err(ServeError::not_found(format!(
            "no route for {}",
            request.start.path
        ))),
    }
}

fn lookup(
    registry: &SessionRegistry,
    id: &str,
) -> Result<Arc<Mutex<crate::registry::ServedSession>>, ServeError> {
    registry
        .get(id)
        .ok_or_else(|| ServeError::not_found(format!("no session `{id}`")))
}

fn parse_body(request: &Request) -> Result<Json, ServeError> {
    let text = if request.body.trim().is_empty() {
        "{}"
    } else {
        &request.body
    };
    parse(text).map_err(|e| ServeError::bad_request(format!("invalid JSON body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::request as http;

    fn start(tag: &str) -> (Server, String, PathBuf) {
        let dir = std::env::temp_dir().join(format!("mlconf_server_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let server = Server::bind("127.0.0.1:0", ServeConfig::new(dir.clone())).unwrap();
        let addr = server.local_addr().to_string();
        (server, addr, dir)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (server, addr, dir) = start("routes");
        let (status, body) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\":true"), "{body}");
        let (status, _) = http(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http(&addr, "PUT", "/sessions", None).unwrap();
        assert_eq!(status, 405);
        let (status, _) = http(&addr, "POST", "/sessions/zzz/suggest", None).unwrap();
        assert_eq!(status, 404);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthz_reports_per_shard_state() {
        let (server, addr, dir) = start("pershard");
        let (status, body) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let parsed = parse(&body).unwrap();
        let shards = match parsed.get("shards") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("healthz must list shards, got {other:?}"),
        };
        assert_eq!(shards.len(), 4, "default shard count");
        for (k, shard) in shards.iter().enumerate() {
            assert_eq!(shard.get("shard").unwrap().as_i64(), Some(k as i64));
            assert!(shard.get("connections").is_some());
            assert!(shard.get("capacity").is_some());
            assert_eq!(
                shard.get("journal_dir_writable").unwrap().as_bool(),
                Some(true)
            );
        }
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_bodies_get_400_and_server_survives() {
        let (server, addr, dir) = start("malformed");
        let (status, body) = http(&addr, "POST", "/sessions", Some("{not json")).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("error"));
        let (status, _) = http(
            &addr,
            "POST",
            "/sessions",
            Some("{\"tuner\":\"warp\",\"budget\":1,\"seed\":0}"),
        )
        .unwrap();
        assert_eq!(status, 400);
        // Still alive.
        let (status, _) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_shutdown_unblocks_join() {
        let (server, addr, dir) = start("shutdown");
        let handle = server.handle();
        let joiner = std::thread::spawn(move || server.join());
        let (status, _) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        handle.shutdown();
        joiner.join().expect("join returns after shutdown");
        assert!(http(&addr, "GET", "/healthz", None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthz_reports_unwritable_journal_dir() {
        let (server, addr, dir) = start("degraded");
        let (status, _) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        // Replace the journal tree with a file: every shard's probe now
        // fails, each named individually.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a dir").unwrap();
        let (status, body) = http(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("journal_dir_unwritable"), "{body}");
        assert!(body.contains("shard-0"), "{body}");
        drop(server);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn tenant_over_rate_limit_gets_429_with_retry_after() {
        let dir = std::env::temp_dir().join(format!("mlconf_server_quota_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ServeConfig::new(dir.clone());
        config.tenant_rps = 1.0;
        config.tenant_burst = 1.0;
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        let spec = r#"{"tuner":"random","budget":4,"seed":1,"max_nodes":8,"tenant":"team-a"}"#;
        let (status, body) = http(&addr, "POST", "/sessions", Some(spec)).unwrap();
        assert_eq!(status, 201, "{body}");

        // Burst spent: the same tenant's next create is throttled, with
        // a Retry-After header carrying the computed wait (raw socket so
        // the headers are visible).
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(
            stream,
            "POST /sessions HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{spec}",
            spec.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("retry-after: 1"), "{response}");
        assert!(response.contains("over its request rate"), "{response}");

        // A different tenant is unaffected.
        let other = spec.replace("team-a", "team-b");
        let (status, body) = http(&addr, "POST", "/sessions", Some(&other)).unwrap();
        assert_eq!(status, 201, "{body}");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `n` pipelined requests in one `write_all` into a connection
    /// of our own, pumped by hand with `server`'s context so its buffer
    /// can be checked after every pass. Returns each answer's status and
    /// body, in order, read until `n` answers or the end of the stream,
    /// and the largest buffer seen.
    fn pump_pipeline(server: &Server, n: usize) -> (Vec<(u16, String)>, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);

        // Each request names an unknown session, so each 404 names it.
        let pipeline: String = (0..n).map(pipelined_request).collect();
        let mut writer = client.try_clone().unwrap();
        // Past a close the rest of the pipeline cannot be written.
        let writer = std::thread::spawn(move || writer.write_all(pipeline.as_bytes()).is_ok());
        let mut reader = client;
        let reader = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answers = Vec::new();
            while answers.len() < n {
                // A reset here is the failure under test: let it panic.
                let got = reader.read(&mut chunk).unwrap();
                if got == 0 {
                    break;
                }
                buf.extend_from_slice(&chunk[..got]);
                while let Some((response, used)) =
                    crate::http::parse::<crate::http::StatusLine>(&buf, &ReadLimits::default())
                        .unwrap()
                {
                    answers.push((response.start.status, response.body));
                    buf.drain(..used);
                }
            }
            answers
        });

        let mut largest = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        while !reader.is_finished() {
            assert!(Instant::now() < deadline, "pipeline stalled");
            match conn.pump(&server.ctx, false, Instant::now()) {
                Pump::Progress => {}
                Pump::Idle => std::thread::sleep(Duration::from_micros(200)),
                Pump::Drop => break,
            }
            largest = largest.max(conn.buf.len());
        }
        drop(conn);
        writer.join().unwrap();
        (reader.join().unwrap(), largest)
    }

    fn pipelined_request(i: usize) -> String {
        format!("GET /sessions/s{i:04} HTTP/1.1\r\nhost: t\r\n\r\n")
    }

    fn assert_answers_in_order(answers: &[(u16, String)]) {
        for (i, (status, body)) in answers.iter().enumerate() {
            assert_eq!(*status, 404, "{body}");
            assert!(body.contains(&format!("`s{i:04}`")), "answer {i}: {body}");
        }
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_from_a_bounded_buffer() {
        let (server, _addr, dir) = start("pipeline");
        let n = 900;
        assert!(n * pipelined_request(0).len() > 4 * READ_CHUNK);
        let (answers, largest) = pump_pipeline(&server, n);
        assert_eq!(answers.len(), n);
        assert_answers_in_order(&answers);
        assert!(
            largest <= pipelined_request(0).len() + READ_CHUNK,
            "buffer grew to {largest} bytes"
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_connection_closed_under_unread_requests_still_delivers_its_answers() {
        // Past the per-connection cap the server closes with most of the
        // pipeline unread; the allowed answers must still all arrive,
        // followed by a clean end of stream rather than a reset.
        let dir = std::env::temp_dir().join(format!("mlconf_server_cap_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ServeConfig::new(dir.clone());
        config.max_requests_per_conn = 50;
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let (answers, _) = pump_pipeline(&server, 2000);
        assert_eq!(answers.len(), 50);
        assert_answers_in_order(&answers);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_shards_at_capacity_sheds_with_429() {
        let dir = std::env::temp_dir().join(format!("mlconf_server_shed_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut config = ServeConfig::new(dir.clone());
        config.shards = 1;
        config.queue_depth = 1; // capacity 2 connections
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        // Pin the shard's two slots with idle connections.
        let _a = TcpStream::connect(&addr).unwrap();
        let _b = TcpStream::connect(&addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // The third connection is shed by the accept thread.
        let mut c = TcpStream::connect(&addr).unwrap();
        let mut response = String::new();
        c.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("retry-after"), "{response}");
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}
