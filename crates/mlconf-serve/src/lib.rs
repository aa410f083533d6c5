#![warn(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
//! `mlconf-serve` — a Vizier-style ask/tell tuning service over a
//! hand-rolled HTTP/1.1 stack, with per-session JSONL journaling and
//! replay-based crash recovery.
//!
//! The tuning state machine itself lives in
//! [`mlconf_tuners::session::AskTellSession`]; this crate hosts many of
//! them behind a network API so an external system (a real training
//! cluster, a load generator, `curl`) can execute the trials:
//!
//! 1. `POST /sessions` with a spec (tuner name, budget, seed, optional
//!    stop conditions and warm-start configs) → a session id.
//! 2. `POST /sessions/{id}/suggest` → the next configuration to run
//!    (or `{"done": true}` when the session is over).
//! 3. Run it, measure it, `POST /sessions/{id}/report` the outcome.
//! 4. Repeat; `GET /sessions/{id}` shows status, incumbent, history.
//!
//! Because every state transition is journaled before it is
//! acknowledged and the state machine is deterministic, killing the
//! server at any point and restarting it over the same `--journal-dir`
//! reconstructs every session bit-identically — including the RNG
//! stream position, so the next suggestion is exactly what it would
//! have been without the crash.
//!
//! The crate is dependency-free beyond the workspace (the HTTP layer
//! sits directly on [`std::net::TcpListener`]; JSON is parsed by
//! [`json`]). Idle IO shards block in `poll(2)`, declared against the C
//! library std already links, so the crate is unix-only.

pub mod api;
pub mod client;
pub mod http;
pub mod journal;
mod poll;
pub mod quota;
pub mod registry;
pub mod server;
pub mod snapshot;

/// The workspace's JSON codec ([`mlconf_util::json`]), re-exported
/// because service clients import it as `mlconf_serve::json`.
pub use mlconf_util::json;
pub use registry::{RegistryConfig, ServeError, ServedSession, SessionRegistry, ShardStats};
pub use server::{ServeConfig, Server, ShutdownHandle};
