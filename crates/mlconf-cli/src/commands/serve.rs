//! `mlconf serve` — host the ask/tell tuning service over HTTP.
//!
//! Unlike the other commands this one blocks: it prints the bound
//! address (flushed, so wrappers can scrape the ephemeral port), then
//! serves until the process is terminated. Sessions survive restarts
//! through the journal directory.

use std::io::Write as _;
use std::time::Duration;

use mlconf_serve::{ServeConfig, Server};

use crate::args::Args;
use crate::commands::CliError;

/// `mlconf serve --addr A --journal-dir D [--shards N] [--queue-depth N]
/// [--snapshot-every N] [--max-sessions N] [--tenant-rps R]`
pub fn serve_cmd(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "addr",
        "journal-dir",
        "shards",
        "request-timeout",
        "queue-depth",
        "snapshot-every",
        "max-sessions",
        "tenant-rps",
        "tenant-burst",
    ])?;
    let addr = args.get_or("addr", "127.0.0.1:8649").to_owned();
    let journal_dir = args
        .get("journal-dir")
        .ok_or_else(|| CliError::Usage("--journal-dir is required".into()))?;
    let shards: usize = args.get_parse("shards", 4)?;
    if shards == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    let timeout: f64 = args.get_parse("request-timeout", 10.0)?;
    if !(timeout > 0.0 && timeout.is_finite()) {
        return Err(CliError::Usage(
            "--request-timeout must be a positive number of seconds".into(),
        ));
    }
    let queue_depth: usize = args.get_parse("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err(CliError::Usage("--queue-depth must be at least 1".into()));
    }
    // 0 disables checkpoints: pure full-journal replay on restart.
    let snapshot_every: u64 = args.get_parse("snapshot-every", 0)?;
    // 0 means unbounded; otherwise idle sessions over the bound are
    // evicted to disk and revived from their journals on next touch.
    let max_sessions: usize = args.get_parse("max-sessions", 0)?;
    // 0 disables per-tenant admission control.
    let tenant_rps: f64 = args.get_parse("tenant-rps", 0.0)?;
    if tenant_rps < 0.0 || !tenant_rps.is_finite() {
        return Err(CliError::Usage(
            "--tenant-rps must be a non-negative number".into(),
        ));
    }
    let tenant_burst: f64 = args.get_parse("tenant-burst", 0.0)?;

    let mut config = ServeConfig::new(journal_dir.into());
    config.shards = shards;
    config.read_timeout = Duration::from_secs_f64(timeout);
    config.write_timeout = Duration::from_secs_f64(timeout);
    config.queue_depth = queue_depth;
    config.snapshot_every = snapshot_every;
    config.max_sessions = max_sessions;
    config.tenant_rps = tenant_rps;
    config.tenant_burst = tenant_burst;
    let server = Server::bind(&addr, config)
        .map_err(|e| CliError::Failed(format!("cannot serve on {addr}: {e}")))?;

    // Printed (and flushed) before blocking so callers binding port 0
    // can discover the real port.
    println!(
        "mlconf-serve listening on {} ({} shards, journals in {})",
        server.local_addr(),
        shards,
        journal_dir
    );
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Failed(e.to_string()))?;

    server.join();
    Ok(String::new())
}
