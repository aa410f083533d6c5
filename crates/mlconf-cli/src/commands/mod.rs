//! The CLI subcommands, one module per command. Each command returns
//! its output as a `String` (so tests can assert on it) and the binary
//! prints it.

mod analyze;
mod info;
mod pareto;
mod serve;
mod simulate;
mod tune;

pub use analyze::analyze_cmd;
pub use info::{catalog, workloads};
pub use pareto::pareto_cmd;
pub use serve::serve_cmd;
pub use simulate::simulate_cmd;
pub use tune::tune_cmd;

use crate::args::{ArgError, Args};

/// Error type for command execution.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (message is user-facing).
    Usage(String),
    /// Execution failure.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Top-level help text.
pub fn help() -> String {
    "\
mlconf — automatic configuration tuning for distributed ML

USAGE:
  mlconf <command> [flags]

COMMANDS:
  workloads                      list the built-in workload suite
  catalog                        list the machine-type catalog
  simulate  --workload W ...     simulate one configuration and print its profile
  tune      --workload W ...     search for the best configuration
  analyze   --workload W ...     rank the knobs by importance
  pareto    --workload W ...     map the time/cost trade-off frontier
  serve     --journal-dir D ...  host the ask/tell tuning service over HTTP
  help                           this message

SIMULATE FLAGS:
  --workload NAME    suite workload (see `mlconf workloads`)   [required]
  --nodes N          cluster size                              [default 8]
  --machine TYPE     machine type (see `mlconf catalog`)       [default c4.2xlarge]
  --arch ps|allreduce                                          [default ps]
  --ps N             parameter servers (ps arch)               [default 2]
  --sync bsp|async|ssp                                         [default bsp]
  --staleness K      ssp staleness bound                       [default 4]
  --batch B          per-worker batch size                     [default 64]
  --threads T        threads per worker                        [default 4]
  --compress         enable gradient compression
  --severity X       straggler severity (0 = none, 1 = cloud)  [default 1]
  --seed S                                                     [default 0]

TUNE FLAGS:
  --workload NAME                                              [required]
  --objective tta|cost|deadline  (deadline needs --deadline S) [default tta]
  --deadline SECS    deadline for the deadline objective
  --tuner bo|random|lhs|grid|coord|anneal|halving|hyperband|ernest|portfolio [default bo]
  --portfolio-arms A,B,...  arm list for --tuner portfolio  [default bo,ernest]
  --surrogate exact|sparse|auto  BO surrogate (sparse = subset-of-data GP) [default auto]
  --sparse-threshold N   trial count where auto switches to sparse [default 512]
  --budget N         trials                                    [default 30]
  --max-nodes N      cluster-size cap                          [default 32]
  --seed S                                                     [default 42]
  --verbose          print every trial
  --json             append a machine-readable JSON summary
  --trace F          write a JSONL trial-event trace to F
  --save-history F   write the trial history CSV to F
  --warm-start F     add a saved history CSV to BO as prior data (composes
                     with bo: specs, e.g. --tuner bo:surrogate=sparse)
  --parallel K       evaluate K trials concurrently (constant-liar batches)
  --trial-timeout S  kill trials running past S simulated seconds (0 = off)
  --max-retries N    retry crashed trials up to N times with backoff   [default 0]
  --fault-plan F     inject the scripted fault plan CSV F (chaos testing)
  --scenario SPEC|F  time-varying environment: a named drift scenario
                     (kind[:seed[:horizon]], e.g. congestion:7) or a CSV script file
  --retune-policy P  off | on-drift | always[:N]  re-tune when the world shifts [default off]

ANALYZE FLAGS:
  --workload NAME                                              [required]
  --history F        estimate from a saved tuning history (GP permutation)
  --max-nodes N      cluster-size cap for the sensitivity sweep [default 32]
  --seed S           [default 42]

PARETO FLAGS:
  --workload NAME                                              [required]
  --budget N         trials per objective (4 objectives pooled) [default 15]
  --max-nodes N                                                [default 32]
  --seed S                                                     [default 42]

SERVE FLAGS:
  --journal-dir D    directory for per-session JSONL journals  [required]
  --addr HOST:PORT   listen address (port 0 = ephemeral)       [default 127.0.0.1:8649]
  --shards N         registry/IO shards                        [default 4]
  --request-timeout S  per-connection socket timeout (seconds) [default 10]
  --queue-depth N    per-shard bound on connections before 429 shedding [default 64]
  --snapshot-every N checkpoint + compact each session journal every N records (0 = off)
  --max-sessions N   park idle sessions to disk over this bound (0 = unbounded)
  --tenant-rps R     per-tenant token-bucket rate for state-advancing requests (0 = off)
  --tenant-burst B   per-tenant burst allowance on top of --tenant-rps
"
    .to_owned()
}

/// Dispatches a full argument vector (without the program name).
pub fn dispatch(raw: &[String]) -> Result<String, CliError> {
    let value_flags = [
        "workload",
        "nodes",
        "machine",
        "arch",
        "ps",
        "sync",
        "staleness",
        "batch",
        "threads",
        "severity",
        "seed",
        "objective",
        "deadline",
        "tuner",
        "portfolio-arms",
        "surrogate",
        "sparse-threshold",
        "budget",
        "max-nodes",
        "save-history",
        "warm-start",
        "parallel",
        "history",
        "trial-timeout",
        "max-retries",
        "fault-plan",
        "trace",
        "scenario",
        "retune-policy",
        "addr",
        "journal-dir",
        "shards",
        "request-timeout",
        "queue-depth",
        "snapshot-every",
        "max-sessions",
        "tenant-rps",
        "tenant-burst",
    ];
    let args = Args::parse(raw.iter().cloned(), &value_flags)?;
    match args.positional().first().map(String::as_str) {
        Some("workloads") => Ok(workloads()),
        Some("catalog") => Ok(catalog()),
        Some("simulate") => simulate_cmd(&args),
        Some("tune") => tune_cmd(&args),
        Some("analyze") => analyze_cmd(&args),
        Some("pareto") => pareto_cmd(&args),
        Some("serve") => serve_cmd(&args),
        Some("help") | None => Ok(help()),
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Test helper shared by the per-command test modules: dispatches a
/// `&str` argument vector.
#[cfg(test)]
pub(crate) fn run_argv(argv: &[&str]) -> Result<String, CliError> {
    let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    dispatch(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_default() {
        assert!(run_argv(&[]).unwrap().contains("USAGE"));
        assert!(run_argv(&["help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run_argv(&["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn serve_has_no_workers_alias() {
        let err = run_argv(&["serve", "--journal-dir", "unused", "--workers", "2"]);
        assert!(
            matches!(&err, Err(CliError::Usage(m)) if m.contains("--workers")),
            "{err:?}"
        );
        assert!(!help().contains("--workers"));
    }
}
