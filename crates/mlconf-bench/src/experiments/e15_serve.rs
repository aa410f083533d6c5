//! E15 — serve tier under open-loop load: throughput and latency SLOs.
//!
//! Claim validated: *the sharded readiness-driven server holds its
//! latency tail as concurrent sessions grow, where a single-shard
//! server (one registry lock, one IO loop — the pre-refactor shape)
//! does not.*
//!
//! Three server arms run the same deterministic arrival schedules:
//!
//! - `sharded` — 8 registry/IO shards, no snapshots;
//! - `single-lock` — 1 shard, the serialized baseline;
//! - `sharded+snap` — 8 shards with a snapshot every 16 ops,
//!   measuring what checkpoint writes cost on the serving path.
//!
//! Load is **open-loop** (see [`crate::loadgen`]): per-session Poisson
//! arrivals with a fixed offered rate, plus a bursty row at the
//! contended session count. One *step* is a `suggest` followed by a
//! `report`, driven over keep-alive connections; its latency is
//! measured from the scheduled arrival, so server stalls surface as
//! queueing delay in the tail instead of quietly thinning the load
//! (no coordinated omission).
//!
//! Besides `results/e15_serve.csv`, `run` writes a `BENCH_serve.json`
//! artifact with sustained throughput and p50/p99/p999 per cell and
//! the acceptance booleans: sharded must match or beat single-lock on
//! p99 at 64 concurrent sessions (and at 512 at full scale).
//!
//! Latency numbers are wall-clock measurements and therefore *not*
//! byte-reproducible across runs — CI runs its reproducibility diff
//! before this experiment.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mlconf_serve::api::outcome_to_json;
use mlconf_serve::client::Client;
use mlconf_serve::json::{obj, Json};
use mlconf_serve::{ServeConfig, Server};
use mlconf_workloads::objective::TrialOutcome;

use crate::loadgen::{schedule, summarize, Arrivals, LatencySummary};
use crate::report::{json_num, Table};

use super::Scale;

/// Driver threads: enough to keep 8 IO shards busy without the client
/// machine becoming the bottleneck under test.
const DRIVERS: usize = 16;

/// One server configuration under test.
struct Arm {
    name: &'static str,
    shards: usize,
    snapshot_every: u64,
}

const ARMS: [Arm; 3] = [
    Arm {
        name: "sharded",
        shards: 8,
        snapshot_every: 0,
    },
    Arm {
        name: "single-lock",
        shards: 1,
        snapshot_every: 0,
    },
    Arm {
        name: "sharded+snap",
        shards: 8,
        snapshot_every: 16,
    },
];

/// E15's own knobs, derived from the generic scale.
struct ServeScale {
    /// `(concurrent sessions, per-session steps/s)` Poisson cells.
    cells: Vec<(usize, f64)>,
    /// Session count for the bursty rows (the contended regime).
    bursty_sessions: usize,
    /// Seconds of offered load per cell.
    window_secs: f64,
}

impl ServeScale {
    /// `Scale::full` (5 seeds) gets the 512-session cell and longer
    /// windows; the quick/CI profile stops at 64 sessions.
    fn from(scale: &Scale) -> Self {
        if scale.seeds.len() >= 5 {
            ServeScale {
                cells: vec![(1, 32.0), (8, 32.0), (64, 16.0), (512, 2.0)],
                bursty_sessions: 64,
                window_secs: 4.0,
            }
        } else {
            ServeScale {
                cells: vec![(1, 16.0), (8, 8.0), (64, 4.0)],
                bursty_sessions: 64,
                window_secs: 1.5,
            }
        }
    }
}

/// Everything measured in one `(arm, sessions, arrivals)` cell.
struct Cell {
    arm: &'static str,
    sessions: usize,
    arrivals: &'static str,
    offered_rps: f64,
    achieved_rps: f64,
    latency: LatencySummary,
    errors: usize,
}

/// One timed unit of work: a step of `session` scheduled at `at` seconds.
#[derive(Clone, Copy)]
struct Event {
    session: usize,
    step: usize,
    at: f64,
}

fn bench_dir(arm: &str, sessions: usize, label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mlconf_e15_{arm}_{sessions}_{label}_{}",
        std::process::id()
    ))
}

/// Runs one cell: boots a server for `arm`, offers `sessions` × `rate`
/// steps/s from the deterministic `arrivals` schedule, and measures.
fn run_cell(arm: &Arm, sessions: usize, rate: f64, arrivals: Arrivals, window_secs: f64) -> Cell {
    let dir = bench_dir(arm.name, sessions, arrivals.label());
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ServeConfig::new(dir.clone());
    config.shards = arm.shards;
    config.snapshot_every = arm.snapshot_every;
    // Shedding is a different experiment: size the connection capacity
    // and per-connection request budget so neither is hit here.
    config.queue_depth = 2048;
    config.max_requests_per_conn = 1_000_000;
    let server = Server::bind("127.0.0.1:0", config).expect("bind benchmark server");
    let addr = server.local_addr().to_string();

    let steps_per_session = (rate * window_secs).ceil() as usize;
    // Budget slack keeps every session mid-run: a finished session
    // would answer `done` instead of exercising the suggest path.
    let budget = steps_per_session + 8;

    let mut setup = Client::new(addr.clone(), 1);
    let ids: Vec<String> = (0..sessions)
        .map(|i| {
            let spec = obj([
                ("tuner", Json::Str("random".into())),
                ("budget", Json::Num(budget as f64)),
                ("seed", Json::Num(1000.0 + i as f64)),
                ("max_nodes", Json::Num(8.0)),
            ]);
            let created = setup.create_session(&spec).expect("create bench session");
            created.get("id").unwrap().as_str().unwrap().to_owned()
        })
        .collect();

    // Deterministic per-session arrival schedules. Each session is
    // pinned to exactly one driver lane — ask/tell is a serial protocol
    // per session, so concurrent steps on one session would race each
    // other's pending suggestion. A lane multiplexes its sessions over
    // one keep-alive connection in scheduled order; because latency is
    // measured from the *scheduled* arrival, any head-of-line delay a
    // busy lane adds is charged to the tail, never hidden.
    let drivers = DRIVERS.min(sessions).max(1);
    let mut lanes: Vec<Vec<Event>> = vec![Vec::new(); drivers];
    for (i, _) in ids.iter().enumerate() {
        for (step, at) in schedule(&arrivals, steps_per_session, 7_700 + i as u64)
            .into_iter()
            .enumerate()
        {
            lanes[i % drivers].push(Event {
                session: i,
                step,
                at,
            });
        }
    }
    for lane in &mut lanes {
        lane.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
    }

    let outcome = outcome_to_json(&TrialOutcome::failed("bench", 1.0));
    let results: Mutex<(Vec<f64>, usize, f64)> = Mutex::new((Vec::new(), 0, 0.0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in &lanes {
            let addr = addr.clone();
            let (ids, outcome, results) = (&ids, &outcome, &results);
            scope.spawn(move || {
                let mut client = Client::new(addr, 2);
                let mut latencies = Vec::with_capacity(lane.len());
                let mut errors = 0usize;
                let mut last_done = 0.0f64;
                for event in lane {
                    let now = start.elapsed().as_secs_f64();
                    if now < event.at {
                        std::thread::sleep(Duration::from_secs_f64(event.at - now));
                    }
                    let id = &ids[event.session];
                    let ok = match client.suggest(id) {
                        Ok(suggestion) => {
                            if suggestion.get("done").and_then(Json::as_bool) == Some(true) {
                                true
                            } else {
                                let executed = obj([("outcome", outcome.clone())]);
                                client.report(id, event.step, &executed).is_ok()
                            }
                        }
                        Err(_) => false,
                    };
                    let done = start.elapsed().as_secs_f64();
                    if ok {
                        latencies.push((done - event.at) * 1000.0);
                    } else {
                        errors += 1;
                    }
                    last_done = done;
                }
                let mut shared = results.lock().unwrap();
                shared.0.extend(latencies);
                shared.1 += errors;
                shared.2 = shared.2.max(last_done);
            });
        }
    });
    let (mut latencies, errors, wall) = results.into_inner().unwrap();

    server.handle().shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();

    let latency = summarize(&mut latencies);
    Cell {
        arm: arm.name,
        sessions,
        arrivals: arrivals.label(),
        offered_rps: rate * sessions as f64,
        achieved_rps: latency.count as f64 / wall.max(1e-9),
        latency,
        errors,
    }
}

/// The p99 of one `(arm, sessions)` Poisson cell, if it ran.
fn p99_at(cells: &[Cell], arm: &str, sessions: usize) -> Option<f64> {
    cells
        .iter()
        .find(|c| c.arm == arm && c.sessions == sessions && c.arrivals == "poisson")
        .map(|c| c.latency.p99)
}

/// Runs the full grid and returns the table plus the JSON artifact.
fn run_grid(serve: &ServeScale, mode: &str) -> (Vec<Table>, String) {
    let mut cells: Vec<Cell> = Vec::new();
    for arm in &ARMS {
        for &(sessions, rate) in &serve.cells {
            println!("  e15: {} × {sessions} sessions (poisson)", arm.name);
            cells.push(run_cell(
                arm,
                sessions,
                rate,
                Arrivals::Poisson { rate },
                serve.window_secs,
            ));
        }
    }
    // Bursty rows at the contended count, for the two shard extremes.
    let bursty_rate = serve
        .cells
        .iter()
        .find(|(s, _)| *s == serve.bursty_sessions)
        .map(|(_, r)| *r);
    if let Some(rate) = bursty_rate {
        for arm in &ARMS {
            if arm.name == "sharded+snap" {
                continue;
            }
            println!(
                "  e15: {} × {} sessions (bursty)",
                arm.name, serve.bursty_sessions
            );
            cells.push(run_cell(
                arm,
                serve.bursty_sessions,
                rate,
                Arrivals::Bursty { rate, period: 0.5 },
                serve.window_secs,
            ));
        }
    }

    let mut t = Table::new(
        "e15_serve",
        "Serve tier under open-loop load: sustained steps/s and \
         latency percentiles per (server arm, concurrent sessions)",
        [
            "arm",
            "sessions",
            "arrivals",
            "offered_rps",
            "achieved_rps",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
            "errors",
        ],
    );
    for c in &cells {
        t.push_row([
            c.arm.to_owned(),
            c.sessions.to_string(),
            c.arrivals.to_owned(),
            format!("{:.1}", c.offered_rps),
            format!("{:.1}", c.achieved_rps),
            format!("{:.3}", c.latency.p50),
            format!("{:.3}", c.latency.p99),
            format!("{:.3}", c.latency.p999),
            format!("{:.3}", c.latency.max),
            c.errors.to_string(),
        ]);
    }
    t.note(
        "one step = suggest + report over keep-alive HTTP; latency from the \
         scheduled open-loop arrival (coordinated-omission corrected)",
    );
    t.note(
        "arms: sharded = 8 registry/IO shards; single-lock = 1 shard \
         (serialized baseline); sharded+snap = 8 shards + a snapshot \
         every 16 ops",
    );

    // Acceptance: sharding must pay off where contention lives.
    let contended: Vec<usize> = serve
        .cells
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| *s >= 64)
        .collect();
    let mut accept = Vec::new();
    for sessions in &contended {
        let won = match (
            p99_at(&cells, "sharded", *sessions),
            p99_at(&cells, "single-lock", *sessions),
        ) {
            (Some(sharded), Some(single)) => sharded <= single,
            _ => false,
        };
        accept.push(format!(
            "    \"sharded_beats_single_lock_p99_at_{sessions}\": {won}"
        ));
    }
    let total_errors: usize = cells.iter().map(|c| c.errors).sum();
    accept.push(format!("    \"zero_errors\": {}", total_errors == 0));

    let cell_blocks: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"arm\": \"{}\", \"sessions\": {}, \"arrivals\": \"{}\", \
                 \"offered_rps\": {}, \"achieved_rps\": {}, \"steps\": {}, \
                 \"p50_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \
                 \"max_ms\": {}, \"errors\": {}}}",
                c.arm,
                c.sessions,
                c.arrivals,
                json_num(c.offered_rps),
                json_num(c.achieved_rps),
                c.latency.count,
                json_num(c.latency.p50),
                json_num(c.latency.p99),
                json_num(c.latency.p999),
                json_num(c.latency.max),
                c.errors
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"e15_serve\",\n  \"mode\": \"{mode}\",\n  \
         \"step\": \"suggest+report over keep-alive HTTP\",\n  \
         \"window_secs\": {},\n  \"driver_threads\": {DRIVERS},\n  \
         \"acceptance\": {{\n{}\n  }},\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_num(serve.window_secs),
        accept.join(",\n"),
        cell_blocks.join(",\n")
    );
    (vec![t], json)
}

/// Runs E15, writing `BENCH_serve.json` (same convention as E14's
/// `BENCH_portfolio.json`).
pub fn run(scale: &Scale) -> Vec<Table> {
    let mode = if scale.seeds.len() >= 5 {
        "full"
    } else {
        "quick"
    };
    let (tables, json) = run_grid(&ServeScale::from(scale), mode);
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("failed to write BENCH_serve.json: {e}"),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural check on a miniature grid: every arm × cell row is
    /// present, the JSON carries the acceptance block, and no request
    /// errored. Latency *values* are wall-clock and not asserted.
    #[test]
    fn mini_grid_covers_arms_and_reports_acceptance() {
        let serve = ServeScale {
            cells: vec![(2, 8.0), (64, 0.5)],
            bursty_sessions: 2,
            window_secs: 0.5,
        };
        let (tables, json) = run_grid(&serve, "test");
        let t = &tables[0];
        // 3 arms × 2 poisson cells + 2 bursty rows.
        assert_eq!(t.rows.len(), 3 * 2 + 2, "{:?}", t.rows);
        for arm in ["sharded", "single-lock", "sharded+snap"] {
            assert!(t.rows.iter().any(|r| r[0] == arm), "missing arm {arm}");
        }
        assert!(t.rows.iter().any(|r| r[2] == "bursty"));
        assert!(
            t.rows.iter().all(|r| r[9] == "0"),
            "benchmark steps errored: {:?}",
            t.rows
        );
        assert!(json.contains("\"acceptance\""), "{json}");
        assert!(
            json.contains("\"sharded_beats_single_lock_p99_at_64\""),
            "{json}"
        );
        assert!(json.contains("\"zero_errors\": true"), "{json}");
    }
}
