#![forbid(unsafe_code)]
//! Experiment runner.
//!
//! ```text
//! experiments <id|all> [--full] [--out <dir>]
//! ```
//!
//! - `<id>` — one of the experiment ids listed by `experiments` with no
//!   arguments (see [`ALL_EXPERIMENTS`]), or `all`.
//! - `--full` — the EXPERIMENTS.md scale (more seeds/workloads/budget);
//!   the default `quick` scale finishes in minutes.
//! - `--out <dir>` — where CSVs are written (default `results/`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mlconf_bench::experiments::{run_experiment, Scale, ALL_EXPERIMENTS};

fn usage() -> ExitCode {
    // Derived from ALL_EXPERIMENTS so the hint can never go stale as
    // experiments are added.
    let first = ALL_EXPERIMENTS.first().expect("non-empty experiment list");
    let last = ALL_EXPERIMENTS.last().expect("non-empty experiment list");
    eprintln!("usage: experiments <{first}..{last}|all> [--full] [--out <dir>]");
    eprintln!("experiments available: {}", ALL_EXPERIMENTS.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut full = false;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => out = PathBuf::from(dir),
                    None => return usage(),
                }
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            id if ALL_EXPERIMENTS.contains(&id) => ids.push(id.to_owned()),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
        i += 1;
    }
    if ids.is_empty() {
        return usage();
    }
    ids.dedup();

    let scale = if full { Scale::full() } else { Scale::quick() };
    println!(
        "running {} experiment(s) at {} scale (seeds {:?}, budget {})\n",
        ids.len(),
        if full { "FULL" } else { "quick" },
        scale.seeds,
        scale.budget
    );

    for id in &ids {
        let started = Instant::now();
        println!("### {id} ###");
        let tables = run_experiment(id, &scale);
        for table in &tables {
            println!("{}", table.render_text());
            match table.write_csv(&out) {
                Ok(path) => println!("csv: {}\n", path.display()),
                Err(e) => eprintln!("failed to write csv for {}: {e}", table.id),
            }
        }
        println!("({id} took {:.1}s)\n", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
