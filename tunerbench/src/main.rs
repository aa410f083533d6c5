//! Command line of the benchmark:
//!
//! ```text
//! tunerbench --workload <serve-steady|serve-bo> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Scratch journals live in
//! `.bench_work/` and are removed at exit; reports and spans are written
//! to `.bench_out/`.

use mlconf_serve::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tunerbench::report;
use tunerbench::workload::{self, Plan};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("in 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit, when the checkout is a git repository.
fn commit() -> Json {
    let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Ok(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).map_or(Json::Null, Json::Str),
            None => Json::Str(head),
        },
        Err(_) => Json::Null,
    }
}

/// FNV-1a over the sources the benchmark builds (paths and bytes), so
/// runs of one build can be told apart from runs of another when the
/// checkout carries no commit.
fn source_digest() -> Json {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "tunerbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Json::Str(format!("{hash:016x}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match Plan::new(&args.workload, args.seconds) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", plan.name, std::process::id()));
    let out_dir = PathBuf::from(".bench_out");
    let result = workload::run(&plan, args.seed, args.trace, &work);
    // Removing the scratch journals is best-effort: a leftover directory
    // is named after this process and never reused.
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only succeeds once no other run's scratch is left in it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let commit = commit();
    out.provenance.push((
        "commit",
        if commit == Json::Null {
            Json::Str("null: the checkout is not a git repository".into())
        } else {
            commit
        },
    ));
    out.provenance.push(("source_fnv64", source_digest()));

    let stem = format!("{}-seed{}", plan.name, args.seed);
    let overhead = if args.trace {
        let untraced = std::fs::read_to_string(out_dir.join(format!("{stem}-trace0.json")))
            .ok()
            .and_then(|s| parse(&s).ok());
        report::tracing_overhead(&out.end_to_end, untraced.as_ref())
    } else {
        Vec::new()
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
    }
    let trace_tag = u8::from(args.trace);
    let report_path = out_dir.join(format!("{stem}-trace{trace_tag}.json"));
    if let Err(e) = std::fs::write(&report_path, report::report_json(&out, &overhead).render()) {
        eprintln!("warning: cannot write {}: {e}", report_path.display());
    }
    if args.trace {
        let spans_path = out_dir.join(format!("{stem}-spans.jsonl"));
        let written = std::fs::File::create(&spans_path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| out.tracer.write_jsonl(&mut f));
        if let Err(e) = written {
            eprintln!("warning: cannot write {}: {e}", spans_path.display());
        }
    }
    for line in report::summary(&out, &overhead) {
        println!("{line}");
    }
    println!("{}", report::result_line(&out, args.trace));
    ExitCode::SUCCESS
}
