#![forbid(unsafe_code)]
//! Records the surrogate fast-path baselines to `BENCH_gp.json`.
//!
//! Unlike the criterion benches (interactive, human-read), this runner
//! produces a small committed JSON artifact so the incremental-Cholesky
//! speedup and parallel-hyperopt numbers are pinned in the repo:
//!
//! - `extend_vs_refit`: full GP refit vs incremental `extend` of one
//!   point at n = 80 and n = 200 (the acceptance bar is ≥5× at 200).
//! - `hyperopt`: `fit_optimized` wall time sequential (`set_threads(1)`)
//!   vs the default thread count at n = 60 and n = 200, timed in
//!   interleaved pairs that alternate which side runs first, so both
//!   sides of a pair meet the same host load. The speedup is the median
//!   of the per-pair ratios, with their quartiles beside it. On a
//!   single-core box the sides tie, and the n = 200 acceptance value is
//!   `null` with a reason rather than a pass: there is nothing to
//!   parallelize over, so the speedup bar cannot be measured
//!   (correctness is bit-identical by construction and tests either
//!   way).
//! - `predict_many`: per-point posterior cost at batch 1 / 64 (the chunk
//!   acquisition scoring uses) / 256 / 4096.
//! - `sparse`: the E16 surrogate-at-scale numbers — regret parity of
//!   the forced-sparse BO session vs exact at quick scale, plus
//!   fit+suggest wall time and kernel-eval counts at n = 2k/10k.
//!   The exact path is *measured* at n = 2k and extrapolated cubically
//!   to 10k (an exact 10k fit is an O(n³) ≈ 3·10¹¹-flop Cholesky —
//!   minutes of wall time and ~800 MB, pointless to burn in a bench);
//!   the extrapolation is labeled as such in the artifact.
//! - `sim`: simulator worker-step events per second on a fixed 16-worker
//!   BSP run.
//! - `acceptance`: the E16 + hyperopt booleans CI grep-gates on the
//!   committed artifact (`sparse_regret_parity_small_n`,
//!   `sparse_suggest_bounded_large_n`, `parallel_hyperopt_speedup_at_200`).
//! - `host_cores`: the host's available parallelism, which the hyperopt
//!   speedup depends on.
//!
//! Usage: `cargo run --release -p mlconf-bench --bin bench-baseline`
//! (writes `BENCH_gp.json` in the current directory).

use std::time::Instant;

use mlconf_bench::experiments::e16_sparse::{
    self, CANDIDATES, LARGE_NS, REGRET_PARITY_SLACK, SUGGEST_SPEEDUP_FLOOR,
};
use mlconf_bench::experiments::Scale;
use mlconf_bench::report::json_num;
use mlconf_gp::gp::GaussianProcess;
use mlconf_gp::hyperopt::{fit_optimized, HyperoptOptions};
use mlconf_gp::kernel::{Kernel, KernelFamily};
use mlconf_gp::sparse::{SparseConfig, SparseGaussianProcess};
use mlconf_gp::{PredictWorkspace, Surrogate};
use mlconf_sim::cluster::{machine_by_name, ClusterSpec};
use mlconf_sim::engine::{simulate, SimOptions};
use mlconf_sim::runconfig::{Arch, RunConfig, SyncMode};
use mlconf_util::optim::{auto_threads, set_threads};
use mlconf_util::rng::Pcg64;
use mlconf_util::sampling::latin_hypercube;
use mlconf_workloads::workload::by_name;

const DIMS: usize = 9;

/// Median wall time in seconds of `reps` runs of `f`.
fn median_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn training_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Pcg64::seed(1);
    let xs = latin_hypercube(n, DIMS, &mut rng);
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (v - 0.3).powi(2) * (i + 1) as f64)
                .sum()
        })
        .collect();
    (xs, ys)
}

fn extend_vs_refit(n: usize) -> String {
    let (xs, ys) = training_data(n);
    let base = GaussianProcess::fit(
        Kernel::new(KernelFamily::Matern52, DIMS),
        xs[..n - 1].to_vec(),
        ys[..n - 1].to_vec(),
        1e-4,
    )
    .expect("base fit");
    let refit = median_secs(15, || {
        std::hint::black_box(
            GaussianProcess::fit(
                Kernel::new(KernelFamily::Matern52, DIMS),
                xs.clone(),
                ys.clone(),
                1e-4,
            )
            .expect("refit"),
        );
    });
    let extend = median_secs(15, || {
        std::hint::black_box(base.extend(&xs[n - 1..], &ys[n - 1..]).expect("extend"));
    });
    let speedup = refit / extend;
    println!(
        "extend_vs_refit n={n}: refit {:.3} ms, extend {:.3} ms, speedup {speedup:.1}x",
        refit * 1e3,
        extend * 1e3
    );
    format!(
        "{{\"n\": {n}, \"refit_secs\": {}, \"extend_secs\": {}, \"speedup\": {}}}",
        json_num(refit),
        json_num(extend),
        json_num(speedup)
    )
}

/// Times sequential vs auto-threaded `fit_optimized` at history size
/// `n` in `pairs` interleaved pairs, alternating which side runs first;
/// returns the JSON entry plus the median per-pair speedup.
fn hyperopt_timing(n: usize, pairs: usize) -> (String, f64) {
    let (xs, ys) = training_data(n);
    let template = Kernel::new(KernelFamily::Matern52, DIMS);
    let time_with = |threads: usize| {
        set_threads(threads);
        let mut rng = Pcg64::seed(2);
        let start = Instant::now();
        std::hint::black_box(
            fit_optimized(&template, &xs, &ys, &HyperoptOptions::default(), &mut rng)
                .expect("hyperopt"),
        );
        start.elapsed().as_secs_f64()
    };
    let (mut sequential, mut parallel, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (seq, par) = if pair % 2 == 0 {
            (time_with(1), time_with(0))
        } else {
            let par = time_with(0);
            (time_with(1), par)
        };
        sequential.push(seq);
        parallel.push(par);
        ratios.push(seq / par);
    }
    set_threads(0);
    // Rank quartiles of the sorted readings.
    let quartiles = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        [v[v.len() / 4], v[v.len() / 2], v[3 * v.len() / 4]]
    };
    let [_, sequential, _] = quartiles(&mut sequential);
    let [_, parallel, _] = quartiles(&mut parallel);
    let [q1, speedup, q3] = quartiles(&mut ratios);
    let threads = auto_threads();
    println!(
        "hyperopt n={n}: sequential {:.1} ms, auto ({threads} threads) {:.1} ms; \
         per-pair speedup {speedup:.2}x (quartiles {q1:.2}-{q3:.2}x, {pairs} pairs)",
        sequential * 1e3,
        parallel * 1e3
    );
    let entry = format!(
        "{{\"n\": {n}, \"auto_threads\": {threads}, \"pairs\": {pairs}, \
         \"sequential_secs\": {}, \"parallel_secs\": {}, \"speedup\": {}, \
         \"speedup_q1\": {}, \"speedup_q3\": {}}}",
        json_num(sequential),
        json_num(parallel),
        json_num(speedup),
        json_num(q1),
        json_num(q3)
    );
    (entry, speedup)
}

/// The 256-candidate query batch scored after each fit (same shape the
/// E16 eval-count helper uses).
fn suggest_queries() -> Vec<Vec<f64>> {
    (0..CANDIDATES)
        .map(|i| vec![i as f64 / CANDIDATES as f64; DIMS])
        .collect()
}

/// Median wall time of one sparse fit + candidate scoring pass at
/// history size `n` (production `SparseConfig::default()` budget).
fn time_sparse_suggest(n: usize, reps: usize) -> f64 {
    let (xs, ys) = training_data(n);
    let queries = suggest_queries();
    let cfg = SparseConfig::default();
    median_secs(reps, || {
        let sparse = SparseGaussianProcess::fit(
            Kernel::new(KernelFamily::Matern52, DIMS),
            &xs,
            &ys,
            1e-4,
            &cfg,
        )
        .expect("sparse fit");
        let mut ws = PredictWorkspace::default();
        for q in &queries {
            std::hint::black_box(sparse.predict_with(q, &mut ws));
        }
    })
}

/// Median wall time of one exact fit + candidate scoring pass at `n`.
fn time_exact_suggest(n: usize, reps: usize) -> f64 {
    let (xs, ys) = training_data(n);
    let queries = suggest_queries();
    median_secs(reps, || {
        let gp = GaussianProcess::fit(
            Kernel::new(KernelFamily::Matern52, DIMS),
            xs.clone(),
            ys.clone(),
            1e-4,
        )
        .expect("exact fit");
        let mut ws = PredictWorkspace::default();
        for q in &queries {
            std::hint::black_box(gp.predict_with(q, &mut ws));
        }
    })
}

/// The E16 large-n half: sparse vs exact fit+suggest at n = 2k/10k.
/// Returns the JSON block plus the `sparse_suggest_bounded_large_n`
/// acceptance boolean (both the wall-clock and the deterministic
/// kernel-eval ratio must clear [`SUGGEST_SPEEDUP_FLOOR`] at 10k).
fn sparse_suggest_scaling() -> (String, bool) {
    let base_n = LARGE_NS[0];
    let exact_base = time_exact_suggest(base_n, 3);
    let mut entries = Vec::new();
    let mut bounded = true;
    for &n in &LARGE_NS {
        let sparse_secs = time_sparse_suggest(n, 5);
        let cost = e16_sparse::suggest_cost(n);
        let (exact_secs, exact_basis) = if n == base_n {
            (exact_base, "measured")
        } else {
            // One exact fit at this n is an O(n³) Cholesky; scale the
            // measured base cubically rather than burning minutes.
            let scaled = exact_base * (n as f64 / base_n as f64).powi(3);
            (scaled, "extrapolated_cubic_from_2k")
        };
        let time_speedup = exact_secs / sparse_secs;
        let eval_speedup = cost.speedup();
        println!(
            "sparse suggest n={n}: sparse {:.1} ms, exact ({exact_basis}) {:.1} ms \
             ({time_speedup:.0}x wall, {eval_speedup:.0}x kernel evals)",
            sparse_secs * 1e3,
            exact_secs * 1e3
        );
        if n == *LARGE_NS.last().expect("non-empty") {
            bounded =
                time_speedup >= SUGGEST_SPEEDUP_FLOOR && eval_speedup >= SUGGEST_SPEEDUP_FLOOR;
        }
        entries.push(format!(
            "{{\"n\": {n}, \"subset\": {}, \"sparse_secs\": {}, \"exact_secs\": {}, \
             \"exact_basis\": \"{exact_basis}\", \"time_speedup\": {}, \
             \"sparse_kernel_evals\": {}, \"exact_kernel_evals\": {}, \"eval_speedup\": {}}}",
            cost.m,
            json_num(sparse_secs),
            json_num(exact_secs),
            json_num(time_speedup),
            cost.sparse_evals,
            cost.exact_evals,
            json_num(eval_speedup)
        ));
    }
    (format!("[{}]", entries.join(", ")), bounded)
}

/// The E16 small-n half: regret parity of the forced-sparse BO session
/// vs exact at quick scale. Returns the JSON block plus the
/// `sparse_regret_parity_small_n` acceptance boolean.
fn sparse_regret_parity() -> (String, bool) {
    let scale = Scale::quick();
    let parity = e16_sparse::regret_parity(&scale);
    let ratio = parity.parity();
    let ok = ratio.is_finite() && ratio <= REGRET_PARITY_SLACK;
    println!(
        "sparse regret parity (budget {}, seeds {:?}): exact {:.4}, sparse {:.4} ({ratio:.4}x)",
        scale.budget, scale.seeds, parity.exact, parity.sparse
    );
    let json = format!(
        "{{\"budget\": {}, \"seeds\": {:?}, \"exact_best_over_oracle\": {}, \
         \"sparse_best_over_oracle\": {}, \"parity\": {}, \"slack\": {REGRET_PARITY_SLACK}}}",
        scale.budget,
        scale.seeds,
        json_num(parity.exact),
        json_num(parity.sparse),
        json_num(ratio)
    );
    (json, ok)
}

fn predict_many_timing() -> String {
    let (xs, ys) = training_data(160);
    let gp =
        GaussianProcess::fit(Kernel::new(KernelFamily::Matern52, DIMS), xs, ys, 1e-4).expect("fit");
    let mut cases = Vec::new();
    for batch in [1usize, 64, 256, 4096] {
        let mut rng = Pcg64::seed(3);
        let queries = latin_hypercube(batch, DIMS, &mut rng);
        let total = median_secs(9, || {
            std::hint::black_box(gp.predict_many(&queries));
        });
        let per_point = total / batch as f64;
        println!(
            "predict_many n=160 batch={batch}: {:.3} us/point",
            per_point * 1e6
        );
        cases.push(format!(
            "{{\"batch\": {batch}, \"total_secs\": {}, \"per_point_secs\": {}}}",
            json_num(total),
            json_num(per_point)
        ));
    }
    format!("[{}]", cases.join(", "))
}

fn sim_events_per_sec() -> String {
    let workload = by_name("mlp-mnist").expect("suite workload");
    let rc = RunConfig::new(
        ClusterSpec::new(machine_by_name("c4.2xlarge").expect("catalog"), 16),
        Arch::ParameterServer {
            num_ps: 2,
            sync: SyncMode::Bsp,
        },
        64,
        8,
        false,
    )
    .expect("valid config");
    let opts = SimOptions {
        steps_per_worker: 512,
        ..SimOptions::default()
    };
    let mut steps = 0u64;
    let secs = median_secs(9, || {
        let mut rng = Pcg64::seed(4);
        let result = simulate(workload.job(), &rc, &opts, &mut rng);
        steps = std::hint::black_box(result.steps_measured());
    });
    // Every worker advances through steps_per_worker step events; the
    // measured window excludes warmup, so report both.
    let workers = u64::from(rc.num_workers());
    let total_events = u64::from(opts.steps_per_worker) * workers;
    let events_per_sec = total_events as f64 / secs;
    println!(
        "sim 16-node BSP: {total_events} worker-step events in {:.2} ms \
         ({events_per_sec:.0} events/sec)",
        secs * 1e3
    );
    format!(
        "{{\"workers\": {workers}, \"steps_per_worker\": {}, \"measured_steps\": {steps}, \
         \"run_secs\": {}, \"events_per_sec\": {}}}",
        opts.steps_per_worker,
        json_num(secs),
        json_num(events_per_sec)
    )
}

fn main() {
    println!("bench-baseline: timing surrogate fast paths (release medians)");
    let host_cores = auto_threads();
    let extend_small = extend_vs_refit(80);
    let extend_large = extend_vs_refit(200);
    let (hyperopt_small, _) = hyperopt_timing(60, 9);
    let (hyperopt_large, hyperopt_speedup) = hyperopt_timing(200, 9);
    let predict = predict_many_timing();
    let (sparse_scaling, suggest_bounded) = sparse_suggest_scaling();
    let (parity, parity_ok) = sparse_regret_parity();
    let sim = sim_events_per_sec();

    // A single-core host has nothing to parallelize over: the restart
    // scheduler degenerates to the sequential order by construction
    // (and stays bit-identical), so the speedup bar cannot be measured
    // there. Record null and the reason rather than a pass.
    let (hyperopt_ok, hyperopt_reason) = if host_cores < 2 {
        (
            "null",
            ",\n    \"parallel_hyperopt_speedup_at_200_reason\": \
             \"one core: no second thread to run restarts on\"",
        )
    } else {
        (
            if hyperopt_speedup >= 1.5 {
                "true"
            } else {
                "false"
            },
            "",
        )
    };
    let json = format!(
        "{{\n  \"host_cores\": {host_cores},\n  \
         \"extend_vs_refit\": [{extend_small}, {extend_large}],\n  \
         \"hyperopt\": [{hyperopt_small}, {hyperopt_large}],\n  \
         \"predict_many\": {predict},\n  \
         \"sparse\": {{\n    \"regret_parity\": {parity},\n    \"large_n\": {sparse_scaling}\n  }},\n  \
         \"sim\": {sim},\n  \
         \"acceptance\": {{\n    \
         \"sparse_regret_parity_small_n\": {parity_ok},\n    \
         \"sparse_suggest_bounded_large_n\": {suggest_bounded},\n    \
         \"parallel_hyperopt_speedup_at_200\": {hyperopt_ok}{hyperopt_reason}\n  }}\n}}\n"
    );
    std::fs::write("BENCH_gp.json", &json).expect("write BENCH_gp.json");
    println!("wrote BENCH_gp.json");
}
