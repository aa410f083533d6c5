//! Derivative-free optimizers: Nelder–Mead simplex search (optionally
//! bounded and multi-started) and golden-section line search.
//!
//! These drive two hot paths: maximizing the GP marginal likelihood over
//! kernel hyperparameters, and refining acquisition-function candidates
//! inside the unit hypercube.

use rand::Rng;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options for the Nelder–Mead optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum number of function evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's value spread falls below this.
    pub f_tol: f64,
    /// Terminate when the simplex's coordinate spread falls below this.
    pub x_tol: f64,
    /// Initial simplex edge length (per coordinate, scaled by bounds if
    /// present).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
}

/// Minimizes `f` from `x0` with the Nelder–Mead simplex method.
///
/// If `bounds` is provided, every candidate is clamped into the box before
/// evaluation (a simple but effective way to keep the simplex feasible).
///
/// # Panics
///
/// Panics if `x0` is empty or `bounds` (when given) has a different length
/// than `x0` or any `lo > hi`.
pub fn nelder_mead(
    f: &mut dyn FnMut(&[f64]) -> f64,
    x0: &[f64],
    bounds: Option<&[(f64, f64)]>,
    opts: &NelderMeadOptions,
) -> OptimResult {
    assert!(!x0.is_empty(), "nelder_mead needs at least one dimension");
    if let Some(b) = bounds {
        assert_eq!(b.len(), x0.len(), "bounds length mismatch");
        for &(lo, hi) in b {
            assert!(lo <= hi, "invalid bound [{lo}, {hi}]");
        }
    }
    let n = x0.len();
    let clamp = |x: &mut [f64]| {
        if let Some(b) = bounds {
            for (xi, &(lo, hi)) in x.iter_mut().zip(b) {
                *xi = xi.clamp(lo, hi);
            }
        }
    };

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Build the initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut start = x0.to_vec();
    clamp(&mut start);
    simplex.push(start.clone());
    for i in 0..n {
        let mut p = start.clone();
        let scale = match bounds {
            Some(b) => (b[i].1 - b[i].0).max(1e-12),
            None => p[i].abs().max(1.0),
        };
        p[i] += opts.initial_step * scale;
        clamp(&mut p);
        if p == start {
            // Clamping collapsed the vertex onto x0; step the other way.
            p[i] -= 2.0 * opts.initial_step * scale;
            clamp(&mut p);
        }
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex.iter().map(|p| eval(p, &mut evals)).collect();

    // Standard coefficients.
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    while evals < opts.max_evals {
        // Order the simplex by value (stable: ties keep their order),
        // moving each vertex into place rather than copying it.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN filtered"));
        simplex = idx
            .iter()
            .map(|&i| std::mem::take(&mut simplex[i]))
            .collect();
        values = idx.iter().map(|&i| values[i]).collect();

        // Convergence checks.
        let f_spread = values[n] - values[0];
        let x_spread = (0..n)
            .map(|d| {
                let mx = simplex.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p[d]));
                let mn = simplex.iter().fold(f64::INFINITY, |m, p| m.min(p[d]));
                mx - mn
            })
            .fold(0.0, f64::max);
        if f_spread < opts.f_tol && x_spread < opts.x_tol {
            break;
        }

        // Centroid of all but the worst.
        let centroid: Vec<f64> = (0..n)
            .map(|d| simplex[..n].iter().map(|p| p[d]).sum::<f64>() / n as f64)
            .collect();

        // Reflection.
        let mut xr: Vec<f64> = centroid
            .iter()
            .zip(&simplex[n])
            .map(|(c, w)| c + ALPHA * (c - w))
            .collect();
        clamp(&mut xr);
        let fr = eval(&xr, &mut evals);

        if fr < values[0] {
            // Expansion.
            let mut xe: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n])
                .map(|(c, w)| c + GAMMA * (c - w))
                .collect();
            clamp(&mut xe);
            let fe = eval(&xe, &mut evals);
            if fe < fr {
                simplex[n] = xe;
                values[n] = fe;
            } else {
                simplex[n] = xr;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = xr;
            values[n] = fr;
        } else {
            // Contraction (outside if fr better than worst, else inside).
            let (towards, f_ref) = if fr < values[n] {
                (xr.clone(), fr)
            } else {
                (simplex[n].clone(), values[n])
            };
            let mut xc: Vec<f64> = centroid
                .iter()
                .zip(&towards)
                .map(|(c, w)| c + RHO * (w - c))
                .collect();
            clamp(&mut xc);
            let fc = eval(&xc, &mut evals);
            if fc < f_ref {
                simplex[n] = xc;
                values[n] = fc;
            } else {
                // Shrink towards the best vertex.
                let best = simplex[0].clone();
                for i in 1..=n {
                    for d in 0..n {
                        simplex[i][d] = best[d] + SIGMA * (simplex[i][d] - best[d]);
                    }
                    let mut p = simplex[i].clone();
                    clamp(&mut p);
                    simplex[i] = p;
                    values[i] = eval(&simplex[i], &mut evals);
                }
            }
        }
    }

    let best = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN filtered"))
        .map(|(i, _)| i)
        .expect("non-empty simplex");
    OptimResult {
        x: simplex[best].clone(),
        fx: values[best],
        evals,
    }
}

/// Draws the start points for a multi-start run. All points are drawn
/// up front in start order, so the RNG stream consumed does not depend
/// on how many threads then run the restarts.
fn draw_starts<R: Rng + ?Sized>(
    bounds: &[(f64, f64)],
    starts: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    (0..starts)
        .map(|_| {
            bounds
                .iter()
                .map(
                    |&(lo, hi)| {
                        if lo == hi {
                            lo
                        } else {
                            rng.gen_range(lo..hi)
                        }
                    },
                )
                .collect()
        })
        .collect()
}

/// Picks the best restart result, breaking ties by lowest start index
/// (matching a sequential keep-first fold), and sums evaluation counts.
fn fold_best(results: Vec<OptimResult>) -> OptimResult {
    let mut best: Option<OptimResult> = None;
    let mut total_evals = 0usize;
    for r in results {
        total_evals += r.evals;
        match &best {
            Some(b) if b.fx <= r.fx => {}
            _ => best = Some(r),
        }
    }
    let mut b = best.expect("at least one start");
    b.evals = total_evals;
    b
}

thread_local! {
    /// The calling thread's worker count; `0` means the default.
    static THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Sets how many threads the calling thread's parallel sections
/// ([`claim_map`] and everything built on it) may use; `0` restores the
/// default, the machine's available parallelism. The setting belongs to
/// the calling thread alone: threads spawned afterwards start at the
/// default.
///
/// A caller that already runs beside others, such as a server thread
/// serving one request at a time, sets `1` so its GP work stays on its
/// own thread; a lone caller keeps the default and gets every core.
pub fn set_threads(n: usize) {
    THREADS.with(|t| t.set(n));
}

/// Number of worker threads the calling thread's parallel sections may
/// use: its [`set_threads`] count, or by default the machine's
/// available hardware parallelism (1 if unknown). This is the one place
/// that reads the hardware parallelism.
#[allow(clippy::disallowed_methods)]
pub fn auto_threads() -> usize {
    match THREADS.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

/// Runs `job(0)`, …, `job(jobs - 1)` and returns the results in index
/// order.
///
/// Up to [`auto_threads`] threads — the caller plus scoped helpers —
/// *claim* indices from a shared counter until none are left. Jobs may
/// vary widely in cost (a Nelder–Mead start near a flat region converges
/// in a handful of steps, one across a ridge burns its whole budget), so
/// claiming keeps every thread busy where a static split could strand
/// one thread with all the expensive jobs. At one thread, or one job,
/// everything runs on the caller's thread and nothing is spawned.
///
/// Which thread ran a job is scheduling noise: each result lands in its
/// job's slot, so for a `job` that is a deterministic function of its
/// index the output is bit-identical for any thread count.
///
/// # Panics
///
/// Propagates a panic from `job`.
// The one pool: `clippy.toml` bans `crossbeam::thread::scope` elsewhere.
#[allow(clippy::disallowed_methods)]
pub fn claim_map<T: Send>(jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = auto_threads().min(jobs);
    if threads <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results come
            // back through the join, which orders them.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
    crossbeam::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(|_| claim())).collect();
        let mine = claim();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("claim_map worker panicked"));
        for (i, r) in mine.into_iter().chain(theirs) {
            slots[i] = Some(r);
        }
    })
    .expect("claim_map scope failed");
    slots
        .into_iter()
        .map(|r| r.expect("every job claimed exactly once"))
        .collect()
}

/// Runs [`nelder_mead`] from `starts` random points inside `bounds` and
/// returns the best result. The restarts run through [`claim_map`], so
/// they use the calling thread's [`auto_threads`] count.
///
/// Seed-stable by construction: every start point is drawn from `rng`
/// up front in start order (a Nelder–Mead run itself consumes no
/// randomness), each restart is a deterministic function of its start
/// point, and the winner is folded in start order, keeping the earliest
/// of equal values — so the result is bit-identical for any thread
/// count.
///
/// # Panics
///
/// Panics if `bounds` is empty, any `lo > hi`, or `starts == 0`, and
/// propagates panics from objective evaluations on worker threads.
pub fn multi_start_nelder_mead<R: Rng + ?Sized>(
    f: &(dyn Fn(&[f64]) -> f64 + Sync),
    bounds: &[(f64, f64)],
    starts: usize,
    opts: &NelderMeadOptions,
    rng: &mut R,
) -> OptimResult {
    assert!(!bounds.is_empty(), "empty bounds");
    assert!(starts > 0, "starts must be positive");
    let start_points = draw_starts(bounds, starts, rng);
    fold_best(claim_map(starts, |i| {
        nelder_mead(&mut |x| f(x), &start_points[i], Some(bounds), opts)
    }))
}

/// Golden-section search for the minimum of a unimodal 1-D function on
/// `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo >= hi` or `iters == 0`.
pub fn golden_section(f: &mut dyn FnMut(f64) -> f64, lo: f64, hi: f64, iters: usize) -> (f64, f64) {
    assert!(lo < hi, "golden_section needs lo < hi");
    assert!(iters > 0, "golden_section needs iters > 0");
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..iters {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use std::collections::HashSet;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (0..x.len() - 1)
            .map(|i| 100.0 * (x[i + 1] - x[i] * x[i]).powi(2) + (1.0 - x[i]).powi(2))
            .sum()
    }

    #[test]
    fn minimizes_sphere() {
        let mut f = |x: &[f64]| sphere(x);
        let r = nelder_mead(
            &mut f,
            &[3.0, -2.0, 1.0],
            None,
            &NelderMeadOptions::default(),
        );
        assert!(r.fx < 1e-6, "fx = {}", r.fx);
        for xi in &r.x {
            assert!(xi.abs() < 1e-3);
        }
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let mut f = |x: &[f64]| rosenbrock(x);
        let opts = NelderMeadOptions {
            max_evals: 2000,
            ..Default::default()
        };
        let r = nelder_mead(&mut f, &[-1.0, 1.5], None, &opts);
        assert!(r.fx < 1e-4, "fx = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 0.05 && (r.x[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained min at (0,0) but box forces x >= 1.
        let mut f = |x: &[f64]| sphere(x);
        let bounds = [(1.0, 5.0), (1.0, 5.0)];
        let r = nelder_mead(
            &mut f,
            &[3.0, 4.0],
            Some(&bounds),
            &NelderMeadOptions::default(),
        );
        for xi in &r.x {
            assert!(*xi >= 1.0 - 1e-12 && *xi <= 5.0 + 1e-12);
        }
        assert!(
            (r.fx - 2.0).abs() < 1e-3,
            "should hit corner (1,1), fx={}",
            r.fx
        );
    }

    #[test]
    fn handles_nan_objective() {
        // NaN regions are treated as +inf, not propagated.
        let mut f = |x: &[f64]| {
            if x[0] < 0.0 {
                f64::NAN
            } else {
                (x[0] - 2.0).powi(2)
            }
        };
        let r = nelder_mead(&mut f, &[5.0], None, &NelderMeadOptions::default());
        assert!((r.x[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // Double well: minima at x=-1 (f=-1) and x=2 (f=-2).
        let f = |x: &[f64]| {
            let x = x[0];
            let well1 = -1.0 / (1.0 + (x + 1.0).powi(2));
            let well2 = -2.0 / (1.0 + (x - 2.0).powi(2));
            well1 + well2
        };
        for threads in [1, 4] {
            set_threads(threads);
            let r = multi_start_nelder_mead(
                &f,
                &[(-6.0, 6.0)],
                12,
                &NelderMeadOptions::default(),
                &mut Pcg64::seed(11),
            );
            assert!(
                (r.x[0] - 2.0).abs() < 0.1,
                "threads={threads}: found {}",
                r.x[0]
            );
        }
        set_threads(0);
    }

    #[test]
    fn evals_budget_respected() {
        let mut count = 0usize;
        let mut f = |x: &[f64]| {
            count += 1;
            sphere(x)
        };
        let opts = NelderMeadOptions {
            max_evals: 50,
            f_tol: 0.0,
            x_tol: 0.0,
            ..Default::default()
        };
        let r = nelder_mead(&mut f, &[1.0, 1.0, 1.0, 1.0], None, &opts);
        // The shrink step may finish its sweep past the cap, but not by more
        // than one simplex worth of evaluations.
        assert!(count <= 50 + 5, "count = {count}");
        assert_eq!(r.evals, count);
    }

    #[test]
    fn restarts_bit_identical_for_any_thread_count() {
        // The core seed-stability contract: for a fixed RNG seed the
        // restarts return exactly the one-thread result, for any thread
        // count, and leave the caller's RNG in the same state.
        let f = |x: &[f64]| rosenbrock(x) + (3.0 * x[0]).sin();
        let bounds = [(-2.0, 2.0), (-1.0, 3.0)];
        let opts = NelderMeadOptions::default();
        let run = |threads: usize| {
            set_threads(threads);
            let mut rng = Pcg64::seed(42);
            let r = multi_start_nelder_mead(&f, &bounds, 6, &opts, &mut rng);
            (r, rng.gen_range(0.0..1.0))
        };
        let (sequential, next_draw) = run(1);
        for threads in [2, 4, 8] {
            let (parallel, draw) = run(threads);
            assert_eq!(parallel.x, sequential.x, "threads={threads}");
            assert_eq!(
                parallel.fx.to_bits(),
                sequential.fx.to_bits(),
                "threads={threads}"
            );
            assert_eq!(parallel.evals, sequential.evals, "threads={threads}");
            assert_eq!(draw, next_draw, "threads={threads}");
        }
        set_threads(0);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // checks the default against its source
    fn thread_count_defaults_to_available_parallelism() {
        let machine = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(auto_threads(), machine);
    }

    #[test]
    fn set_threads_sets_and_zero_resets() {
        let default = auto_threads();
        set_threads(3);
        assert_eq!(auto_threads(), 3);
        set_threads(1);
        assert_eq!(auto_threads(), 1);
        set_threads(0);
        assert_eq!(auto_threads(), default);
    }

    #[test]
    fn spawned_threads_start_at_the_default() {
        let default = auto_threads();
        set_threads(1);
        let spawned = std::thread::spawn(auto_threads).join().unwrap();
        assert_eq!(spawned, default);
        assert_eq!(auto_threads(), 1, "spawning must not reset the caller");
        set_threads(0);
    }

    /// Runs 64 jobs at `threads` and returns the distinct thread ids that
    /// ran them, checking that results come back in index order.
    fn claim_map_thread_ids(threads: usize) -> HashSet<std::thread::ThreadId> {
        set_threads(threads);
        let out = claim_map(64, |i| {
            // Enough work per job that helpers get to claim some.
            let spin: f64 = (0..2_000).map(|k| ((i * k) as f64).sqrt()).sum();
            (i, std::hint::black_box(spin), std::thread::current().id())
        });
        set_threads(0);
        assert!(out.iter().enumerate().all(|(slot, &(i, _, _))| slot == i));
        out.into_iter().map(|(_, _, id)| id).collect()
    }

    #[test]
    fn claim_map_runs_on_at_most_the_thread_count() {
        for threads in [2, 3, 4] {
            let ids = claim_map_thread_ids(threads);
            assert!(ids.len() <= threads, "{} threads at {threads}", ids.len());
        }
    }

    #[test]
    fn claim_map_at_one_thread_stays_on_the_caller() {
        let ids = claim_map_thread_ids(1);
        assert_eq!(ids, HashSet::from([std::thread::current().id()]));
        assert!(claim_map(0, |i| i).is_empty());
    }

    #[test]
    fn golden_section_finds_minimum() {
        let mut f = |x: f64| (x - 1.3).powi(2) + 0.5;
        let (x, fx) = golden_section(&mut f, -10.0, 10.0, 60);
        assert!((x - 1.3).abs() < 1e-6);
        assert!((fx - 0.5).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn golden_section_rejects_bad_interval() {
        golden_section(&mut |x| x, 1.0, 1.0, 10);
    }

    #[test]
    fn degenerate_bounds_dimension_is_held_fixed() {
        let f = |x: &[f64]| sphere(x);
        let bounds = [(2.0, 2.0), (-5.0, 5.0)];
        let mut rng = Pcg64::seed(13);
        let r = multi_start_nelder_mead(&f, &bounds, 3, &NelderMeadOptions::default(), &mut rng);
        assert!((r.x[0] - 2.0).abs() < 1e-12);
        assert!(r.x[1].abs() < 1e-2);
    }
}
