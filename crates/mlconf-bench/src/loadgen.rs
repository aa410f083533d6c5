//! Open-loop load generation for the serve-tier benchmark (E15).
//!
//! An *open-loop* generator decides request arrival times in advance
//! from a stochastic process, independent of how fast the server
//! answers. Latency is then measured from the **scheduled** arrival,
//! not from when the client got around to sending — so a stalled server
//! accrues queueing delay in the recorded tail instead of silently
//! slowing the offered load (the coordinated-omission trap of
//! closed-loop benchmarks).
//!
//! Schedules are deterministic in their seed (PCG64), so a benchmark
//! run offers the same arrival pattern on every arm it compares.

use mlconf_util::rng::Pcg64;
use mlconf_util::stats::quantile_sorted;

/// An arrival process: how request start times are laid out in time.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Memoryless arrivals at `rate` per second (exponential
    /// inter-arrival gaps) — the classic steady open-loop load.
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// On/off arrivals: within each `period`, the first half offers
    /// Poisson load at `2 * rate` and the second half is silent. The
    /// long-run mean is still `rate`, but every burst briefly doubles
    /// it — the shape that exposes queue buildup and tail latency.
    Bursty {
        /// Long-run mean arrivals per second.
        rate: f64,
        /// Seconds per on+off cycle.
        period: f64,
    },
}

impl Arrivals {
    /// Short stable label for CSV/JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            Arrivals::Poisson { .. } => "poisson",
            Arrivals::Bursty { .. } => "bursty",
        }
    }
}

/// A uniform draw in `(0, 1)` (never exactly 0, so `ln` stays finite).
fn uniform(rng: &mut Pcg64) -> f64 {
    use rand::RngCore;
    (((rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64 + 2.0)
}

/// One exponential inter-arrival gap at `rate` per second.
fn exp_gap(rng: &mut Pcg64, rate: f64) -> f64 {
    -uniform(rng).ln() / rate
}

/// `n` arrival times (seconds from the schedule start, nondecreasing),
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics when the process rate (or bursty period) is not positive.
pub fn schedule(arrivals: &Arrivals, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Pcg64::seed(seed);
    let mut times = Vec::with_capacity(n);
    match *arrivals {
        Arrivals::Poisson { rate } => {
            assert!(rate > 0.0, "poisson rate must be positive");
            let mut t = 0.0;
            for _ in 0..n {
                t += exp_gap(&mut rng, rate);
                times.push(t);
            }
        }
        Arrivals::Bursty { rate, period } => {
            assert!(rate > 0.0, "bursty rate must be positive");
            assert!(period > 0.0, "bursty period must be positive");
            // Arrivals come from a Poisson process at 2*rate that only
            // runs during the on-half of each period: whenever `t`
            // lands in an off-window, it jumps to the next period.
            let on = period / 2.0;
            let mut t = 0.0;
            for _ in 0..n {
                t += exp_gap(&mut rng, 2.0 * rate);
                let phase = t.rem_euclid(period);
                if phase >= on {
                    t += period - phase;
                }
                times.push(t);
            }
        }
    }
    times
}

/// Percentile summary of a latency sample (all values in the caller's
/// unit — E15 records milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Sample size.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed.
    pub max: f64,
}

/// Sorts `latencies` in place and reads off the summary percentiles.
///
/// # Panics
///
/// Panics on an empty sample or non-finite values (a benchmark cell
/// that recorded nothing, or recorded garbage, is a harness bug).
pub fn summarize(latencies: &mut [f64]) -> LatencySummary {
    assert!(!latencies.is_empty(), "summary of an empty latency sample");
    assert!(
        latencies.iter().all(|l| l.is_finite()),
        "non-finite latency recorded"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LatencySummary {
        count: latencies.len(),
        p50: quantile_sorted(latencies, 0.50),
        p99: quantile_sorted(latencies, 0.99),
        p999: quantile_sorted(latencies, 0.999),
        max: latencies[latencies.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        for arrivals in [
            Arrivals::Poisson { rate: 50.0 },
            Arrivals::Bursty {
                rate: 50.0,
                period: 0.2,
            },
        ] {
            let a = schedule(&arrivals, 500, 7);
            let b = schedule(&arrivals, 500, 7);
            assert_eq!(a, b, "{arrivals:?} not deterministic");
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{arrivals:?} not nondecreasing"
            );
            let c = schedule(&arrivals, 500, 8);
            assert_ne!(a, c, "{arrivals:?} ignores its seed");
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let times = schedule(&Arrivals::Poisson { rate: 100.0 }, 5000, 11);
        let observed = times.len() as f64 / times.last().unwrap();
        assert!(
            (observed - 100.0).abs() < 10.0,
            "poisson rate drifted: {observed}"
        );
    }

    #[test]
    fn bursty_schedules_leave_the_off_windows_empty() {
        let period = 0.5;
        let times = schedule(&Arrivals::Bursty { rate: 40.0, period }, 2000, 3);
        for &t in &times {
            let phase = t.rem_euclid(period);
            assert!(
                phase < period / 2.0 + 1e-9,
                "arrival at {t} lands in an off window (phase {phase})"
            );
        }
        // Mean rate is preserved despite the on/off gating.
        let observed = times.len() as f64 / times.last().unwrap();
        assert!(
            (observed - 40.0).abs() < 6.0,
            "bursty rate drifted: {observed}"
        );
    }

    #[test]
    fn summary_percentiles_are_order_statistics() {
        let mut lat: Vec<f64> = (1..=1000).rev().map(|v| v as f64).collect();
        let s = summarize(&mut lat);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.5);
        assert!((s.p99 - 990.01).abs() < 0.1, "p99 = {}", s.p99);
        assert!((s.p999 - 999.0).abs() < 0.1, "p999 = {}", s.p999);
        assert_eq!(s.max, 1000.0);
    }
}
