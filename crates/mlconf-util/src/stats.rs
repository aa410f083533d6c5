//! Streaming and batch statistics used by the simulator's metric sinks and
//! the experiment harness (summaries, quantiles, error metrics).

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean/variance/min/max (Welford's method).
///
/// # Examples
///
/// ```
/// use mlconf_util::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (Bessel-corrected; 0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics (type-7, the numpy default).
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} out of [0,1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Like [`quantile`] but assumes `values` is already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of `values`. See [`quantile`] for edge behaviour.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean absolute percentage error between predictions and ground truth,
/// in percent.
///
/// # Panics
///
/// Panics if the slices have different lengths, are empty, or any truth
/// value is zero.
pub fn mape(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mape length mismatch");
    assert!(!actual.is_empty(), "mape of empty slices");
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(&p, &a)| {
            assert!(a != 0.0, "mape with zero actual value");
            ((p - a) / a).abs()
        })
        .sum();
    100.0 * sum / actual.len() as f64
}

/// Root mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse length mismatch");
    assert!(!actual.is_empty(), "rmse of empty slices");
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(&p, &a)| (p - a) * (p - a))
        .sum();
    (sum / actual.len() as f64).sqrt()
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns 0 if either slice has zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than 2 elements.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson length mismatch");
    assert!(x.len() >= 2, "pearson needs at least 2 points");
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let seq: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..37].iter().copied().collect();
        let b: OnlineStats = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantile_interpolation() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(median(&v), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn error_metrics() {
        let p = [110.0, 90.0];
        let a = [100.0, 100.0];
        assert!((mape(&p, &a) - 10.0).abs() < 1e-12);
        assert!((rmse(&p, &a) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
        let c = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&x, &c), 0.0);
    }
}
