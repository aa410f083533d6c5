//! Sample summaries under the percentile rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! otherwise the metric is a `null` with the reason.

use mlconf_util::stats::quantile_sorted;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A measured value, or the reason it could not be measured.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The measurement.
    Num(f64),
    /// Why there is no measurement.
    Null(String),
}

impl Value {
    /// The number, if measured.
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Null(_) => None,
        }
    }

    /// A finite number, or a null naming what went wrong.
    pub fn finite(v: f64, what: &str) -> Value {
        if v.is_finite() {
            Value::Num(v)
        } else {
            Value::Null(format!("{what} is not finite"))
        }
    }

    /// `num / den`, or a null when the base is zero.
    pub fn ratio(num: f64, den: f64, what: &str) -> Value {
        if den > 0.0 {
            Value::finite(num / den, what)
        } else {
            Value::Null(format!("{what}: nothing to divide by (base is 0)"))
        }
    }
}

/// How many of `n` samples lie beyond the `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// The `q` quantile of `samples` under the percentile rule.
pub fn percentile(samples: &[f64], q: f64) -> Value {
    let n = samples.len();
    let tail = beyond(n, q);
    if tail < MIN_BEYOND {
        return Value::Null(format!(
            "{n} samples leave {tail} beyond p{}; the rule needs {MIN_BEYOND}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Value::finite(quantile_sorted(&sorted, q), "percentile")
}

/// Plain median of a non-empty sample (used for repeated set-up, where
/// the percentile rule does not apply: it is a median of a few runs).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(matches!(percentile(&samples, 0.99), Value::Null(_)));
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&samples, 0.99)
            .num()
            .expect("1000 samples suffice");
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn median_needs_twenty_samples() {
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(matches!(percentile(&samples, 0.5), Value::Null(_)));
        let samples: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Value::Num(9.5));
    }

    #[test]
    fn the_tail_count_is_exact_at_the_boundaries() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1999, 0.99), 19);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn ratios_refuse_a_zero_base() {
        assert_eq!(Value::ratio(3.0, 2.0, "x"), Value::Num(1.5));
        assert!(matches!(Value::ratio(1.0, 0.0, "x"), Value::Null(_)));
    }
}
