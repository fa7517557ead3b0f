//! Statistical helpers for experiment estimates.

/// Wilson score interval for a binomial proportion.
///
/// Preferred over the normal approximation because cheat-success rates sit
/// near 0 where the naive interval degenerates.
///
/// # Panics
///
/// Panics if `trials == 0`, `successes > trials`, or `z ≤ 0`.
///
/// # Examples
///
/// ```
/// let (lo, hi) = ugc_bench::wilson_interval(5, 100, 1.96);
/// assert!(lo > 0.0 && lo < 0.05);
/// assert!(hi > 0.05 && hi < 0.15);
/// ```
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(trials > 0, "trials must be positive");
    assert!(successes <= trials, "successes exceed trials");
    assert!(z > 0.0 && z.is_finite(), "z must be positive");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count,
            mean,
            variance,
            min,
            max,
        }
    }

    /// Standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_contains_point_estimate() {
        let (lo, hi) = wilson_interval(30, 100, 1.96);
        assert!(lo < 0.3 && 0.3 < hi);
    }

    #[test]
    fn wilson_handles_zero_successes() {
        let (lo, hi) = wilson_interval(0, 1000, 2.58);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.02);
    }

    #[test]
    fn wilson_handles_all_successes() {
        let (lo, hi) = wilson_interval(1000, 1000, 2.58);
        assert!(lo > 0.98 && lo < 1.0);
        // Floating point may land an ulp below the clamp.
        assert!(hi > 0.999_999 && hi <= 1.0, "hi = {hi}");
    }

    #[test]
    fn wilson_narrows_with_trials() {
        let (lo1, hi1) = wilson_interval(10, 100, 1.96);
        let (lo2, hi2) = wilson_interval(1000, 10_000, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    #[should_panic(expected = "trials must be positive")]
    fn wilson_rejects_zero_trials() {
        let _ = wilson_interval(0, 0, 1.96);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }
}
