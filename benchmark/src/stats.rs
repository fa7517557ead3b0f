//! Order statistics over small samples.

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// measured duration or a count).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The value at quantile `q ∈ [0, 1]` of an ascending sample, by linear
/// interpolation between closest ranks. Empty samples read 0.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// [`quantile`] of an unsorted sample.
#[must_use]
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values.to_vec()), q)
}

/// Median of an unsorted sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so a spread computed here matches the one the acceptance check takes.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    [cut(1), cut(2), cut(3)]
}

/// The percentiles a timing may be reported at, ascending, in tenths of
/// a percent so that "samples beyond" is whole-number arithmetic.
const TAIL_LADDER_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// How many samples must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The reporting rule for a timing: the highest percentile of the ladder
/// that still has at least ten samples beyond it, with its value; the
/// median when the sample is too small for any of them.
#[must_use]
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let p = TAIL_LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| sorted.len() * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
        .map_or(50.0, |&p| p as f64 / 10.0);
    (p, quantile(sorted, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_interpolation() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&ramp(5), 0.25), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: not even p75 has ten beyond it.
        assert_eq!(tail_percentile(&ramp(19)).0, 50.0);
        // 40 samples: p75 leaves exactly ten.
        assert_eq!(tail_percentile(&ramp(40)).0, 75.0);
        // 99 samples: p90 would leave 9.9.
        assert_eq!(tail_percentile(&ramp(99)).0, 75.0);
        assert_eq!(tail_percentile(&ramp(100)).0, 90.0);
        assert_eq!(tail_percentile(&ramp(200)).0, 95.0);
        assert_eq!(tail_percentile(&ramp(1000)).0, 99.0);
        assert_eq!(tail_percentile(&ramp(10_000)).0, 99.9);
        let (p, v) = tail_percentile(&ramp(101));
        assert_eq!((p, v), (90.0, 91.0));
    }
}
