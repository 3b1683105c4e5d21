//! Order statistics over small samples: medians, quartiles, and the highest
//! percentile a sample can support.

/// Linearly interpolated quantile `q` in `[0, 1]` of an ascending slice
/// (the "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// An ascending copy without the non-finite values.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of an unordered sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest finite value; NaN when there is none.
pub fn maximum(values: &[f64]) -> f64 {
    sorted(values).last().copied().unwrap_or(f64::NAN)
}

/// The smallest finite value; NaN when there is none.
pub fn minimum(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(f64::NAN)
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method,
/// which the acceptance check of this benchmark uses): quartile `i` sits at
/// position `i (n + 1) / 4` of the ascending sample, interpolated. `None`
/// with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => f64::NAN,
    }
}

/// The highest whole percentile of an `n`-sample that still has at least
/// `beyond` samples above it (the rule for reporting a tail), or `None` when
/// even the median does not.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n == 0 || beyond >= n {
        return None;
    }
    let p = ((n - beyond) * 100 / n) as u32;
    (p >= 50).then_some(p.min(99))
}

/// Largest relative distance of any value from the median.
pub fn max_deviation(values: &[f64]) -> f64 {
    let m = median(values);
    if !m.is_finite() || m == 0.0 {
        return f64::NAN;
    }
    values
        .iter()
        .map(|v| ((v - m) / m).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0, f64::INFINITY]), 2.0);
        assert_eq!(maximum(&[1.0, f64::NAN, 3.0, f64::INFINITY]), 3.0);
        assert_eq!(minimum(&[f64::NAN, 3.0, 1.0]), 1.0);
        assert!(maximum(&[]).is_nan() && minimum(&[f64::NAN]).is_nan());
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let s = [1.0, 5.0, 9.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 9.0);
        assert_eq!(quantile_sorted(&s, 0.75), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly ten above it, p91 would have nine.
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        assert_eq!(highest_supported_percentile(1_000, 10), Some(99));
        assert_eq!(highest_supported_percentile(40_000, 10), Some(99));
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(0, 10), None);
    }

    #[test]
    fn max_deviation_is_relative_to_the_median() {
        assert!((max_deviation(&[90.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
        assert!(max_deviation(&[0.0, 0.0]).is_nan());
    }
}
