//! Order statistics for repeated timings: median, quartiles, and the
//! rule for which tail percentile a sample count can support.

/// Sorted copy of `v` (timings are finite, so `total_cmp` is a plain
/// numeric order).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// On an empty slice — a timing with no repeats is a bug in the runner.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default *exclusive* method) computes them, so spreads printed
/// here match the ones an outside script would compute.
///
/// # Panics
/// With fewer than two samples (Python raises there too).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    assert!(s.len() >= 2, "quartiles need at least two samples");
    let len = s.len();
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median: the spread figure the
/// A/A check prints and the acceptance rule compares with a bound.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Weighted median of `(value, weight)` pairs: the value at which the
/// weights of the smaller values first reach half the total weight.
///
/// # Panics
/// On an empty slice.
pub fn weighted_median(pairs: &[(f64, f64)]) -> f64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = sorted.iter().map(|(_, w)| w).sum::<f64>() / 2.0;
    let mut acc = 0.0;
    for (value, weight) in &sorted {
        acc += weight;
        if acc >= half {
            return *value;
        }
    }
    sorted.last().expect("weighted median of no samples").0
}

/// `(min, max)`.
pub fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The percentiles a timing may be reported at.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it; `None` below 20 samples (not even a median with a
/// tail of ten).
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn weighted_median_follows_the_weight() {
        // Many light samples at 3.0 do not outvote one heavy one at 1.0.
        let mut pairs = vec![(3.0, 1.0); 10];
        pairs.push((1.0, 100.0));
        assert_eq!(weighted_median(&pairs), 1.0);
        assert_eq!(weighted_median(&[(1.0, 1.0), (2.0, 1.0), (9.0, 1.0)]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
