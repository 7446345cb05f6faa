//! Measurement utilities: exact-percentile samples, counters, time series.
//!
//! Every experiment in the paper reports percentiles (P50…P9999 tails are
//! the whole point of Figs. 2–4 and Tables 1/4), so [`Samples`] keeps exact
//! values and computes percentiles by sorting on demand. [`TimeSeries`]
//! bins a quantity over time for the timeline figures (Fig. 11's CPU
//! utilization curves, Fig. 14's loss-rate trace).

use crate::time::{SimDuration, SimTime};

/// An exact sample set with percentile queries.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Makes room for `additional` more observations, so that a caller
    /// who knows the final count pays for one allocation instead of a
    /// doubling series. Observations are untouched.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Records a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Largest observation, or 0 for an empty set. The fold seeds from
    /// the first element (not `0.0`) so an all-negative sample set
    /// reports its true maximum instead of a phantom zero.
    pub fn max(&self) -> f64 {
        let mut it = self.values.iter().copied();
        match it.next() {
            Some(first) => it.fold(first, f64::max),
            None => 0.0,
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) by nearest-rank, or 0 for
    /// an empty set. `percentile(99.99)` is the paper's "P9999".
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    /// Convenience: `(mean, p50, p90, p99, p999, p9999)` — the tuple the
    /// paper's utilization and completion-time tables report.
    pub fn summary(&mut self) -> (f64, f64, f64, f64, f64, f64) {
        (
            self.mean(),
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(99.9),
            self.percentile(99.99),
        )
    }

    /// Read-only view of the raw observations (unsorted order not
    /// guaranteed after percentile queries).
    pub fn raw(&self) -> &[f64] {
        &self.values
    }
}

/// A labelled monotonic counter set for loss/throughput accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter {
    /// Events that completed successfully (e.g. packets delivered).
    pub ok: u64,
    /// Events that were dropped or failed.
    pub dropped: u64,
}

impl Counter {
    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.ok + self.dropped
    }

    /// Fraction of events dropped, or 0 when nothing was observed.
    pub fn loss_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.dropped as f64 / self.total() as f64
        }
    }
}

/// A quantity accumulated into fixed-width time bins.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bin: SimDuration,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin.nanos() > 0);
        TimeSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Adds `amount` to the bin covering `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let idx = (at.nanos() / self.bin.nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// The bin width.
    pub fn bin_width(&self) -> SimDuration {
        self.bin
    }

    /// `(bin_start_time_secs, value)` pairs for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * self.bin.as_secs_f64(), v))
            .collect()
    }

    /// Value of the bin covering `at` (0 when out of range).
    pub fn at(&self, at: SimTime) -> f64 {
        let idx = (at.nanos() / self.bin.nanos()) as usize;
        self.bins.get(idx).copied().unwrap_or(0.0)
    }

    /// Divides each bin by `other`'s matching bin, yielding rates
    /// (e.g. drops / total = loss rate per bin). Missing bins produce 0.
    pub fn ratio(&self, other: &TimeSeries) -> Vec<(f64, f64)> {
        assert_eq!(self.bin, other.bin, "bin widths must match");
        let n = self.bins.len().max(other.bins.len());
        (0..n)
            .map(|i| {
                let num = self.bins.get(i).copied().unwrap_or(0.0);
                let den = other.bins.get(i).copied().unwrap_or(0.0);
                let r = if den == 0.0 { 0.0 } else { num / den };
                (i as f64 * self.bin.as_secs_f64(), r)
            })
            .collect()
    }
}

/// Builds a CDF `(value, cumulative_fraction)` from raw observations — the
/// presentation format of the paper's Fig. 4.
pub fn cdf(samples: &Samples) -> Vec<(f64, f64)> {
    let mut v = samples.raw().to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_samples_are_zero() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn mean_max_and_summary() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.max(), 10.0);
        let (mean, p50, _, _, _, p9999) = s.summary();
        assert_eq!(mean, 4.0);
        assert_eq!(p50, 2.0);
        assert_eq!(p9999, 10.0);
    }

    #[test]
    fn max_of_all_negative_samples_is_not_zero() {
        // Regression: max() used to fold from 0.0, so a strictly
        // negative sample set (e.g. clock-skew deltas) reported max 0.
        let mut s = Samples::new();
        for v in [-5.0, -2.5, -9.0] {
            s.record(v);
        }
        assert_eq!(s.max(), -2.5);
        let mut single = Samples::new();
        single.record(-1.0);
        assert_eq!(single.max(), -1.0);
    }

    #[test]
    fn reserve_changes_neither_len_nor_raw() {
        let mut s = Samples::new();
        s.reserve(1_000);
        assert!(s.is_empty());
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        let before = s.raw().to_vec();
        s.reserve(1_000_000);
        assert_eq!(s.len(), 3);
        assert_eq!(s.raw(), before);
        assert_eq!(s.percentile(50.0), 2.0, "still sorts on demand");
    }

    #[test]
    fn record_duration_stores_seconds() {
        let mut s = Samples::new();
        s.record_duration(SimDuration::from_millis(1500));
        assert!((s.raw()[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn counter_loss_rate() {
        let c = Counter {
            ok: 90,
            dropped: 10,
        };
        assert_eq!(c.total(), 100);
        assert!((c.loss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(Counter::default().loss_rate(), 0.0);
    }

    #[test]
    fn time_series_binning() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime(0), 1.0);
        ts.add(SimTime(999_999_999), 2.0);
        ts.add(SimTime(1_000_000_000), 5.0);
        assert_eq!(ts.at(SimTime(500_000_000)), 3.0);
        assert_eq!(ts.at(SimTime(1_500_000_000)), 5.0);
        assert_eq!(ts.at(SimTime(99_000_000_000)), 0.0);
        let pts = ts.points();
        assert_eq!(pts, vec![(0.0, 3.0), (1.0, 5.0)]);
        assert_eq!(ts.bin_width(), SimDuration::from_secs(1));
    }

    #[test]
    fn time_series_ratio() {
        let mut drops = TimeSeries::new(SimDuration::from_secs(1));
        let mut total = TimeSeries::new(SimDuration::from_secs(1));
        drops.add(SimTime(0), 1.0);
        total.add(SimTime(0), 10.0);
        total.add(SimTime(1_000_000_000), 4.0);
        let r = drops.ratio(&total);
        assert_eq!(r, vec![(0.0, 0.1), (1.0, 0.0)]);
    }

    #[test]
    fn cdf_shape() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        let c = cdf(&s);
        assert_eq!(c[0], (1.0, 1.0 / 3.0));
        assert_eq!(c[2], (3.0, 1.0));
    }
}
