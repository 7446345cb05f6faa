//! Measurement utilities: exact-percentile samples, counters, time series.
//!
//! Every experiment in the paper reports percentiles (P50…P9999 tails are
//! the whole point of Figs. 2–4 and Tables 1/4), so [`Samples`] keeps exact
//! values and computes percentiles by sorting on demand. [`TimeSeries`]
//! bins a quantity over time for the timeline figures (Fig. 11's CPU
//! utilization curves, Fig. 14's loss-rate trace).

use crate::time::{SimDuration, SimTime};
use buf::Buf;

/// An exact sample set with percentile queries.
///
/// Copy-on-write: [`Samples::share`] hands out a clone that shares the
/// buffer, and cloning a shared set only bumps a reference count. A write
/// (`record`, `reserve`, the sort behind `percentile`) takes the buffer
/// back, copying it only while another clone still holds it, so every
/// clone keeps exactly the values and order it was made with.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    buf: Buf,
    sorted: bool,
}

#[expect(
    clippy::disallowed_types,
    reason = "immutable sharing only: the copy-on-write sample buffer"
)]
mod buf {
    use std::sync::Arc;

    /// A sample buffer, either owned or shared read-only between clones.
    #[derive(Clone, Debug)]
    pub(super) enum Buf {
        Own(Vec<f64>),
        Shared(Arc<Vec<f64>>),
    }

    impl Default for Buf {
        fn default() -> Self {
            Buf::Own(Vec::new())
        }
    }

    impl Buf {
        pub(super) fn as_slice(&self) -> &[f64] {
            match self {
                Buf::Own(v) => v,
                Buf::Shared(v) => v,
            }
        }

        /// The buffer, owned; a shared one is thawed first.
        #[inline]
        pub(super) fn to_mut(&mut self) -> &mut Vec<f64> {
            match self {
                Buf::Own(v) => v,
                Buf::Shared(_) => self.thaw(),
            }
        }

        /// Takes the buffer back: moved out of the `Arc` when this is its
        /// last holder, copied while another clone still reads it.
        #[cold]
        #[inline(never)]
        fn thaw(&mut self) -> &mut Vec<f64> {
            let values = match std::mem::take(self) {
                Buf::Own(v) => v,
                Buf::Shared(v) => Arc::unwrap_or_clone(v),
            };
            *self = Buf::Own(values);
            match self {
                Buf::Own(v) => v,
                Buf::Shared(_) => unreachable!("thaw leaves the buffer owned"),
            }
        }

        /// Moves an owned buffer into an `Arc` (no copy) and returns a
        /// reference-count clone.
        pub(super) fn share(&mut self) -> Buf {
            if let Buf::Own(v) = self {
                *self = Buf::Shared(Arc::new(std::mem::take(v)));
            }
            self.clone()
        }

        #[cfg(test)]
        pub(super) fn holders(&self) -> usize {
            match self {
                Buf::Own(_) => 1,
                Buf::Shared(v) => Arc::strong_count(v),
            }
        }
    }
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// A clone that shares this set's buffer instead of copying it; both
    /// sides read the same values until one of them writes.
    pub fn share(&mut self) -> Samples {
        Samples {
            buf: self.buf.share(),
            sorted: self.sorted,
        }
    }

    /// Makes room for `additional` more observations, so that a caller
    /// who knows the final count pays for one allocation instead of a
    /// doubling series. Observations are untouched.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.to_mut().reserve(additional);
    }

    /// Records one observation: one branch and a `Vec::push` while the
    /// buffer is owned.
    #[inline]
    pub fn record(&mut self, v: f64) {
        match &mut self.buf {
            Buf::Own(values) => values.push(v),
            Buf::Shared(_) => self.buf.to_mut().push(v),
        }
        self.sorted = false;
    }

    /// Records a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.buf.as_slice().len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.as_slice().is_empty()
    }

    /// Arithmetic mean, or 0 for an empty set. Sums in the buffer's
    /// current order: recording order, or sorted order once a
    /// `percentile` query sorted this set.
    pub fn mean(&self) -> f64 {
        let values = self.buf.as_slice();
        if values.is_empty() {
            return 0.0;
        }
        values.iter().sum::<f64>() / values.len() as f64
    }

    /// Largest observation, or 0 for an empty set. The fold seeds from
    /// the first element (not `0.0`) so an all-negative sample set
    /// reports its true maximum instead of a phantom zero.
    pub fn max(&self) -> f64 {
        let mut it = self.buf.as_slice().iter().copied();
        match it.next() {
            Some(first) => it.fold(first, f64::max),
            None => 0.0,
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.buf.to_mut().sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) by nearest-rank, or 0 for
    /// an empty set. `percentile(99.99)` is the paper's "P9999".
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let values = self.buf.as_slice();
        let n = values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        values[rank.clamp(1, n) - 1]
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

    /// Read-only view of the raw observations: recording order until a
    /// `percentile` query sorts this set. A query on a clone sorts the
    /// clone's own copy, never this set's order.
    pub fn raw(&self) -> &[f64] {
        self.buf.as_slice()
    }

    /// How many sets hold this set's buffer (1 when it is owned).
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        self.buf.holders()
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
    fn recording_into_either_side_of_a_share_leaves_the_other_unchanged() {
        let mut a = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            a.record(v);
        }
        let mut b = a.share();
        assert_eq!(a.raw().as_ptr(), b.raw().as_ptr(), "sharing copies nothing");
        assert_eq!(a.holders(), 2);
        a.record(4.0);
        assert_eq!(a.raw(), [3.0, 1.0, 2.0, 4.0]);
        assert_eq!(b.raw(), [3.0, 1.0, 2.0]);
        assert_eq!(b.holders(), 1);

        let mut c = b.share();
        c.record(5.0);
        b.record(6.0);
        assert_eq!(b.raw(), [3.0, 1.0, 2.0, 6.0]);
        assert_eq!(c.raw(), [3.0, 1.0, 2.0, 5.0]);
        assert_eq!(a.raw(), [3.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn a_query_on_a_shared_clone_sorts_only_the_clone() {
        let values = [5.0, 0.1, 0.7, 3.0, 0.2];
        let mut plain = Samples::new();
        let mut owner = Samples::new();
        for v in values {
            plain.record(v);
            owner.record(v);
        }
        let mut reader = owner.share();
        assert_eq!(reader.percentile(50.0), plain.percentile(50.0));
        assert_eq!(owner.raw(), values, "the owner keeps recording order");
        assert_eq!(reader.raw(), plain.raw(), "the reader sorted its own copy");
        assert_eq!(
            reader.mean().to_bits(),
            plain.mean().to_bits(),
            "a mean after a sort still sums in sorted order"
        );
        // A clone of a sorted shared set starts sorted, as a copy would.
        let mut again = reader.share();
        assert_eq!(again.percentile(100.0), 5.0);
        assert_eq!(again.raw().as_ptr(), reader.raw().as_ptr());
    }

    #[test]
    fn the_last_holder_takes_the_buffer_back_without_a_copy() {
        let mut s = Samples::new();
        s.reserve(16);
        for v in [2.0, 1.0] {
            s.record(v);
        }
        let before = s.raw().as_ptr();
        let reader = s.share();
        drop(reader);
        assert_eq!(s.holders(), 1);
        s.record(3.0);
        assert_eq!(s.raw().as_ptr(), before, "recorded in place");
        assert_eq!(s.raw(), [2.0, 1.0, 3.0]);
        assert_eq!(s.holders(), 1);
        s.share().reserve(4);
        assert_eq!(
            s.raw().as_ptr(),
            before,
            "a reserve on a clone copies the clone"
        );
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
}
