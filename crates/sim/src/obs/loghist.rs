//! [`LogHistogram`]: a fixed-memory, deterministic, mergeable
//! log-bucketed histogram (HDR-histogram style).
//!
//! [`crate::stats::Samples`] keeps exact values — perfect for end-of-run
//! percentile tables, unusable for a long-running process because memory
//! grows without bound. `LogHistogram` is the streaming complement: a
//! fixed array of counts whose buckets subdivide each power-of-two
//! octave into [`SUB_BUCKETS`] linear sub-buckets, giving a *bounded
//! relative error* on every quantile query (see [`REL_ERROR_BOUND`])
//! from ~30 KB of memory, regardless of how many values are recorded.
//!
//! Determinism and mergeability are load-bearing:
//!
//! - **Bucketing never touches libm.** The bucket index is computed from
//!   the IEEE-754 bit pattern of the value (exponent field + top
//!   mantissa bits), so the same value lands in the same bucket on every
//!   platform, build, and optimization level — no `ln()`/`log2()` whose
//!   last ulp could differ.
//! - **State is pure integer counts plus order-independent extrema.**
//!   Recording is a `u64` increment (plus min/max, which are
//!   associative and commutative) and merging a bucket-wise add, so one
//!   histogram fed the union of the observations in any order and
//!   per-partition histograms merged in any grouping hold
//!   *bit-identical* state. That is what lets the region's window
//!   stream be byte-identical at 1/2/4/8 shards (the region records
//!   each window once, at the barrier, and [`LogHistogram::clear`]s it).
//! - **Recording is allocation-free.** The bucket array is preallocated
//!   at construction; `record` is an index computation plus a counter
//!   increment.

/// Number of linear sub-buckets per power-of-two octave (2^6).
pub const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6;
const SUB_MASK: u64 = (SUB_BUCKETS as u64) - 1;

/// Smallest tracked binary exponent: values in `[2^MIN_EXP, 2^(MAX_EXP+1))`
/// resolve to a log bucket. `2^-30` ≈ 0.93 ns expressed in seconds — far
/// below any latency the simulator produces.
pub const MIN_EXP: i32 = -30;
/// Largest tracked binary exponent (`2^31` ≈ 2.1e9 — far above any
/// latency, utilization, or rate the simulator produces).
pub const MAX_EXP: i32 = 30;
const NUM_OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const NUM_BUCKETS: usize = NUM_OCTAVES * SUB_BUCKETS;

/// Worst-case relative error of any percentile query, for values inside
/// the tracked range `[2^MIN_EXP, 2^(MAX_EXP+1))`.
///
/// A bucket spans `2^e / SUB_BUCKETS` starting at `2^e * (1 + s/64)`;
/// reporting the bucket midpoint puts the answer within half a bucket
/// width of the true value, and the lower edge is at least `2^e`, so the
/// relative error is at most `(2^e/64/2) / 2^e = 1/128` < 0.79%.
pub const REL_ERROR_BOUND: f64 = 1.0 / 128.0;

/// A log-bucketed histogram with fixed memory and mergeable state.
///
/// Values `<= 0` (and NaN) are counted in a dedicated low bucket and
/// represented as `0.0` in quantile answers; values at or above
/// `2^(MAX_EXP+1)` clamp into the topmost bucket. Everything in between
/// obeys [`REL_ERROR_BOUND`].
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Observations `<= 0.0` or NaN.
    low: u64,
    total: u64,
    /// Smallest / largest finite observation, tracked exactly so p0/p100
    /// (and top-quantile clamping) are error-free. `min > max` encodes
    /// "empty".
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram with its bucket array preallocated (so
    /// [`record`](Self::record) never allocates).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            low: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a histogram from an exact sample set.
    pub fn from_samples(samples: &crate::stats::Samples) -> Self {
        let mut h = LogHistogram::new();
        for &v in samples.raw() {
            h.record(v);
        }
        h
    }

    /// Bucket index for a strictly positive finite value, from its
    /// IEEE-754 bit pattern: the (clamped) exponent field selects the
    /// octave, the top [`SUB_BITS`] mantissa bits select the linear
    /// sub-bucket. Deterministic across platforms; no libm.
    #[inline]
    fn bucket_index(v: f64) -> usize {
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if exp < MIN_EXP {
            // Underflow (incl. subnormals): clamp into the lowest bucket.
            return 0;
        }
        if exp > MAX_EXP {
            return NUM_BUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_BITS)) & SUB_MASK) as usize;
        ((exp - MIN_EXP) as usize) * SUB_BUCKETS + sub
    }

    /// Records one observation. Allocation-free: a fixed bucket array.
    #[inline]
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "`!(v > 0.0)`, not `v <= 0.0`: the negated form is true for NaN, which must land in the low bucket"
    )]
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if !(v > 0.0) {
            // NaN, zero, and negatives all land here.
            self.low += 1;
            if v.is_finite() {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.counts[Self::bucket_index(v)] += 1;
    }

    /// Number of observations recorded (including low-bucket ones).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest observation, or 0 for an empty histogram.
    pub fn min(&self) -> f64 {
        if self.min <= self.max {
            self.min
        } else {
            0.0
        }
    }

    /// Largest observation, or 0 for an empty histogram.
    pub fn max(&self) -> f64 {
        if self.min <= self.max {
            self.max
        } else {
            0.0
        }
    }

    /// Midpoint of bucket `i` — the representative value reported for
    /// observations that landed in it.
    fn bucket_mid(i: usize) -> f64 {
        let octave = (i / SUB_BUCKETS) as i32 + MIN_EXP;
        let sub = (i % SUB_BUCKETS) as f64;
        let base = pow2(octave);
        let width = base / SUB_BUCKETS as f64;
        base + width * (sub + 0.5)
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) by nearest-rank over
    /// bucket counts, or 0 for an empty histogram. Answers are bucket
    /// midpoints clamped to the observed `[min, max]`, so the relative
    /// error is bounded by [`REL_ERROR_BOUND`] for in-range values.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentiles([p])[0]
    }

    /// Convenience: `(p50, p90, p99, p999)` — the quantile set every
    /// window record and SLO rule consumes, from one pass over the
    /// buckets.
    pub fn quantiles(&self) -> (f64, f64, f64, f64) {
        let [p50, p90, p99, p999] = self.percentiles([50.0, 90.0, 99.0, 99.9]);
        (p50, p90, p99, p999)
    }

    /// Nearest-rank percentiles for ascending `ps`, in one cumulative
    /// walk: the bucket that satisfied one rank is where the search for
    /// the next one resumes.
    fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        debug_assert!(ps.windows(2).all(|w| w[0] <= w[1]), "ascending ps");
        let mut out = [0.0; N];
        if self.total == 0 {
            return out;
        }
        // `seen` counts the low (<= 0 / NaN) observations, which sort
        // below bucket 0, plus every bucket before `next`.
        let (mut seen, mut next) = (self.low, 0);
        for (answer, p) in out.iter_mut().zip(ps) {
            let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
            let rank = rank.clamp(1, self.total);
            *answer = if rank == self.total {
                // The top rank is the exact max — no bucket rounding.
                self.max()
            } else if rank <= self.low {
                // The answer falls among <=0/NaN observations; report
                // the exact min when it was finite, else 0.
                self.min().min(0.0)
            } else {
                while seen < rank && next < NUM_BUCKETS {
                    seen += self.counts[next];
                    next += 1;
                }
                if seen < rank {
                    self.max()
                } else {
                    Self::bucket_mid(next - 1).clamp(self.min, self.max)
                }
            };
        }
        out
    }

    /// Forgets every observation, keeping the bucket array: the state
    /// equals [`LogHistogram::new`]'s without its allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.low = 0;
        self.total = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Merges `other` into `self`: bucket-wise count add plus extrema
    /// union. Associative and commutative — merging per-shard histograms
    /// in any grouping yields state identical to recording the union of
    /// observations into one histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.low += other.low;
        self.total += other.total;
        if other.min <= other.max {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The histogram of observations recorded since `baseline` (which
    /// must be an earlier state of `self`): bucket-wise subtraction.
    /// Window extrema are not recoverable exactly, so they are taken
    /// from the delta's occupied bucket edges (clamped to the cumulative
    /// extrema) — still within [`REL_ERROR_BOUND`].
    pub fn delta_since(&self, baseline: &LogHistogram) -> LogHistogram {
        let mut d = LogHistogram::new();
        d.low = self.low.saturating_sub(baseline.low);
        d.total = self.total.saturating_sub(baseline.total);
        let mut first = None;
        let mut last = None;
        for (i, (now, base)) in self.counts.iter().zip(baseline.counts.iter()).enumerate() {
            let delta = now.saturating_sub(*base);
            if delta != 0 {
                d.counts[i] = delta;
                first.get_or_insert(i);
                last = Some(i);
            }
        }
        if d.low > 0 {
            d.min = self.min.min(0.0);
            d.max = self.max.min(0.0);
        }
        if let (Some(first), Some(last)) = (first, last) {
            let lo = Self::bucket_mid(first).max(self.min);
            let octave = (last / SUB_BUCKETS) as i32 + MIN_EXP;
            let upper_edge =
                pow2(octave) * (1.0 + ((last % SUB_BUCKETS) as f64 + 1.0) / SUB_BUCKETS as f64);
            d.min = d.min.min(lo);
            d.max = d.max.max(upper_edge.min(self.max));
        }
        d
    }

    /// A compact, deterministic summary of the current state (what
    /// window records retain once the full bucket array is rolled over).
    pub fn summary(&self) -> HistSummary {
        let (p50, p90, p99, p999) = self.quantiles();
        HistSummary {
            count: self.total,
            p50,
            p90,
            p99,
            p999,
            max: self.max(),
        }
    }
}

/// `2^e` for integer `e`, built from the IEEE-754 exponent field so no
/// libm `powi` rounding is involved (exact for the exponent range used
/// here).
fn pow2(e: i32) -> f64 {
    f64::from_bits((((e + 1023) as u64) & 0x7ff) << 52)
}

/// Quantile summary of a [`LogHistogram`] at one point in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Exact largest observation.
    pub max: f64,
}

impl HistSummary {
    /// The all-zero summary of an empty histogram.
    pub fn empty() -> Self {
        HistSummary {
            count: 0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            p999: 0.0,
            max: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.summary(), HistSummary::empty());
    }

    #[test]
    fn single_value_reports_itself_exactly() {
        // min/max clamping makes a single observation exact.
        let mut h = LogHistogram::new();
        h.record(3.25);
        assert_eq!(h.percentile(0.0), 3.25);
        assert_eq!(h.percentile(50.0), 3.25);
        assert_eq!(h.percentile(100.0), 3.25);
        assert_eq!(h.max(), 3.25);
    }

    #[test]
    fn percentiles_stay_within_error_bound() {
        let mut h = LogHistogram::new();
        let mut exact = Samples::new();
        let mut x: f64 = 1.0;
        for _ in 0..10_000 {
            x = (x * 1.618_033) % 977.0 + 1e-6;
            h.record(x);
            exact.record(x);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let approx = h.percentile(p);
            let truth = exact.percentile(p);
            let rel = (approx - truth).abs() / truth;
            assert!(
                rel <= REL_ERROR_BOUND,
                "p{p}: approx {approx} vs exact {truth} (rel err {rel})"
            );
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let vals: Vec<f64> = (1..500).map(|i| (i as f64) * 0.37 + 0.001).collect();
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "split+merge must equal direct recording");
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn low_and_out_of_range_values_are_tracked() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-4.0);
        h.record(f64::NAN);
        h.record(1e-12); // below 2^-30: clamps into the lowest bucket
        h.record(1e12); // above 2^31: clamps into the topmost bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), -4.0);
        assert_eq!(h.max(), 1e12);
        // p100 is the exact max even though the value clamped.
        assert_eq!(h.percentile(100.0), 1e12);
        // The lowest-rank answers fall in the low bucket.
        assert_eq!(h.percentile(1.0), -4.0);
    }

    #[test]
    fn bucket_index_is_monotone_on_octave_boundaries() {
        // Values straddling an octave boundary must land in adjacent
        // (or identical) buckets, never out of order.
        let mut last = 0usize;
        let mut v = 1.0 / (1 << 20) as f64;
        while v < 1e6 {
            let i = LogHistogram::bucket_index(v);
            assert!(i >= last, "bucket index regressed at {v}");
            last = i;
            v *= 1.01;
        }
    }

    #[test]
    fn pow2_matches_powi() {
        for e in MIN_EXP..=MAX_EXP {
            assert_eq!(pow2(e), 2f64.powi(e), "pow2({e})");
        }
    }

    #[test]
    fn delta_since_windows_a_cumulative_histogram() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0] {
            h.record(v);
        }
        let baseline = h.clone();
        for v in [8.0, 16.0] {
            h.record(v);
        }
        let d = h.delta_since(&baseline);
        assert_eq!(d.count(), 2);
        let p50 = d.percentile(50.0);
        assert!((p50 - 8.0).abs() / 8.0 <= REL_ERROR_BOUND, "p50 {p50}");
        assert!(d.max() >= 16.0 && d.max() <= 16.0 * (1.0 + 2.0 * REL_ERROR_BOUND));
        let empty = h.delta_since(&h);
        assert!(empty.is_empty());
    }

    #[test]
    fn from_samples_matches_manual_recording() {
        let mut s = Samples::new();
        let mut h = LogHistogram::new();
        for i in 1..100 {
            let v = i as f64 * 0.13;
            s.record(v);
            h.record(v);
        }
        assert_eq!(LogHistogram::from_samples(&s), h);
    }
}
