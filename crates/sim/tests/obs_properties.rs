//! Property tests of the observability plane's histogram contract.
//!
//! Four guarantees are load-bearing for the rest of the PR and are
//! pinned here over randomized inputs rather than hand-picked vectors:
//!
//! * **Merge algebra** — [`LogHistogram::merge`] must be associative and
//!   commutative up to full state equality (counts, low bucket, total,
//!   extrema). This is what makes per-shard histograms merge at a
//!   barrier into exactly the state a single-shard run would have
//!   recorded, for any shard count and any grouping.
//! * **Quantile error bound** — every percentile query on values inside
//!   the tracked range must land within [`REL_ERROR_BOUND`] of the exact
//!   answer computed by [`Samples`] over the same observations, on both
//!   log-uniform and heavy-tailed inputs.
//! * **One-pass summary** — [`LogHistogram::summary`] answers its four
//!   quantiles from a single cumulative walk; each must equal the
//!   stand-alone [`LogHistogram::percentile`] query bit for bit, on
//!   empty, single-value, low-bucket-only and top-rank inputs too.
//! * **Clear is new** — a cleared histogram is `==` a fresh one, so a
//!   reused window histogram cannot carry state across windows.

use nezha_sim::obs::{LogHistogram, REL_ERROR_BOUND};
use nezha_sim::stats::Samples;
use proptest::prelude::*;

/// Log-uniform positive values spanning ~52 octaves of the tracked
/// range: a uniform exponent plus a uniform mantissa, mirroring how the
/// bucketer itself decomposes a float.
fn log_uniform() -> impl Strategy<Value = f64> {
    (0u32..52, 0u64..(1u64 << 52)).prop_map(|(e, m)| {
        let mantissa = 1.0 + (m as f64) / (1u64 << 52) as f64;
        mantissa * 2f64.powi(e as i32 - 24)
    })
}

/// Heavy-tailed (Pareto-style) values: most observations near the scale
/// floor, rare ones orders of magnitude above — the latency-distribution
/// shape the p999 path exists for.
fn heavy_tail() -> impl Strategy<Value = f64> {
    (0.0f64..0.999).prop_map(|u| 1e-3 * (1.0 - u).powi(-3))
}

/// Observation stream for the merge-algebra properties: mostly in-range
/// positives, with zeros and negatives mixed in so the low bucket and
/// the extrema union are exercised too.
fn observation() -> impl Strategy<Value = f64> {
    (0u32..10, 0u32..52, 0u64..(1u64 << 52), 0.0f64..5.0).prop_map(|(sel, e, m, neg)| match sel {
        8 => 0.0,
        9 => -neg,
        _ => {
            let mantissa = 1.0 + (m as f64) / (1u64 << 52) as f64;
            mantissa * 2f64.powi(e as i32 - 24)
        }
    })
}

/// Only values the low bucket takes: zero, negatives, NaN.
fn low_only() -> impl Strategy<Value = f64> {
    (0u32..3, 0.0f64..5.0).prop_map(|(sel, neg)| match sel {
        0 => 0.0,
        1 => -neg,
        _ => f64::NAN,
    })
}

fn hist_of(values: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `a ∪ b == b ∪ a`, and splitting a stream across two histograms
    /// then merging equals recording the whole stream into one.
    #[test]
    fn merge_is_commutative_and_equals_direct_recording(
        a in prop::collection::vec(observation(), 0..200),
        b in prop::collection::vec(observation(), 0..200),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        let whole: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(&ab, &hist_of(&whole), "merge must equal direct recording");
    }

    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — the grouping of barrier merges
    /// (pairwise, tree, or left-fold over shards) cannot matter.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(observation(), 0..120),
        b in prop::collection::vec(observation(), 0..120),
        c in prop::collection::vec(observation(), 0..120),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The one-pass summary equals four independent percentile
    /// queries. Below 1 000 observations p999 is the top rank (the
    /// exact max); above, it resolves to a bucket — both are drawn, as
    /// are the empty and the single-value histogram.
    #[test]
    fn summary_equals_four_percentile_calls(
        body in prop::collection::vec(observation(), 0..40),
        bulk in prop::collection::vec(log_uniform(), 0..1_200),
        take_bulk in any::<bool>(),
    ) {
        let mut values = body;
        if take_bulk {
            values.extend(bulk);
        }
        check_summary(&hist_of(&values))?;
    }

    /// Same, when every rank falls in the low (<= 0 / NaN) bucket.
    #[test]
    fn summary_equals_four_percentile_calls_low_bucket_only(
        values in prop::collection::vec(low_only(), 1..60),
    ) {
        check_summary(&hist_of(&values))?;
    }

    /// `clear()` leaves exactly the state of `new()`, whatever was
    /// recorded before, and the cleared histogram records like a new one.
    #[test]
    fn clear_equals_new(
        before in prop::collection::vec(observation(), 0..200),
        after in prop::collection::vec(observation(), 0..200),
    ) {
        let mut h = hist_of(&before);
        h.clear();
        prop_assert_eq!(&h, &LogHistogram::new());
        for &v in &after {
            h.record(v);
        }
        prop_assert_eq!(h, hist_of(&after));
    }

    /// Every quantile on log-uniform in-range data is within the
    /// documented relative error of the exact (Samples) answer.
    #[test]
    fn percentiles_match_exact_within_bound_log_uniform(
        values in prop::collection::vec(log_uniform(), 1..600),
    ) {
        check_percentile_bound(&values)?;
    }

    /// Same bound on heavy-tailed data, where a few huge outliers pull
    /// the top quantiles far from the body of the distribution.
    #[test]
    fn percentiles_match_exact_within_bound_heavy_tail(
        values in prop::collection::vec(heavy_tail(), 1..600),
    ) {
        check_percentile_bound(&values)?;
    }
}

fn check_summary(h: &LogHistogram) -> Result<(), TestCaseError> {
    let s = h.summary();
    prop_assert_eq!(s.count, h.count());
    // Bit patterns, so that a NaN could not compare unequal to itself.
    for (name, got, p) in [
        ("p50", s.p50, 50.0),
        ("p90", s.p90, 90.0),
        ("p99", s.p99, 99.0),
        ("p999", s.p999, 99.9),
        ("max", s.max, 100.0),
    ] {
        prop_assert_eq!(got.to_bits(), h.percentile(p).to_bits(), "{}", name);
    }
    Ok(())
}

fn check_percentile_bound(values: &[f64]) -> Result<(), TestCaseError> {
    let h = hist_of(values);
    let mut exact = Samples::new();
    for &v in values {
        exact.record(v);
    }
    for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
        let approx = h.percentile(p);
        let truth = exact.percentile(p);
        let rel = (approx - truth).abs() / truth;
        prop_assert!(
            rel <= REL_ERROR_BOUND,
            "p{}: approx {} vs exact {} (rel err {})",
            p,
            approx,
            truth,
            rel
        );
    }
    Ok(())
}
