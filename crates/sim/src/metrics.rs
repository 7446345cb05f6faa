//! The unified telemetry registry: named, labeled metrics with cheap
//! pre-registered handles.
//!
//! Every measurement in the simulator flows through a [`MetricsRegistry`]:
//! the cluster data plane, each vSwitch, the controller/monitor loops and
//! the experiment harness all write to (and read from) the same registry,
//! so a figure script, a regression test and the control plane observe the
//! *same* numbers instead of parallel ad-hoc counter soups.
//!
//! Design rules:
//!
//! - **Hot-path cheap.** Components register their metrics once, up front,
//!   and keep [`CounterHandle`]-style indices (plain `Copy` newtypes over a
//!   slot index). A hot-path increment is a `RefCell` borrow plus a vector
//!   index — no hashing, no string formatting.
//! - **Deterministic.** Metrics are keyed by `name{label=value,...}` with
//!   labels sorted, snapshots iterate in `BTreeMap` order, and nothing
//!   reads wall time: two same-seed simulations serialize byte-identical
//!   snapshots (see `tests/determinism.rs`).
//! - **Shared, single-threaded.** The registry is an `Rc<RefCell<..>>`
//!   clone-to-share handle, matching the simulator's single-threaded
//!   event loop; cloning is cheap and all clones observe the same store.
//!
//! Naming scheme (documented in `DESIGN.md`): dotted component paths
//! (`conn.completed`, `ctrl.offload_events`, `vswitch.forwarded`), with
//! instance dimensions expressed as labels (`server`, `vnic`, `direction`,
//! `architecture`) rather than baked into names.

#![expect(
    clippy::disallowed_types,
    reason = "observability handle: an `Rc<RefCell<_>>` clone-to-share store, one instance per shard, never shared across a shard boundary (shards merge through explicit snapshots)"
)]

use crate::obs::LogHistogram;
use crate::stats::{Samples, TimeSeries};
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Handle to a registered monotonic counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered gauge (a settable `f64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a registered histogram (backed by [`Samples`], so its
/// percentiles are identical to `Samples::percentile` on the same data).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// Handle to a registered time series (backed by [`TimeSeries`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesHandle(usize);

/// Handle to a registered log-bucketed histogram (backed by
/// [`LogHistogram`]: fixed memory, bounded relative error, mergeable —
/// the streaming complement to the exact [`Samples`] histogram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogHistogramHandle(usize);

#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Samples),
    Series(TimeSeries),
    LogHist(LogHistogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Series(_) => "series",
            Metric::LogHist(_) => "loghist",
        }
    }
}

/// A borrow of one metric's current value, as seen by the windowed
/// rollup driver (`obs::RegistryWindows`). Series are not windowed.
pub(crate) enum WindowView<'a> {
    Counter(u64),
    Gauge(f64),
    /// The exact histogram's raw sample vector; the rollup diffs by
    /// length, so it relies on the registry never sorting in place
    /// (reads go through shared clones, which sort their own copy).
    SampleTail(&'a [f64]),
    LogHist(&'a LogHistogram),
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Metric>,
    keys: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl Inner {
    fn register(&mut self, key: String, make: impl FnOnce() -> Metric) -> usize {
        if let Some(&slot) = self.index.get(&key) {
            let existing = self.slots[slot].kind();
            let wanted = make().kind();
            assert_eq!(
                existing, wanted,
                "metric '{key}' already registered as a {existing}, not a {wanted}"
            );
            return slot;
        }
        let slot = self.slots.len();
        self.slots.push(make());
        self.keys.push(key.clone());
        self.index.insert(key, slot);
        slot
    }
}

/// Builds the canonical `name{label=value,...}` key. Labels are sorted by
/// label name so registration order never changes identity.
fn metric_key(name: &str, labels: &[(&str, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, String)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
    }
    key.push('}');
    key
}

/// The central metric store. Clones share the same underlying registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<Inner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter. Idempotent for an identical
    /// name+labels; panics if the key exists with a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, String)]) -> CounterHandle {
        CounterHandle(
            self.inner
                .borrow_mut()
                .register(metric_key(name, labels), || Metric::Counter(0)),
        )
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, String)]) -> GaugeHandle {
        GaugeHandle(
            self.inner
                .borrow_mut()
                .register(metric_key(name, labels), || Metric::Gauge(0.0)),
        )
    }

    /// Registers (or looks up) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, String)]) -> HistogramHandle {
        HistogramHandle(
            self.inner
                .borrow_mut()
                .register(metric_key(name, labels), || {
                    Metric::Histogram(Samples::new())
                }),
        )
    }

    /// Registers (or looks up) a time series with the given bin width.
    pub fn series(&self, name: &str, labels: &[(&str, String)], bin: SimDuration) -> SeriesHandle {
        SeriesHandle(
            self.inner
                .borrow_mut()
                .register(metric_key(name, labels), || {
                    Metric::Series(TimeSeries::new(bin))
                }),
        )
    }

    /// Registers (or looks up) a log-bucketed histogram — bounded
    /// memory and mergeable, with quantile error documented at
    /// [`crate::obs::REL_ERROR_BOUND`]; use [`MetricsRegistry::histogram`]
    /// when exact percentiles matter more than bounded memory.
    pub fn log_histogram(&self, name: &str, labels: &[(&str, String)]) -> LogHistogramHandle {
        LogHistogramHandle(
            self.inner
                .borrow_mut()
                .register(metric_key(name, labels), || {
                    Metric::LogHist(LogHistogram::new())
                }),
        )
    }

    /// Increments a counter by 1.
    pub fn inc(&self, h: CounterHandle) {
        self.add(h, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&self, h: CounterHandle, n: u64) {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::Counter(v) => *v += n,
            m => unreachable!("counter handle pointing at a {}", m.kind()),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, h: CounterHandle) -> u64 {
        match &self.inner.borrow().slots[h.0] {
            Metric::Counter(v) => *v,
            m => unreachable!("counter handle pointing at a {}", m.kind()),
        }
    }

    /// Sets a gauge.
    pub fn set(&self, h: GaugeHandle, v: f64) {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::Gauge(g) => *g = v,
            m => unreachable!("gauge handle pointing at a {}", m.kind()),
        }
    }

    /// Records one histogram observation.
    pub fn observe(&self, h: HistogramHandle, v: f64) {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::Histogram(s) => s.record(v),
            m => unreachable!("histogram handle pointing at a {}", m.kind()),
        }
    }

    /// Records a duration observation in seconds.
    pub fn observe_duration(&self, h: HistogramHandle, d: SimDuration) {
        self.observe(h, d.as_secs_f64());
    }

    /// A histogram's sample set, sharing the registry's buffer (no copy,
    /// see [`Samples::share`]): the registry's next `observe` copies it
    /// only while the returned set is still alive, and a percentile query
    /// sorts the returned set's own copy, never the registry's order.
    pub fn histogram_samples(&self, h: HistogramHandle) -> Samples {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::Histogram(s) => s.share(),
            m => unreachable!("histogram handle pointing at a {}", m.kind()),
        }
    }

    /// Records one log-histogram observation. Allocation-free: a
    /// `RefCell` borrow, an index, and a bucket increment.
    pub fn observe_log(&self, h: LogHistogramHandle, v: f64) {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::LogHist(lh) => lh.record(v),
            m => unreachable!("loghist handle pointing at a {}", m.kind()),
        }
    }

    /// Adds `amount` to the series bin covering `at`.
    pub fn series_add(&self, h: SeriesHandle, at: SimTime, amount: f64) {
        match &mut self.inner.borrow_mut().slots[h.0] {
            Metric::Series(s) => s.add(at, amount),
            m => unreachable!("series handle pointing at a {}", m.kind()),
        }
    }

    /// A clone of a series' binned data.
    pub fn series_data(&self, h: SeriesHandle) -> TimeSeries {
        match &self.inner.borrow().slots[h.0] {
            Metric::Series(s) => s.clone(),
            m => unreachable!("series handle pointing at a {}", m.kind()),
        }
    }

    /// A deterministic point-in-time copy of every metric, keyed by
    /// canonical name; the only sanctioned way to *read* telemetry in bulk.
    /// Histograms share the registry's sample buffers instead of copying
    /// them (see [`MetricsRegistry::histogram_samples`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut inner = self.inner.borrow_mut();
        let Inner { slots, index, .. } = &mut *inner;
        let entries = index
            .iter()
            .map(|(key, &slot)| {
                let value = match &mut slots[slot] {
                    Metric::Counter(v) => MetricValue::Counter(*v),
                    Metric::Gauge(g) => MetricValue::Gauge(*g),
                    Metric::Histogram(s) => MetricValue::Histogram(s.share()),
                    Metric::Series(s) => MetricValue::Series(s.clone()),
                    Metric::LogHist(h) => MetricValue::LogHist(h.clone()),
                };
                (key.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Visits every windowable metric in sorted key order without
    /// cloning — the windowed-rollup driver's read path. Series are
    /// cumulative-binned already and are skipped.
    pub(crate) fn for_each_window(&self, mut f: impl FnMut(&str, WindowView<'_>)) {
        let inner = self.inner.borrow();
        for (key, &slot) in inner.index.iter() {
            match &inner.slots[slot] {
                Metric::Counter(v) => f(key, WindowView::Counter(*v)),
                Metric::Gauge(g) => f(key, WindowView::Gauge(*g)),
                Metric::Histogram(s) => f(key, WindowView::SampleTail(s.raw())),
                Metric::LogHist(h) => f(key, WindowView::LogHist(h)),
                Metric::Series(_) => {}
            }
        }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Full sample set (exact percentiles).
    Histogram(Samples),
    /// Binned series.
    Series(TimeSeries),
    /// Log-bucketed histogram (bounded memory, bounded-error quantiles).
    LogHist(LogHistogram),
}

/// An immutable, deterministic copy of a registry's contents.
///
/// Keys are canonical `name{label=value,...}` strings; iteration and JSON
/// serialization follow sorted key order, so equal registries produce
/// byte-identical output.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Looks a metric up by canonical key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.get(key)
    }

    /// Iterates `(key, value)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[expect(
        clippy::panic,
        reason = "a mistyped metric key in an experiment or test must fail loudly, listing the known keys; snapshots are read after a run, never by the simulation"
    )]
    fn expect<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        pick: impl FnOnce(&'a MetricValue) -> Option<T>,
    ) -> T {
        let Some(m) = self.get(key) else {
            panic!(
                "no {kind} '{key}' in snapshot; known keys: {:?}",
                self.entries.keys().collect::<Vec<_>>()
            )
        };
        pick(m).unwrap_or_else(|| panic!("metric '{key}' is not a {kind}: {m:?}"))
    }

    /// Value of the counter at `key`. Panics (listing known keys) when the
    /// key is absent or not a counter — experiments should fail loudly.
    pub fn counter(&self, key: &str) -> u64 {
        self.expect(key, "counter", |m| match m {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
    }

    /// Value of the gauge at `key`.
    pub fn gauge(&self, key: &str) -> f64 {
        self.expect(key, "gauge", |m| match m {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        })
    }

    /// The histogram at `key`. A reference-count clone of the snapshot's
    /// shared set: a percentile query sorts its own copy, leaving the
    /// snapshot and the registry as they were.
    pub fn histogram(&self, key: &str) -> Samples {
        self.expect(key, "histogram", |m| match m {
            MetricValue::Histogram(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// The series at `key`.
    pub fn series(&self, key: &str) -> &TimeSeries {
        self.expect(key, "series", |m| match m {
            MetricValue::Series(s) => Some(s),
            _ => None,
        })
    }

    /// The log histogram at `key`.
    pub fn log_histogram(&self, key: &str) -> &LogHistogram {
        self.expect(key, "loghist", |m| match m {
            MetricValue::LogHist(h) => Some(h),
            _ => None,
        })
    }

    /// Serializes the snapshot as deterministic JSON: keys sorted, floats
    /// in shortest-round-trip form, histograms as percentile summaries,
    /// series as `[bin_start_secs, value]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": {");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: ", json_str(key));
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {}}}", json_f64(*v));
                }
                MetricValue::Histogram(s) => {
                    let mut s = s.clone();
                    let _ = write!(out, "{{\"type\": \"histogram\", \"count\": {}", s.len());
                    if !s.is_empty() {
                        let (mean, p50, p90, p99, p999, p9999) = s.summary();
                        let _ = write!(
                            out,
                            ", \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                             \"p999\": {}, \"p9999\": {}, \"max\": {}",
                            json_f64(mean),
                            json_f64(p50),
                            json_f64(p90),
                            json_f64(p99),
                            json_f64(p999),
                            json_f64(p9999),
                            json_f64(s.max())
                        );
                    }
                    out.push('}');
                }
                MetricValue::LogHist(h) => {
                    let _ = write!(out, "{{\"type\": \"loghist\", \"count\": {}", h.count());
                    if !h.is_empty() {
                        let s = h.summary();
                        let _ = write!(
                            out,
                            ", \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \
                             \"max\": {}",
                            json_f64(s.p50),
                            json_f64(s.p90),
                            json_f64(s.p99),
                            json_f64(s.p999),
                            json_f64(s.max)
                        );
                    }
                    out.push('}');
                }
                MetricValue::Series(s) => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"series\", \"bin_ns\": {}, \"points\": [",
                        s.bin_width().nanos()
                    );
                    for (j, (t, v)) in s.points().into_iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{}, {}]", json_f64(t), json_f64(v));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The change from `baseline` to `self`: counter deltas and gauge
    /// moves, keyed by canonical metric name. Counters absent from the
    /// baseline diff against zero; only changed entries are kept, so a
    /// fault-window diff reads as "what this window did" without any
    /// hand-rolled before/after subtraction at the call site. Histograms
    /// and series (cumulative sample sets) are not diffed.
    pub fn diff(&self, baseline: &MetricsSnapshot) -> MetricsDiff {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        for (key, value) in &self.entries {
            match value {
                MetricValue::Counter(now) => {
                    let before = match baseline.get(key) {
                        Some(MetricValue::Counter(v)) => *v,
                        _ => 0,
                    };
                    let delta = now.saturating_sub(before);
                    if delta != 0 {
                        counters.insert(key.clone(), delta);
                    }
                }
                MetricValue::Gauge(now) => {
                    let before = match baseline.get(key) {
                        Some(MetricValue::Gauge(v)) => *v,
                        _ => 0.0,
                    };
                    if before != *now {
                        gauges.insert(key.clone(), (before, *now));
                    }
                }
                MetricValue::Histogram(_) | MetricValue::Series(_) | MetricValue::LogHist(_) => {}
            }
        }
        MetricsDiff { counters, gauges }
    }
}

/// What changed between two [`MetricsSnapshot`]s (see
/// [`MetricsSnapshot::diff`]).
#[derive(Clone, Debug, Default)]
pub struct MetricsDiff {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (f64, f64)>,
}

impl MetricsDiff {
    /// How much the counter at `key` grew (0 when unchanged or absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterates changed counters `(key, delta)` in sorted key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates changed gauges `(key, (before, after))` in sorted order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, (f64, f64))> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

/// JSON string literal with the escapes the key charset can need.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic shortest-round-trip float formatting; JSON has no
/// infinities or NaN, so those clamp to null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_label_order_independent() {
        let a = metric_key("x", &[("server", "1".into()), ("vnic", "2".into())]);
        let b = metric_key("x", &[("vnic", "2".into()), ("server", "1".into())]);
        assert_eq!(a, b);
        assert_eq!(a, "x{server=1,vnic=2}");
        assert_eq!(metric_key("plain", &[]), "plain");
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("conn.completed", &[]);
        let b = reg.counter("conn.completed", &[]);
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.counter_value(a), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn clones_share_the_store() {
        let reg = MetricsRegistry::new();
        let other = reg.clone();
        let h = other.counter("shared", &[]);
        other.add(h, 7);
        assert_eq!(reg.snapshot().counter("shared"), 7);
    }

    #[test]
    fn histogram_percentiles_match_samples() {
        // The registry histogram must be *exactly* Samples under the hood:
        // same data, same nearest-rank percentiles.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        let mut reference = Samples::new();
        let mut x = 1.0;
        for _ in 0..500 {
            x = (x * 1.3) % 97.0;
            reg.observe(h, x);
            reference.record(x);
        }
        let mut got = reg.histogram_samples(h);
        for p in [0.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
            assert_eq!(got.percentile(p), reference.percentile(p));
        }
        assert_eq!(got.raw(), reference.raw());
    }

    fn registry_side(reg: &MetricsRegistry, h: HistogramHandle) -> (usize, *const f64) {
        match &reg.inner.borrow().slots[h.0] {
            Metric::Histogram(s) => (s.holders(), s.raw().as_ptr()),
            m => unreachable!("histogram handle pointing at a {}", m.kind()),
        }
    }

    fn window_tail(reg: &MetricsRegistry) -> Vec<f64> {
        let mut tail = Vec::new();
        reg.for_each_window(|_, view| {
            if let WindowView::SampleTail(raw) = view {
                tail = raw.to_vec();
            }
        });
        tail
    }

    #[test]
    fn a_percentile_on_a_snapshot_leaves_the_registry_order() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        let values = [0.9, 0.1, 0.5, 0.3];
        for v in values {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        let mut lat = snap.histogram("lat");
        assert_eq!(lat.percentile(50.0), 0.3);
        let mut again = reg.histogram_samples(h);
        assert_eq!(again.percentile(100.0), 0.9);
        assert_eq!(
            window_tail(&reg),
            values,
            "the windows read recording order"
        );
        assert_eq!(snap.histogram("lat").raw(), values);
    }

    #[test]
    fn recording_past_a_held_snapshot_matches_a_fresh_registry() {
        let reg = MetricsRegistry::new();
        let fresh = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        let f = fresh.histogram("lat", &[]);
        let mut x = 0.37;
        let mut feed = |n: usize| {
            for _ in 0..n {
                x = (x * 7.13 + 0.011) % 1.0;
                reg.observe(h, x);
                fresh.observe(f, x);
            }
        };
        feed(300);
        let first = reg.snapshot();
        let first_lat = first.histogram("lat");
        feed(200);
        let second = reg.snapshot();
        let mut ours = second.histogram("lat");
        let mut theirs = fresh.snapshot().histogram("lat");
        let theirs_raw = theirs.raw().to_vec();
        assert_eq!(ours.len(), 500);
        assert_eq!(ours.raw(), theirs.raw());
        assert_eq!(ours.mean().to_bits(), theirs.mean().to_bits());
        let (a, b) = (ours.summary(), theirs.summary());
        for (got, want) in [
            (a.0, b.0),
            (a.1, b.1),
            (a.2, b.2),
            (a.3, b.3),
            (a.4, b.4),
            (a.5, b.5),
        ] {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // A mean after the sort sums in sorted order, on both sides.
        assert_eq!(ours.mean().to_bits(), theirs.mean().to_bits());
        assert_eq!(first_lat.len(), 300, "the held snapshot kept its values");
        assert_eq!(first_lat.raw(), &theirs_raw[..300]);
        assert_eq!(second.to_json(), fresh.snapshot().to_json());
    }

    #[test]
    fn a_snapshot_dropped_before_the_next_observe_costs_no_copy() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        for v in [1.0, 2.0, 3.0] {
            reg.observe(h, v);
        }
        let snap = reg.snapshot();
        let (holders, buffer) = registry_side(&reg, h);
        assert_eq!(holders, 2);
        assert_eq!(
            snap.histogram("lat").raw().as_ptr(),
            buffer,
            "read in place"
        );
        assert_eq!(reg.histogram_samples(h).raw().as_ptr(), buffer);
        drop(snap);
        assert_eq!(registry_side(&reg, h).0, 1);
        // Three observations left the buffer room for a fourth (a `Vec`
        // of `f64` grows to 4 first), so an observe that moved the buffer
        // back instead of copying it keeps its address.
        reg.observe(h, 4.0);
        assert_eq!(
            registry_side(&reg, h),
            (1, buffer),
            "owned again, not copied"
        );
        let held = reg.histogram_samples(h);
        reg.observe(h, 5.0);
        assert_eq!(held.raw(), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(reg.histogram_samples(h).raw(), [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn log_histogram_registers_and_snapshots() {
        let reg = MetricsRegistry::new();
        let h = reg.log_histogram("lat.stream", &[]);
        for v in [0.5, 1.0, 2.0, 4.0, 1.5] {
            reg.observe_log(h, v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.log_histogram("lat.stream").count(), 5);
        let json = snap.to_json();
        assert!(json.contains("\"type\": \"loghist\", \"count\": 5"));
        // Idempotent re-registration, kind conflicts still panic.
        assert_eq!(reg.log_histogram("lat.stream", &[]), h);
    }

    #[test]
    fn series_round_trips() {
        let reg = MetricsRegistry::new();
        let h = reg.series("cps", &[], SimDuration::from_millis(50));
        reg.series_add(h, SimTime(0), 1.0);
        reg.series_add(h, SimTime(60_000_000), 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.series("cps").points(), vec![(0.0, 1.0), (0.05, 2.0)]);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.add(reg.counter("b.count", &[]), 3);
            reg.set(reg.gauge("a.util", &[("server", "4".into())]), 0.25);
            let h = reg.histogram("lat", &[]);
            reg.observe(h, 1.5);
            reg.observe(h, 2.5);
            let s = reg.series("cps", &[], SimDuration::from_millis(50));
            reg.series_add(s, SimTime(0), 2.0);
            reg.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same construction must be byte-identical");
        // Sorted keys: a.util before b.count before cps before lat.
        let pos = |needle: &str| a.find(needle).unwrap_or_else(|| panic!("{needle} missing"));
        assert!(pos("a.util{server=4}") < pos("b.count"));
        assert!(pos("b.count") < pos("\"cps\""));
        assert!(pos("\"cps\"") < pos("\"lat\""));
        assert!(a.contains("\"type\": \"histogram\""));
        assert!(a.contains("\"bin_ns\": 50000000"));
    }

    #[test]
    fn empty_histogram_serializes_count_only() {
        let reg = MetricsRegistry::new();
        reg.histogram("empty", &[]);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"count\": 0}"));
        assert!(!json.contains("\"mean\""));
    }

    #[test]
    fn diff_reports_counter_deltas_and_gauge_moves() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pkt.total", &[]);
        let g = reg.gauge("util", &[]);
        let steady = reg.counter("steady", &[]);
        reg.add(c, 10);
        reg.inc(steady);
        reg.set(g, 0.5);
        let before = reg.snapshot();
        reg.add(c, 32);
        reg.set(g, 0.75);
        let late = reg.counter("late.arrival", &[]);
        reg.inc(late);
        let diff = reg.snapshot().diff(&before);
        assert_eq!(diff.counter("pkt.total"), 32);
        assert_eq!(diff.counter("steady"), 0, "unchanged counters are absent");
        assert_eq!(diff.counter("late.arrival"), 1, "new counters diff vs 0");
        assert_eq!(diff.gauges().collect::<Vec<_>>(), [("util", (0.5, 0.75))]);
        assert_eq!(diff.counters().count(), 2);
        assert!(!diff.is_empty());
        let none = reg.snapshot().diff(&reg.snapshot());
        assert!(none.is_empty());
    }
}
