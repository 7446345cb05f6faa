//! The live observability plane: windowed rollups, bounded log-bucket
//! histograms, SLO watchdog, and exporters.
//!
//! End-of-run snapshots answer "what happened overall"; every figure in
//! the paper is a *timeline or tail* (Fig. 11's utilization curves,
//! Fig. 14's loss trace), and a long-running `nezha-serve` daemon needs
//! telemetry that is **streaming** (emitted while the sim runs),
//! **bounded** (fixed memory regardless of run length) and **mergeable**
//! (per-shard state combines deterministically at barriers). This module
//! provides exactly that:
//!
//! - [`LogHistogram`] — fixed-memory log-bucketed histogram with a
//!   documented relative-error bound ([`REL_ERROR_BOUND`]) and a
//!   commutative, associative merge.
//! - [`WindowRecord`] / [`WindowedRollup`] — per-window deltas of
//!   counters, gauges, and histogram summaries, retained in a bounded
//!   ring and rendered as a deterministic JSONL stream.
//! - [`RegistryWindows`] — drives window closes off a
//!   [`MetricsRegistry`] by snapshot-free diffing (counter deltas,
//!   histogram tails), used by the cluster event loop.
//! - [`SloWatchdog`] — declarative [`SloRule`]s evaluated at each window
//!   close, emitting edge-triggered deterministic [`SloEvent`]s.
//! - [`export`] — Prometheus text exposition and JSONL helpers.
//!
//! Region shards contribute counter deltas only, which
//! [`WindowRecord::from_effects`] adds up; the region records its
//! per-epoch histograms itself, once, in ascending `(shard, server)`
//! order at the barrier. Integer adds and bucket counts are
//! order-free, so the window stream is byte-identical at 1/2/4/8 shards
//! (pinned by `tests/shard_equivalence.rs`).

pub mod export;
mod loghist;
mod slo;

pub use export::prometheus_text;
pub use loghist::{HistSummary, LogHistogram, MAX_EXP, MIN_EXP, REL_ERROR_BOUND, SUB_BUCKETS};
pub use slo::{jain_index, SloEdge, SloEvent, SloKind, SloRule, SloWatchdog};

use crate::metrics::{json_f64, json_str, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// The closed contents of one observation window: counter deltas, gauge
/// values, and histogram summaries, keyed by canonical metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowRecord {
    /// Monotonic window index (epoch index in the region).
    pub index: u64,
    /// Inclusive window start.
    pub start: SimTime,
    /// Exclusive window end.
    pub end: SimTime,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, HistSummary>,
}

impl WindowRecord {
    /// An empty record for window `index` covering `[start, end)`.
    pub fn new(index: u64, start: SimTime, end: SimTime) -> Self {
        WindowRecord {
            index,
            start,
            end,
            ..Default::default()
        }
    }

    /// Builds a record by folding per-shard counter deltas: counts with
    /// the same key add, keys that sum to zero are left out. Integer
    /// adds commute, so the result is independent of how the counted
    /// events were partitioned and of the order the shards arrive in.
    pub fn from_effects(
        index: u64,
        start: SimTime,
        end: SimTime,
        effects: impl IntoIterator<Item = (&'static str, u64)>,
    ) -> Self {
        let mut w = WindowRecord::new(index, start, end);
        for (key, n) in effects {
            if n == 0 {
                continue;
            }
            match w.counters.get_mut(key) {
                Some(sum) => *sum += n,
                None => {
                    w.counters.insert(key.to_string(), n);
                }
            }
        }
        w
    }

    /// Sets a window counter (overwrites).
    pub fn set_counter(&mut self, key: &str, v: u64) {
        if v != 0 {
            self.counters.insert(key.to_string(), v);
        }
    }

    /// Sets a window gauge.
    pub fn set_gauge(&mut self, key: &str, v: f64) {
        self.gauges.insert(key.to_string(), v);
    }

    /// Sets a window histogram summary.
    pub fn set_hist(&mut self, key: &str, s: HistSummary) {
        self.hists.insert(key.to_string(), s);
    }

    /// This window's delta for counter `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// This window's value for gauge `key`.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// This window's summary for histogram `key`.
    pub fn hist(&self, key: &str) -> Option<&HistSummary> {
        self.hists.get(key)
    }

    /// Iterates `(key, delta)` over window counters in sorted order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates window counters whose key starts with `prefix` (the
    /// fairness rule's member selector).
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates `(key, summary)` over window histograms in sorted order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &HistSummary)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// One deterministic JSON line: fixed key order, sorted maps,
    /// shortest-round-trip floats. This is the JSONL window stream
    /// format (golden-pinned across shard counts).
    pub fn json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"window\": {}, \"start_ns\": {}, \"end_ns\": {}, \"counters\": {{",
            self.index,
            self.start.nanos(),
            self.end.nanos()
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", json_str(k));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_str(k), json_f64(*v));
        }
        out.push_str("}, \"hists\": {");
        for (i, (k, s)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}, \"max\": {}}}",
                json_str(k),
                s.count,
                json_f64(s.p50),
                json_f64(s.p90),
                json_f64(s.p99),
                json_f64(s.p999),
                json_f64(s.max),
            );
        }
        out.push_str("}}");
        out
    }
}

/// A bounded ring of closed windows plus the SLO watchdog and the
/// emitted JSONL line log.
///
/// Full [`WindowRecord`]s are retained ring-bounded (`retain` windows);
/// the JSONL *line* log keeps one small string per closed window so
/// short-lived runs (tests, experiments) can export the complete stream.
/// A long-running daemon would drain [`jsonl_lines`](Self::jsonl_lines)
/// to a sink instead of accumulating them.
#[derive(Clone, Debug)]
pub struct WindowedRollup {
    retain: usize,
    ring: VecDeque<WindowRecord>,
    jsonl: Vec<String>,
    watchdog: SloWatchdog,
    closed: u64,
}

impl WindowedRollup {
    /// A rollup retaining the last `retain` windows, watched by `rules`.
    pub fn new(retain: usize, rules: Vec<SloRule>) -> Self {
        assert!(retain > 0, "retention ring must hold at least one window");
        WindowedRollup {
            retain,
            ring: VecDeque::with_capacity(retain),
            jsonl: Vec::new(),
            watchdog: SloWatchdog::new(rules),
            closed: 0,
        }
    }

    /// Pushes a freshly closed window: renders its JSONL line, runs the
    /// watchdog, and retires the oldest record when the ring is full.
    /// Returns how many SLO events the window produced.
    pub fn push(&mut self, record: WindowRecord) -> usize {
        self.jsonl.push(record.json_line());
        let events = self.watchdog.observe_window(&record);
        if self.ring.len() == self.retain {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
        self.closed += 1;
        events
    }

    /// Number of windows closed over the rollup's lifetime.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// The retained window records, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowRecord> {
        self.ring.iter()
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<&WindowRecord> {
        self.ring.back()
    }

    /// The emitted JSONL lines, one per closed window (not ring-bounded).
    pub fn jsonl_lines(&self) -> &[String] {
        &self.jsonl
    }

    /// The full JSONL window stream (one line per closed window).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.jsonl {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The SLO watchdog (event log access).
    pub fn watchdog(&self) -> &SloWatchdog {
        &self.watchdog
    }
}

/// Drives a [`WindowedRollup`] off a [`MetricsRegistry`]: at each window
/// close it reads counter deltas, changed gauges, and the *tail* of each
/// exact-sample histogram recorded since the previous close (turned into
/// a per-window [`LogHistogram`] summary). Cumulative [`LogHistogram`]
/// metrics are windowed by bucket-wise subtraction.
#[derive(Clone, Debug)]
pub struct RegistryWindows {
    width: SimDuration,
    next_end: SimTime,
    rollup: WindowedRollup,
    last_counters: BTreeMap<String, u64>,
    last_gauges: BTreeMap<String, f64>,
    last_hist_lens: BTreeMap<String, usize>,
    last_loghists: BTreeMap<String, LogHistogram>,
}

impl RegistryWindows {
    /// Windows of `width` starting at sim time 0, retaining `retain`
    /// records, watched by `rules`.
    pub fn new(width: SimDuration, retain: usize, rules: Vec<SloRule>) -> Self {
        assert!(width.nanos() > 0, "window width must be positive");
        RegistryWindows {
            width,
            next_end: SimTime(width.nanos()),
            rollup: WindowedRollup::new(retain, rules),
            last_counters: BTreeMap::new(),
            last_gauges: BTreeMap::new(),
            last_hist_lens: BTreeMap::new(),
            last_loghists: BTreeMap::new(),
        }
    }

    /// Closes every window whose end is `<= t` against the registry's
    /// current contents. Call with the timestamp of the *next* event
    /// before handling it (events at exactly a window boundary belong to
    /// the following window), and once more with the run deadline after
    /// the event loop drains.
    pub fn advance_to(&mut self, t: SimTime, reg: &MetricsRegistry) {
        while self.next_end.nanos() <= t.nanos() {
            self.close_one(reg);
        }
    }

    fn close_one(&mut self, reg: &MetricsRegistry) {
        let end = self.next_end;
        let start = SimTime(end.nanos() - self.width.nanos());
        let index = self.rollup.closed();
        let mut w = WindowRecord::new(index, start, end);
        reg.for_each_window(|key, view| match view {
            crate::metrics::WindowView::Counter(now) => {
                let before = self.last_counters.get(key).copied().unwrap_or(0);
                let delta = now.saturating_sub(before);
                if delta != 0 {
                    w.set_counter(key, delta);
                }
                self.last_counters.insert(key.to_string(), now);
            }
            crate::metrics::WindowView::Gauge(now) => {
                let before = self.last_gauges.get(key).copied();
                if before != Some(now) {
                    w.set_gauge(key, now);
                    self.last_gauges.insert(key.to_string(), now);
                }
            }
            crate::metrics::WindowView::SampleTail(raw) => {
                let seen = self.last_hist_lens.get(key).copied().unwrap_or(0);
                if raw.len() > seen {
                    let mut h = LogHistogram::new();
                    for &v in &raw[seen..] {
                        h.record(v);
                    }
                    w.set_hist(key, h.summary());
                }
                self.last_hist_lens.insert(key.to_string(), raw.len());
            }
            crate::metrics::WindowView::LogHist(h) => {
                let delta = match self.last_loghists.get(key) {
                    Some(base) => h.delta_since(base),
                    None => h.clone(),
                };
                if !delta.is_empty() {
                    w.set_hist(key, delta.summary());
                }
                self.last_loghists.insert(key.to_string(), h.clone());
            }
        });
        self.rollup.push(w);
        self.next_end = SimTime(end.nanos() + self.width.nanos());
    }

    /// The underlying rollup (window records, JSONL stream, watchdog).
    pub fn rollup(&self) -> &WindowedRollup {
        &self.rollup
    }

    /// The configured window width.
    pub fn width(&self) -> SimDuration {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_record_json_is_sorted_and_stable() {
        let mut w = WindowRecord::new(3, SimTime(0), SimTime(100));
        w.set_counter("b.count", 2);
        w.set_counter("a.count", 1);
        w.set_gauge("util", 0.5);
        let mut h = LogHistogram::new();
        h.record(1.0);
        w.set_hist("lat", h.summary());
        let line = w.json_line();
        assert!(line.starts_with("{\"window\": 3, \"start_ns\": 0, \"end_ns\": 100,"));
        assert!(line.find("a.count").unwrap() < line.find("b.count").unwrap());
        assert!(line.contains("\"lat\": {\"count\": 1,"));
        assert_eq!(line, w.clone().json_line(), "rendering is pure");
    }

    #[test]
    fn from_effects_is_partition_invariant() {
        let one = WindowRecord::from_effects(0, SimTime(0), SimTime(1), [("done", 4), ("lost", 0)]);
        // Two shards, arriving in either order, one of them idle on
        // "done": same record.
        let split = [("done", 1), ("lost", 0), ("done", 3), ("idle", 0)];
        let two = WindowRecord::from_effects(0, SimTime(0), SimTime(1), split);
        let rev = WindowRecord::from_effects(0, SimTime(0), SimTime(1), split.into_iter().rev());
        assert_eq!(one, two);
        assert_eq!(one, rev);
        assert_eq!(one.json_line(), two.json_line());
        assert_eq!(one.counter("done"), 4);
        assert_eq!(one.counters().count(), 1, "zero sums are left out");
    }

    #[test]
    fn rollup_ring_is_bounded_but_stream_is_complete() {
        let mut r = WindowedRollup::new(2, vec![]);
        for i in 0..5 {
            r.push(WindowRecord::new(i, SimTime(i * 10), SimTime((i + 1) * 10)));
        }
        assert_eq!(r.closed(), 5);
        assert_eq!(r.windows().count(), 2, "ring retains only the last 2");
        assert_eq!(r.latest().unwrap().index, 4);
        assert_eq!(r.jsonl_lines().len(), 5, "stream log keeps every line");
        assert_eq!(r.jsonl().lines().count(), 5);
    }

    #[test]
    fn registry_windows_emit_deltas_and_tails() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pkt.ok", &[]);
        let g = reg.gauge("util", &[]);
        let h = reg.histogram("lat", &[]);
        let mut win = RegistryWindows::new(SimDuration::from_millis(10), 8, vec![]);

        reg.add(c, 5);
        reg.set(g, 0.25);
        reg.observe(h, 1.5);
        win.advance_to(SimTime(10_000_000), &reg); // closes window 0
        reg.add(c, 7);
        reg.observe(h, 2.5);
        reg.observe(h, 3.5);
        win.advance_to(SimTime(20_000_000), &reg); // closes window 1

        let windows: Vec<&WindowRecord> = win.rollup().windows().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].counter("pkt.ok"), 5);
        assert_eq!(windows[1].counter("pkt.ok"), 7, "second window is a delta");
        assert_eq!(windows[0].gauge("util"), Some(0.25));
        assert_eq!(
            windows[1].gauge("util"),
            None,
            "unchanged gauges are omitted"
        );
        assert_eq!(windows[0].hist("lat").unwrap().count, 1);
        assert_eq!(windows[1].hist("lat").unwrap().count, 2, "only the tail");
    }

    #[test]
    fn gap_windows_are_empty_not_skipped() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x", &[]);
        let mut win = RegistryWindows::new(SimDuration::from_millis(10), 8, vec![]);
        reg.inc(c);
        // Jump 5 windows ahead: one window carries the delta, the rest
        // close empty (nothing happened in them).
        win.advance_to(SimTime(50_000_000), &reg);
        assert_eq!(win.rollup().closed(), 5);
        let deltas: Vec<u64> = win.rollup().windows().map(|w| w.counter("x")).collect();
        assert_eq!(deltas, vec![1, 0, 0, 0, 0]);
    }

    #[test]
    fn boundary_event_belongs_to_next_window() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x", &[]);
        let mut win = RegistryWindows::new(SimDuration::from_millis(10), 8, vec![]);
        // advance_to is called with the event's timestamp *before* the
        // event mutates the registry: a t=10ms event closes window 0
        // first, so its effects land in window 1.
        win.advance_to(SimTime(10_000_000), &reg);
        reg.inc(c);
        win.advance_to(SimTime(20_000_000), &reg);
        let deltas: Vec<u64> = win.rollup().windows().map(|w| w.counter("x")).collect();
        assert_eq!(deltas, vec![0, 1]);
    }
}
