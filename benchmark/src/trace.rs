//! The benchmark's own clocks, both kept in memory until the run ends.
//! Nothing inside the simulator is instrumented.
//!
//! * **Spans** (traced binary only) around calls into the simulator's
//!   public functions, written out once as Chrome `trace_event` JSON.
//!   A disabled tracer records none and reads no clock for them.
//! * **Laps** (always on): the run cut into a fixed sequence of short
//!   intervals — one per registration chunk and per simulated slice.
//!   Repeats of one seed do identical work lap for lap, so the runner
//!   takes each lap's median over the repeats before summing. A stall
//!   the host imposes on one repeat drops out; a stall the program
//!   causes is in the same lap of every repeat and stays.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer (module path) or phase name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Stack-disciplined span recorder: `begin` opens a child of the
/// innermost open span, `end` closes the innermost one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    lap_start: Instant,
    laps: Vec<u64>,
    setup_laps: usize,
}

impl Tracer {
    /// A tracer whose clock, and first lap, start at `origin`. Spans
    /// are recorded only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            lap_start: origin,
            laps: Vec::new(),
            setup_laps: 0,
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.lap_start).as_nanos() as u64);
        self.lap_start = now;
    }

    /// Starts the next lap now, leaving the time since the last one
    /// untimed (checking between two measured runs).
    pub fn skip_lap(&mut self) {
        self.lap_start = Instant::now();
    }

    /// Ends the current lap and, with it, set-up: later laps are the
    /// measured run.
    pub fn end_setup_laps(&mut self) {
        self.lap();
        self.setup_laps = self.laps.len();
    }

    /// Lap durations in nanoseconds, and how many of them are set-up.
    pub fn laps(&self) -> (&[u64], usize) {
        (&self.laps, self.setup_laps)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open_at(name, start_ns);
    }

    /// Opens a span that started at `start_ns` (the root span starts at
    /// the origin, before the tracer existed).
    pub fn open_at(&mut self, name: &'static str, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds covered by spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty f64 sum is -0.0, which prints as "-0".
        self.durations_under_s(name, None).iter().sum::<f64>() + 0.0
    }

    /// The durations, in seconds, of every span called `name` whose
    /// ancestors include a span called `under` (or of all of them when
    /// `under` is `None`).
    pub fn durations_under_s(&self, name: &str, under: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| under.is_none_or(|u| self.has_ancestor(s, u)))
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    fn has_ancestor(&self, span: &Span, name: &str) -> bool {
        let mut cur = span.parent;
        while let Some(i) = cur {
            if self.spans[i].name == name {
                return true;
            }
            cur = self.spans[i].parent;
        }
        false
    }

    /// Chrome `trace_event` JSON ("X" complete events, microsecond
    /// timestamps); `args` carries the span's id, its parent's id and
    /// the run id all spans of this run share.
    pub fn chrome_json(&self, run_id: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":\"{run_id}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover. Children of one parent never overlap (the
/// tracer is a stack), so the covered part is the sum of their
/// durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed by span name, in first-seen order.
pub fn self_time_by_name_s(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += ns as f64 / 1e9,
            None => out.push((s.name, ns as f64 / 1e9)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("setup", 0, 30, Some(0)),
            span("build", 5, 15, Some(1)),
            span("run", 30, 90, Some(0)),
            span("slice", 30, 50, Some(3)),
            span("slice", 50, 85, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 10, 5, 20, 35]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name_s(&spans);
        assert_eq!(by_name[4].0, "slice");
        assert!((by_name[4].1 - 55e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_filters_by_ancestor() {
        let mut t = Tracer::new(true, Instant::now());
        t.open_at("bench", 0);
        t.begin("setup");
        t.begin("core.cluster.run_until");
        t.end();
        t.end();
        t.begin("run");
        t.begin("core.cluster.run_until");
        t.end();
        t.begin("core.cluster.run_until");
        t.end();
        t.end();
        t.end();
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[4].parent, Some(3));
        assert_eq!(t.durations_under_s("core.cluster.run_until", None).len(), 3);
        assert_eq!(
            t.durations_under_s("core.cluster.run_until", Some("run"))
                .len(),
            2
        );
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let json = t.chrome_json("r1");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"parent\":null") && json.contains("\"run\":\"r1\""));
    }

    #[test]
    fn laps_partition_the_time_and_split_at_setup() {
        let mut t = Tracer::new(false, Instant::now());
        t.lap();
        t.end_setup_laps();
        t.lap();
        t.skip_lap();
        t.lap();
        let (laps, setup) = t.laps();
        assert_eq!((laps.len(), setup), (4, 2));
    }

    #[test]
    fn disabled_tracer_records_no_spans() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin("x");
        t.end();
        t.end(); // unmatched end is harmless when disabled
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("x"), 0.0);
    }
}
