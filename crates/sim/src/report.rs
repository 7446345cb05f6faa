//! Typed, schema-versioned experiment reports.
//!
//! Every experiment ends by producing a [`BenchReport`]: a named bundle
//! of config echoes, [`Sample`]s and latency-percentile blocks, every
//! one a pure function of the seed (event counts, simulated durations,
//! completion totals). Two same-seed runs must produce byte-identical
//! reports; golden fixtures pin the rendering. Nothing here is measured
//! on the host clock — wall time and RSS are `benchmark/`'s business.
//!
//! The JSON rendering is deterministic given the report contents: fields
//! print in insertion order, floats use shortest-round-trip formatting,
//! and the schema carries an explicit version so downstream tooling can
//! refuse reports it does not understand.

use crate::metrics::{json_f64, json_str, MetricsSnapshot};
use crate::obs::{HistSummary, LogHistogram, REL_ERROR_BOUND};
use std::fmt::Write as _;

/// Version of the JSON layout emitted by [`BenchReport::deterministic_json`].
/// Bump when the shape (not the set of sample names) changes.
/// v2 added the optional `percentiles` section (latency quantiles
/// sourced from [`LogHistogram`], stamped with its error bound).
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// One measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name, unique within its report (e.g. `events_processed`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (e.g. `"events"`, `"s"`, `"bytes"`, `"1/s"`).
    pub unit: String,
}

impl Sample {
    /// Creates a sample.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Sample {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&self.name),
            json_f64(self.value),
            json_str(&self.unit)
        )
    }
}

/// A typed experiment report: id + config echo + samples.
///
/// Built fluently:
///
/// ```
/// use nezha_sim::report::BenchReport;
///
/// let r = BenchReport::new("chaos")
///     .config("cores", 4)
///     .metric("events_processed", 123456.0, "events");
/// assert_eq!(r.get("events_processed"), Some(123456.0));
/// assert!(r.deterministic_json() == r.clone().deterministic_json());
/// ```
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Report id (experiment id, optionally `.`-qualified by config).
    pub id: String,
    config: Vec<(String, String)>,
    deterministic: Vec<Sample>,
    percentiles: Vec<(String, HistSummary)>,
    /// Optional raw metrics snapshot attached by experiments that also
    /// export the legacy one-line snapshot format.
    pub snapshot: Option<MetricsSnapshot>,
}

impl BenchReport {
    /// Starts an empty report.
    pub fn new(id: impl Into<String>) -> Self {
        BenchReport {
            id: id.into(),
            ..BenchReport::default()
        }
    }

    /// Echoes one configuration knob.
    pub fn config(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.config.push((key.into(), value.to_string()));
        self
    }

    /// Adds a sample (a pure function of the seed).
    pub fn metric(mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        self.deterministic.push(Sample::new(name, value, unit));
        self
    }

    /// Adds a named latency-percentile block sourced from a
    /// [`LogHistogram`] (quantiles carry the histogram's documented
    /// relative-error bound).
    pub fn percentiles(mut self, name: impl Into<String>, hist: &LogHistogram) -> Self {
        self.percentiles.push((name.into(), hist.summary()));
        self
    }

    /// Attaches the experiment's metrics snapshot (for the legacy
    /// one-line snapshot export alongside the typed report).
    pub fn with_snapshot(mut self, snap: MetricsSnapshot) -> Self {
        self.snapshot = Some(snap);
        self
    }

    /// Looks a sample up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.deterministic
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// The percentile blocks, in insertion order.
    pub fn percentile_sections(&self) -> &[(String, HistSummary)] {
        &self.percentiles
    }

    /// The report as JSON — what same-seed runs must reproduce
    /// byte-for-byte and what golden fixtures pin.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {},\n  \"id\": {},\n  \"config\": {{",
            BENCH_SCHEMA_VERSION,
            json_str(&self.id)
        );
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {}", json_str(k), json_str(v));
        }
        out.push_str("\n  },\n  \"deterministic\": {");
        for (i, s) in self.deterministic.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}", s.json());
        }
        out.push_str("\n  }");
        if !self.percentiles.is_empty() {
            out.push_str(",\n  \"percentiles\": {");
            for (i, (name, s)) in self.percentiles.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n    {}: {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"p999\": {}, \"max\": {}, \"rel_error_bound\": {}}}",
                    json_str(name),
                    s.count,
                    json_f64(s.p50),
                    json_f64(s.p90),
                    json_f64(s.p99),
                    json_f64(s.p999),
                    json_f64(s.max),
                    json_f64(REL_ERROR_BOUND)
                );
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport::new("region.nezha")
            .config("shards", 4)
            .config("seed", 0x4e5a)
            .metric("events_processed", 1_234_567.0, "events")
            .metric("sim_seconds", 2.5, "s")
    }

    #[test]
    fn lookup_finds_samples_by_name() {
        let r = sample_report();
        assert_eq!(r.get("sim_seconds"), Some(2.5));
        assert_eq!(r.get("events_processed"), Some(1_234_567.0));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn same_content_renders_identically() {
        assert_eq!(
            sample_report().deterministic_json(),
            sample_report().deterministic_json()
        );
    }

    #[test]
    fn schema_version_is_stamped() {
        assert!(sample_report()
            .deterministic_json()
            .starts_with("{\n  \"schema_version\": 2,"));
    }

    #[test]
    fn percentile_section_renders_when_present() {
        let plain = sample_report();
        assert!(!plain.deterministic_json().contains("\"percentiles\""));
        let mut h = LogHistogram::new();
        for v in [0.001, 0.002, 0.004, 0.1] {
            h.record(v);
        }
        let r = sample_report().percentiles("conn_latency", &h);
        assert_eq!(r.percentile_sections().len(), 1);
        let d = r.deterministic_json();
        assert!(d.contains("\"percentiles\": {"));
        assert!(d.contains("\"conn_latency\": {\"count\": 4,"));
        assert!(d.contains("\"rel_error_bound\": 0.0078125"));
        assert_eq!(d, r.clone().deterministic_json(), "rendering is pure");
    }
}
