//! Plain-text table/series output helpers shared by every experiment,
//! plus the machine-readable JSON snapshot exporter.
//!
//! Every experiment finishes by handing its [`MetricsSnapshot`] to
//! [`emit_snapshot`], which renders one JSON line per snapshot (see
//! EXPERIMENTS.md for the format). By default the line goes nowhere —
//! the human-readable tables stay the primary output — but:
//!
//! * `NEZHA_SNAPSHOT_DIR=<dir>` writes `<dir>/<id>.json`;
//! * `NEZHA_BENCH_JSON=1` prints the line to stdout.

use nezha_sim::metrics::MetricsSnapshot;
use nezha_sim::report::BenchReport;
use std::io::Write;

/// Exports one experiment's typed [`BenchReport`] — the single exit
/// point the dispatcher funnels every experiment through.
///
/// * When the report carries a metrics snapshot, the legacy one-line
///   snapshot export runs unchanged (same bytes, same
///   `NEZHA_SNAPSHOT_DIR` / `NEZHA_BENCH_JSON` switches) — golden
///   fixtures that pin those lines stay valid.
/// * `NEZHA_REPORT_DIR=<dir>` additionally writes the typed report as
///   `<dir>/<id>.report.json` (schema-versioned).
///
/// Write errors are reported on stderr, never fatal.
pub fn emit_report(report: &BenchReport) {
    if let Some(snap) = &report.snapshot {
        emit_snapshot(&report.id, snap);
    }
    if let Ok(dir) = std::env::var("NEZHA_REPORT_DIR") {
        if !dir.is_empty() {
            let path = std::path::Path::new(&dir).join(format!("{}.report.json", report.id));
            if let Err(e) = std::fs::write(&path, report.deterministic_json()) {
                eprintln!("warning: cannot write report {}: {e}", path.display());
            }
        }
    }
}

/// Renders one snapshot as the canonical JSON line:
/// `{"id": "<id>", "metrics": { ... }}`. Deterministic — the metric map
/// is sorted by key and floats print via Rust's shortest-round-trip
/// formatting, so same-seed runs emit byte-identical lines.
pub fn snapshot_line(id: &str, snap: &MetricsSnapshot) -> String {
    format!("{{\"id\": {:?}, \"metrics\": {}}}", id, snap.to_json())
}

/// Exports one experiment's metrics snapshot (see the module docs for
/// the `NEZHA_SNAPSHOT_DIR` / `NEZHA_BENCH_JSON` switches). Errors
/// writing the file are reported on stderr, never fatal.
pub fn emit_snapshot(id: &str, snap: &MetricsSnapshot) {
    let line = snapshot_line(id, snap);
    if let Ok(dir) = std::env::var("NEZHA_SNAPSHOT_DIR") {
        if !dir.is_empty() {
            let path = std::path::Path::new(&dir).join(format!("{id}.json"));
            let write = std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = write {
                eprintln!("warning: cannot write snapshot {}: {e}", path.display());
            }
        }
    }
    if std::env::var("NEZHA_BENCH_JSON").is_ok_and(|v| v == "1") {
        println!("{line}");
    }
}

/// Exports the profiler's two artifacts when `NEZHA_PROFILE_DIR=<dir>`
/// is set: `<dir>/<id>.folded` (collapsed-stack flamegraph input, one
/// `frame;frame;... cycles` line per call path) and `<dir>/<id>.trace.json`
/// (Chrome `trace_event` JSON for `chrome://tracing` / Perfetto). Both
/// render SimTime only, so same-seed runs write byte-identical files.
/// Write errors are reported on stderr, never fatal.
pub fn emit_profile(id: &str, prof: &nezha_sim::profile::Profiler) {
    let Ok(dir) = std::env::var("NEZHA_PROFILE_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    for (name, content) in [
        (format!("{id}.folded"), prof.flamegraph()),
        (format!("{id}.trace.json"), prof.chrome_trace()),
    ] {
        let path = std::path::Path::new(&dir).join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!(
                "warning: cannot write profile artifact {}: {e}",
                path.display()
            );
        }
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("==============================================================");
    println!("{id} — {title}");
    println!("==============================================================");
}

/// Prints one aligned table row. Cells are already formatted strings.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect();
    println!("  {}", line.join("  "));
}

/// Prints a header row followed by a rule.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
}

/// Formats a count with engineering suffixes (K/M/G).
pub fn eng(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}K", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn gain(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Renders a small ASCII sparkline of a series (for timeline figures).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| GLYPHS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_suffixes() {
        assert_eq!(eng(1_300_000.0), "1.30M");
        assert_eq!(eng(2_500.0), "2.5K");
        assert_eq!(eng(12.0), "12.0");
        assert_eq!(eng(3.2e9), "3.20G");
    }

    #[test]
    fn formatting() {
        assert_eq!(gain(3.345), "3.35x");
        assert_eq!(pct(0.5), "50.00%");
    }

    #[test]
    fn snapshot_line_is_deterministic_json() {
        let reg = nezha_sim::metrics::MetricsRegistry::new();
        let h = reg.counter("pkt.ok", &[]);
        reg.add(h, 3);
        let a = snapshot_line("figX", &reg.snapshot());
        let b = snapshot_line("figX", &reg.snapshot());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"id\": \"figX\", \"metrics\": {"));
        assert!(a.contains("\"pkt.ok\""));
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}
