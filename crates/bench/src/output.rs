//! Plain-text table/series output helpers shared by every experiment,
//! plus the one exit for their typed reports.
//!
//! Every experiment returns a [`BenchReport`]; the human-readable tables
//! on stdout stay the primary output. [`emit_report`] writes the report
//! and its artifacts to `NEZHA_REPORT_DIR` when that is set.

pub use nezha_sim::report::BenchReport;
use std::path::Path;

/// Exports one experiment's report: when `NEZHA_REPORT_DIR=<dir>` is
/// set, [`write_report`] writes it there. Write errors are reported on
/// stderr, never fatal.
pub fn emit_report(report: &BenchReport) {
    let Some(dir) = std::env::var_os("NEZHA_REPORT_DIR").filter(|d| !d.is_empty()) else {
        return;
    };
    if let Err(e) = write_report(Path::new(&dir), report) {
        eprintln!("warning: cannot write report {}: {e}", report.id);
    }
}

/// Writes `<dir>/<id>.json` (the report's deterministic JSON) and each
/// artifact as `<dir>/<id>.<name>`, creating `dir` if needed.
pub fn write_report(dir: &Path, report: &BenchReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{}.json", report.id)),
        report.deterministic_json(),
    )?;
    for (name, text) in report.artifacts() {
        std::fs::write(dir.join(format!("{}.{name}", report.id)), text)?;
    }
    Ok(())
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
    fn write_report_writes_the_json_and_every_artifact() {
        let dir = std::env::temp_dir().join(format!("nezha-report-{}", std::process::id()));
        let report = BenchReport::new("figX")
            .metric("gain", 3.5, "x")
            .artifact("metrics.json", "{}\n")
            .artifact("trace.json", "[]");
        write_report(&dir, &report).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["figX.json", "figX.metrics.json", "figX.trace.json"]);
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read("figX.json"), report.deterministic_json());
        assert_eq!(read("figX.metrics.json"), "{}\n");
        assert_eq!(read("figX.trace.json"), "[]");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}
