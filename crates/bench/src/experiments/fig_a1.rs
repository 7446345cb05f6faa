//! Fig. A1 — VM migration downtime vs. vCPU count and memory size.
//!
//! Paper: migration completion time and downtime grow with purchased
//! resources; a 1024 GB VM takes tens of minutes. Nezha's alternative —
//! updating the BE location config on the FEs — takes effect in <1 ms
//! regardless of VM size (§7.2).

use crate::output::*;
use nezha_core::migration::MigrationModel;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. A1", "VM migration downtime vs. vCPUs and memory");
    let m = MigrationModel::default();
    let widths = [10usize, 10, 12, 14, 12];
    let mut report = BenchReport::new("fig_a1");

    header(
        &["vCPUs", "mem(GB)", "tables(MB)", "completion", "downtime"],
        &widths,
    );
    for (vcpus, mem_gb, tables_mb) in [
        (8u32, 16.0, 8u64),
        (16, 64.0, 8),
        (32, 128.0, 16),
        (64, 256.0, 64),
        (128, 512.0, 128),
        (128, 1024.0, 200),
    ] {
        let c = m.migrate(mem_gb, vcpus, tables_mb << 20);
        for (metric, d) in [
            ("migration_completion_secs", c.completion),
            ("migration_downtime_secs", c.downtime),
        ] {
            let key = format!("{metric}{{mem_gb={mem_gb:.0}}}");
            report = report.metric(key, d.as_secs_f64(), "s");
        }
        row(
            &[
                vcpus.to_string(),
                format!("{mem_gb:.0}"),
                tables_mb.to_string(),
                format!("{:.1}s", c.completion.as_secs_f64()),
                format!("{:.2}s", c.downtime.as_secs_f64()),
            ],
            &widths,
        );
    }
    let r = m.nezha_redirect();
    println!();
    println!(
        "  Nezha BE-location redirect: completion {:.2} ms, downtime {:.2} ms — size-independent",
        r.completion.as_millis_f64(),
        r.downtime.as_millis_f64()
    );
    println!("  paper: 1024 GB VM migration takes tens of minutes; Nezha redirect < 1 ms");
    for (metric, d) in [
        ("nezha_redirect_completion_secs", r.completion),
        ("nezha_redirect_downtime_secs", r.downtime),
    ] {
        report = report.metric(metric, d.as_secs_f64(), "s");
    }
    report
}
