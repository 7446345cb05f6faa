//! Table 4 — completion time for activating offloading.
//!
//! Paper, over a month of production offload events: avg 1077 ms,
//! P90 1503 ms, P99 2087 ms, P999 2858 ms. The completion time is
//! `max(per-FE config push) + gateway update + learning interval` — we
//! sample a month's worth of events from the same model the controller
//! uses, and cross-check against the packet-level cluster's measured
//! activations.

use crate::experiments::harness;
use crate::output::*;
use nezha_core::region::{Region, RegionConfig};
use nezha_sim::stats::Samples;
use nezha_sim::time::SimDuration;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Table 4", "Completion time for activating offloading");
    // A month of offload events (paper: one cluster, one month).
    let mut region = Region::new(RegionConfig {
        seed: 44,
        ..RegionConfig::default()
    });
    let mut s = Samples::new();
    for _ in 0..30_000 {
        s.record_duration(region.sample_completion());
    }
    // Summarized before the table's percentile queries sort the samples.
    let report = BenchReport::new("table4").summary("completion_model_secs", &s, "s");
    let ms = |v: f64| format!("{:.0}", v * 1e3);
    header(
        &["source", "avg(ms)", "P90", "P99", "P999"],
        &[22, 8, 8, 8, 8],
    );
    let (mean, _, p90, p99, p999, _) = s.summary();
    row(
        &[
            "model (30K events)".into(),
            ms(mean),
            ms(p90),
            ms(p99),
            ms(p999),
        ],
        &[22, 8, 8, 8, 8],
    );
    row(
        &[
            "paper".into(),
            "1077".into(),
            "1503".into(),
            "2087".into(),
            "2858".into(),
        ],
        &[22, 8, 8, 8, 8],
    );

    // Cross-check: measured activation in the packet-level cluster.
    let mut measured = Samples::new();
    for seed in 0..24 {
        let mut cluster = harness::testbed(harness::TestbedOpts {
            seed: 1000 + seed,
            ..harness::TestbedOpts::scaled()
        });
        cluster
            .trigger_offload(harness::VNIC, cluster.now())
            .unwrap();
        let t = cluster.now();
        cluster.run_until(t + SimDuration::from_secs(6));
        for v in cluster
            .metrics()
            .snapshot()
            .histogram("offload.completion")
            .raw()
        {
            measured.record(*v);
        }
    }
    let report = report.summary("completion_measured_secs", &measured, "s");
    let (m_mean, _, m90, _, _, _) = measured.summary();
    println!();
    println!(
        "  packet-level cross-check over {} activations: avg {} ms, P90 {} ms",
        measured.len(),
        ms(m_mean),
        ms(m90)
    );
    report
}
