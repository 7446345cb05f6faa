//! Fig. 4 — resource-utilization CDFs over O(10K) vSwitches.
//!
//! Paper values: CPU avg ≈5%, P90 ≈15%, P99 ≈41%, P999 ≈68%, P9999 ≈90%;
//! memory avg ≈1.5%, P90 ≈15%, P99 ≈34%, P999 ≈93%, P9999 ≈96% — the
//! "shortage and waste" paradox. We snapshot the fluid region's per-server
//! utilization.

use crate::output::*;
use nezha_core::region::{Region, RegionConfig};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 4", "Resource utilization CDF on O(10K) vSwitches");
    let mut region = Region::new(RegionConfig {
        servers: 10_000,
        seed: 4,
        ..RegionConfig::default()
    });
    let mut run = region.run_days(4, false);
    // Summarized before the table's percentile queries sort the samples.
    let report = BenchReport::new("fig4")
        .summary("region.cpu_util", &run.cpu_utils, "fraction")
        .summary("region.mem_util", &run.mem_utils, "fraction");

    header(
        &[
            "resource",
            "avg",
            "P90",
            "P99",
            "P999",
            "P9999",
            "paper avg/P9999",
        ],
        &[8, 8, 8, 8, 8, 8, 16],
    );
    let (c_mean, _, c90, c99, c999, c9999) = run.cpu_utils.summary();
    row(
        &[
            "CPU".into(),
            pct(c_mean),
            pct(c90),
            pct(c99),
            pct(c999),
            pct(c9999),
            "5% / 90%".into(),
        ],
        &[8, 8, 8, 8, 8, 8, 16],
    );
    let (m_mean, _, m90, m99, m999, m9999) = run.mem_utils.summary();
    row(
        &[
            "memory".into(),
            pct(m_mean),
            pct(m90),
            pct(m99),
            pct(m999),
            pct(m9999),
            "1.5% / 96%".into(),
        ],
        &[8, 8, 8, 8, 8, 8, 16],
    );
    println!();
    println!(
        "  imbalance: CPU P9999 / avg = {:.1}x (paper ~20x), mem P9999 / avg = {:.1}x (paper ~64x)",
        c9999 / c_mean,
        m9999 / m_mean
    );
    report
        .metric("cpu_imbalance", c9999 / c_mean, "x")
        .metric("mem_imbalance", m9999 / m_mean, "x")
}
