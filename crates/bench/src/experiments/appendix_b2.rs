//! Appendix B.2 — production validation of the 4-FE initial pool size.
//!
//! Paper, 30 days on a cluster of tens of thousands of servers: 2 499
//! offload events provisioned 10 062 FEs in total — i.e. ≈66 scale-out
//! additions beyond the initial 4 per offload, so at most 2.6% of pools
//! ever scaled out. We run the fluid region for 30 days and report the
//! same three numbers.

use crate::output::*;
use nezha_core::region::{Region, RegionConfig};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner(
        "Appendix B.2",
        "Offload events vs. FEs provisioned over 30 days",
    );
    let mut region = Region::new(RegionConfig {
        servers: 20_000,
        spike_prob: 0.004,
        seed: 0xb2,
        ..RegionConfig::default()
    });
    let report = region.run_days(30, true);
    let per_offload = report.total_fes_provisioned as f64 / report.offload_events.max(1) as f64;
    let scaled_frac = report.scale_out_events as f64 / report.offload_events.max(1) as f64;

    header(&["quantity", "measured", "paper"], &[28, 12, 12]);
    for (name, v, p) in [
        (
            "offload events",
            report.offload_events.to_string(),
            "2499".to_string(),
        ),
        (
            "total FEs provisioned",
            report.total_fes_provisioned.to_string(),
            "10062".to_string(),
        ),
        (
            "scale-out additions",
            report.scale_out_events.to_string(),
            "≤66".to_string(),
        ),
        (
            "FEs per offload",
            format!("{per_offload:.3}"),
            "4.026".to_string(),
        ),
        (
            "pools that scaled out",
            pct(scaled_frac),
            "≤2.6%".to_string(),
        ),
    ] {
        row(&[name.to_string(), v, p], &[28, 12, 12]);
    }
    assert!(scaled_frac < 0.10, "scale-out ratio {scaled_frac} too high");
    BenchReport::new("appendix_b2")
        .metric(
            "region.offload_events",
            report.offload_events as f64,
            "events",
        )
        .metric(
            "region.fes_provisioned",
            report.total_fes_provisioned as f64,
            "fes",
        )
        .metric(
            "region.scale_out_events",
            report.scale_out_events as f64,
            "events",
        )
        .metric("fes_per_offload", per_offload, "fes")
        .metric("scaled_out_share", scaled_frac, "fraction")
}
