//! Fig. 3 — hotspot (overload-cause) distribution in a region.
//!
//! Paper: CPS causes ≈61% of vSwitch overloads, #concurrent flows ≈30%,
//! #vNICs ≈9% (Appendix A.1). We run the fluid region without Nezha and
//! attribute each overload to its cause.

use crate::output::*;
use nezha_core::region::{Region, RegionConfig};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 3", "Hotspot distribution in a region (pre-Nezha)");
    let mut region = Region::new(RegionConfig {
        servers: 10_000,
        spike_prob: 0.01,
        seed: 3,
        ..RegionConfig::default()
    });
    let (cps, flows, vnics) = region.run_days(20, false).totals();
    let total = (cps + flows + vnics) as f64;
    let mut report = BenchReport::new("fig3");

    header(&["cause", "overloads", "share", "paper"], &[18, 10, 8, 8]);
    for (name, key, n, paper) in [
        ("CPS", "cps", cps, "61%"),
        ("#concurrent flows", "flows", flows, "30%"),
        ("#vNICs", "vnics", vnics, "9%"),
    ] {
        report = report
            .metric(format!("region.overload.{key}"), n as f64, "overloads")
            .metric(
                format!("overload_share{{cause={key}}}"),
                n as f64 / total,
                "fraction",
            );
        row(
            &[
                name.to_string(),
                n.to_string(),
                pct(n as f64 / total),
                paper.to_string(),
            ],
            &[18, 10, 8, 8],
        );
    }
    report
}
