//! Fig. 13 — daily vSwitch overload occurrences before/after Nezha.
//!
//! Paper: across two regions, Nezha mitigates >99.9% of overloads caused
//! by CPS and #concurrent flows and completely prevents #vNIC overloads;
//! the small residue comes from offloading's ~2 s activation racing the
//! fastest spikes.

use crate::output::*;
use nezha_core::region::{Region, RegionConfig};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner(
        "Fig. 13",
        "Daily overload occurrence before/after Nezha (two regions)",
    );
    let mut report = BenchReport::new("fig13");
    for (region_name, seed) in [("region A", 131u64), ("region B", 132u64)] {
        let cfg = RegionConfig {
            servers: 10_000,
            spike_prob: 0.02,
            seed,
            ..RegionConfig::default()
        };
        let before = Region::new(cfg).run_days(30, false);
        let after = Region::new(cfg).run_days(30, true);
        let (b_cps, b_flows, b_vnics) = before.totals();
        let (a_cps, a_flows, a_vnics) = after.totals();

        println!();
        println!("  {region_name} (30 days before / 30 days after):");
        header(
            &["cause", "before/day", "after/day", "mitigated"],
            &[18, 12, 12, 10],
        );
        for (name, key, b, a) in [
            ("CPS", "cps", b_cps, a_cps),
            ("#concurrent flows", "flows", b_flows, a_flows),
            ("#vNICs", "vnics", b_vnics, a_vnics),
        ] {
            let labels = format!("{{cause={key},region={region_name}}}");
            for (metric, n) in [("before_per_day", b), ("after_per_day", a)] {
                report = report.metric(format!("{metric}{labels}"), n as f64 / 30.0, "overloads");
            }
            let mitigated = if b == 0 {
                "-".to_string()
            } else {
                let share = 1.0 - a as f64 / b as f64;
                report = report.metric(format!("mitigated_share{labels}"), share, "fraction");
                pct(share)
            };
            row(
                &[
                    name.to_string(),
                    format!("{:.1}", b as f64 / 30.0),
                    format!("{:.2}", a as f64 / 30.0),
                    mitigated,
                ],
                &[18, 12, 12, 10],
            );
        }
        let total_mitigated =
            1.0 - (a_cps + a_flows + a_vnics) as f64 / (b_cps + b_flows + b_vnics).max(1) as f64;
        println!(
            "  total mitigation: {} (paper: >99.9% for CPS/flows, 100% for #vNICs)",
            pct(total_mitigated)
        );
        assert_eq!(a_vnics, 0, "vNIC overloads must be fully prevented");
        let labels = format!("{{region={region_name}}}");
        let (before, after) = (b_cps + b_flows + b_vnics, a_cps + a_flows + a_vnics);
        report = report
            .metric(
                format!("overloads_before{labels}"),
                before as f64,
                "overloads",
            )
            .metric(
                format!("overloads_after{labels}"),
                after as f64,
                "overloads",
            )
            .metric(
                format!("mitigated_share{labels}"),
                total_mitigated,
                "fraction",
            );
    }
    report
}
