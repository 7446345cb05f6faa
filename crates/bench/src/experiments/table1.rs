//! Table 1 — normalized distribution of CPS, #concurrent-flow, and #vNIC
//! usage across VMs.
//!
//! Paper: P50 VMs use a fraction of a percent of what P9999 VMs use —
//! e.g. CPS shares 0.53% / 1.41% / 6.41% / 18.38% / 100%. We compute the
//! same normalized percentiles over the synthetic tenant population.

use crate::output::*;
use nezha_sim::rng::SimRng;
use nezha_workloads::tenants::TenantPopulation;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Table 1", "Normalized usage distribution across VMs");
    let mut rng = SimRng::new(1);
    let shares = TenantPopulation::default().usage_shares(200_000, &mut rng);

    header(
        &["capability", "P50", "P90", "P99", "P999", "P9999"],
        &[18, 8, 8, 8, 8, 8],
    );
    let mut report = BenchReport::new("table1");
    for (name, s) in [
        ("CPS", shares.cps),
        ("#concurrent flows", shares.flows),
        ("#vNICs", shares.vnics),
    ] {
        for (p, v) in ["p50", "p90", "p99", "p999", "p9999"].iter().zip(s) {
            report = report.metric(
                format!("usage_share{{capability={name},pct={p}}}"),
                v,
                "fraction",
            );
        }
        row(
            &[
                name.to_string(),
                pct(s[0]),
                pct(s[1]),
                pct(s[2]),
                pct(s[3]),
                pct(s[4]),
            ],
            &[18, 8, 8, 8, 8, 8],
        );
    }
    println!();
    println!("  paper (CPS row): 0.53%  1.41%  6.41%  18.38%  100%");
    report
}
