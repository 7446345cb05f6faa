//! Fig. 2 — CPU usage of high-CPS VMs vs. their vSwitches.
//!
//! Paper: every high-CPS VM's vSwitch runs at >95% CPU, while 90% of the
//! VMs themselves stay below 60% — the resource gap that motivates
//! offloading. We sample the tenant population, take the top CPS
//! demanders, and compare their own CPU against the vSwitch CPU their
//! demand induces.

use crate::output::*;
use nezha_sim::rng::SimRng;
use nezha_sim::stats::Samples;
use nezha_vswitch::config::VSwitchConfig;
use nezha_workloads::tenants::TenantPopulation;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 2", "CPU usage of high-CPS VMs and their vSwitches");
    let mut rng = SimRng::new(2);
    let pop = TenantPopulation::default();
    let tenants = pop.sample_many(400_000, &mut rng);
    let vswitch_cap = VSwitchConfig::default().nominal_cps(64, 100, 0);

    // "High-CPS VMs": demand at or beyond the vSwitch's capacity.
    let mut hot: Vec<_> = tenants.iter().filter(|t| t.cps > vswitch_cap).collect();
    hot.sort_by(|a, b| b.cps.total_cmp(&a.cps));

    let mut vm_cpu = Samples::new();
    let mut vs_cpu = Samples::new();
    for t in &hot {
        vm_cpu.record(t.vm_cpu);
        vs_cpu.record((t.cps / vswitch_cap).min(1.0));
    }
    let under60 = hot.iter().filter(|t| t.vm_cpu < 0.6).count() as f64 / hot.len().max(1) as f64;
    let vs_over95 =
        vs_cpu.raw().iter().filter(|&&u| u > 0.95).count() as f64 / vs_cpu.len().max(1) as f64;

    println!("  high-CPS VMs (demand > vSwitch capacity): {}", hot.len());
    let mut report = BenchReport::new("fig2")
        .metric("high_cps_vms", hot.len() as f64, "vms")
        .metric("vswitch_over95_share", vs_over95, "fraction")
        .metric("vm_under60_share", under60, "fraction");
    header(&["series", "P10", "P50", "P90", "mean"], &[22, 8, 8, 8, 8]);
    for (name, s) in [("VM CPU", &mut vm_cpu), ("vSwitch CPU", &mut vs_cpu)] {
        let cells = [
            ("p10", s.percentile(10.0)),
            ("p50", s.percentile(50.0)),
            ("p90", s.percentile(90.0)),
            ("mean", s.mean()),
        ];
        let mut line = vec![name.to_string()];
        for (field, v) in cells {
            report = report.metric(format!("cpu_{field}{{series={name}}}"), v, "fraction");
            line.push(pct(v));
        }
        row(&line, &[22, 8, 8, 8, 8]);
    }
    println!();
    println!(
        "  vSwitches above 95% CPU : {} (paper: all)",
        pct(vs_over95)
    );
    println!("  VMs below 60% own CPU   : {} (paper: ~90%)", pct(under60));
    report
}
