//! Table 3 — performance gain with three production middleboxes.
//!
//! Paper: CPS gains 4× (LB), 4.4× (NAT), 3× (TR), all reaching ≈1.3 M CPS
//! after Nezha; #vNICs > 40× for all; #concurrent-flow gains 5.04× /
//! 50.4× / 15.3×. Computed from the calibrated capacity models (see
//! `nezha_core::region::middlebox`).

use crate::output::*;
use nezha_core::region::middlebox;
use nezha_core::vm::VmConfig;
use nezha_vswitch::config::VSwitchConfig;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Table 3", "Performance gain with three middleboxes");
    let host = VSwitchConfig::middlebox_host();
    // Middlebox datapath VMs sustain ~1.3M CPS once the vSwitch is out of
    // the way (§6.3.1: "all reached around 1.3M").
    let vm = VmConfig {
        vcpus: 64,
        per_core_cps: 90_000.0,
    };
    let rows = middlebox::gains(&host, &vm);

    header(
        &[
            "middlebox",
            "CPS before",
            "CPS after",
            "CPS gain",
            "#vNICs",
            "#flows",
            "paper CPS/#flows",
        ],
        &[14, 11, 10, 9, 8, 8, 18],
    );
    let paper = [("4X", "5.04X"), ("4.4X", "50.4X"), ("3X", "15.3X")];
    let mut report = BenchReport::new("table3");
    for (r, p) in rows.iter().zip(paper) {
        let mb = format!("{{middlebox={}}}", r.name);
        report = report
            .metric(format!("cps_before{mb}"), r.cps_before, "conn/s")
            .metric(format!("cps_after{mb}"), r.cps_after, "conn/s")
            .metric(format!("cps_gain{mb}"), r.cps_gain, "x")
            .metric(format!("vnic_gain{mb}"), r.vnic_gain, "x")
            .metric(format!("flows_gain{mb}"), r.flows_gain, "x");
        row(
            &[
                r.name.to_string(),
                eng(r.cps_before),
                eng(r.cps_after),
                gain(r.cps_gain),
                format!(">{:.0}x", r.vnic_gain.min(99.0)),
                gain(r.flows_gain),
                format!("{} / {}", p.0, p.1),
            ],
            &[14, 11, 10, 9, 8, 8, 18],
        );
    }
    println!();
    println!(
        "  LB #flows after: {} (paper: \"roughly 30M flows\")",
        eng(rows[0].flows_after)
    );
    report.metric(
        format!("flows_after{{middlebox={}}}", rows[0].name),
        rows[0].flows_after,
        "flows",
    )
}
