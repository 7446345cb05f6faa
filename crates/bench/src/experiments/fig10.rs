//! Fig. 10 — CPS under different #vCPU cores in the VM.
//!
//! Paper: with Nezha the vSwitch is out of the way, so CPS should grow
//! with VM cores — but kernel locks and connection-management limits make
//! the growth sub-linear and eventually flat; without Nezha the curve is
//! pinned at the vSwitch's capacity regardless of cores.
//!
//! Measured on the quarter-scale packet testbed (all capacity ratios
//! preserved; see `harness::TestbedOpts::scaled`).

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;

const VCPUS: [u32; 5] = [8, 16, 32, 48, 64];

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 10", "CPS vs #vCPU cores in the VM");
    let widths = [8usize, 12, 12, 12];
    header(&["vCPUs", "with Nezha", "w/o Nezha", "kernel cap"], &widths);
    let mut report = BenchReport::new("fig10");
    for &v in &VCPUS {
        let opts = TestbedOpts {
            vcpus: v,
            ..TestbedOpts::scaled()
        };
        let kernel_cap = harness::testbed(opts)
            .vm(harness::VNIC)
            .unwrap()
            .config()
            .kernel_cps_capacity();
        // With Nezha: capability with 4 FEs armed.
        let with = harness::find_capacity(
            || {
                let mut c = harness::testbed(opts);
                harness::offload_and_settle(&mut c);
                c
            },
            1_000.0,
            1.5 * kernel_cap,
        );
        // Without Nezha: local-only capability.
        let without = harness::find_capacity(
            || {
                let mut c = harness::testbed(opts);
                c.nezha_enabled = false;
                c
            },
            1_000.0,
            1.5 * kernel_cap,
        );
        report = report
            .metric(format!("cps_with_nezha{{vcpus={v}}}"), with, "conn/s")
            .metric(format!("cps_without_nezha{{vcpus={v}}}"), without, "conn/s")
            .metric(format!("kernel_cap{{vcpus={v}}}"), kernel_cap, "conn/s");
        row(
            &[v.to_string(), eng(with), eng(without), eng(kernel_cap)],
            &widths,
        );
    }
    println!();
    println!("  paper: with Nezha CPS grows sub-linearly with vCPUs (kernel locks);");
    println!("         without Nezha it stays pinned at the vSwitch's capacity");
    report
}
