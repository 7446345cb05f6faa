//! Fig. 12 — end-to-end latency with/without Nezha vs. load.
//!
//! Paper: below the 70% offload threshold the curves are identical (no
//! offload); around 80% the Nezha curve sits ~10 µs higher (the extra
//! BE↔FE hop); past ~90% the local-only curve explodes as the vSwitch
//! queue grows, while Nezha's stays flat.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_sim::time::SimDuration;

const LOADS: [f64; 8] = [0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.05];

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 12", "End-to-end latency with/without Nezha");
    let widths = [12usize, 14, 14];
    header(&["load (x cap)", "w/o Nezha", "with Nezha"], &widths);

    let mut without_series = Vec::new();
    let mut with_series = Vec::new();
    let mut report = BenchReport::new("fig12");
    for &f in &LOADS {
        // Without Nezha: the testbed never offloads on its own.
        let mut base = harness::testbed(TestbedOpts::scaled());
        let cap = harness::local_capacity(&base);
        let lat_wo = latency_under_load(&mut base, f * cap);

        // With Nezha: the controller offloads only past its threshold, so
        // below 70% the packet path is identical by construction.
        let mut nez = harness::testbed(TestbedOpts::scaled());
        if f >= 0.7 {
            harness::offload_and_settle(&mut nez);
        }
        let lat_w = latency_under_load(&mut nez, f * cap);

        without_series.push(lat_wo);
        with_series.push(lat_w);
        report = report
            .metric(format!("latency_without_nezha{{load={f:.2}}}"), lat_wo, "s")
            .metric(format!("latency_with_nezha{{load={f:.2}}}"), lat_w, "s");
        row(
            &[
                format!("{f:.2}"),
                format!("{:.1}us", lat_wo * 1e6),
                format!("{:.1}us", lat_w * 1e6),
            ],
            &widths,
        );
    }
    println!();
    println!("  w/o Nezha : {}", sparkline(&without_series));
    println!("  with Nezha: {}", sparkline(&with_series));
    println!("  paper: identical below 70%; ~10us extra hop around 80%; without");
    println!("  Nezha latency deteriorates rapidly beyond ~90% load");
    report
}

/// Applies `rate` CPS of background load, then probes latency mid-run.
fn latency_under_load(cluster: &mut nezha_core::Cluster, rate: f64) -> f64 {
    let start = cluster.now();
    let wl = nezha_workloads::cps::CpsWorkload::tcp_crr(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        harness::SERVICE_PORT,
        harness::client_servers(),
        rate.max(100.0),
        SimDuration::from_millis(1200),
    );
    let mut rng = nezha_sim::rng::SimRng::new(12);
    for s in wl.generate(start, &mut rng) {
        cluster.add_conn(s).unwrap();
    }
    // Let the load establish, then probe in the steady window.
    cluster.run_until(start + SimDuration::from_millis(600));
    harness::probe_latency(cluster, 40)
}
