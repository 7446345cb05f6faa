//! Fig. 11 — CPU utilization during offloading and FE scaling.
//!
//! Paper: ramping a vNIC's CPS drives the BE vSwitch's CPU toward the 70%
//! offload threshold; offloading to 4 FEs drops it to ~10% (residual
//! state handling); the continuing ramp pushes the FEs' average CPU past
//! the 40% scale threshold, triggering scale-out to 8 FEs, which halves
//! the per-FE load.
//!
//! Fully automatic here: the controller makes every decision; the
//! experiment only ramps the offered CPS and samples utilizations.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_sim::rng::SimRng;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner(
        "Fig. 11",
        "CPU utilization during offloading/scaling (automatic)",
    );
    let mut cluster = harness::testbed(TestbedOpts {
        auto: true,
        ..TestbedOpts::scaled()
    });
    let total = SimDuration::from_secs(16);
    let local_cap = harness::local_capacity(&cluster);

    // Ramp: offered CPS grows linearly to 1.75x the local capability over
    // the first 10 s — past the 70% offload threshold, then past the
    // 4-FE pool's 40% scale threshold — and holds there, as in the
    // paper's script-driven Fig. 11.
    let mut rng = SimRng::new(11);
    let mut t = SimTime::ZERO;
    let mut n = 0u64;
    while t < SimTime::ZERO + total {
        let frac = (t.as_secs_f64() / 10.0).min(1.0);
        let rate = (1.75 * local_cap * frac).max(200.0);
        t += SimDuration::from_secs_f64(rng.exp(1.0 / rate));
        let client = Ipv4Addr::new(10, 7, 1, (n % 200) as u8 + 1);
        cluster
            .add_conn(ConnSpec {
                vnic: harness::VNIC,
                vpc: harness::VPC,
                tuple: FiveTuple::tcp(
                    client,
                    (10_000 + (n / 200) % 50_000) as u16,
                    harness::SERVICE_ADDR,
                    harness::SERVICE_PORT,
                ),
                peer_server: harness::client_servers()[(n % 8) as usize],
                kind: ConnKind::Inbound,
                start: t,
                payload: 64,
                overlay_encap_src: None,
            })
            .unwrap();
        n += 1;
    }

    // Sample utilizations every 500 ms while the ramp plays out.
    let widths = [8usize, 10, 10, 8, 26];
    header(&["t(s)", "BE CPU", "FE avg", "#FEs", "events"], &widths);
    let mut be_series = Vec::new();
    let mut fe_series = Vec::new();
    let mut last_events = (0u64, 0u64);
    let mut report = BenchReport::new("fig11");
    for step in 1..=32 {
        let sample_at = SimTime(step * 500_000_000);
        cluster.run_until(sample_at);
        let be = cluster
            .switch(harness::HOME)
            .unwrap()
            .cpu_utilization(sample_at);
        let fes = cluster.fe_servers(harness::VNIC);
        let fe_avg = if fes.is_empty() {
            0.0
        } else {
            fes.iter()
                .map(|s| cluster.switch(*s).unwrap().cpu_utilization(sample_at))
                .sum::<f64>()
                / fes.len() as f64
        };
        be_series.push(be);
        fe_series.push(fe_avg);
        let snap = cluster.metrics().snapshot();
        let events = (
            snap.counter("ctrl.offload_events"),
            snap.counter("ctrl.scale_out_events"),
        );
        let note = if events.0 > last_events.0 {
            "<- offload triggered"
        } else if events.1 > last_events.1 {
            "<- FE scale-out triggered"
        } else {
            ""
        };
        last_events = events;
        if step % 2 == 0 || !note.is_empty() {
            let t = format!("{{t={:.1}}}", sample_at.as_secs_f64());
            report = report
                .metric(format!("be_cpu{t}"), be, "fraction")
                .metric(format!("fe_avg_cpu{t}"), fe_avg, "fraction")
                .metric(format!("fes{t}"), fes.len() as f64, "fes");
            row(
                &[
                    format!("{:.1}", sample_at.as_secs_f64()),
                    pct(be),
                    pct(fe_avg),
                    fes.len().to_string(),
                    note.to_string(),
                ],
                &widths,
            );
        }
    }
    println!();
    println!("  BE CPU : {}", sparkline(&be_series));
    println!("  FE avg : {}", sparkline(&fe_series));
    let snap = cluster.metrics().snapshot();
    let (offloads, scale_outs) = (
        snap.counter("ctrl.offload_events"),
        snap.counter("ctrl.scale_out_events"),
    );
    println!(
        "  offloads: {offloads}, scale-outs: {scale_outs} (paper: offload at 70% -> BE drops to ~10%;"
    );
    println!("  FE scale-out at 40% -> per-FE load halves, 4 -> 8 FEs)");
    report
        .metric("offload_events", offloads as f64, "events")
        .metric("scale_out_events", scale_outs as f64, "events")
        .artifact("metrics.json", snap.to_json())
}
