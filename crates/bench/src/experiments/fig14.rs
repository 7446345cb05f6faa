//! Fig. 14 — impact of an FE crash on the packet loss rate.
//!
//! Paper: when an FE crashes, the region-level loss rate surges for
//! roughly 2 s — ping detection (3 × 500 ms) plus config propagation —
//! affecting only the ~1/M of traffic hashed to the dead FE, then the
//! failover restores the pool.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_sim::fault::FaultPlan;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_workloads::cps::CpsWorkload;

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 14", "Impact of an FE crash on packet loss rate");
    let mut cluster = harness::testbed(TestbedOpts::scaled());
    harness::offload_and_settle(&mut cluster);
    let cap = harness::local_capacity(&cluster);

    // Steady traffic for 14 s; crash one FE at t = 6 s.
    let start = cluster.now();
    let wl = CpsWorkload::tcp_crr(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        harness::SERVICE_PORT,
        harness::client_servers(),
        1.5 * cap,
        SimDuration::from_secs(14),
    );
    let mut rng = nezha_sim::rng::SimRng::new(14);
    for s in wl.generate(start, &mut rng) {
        cluster.add_conn(s).unwrap();
    }
    let victim = cluster.fe_servers(harness::VNIC)[0];
    let crash = start + SimDuration::from_secs(6);
    cluster.apply_fault_plan(FaultPlan::new().crash(crash, victim));
    cluster.run_until(start + SimDuration::from_secs(16));

    // Loss rate per 100 ms bin around the crash.
    let snap = cluster.metrics().snapshot();
    let ratios = snap.series("pkt.loss").ratio(snap.series("pkt.total"));
    let t0 = crash.as_secs_f64();
    let series: Vec<(f64, f64)> = ratios
        .into_iter()
        .filter(|(t, _)| (*t >= t0 - 1.0) && (*t <= t0 + 5.0))
        .collect();
    println!(
        "  crash at t={t0:.1}s; loss rate per 100ms bin (window {:.1}s..{:.1}s):",
        t0 - 1.0,
        t0 + 5.0
    );
    println!(
        "  {}",
        sparkline(&series.iter().map(|(_, v)| *v).collect::<Vec<_>>())
    );

    // Duration of the surge: first and last bins above 0.5% loss.
    let surge: Vec<f64> = series
        .iter()
        .filter(|(_, v)| *v > 0.005)
        .map(|(t, _)| *t)
        .collect();
    let surge_len = if surge.is_empty() {
        0.0
    } else {
        surge.last().unwrap() - surge.first().unwrap() + 0.1
    };
    println!();
    let widths = [28usize, 12, 12];
    header(&["quantity", "measured", "paper"], &widths);
    row(
        &[
            "loss surge duration".into(),
            format!("{surge_len:.1}s"),
            "~2s".into(),
        ],
        &widths,
    );
    let peak = series.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    row(
        &["peak loss rate".into(), pct(peak), "~1/#FEs".into()],
        &widths,
    );
    let failovers = snap.counter("ctrl.failover_events");
    row(
        &[
            "failovers completed".into(),
            failovers.to_string(),
            "1".into(),
        ],
        &widths,
    );
    let after = SimTime(((t0 + 4.0) * 1e9) as u64);
    let loss_after =
        snap.series("pkt.loss").at(after) / snap.series("pkt.total").at(after).max(1.0);
    row(
        &[
            "loss rate 4s after crash".into(),
            pct(loss_after),
            "~0".into(),
        ],
        &widths,
    );
    assert!(failovers >= 1, "failover must trigger");
    BenchReport::new("fig14")
        .metric("surge_len", surge_len, "s")
        .metric("peak_loss", peak, "fraction")
        .metric("failovers", failovers as f64, "events")
        .metric("loss_4s_after_crash", loss_after, "fraction")
        .artifact("metrics.json", snap.to_json())
}
