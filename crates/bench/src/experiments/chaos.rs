//! Chaos — Fig. 14 / Appendix C recovery behaviour under every scripted
//! fault class of `nezha_sim::fault`.
//!
//! For each class (FE crash, gray-slow member, bursty link loss,
//! partition, controller outage, notify loss) the same steady workload
//! runs for 14 s with the fault injected at t = 6 s, and the loss surge,
//! failover count, and crash-to-failover detection latency are compared
//! against the paper's ~2 s recovery envelope.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_core::cluster::Cluster;
use nezha_sim::fault::{FaultPlan, GilbertElliott};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_workloads::cps::CpsWorkload;

struct Outcome {
    offered: u64,
    surge_len: f64,
    peak_loss: f64,
    failovers: u64,
    detection: Option<f64>,
    completed: u64,
    degraded: u64,
}

/// One fault-class scenario: fresh testbed, 14 s of steady traffic,
/// the plan built by `mk_plan(cluster, fault_at)` applied at t = 6 s.
/// Returns the outcome and the cluster's registry dump.
fn scenario(id: &str, mk_plan: impl Fn(&Cluster, SimTime) -> FaultPlan) -> (Outcome, String) {
    let mut cluster = harness::testbed(TestbedOpts::scaled());
    harness::offload_and_settle(&mut cluster);
    let cap = harness::local_capacity(&cluster);

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
    let mut total = 0u64;
    for s in wl.generate(start, &mut rng) {
        cluster.add_conn(s).unwrap();
        total += 1;
    }
    let fault_at = start + SimDuration::from_secs(6);
    cluster.apply_fault_plan(mk_plan(&cluster, fault_at));
    cluster.run_until(start + SimDuration::from_secs(18));

    let snap = cluster.metrics().snapshot();
    let t0 = fault_at.as_secs_f64();
    let series: Vec<(f64, f64)> = snap
        .series("pkt.loss")
        .ratio(snap.series("pkt.total"))
        .into_iter()
        .filter(|(t, _)| (*t >= t0 - 1.0) && (*t <= t0 + 6.0))
        .collect();
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
    let det = snap.histogram("fault.detection_latency");
    let outcome = Outcome {
        offered: total,
        surge_len,
        peak_loss: series.iter().map(|(_, v)| *v).fold(0.0, f64::max),
        failovers: snap.counter("ctrl.failover_events"),
        detection: if det.is_empty() {
            None
        } else {
            Some(det.mean())
        },
        completed: snap.counter("conn.completed"),
        degraded: snap.counter("ctrl.degraded_events"),
    };
    println!(
        "  {id}: completed {}/{total}, loss per 100ms bin around the fault:",
        outcome.completed
    );
    println!(
        "  {}",
        sparkline(&series.iter().map(|(_, v)| *v).collect::<Vec<_>>())
    );
    (outcome, snap.to_json())
}

/// Runs every fault scenario, printing the recovery table and returning
/// the per-fault outcomes as a typed report, with each scenario's
/// registry dump as the artifact `<fault>.metrics.json`.
pub fn run() -> BenchReport {
    banner(
        "Chaos",
        "Recovery under scripted fault classes (Fig. 14, App. C)",
    );

    let crash = scenario("crash", |c, at| {
        let victim = c.fe_servers(harness::VNIC)[0];
        FaultPlan::new()
            .crash(at, victim)
            .restart(at + SimDuration::from_secs(5), victim)
    });
    let gray = scenario("gray_slow", |c, at| {
        let victim = c.fe_servers(harness::VNIC)[0];
        FaultPlan::new()
            .gray_slow(at, victim, 1_000.0)
            .gray_recover(at + SimDuration::from_secs(2), victim)
    });
    let bursty = scenario("bursty_loss", |c, at| {
        let victim = c.fe_servers(harness::VNIC)[0];
        FaultPlan::new()
            .bursty_loss(at, harness::HOME, victim, GilbertElliott::bursty())
            .link_heal(at + SimDuration::from_secs(3), harness::HOME, victim)
    });
    let partition = scenario("partition", |c, at| {
        let victim = c.fe_servers(harness::VNIC)[0];
        let others: Vec<_> = (0..32)
            .map(nezha_types::ServerId)
            .filter(|s| *s != victim)
            .collect();
        FaultPlan::new()
            .partition(at, vec![victim], others)
            .heal_partition(at + SimDuration::from_secs(5))
    });
    let outage = scenario("ctrl_outage", |c, at| {
        let victim = c.fe_servers(harness::VNIC)[0];
        FaultPlan::new()
            .controller_outage(at)
            .crash(at + SimDuration::from_millis(250), victim)
            .controller_recover(at + SimDuration::from_secs(3))
    });
    let collapse = scenario("collapse", |c, at| {
        let mut plan = FaultPlan::new();
        for fe in c.fe_servers(harness::VNIC) {
            plan = plan.crash(at, fe);
        }
        plan
    });

    let runs = [
        ("crash", crash),
        ("gray_slow", gray),
        ("bursty_loss", bursty),
        ("partition", partition),
        ("ctrl_outage", outage),
        ("collapse", collapse),
    ];

    println!();
    let widths = [14usize, 10, 10, 10, 12, 10];
    header(
        &[
            "fault",
            "surge",
            "peak loss",
            "failovers",
            "detection",
            "degraded",
        ],
        &widths,
    );
    for (name, (o, _)) in &runs {
        row(
            &[
                name.to_string(),
                format!("{:.1}s", o.surge_len),
                pct(o.peak_loss),
                o.failovers.to_string(),
                o.detection.map_or("-".into(), |d| format!("{d:.2}s")),
                o.degraded.to_string(),
            ],
            &widths,
        );
    }
    println!();
    println!("  paper: crash surge ~2s (3×500ms pings + config push); gray/");
    println!("  bursty faults ride on retries without failover; a controller");
    println!("  outage stretches detection by its length; total collapse");
    println!("  degrades to local processing instead of dropping the VM.");

    let [crash, gray, _, _, outage, _] = runs.each_ref().map(|(_, (o, _))| o);
    assert!(crash.failovers >= 1, "crash must fail over");
    assert_eq!(gray.failovers, 0, "gray-slow must not fail over");
    assert!(
        outage.detection.unwrap_or(0.0) > crash.detection.unwrap_or(f64::MAX),
        "controller outage must delay detection"
    );

    let mut report = BenchReport::new("chaos").config("testbed", "scaled");
    for (name, (o, dump)) in runs {
        report = report
            .metric(format!("{name}.offered"), o.offered as f64, "conns")
            .metric(format!("{name}.completed"), o.completed as f64, "conns")
            .metric(format!("{name}.failovers"), o.failovers as f64, "events")
            .metric(format!("{name}.surge_len"), o.surge_len, "s")
            .metric(format!("{name}.peak_loss"), o.peak_loss, "fraction")
            .metric(format!("{name}.degraded"), o.degraded as f64, "events");
        if let Some(d) = o.detection {
            report = report.metric(format!("{name}.detection"), d, "s");
        }
        report = report.artifact(format!("{name}.metrics.json"), dump);
    }
    report
}
