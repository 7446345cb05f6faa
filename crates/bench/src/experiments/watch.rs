//! `watch` — the live observability view: windowed rollups, SLO
//! watchdog events, and Prometheus/JSONL exports.
//!
//! Two experiments:
//!
//! * `watch` — the packet-level testbed under the chaos crash
//!   scenario (steady TCP_CRR load, an FE crash at t = 6 s, restart at
//!   t = 11 s) with 1-second windows. The run is stepped window by
//!   window, printing one live table row per closed window, and the SLO
//!   watchdog must catch the crash: the run asserts at least one breach
//!   event, so `scripts/check.sh --fast` uses this as the observability
//!   smoke.
//! * `watch_region` — the fluid region simulator through a production
//!   day, one window per epoch, with the region SLO rule set.
//!
//! Both attach three artifacts to their report: `windows.jsonl` (the
//! full window stream, one JSON object per line), `slo.jsonl` (the SLO
//! event log) and `prom` (the final metrics snapshot in Prometheus text
//! format). All three are deterministic: same seed ⇒ byte-identical
//! files, for any shard count.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_core::region::{Region, RegionConfig, Scenario};
use nezha_sim::fault::FaultPlan;
use nezha_sim::metrics::{MetricsRegistry, MetricsSnapshot};
use nezha_sim::obs::{prometheus_text, SloRule, WindowRecord, WindowedRollup};
use nezha_sim::time::SimDuration;
use nezha_workloads::cps::CpsWorkload;

/// Window width on the chaos config.
const CHAOS_WINDOW: SimDuration = SimDuration::from_secs(1);
/// Simulated seconds the chaos config runs (load + drain).
const CHAOS_RUN_SECS: u64 = 18;

/// The SLO rule set the chaos watch runs (all window-delta based).
fn chaos_rules() -> Vec<SloRule> {
    vec![
        SloRule::loss_rate_above("pkt_loss", "pkt.dropped", "pkt.ok", 0.01),
        SloRule::p99_above("conn_p99", "latency.conn", 0.01),
        SloRule::p99_above("detect_slow", "fault.detection_latency", 4.0),
        SloRule::fairness_below("fe_imbalance", "fe.rx_pkts", 0.4),
    ]
}

/// The SLO rule set the region watch runs (mirrors the unit tests in
/// `nezha_core::region`).
fn region_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
        SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        SloRule::fairness_below("overload_skew", "region.overload.", 0.35),
    ]
}

/// Prints one live table row for a freshly closed window.
fn window_row(rec: &WindowRecord, rollup: &WindowedRollup, widths: &[usize]) {
    let ok = rec.counter("pkt.ok");
    let dropped = rec.counter("pkt.dropped");
    let total = ok + dropped;
    let loss = if total == 0 {
        0.0
    } else {
        dropped as f64 / total as f64
    };
    let p99 = rec
        .hist("latency.conn")
        .map_or("-".into(), |s| format!("{:.1}ms", s.p99 * 1e3));
    let events = rollup
        .watchdog()
        .events()
        .iter()
        .filter(|e| e.window == rec.index)
        .count();
    row(
        &[
            rec.index.to_string(),
            eng(ok as f64),
            eng(dropped as f64),
            pct(loss),
            p99,
            rec.counter("ctrl.failover_events").to_string(),
            events.to_string(),
        ],
        widths,
    );
}

/// The chaos watch: stepped live run, asserting the watchdog fires.
pub fn run() -> BenchReport {
    banner(
        "watch",
        "Live windowed rollups under the chaos crash scenario",
    );
    let mut cluster = harness::testbed(TestbedOpts::scaled());
    cluster.enable_windows(CHAOS_WINDOW, 64, chaos_rules());
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
    let mut conns = 0u64;
    for s in wl.generate(start, &mut rng) {
        cluster.add_conn(s).unwrap();
        conns += 1;
    }
    let victim = cluster.fe_servers(harness::VNIC)[0];
    let fault_at = start + SimDuration::from_secs(6);
    cluster.apply_fault_plan(
        FaultPlan::new()
            .crash(fault_at, victim)
            .restart(fault_at + SimDuration::from_secs(5), victim),
    );

    let widths = [6usize, 10, 10, 8, 9, 10, 7];
    header(
        &[
            "window",
            "pkt.ok",
            "dropped",
            "loss",
            "conn p99",
            "failovers",
            "events",
        ],
        &widths,
    );
    // Step the run one window at a time; each step closes (at least) one
    // window, which is printed as it lands — the live view.
    let mut shown = cluster.windows().map_or(0, |w| w.closed());
    for step in 0..CHAOS_RUN_SECS {
        cluster.run_until(start + SimDuration::from_secs(step + 1));
        let rollup = cluster.windows().expect("windows enabled");
        for rec in rollup.windows().filter(|r| r.index >= shown) {
            window_row(rec, rollup, &widths);
        }
        shown = rollup.closed();
    }
    println!();

    let rollup = cluster.windows().expect("windows enabled");
    let events = rollup.watchdog().events();
    println!("  SLO events ({}):", events.len());
    for e in events {
        println!("    {}", e.json_line());
    }
    assert!(
        !events.is_empty(),
        "watch chaos: the crash scenario must trip at least one SLO rule"
    );
    let breaches = events
        .iter()
        .filter(|e| e.edge == nezha_sim::obs::SloEdge::Breach)
        .count();

    let report = BenchReport::new("watch")
        .config("window_secs", CHAOS_WINDOW.as_secs_f64())
        .config("seed", cluster.cfg.seed)
        .metric("conns_offered", conns as f64, "conns")
        .metric("windows_closed", rollup.closed() as f64, "windows")
        .metric("slo_events", events.len() as f64, "events")
        .metric("slo_breaches", breaches as f64, "events");
    with_artifacts(report, rollup, &cluster.metrics().snapshot())
}

/// The region watch: one production day, one window per epoch.
pub fn run_region() -> BenchReport {
    banner("watch", "Windowed rollups over a region production day");
    let mut region = Region::new(RegionConfig {
        servers: 2_000,
        shards: 4,
        tenants: 100_000,
        spike_prob: 0.01,
        ..RegionConfig::default()
    });
    region.enable_windows(48, region_rules());
    let reg = MetricsRegistry::new();
    region
        .run_scenario(&Scenario::production_day(), true)
        .record_into(&reg);

    let rollup = region.windows().expect("windows enabled");
    let widths = [6usize, 10, 10, 10, 10, 7];
    header(
        &[
            "window",
            "cpu p99",
            "overloads",
            "grants",
            "migrations",
            "events",
        ],
        &widths,
    );
    for rec in rollup.windows() {
        let overloads = rec.counter("region.overload.cps")
            + rec.counter("region.overload.flows")
            + rec.counter("region.overload.vnics");
        let events = rollup
            .watchdog()
            .events()
            .iter()
            .filter(|e| e.window == rec.index)
            .count();
        row(
            &[
                rec.index.to_string(),
                rec.hist("region.util.cpu")
                    .map_or("-".into(), |s| pct(s.p99)),
                overloads.to_string(),
                rec.counter("region.offload_granted").to_string(),
                rec.counter("region.migrations").to_string(),
                events.to_string(),
            ],
            &widths,
        );
    }
    println!();
    let events = rollup.watchdog().events();
    println!("  SLO events ({}):", events.len());
    for e in events {
        println!("    {}", e.json_line());
    }

    let report = BenchReport::new("watch_region")
        .config("servers", 2_000)
        .config("shards", 4)
        .metric("windows_closed", rollup.closed() as f64, "windows")
        .metric("slo_events", events.len() as f64, "events");
    with_artifacts(report, rollup, &reg.snapshot())
}

/// Attaches the window stream, the SLO event log and the Prometheus
/// rendering of `snap`.
fn with_artifacts(
    report: BenchReport,
    rollup: &WindowedRollup,
    snap: &MetricsSnapshot,
) -> BenchReport {
    report
        .artifact("windows.jsonl", rollup.jsonl())
        .artifact("slo.jsonl", rollup.watchdog().events_jsonl())
        .artifact("prom", prometheus_text(snap))
}
