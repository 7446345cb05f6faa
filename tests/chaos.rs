//! Chaos suite: scripted fault injection (`nezha_sim::fault`) against
//! the full cluster, pinning the paper's recovery story (Fig. 14,
//! Appendix C) seed-for-seed.
//!
//! Every fault-class test asserts two things: a *recovery bound* (the
//! cluster actually survives the fault) and *determinism* (two runs with
//! the same seed produce byte-identical telemetry snapshots). Run with
//! `cargo test --test chaos`.

use nezha::core::cluster::{Cluster, ClusterConfig, ClusterStats};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::{FaultPlan, GilbertElliott};
use nezha::sim::metrics::MetricsDiff;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

/// An offloaded-and-settled two-rack cluster (4 ready FEs).
fn chaos_cluster(seed: u64, notify_always: bool) -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .notify_always(notify_always)
        .seed(seed)
        .build();
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    assert_eq!(c.fe_servers(VNIC).len(), 4, "offload must settle at 4 FEs");
    c
}

fn inbound_traffic(c: &mut Cluster, count: u32, spacing: SimDuration) {
    let t = c.now();
    for i in 0..count {
        c.add_conn(ConnSpec {
            vnic: VNIC,
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i / 200 * 211 + i % 200) as u16,
                SERVICE,
                9000,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Inbound,
            start: t + SimDuration(spacing.nanos() * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
}

fn outbound_traffic(c: &mut Cluster, count: u32, spacing: SimDuration) {
    let t = c.now();
    for i in 0..count {
        c.add_conn(ConnSpec {
            vnic: VNIC,
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                SERVICE,
                (1024 + i / 200 * 211 + i % 200) as u16,
                Ipv4Addr::new(10, 7, 3, (i % 200) as u8 + 1),
                443,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Outbound,
            start: t + SimDuration(spacing.nanos() * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
}

/// Runs one chaos scenario: offload + settle, `n` connections, the plan
/// built by `mk_plan(&cluster, traffic_start)`, then a long drain.
/// Returns the snapshot JSON, the fault-window metrics delta (baseline
/// taken after settling, before traffic and faults), and the stats view.
fn run_chaos(
    seed: u64,
    notify_always: bool,
    n: u32,
    outbound: bool,
    drain: SimDuration,
    mk_plan: impl Fn(&Cluster, SimTime) -> FaultPlan,
) -> (String, MetricsDiff, ClusterStats) {
    let mut c = chaos_cluster(seed, notify_always);
    let baseline = c.metrics().snapshot();
    let start = c.now();
    let spacing = SimDuration::from_millis(2);
    if outbound {
        outbound_traffic(&mut c, n, spacing);
    } else {
        inbound_traffic(&mut c, n, spacing);
    }
    c.apply_fault_plan(mk_plan(&c, start));
    c.run_until(start + SimDuration(spacing.nanos() * n as u64) + drain);
    let end = c.metrics().snapshot();
    (end.to_json(), end.diff(&baseline), c.stats())
}

/// Runs the scenario twice with the same seed, asserts the telemetry
/// snapshots are byte-identical, and returns the fault-window metrics
/// delta plus the stats view.
fn run_deterministic(
    seed: u64,
    notify_always: bool,
    n: u32,
    outbound: bool,
    drain: SimDuration,
    mk_plan: impl Fn(&Cluster, SimTime) -> FaultPlan,
) -> (MetricsDiff, ClusterStats) {
    let (json_a, diff, stats) = run_chaos(seed, notify_always, n, outbound, drain, &mk_plan);
    let (json_b, _, _) = run_chaos(seed, notify_always, n, outbound, drain, &mk_plan);
    assert_eq!(json_a, json_b, "same seed must replay byte-identically");
    (diff, stats)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

// ---------------------------------------------------------------------
// Fault class 1: FE crash + restart.
// ---------------------------------------------------------------------

#[test]
fn crash_and_restart_recovers_within_bound() {
    let (diff, stats) = run_deterministic(42, false, 1_500, false, secs(10), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        FaultPlan::new()
            .crash(t0 + secs(1), victim)
            .restart(t0 + secs(5), victim)
    });
    assert_eq!(stats.fault_events, 2);
    assert!(stats.failover_events >= 1, "crash must be failed over");
    // Detection latency metric: crash → failover within the paper's ~2 s
    // envelope (3 missed 500 ms pings + slack).
    assert!(!stats.detection_latency.is_empty());
    assert!(
        stats.detection_latency.mean() < 3.0,
        "detection took {:.2}s",
        stats.detection_latency.mean()
    );
    // Failure handling re-hashed part of the flow space.
    assert!(stats.rehash_churn >= 2, "churn {}", stats.rehash_churn);
    assert!(
        stats.completed >= 1_480,
        "completed only {} of 1500",
        stats.completed
    );
    // The windowed delta isolates the fault from the settling phase: the
    // offload fired *before* the baseline, so it must not appear here,
    // while both in-window fault events must.
    assert_eq!(diff.counter("ctrl.offload_events"), 0);
    assert_eq!(diff.counter("fault.events"), 2);
    assert!(diff.counter("ctrl.failover_events") >= 1);
}

// ---------------------------------------------------------------------
// Fault class 2: gray-slow member (degraded, not dead).
// ---------------------------------------------------------------------

#[test]
fn gray_slow_fe_degrades_then_recovers() {
    let (_, stats) = run_deterministic(43, false, 1_500, false, secs(10), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        FaultPlan::new()
            .gray_slow(t0 + secs(1), victim, 1_000.0)
            .gray_recover(t0 + secs(3), victim)
    });
    assert_eq!(stats.fault_events, 2);
    // The slow member sheds load (CPU backlog drops) but is *not*
    // declared dead — gray failure evades the liveness monitor.
    assert!(stats.pkts.dropped > 0, "gray member never overloaded");
    assert_eq!(
        stats.failover_events, 0,
        "gray-slow must not be failed over"
    );
    // Backed-off retries carry the affected flows past the recovery.
    assert!(
        stats.completed >= 1_450,
        "completed only {} of 1500",
        stats.completed
    );
}

// ---------------------------------------------------------------------
// Fault class 3: bursty (Gilbert–Elliott) link loss.
// ---------------------------------------------------------------------

#[test]
fn bursty_link_loss_is_absorbed_by_retries() {
    let (diff, stats) = run_deterministic(44, false, 1_500, false, secs(10), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        let model = GilbertElliott {
            p_enter: 0.1,
            p_exit: 0.2,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        FaultPlan::new()
            .bursty_loss(t0 + secs(1), HOME, victim, model)
            .link_heal(t0 + secs(4), HOME, victim)
    });
    assert_eq!(stats.fault_events, 2);
    // The channel actually dropped packets on the BE↔FE path ...
    assert!(
        diff.counter("fault.link_drops") > 0,
        "bursty channel never dropped"
    );
    // ... and no failover fired (both endpoints stayed healthy).
    assert_eq!(stats.failover_events, 0);
    assert!(
        stats.completed >= 1_450,
        "completed only {} of 1500",
        stats.completed
    );
}

// ---------------------------------------------------------------------
// Fault class 4: partition (BE cut off from one FE).
// ---------------------------------------------------------------------

#[test]
fn partition_is_detected_by_mutual_ping_and_healed_around() {
    let (_, stats) = run_deterministic(45, false, 1_500, false, secs(10), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        let others: Vec<ServerId> = (0..24).map(ServerId).filter(|s| *s != victim).collect();
        FaultPlan::new()
            .partition(t0 + secs(1), vec![victim], others)
            .heal_partition(t0 + secs(6))
    });
    assert_eq!(stats.fault_events, 2);
    // The central monitor still sees the victim answering, but the BE↔FE
    // mutual ping (Appendix C.1) detects the cut and removes the FE from
    // this BE's pool.
    assert!(
        stats.failover_events >= 1,
        "mutual ping must remove the partitioned FE"
    );
    assert!(
        stats.completed >= 1_450,
        "completed only {} of 1500",
        stats.completed
    );
}

// ---------------------------------------------------------------------
// Fault class 5: controller outage delays detection.
// ---------------------------------------------------------------------

#[test]
fn controller_outage_delays_crash_detection() {
    let (_, stats) = run_deterministic(46, false, 1_500, false, secs(12), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        FaultPlan::new()
            .controller_outage(t0 + SimDuration::from_millis(750))
            .crash(t0 + secs(1), victim)
            .controller_recover(t0 + secs(4))
    });
    assert_eq!(stats.fault_events, 3);
    // Failover still happens — after the controller comes back.
    assert!(stats.failover_events >= 1, "failover after recovery");
    assert!(!stats.detection_latency.is_empty());
    // Detection latency includes the ~3 s blackout: well above the
    // healthy-path ~1.5-2 s.
    assert!(
        stats.detection_latency.mean() >= 2.5,
        "outage did not delay detection: {:.2}s",
        stats.detection_latency.mean()
    );
    // The data plane kept forwarding on its last configuration: most
    // connections survive the blackout via retransmission.
    assert!(
        stats.completed >= 1_400,
        "completed only {} of 1500",
        stats.completed
    );
}

// ---------------------------------------------------------------------
// Fault class 6: notify-packet loss (best-effort channel).
// ---------------------------------------------------------------------

#[test]
fn notify_loss_degrades_no_connections() {
    // Outbound traffic: the first packet of each flow is a TX-side FE
    // cache miss, which (with `notify_always`) emits a notify packet.
    let (diff, stats) = run_deterministic(47, true, 800, true, secs(8), |_, t0| {
        FaultPlan::new()
            .notify_drop(t0, 1.0)
            .notify_drop_stop(t0 + secs(30))
    });
    assert_eq!(stats.fault_events, 1, "stop lies beyond the run window");
    // Notifies were generated (notify_always) and every one was dropped —
    // both counted within the fault window, so the deltas must agree.
    assert!(
        diff.counter("nsh.notifies") > 0,
        "no notify traffic generated"
    );
    assert_eq!(
        diff.counter("fault.notify_drops"),
        diff.counter("nsh.notifies"),
        "loss=1.0 must drop every notify"
    );
    // … yet the notify channel is best-effort by design (§3.2.2): no
    // connection is lost to it.
    assert_eq!(stats.completed, 800, "notify loss must not break conns");
    assert_eq!(stats.failover_events, 0);
}

// ---------------------------------------------------------------------
// Graceful degradation: total FE-pool collapse falls back to local.
// ---------------------------------------------------------------------

#[test]
fn fe_pool_collapse_degrades_to_local_processing() {
    let (_, stats) = run_deterministic(48, false, 1_200, true, secs(10), |c, t0| {
        let mut plan = FaultPlan::new();
        for fe in c.fe_servers(VNIC) {
            plan = plan.crash(t0 + secs(1), fe);
        }
        plan
    });
    assert_eq!(stats.fault_events, 4);
    // All 4 monitored hosts dead at once → Appendix C.2 suspension, so
    // the monitor rebuilds nothing …
    assert!(
        stats.monitor_suspensions >= 1,
        "widespread failure suspends"
    );
    // … and the data plane saves itself: the BE detects the collapsed
    // pool and re-arms its local tables.
    assert!(stats.degraded_events >= 1, "degradation must trigger");
    assert!(
        stats.completed >= 1_150,
        "completed only {} of 1200",
        stats.completed
    );
}

// ---------------------------------------------------------------------
// Suspension boundary (Appendix C.2): exactly-at vs one-past threshold,
// and resumption after recovery.
// ---------------------------------------------------------------------

#[test]
fn suspension_boundary_half_dead_still_fails_over() {
    // 2 dead of 4 targets: 2·2 = 4 is NOT > 4 — no suspension, both
    // crashes are failed over normally.
    let mut c = chaos_cluster(50, false);
    let fes = c.fe_servers(VNIC);
    let plan = FaultPlan::new()
        .crash(c.now() + secs(1), fes[0])
        .crash(c.now() + secs(1), fes[1]);
    c.apply_fault_plan(plan);
    c.run_until(c.now() + secs(6));
    assert_eq!(
        c.stats().monitor_suspensions,
        0,
        "at-threshold must not suspend"
    );
    assert_eq!(c.stats().failover_events, 2);
    let now_fes = c.fe_servers(VNIC);
    assert!(!now_fes.contains(&fes[0]) && !now_fes.contains(&fes[1]));
    assert!(!c.monitor_suspended());
}

#[test]
fn suspension_boundary_one_past_threshold_suspends() {
    // 3 dead of 4 targets: 3·2 = 6 > 4 — suspended, nothing removed.
    let mut c = chaos_cluster(50, false);
    let fes = c.fe_servers(VNIC);
    let plan = FaultPlan::new()
        .crash(c.now() + secs(1), fes[0])
        .crash(c.now() + secs(1), fes[1])
        .crash(c.now() + secs(1), fes[2]);
    c.apply_fault_plan(plan);
    c.run_until(c.now() + secs(6));
    assert!(c.stats().monitor_suspensions >= 1);
    assert_eq!(c.stats().failover_events, 0, "suspension blocks removal");
    assert_eq!(c.fe_count(VNIC), 4, "pool untouched pending inspection");
    assert!(c.monitor_suspended());
}

#[test]
fn suspension_lifts_and_failover_resumes_after_recovery() {
    // 3 of 4 die; two later restart. Once a majority answers again the
    // suspension lifts and the one genuinely dead host is failed over
    // even though its threshold crossing happened *during* suspension.
    let mut c = chaos_cluster(51, false);
    let fes = c.fe_servers(VNIC);
    let t0 = c.now();
    let plan = FaultPlan::new()
        .crash(t0 + secs(1), fes[0])
        .crash(t0 + secs(1), fes[1])
        .crash(t0 + secs(1), fes[2])
        .restart(t0 + secs(4), fes[1])
        .restart(t0 + secs(4), fes[2]);
    c.apply_fault_plan(plan);
    c.run_until(t0 + secs(3));
    assert!(c.monitor_suspended(), "suspended while majority is dead");
    c.run_until(t0 + secs(10));
    assert!(!c.monitor_suspended(), "suspension lifts after recovery");
    assert!(c.stats().monitor_suspensions >= 1);
    assert!(
        c.stats().failover_events >= 1,
        "the stale dead host must be failed over after resumption"
    );
    let now_fes = c.fe_servers(VNIC);
    assert!(!now_fes.contains(&fes[0]), "dead FE removed: {now_fes:?}");
    assert_eq!(now_fes.len(), 4, "floor restored: {now_fes:?}");
}

// ---------------------------------------------------------------------
// Reduced scenario for `scripts/check.sh --fast` / quick CI smoke.
// ---------------------------------------------------------------------

#[test]
fn smoke_crash_failover_reduced() {
    let (_, stats) = run_deterministic(7, false, 300, false, secs(8), |c, t0| {
        let victim = c.fe_servers(VNIC)[0];
        FaultPlan::new().crash(t0 + secs(1), victim)
    });
    assert!(stats.failover_events >= 1);
    assert!(stats.completed >= 295, "completed {}", stats.completed);
}
