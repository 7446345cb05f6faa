//! Failure-injection scenarios: FE crashes, detection latency, the ≥4-FE
//! floor, widespread-failure suspension (Appendix C), and the fate of
//! in-flight traffic.

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

fn cluster() -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .build();
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    c
}

fn steady_traffic(c: &mut Cluster, count: u32, spacing: SimDuration) {
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

#[test]
fn detection_and_failover_complete_within_2_5s() {
    let mut c = cluster();
    let victim = c.fe_servers(VNIC)[0];
    let crash = c.now() + SimDuration::from_secs(1);
    c.apply_fault_plan(FaultPlan::new().crash(crash, victim));
    c.run_until(crash + SimDuration::from_millis(2_500));
    // Paper §4.4 / Fig. 14: detection + failover within ~2 s.
    assert_eq!(c.stats().failover_events, 1, "failover must have completed");
    let fes = c.fe_servers(VNIC);
    assert!(!fes.contains(&victim));
    assert_eq!(fes.len(), 4, "the 4-FE floor is restored: {fes:?}");
    // The gateway no longer routes new flows to the corpse.
    let addr_servers = c.gateway.current(SERVICE).unwrap();
    assert!(!addr_servers.contains(&victim));
}

#[test]
fn traffic_recovers_after_crash_via_retransmission() {
    let mut c = cluster();
    steady_traffic(&mut c, 3_000, SimDuration::from_millis(2)); // 6s of traffic
    let victim = c.fe_servers(VNIC)[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_secs(2), victim));
    c.run_until(c.now() + SimDuration::from_secs(12));
    let total = c.stats().completed + c.stats().failed + c.stats().denied;
    assert_eq!(total, 3_000);
    // Losses happened (the surge) ...
    let dropped = c.stats().pkts.dropped;
    assert!(dropped > 0);
    // ... the fault plane saw the crash, and every one of them happened
    // while it was active.
    let snap = c.metrics().snapshot();
    assert_eq!(snap.counter("fault.events"), 1);
    assert_eq!(snap.counter("fault.inflight_loss"), dropped);
    // ... but retransmission + failover saved nearly everything.
    assert!(
        c.stats().completed >= 2_980,
        "completed only {} of 3000",
        c.stats().completed
    );
}

#[test]
fn multiple_sequential_crashes_keep_the_pool_alive() {
    let mut c = cluster();
    steady_traffic(&mut c, 4_000, SimDuration::from_millis(3)); // 12s
                                                                // Crash two different FEs, 4 seconds apart.
    let f1 = c.fe_servers(VNIC)[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_secs(2), f1));
    c.run_until(c.now() + SimDuration::from_secs(5));
    let f2 = *c
        .fe_servers(VNIC)
        .iter()
        .find(|s| **s != f1)
        .expect("pool refilled");
    c.apply_fault_plan(FaultPlan::new().crash(c.now(), f2));
    c.run_until(c.now() + SimDuration::from_secs(9));

    assert_eq!(c.stats().failover_events, 2);
    let fes = c.fe_servers(VNIC);
    assert_eq!(fes.len(), 4);
    assert!(!fes.contains(&f1) && !fes.contains(&f2));
    assert!(
        c.stats().completed >= 3_950,
        "completed {}",
        c.stats().completed
    );
}

#[test]
fn widespread_apparent_failure_suspends_auto_removal() {
    // Appendix C.2: when a majority of monitored FE hosts appear dead at
    // once, it is far more likely a monitoring bug than a real outage —
    // the monitor suspends automatic removal.
    let mut c = cluster();
    let fes = c.fe_servers(VNIC);
    assert_eq!(fes.len(), 4);
    // Kill 3 of 4 simultaneously (in the model this stands in for a
    // monitor bug reporting them all unreachable).
    for &fe in &fes[..3] {
        c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_millis(100), fe));
    }
    c.run_until(c.now() + SimDuration::from_secs(5));
    assert!(c.stats().monitor_suspensions >= 1, "monitor must suspend");
    assert_eq!(
        c.stats().failover_events,
        0,
        "automatic removal suspended during widespread failure"
    );
    // The FE set is untouched, pending manual inspection.
    assert_eq!(c.fe_count(VNIC), 4);
}

#[test]
fn crash_of_a_nonmember_server_changes_nothing() {
    let mut c = cluster();
    let fes_before = c.fe_servers(VNIC);
    let outsider = ServerId(11);
    assert!(!fes_before.contains(&outsider));
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_millis(100), outsider));
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert_eq!(c.stats().failover_events, 0);
    let mut a = c.fe_servers(VNIC);
    let mut b = fes_before.clone();
    a.sort_unstable_by_key(|s| s.0);
    b.sort_unstable_by_key(|s| s.0);
    assert_eq!(a, b);
}
