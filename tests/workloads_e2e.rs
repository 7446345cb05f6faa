//! Workload-driven end-to-end scenarios: SYN floods vs. aging, persistent
//! flows vs. session capacity, link partitions vs. mutual pings, and the
//! packet-level LB ablation's cache behaviour.

use nezha::core::cluster::{Cluster, ClusterConfig, LbMode};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::session::SESSION_AGING;
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::workloads::flows::PersistentFlows;
use nezha::workloads::syn_flood::SynFlood;

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

fn cluster_with(f: impl FnOnce(&mut ClusterConfig)) -> Cluster {
    let mut cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .build();
    f(&mut cfg);
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c
}

#[test]
fn syn_flood_cannot_pin_be_memory() {
    let mut c = cluster_with(|_| {});
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let flood = SynFlood {
        vnic: VNIC,
        vpc: VpcId(1),
        service_addr: SERVICE,
        service_port: 9000,
        attacker_server: ServerId(20),
        rate: 40_000.0,
        duration: SimDuration::from_secs(4),
    };
    let t = c.now();
    for s in flood.generate(t) {
        c.add_conn(s).unwrap();
    }
    let mut peak = 0usize;
    for step in 1..=6 {
        c.run_until(t + SimDuration::from_secs(step));
        peak = peak.max(c.switch(HOME).unwrap().sessions.len());
    }
    // With 1 s SYN aging the table holds at most ~1 s of flood (plus
    // sweep slack), not the full 160K offered.
    assert!(peak < 90_000, "SYN aging failed: peak {peak}");
    // And it fully drains afterwards.
    c.run_until(t + SimDuration::from_secs(8));
    assert_eq!(c.switch(HOME).unwrap().sessions.len(), 0);
    let (_, expired, _) = c.switch(HOME).unwrap().sessions.counters();
    assert!(expired >= 159_000, "expired {expired}");
}

#[test]
fn syn_flood_without_short_aging_would_blow_the_table() {
    // Counterfactual: set SYN aging equal to the 8s established timeout
    // and the same flood pins ~8x the entries.
    let mut c = cluster_with(|cfg| {
        cfg.vswitch.syn_aging = SESSION_AGING;
    });
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    let flood = SynFlood {
        vnic: VNIC,
        vpc: VpcId(1),
        service_addr: SERVICE,
        service_port: 9000,
        attacker_server: ServerId(20),
        rate: 40_000.0,
        duration: SimDuration::from_secs(4),
    };
    let t = c.now();
    for s in flood.generate(t) {
        c.add_conn(s).unwrap();
    }
    let mut peak = 0usize;
    for step in 1..=6 {
        c.run_until(t + SimDuration::from_secs(step));
        peak = peak.max(c.switch(HOME).unwrap().sessions.len());
    }
    assert!(
        peak > 150_000,
        "without short aging the flood should pin most entries, peak {peak}"
    );
}

#[test]
fn persistent_flows_live_exactly_until_idle_aging() {
    let mut c = cluster_with(|_| {});
    let flows = PersistentFlows {
        vnic: VNIC,
        vpc: VpcId(1),
        service_addr: SERVICE,
        service_port: 9000,
        client_servers: (12..24).map(ServerId).collect(),
        count: 5_000,
        open_interval: SimDuration::from_micros(100),
    };
    let t = c.now();
    for s in flows.generate(t) {
        c.add_conn(s).unwrap();
    }
    // All opened within ~0.5s; established entries persist...
    c.run_until(t + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 5_000);
    assert_eq!(c.switch(HOME).unwrap().sessions.len(), 5_000);
    // ... until the 8s idle timeout passes.
    c.run_until(t + SimDuration::from_secs(11));
    assert_eq!(c.switch(HOME).unwrap().sessions.len(), 0);
}

#[test]
fn be_fe_link_partition_is_detected_by_mutual_ping() {
    let mut c = cluster_with(|_| {});
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    let fes = c.fe_servers(VNIC);
    let cut = fes[1];
    // The fabric between BE and this FE dies; the FE itself stays healthy
    // (the central monitor keeps seeing it — Appendix C.1).
    c.apply_fault_plan(FaultPlan::new().partition(c.now(), vec![HOME], vec![cut]));
    c.run_until(c.now() + SimDuration::from_secs(4));
    let fes_after = c.fe_servers(VNIC);
    assert!(
        !fes_after.contains(&cut),
        "mutual ping must remove the unreachable FE: {fes_after:?}"
    );
    assert_eq!(fes_after.len(), 4, "floor restored");
    assert!(c.is_alive(cut), "the FE host itself never crashed");
}

#[test]
fn packet_level_lb_duplicates_cached_flows() {
    // The §3.2.3 cache-friendliness argument, as an invariant: under
    // packet-level spreading a single session's flow entry appears on
    // multiple FEs; under flow-level exactly one.
    for (mode, max_copies) in [(LbMode::FlowLevel, 1usize), (LbMode::PacketLevel, 4)] {
        let mut c = cluster_with(|cfg| cfg.lb_mode = mode);
        c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
        c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        let flows = PersistentFlows {
            vnic: VNIC,
            vpc: VpcId(1),
            service_addr: SERVICE,
            service_port: 9000,
            client_servers: (12..24).map(ServerId).collect(),
            count: 200,
            open_interval: SimDuration::from_micros(500),
        };
        let t = c.now();
        for s in flows.generate(t) {
            c.add_conn(s).unwrap();
        }
        c.run_until(t + SimDuration::from_secs(3));
        assert_eq!(c.stats().completed, 200);
        let cached: usize = c
            .fe_servers(VNIC)
            .iter()
            .map(|s| c.fe_cached_flows(*s, VNIC).unwrap())
            .sum();
        assert!(
            cached <= 200 * max_copies,
            "{mode:?}: {cached} cached entries"
        );
        if mode == LbMode::FlowLevel {
            assert_eq!(cached, 200, "flow-level: exactly one copy per session");
        } else {
            assert!(
                cached > 300,
                "packet-level must duplicate entries, got {cached}"
            );
        }
    }
}
