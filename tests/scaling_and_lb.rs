//! Load-balancing and elastic-scaling behaviour: hash spreading across
//! FEs, scale-in prioritizing local traffic, elephant isolation, and the
//! session-table pressure relief that offloading buys.

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, SessionKey, VnicId, VpcId};
use nezha::vswitch::config::VSwitchConfig;
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::workloads::flows::PersistentFlows;

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

fn cluster(auto_scale: bool) -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto_offload(false)
        .auto_scale(auto_scale)
        .build();
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    c
}

fn inbound(i: u32, at: SimTime) -> ConnSpec {
    ConnSpec {
        vnic: VNIC,
        vpc: VpcId(1),
        tuple: FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
            (1024 + i / 200 * 199 + i % 200) as u16,
            SERVICE,
            9000,
        ),
        peer_server: ServerId(12 + i % 12),
        kind: ConnKind::Inbound,
        start: at,
        payload: 100,
        overlay_encap_src: None,
    }
}

#[test]
fn hash_lb_spreads_flows_roughly_evenly() {
    let mut c = cluster(false);
    let t = c.now();
    for i in 0..400 {
        c.add_conn(inbound(i, t + SimDuration::from_millis(i as u64)))
            .unwrap();
    }
    c.run_until(t + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 400);
    // Each FE served between 12% and 40% of the sessions (fair-ish for
    // 4-way hashing of 400 flows).
    let mut total_misses = 0u64;
    for fe in c.fe_servers(VNIC) {
        let (_, misses, _) = c.fe_counters(fe, VNIC).unwrap();
        total_misses += misses;
    }
    assert_eq!(total_misses, 400, "one slow-path lookup per session");
    for fe in c.fe_servers(VNIC) {
        let (_, misses, _) = c.fe_counters(fe, VNIC).unwrap();
        let share = misses as f64 / total_misses as f64;
        assert!(
            (0.12..0.40).contains(&share),
            "FE {fe} share {share} out of balance"
        );
    }
}

#[test]
fn scale_in_prioritizes_local_traffic() {
    // §4.3: a vSwitch whose *local* vNIC heats up evicts every FE it
    // hosts; the pool compensates elsewhere.
    let mut c = cluster(false);
    let victim_fe = c.fe_servers(VNIC)[0];
    c.scale_in_server(victim_fe);
    c.run_until(c.now() + SimDuration::from_secs(2));
    let fes = c.fe_servers(VNIC);
    assert!(!fes.contains(&victim_fe), "evicted FE must be gone");
    assert_eq!(fes.len(), 4, "compensating scale-out restores the floor");
    // Traffic still flows.
    let t = c.now();
    for i in 0..100 {
        c.add_conn(inbound(1000 + i, t + SimDuration::from_millis(i as u64)))
            .unwrap();
    }
    c.run_until(t + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 100);
}

#[test]
fn elephant_pinning_isolates_the_flow() {
    let mut c = cluster(false);
    let elephant = FiveTuple::tcp(Ipv4Addr::new(198, 19, 0, 1), 40_000, SERVICE, 9000);
    let key = SessionKey::of(VpcId(1), elephant);
    let fes = c.fe_servers(VNIC);
    let dedicated = fes[0];
    c.pin_flow(VNIC, key, dedicated).unwrap();
    // The pinned flow must always select its dedicated FE regardless of
    // what the hash says.
    let meta = c.backend(VNIC).unwrap();
    for h in 0..64u64 {
        assert_eq!(meta.select_fe(&key, h), Some(dedicated));
    }
    // Other flows still spread.
    let other = SessionKey::of(
        VpcId(1),
        FiveTuple::tcp(Ipv4Addr::new(10, 7, 2, 9), 5555, SERVICE, 9000),
    );
    let picks: std::collections::BTreeSet<_> = (0..64u64)
        .filter_map(|h| meta.select_fe(&other, h))
        .collect();
    assert!(picks.len() > 1);
}

#[test]
fn offloading_multiplies_live_session_capacity() {
    // Squeeze the session budget and show that dropping the 100B cached
    // flows (keeping 64B states) lets strictly more sessions coexist.
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        // Tables (~6.2MB) + ~1.2MB for sessions.
        .vswitch(VSwitchConfig {
            table_memory: 7_400_000,
            ..VSwitchConfig::default()
        })
        .build();

    let persistent = |count| PersistentFlows {
        vnic: VNIC,
        vpc: VpcId(1),
        service_addr: SERVICE,
        service_port: 9000,
        client_servers: (12..24).map(ServerId).collect(),
        count,
        open_interval: SimDuration::from_micros(100),
    };

    // Local: sessions cost 164B; ~1.2MB fits ~7.3K.
    let mut local = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(9000);
    local
        .add_vnic(vnic.clone(), HOME, VmConfig::with_vcpus(64))
        .unwrap();
    for s in persistent(12_000).generate(local.now()) {
        local.add_conn(s).unwrap();
    }
    local.run_until(local.now() + SimDuration::from_secs(4));
    let local_live = local.switch(HOME).unwrap().sessions.len();
    assert!(
        local.switch(HOME).unwrap().counters().session_overflows > 0,
        "the squeeze must actually bind"
    );

    // Offloaded: the BE holds 64B states and the freed table memory.
    let mut off = Cluster::new(cfg);
    off.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    off.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    off.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    for s in persistent(12_000).generate(off.now()) {
        off.add_conn(s).unwrap();
    }
    off.run_until(off.now() + SimDuration::from_secs(4));
    let off_live = off.switch(HOME).unwrap().sessions.len();

    assert!(
        off_live as f64 > 1.5 * local_live as f64,
        "offloading should lift live sessions well past local: {off_live} vs {local_live}"
    );
}

#[test]
fn pinned_flow_survives_its_dedicated_fe_crashing() {
    // Review regression: a gateway pin to a removed FE must be cleaned up
    // so the elephant's flow re-enters the general hash ring instead of
    // being blackholed forever.
    let mut c = cluster(false);
    let elephant = FiveTuple::tcp(Ipv4Addr::new(198, 19, 0, 2), 41_000, SERVICE, 9000);
    let key = SessionKey::of(VpcId(1), elephant);
    let dedicated = c.fe_servers(VNIC)[0];
    c.pin_flow(VNIC, key, dedicated).unwrap();

    // Crash the dedicated FE and let failover finish.
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_millis(100), dedicated));
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert!(!c.fe_servers(VNIC).contains(&dedicated));

    // The previously pinned flow must still complete (via the ring).
    c.add_conn(nezha::core::conn::ConnSpec {
        vnic: VNIC,
        vpc: VpcId(1),
        tuple: elephant,
        peer_server: ServerId(20),
        kind: nezha::core::conn::ConnKind::Inbound,
        start: c.now(),
        payload: 100,
        overlay_encap_src: None,
    })
    .unwrap();
    c.run_until(c.now() + SimDuration::from_secs(4));
    assert_eq!(
        c.stats().completed,
        1,
        "pinned flow blackholed after FE loss"
    );
}
