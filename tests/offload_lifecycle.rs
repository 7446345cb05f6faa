//! End-to-end lifecycle scenarios across the whole stack: offload →
//! final stage → scale-out → fallback → re-offload, with live traffic
//! throughout and zero tolerance for lost connections outside injected
//! failures.

use nezha::core::be::OffloadPhase;
use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const PORT: u16 = 9000;

fn cluster() -> Cluster {
    cluster_with(|_| {})
}

/// The test cluster with its one vNIC adjusted by `setup` before it is
/// installed (and its tables charged).
fn cluster_with(setup: impl FnOnce(&mut Vnic)) -> Cluster {
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
    vnic.allow_inbound_port(PORT);
    setup(&mut vnic);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c
}

fn spec(n: u32, at: SimTime, kind: ConnKind) -> ConnSpec {
    ConnSpec {
        vnic: VNIC,
        vpc: VpcId(1),
        tuple: FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 2, (n % 200) as u8 + 1),
            (1024 + n / 200 * 211 + n % 200) as u16,
            SERVICE,
            PORT,
        ),
        peer_server: ServerId(12 + n % 12),
        kind,
        start: at,
        payload: 200,
        overlay_encap_src: None,
    }
}

#[test]
fn full_lifecycle_keeps_every_connection() {
    let mut c = cluster();
    let mut n = 0u32;
    let mut drive = |c: &mut Cluster, count: u32| {
        let t = c.now();
        for i in 0..count {
            c.add_conn(spec(
                n + i,
                t + SimDuration::from_millis(i as u64),
                ConnKind::Inbound,
            ))
            .unwrap();
        }
        n += count;
        c.run_until(c.now() + SimDuration::from_secs(3));
    };

    // 1. Local phase.
    drive(&mut c, 100);
    assert_eq!(c.stats().completed, 100);

    // 2. Offload; traffic continues across the dual-running stage.
    c.trigger_offload(VNIC, c.now()).unwrap();
    drive(&mut c, 200);
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    assert_eq!(c.stats().completed, 300);
    assert_eq!(c.stats().failed, 0);

    // 3. Manual scale-out 4 -> 8; continuing flows keep completing even
    //    though the wider pool re-hashes them onto new FEs (a cache miss
    //    is just one extra rule lookup, §3.2.3).
    let added = c.scale_out(VNIC, 4);
    assert_eq!(added, 4);
    drive(&mut c, 200);
    assert_eq!(c.fe_count(VNIC), 8);
    assert_eq!(c.stats().completed, 500);
    assert_eq!(c.stats().failed, 0);

    // 4. Fallback to local.
    c.trigger_fallback(VNIC, c.now()).unwrap();
    drive(&mut c, 100);
    assert!(c.backend(VNIC).is_none());
    assert_eq!(c.fe_count(VNIC), 0);
    assert_eq!(c.stats().completed, 600);
    assert_eq!(c.stats().failed, 0);
    // The BE's rule tables are back.
    assert!(c.switch(HOME).unwrap().vnic(VNIC).is_some());

    // 5. Re-offload works after fallback.
    c.trigger_offload(VNIC, c.now()).unwrap();
    drive(&mut c, 100);
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    assert_eq!(c.stats().completed, 700);
    assert_eq!(c.stats().failed, 0);
    assert_eq!(c.stats().denied, 0);
}

#[test]
fn offload_frees_be_memory_and_fallback_restores_it() {
    let mut c = cluster();
    let before = c.switch(HOME).unwrap().mem.used();
    assert!(before > 0, "tables charged locally");

    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    let offloaded = c.switch(HOME).unwrap().mem.used();
    assert!(
        offloaded < before / 100,
        "final stage must free the tables: {offloaded} vs {before}"
    );
    // Each FE carries a full copy.
    for fe in c.fe_servers(VNIC) {
        assert!(
            c.switch(fe).unwrap().mem.used() >= before,
            "FE {fe} lacks the tables"
        );
    }

    c.trigger_fallback(VNIC, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(2));
    assert_eq!(
        c.switch(HOME).unwrap().mem.used(),
        before,
        "fallback restores the footprint"
    );
    for fe in 1..5u32 {
        assert_eq!(
            c.switch(ServerId(fe)).unwrap().mem.used(),
            0,
            "FE memory must drain"
        );
    }
}

#[test]
fn dual_running_stage_has_no_interruption() {
    // The paper's headline operational claim: activating offload causes
    // no service interruption (§4.2.1). Saturate the transition window
    // with connections and require all of them to complete.
    let mut c = cluster();
    let t0 = SimTime::ZERO;
    // 2000 connections spanning the whole transition (0..2.5s).
    for i in 0..2000u32 {
        c.add_conn(spec(
            i,
            t0 + SimDuration::from_micros(1250 * i as u64),
            ConnKind::Inbound,
        ))
        .unwrap();
    }
    c.run_until(t0 + SimDuration::from_millis(100));
    c.trigger_offload(VNIC, c.now()).unwrap();
    c.run_until(t0 + SimDuration::from_secs(6));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    assert_eq!(
        c.stats().completed,
        2000,
        "failed={} denied={}",
        c.stats().failed,
        c.stats().denied
    );
    // Activation time was recorded and is within the paper's envelope.
    let act = c.stats().offload_completion.mean();
    assert!((0.3..3.0).contains(&act), "activation took {act}s");
}

#[test]
fn outbound_connections_work_under_offload() {
    // §5.1's TX workflow: the VM initiates; the BE records first_dir=TX
    // and responses pass the stateful ACL at the FE.
    let mut c = cluster();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    for i in 0..50u32 {
        let mut s = spec(
            i,
            c.now() + SimDuration::from_millis(i as u64),
            ConnKind::Outbound,
        );
        // Outbound: tuple oriented VM -> peer.
        s.tuple = FiveTuple::tcp(SERVICE, 40_000 + i as u16, Ipv4Addr::new(10, 7, 3, 9), 443);
        c.add_conn(s).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert_eq!(
        c.stats().completed,
        50,
        "failed={} denied={}",
        c.stats().failed,
        c.stats().denied
    );
}

#[test]
fn notify_packets_only_on_policy_bearing_misses() {
    // §3.2.2: notify packets are generated only on cached-flow misses
    // whose lookup yields rule-table-involved state differing from the
    // carried state. Traffic to destinations without a statistics policy
    // must generate zero notifies.
    let mut c = cluster();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    for i in 0..100u32 {
        c.add_conn(spec(
            i,
            c.now() + SimDuration::from_millis(i as u64),
            ConnKind::Inbound,
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 100);
    assert_eq!(
        c.stats().notifies,
        0,
        "no stats policy applies to this traffic"
    );

    // Outbound traffic toward a logged prefix (the synthetic policy
    // tables cover the upper half of the /16) does generate notifies.
    for i in 0..20u32 {
        let mut s = spec(
            1000 + i,
            c.now() + SimDuration::from_millis(i as u64),
            ConnKind::Outbound,
        );
        s.tuple = FiveTuple::tcp(
            SERVICE,
            41_000 + i as u16,
            Ipv4Addr::new(10, 7, 128, 9),
            443,
        );
        c.add_conn(s).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert!(
        c.stats().notifies > 0,
        "logged prefix must trigger notifies"
    );
    assert!(
        c.stats().notifies <= 20,
        "at most one notify per miss, got {}",
        c.stats().notifies
    );
}

#[test]
fn feature_release_by_offloading_to_upgraded_vswitches() {
    // §7.2: instead of upgrading every vSwitch in the region, upgrade a
    // few and offload the vNICs that need the new feature onto them.
    let mut c = cluster();
    for s in [5u32, 6, 7, 8, 9] {
        c.switch_mut(ServerId(s)).unwrap().version = 2;
    }
    c.trigger_offload_to_version(VNIC, c.now(), Some(2))
        .unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    let fes = c.fe_servers(VNIC);
    assert_eq!(fes.len(), 4);
    for fe in &fes {
        assert_eq!(c.switch(*fe).unwrap().version, 2, "FE {fe} not upgraded");
    }
    // Traffic flows through the upgraded pool.
    let t = c.now();
    for i in 0..50 {
        c.add_conn(spec(
            i,
            t + SimDuration::from_millis(i as u64),
            ConnKind::Inbound,
        ))
        .unwrap();
    }
    c.run_until(t + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 50);
}

#[test]
fn bug_dodging_by_offloading_to_older_vswitches() {
    // §7.2 "cost-effective fault recovery": a buggy new release on most
    // switches; pin the vNIC's processing to the old version.
    let mut c = cluster();
    for s in 1..24u32 {
        c.switch_mut(ServerId(s)).unwrap().version = 3; // buggy rollout
    }
    for s in [10u32, 11, 12, 13] {
        c.switch_mut(ServerId(s)).unwrap().version = 1; // held back
    }
    c.trigger_offload_to_version(VNIC, c.now(), Some(1))
        .unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    let fes = c.fe_servers(VNIC);
    assert_eq!(fes.len(), 4);
    for fe in &fes {
        assert_eq!(c.switch(*fe).unwrap().version, 1);
    }
}

#[test]
fn mirrored_prefixes_generate_copies_under_offload() {
    // Traffic mirroring (an advanced table, §2.2.2) survives the split:
    // outbound flows toward a mirrored prefix generate exactly one copy
    // per accepted packet at the FE; unmirrored traffic generates none.
    let mut c = cluster();
    c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    // Unmirrored outbound traffic.
    for i in 0..20u32 {
        let mut s = spec(
            i,
            c.now() + SimDuration::from_millis(i as u64),
            ConnKind::Outbound,
        );
        s.tuple = FiveTuple::tcp(SERVICE, 42_000 + i as u16, Ipv4Addr::new(10, 7, 3, 9), 443);
        c.add_conn(s).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 20);
    assert_eq!(c.stats().mirror_copies, 0);

    // The default profile has no mirror rules: build a fresh cluster
    // whose vNIC carries one before it is installed.
    let mut c = cluster_with(|vnic| {
        vnic.tables_mut()
            .mirror
            .insert(nezha::vswitch::tables::mirror::MirrorRule {
                dst_prefix: (Ipv4Addr::new(10, 7, 3, 0), 24),
                dst_ports: nezha::vswitch::tables::acl::PortRange::ANY,
                collector: Ipv4Addr::new(10, 7, 240, 1),
            });
    });
    // Local mode first: the vSwitch counts the copies.
    for i in 0..10u32 {
        let mut s = spec(
            100 + i,
            c.now() + SimDuration::from_millis(i as u64),
            ConnKind::Outbound,
        );
        s.tuple = FiveTuple::tcp(SERVICE, 43_000 + i as u16, Ipv4Addr::new(10, 7, 3, 9), 443);
        c.add_conn(s).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert_eq!(c.stats().completed, 10);
    // 10 conns x (1 slow + 2 fast) accepted TX packets, RX side unmirrored
    // (mirroring keys on the remote endpoint in both directions).
    let mirrored = c.switch(HOME).unwrap().counters().mirrored + c.stats().mirror_copies;
    assert!(mirrored >= 30, "copies {mirrored}");
}

/// Flow statistics summed over the live sessions at `server`:
/// `[tx_packets, rx_packets, tx_bytes, rx_bytes]`.
fn stats_totals(c: &Cluster, server: ServerId) -> [u64; 4] {
    let sessions = &c.switch(server).unwrap().sessions;
    let mut sum = [0; 4];
    for (key, _) in sessions.iter() {
        let s = sessions.stats(key);
        let counts = [s.tx_packets, s.rx_packets, s.tx_bytes, s.rx_bytes];
        for (t, v) in sum.iter_mut().zip(counts) {
            *t += v;
        }
    }
    sum
}

#[test]
fn statistics_policy_counts_on_the_local_and_offloaded_paths() {
    // Ten outbound connections toward a logged prefix (the synthetic
    // policy tables cover the upper half of the /16) and ten toward an
    // unlogged one. Only the first ten count, at the home vSwitch — the
    // one copy of the state, locally and as the BE. Offloaded, the BE's
    // TX half cannot adopt the policy: each SYN leaves uncounted and the
    // FE's notify brings the policy for the next packet (§3.2.2).
    for (offload, want) in [
        (false, [40, 30, 4_160, 5_120]),
        (true, [30, 30, 3_620, 5_120]),
    ] {
        let mut c = cluster();
        if offload {
            c.trigger_offload(VNIC, SimTime::ZERO).unwrap();
        }
        c.run_until(SimTime::ZERO + SimDuration::from_millis(3_100));
        for i in 0..20u32 {
            let mut s = spec(
                2000 + i,
                c.now() + SimDuration::from_millis(i as u64),
                ConnKind::Outbound,
            );
            let third = if i < 10 { 128 } else { 3 };
            s.tuple = FiveTuple::tcp(
                SERVICE,
                44_000 + i as u16,
                Ipv4Addr::new(10, 7, third, 9),
                443,
            );
            c.add_conn(s).unwrap();
        }
        // Every connection completes before the next aging sweep reclaims
        // its closed session.
        c.run_until(SimTime::ZERO + SimDuration::from_millis(3_600));
        assert_eq!(c.stats().completed, 20, "offload={offload}");
        assert_eq!(stats_totals(&c, HOME), want, "offload={offload}");
    }
}
