//! Cycle-attribution profiler guarantees: the per-stage decomposition
//! reconciles with the CPU model's charged total, and causal span ids
//! survive the BE↔FE hop so one packet's life reconstructs as a single
//! tree across servers.

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

/// An offloaded single-vNIC cluster with `notify_always` on, profiled
/// from the moment traffic starts: 150 inbound + 40 outbound TCP_CRR
/// connections (the outbound side is what misses at the FEs on TX and
/// emits §3.2.2 notifies). Returns the cluster after the run plus the
/// cycles charged while the profiler was enabled.
fn profiled_cluster(seed: u64, span_capacity: usize) -> (Cluster, f64) {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .notify_always(true)
        .seed(seed)
        .build();
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        SERVICE,
        VnicProfile::default(),
        ServerId(0),
    );
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, ServerId(0), VmConfig::with_vcpus(64))
        .unwrap();
    c.trigger_offload(VnicId(1), SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let base = c.total_charged_cycles();
    c.enable_profile(span_capacity);
    for i in 0..150u32 {
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i) as u16,
                SERVICE,
                9000,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Inbound,
            start: c.now() + SimDuration::from_micros(700 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    for i in 0..40u32 {
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                SERVICE,
                30_000 + i as u16,
                Ipv4Addr::new(10, 7, 3, (i % 200) as u8 + 1),
                4433,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Outbound,
            start: c.now() + SimDuration::from_micros(900 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(5));
    let charged = c.total_charged_cycles() - base;
    (c, charged)
}

#[test]
fn stage_cycles_reconcile_with_charged_total() {
    let (c, charged) = profiled_cluster(42, 1 << 18);
    let prof = c.profiler();
    let attributed = prof.total_cycles() as f64;
    assert!(charged > 0.0, "the run charged no cycles");
    let drift = (attributed - charged).abs() / charged;
    assert!(
        drift <= 1e-3,
        "per-stage cycles {attributed} drifted {:.4}% from the charged total {charged}",
        drift * 100.0
    );
    // And the per-stage table tells the same story as the grand total.
    let table: u64 = prof.stage_totals().iter().map(|(_, t)| t.cycles).sum();
    assert_eq!(table, prof.total_cycles());
}

#[test]
fn span_tree_links_the_full_be_fe_be_chain() {
    // Capacity generous enough that nothing is evicted: every link of
    // the chain must still be in the ring for the parent walk.
    let (c, _) = profiled_cluster(42, 1 << 18);
    let prof = c.profiler();
    assert_eq!(prof.evicted(), 0, "ring evicted spans; grow the capacity");

    let spans = prof.spans();
    let notify_root = spans
        .iter()
        .find(|s| s.stage.name() == "be_notify")
        .expect("no notify was profiled");
    // The interned path alone reconstructs the cross-server chain.
    assert_eq!(
        prof.stack(notify_root.id),
        ["be_tx", "nsh_encap", "fe_tx_carry", "be_notify"],
        "causal stack diverged"
    );
    // Walk the explicit parent links: BE notify ← FE visit ← BE encap
    // marker ← BE TX root, with the servers alternating home/FE.
    let home = ServerId(0);
    assert_eq!(notify_root.server, home, "notify lands at the BE");
    let fe_visit = prof
        .span(notify_root.parent.expect("notify has no parent"))
        .expect("parent span missing from the ring");
    assert_eq!(fe_visit.stage.name(), "fe_tx_carry");
    assert_ne!(fe_visit.server, home, "the FE visit runs on another server");
    // The notify packet travels with trace id 0, yet its spans still
    // attach to the originating packet's tree: only the causal id links
    // them, exactly what the prof_span hop threading is for.
    assert_ne!(notify_root.trace, fe_visit.trace);
    let encap = prof
        .span(fe_visit.parent.expect("FE visit has no parent"))
        .expect("encap marker missing from the ring");
    assert_eq!(encap.stage.name(), "nsh_encap");
    assert_eq!(encap.server, home);
    assert_eq!(encap.cycles, 0, "the encap hop marker carries no cycles");
    let be_root = prof
        .span(encap.parent.expect("encap marker has no parent"))
        .expect("BE root missing from the ring");
    assert_eq!(be_root.stage.name(), "be_tx");
    assert_eq!(be_root.server, home);
    assert_eq!(be_root.parent, None, "the BE TX root starts the tree");
    assert_eq!(be_root.trace, fe_visit.trace, "same packet, same trace id");
}

#[test]
fn rx_chain_crosses_from_fe_to_be() {
    let (c, _) = profiled_cluster(42, 1 << 18);
    let prof = c.profiler();
    let spans = prof.spans();
    let be_rx = spans
        .iter()
        .find(|s| s.stage.name() == "be_rx_carry")
        .expect("no RX carry was profiled");
    assert_eq!(
        prof.stack(be_rx.id),
        ["fe_rx", "nsh_encap", "be_rx_carry"],
        "RX causal stack diverged"
    );
    let encap = prof.span(be_rx.parent.unwrap()).unwrap();
    let fe_root = prof.span(encap.parent.unwrap()).unwrap();
    assert_ne!(fe_root.server, be_rx.server, "hop must cross servers");
    assert_eq!(fe_root.parent, None);
}

#[test]
fn profiler_records_nothing_until_enabled() {
    let cfg = ClusterConfig::builder().auto(false).seed(7).build();
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        SERVICE,
        VnicProfile::default(),
        ServerId(0),
    );
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, ServerId(0), VmConfig::with_vcpus(64))
        .unwrap();
    for i in 0..50u32 {
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i) as u16,
                SERVICE,
                9000,
            ),
            peer_server: ServerId(8 + i % 8),
            kind: ConnKind::Inbound,
            start: SimTime::ZERO + SimDuration::from_micros(700 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    c.run_until(SimTime::ZERO + SimDuration::from_secs(4));
    assert_eq!(c.profiler().recorded(), 0);
    assert_eq!(c.profiler().total_cycles(), 0);
    assert_eq!(c.profiler().flamegraph(), "");
}
