//! Integration-style tests of the packet-level testbed (kept out of
//! `cluster.rs` so the construction/accessor module stays small).

use crate::be::OffloadPhase;
use crate::cluster::{
    retry_backoff, Cluster, ClusterConfig, ConfigOp, Event, Slab, AGING_PERIOD, RETRY_CAP,
    RETRY_TIMEOUT,
};
use crate::vm::VmConfig;
use nezha_sim::fault::FaultPlan;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::topology::TopologyConfig;
use nezha_types::{
    Direction, FiveTuple, Ipv4Addr, NezhaError, ServerId, SessionKey, VnicId, VpcId,
};
use nezha_vswitch::stage::lookup::pair_lookup;
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use nezha_vswitch::vswitch::VSwitch;

mod lifecycle;

const HOME: ServerId = ServerId(0);
const VNIC: VnicId = VnicId(1);
const SVC_PORT: u16 = 9000;

/// Two racks of eight servers.
fn small_topology() -> TopologyConfig {
    TopologyConfig {
        servers_per_rack: 8,
        racks_per_pod: 2,
        pods: 1,
    }
}

fn small_cluster(auto: bool) -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(small_topology())
        .auto(auto)
        .build();
    with_service_vnic(cfg, VmConfig::with_vcpus(64))
}

/// `c` with `VNIC` offloaded at 0 and run 3 s, so its phase is `Offloaded`.
fn offloaded(mut c: Cluster) -> Cluster {
    c.trigger_offload(VNIC, SimTime(0)).unwrap();
    c.run_until(SimTime(0) + SimDuration::from_secs(3));
    c
}

/// A cluster with the one test vNIC (service port open) homed on `HOME`.
fn with_service_vnic(cfg: ClusterConfig, vm: VmConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg);
    let mut vnic = Vnic::new(
        VNIC,
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        HOME,
    );
    vnic.allow_inbound_port(SVC_PORT);
    cluster.add_vnic(vnic, HOME, vm).unwrap();
    cluster
}

fn inbound_spec(n: u16, at: SimTime) -> crate::conn::ConnSpec {
    crate::conn::ConnSpec {
        vnic: VNIC,
        vpc: VpcId(1),
        tuple: FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 1, (n % 200) as u8 + 1),
            10_000 + n,
            Ipv4Addr::new(10, 7, 0, 1),
            SVC_PORT,
        ),
        peer_server: ServerId(8 + (n % 8) as u32), // other rack
        kind: crate::conn::ConnKind::Inbound,
        start: at,
        payload: 128,
        overlay_encap_src: None,
    }
}

/// Offers inbound connections `from..from + 50`, one per millisecond from
/// now, runs 10 s, and returns how many of them completed.
fn offer_50(c: &mut Cluster, from: u16) -> u64 {
    let done = c.stats().completed;
    for i in 0..50 {
        let at = c.now() + SimDuration::from_millis(i as u64);
        c.add_conn(inbound_spec(from + i, at)).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(10));
    c.stats().completed - done
}

fn run_conns(cluster: &mut Cluster, n: u16, spacing: SimDuration) -> SimTime {
    for i in 0..n {
        cluster
            .add_conn(inbound_spec(i, SimTime(0) + spacing.times(i as u64)))
            .unwrap();
    }
    let end = SimTime(0) + spacing.times(n as u64) + SimDuration::from_secs(5);
    cluster.run_until(end);
    end
}

#[test]
fn retry_backoff_doubles_and_caps() {
    let base = SimDuration::from_millis(500);
    let cap = SimDuration::from_secs(2);
    assert_eq!(retry_backoff(base, cap, 0), SimDuration::from_millis(500));
    assert_eq!(retry_backoff(base, cap, 1), SimDuration::from_secs(1));
    assert_eq!(retry_backoff(base, cap, 2), SimDuration::from_secs(2));
    // Saturates at the cap from then on, even for huge retry counts.
    assert_eq!(retry_backoff(base, cap, 3), cap);
    assert_eq!(retry_backoff(base, cap, 63), cap);
    assert_eq!(retry_backoff(base, cap, u32::MAX), cap);
}

#[test]
fn scheduled_retries_back_off_exponentially_with_bounded_jitter() {
    // Drive lose_packet directly for one registered conn and check the
    // scheduled RetryStep delays grow like base·2^k (±25%), capped.
    let mut c = small_cluster(false);
    let id = c.add_conn(inbound_spec(1, SimTime(0))).unwrap();
    let (base, cap) = (RETRY_TIMEOUT, RETRY_CAP);
    for k in 0..=c.cfg.max_retries {
        // Isolate the one RetryStep this loss schedules.
        c.engine.clear();
        if let Some(conn) = c.conn_mut(id) {
            conn.retries = k as u8;
        }
        let before = c.engine.now();
        c.lose_packet(id << 4, before);
        let sched = c
            .engine
            .peek_time()
            .expect("lose_packet schedules a RetryStep");
        let delay = sched.since(before);
        let nominal = retry_backoff(base, cap, k);
        let lo = SimDuration::from_secs_f64(nominal.as_secs_f64() * 0.75);
        let hi = SimDuration::from_secs_f64(nominal.as_secs_f64() * 1.25);
        assert!(
            delay >= lo && delay <= hi,
            "retry {k}: delay {delay:?} outside [{lo:?}, {hi:?}]"
        );
    }
}

/// A connection on a partitioned path fails after `max_retries` retries,
/// and a `max_retries` beyond what its counter holds still ends it: the
/// full counter counts as exhausted, after 255 retries. Every attempt is
/// a fault drop, counted once.
#[test]
fn retries_exhaust_on_a_partitioned_path_whatever_max_retries_says() {
    for (max_retries, attempts) in [(5, 6), (u32::MAX, 256)] {
        let cfg = ClusterConfig::builder()
            .topology(small_topology())
            .auto(false)
            .max_retries(max_retries)
            .build();
        let mut c = with_service_vnic(cfg, VmConfig::with_vcpus(64));
        let spec = inbound_spec(1, SimTime(0));
        c.apply_fault_plan(FaultPlan::new().partition(
            SimTime(0),
            vec![spec.peer_server],
            vec![HOME],
        ));
        let id = c.add_conn(spec).unwrap();
        c.run_until(SimTime(0) + SimDuration::from_secs(1_000));
        let stats = c.stats();
        assert_eq!(
            (stats.failed, stats.pkts.dropped),
            (1, attempts),
            "max_retries {max_retries}"
        );
        assert_eq!(
            (
                stats.fault_events,
                c.metrics().snapshot().counter("fault.link_drops")
            ),
            (1, attempts),
            "max_retries {max_retries}"
        );
        assert_eq!(
            c.conn(id).map(|conn| conn.status),
            Some(crate::conn::ConnStatus::Failed)
        );
    }
}

#[test]
fn local_baseline_completes_connections() {
    let mut c = small_cluster(false);
    run_conns(&mut c, 50, SimDuration::from_millis(2));
    assert_eq!(
        c.stats().completed,
        50,
        "failed={} denied={}",
        c.stats().failed,
        c.stats().denied
    );
    assert_eq!(c.stats().failed, 0);
    assert_eq!(c.stats().denied, 0);
    // Sessions were tracked and later aged out.
    let (created, _, _) = c.switch(HOME).unwrap().sessions.counters();
    assert_eq!(created, 50);
}

#[test]
fn control_plane_errors_are_typed() {
    let mut c = small_cluster(false);
    let ghost = VnicId(99);
    assert_eq!(
        c.trigger_offload(ghost, SimTime(0)),
        Err(NezhaError::UnknownVnic(ghost))
    );
    assert_eq!(
        c.add_conn(crate::conn::ConnSpec {
            vnic: ghost,
            ..inbound_spec(1, SimTime(0))
        }),
        Err(NezhaError::UnknownVnic(ghost))
    );
    assert_eq!(
        c.trigger_fallback(ghost, SimTime(0)),
        Err(NezhaError::NotOffloaded(ghost))
    );
    assert_eq!(
        c.switch(ServerId(9_999)).err(),
        Some(NezhaError::UnknownServer(ServerId(9_999)))
    );
    c.trigger_offload(VNIC, SimTime(0)).unwrap();
    assert_eq!(
        c.trigger_offload(VNIC, SimTime(0)),
        Err(NezhaError::AlreadyOffloaded(VNIC))
    );
    // Fallback before the offload reaches its final stage is refused.
    assert_eq!(
        c.trigger_fallback(VNIC, c.now()),
        Err(NezhaError::OffloadInProgress(VNIC))
    );
}

#[test]
fn unsolicited_port_is_denied_statefully() {
    let mut c = small_cluster(false);
    let mut spec = inbound_spec(1, SimTime(0));
    spec.tuple.dst_port = 47_123; // no accept rule, stateful default
    c.add_conn(spec).unwrap();
    c.run_until(SimTime(0) + SimDuration::from_secs(5));
    assert_eq!(c.stats().denied, 1);
    assert_eq!(c.stats().completed, 0);
}

#[test]
fn manual_offload_reaches_final_stage_without_loss() {
    let mut c = small_cluster(false);
    // Warm traffic before the offload.
    for i in 0..40 {
        c.add_conn(inbound_spec(
            i,
            SimTime(0) + SimDuration::from_millis(5 * i as u64),
        ))
        .unwrap();
    }
    c.run_until(SimTime(0) + SimDuration::from_millis(100));
    c.trigger_offload(VNIC, c.now()).unwrap();
    // Traffic continues through the transition.
    for i in 40..120 {
        c.add_conn(inbound_spec(
            i,
            c.now() + SimDuration::from_millis(5 * (i - 40) as u64),
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(8));
    let meta = c.backend(VNIC).expect("offloaded");
    assert_eq!(meta.phase, OffloadPhase::Offloaded);
    assert_eq!(meta.fe_list.len(), 4);
    assert!(meta.activated_at.is_some());
    assert_eq!(
        c.stats().completed,
        120,
        "failed={} denied={} misroutes={}",
        c.stats().failed,
        c.stats().denied,
        c.stats().misroutes
    );
    assert_eq!(c.stats().failed, 0);
    // Completion time recorded, in Table 4's ballpark.
    let mean = c.stats().offload_completion.mean();
    assert!((0.3..3.0).contains(&mean), "completion {mean}s");
    // FEs actually processed traffic.
    let fe_hits: u64 = c
        .fe_servers(VNIC)
        .iter()
        .map(|s| c.fes.get(&(*s, VNIC)).unwrap().counters().0)
        .sum();
    assert!(fe_hits > 0, "FEs never saw traffic");
    // BE rule tables are gone; home switch no longer hosts the vNIC.
    assert!(c.switch(HOME).unwrap().vnic(VNIC).is_none());
}

#[test]
fn offloaded_traffic_spreads_across_fes() {
    let mut c = offloaded(small_cluster(false));
    for i in 0..200 {
        c.add_conn(inbound_spec(
            i,
            c.now() + SimDuration::from_millis(i as u64),
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(6));
    assert_eq!(c.stats().completed, 200);
    // `map_peer` moves a registered peer in place on every FE (a second
    // charge would show as ledger drift).
    let peer = inbound_spec(0, SimTime(0)).tuple.src_ip;
    c.map_peer(VNIC, peer, ServerId(11)).unwrap();
    assert_eq!(c.ledger_drift(), []);
    let to_peer = FiveTuple::tcp(Ipv4Addr::new(10, 7, 0, 1), 40_000, peer, 443);
    // Every FE served some flows (hash spreading, §3.2.3).
    for s in c.fe_servers(VNIC) {
        let fe = &c.fes[&(s, VNIC)];
        let (hits, misses, _) = fe.counters();
        assert!(hits + misses > 0, "FE on {s} idle");
        let hop = pair_lookup(&fe.vnic, &to_peer, Direction::Tx).tx.next_hop;
        assert_eq!(hop, Some(ServerId(11)), "FE on {s} kept the old hop");
    }
    // Notifies were generated for stats-policy flows only on misses.
    assert!(c.stats().notifies <= c.stats().completed * 2);
}

#[test]
fn fe_crash_fails_over_within_seconds() {
    let mut c = offloaded(small_cluster(false));
    let victim = c.fe_servers(VNIC)[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_secs(1), victim));
    // Continuous traffic across the crash.
    for i in 0..600 {
        c.add_conn(inbound_spec(
            i,
            c.now() + SimDuration::from_millis(10 * i as u64),
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(12));
    assert!(c.stats().failover_events >= 1);
    // The pool is restored to the 4-FE floor on live servers.
    let fes = c.fe_servers(VNIC);
    assert_eq!(fes.len(), 4, "pool {fes:?}");
    assert!(!fes.contains(&victim));
    // Losses were transient: the vast majority of conns completed.
    let total = c.stats().completed + c.stats().failed + c.stats().denied;
    assert_eq!(total, 600);
    assert!(
        c.stats().completed >= 590,
        "completed {}",
        c.stats().completed
    );
    // Loss was confined to around the crash instant (Fig. 14 shape).
    assert!(c.stats().pkts.dropped > 0, "crash must cost some packets");
}

#[test]
fn fallback_returns_to_local_processing() {
    let mut c = offloaded(small_cluster(false));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    c.trigger_fallback(VNIC, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert!(c.backend(VNIC).is_none(), "fallback must clear BE meta");
    assert_eq!(c.fe_count(VNIC), 0);
    assert!(
        c.switch(HOME).unwrap().vnic(VNIC).is_some(),
        "tables restored"
    );
    // Traffic flows locally again.
    for i in 0..30 {
        c.add_conn(inbound_spec(
            i,
            c.now() + SimDuration::from_millis(2 * i as u64),
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(5));
    assert_eq!(c.stats().completed, 30);
    assert_eq!(c.stats().failed, 0);
}

#[test]
fn probe_latency_gains_one_hop_after_offload() {
    let mut c = small_cluster(false);
    let tuple = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 1, 9),
        12345,
        Ipv4Addr::new(10, 7, 0, 1),
        SVC_PORT,
    );
    // Local probe.
    c.inject_probe_rx(VNIC, tuple, 64, ServerId(9), SimTime(0))
        .unwrap();
    c.run_until(SimTime(0) + SimDuration::from_millis(100));
    assert_eq!(c.stats().probe_latency.len(), 1);
    let local = c.stats().probe_latency.raw()[0];

    // Offloaded probe (new session, same path shape plus FE detour).
    c.trigger_offload(VNIC, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    let tuple2 = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 1, 10),
        12346,
        Ipv4Addr::new(10, 7, 0, 1),
        SVC_PORT,
    );
    c.inject_probe_rx(VNIC, tuple2, 64, ServerId(9), c.now())
        .unwrap();
    c.run_until(c.now() + SimDuration::from_millis(100));
    assert_eq!(c.stats().probe_latency.len(), 2);
    let offloaded = c.stats().probe_latency.raw()[1];
    let extra = offloaded - local;
    // Fig. 12: the detour adds a few tens of microseconds at most.
    assert!(extra > 0.0, "offloaded {offloaded} <= local {local}");
    assert!(extra < 100e-6, "extra hop {}us", extra * 1e6);
}

#[test]
fn auto_offload_triggers_under_sustained_overload() {
    let mut c = small_cluster(true);
    // Shrink the home switch to one core and a short measurement
    // window so ~50K offered CPS (about 0.85x its capacity) crosses
    // the 70% threshold within the test's horizon.
    {
        let vs = c.switch_mut(HOME).unwrap();
        *vs = {
            let mut cfg = ClusterConfig::default().vswitch;
            cfg.cores = 1;
            let mut fresh = VSwitch::new(HOME, cfg);
            fresh.set_util_window(SimDuration::from_millis(500));
            let mut vnic = Vnic::new(
                VNIC,
                VpcId(1),
                Ipv4Addr::new(10, 7, 0, 1),
                VnicProfile::default(),
                HOME,
            );
            vnic.allow_inbound_port(SVC_PORT);
            fresh.add_vnic(vnic).unwrap();
            fresh
        };
    }
    for i in 0..30_000u32 {
        let spec = crate::conn::ConnSpec {
            vnic: VNIC,
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, (1 + i / 250) as u8, (i % 250) as u8 + 1),
                (10_000 + i % 50_000) as u16,
                Ipv4Addr::new(10, 7, 0, 1),
                SVC_PORT,
            ),
            peer_server: ServerId(8 + (i % 8)),
            kind: crate::conn::ConnKind::Inbound,
            start: SimTime(0) + SimDuration::from_micros(20 * i as u64),
            payload: 64,
            overlay_encap_src: None,
        };
        c.add_conn(spec).unwrap();
    }
    c.run_until(SimTime(0) + SimDuration::from_secs(4));
    assert!(c.stats().offload_events >= 1, "controller never offloaded");
    assert_eq!(
        c.backend(VNIC).map(|m| m.phase),
        Some(OffloadPhase::Offloaded)
    );
    // After offload the BE runs cool again.
    let be_util = c.switch(HOME).unwrap().cpu_utilization(c.now());
    assert!(be_util < 0.5, "BE still hot: {be_util}");
}

#[test]
fn stateful_decap_survives_the_split() {
    let mut c = small_cluster(false);
    // A second vNIC acting as an LB real server with stateful decap.
    let profile = VnicProfile {
        stateful_decap: true,
        ..VnicProfile::default()
    };
    let mut vnic = Vnic::new(
        VnicId(2),
        VpcId(1),
        Ipv4Addr::new(10, 8, 0, 1),
        profile,
        ServerId(1),
    );
    vnic.allow_inbound_port(8080);
    c.add_vnic(vnic, ServerId(1), VmConfig::with_vcpus(16))
        .unwrap();
    c.trigger_offload(VnicId(2), SimTime(0)).unwrap();
    c.run_until(SimTime(0) + SimDuration::from_secs(3));

    let spec = crate::conn::ConnSpec {
        vnic: VnicId(2),
        vpc: VpcId(1),
        tuple: FiveTuple::tcp(
            Ipv4Addr::new(203, 0, 113, 7), // client behind the LB
            40_000,
            Ipv4Addr::new(10, 8, 0, 1),
            8080,
        ),
        peer_server: ServerId(9),
        kind: crate::conn::ConnKind::Inbound,
        start: c.now(),
        payload: 256,
        overlay_encap_src: Some(Ipv4Addr::new(100, 64, 0, 5)), // LB VIP
    };
    c.add_conn(spec).unwrap();
    // Inspect the session before the aging sweep reclaims the closed
    // connection.
    c.run_until(c.now() + SimDuration::from_millis(400));
    assert_eq!(c.stats().completed, 1);
    // The BE recorded the LB address from the FE-carried info.
    let key = SessionKey::of(VpcId(1), spec.tuple);
    let entry = c
        .switch(ServerId(1))
        .unwrap()
        .sessions
        .get(&key)
        .expect("session");
    assert_eq!(
        entry.state.decap.map(|d| d.overlay_src),
        Some(Ipv4Addr::new(100, 64, 0, 5))
    );
    // The entry is state-only at the BE (flows live at the FEs).
    assert!(!entry.has_cached_flows());
}

#[test]
fn live_migration_via_be_location_update() {
    let mut c = offloaded(small_cluster(false));
    // Migrate the VM/BE to server 7 (not an FE; the initial pool is
    // the four lowest-utilization rack peers).
    let new_home = ServerId(7);
    assert!(!c.fe_servers(VNIC).contains(&new_home));
    // Move state to the new home (migration copies it with the VM).
    c.engine.schedule_in(
        SimDuration::from_micros(800),
        Event::Config(ConfigOp::BeLocationUpdate {
            vnic: VNIC,
            new_home,
        }),
    );
    c.run_until(c.now() + SimDuration::from_millis(10));
    assert_eq!(c.vnic_home[&VNIC], new_home);
    for s in c.fe_servers(VNIC) {
        assert_eq!(c.fes.get(&(s, VNIC)).unwrap().be_location, new_home);
    }
    // The BE metadata moved with the BE ...
    let be_bytes = c.cfg.vswitch.memory.be_metadata;
    assert_eq!(c.switch(new_home).unwrap().mem.used(), be_bytes);
    assert_eq!(c.ledger_drift(), []);
    // ... so falling back frees it where it now is.
    c.trigger_fallback(VNIC, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert!(c.backend(VNIC).is_none());
    assert!(c.switch(new_home).unwrap().vnic(VNIC).is_some());
    assert_eq!(c.ledger_drift(), []);
}

/// A second `FeConfigured` for an FE that is already configured changes
/// nothing: no second table charge, and the FE keeps its cached flows.
/// A `GatewaySync` delivered twice at one instant leaves the entry as it
/// was, and new connections still complete.
#[test]
fn repeated_fe_configured_is_a_no_op() {
    let mut c = offloaded(small_cluster(false));
    run_conns(&mut c, 50, SimDuration::from_millis(1));
    let fe = c.fe_servers(VNIC)[0];
    let used = c.switch(fe).unwrap().mem.used();
    let flows = c.fe_cached_flows(fe, VNIC).unwrap();
    assert!(flows > 0);
    let addr = Ipv4Addr::new(10, 7, 0, 1);
    let entry = c.gateway.current(addr).unwrap().to_vec();
    let configured = ConfigOp::FeConfigured { vnic: VNIC, fe };
    let sync = ConfigOp::GatewaySync { vnic: VNIC };
    for op in [configured, configured, sync, sync] {
        c.engine
            .schedule_in(SimDuration::from_millis(1), Event::Config(op));
    }
    c.run_until(c.now() + SimDuration::from_millis(10));
    assert_eq!(c.switch(fe).unwrap().mem.used(), used);
    assert_eq!(c.fe_cached_flows(fe, VNIC), Some(flows));
    assert_eq!(c.ledger_drift(), []);
    assert_eq!(c.gateway.current(addr), Some(&entry[..]));
    assert_eq!(offer_50(&mut c, 50), 50);
}

/// A second `add_vnic` for an id the cluster has is rejected and leaves
/// the cluster unchanged: its home keeps one charge for the tables, and
/// the next run passes the memory-ledger check.
#[test]
fn duplicate_add_vnic_is_rejected_without_a_second_charge() {
    let mut c = small_cluster(false);
    let used = c.switch(HOME).unwrap().mem.used();
    let again = Vnic::new(
        VNIC,
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        HOME,
    );
    assert_eq!(
        c.add_vnic(again, HOME, VmConfig::with_vcpus(64)),
        Err(NezhaError::DuplicateVnic(VNIC))
    );
    assert_eq!(c.switch(HOME).unwrap().mem.used(), used);
    assert_eq!(c.ledger_drift(), []);
    c.run_until(SimTime(0) + SimDuration::from_millis(10));
}

/// A packet landing on a server that is neither the vNIC's home nor a
/// configured FE (the pool scaled in / the FE was torn down while packets
/// were in flight) must be counted as a misroute — never processed
/// against missing FE state, never a panic. Both FE-bound kinds: a plain
/// RX packet, and a TX packet the BE already wrapped in its state carry.
#[test]
fn rx_at_server_removed_from_fe_pool_is_a_counted_misroute() {
    use nezha_types::{NezhaHeader, NezhaPayloadKind, Packet, SessionState, TcpFlags};
    let mut c = offloaded(small_cluster(false));
    let fes = c.fe_servers(VNIC);
    assert!(!fes.is_empty());
    let removed = fes[0];
    // Tear the FE down out from under the data plane (what a scale-in
    // does), then aim packets straight at it the way a stale mapping
    // would. The probe bit spares the conn bookkeeping.
    c.remove_fe(VNIC, removed);
    let tuple = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 1, 77),
        23_456,
        Ipv4Addr::new(10, 7, 0, 1),
        SVC_PORT,
    );
    let rx = Packet::rx_data(
        (1u64 << 63) | 7_777,
        VpcId(1),
        VNIC,
        tuple,
        TcpFlags::ACK,
        64,
    );
    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VNIC, VpcId(1));
    nsh.carry_state(&SessionState::first_packet(Direction::Tx));
    let tx = Packet::tx_data(
        (1u64 << 63) | 7_778,
        VpcId(1),
        VNIC,
        tuple.reversed(),
        TcpFlags::SYN,
        0,
    )
    .with_nezha(nsh);
    for (what, pkt) in [("RX", rx), ("TX carry", tx)] {
        let before = c.stats().misroutes;
        let vs = c.switch(removed).unwrap();
        let cycles_before = vs.vnic_cycle_shares().values().sum::<f64>();
        let at = c.now();
        c.schedule_arrive(at, removed, pkt, at);
        c.run_until(at + SimDuration::from_millis(10));
        assert_eq!(
            c.stats().misroutes,
            before + 1,
            "{what} at an ex-FE must be counted as a misroute, once"
        );
        let vs = c.switch(removed).unwrap();
        let cycles = vs.vnic_cycle_shares().values().sum::<f64>();
        assert_eq!(cycles, cycles_before, "{what} at an ex-FE charged CPU");
        assert!(vs.sessions.is_empty(), "{what} at an ex-FE made a session");
    }
}

/// A BE whose state memory is exhausted must be as visible as a local
/// switch in the same spot: first packets whose session cannot be stored
/// count on `vswitch.session_overflows{server}` at both BE sites (RX
/// carry and TX origination), and are still processed.
#[test]
fn be_session_overflow_is_counted() {
    use nezha_vswitch::config::{MemoryModel, VSwitchConfig};
    // A minimal vNIC on a tiny SmartNIC: once offloaded, the BE has room
    // for the BE metadata plus a few dozen 64 B state slabs.
    let memory = MemoryModel {
        vnic_base: 0,
        ..MemoryModel::default()
    };
    let cfg = ClusterConfig::builder()
        .topology(small_topology())
        .vswitch(VSwitchConfig {
            table_memory: 8 * 1024,
            memory,
            ..VSwitchConfig::default()
        })
        .auto(false)
        .build();
    let mut c = Cluster::new(cfg);
    let profile = VnicProfile {
        acl_rules: 0,
        routes: 0,
        qos_rules: 0,
        policy_rules: 0,
        vnic_server_entries: 0,
        ..VnicProfile::default()
    };
    let mut vnic = Vnic::new(VNIC, VpcId(1), Ipv4Addr::new(10, 7, 0, 1), profile, HOME);
    vnic.allow_inbound_port(SVC_PORT);
    c.add_vnic(vnic, HOME, VmConfig::with_vcpus(64)).unwrap();
    c.trigger_offload(VNIC, SimTime(0)).unwrap();
    c.run_until(SimTime(0) + SimDuration::from_secs(3));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    assert_eq!(c.switch(HOME).unwrap().counters().session_overflows, 0);

    let sessions_that_fit = (8 * 1024 / memory.state_slab) as u16;
    let conns = 2 * sessions_that_fit;
    for i in 0..conns {
        c.add_conn(inbound_spec(
            i,
            c.now() + SimDuration::from_micros(100 * i as u64),
        ))
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(5));
    assert_eq!(c.stats().completed, conns as u64, "overflow still forwards");
    let home = c.switch(HOME).unwrap();
    let unstored = conns as u64 - home.sessions.len() as u64;
    assert!(unstored > 0, "every session fit: nothing overflowed");
    // Every packet of an unstored flow retries (and fails) the
    // establish: at least the SYN's RX carry and the SYN-ACK's TX
    // origination per connection.
    let overflows = home.counters().session_overflows;
    assert!(
        overflows >= 2 * unstored,
        "{overflows} for {unstored} flows"
    );
}

#[test]
fn crash_of_unknown_server_is_ignored() {
    let mut c = small_cluster(false);
    let ghost = ServerId(9_999);
    assert!(
        !c.is_alive(ghost),
        "a server outside the topology is not alive"
    );
    c.apply_fault_plan(FaultPlan::new().crash(SimTime(0) + SimDuration::from_millis(5), ghost));
    let end = run_conns(&mut c, 50, SimDuration::from_millis(1));
    assert_eq!(c.now(), end);
    assert_eq!(c.stats().completed, 50);
    assert!(c.monitor.crash_pending.is_empty());
    assert!((0..16).all(|s| c.is_alive(ServerId(s))));
}

/// Ids inside a control-plane op are input: one naming a server outside
/// the topology, or a vNIC the cluster does not have, is ignored, not
/// indexed with.
#[test]
fn config_ops_naming_an_unknown_server_are_ignored() {
    let mut c = small_cluster(false);
    let ghost = ServerId(9_999);
    let addr = Ipv4Addr::new(10, 7, 0, 1);
    for op in [
        ConfigOp::GatewaySync {
            vnic: VnicId(9_999),
        },
        ConfigOp::FeConfigured {
            vnic: VNIC,
            fe: ghost,
        },
        ConfigOp::BeLocationUpdate {
            vnic: VNIC,
            new_home: ghost,
        },
    ] {
        c.engine
            .schedule_in(SimDuration::from_millis(5), Event::Config(op));
    }
    run_conns(&mut c, 50, SimDuration::from_millis(1));
    assert_eq!(c.stats().completed, 50);
    assert_eq!(c.vnic_home[&VNIC], HOME);
    assert_eq!(c.gateway.current(addr), Some(&[HOME][..]));
}

/// Control payloads ride inside the 16-byte `Event` (a fault boxed, a
/// config op inline); they must still fire at their instant in `(at,
/// seq)` order *between* the packet events scheduled around them. Four
/// probe packets arrive at the home switch at one instant, interleaved
/// with a crash, a restart and a BE relocation at that same instant: each
/// packet's fate tells which control events had fired before it.
#[test]
fn boxed_control_events_fire_in_seq_order_between_packets() {
    let mut c = small_cluster(false);
    let at = SimTime(0) + SimDuration::from_millis(5);
    let arrive = |c: &mut Cluster, n: u16| {
        let tuple = FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 1, 9),
            30_000 + n,
            Ipv4Addr::new(10, 7, 0, 1),
            SVC_PORT,
        );
        let trace = (1u64 << 63) | u64::from(n); // probe bit: no conn bookkeeping
        let syn = nezha_types::TcpFlags::SYN;
        let pkt = nezha_types::Packet::rx_data(trace, VpcId(1), VNIC, tuple, syn, 64);
        c.schedule_arrive(at, HOME, pkt, at);
    };
    arrive(&mut c, 1); // alive, home: delivered
    c.apply_fault_plan(FaultPlan::new().crash(at, HOME));
    arrive(&mut c, 2); // dead: dropped at the gate
    c.apply_fault_plan(FaultPlan::new().restart(at, HOME));
    arrive(&mut c, 3); // alive again: delivered
    let new_home = ServerId(7);
    c.engine.schedule_at(
        at,
        Event::Config(ConfigOp::BeLocationUpdate {
            vnic: VNIC,
            new_home,
        }),
    );
    arrive(&mut c, 4); // HOME is no longer the home: misroute
    c.run_until(at + SimDuration::from_millis(10));
    let stats = c.stats();
    assert_eq!(stats.fault_events, 2);
    assert_eq!(c.vnic_home[&VNIC], new_home);
    assert_eq!(stats.probe_latency.len(), 2, "packets 1 and 3 delivered");
    assert_eq!(stats.misroutes, 1, "packet 4 arrived after the relocation");
    assert_eq!(stats.pkts.dropped, 2, "packets 2 and 4 lost");
    assert!(c.is_alive(HOME));
}

/// The §6.1 testbed at quarter scale (what `TestbedOpts::scaled()` builds
/// in the experiments harness): two racks of 16, 1-core vSwitches, a VM
/// with a quarter of the kernel capacity.
fn scaled_testbed() -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 16,
            racks_per_pod: 2,
            pods: 1,
        })
        .cores(1)
        .auto(false)
        .build();
    let vm = VmConfig {
        per_core_cps: 13_425.0,
        ..VmConfig::with_vcpus(64)
    };
    with_service_vnic(cfg, vm)
}

/// The path every packet-level figure takes — offload, settle, *then*
/// register the traffic starting at `now` — loses nothing: the engine's
/// books balance with thousands of `StartConn`s queued right behind an
/// idle settle, and every connection and packet is accounted for.
#[test]
fn post_settle_registration_conserves_events_and_packets() {
    let mut c = scaled_testbed();
    c.trigger_offload(VNIC, SimTime(0)).unwrap();
    c.run_until(SimTime(0) + SimDuration::from_secs(3));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);
    let idle_pending = c.engine.pending();

    let balance = |c: &Cluster| {
        let snap = c.metrics().snapshot();
        snap.counter("engine.scheduled") - snap.counter("engine.processed")
    };
    const CONNS: u16 = 4_000;
    let start = c.now();
    for i in 0..CONNS {
        c.add_conn(crate::conn::ConnSpec {
            peer_server: ServerId(16 + (i % 8) as u32), // second rack
            ..inbound_spec(i, start + SimDuration::from_micros(250 * i as u64))
        })
        .unwrap();
    }
    assert_eq!(c.engine.pending(), idle_pending + CONNS as usize);
    assert_eq!(balance(&c), c.engine.pending() as u64);

    c.run_until(start + SimDuration::from_secs(4));
    assert_eq!(balance(&c), c.engine.pending() as u64);
    assert_eq!(
        c.engine.pending(),
        idle_pending,
        "only the idle ticks remain"
    );
    assert!(c
        .conns
        .iter()
        .all(|s| s.status == crate::conn::ConnStatus::Completed));
    let stats = c.stats();
    assert_eq!(stats.completed, CONNS as u64);
    assert_eq!(stats.pkts.dropped, 0);
    let injected: f64 = stats.total_series.points().iter().map(|(_, v)| v).sum();
    assert_eq!(injected as u64, stats.pkts.ok + stats.pkts.dropped);
}

/// Starts chained behind one queued `StartConn` and starts queued
/// directly keep the order queueing every start at registration gives:
/// by due instant, then by id (registration order). Mixed in: ties with
/// the chain's tail, decreasing starts, a start at the instant being
/// drained, starts in the past (clamped to the clock), appends while the
/// chain runs, and a new chain after the first has drained. Every
/// connection starts exactly once and completes.
#[test]
fn conn_starts_keep_registration_order_through_the_chain_and_its_fallbacks() {
    let mut c = small_cluster(false);
    let idle_pending = c.engine.pending();
    let ms = SimDuration::from_millis(1);
    // (due instant, id) of every registration, and the starts popped.
    let mut want: Vec<(SimTime, u64)> = Vec::new();
    let mut got: Vec<(SimTime, u64)> = Vec::new();
    let mut n = 0u16;
    let mut register = |c: &mut Cluster, want: &mut Vec<(SimTime, u64)>, at: SimTime| {
        let id = c.add_conn(inbound_spec(n, at)).unwrap();
        n += 1;
        want.push((at.max(c.now()), id));
        id
    };
    let drive = |c: &mut Cluster, got: &mut Vec<(SimTime, u64)>, to: SimTime| {
        while let Some(s) = c.engine.pop_until(to) {
            if let Event::StartConn { conn } = s.event {
                got.push((s.at, conn));
            }
            c.handle(s.event, s.at);
        }
    };

    // At t = 0: a start at the clock itself, a rising chain with ties,
    // and behind every fourth a decreasing start tying an earlier link.
    let t0 = SimTime(0);
    register(&mut c, &mut want, t0);
    for i in 1..=16u64 {
        register(&mut c, &mut want, t0 + ms.times(i / 2 * 2));
        if i % 4 == 0 {
            register(&mut c, &mut want, t0 + ms.times(10 - i / 2));
        }
    }
    assert_eq!(c.engine.pending(), idle_pending + want.len());
    drive(&mut c, &mut got, t0 + ms.times(6));

    // Mid-chain: a start at the instant being drained, appended while
    // the instant drains, then past, present, tail-tying, later and
    // earlier-than-the-tail starts.
    let head = loop {
        let s = c.engine.pop().expect("the chain's 8 ms start is queued");
        match s.event {
            Event::StartConn { conn } if s.at >= t0 + ms.times(8) => {
                got.push((s.at, conn));
                break s;
            }
            Event::StartConn { conn } => got.push((s.at, conn)),
            _ => {}
        }
        c.handle(s.event, s.at);
    };
    register(&mut c, &mut want, head.at);
    c.handle(head.event, head.at);
    let now = c.now();
    register(&mut c, &mut want, SimTime(now.0 - ms.nanos()));
    register(&mut c, &mut want, now);
    register(&mut c, &mut want, t0 + ms.times(16));
    register(&mut c, &mut want, t0 + ms.times(20));
    register(&mut c, &mut want, t0 + ms.times(12));
    drive(&mut c, &mut got, t0 + ms.times(40));

    // The chain has drained: a fresh one.
    for i in [50, 45, 50, 60] {
        register(&mut c, &mut want, t0 + ms.times(i));
    }
    drive(&mut c, &mut got, t0 + SimDuration::from_secs(5));

    want.sort_unstable();
    assert_eq!(got, want);
    let stats = c.stats();
    assert_eq!(stats.completed, want.len() as u64);
    assert_eq!(c.engine.pending(), idle_pending);
}

/// Resident connection records, and the `InFlight` ones among them.
fn conn_records(c: &Cluster) -> (usize, usize) {
    let live = c
        .conns
        .iter()
        .filter(|s| s.status == crate::conn::ConnStatus::InFlight)
        .count();
    (c.conns.iter().count(), live)
}

/// The connection table follows the live connections, not every
/// connection ever registered: about five chunks of TCP_CRR, one in
/// seven an unsolicited inbound the ACL denies, registered at a constant
/// rate step by step over ten aging periods, never keep more than the
/// live connections' chunks plus two resident, and after the drain only
/// the partial tail chunk is left. Handler events naming a freed id are
/// no-ops.
#[test]
fn conn_table_stays_bounded_by_live_connections() {
    use crate::conn::CHUNK;
    let mut c = small_cluster(false);
    const CONNS: u16 = 5 * CHUNK as u16 + 100;
    let horizon = AGING_PERIOD.times(10);
    let step = SimDuration::from_millis(100);
    let steps = horizon.nanos() / step.nanos();
    let per_step = u64::from(CONNS).div_ceil(steps);
    let spacing = SimDuration(step.nanos() / per_step);
    let mut n = 0u16;
    let mut t = SimTime(0);
    while n < CONNS {
        for k in 0..per_step.min(u64::from(CONNS - n)) {
            let mut spec = inbound_spec(n, t + spacing.times(k));
            if n % 7 == 3 {
                spec.tuple.dst_port = 47_123; // no accept rule: denied
            }
            c.add_conn(spec).unwrap();
            n += 1;
        }
        t += step;
        c.run_until(t);
        let (resident, live) = conn_records(&c);
        assert!(
            resident <= (live.div_ceil(CHUNK) + 2) * CHUNK,
            "at {t:?}: {resident} records resident for {live} live connections"
        );
    }
    c.run_until(t + SimDuration::from_secs(5));
    let stats = c.stats();
    assert_eq!(stats.completed + stats.denied, u64::from(CONNS));
    assert!(stats.denied > 0);
    assert_eq!(conn_records(&c), (usize::from(CONNS) % CHUNK, 0));

    // Id 1's chunk is freed: its late events change nothing.
    assert!(c.conn(1).is_none());
    let before = (c.metrics().snapshot().to_json(), c.engine.pending());
    let now = c.now();
    c.handle(
        Event::AdvanceConn {
            conn: 1,
            from_step: 0,
        },
        now,
    );
    c.handle(Event::RetryStep { conn: 1, step: 0 }, now);
    assert_eq!(
        (c.metrics().snapshot().to_json(), c.engine.pending()),
        before
    );
}

/// Connections that exhaust their retries against a crashed home are
/// terminal too: every full chunk of them is freed.
#[test]
fn failed_connections_release_their_chunks() {
    use crate::conn::CHUNK;
    let mut c = small_cluster(false);
    c.apply_fault_plan(FaultPlan::new().crash(SimTime(0), HOME));
    const CONNS: u16 = 2 * CHUNK as u16 + 100;
    for i in 0..CONNS {
        c.add_conn(inbound_spec(
            i,
            SimTime(0) + SimDuration::from_micros(i as u64),
        ))
        .unwrap();
    }
    // Six attempts, the last backoffs at the 2 s cap plus jitter.
    c.run_until(SimTime(0) + SimDuration::from_secs(20));
    assert_eq!(c.stats().failed, u64::from(CONNS));
    assert_eq!(conn_records(&c), (usize::from(CONNS) % CHUNK, 0));
}

#[test]
fn slab_recycles_lifo() {
    let mut s = Slab::default();
    let a = s.insert("a");
    let b = s.insert("b");
    assert_eq!((a, b), (0, 1));
    assert_eq!(s.take(a), "a");
    // Most-recently-freed id is reused first.
    assert_eq!(s.insert("c"), a);
    assert_eq!(s.take(b), "b");
    assert_eq!(s.take(a), "c");
    assert_eq!((s.insert("d"), s.insert("e")), (a, b));
}

#[test]
#[should_panic(expected = "vacant slab slot")]
fn slab_vacant_take_panics() {
    let mut s: Slab<u8> = Slab::default();
    let id = s.insert(1);
    s.take(id);
    s.take(id);
}
