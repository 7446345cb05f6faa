use super::*;
use crate::config::VSwitchConfig;
use crate::tables::acl::PortRange;
use crate::tables::qos::{ClassLimit, QosRule};
use crate::tables::route::RouteTarget;
use crate::vnic::VnicProfile;
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, TcpFlags, VpcId};

fn vswitch_with_vnic() -> (VSwitch, VnicId) {
    let mut vs = VSwitch::new(ServerId(0), VSwitchConfig::default());
    let vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    vs.add_vnic(vnic).unwrap();
    (vs, VnicId(1))
}

fn tx_pkt(trace: u64, sport: u16) -> Packet {
    Packet::tx_data(
        trace,
        VpcId(1),
        VnicId(1),
        FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 0, 1),
            sport,
            Ipv4Addr::new(10, 7, 0, 100),
            9000,
        ),
        TcpFlags::SYN,
        64,
    )
}

#[test]
fn first_packet_slow_then_fast() {
    let (mut vs, _) = vswitch_with_vnic();
    let r1 = vs.process_local(&tx_pkt(1, 40000), SimTime(0));
    assert!(r1.outcome.is_forwarded());
    assert_eq!(r1.path, Some(PathTaken::Slow));
    assert!(r1.created_session);

    let mut p2 = tx_pkt(2, 40000);
    p2.tcp_flags = TcpFlags::ACK;
    let r2 = vs.process_local(&p2, SimTime(1000));
    assert!(r2.outcome.is_forwarded());
    assert_eq!(r2.path, Some(PathTaken::Fast));
    assert!(!r2.created_session);
    assert_eq!(vs.sessions.len(), 1);
    assert_eq!(vs.counters().forwarded, 2);
}

#[test]
fn fast_path_is_cheaper_than_slow_path() {
    let (mut vs, _) = vswitch_with_vnic();
    let r1 = vs.process_local(&tx_pkt(1, 40001), SimTime(0));
    let slow_latency = r1.done_at.since(SimTime(0));
    // Re-use the session from a quiet start time.
    let t = SimTime(1_000_000_000);
    let mut p2 = tx_pkt(2, 40001);
    p2.tcp_flags = TcpFlags::ACK;
    let r2 = vs.process_local(&p2, t);
    let fast_latency = r2.done_at.since(t);
    assert!(
        fast_latency.nanos() * 3 < slow_latency.nanos(),
        "fast {fast_latency} vs slow {slow_latency}"
    );
}

#[test]
fn unknown_vnic_is_unroutable() {
    let (mut vs, _) = vswitch_with_vnic();
    let mut p = tx_pkt(1, 40000);
    p.vnic = VnicId(99);
    let r = vs.process_local(&p, SimTime(0));
    assert_eq!(r.outcome, ProcessOutcome::Unroutable);
    assert_eq!(vs.counters().unroutable, 1);
}

#[test]
fn sustained_overload_drops_packets() {
    let (mut vs, _) = vswitch_with_vnic();
    // Hammer new connections at one instant; the backlog bound breaks.
    let mut cpu_drops = 0;
    for i in 0..3000 {
        let r = vs.process_local(&tx_pkt(i, 10000 + (i % 50_000) as u16), SimTime(0));
        if r.outcome == ProcessOutcome::CpuOverload {
            cpu_drops += 1;
        }
    }
    assert!(cpu_drops > 0);
    assert_eq!(vs.counters().cpu_drops, cpu_drops);
}

/// Regression for the old `ProcessResult.path` wart: a CPU-overloaded
/// packet never took a path, so the result must say so (`None`) instead
/// of reporting a meaningless value — while surviving packets still
/// report the real path and the drop is otherwise accounted identically.
#[test]
fn cpu_overload_reports_no_path() {
    let (mut vs, _) = vswitch_with_vnic();
    let mut saw_overload = false;
    for i in 0..3000 {
        let r = vs.process_local(&tx_pkt(i, 10000 + (i % 50_000) as u16), SimTime(0));
        match r.outcome {
            ProcessOutcome::CpuOverload => {
                saw_overload = true;
                assert_eq!(r.path, None, "a CPU drop took no path");
                assert_eq!(r.done_at, SimTime(0), "dropped on arrival");
                assert!(!r.created_session);
            }
            _ => assert!(r.path.is_some(), "surviving packets report a path"),
        }
    }
    assert!(saw_overload, "overload never engaged");
    assert!(vs.counters().cpu_drops > 0);
}

#[test]
fn vnic_table_memory_enforced() {
    // 10 MB: fits one default vNIC.
    let cfg = VSwitchConfig {
        table_memory: 10 * 1024 * 1024,
        ..VSwitchConfig::default()
    };
    let mut vs = VSwitch::new(ServerId(0), cfg);
    let v1 = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    let v2 = Vnic::new(
        VnicId(2),
        VpcId(1),
        Ipv4Addr::new(10, 8, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    vs.add_vnic(v1).unwrap();
    assert!(vs.add_vnic(v2).is_err(), "second vNIC must not fit");
    assert_eq!(vs.vnic_count(), 1);
}

#[test]
fn remove_vnic_releases_memory() {
    let (mut vs, id) = vswitch_with_vnic();
    let used = vs.mem.used();
    assert!(used > 0);
    // Re-adding a hosted vNIC replaces it and frees the old copy's charge.
    let again = vs.vnic(id).unwrap().clone();
    vs.add_vnic(again).unwrap();
    assert_eq!(vs.mem.used(), used);
    let v = vs.remove_vnic(id).unwrap();
    assert_eq!(vs.mem.used(), 0);
    assert_eq!(v.id, id);
    assert!(vs.remove_vnic(id).is_none());
}

#[test]
fn cycle_attribution_ranks_heavy_vnics() {
    let (mut vs, _) = vswitch_with_vnic();
    let v2 = Vnic::new(
        VnicId(2),
        VpcId(1),
        Ipv4Addr::new(10, 9, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    vs.add_vnic(v2).unwrap();
    // vNIC 1 gets 10 connections, vNIC 2 gets 1.
    for i in 0..10 {
        vs.process_local(&tx_pkt(i, 41000 + i as u16), SimTime(i * 1_000_000));
    }
    let mut p = tx_pkt(100, 45000);
    p.vnic = VnicId(2);
    p.tuple.src_ip = Ipv4Addr::new(10, 9, 0, 1);
    // Offer after the earlier backlog has drained (time is monotone in
    // real runs; the CPU model treats an out-of-order earlier offer as
    // arriving behind the whole backlog).
    vs.process_local(&p, SimTime(20_000_000));
    let shares = vs.vnic_cycle_shares();
    assert!(shares[&VnicId(1)] > shares[&VnicId(2)]);
}

#[test]
fn session_overflow_processes_uncached() {
    // Just enough memory for the vNIC tables + one session.
    let cfg = VSwitchConfig {
        table_memory: 8 * 1024 * 1024,
        ..VSwitchConfig::default()
    };
    let mut vs = VSwitch::new(ServerId(0), cfg);
    let vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    vs.add_vnic(vnic).unwrap();
    // Fill the remaining memory with sessions.
    let mut overflowed = false;
    for i in 0..200_000 {
        let r = vs.process_local(
            &tx_pkt(i, (i % 60_000) as u16),
            SimTime(i * 10_000_000), // spread to avoid CPU drops
        );
        if r.session_overflow {
            overflowed = true;
            assert!(r.outcome.is_forwarded(), "overflow still forwards");
            break;
        }
    }
    assert!(overflowed, "never hit session-table memory limit");
    assert!(vs.counters().session_overflows > 0);
}

#[test]
fn utilization_reflects_load() {
    let (mut vs, _) = vswitch_with_vnic();
    vs.set_util_window(nezha_sim::time::SimDuration::from_millis(10));
    assert_eq!(vs.cpu_utilization(SimTime(0)), 0.0);
    // 2000 new connections at 5 us spacing = 200K CPS offered for 10 ms
    // on a ~400K-CPS-lookup-capable switch: roughly half utilized.
    for i in 0..2000 {
        vs.process_local(&tx_pkt(i, 20000 + (i % 40_000) as u16), SimTime(i * 5_000));
    }
    let u = vs.cpu_utilization(SimTime(2000 * 5_000));
    assert!(u > 0.2, "utilization {u}");
    assert!(vs.mem_utilization() > 0.0);
}

#[test]
fn expire_sessions_frees_capacity() {
    let (mut vs, _) = vswitch_with_vnic();
    vs.process_local(&tx_pkt(1, 40000), SimTime(0));
    assert_eq!(vs.sessions.len(), 1);
    // SYN sessions age out after syn_aging (1 s).
    let n = vs.expire_sessions(SimTime(2_000_000_000));
    assert_eq!(n, 1);
    assert_eq!(vs.sessions.len(), 0);
}

/// A vNIC whose port-443 class is rate limited to ~10 packets of
/// burst: the fast path must start returning RateLimited once the
/// bucket drains, and recover as tokens refill.
#[test]
fn qos_rate_limit_enforced_on_fast_path() {
    let mut vs = VSwitch::new(ServerId(0), VSwitchConfig::default());
    let mut vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile {
            qos_rules: 0,
            ..VnicProfile::default()
        },
        ServerId(0),
    );
    vnic.tables.qos.add_rule(QosRule {
        dst_ports: PortRange::only(443),
        class: 2,
    });
    vnic.tables.qos.add_limit(ClassLimit {
        class: 2,
        rate_bytes_per_sec: 10_000.0,
        burst_bytes: 2_000.0,
    });
    vs.add_vnic(vnic).unwrap();

    let pkt = |n: u64| {
        Packet::tx_data(
            n,
            VpcId(1),
            VnicId(1),
            FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 0, 1),
                50_000,
                Ipv4Addr::new(10, 7, 0, 9),
                443,
            ),
            if n == 0 { TcpFlags::SYN } else { TcpFlags::ACK },
            100,
        )
    };
    // Burst through the bucket (each packet ~154B on the wire).
    let mut limited = 0;
    for n in 0..30 {
        let r = vs.process_local(&pkt(n), SimTime(n * 1_000_000));
        if r.outcome == ProcessOutcome::RateLimited {
            limited += 1;
        }
    }
    assert!(limited > 5, "rate limit never engaged: {limited}");
    assert_eq!(vs.counters().rate_limited, limited);
    // After a second, tokens are back.
    let r = vs.process_local(&pkt(100), SimTime(1_500_000_000));
    assert!(
        r.outcome.is_forwarded(),
        "bucket must refill: {:?}",
        r.outcome
    );
}

/// Unlimited classes never rate limit, regardless of volume.
#[test]
fn best_effort_class_is_unlimited() {
    let mut vs = VSwitch::new(ServerId(0), VSwitchConfig::default());
    let vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile {
            qos_rules: 0,
            ..VnicProfile::default()
        },
        ServerId(0),
    );
    vs.add_vnic(vnic).unwrap();
    for n in 0..200u64 {
        let pkt = Packet::tx_data(
            n,
            VpcId(1),
            VnicId(1),
            FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 0, 1),
                50_000,
                Ipv4Addr::new(10, 7, 0, 9),
                9000,
            ),
            if n == 0 { TcpFlags::SYN } else { TcpFlags::ACK },
            1_400,
        );
        let r = vs.process_local(&pkt, SimTime(n * 10_000_000));
        assert!(r.outcome != ProcessOutcome::RateLimited);
    }
    assert_eq!(vs.counters().rate_limited, 0);
}

/// Drives `process_local` through every outcome it can produce and pins
/// the whole result plus the packet's trace-event order
/// `Enqueue → TableHit|TableMiss → CpuCharge → [Drop]`.
#[test]
fn process_local_outcome_table() {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Price {
        Fast,
        Slow,
        /// An unknown vNIC: the table-less slow-path formula.
        Tableless,
    }
    struct Case {
        name: &'static str,
        /// Table memory beyond the vNIC's own tables (session room).
        session_room: u64,
        /// Brings the switch into the state the probe packet meets.
        warm_up: fn(&mut VSwitch),
        pkt: Packet,
        outcome: &'static str,
        path: Option<PathTaken>,
        created: bool,
        overflow: bool,
        price: Price,
        /// Flow-cache probe event; `None` when the vNIC screen stops first.
        probe: Option<TraceEventKind>,
        charged: bool,
        drop: Option<DropReason>,
    }
    const PROBE: u64 = 777;
    const T0: SimTime = SimTime(0);
    const LIMITED_PORT: u16 = 8443; // outside the synthetic QoS rules
    let blackholed = Ipv4Addr::new(192, 0, 2, 9);
    fn label(o: &ProcessOutcome) -> &'static str {
        match o {
            ProcessOutcome::Forwarded(_) => "forwarded",
            ProcessOutcome::AclDrop => "acl-drop",
            ProcessOutcome::Unroutable => "unroutable",
            ProcessOutcome::RateLimited => "rate-limited",
            ProcessOutcome::CpuOverload => "cpu-overload",
        }
    }
    fn ack(mut p: Packet) -> Packet {
        p.tcp_flags = TcpFlags::ACK;
        p
    }
    fn to(mut p: Packet, dst: Ipv4Addr, port: u16) -> Packet {
        p.tuple.dst_ip = dst;
        p.tuple.dst_port = port;
        p
    }
    fn first_packet(vs: &mut VSwitch) {
        assert!(vs.process_local(&tx_pkt(1, 40000), T0).created_session);
    }
    let unsolicited_rx = Packet::rx_data(
        PROBE,
        VpcId(1),
        VnicId(1),
        FiveTuple::tcp(
            Ipv4Addr::new(172, 30, 1, 1),
            50000,
            Ipv4Addr::new(10, 7, 0, 1),
            9000,
        ),
        TcpFlags::SYN,
        64,
    );
    let base = Case {
        name: "slow create",
        session_room: 1 << 20,
        warm_up: |_| {},
        pkt: tx_pkt(PROBE, 40000),
        outcome: "forwarded",
        path: Some(PathTaken::Slow),
        created: true,
        overflow: false,
        price: Price::Slow,
        probe: Some(TraceEventKind::TableMiss),
        charged: true,
        drop: None,
    };
    let cases = [
        Case {
            name: "fast hit",
            warm_up: first_packet,
            pkt: ack(tx_pkt(PROBE, 40000)),
            path: Some(PathTaken::Fast),
            created: false,
            price: Price::Fast,
            probe: Some(TraceEventKind::TableHit),
            ..base
        },
        Case {
            name: "stateless routing drop",
            pkt: to(tx_pkt(PROBE, 40000), blackholed, 9000),
            outcome: "unroutable",
            created: false,
            drop: Some(DropReason::NoRoute),
            ..base
        },
        Case {
            name: "re-cache after rule update",
            warm_up: |vs| {
                first_packet(vs);
                let memory = vs.cfg.memory;
                assert_eq!(vs.sessions.invalidate_flows(&mut vs.mem, &memory), 1);
            },
            pkt: ack(tx_pkt(PROBE, 40000)),
            created: false,
            ..base
        },
        Case {
            name: "session-memory overflow",
            session_room: 0,
            created: false,
            overflow: true,
            ..base
        },
        Case {
            name: "acl drop",
            pkt: unsolicited_rx,
            outcome: "acl-drop",
            drop: Some(DropReason::PolicyDeny),
            ..base
        },
        Case {
            name: "rate limit",
            pkt: to(
                tx_pkt(PROBE, 40000),
                Ipv4Addr::new(10, 7, 0, 100),
                LIMITED_PORT,
            ),
            outcome: "rate-limited",
            drop: Some(DropReason::RateLimited),
            ..base
        },
        Case {
            name: "cpu overload",
            warm_up: |vs| {
                let overloaded = (0..5000u64).any(|i| {
                    vs.process_local(&tx_pkt(i, 1000 + i as u16), T0).outcome
                        == ProcessOutcome::CpuOverload
                });
                assert!(overloaded, "backlog bound never engaged");
            },
            outcome: "cpu-overload",
            path: None,
            created: false,
            charged: false,
            drop: Some(DropReason::Backlog),
            ..base
        },
        Case {
            name: "unknown vnic",
            pkt: Packet {
                vnic: VnicId(99),
                ..tx_pkt(PROBE, 40000)
            },
            outcome: "unroutable",
            created: false,
            price: Price::Tableless,
            probe: None,
            charged: false,
            drop: Some(DropReason::NoRoute),
            ..base
        },
        base,
    ];
    for c in cases {
        let mut vnic = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        );
        vnic.tables
            .route
            .insert(blackholed.masked(24), 24, RouteTarget::Blackhole);
        vnic.tables.qos.add_rule(QosRule {
            dst_ports: PortRange::only(LIMITED_PORT),
            class: 3,
        });
        vnic.tables.qos.add_limit(ClassLimit {
            class: 3,
            rate_bytes_per_sec: 1.0,
            burst_bytes: 1.0,
        });
        let defaults = VSwitchConfig::default();
        let table_bytes = vnic.table_memory(&defaults.memory);
        let slow_cycles = vnic.slow_path_cycles(&defaults.costs, c.pkt.wire_len());
        let cfg = VSwitchConfig {
            table_memory: table_bytes + c.session_room,
            ..defaults
        };
        let tel = Telemetry::new();
        let trace = &tel.trace;
        let mut vs = VSwitch::with_telemetry(ServerId(0), cfg, &tel);
        vs.add_vnic(vnic).unwrap();
        (c.warm_up)(&mut vs);
        trace.set_capacity(64);
        let overflows_before = vs.counters().session_overflows;

        let r = vs.process_local(&c.pkt, T0);

        let name = c.name;
        assert_eq!(label(&r.outcome), c.outcome, "{name}: outcome");
        assert_eq!(r.path, c.path, "{name}: path");
        assert_eq!(r.created_session, c.created, "{name}: created_session");
        assert_eq!(r.session_overflow, c.overflow, "{name}: session_overflow");
        assert_eq!(
            vs.counters().session_overflows - overflows_before,
            u64::from(c.overflow),
            "{name}: overflow counter"
        );
        let cycles = match c.price {
            Price::Fast => cfg.costs.fast_path_cycles(c.pkt.wire_len()),
            Price::Slow => slow_cycles,
            Price::Tableless => cfg.costs.slow_path_cycles(c.pkt.wire_len(), 0, 0),
        };
        assert_eq!(r.cycles, cycles, "{name}: cycles");
        assert_eq!(r.done_at > T0, c.charged, "{name}: done_at");
        let want: Vec<TraceEventKind> = [
            Some(TraceEventKind::Enqueue),
            c.probe,
            c.charged.then_some(TraceEventKind::CpuCharge { cycles }),
            c.drop.map(TraceEventKind::Drop),
        ]
        .into_iter()
        .flatten()
        .collect();
        let got: Vec<TraceEventKind> = trace.packet(PROBE).iter().map(|e| e.kind).collect();
        assert_eq!(got, want, "{name}: trace events");
        if c.name == "re-cache after rule update" {
            let again = vs.process_local(&ack(tx_pkt(PROBE + 1, 40000)), T0);
            assert_eq!(again.path, Some(PathTaken::Fast), "{name}: re-cached");
        }
        if c.name == "stateless routing drop" {
            assert_eq!(vs.sessions.len(), 0, "{name}: no session for routing drops");
        }
    }
}

#[test]
fn outcome_helpers() {
    assert!(ProcessOutcome::Forwarded(Action::drop()).is_forwarded());
    assert!(!ProcessOutcome::AclDrop.is_forwarded());
    assert!(!ProcessOutcome::CpuOverload.is_forwarded());
}
