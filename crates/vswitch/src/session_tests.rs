//! Tests of the session table: memory charging and rejection, flow
//! invalidation, aging, and the flow-statistics side map. They live
//! beside the code because they read the table's private maps.

use super::*;
use nezha_sim::time::SimDuration;
use nezha_types::{FiveTuple, Ipv4Addr, Packet, TcpFlags, VnicId, VpcId};

fn tuple(n: u16) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        1000 + n,
        Ipv4Addr::new(10, 0, 0, 2),
        80,
    )
}

fn key(n: u16) -> SessionKey {
    SessionKey::of(VpcId(1), tuple(n))
}

fn setup() -> (SessionTable, MemoryPool, VSwitchConfig) {
    (
        SessionTable::new(),
        MemoryPool::new(10_000),
        VSwitchConfig::default(),
    )
}

#[test]
fn establish_charges_full_entry() {
    let (mut t, mut pool, cfg) = setup();
    t.establish(
        key(1),
        nezha_types::VnicId(0),
        Direction::Tx,
        Some(PreActionPair::accept(None, None)),
        SimTime(0),
        &mut pool,
        &cfg.memory,
    )
    .unwrap();
    assert_eq!(pool.used(), 100 + 64);
    assert_eq!(t.len(), 1);
    assert_eq!(t.counters().0, 1);
}

#[test]
fn stateless_be_entry_costs_only_slab() {
    let (mut t, mut pool, cfg) = setup();
    t.establish(
        key(1),
        nezha_types::VnicId(0),
        Direction::Rx,
        None,
        SimTime(0),
        &mut pool,
        &cfg.memory,
    )
    .unwrap();
    assert_eq!(pool.used(), 64);
}

#[test]
fn memory_exhaustion_rejects_new_sessions() {
    let (mut t, _, cfg) = setup();
    let mut pool = MemoryPool::new(200); // room for exactly one full entry
    t.establish(
        key(1),
        nezha_types::VnicId(0),
        Direction::Tx,
        Some(PreActionPair::accept(None, None)),
        SimTime(0),
        &mut pool,
        &cfg.memory,
    )
    .unwrap();
    let err = t.establish(
        key(2),
        nezha_types::VnicId(0),
        Direction::Tx,
        Some(PreActionPair::accept(None, None)),
        SimTime(0),
        &mut pool,
        &cfg.memory,
    );
    assert!(err.is_err());
    assert_eq!(t.counters().2, 1);
    assert_eq!(t.len(), 1);
}

#[test]
fn invalidate_flows_multiplies_capacity() {
    // The §6.2.1 mechanism: dropping 100 B of flow entry per session
    // leaves 64 B entries — the same pool then fits ~2.5x the sessions.
    let (mut t, _, cfg) = setup();
    let mut pool = MemoryPool::new(164 * 10);
    for i in 0..10 {
        t.establish(
            key(i),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    }
    assert_eq!(pool.available(), 0);
    assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 10);
    assert_eq!(pool.available(), 1000);
    // 1000 freed bytes now fit 15 more state-only sessions.
    for i in 10..25 {
        t.establish(
            key(i),
            nezha_types::VnicId(0),
            Direction::Tx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    }
    assert_eq!(t.len(), 25);
}

#[test]
fn aging_established_vs_embryonic() {
    let (mut t, mut pool, cfg) = setup();
    // Established session.
    let e = t
        .establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    e.state.tcp = TcpState::Established;
    // Embryonic session.
    let e = t
        .establish(
            key(2),
            nezha_types::VnicId(0),
            Direction::Tx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    e.state.tcp = TcpState::SynSent;

    // After 2 s (> syn_aging 1 s, < SESSION_AGING 8 s): SYN expires.
    let n = t.expire(SimTime(2_000_000_000), &cfg, &mut pool);
    assert_eq!(n, 1);
    assert!(t.get(&key(1)).is_some());
    assert!(t.get(&key(2)).is_none());

    // After 10 s idle the established one goes too.
    let n = t.expire(SimTime(10_000_000_000), &cfg, &mut pool);
    assert_eq!(n, 1);
    assert!(t.is_empty());
    assert_eq!(pool.used(), 0);
    assert_eq!(t.counters().1, 2);
}

#[test]
fn touch_resets_aging_clock() {
    let (mut t, mut pool, cfg) = setup();
    let e = t
        .establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    e.state.tcp = TcpState::Established;
    t.touch(&key(1), SimTime(7_000_000_000));
    // 8 s after creation but only 1 s after the touch: still alive.
    assert_eq!(t.expire(SimTime(8_000_000_000), &cfg, &mut pool), 0);
    assert_eq!(t.len(), 1);
}

#[test]
fn closed_sessions_reclaim_on_sweep() {
    let (mut t, mut pool, cfg) = setup();
    let e = t
        .establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
    e.state.tcp = TcpState::Closed;
    assert_eq!(
        t.expire(SimTime(0) + SimDuration::from_millis(1), &cfg, &mut pool),
        1
    );
    assert!(t.is_empty());
}

#[test]
fn invalidate_flows_keeps_state() {
    let (mut t, mut pool, cfg) = setup();
    t.establish(
        key(1),
        nezha_types::VnicId(0),
        Direction::Tx,
        Some(PreActionPair::accept(None, None)),
        SimTime(0),
        &mut pool,
        &cfg.memory,
    )
    .unwrap();
    assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 1);
    let e = t.get(&key(1)).unwrap();
    assert!(!e.has_cached_flows());
    assert!(t.pre_actions(e).is_none());
    // No entry holds an id: the interned values went with the flows.
    assert!(t.pairs.is_empty());
    assert_eq!(e.state.first_dir, Some(Direction::Tx));
    assert_eq!(pool.used(), 64);
    // Idempotent.
    assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 0);
}

/// A stateless entry for `key(n)`, under statistics policy `policy`.
fn under_policy(t: &mut SessionTable, pool: &mut MemoryPool, n: u16, policy: u8) {
    let m = VSwitchConfig::default().memory;
    let e = t
        .establish(key(n), VnicId(0), Direction::Tx, None, SimTime(0), pool, &m)
        .unwrap();
    e.state.stats_policy = policy;
}

#[test]
fn counters_are_written_only_under_a_policy() {
    let (mut t, mut pool, _) = setup();
    under_policy(&mut t, &mut pool, 1, 0);
    under_policy(&mut t, &mut pool, 2, 3);
    for n in [1, 2] {
        t.record_stats(key(n), Direction::Tx, 100);
        t.record_stats(key(n), Direction::Rx, 60);
    }
    // No entry at all counts nothing either.
    t.record_stats(key(9), Direction::Tx, 100);
    assert_eq!(t.stats(&key(1)), StatsState::default());
    let want = StatsState {
        tx_packets: 1,
        rx_packets: 1,
        tx_bytes: 100,
        rx_bytes: 60,
    };
    assert_eq!(t.stats(&key(2)), want);
    assert_eq!(t.stats.len(), 1);
}

#[test]
fn a_policy_adopted_by_notify_counts_from_the_next_packet() {
    // The BE's TX half cannot adopt a policy: the packet that missed
    // goes uncounted, and the notify's policy (§3.2.2) switches the
    // counters on for the packets after it.
    let (mut t, mut pool, _) = setup();
    under_policy(&mut t, &mut pool, 1, 0);
    let syn = Packet::tx_data(1, VpcId(1), VnicId(0), tuple(1), TcpFlags::SYN, 0);
    let count = |t: &mut SessionTable, pkt: &Packet| {
        let e = t.get_mut(&key(1)).unwrap();
        e.state.update(None, pkt);
        if e.state.stats_policy != 0 {
            t.record_stats(key(1), pkt.dir, pkt.wire_len() as u64);
        }
    };
    count(&mut t, &syn);
    assert_eq!(t.stats(&key(1)), StatsState::default());
    // The notify.
    t.get_mut(&key(1)).unwrap().state.stats_policy = 2;
    let ack = Packet::tx_data(2, VpcId(1), VnicId(0), tuple(1), TcpFlags::ACK, 0);
    count(&mut t, &ack);
    let s = t.stats(&key(1));
    assert_eq!((s.tx_packets, s.tx_bytes), (1, ack.wire_len() as u64));
}

#[test]
fn counters_leave_with_their_session() {
    let (mut t, mut pool, cfg) = setup();
    for n in 1..=3 {
        under_policy(&mut t, &mut pool, n, 1);
        t.record_stats(key(n), Direction::Tx, 100);
    }
    under_policy(&mut t, &mut pool, 4, 0);
    t.remove(&key(1), &mut pool, &cfg.memory);
    assert_eq!(t.stats(&key(1)), StatsState::default());
    assert_eq!(t.stats.len(), 2);
    // Key 2 is active; keys 3 and 4 sit idle past the SYN timeout.
    for n in 2..=4 {
        t.get_mut(&key(n)).unwrap().state.tcp = TcpState::SynSent;
    }
    t.touch(&key(2), SimTime(2_000_000_000));
    assert_eq!(t.expire(SimTime(2_000_000_000), &cfg, &mut pool), 2);
    assert_eq!(t.stats(&key(3)), StatsState::default());
    assert_eq!(t.stats(&key(2)).tx_packets, 1);
    // After every session has expired, no counters are left.
    assert_eq!(t.expire(SimTime(20_000_000_000), &cfg, &mut pool), 1);
    assert!(t.is_empty());
    assert!(t.stats.is_empty());
    assert_eq!(pool.used(), 0);
}

#[test]
fn remove_releases_memory() {
    let (mut t, mut pool, cfg) = setup();
    t.establish(
        key(1),
        nezha_types::VnicId(0),
        Direction::Tx,
        Some(PreActionPair::accept(None, None)),
        SimTime(0),
        &mut pool,
        &cfg.memory,
    )
    .unwrap();
    t.remove(&key(1), &mut pool, &cfg.memory);
    assert_eq!(pool.used(), 0);
    // Removing a missing key is a no-op.
    t.remove(&key(1), &mut pool, &cfg.memory);
    assert_eq!(pool.used(), 0);
}
