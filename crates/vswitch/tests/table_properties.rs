//! Property tests of the rule-table semantics against straightforward
//! reference implementations, plus session-table conservation invariants.

use nezha_sim::resources::MemoryPool;
use nezha_sim::time::SimTime;
use nezha_types::{
    Decision, Direction, FiveTuple, Ipv4Addr, PreActionPair, ServerId, SessionKey, VnicId, VpcId,
};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::session::SessionTable;
use nezha_vswitch::tables::acl::{AclRule, AclTable, PortRange};
use nezha_vswitch::tables::route::{RouteTable, RouteTarget};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_rule() -> impl Strategy<Value = AclRule> {
    (
        0u32..50,
        any::<u32>(),
        0u8..=32,
        any::<u32>(),
        0u8..=32,
        any::<u16>(),
        any::<u16>(),
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(prio, src, sl, dst, dl, plo, phi, accept, stateful)| AclRule {
                priority: prio,
                direction: None,
                src: (Ipv4Addr(src), sl),
                dst: (Ipv4Addr(dst), dl),
                src_ports: PortRange::ANY,
                dst_ports: PortRange {
                    lo: plo.min(phi),
                    hi: plo.max(phi),
                },
                protocol: None,
                decision: if accept {
                    Decision::Accept
                } else {
                    Decision::Drop
                },
                stateful,
            },
        )
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>())
        .prop_map(|(s, d, sp, dp)| FiveTuple::tcp(Ipv4Addr(s), sp, Ipv4Addr(d), dp))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The ACL's first-hit-by-priority lookup equals a naive reference:
    /// sort by (priority, insertion index), take the first match.
    #[test]
    fn acl_matches_reference(
        rules in prop::collection::vec(arb_rule(), 0..20),
        tuple in arb_tuple(),
    ) {
        let mut acl = AclTable::allow_all();
        for r in &rules {
            acl.insert(*r);
        }
        let got = acl.lookup(&tuple, Direction::Tx);

        let mut indexed: Vec<(usize, &AclRule)> = rules.iter().enumerate().collect();
        indexed.sort_by_key(|(i, r)| (r.priority, *i));
        let want = indexed
            .iter()
            .find(|(_, r)| r.matches(&tuple, Direction::Tx))
            .map(|(_, r)| (r.decision, r.stateful))
            .unwrap_or((Decision::Accept, false));
        prop_assert_eq!((got.decision, got.stateful), want);
    }

    /// LPM equals a naive longest-prefix scan.
    #[test]
    fn route_lpm_matches_reference(
        routes in prop::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 0..24),
        dst in any::<u32>(),
    ) {
        let mut rt = RouteTable::new();
        for (p, l, hint) in &routes {
            rt.insert(Ipv4Addr(*p), *l, RouteTarget::Overlay(Ipv4Addr(*hint)));
        }
        let got = rt.lookup(Ipv4Addr(dst));

        // Reference: longest prefix wins; later inserts replace equals.
        let mut best: Option<(u8, Ipv4Addr)> = None;
        for (p, l, hint) in &routes {
            if Ipv4Addr(dst).in_prefix(Ipv4Addr(*p), *l)
                && best.is_none_or(|(bl, _)| *l >= bl)
            {
                best = Some((*l, Ipv4Addr(*hint)));
            }
        }
        prop_assert_eq!(got, best.map(|(_, h)| RouteTarget::Overlay(h)));
    }

    /// Memory conservation: any interleaving of establishes, removes,
    /// flow drops and expiries leaves the pool exactly balanced, and
    /// memory use equals what the live entries imply.
    #[test]
    fn session_table_conserves_memory(
        ops in prop::collection::vec((0u8..4, 0u16..48), 1..200),
    ) {
        let cfg = VSwitchConfig::default();
        let mut table = SessionTable::new();
        let mut pool = MemoryPool::new(1 << 20);
        let mut now = SimTime(0);
        let key = |n: u16| SessionKey::of(
            VpcId(1),
            FiveTuple::tcp(Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8), 1000 + n, Ipv4Addr::new(10, 1, 0, 1), 80),
        );
        for (op, n) in ops {
            now = SimTime(now.0 + 1_000_000);
            match op {
                0 => {
                    let k = key(n);
                    if table.get(&k).is_none() {
                        let _ = table.establish(
                            k,
                            VnicId(1),
                            Direction::Tx,
                            Some(PreActionPair::accept(None, None)),
                            now,
                            &mut pool,
                            &cfg.memory,
                        );
                    }
                }
                1 => table.remove(&key(n), &mut pool, &cfg.memory),
                2 => {
                    table.invalidate_flows(&mut pool, &cfg.memory);
                }
                _ => {
                    table.expire(SimTime(now.0 + 60_000_000_000), &cfg, &mut pool);
                    now = SimTime(now.0 + 60_000_000_000);
                }
            }
            // Invariant: pool usage equals the sum over live entries.
            let expect: u64 = table
                .iter()
                .map(|(_, e)| {
                    cfg.memory.state_slab
                        + if e.has_cached_flows() { cfg.memory.flow_entry } else { 0 }
                })
                .sum();
            prop_assert_eq!(pool.used(), expect);
        }
        // Drain completely.
        table.expire(SimTime(now.0 + 600_000_000_000), &cfg, &mut pool);
        prop_assert_eq!(pool.used(), 0);
        prop_assert!(table.is_empty());
    }

    /// The interned table against a model that stores each entry's full
    /// `Option<PreActionPair>`: establish with and without cached flows
    /// (into a pool small enough to reject some), re-cache after
    /// `invalidate_flows`, remove and expire — after every step each live
    /// key resolves to the model's pair, and `pool.used()` and
    /// `counters()` are what the model's entries imply.
    #[test]
    fn interned_pre_actions_match_an_inline_model(
        ops in prop::collection::vec((0u8..6, 0u16..24, 0u32..5), 1..200),
    ) {
        struct ModelEntry {
            pair: Option<PreActionPair>,
            last_seen: SimTime,
        }
        let cfg = VSwitchConfig::default();
        let m = &cfg.memory;
        let mut table = SessionTable::new();
        let mut pool = MemoryPool::new(12 * (m.state_slab + m.flow_entry));
        let mut model: BTreeMap<u16, ModelEntry> = BTreeMap::new();
        let (mut created, mut expired, mut rejected) = (0u64, 0u64, 0u64);
        let bytes = |pair: &Option<PreActionPair>| {
            m.state_slab + pair.map_or(0, |_| m.flow_entry)
        };
        let used = |model: &BTreeMap<u16, ModelEntry>| -> u64 {
            model.values().map(|e| bytes(&e.pair)).sum()
        };
        let key = |n: u16| SessionKey::of(
            VpcId(1),
            FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, n as u8), 1000 + n, Ipv4Addr::new(10, 1, 0, 1), 80),
        );
        let pair = |hop: u32| PreActionPair::accept(Some(ServerId(hop)), None);
        let mut now = SimTime(0);
        for (op, n, hop) in ops {
            now = SimTime(now.0 + 1_000_000_000);
            match op {
                // Establish, with (0) or without (1) cached flows.
                0 | 1 if !model.contains_key(&n) => {
                    let cached = (op == 0).then(|| pair(hop));
                    let fits = used(&model) + bytes(&cached) <= pool.capacity();
                    let got = table
                        .establish(key(n), VnicId(1), Direction::Tx, cached, now, &mut pool, m)
                        .is_ok();
                    prop_assert_eq!(got, fits);
                    if fits {
                        created += 1;
                        model.insert(n, ModelEntry { pair: cached, last_seen: now });
                    } else {
                        rejected += 1;
                    }
                }
                // Re-cache on an entry that lost its flows, as the slow
                // path does after a rule update.
                2 => {
                    if let (Some(e), Some(slot)) = (model.get_mut(&n), table.slot(&key(n))) {
                        if e.pair.is_none() && pool.alloc(m.flow_entry).is_ok() {
                            table.cache_flows(slot, pair(hop));
                            e.pair = Some(pair(hop));
                        }
                    }
                }
                3 => {
                    table.remove(&key(n), &mut pool, m);
                    model.remove(&n);
                }
                4 => {
                    let want = model.values_mut().filter_map(|e| e.pair.take()).count();
                    prop_assert_eq!(table.invalidate_flows(&mut pool, m), want);
                }
                5 => {
                    // Entries here never leave `TcpState::None`: the
                    // established-session timeout applies to all of them.
                    now = SimTime(now.0 + u64::from(hop) * 3_000_000_000);
                    let before = model.len();
                    model.retain(|_, e| now.since(e.last_seen) <= cfg.session_aging);
                    let want = before - model.len();
                    prop_assert_eq!(table.expire(now, &cfg, &mut pool), want);
                    expired += want as u64;
                }
                _ => {}
            }
            prop_assert_eq!(table.len(), model.len());
            for (&n, e) in &model {
                let got = table.get(&key(n)).expect("live in the model");
                prop_assert_eq!(table.pre_actions(got).copied(), e.pair);
                prop_assert_eq!(got.has_cached_flows(), e.pair.is_some());
            }
            prop_assert_eq!(pool.used(), used(&model));
            prop_assert_eq!(table.counters(), (created, expired, rejected));
        }
    }

    /// Canonical-hash affinity: for any tuple, both directions select the
    /// same FE index for any pool size.
    #[test]
    fn canonical_hash_is_direction_invariant(
        tuple in arb_tuple(),
        pool in 1u64..16,
    ) {
        let a = tuple.canonical().stable_hash() % pool;
        let b = tuple.reversed().canonical().stable_hash() % pool;
        prop_assert_eq!(a, b);
    }
}
