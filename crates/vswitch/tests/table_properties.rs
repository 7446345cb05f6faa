//! Property tests of the rule-table semantics against straightforward
//! reference implementations, plus session-table conservation invariants.

use nezha_sim::resources::MemoryPool;
use nezha_sim::time::SimTime;
use nezha_types::{
    Decision, Direction, FiveTuple, Ipv4Addr, PreActionPair, SessionKey, VnicId, VpcId,
};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::session::SessionTable;
use nezha_vswitch::tables::acl::{AclRule, AclTable, PortRange};
use nezha_vswitch::tables::route::{RouteTable, RouteTarget};
use proptest::prelude::*;

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
                        + if e.pre_actions.is_some() { cfg.memory.flow_entry } else { 0 }
                })
                .sum();
            prop_assert_eq!(pool.used(), expect);
        }
        // Drain completely.
        table.expire(SimTime(now.0 + 600_000_000_000), &cfg, &mut pool);
        prop_assert_eq!(pool.used(), 0);
        prop_assert!(table.is_empty());
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
