//! Property tests of the rule-table semantics against straightforward
//! reference implementations, plus session-table conservation invariants.

use nezha_sim::resources::MemoryPool;
use nezha_sim::time::SimTime;
use nezha_types::{
    Decision, Direction, FiveTuple, IpProtocol, Ipv4Addr, PreActionPair, ServerId, SessionKey,
    VnicId, VpcId,
};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::session::{SessionTable, SESSION_AGING};
use nezha_vswitch::tables::acl::{AclRule, AclTable, AclVerdict, PortRange};
use nezha_vswitch::tables::route::{RouteTable, RouteTarget};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_ports() -> impl Strategy<Value = PortRange> {
    prop::option::of((any::<u16>(), any::<u16>())).prop_map(|r| match r {
        Some((a, b)) => PortRange {
            lo: a.min(b),
            hi: a.max(b),
        },
        None => PortRange::ANY,
    })
}

fn arb_dir() -> impl Strategy<Value = Direction> {
    prop::sample::select(vec![Direction::Tx, Direction::Rx])
}

/// A prefix of length 0–40, drawn two times in three from small pools
/// of addresses and lengths, so that rules share groups and buckets.
fn arb_prefix() -> impl Strategy<Value = (Ipv4Addr, u8)> {
    ((0u8..3, any::<u32>()), (0u8..6, 0u8..=40)).prop_map(|((a, raw), (l, len))| {
        let addr = match a {
            0 => Ipv4Addr::new(10, 1, 2, 3),
            1 => Ipv4Addr::new(10, 1, 9, 9),
            _ => Ipv4Addr(raw),
        };
        let len = match l {
            0 => 0,
            1 => 16,
            2 => 24,
            3 => 33,
            _ => len,
        };
        (addr, len)
    })
}

/// Priorities from a small range, so inserts land in front of, among and
/// after the rules already present.
fn arb_rule() -> impl Strategy<Value = AclRule> {
    (
        0u32..8,
        prop::option::of(arb_dir()),
        arb_prefix(),
        arb_prefix(),
        arb_ports(),
        arb_ports(),
        prop::option::of(prop::sample::select(vec![IpProtocol::Tcp, IpProtocol::Udp])),
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(priority, direction, src, dst, src_ports, dst_ports, protocol, accept, stateful)| {
                AclRule {
                    priority,
                    direction,
                    src,
                    dst,
                    src_ports,
                    dst_ports,
                    protocol,
                    decision: if accept {
                        Decision::Accept
                    } else {
                        Decision::Drop
                    },
                    stateful,
                }
            },
        )
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>())
        .prop_map(|(s, d, sp, dp)| FiveTuple::tcp(Ipv4Addr(s), sp, Ipv4Addr(d), dp))
}

/// An address inside `prefix/len`, its host bits taken from `raw`.
fn inside((prefix, len): (Ipv4Addr, u8), raw: u32) -> Ipv4Addr {
    let net = Ipv4Addr(u32::MAX).masked(len).0;
    Ipv4Addr(prefix.0 & net | raw & !net)
}

/// A port of `range` when `pick`, else `raw`.
fn port_in(range: PortRange, raw: u16, pick: bool) -> u16 {
    if pick {
        range.lo + (u32::from(raw) % (u32::from(range.hi - range.lo) + 1)) as u16
    } else {
        raw
    }
}

/// A probe aimed at one rule: inside its prefixes, and per coin inside
/// its port ranges and of its protocol. `None` picks no rule (a fully
/// random tuple).
#[derive(Clone, Copy, Debug)]
struct Probe {
    rule: Option<usize>,
    addrs: (u32, u32),
    ports: (u16, u16),
    in_ports: (bool, bool),
    udp: bool,
    dir: Direction,
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (
        prop::option::of(any::<usize>()),
        (any::<u32>(), any::<u32>()),
        (any::<u16>(), any::<u16>()),
        (prop::bool::ANY, prop::bool::ANY),
        prop::bool::ANY,
        arb_dir(),
    )
        .prop_map(|(rule, addrs, ports, in_ports, udp, dir)| Probe {
            rule,
            addrs,
            ports,
            in_ports,
            udp,
            dir,
        })
}

impl Probe {
    fn tuple(&self, rules: &[AclRule]) -> FiveTuple {
        let (s, d) = self.addrs;
        let (sp, dp) = self.ports;
        let (src, dst, sp, dp, udp) = match self.rule.filter(|_| !rules.is_empty()) {
            Some(i) => {
                let r = &rules[i % rules.len()];
                (
                    inside(r.src, s),
                    inside(r.dst, d),
                    port_in(r.src_ports, sp, self.in_ports.0),
                    port_in(r.dst_ports, dp, self.in_ports.1),
                    r.protocol.map_or(self.udp, |p| p == IpProtocol::Udp),
                )
            }
            None => (Ipv4Addr(s), Ipv4Addr(d), sp, dp, self.udp),
        };
        if udp {
            FiveTuple::udp(src, sp, dst, dp)
        } else {
            FiveTuple::tcp(src, sp, dst, dp)
        }
    }
}

/// First match by (priority, insertion index) over `rules`, a scan that
/// shares nothing with the table's index; else the security group's
/// default.
fn reference_acl(rules: &[AclRule], t: &FiveTuple, dir: Direction) -> AclVerdict {
    let mut indexed: Vec<(usize, &AclRule)> = rules.iter().enumerate().collect();
    indexed.sort_by_key(|(i, r)| (r.priority, *i));
    indexed.iter().find(|(_, r)| r.matches(t, dir)).map_or(
        AclVerdict {
            decision: match dir {
                Direction::Tx => Decision::Accept,
                Direction::Rx => Decision::Drop,
            },
            stateful: true,
        },
        |(_, r)| AclVerdict {
            decision: r.decision,
            stateful: r.stateful,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The ACL's indexed lookup equals a scan for the first hit by
    /// (priority, insertion index), after every insert (appends and
    /// inserts in front of present rules alike), on a clone, after
    /// `clear`, and after reinserting the rules in reverse order (so a
    /// position left over from before `clear` would name another rule).
    /// Probes are aimed inside the rules' prefixes, so most of them reach
    /// some rule.
    #[test]
    fn acl_matches_reference(
        rules in prop::collection::vec(arb_rule(), 0..20),
        probes in prop::collection::vec(arb_probe(), 16),
    ) {
        let check = |acl: &AclTable, live: &[AclRule]| -> Result<(), TestCaseError> {
            for p in &probes {
                let t = p.tuple(&rules);
                prop_assert_eq!(acl.lookup(&t, p.dir), reference_acl(live, &t, p.dir));
            }
            Ok(())
        };
        let mut acl = AclTable::security_group();
        for (n, r) in rules.iter().enumerate() {
            acl.insert(*r);
            check(&acl, &rules[..=n])?;
        }
        let copy = acl.clone();
        acl.clear();
        prop_assert!(acl.is_empty());
        check(&acl, &[])?;
        check(&copy, &rules)?;
        let reversed: Vec<AclRule> = rules.iter().rev().copied().collect();
        for r in &reversed {
            acl.insert(*r);
        }
        check(&acl, &reversed)?;
    }

    /// LPM equals a naive longest-prefix scan; a length past 32 is a host
    /// route.
    #[test]
    fn route_lpm_matches_reference(
        routes in prop::collection::vec((any::<u32>(), 0u8..=40, any::<u32>()), 0..24),
        dst in any::<u32>(),
        aim in prop::option::of(any::<usize>()),
    ) {
        let mut rt = RouteTable::new();
        for (p, l, hint) in &routes {
            rt.insert(Ipv4Addr(*p), *l, RouteTarget::Overlay(Ipv4Addr(*hint)));
        }
        // Three times in four, aim inside one of the routes.
        let dst = match aim.filter(|_| !routes.is_empty()) {
            Some(i) => {
                let (p, l, _) = routes[i % routes.len()];
                inside((Ipv4Addr(p), l), dst)
            }
            None => Ipv4Addr(dst),
        };
        let got = rt.lookup(dst);

        // Reference: longest prefix wins; later inserts replace equals.
        let mut best: Option<(u8, Ipv4Addr)> = None;
        for (p, l, hint) in &routes {
            let l = (*l).min(32);
            if dst.in_prefix(Ipv4Addr(*p), l) && best.is_none_or(|(bl, _)| l >= bl) {
                best = Some((l, Ipv4Addr(*hint)));
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
                        if e.pair.is_none() {
                            let fits = pool.available() >= m.flow_entry;
                            prop_assert_eq!(table.cache_flows(slot, pair(hop), &mut pool, m), fits);
                            if fits {
                                e.pair = Some(pair(hop));
                            }
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
                    model.retain(|_, e| now.since(e.last_seen) <= SESSION_AGING);
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
