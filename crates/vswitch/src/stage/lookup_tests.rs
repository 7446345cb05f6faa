//! Tests of the rule lookup: equivalence of [`rule_lookup`] against a
//! second straight-line statement of the same table walk, a literal case
//! table that shares no code with either, and worked `pair_lookup`
//! examples on the default synthetic vNIC. They live beside the code
//! because they read and build `Vnic::tables` directly, which is private
//! to this crate. A change to the walk is made in `rule_lookup` and in
//! `reference_lookup`, by hand, twice — that is the point. The reference
//! does not call the ACL's or the route table's lookup, which are
//! indexes: it scans their rules for the first match and the longest
//! matching prefix.

use super::{pair_lookup, rule_lookup};
use crate::tables::acl::{AclTable, AclVerdict, PortRange};
use crate::tables::mirror::MirrorRule;
use crate::tables::nat::NatRule;
use crate::tables::pbr::PbrRule;
use crate::tables::policy::PolicyRule;
use crate::tables::qos::QosRule;
use crate::tables::route::{RouteTable, RouteTarget};
use crate::vnic::{Vnic, VnicProfile, VnicTables};
use nezha_sim::rng::SimRng;
use nezha_types::{Decision, Direction, FiveTuple, Ipv4Addr, PreAction, ServerId, VnicId, VpcId};
use proptest::prelude::*;

/// A small random vNIC profile: every table populated enough to exercise
/// each stage, cheap enough to synthesize hundreds of times.
fn arb_profile() -> impl Strategy<Value = VnicProfile> {
    (
        0usize..24, // acl_rules
        0usize..12, // routes
        0usize..8,  // qos_rules
        0usize..8,  // nat_rules
        0usize..6,  // policy_rules
        0usize..6,  // mirror_rules
        0usize..4,  // pbr_rules
        0usize..16, // vnic_server_entries
        0u8..4,     // extra_tables
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(acl, routes, qos, nat, policy, mirror, pbr, peers, extra, sacl, sdecap)| {
                VnicProfile {
                    acl_rules: acl,
                    routes,
                    qos_rules: qos,
                    nat_rules: nat,
                    policy_rules: policy,
                    mirror_rules: mirror,
                    pbr_rules: pbr,
                    vnic_server_entries: peers,
                    extra_tables: extra,
                    lookup_weight: 1.0,
                    stateful_acl: sacl,
                    stateful_decap: sdecap,
                }
            },
        )
}

fn arb_vnic() -> impl Strategy<Value = Vnic> {
    (arb_profile(), 1u32..200).prop_map(|(p, net)| {
        Vnic::new(VnicId(1), VpcId(1), Ipv4Addr(net << 16 | 7), p, ServerId(0))
    })
}

fn arb_dir() -> impl Strategy<Value = Direction> {
    prop::sample::select(vec![Direction::Tx, Direction::Rx])
}

// ---------------------------------------------------------------------
// Reference semantics: the legacy monolith's per-direction table walk,
// restated as straight-line code over direct table reads.
// ---------------------------------------------------------------------

/// The first rule in priority order that matches, else the default.
fn reference_acl(acl: &AclTable, tuple: &FiveTuple, dir: Direction) -> AclVerdict {
    acl.rules()
        .iter()
        .find(|r| r.matches(tuple, dir))
        .map_or(acl.default_verdict(dir), |r| AclVerdict {
            decision: r.decision,
            stateful: r.stateful,
        })
}

/// The target of the longest prefix covering `dst`.
fn reference_route(route: &RouteTable, dst: Ipv4Addr) -> Option<RouteTarget> {
    route
        .routes()
        .filter(|&(prefix, len, _)| dst.in_prefix(prefix, len))
        .max_by_key(|&(_, len, _)| len)
        .map(|(_, _, target)| target)
}

fn reference_lookup(vnic: &Vnic, tuple: &FiveTuple, dir: Direction) -> PreAction {
    let t = &vnic.tables;
    let acl = reference_acl(&t.acl, tuple, dir);
    let qos_class = t.qos.classify(tuple.dst_port);
    let stats_policy = match dir {
        Direction::Tx => t.policy.lookup(tuple.dst_ip, tuple.dst_port),
        Direction::Rx => t.policy.lookup(tuple.src_ip, tuple.src_port),
    };
    let (routable, next_hop) = match dir {
        Direction::Tx => {
            if let Some(via) = t.pbr.lookup(tuple.src_ip) {
                // PBR steers straight to a server, bypassing the routes.
                (true, t.vnic_server.select(via))
            } else {
                match reference_route(&t.route, tuple.dst_ip) {
                    Some(RouteTarget::Overlay(hint)) => {
                        let hop = t
                            .vnic_server
                            .select(tuple.dst_ip)
                            .or_else(|| t.vnic_server.select(hint));
                        (true, hop)
                    }
                    Some(RouteTarget::Blackhole) | None => (false, None),
                }
            }
        }
        Direction::Rx => (true, None),
    };
    let nat_rewrite = match dir {
        Direction::Tx => t.nat.lookup(tuple.src_ip),
        Direction::Rx => None,
    };
    let mirror_to = match dir {
        Direction::Tx => t.mirror.lookup(tuple.dst_ip, tuple.dst_port),
        Direction::Rx => t.mirror.lookup(tuple.src_ip, tuple.src_port),
    };
    PreAction {
        verdict: if routable {
            acl.decision
        } else {
            Decision::Drop
        },
        stateful_acl: acl.stateful && routable,
        next_hop,
        nat_rewrite,
        stateful_decap: vnic.profile.stateful_decap,
        qos_class,
        stats_policy,
        mirror_to,
    }
}

// ---------------------------------------------------------------------
// Literal cases: one hand-built vNIC, one row per arm of the walk, the
// expected pre-action written out.
// ---------------------------------------------------------------------

const NAT_PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
const COLLECTOR: Ipv4Addr = Ipv4Addr::new(10, 7, 240, 1);

/// 10.7.0.1 behind a stateful security group (Tx accept, Rx drop), with
/// one rule in every other table.
fn hand_built_vnic() -> Vnic {
    let ip = Ipv4Addr::new;
    let stateful = |decision| AclVerdict {
        decision,
        stateful: true,
    };
    let mut t = VnicTables {
        acl: AclTable::new(stateful(Decision::Accept), stateful(Decision::Drop)),
        ..VnicTables::default()
    };
    t.qos.add_rule(QosRule {
        dst_ports: PortRange { lo: 8000, hi: 8999 },
        class: 2,
    });
    t.policy.insert(PolicyRule {
        dst_prefix: (ip(10, 9, 0, 0), 16),
        dst_ports: PortRange::ANY,
        policy: 5,
    });
    t.mirror.insert(MirrorRule {
        dst_prefix: (ip(10, 9, 0, 0), 16),
        dst_ports: PortRange::only(443),
        collector: COLLECTOR,
    });
    t.pbr.insert(PbrRule {
        src_prefix: (ip(10, 7, 192, 0), 24),
        via: ip(10, 7, 241, 0),
    });
    t.nat.insert(NatRule {
        src_prefix: (ip(10, 7, 0, 0), 24),
        public: NAT_PUBLIC,
    });
    for net in [8, 9, 10] {
        let hint = RouteTarget::Overlay(ip(10, net, 0, 254));
        t.route.insert(ip(10, net, 0, 0), 16, hint);
    }
    t.route.insert(ip(10, 66, 0, 0), 16, RouteTarget::Blackhole);
    t.vnic_server.set(ip(10, 7, 241, 0), ServerId(41)); // the PBR hop
    t.vnic_server.set(ip(10, 8, 0, 5), ServerId(5)); // a destination
    t.vnic_server.set(ip(10, 9, 0, 254), ServerId(9)); // a route's hint
    let profile = VnicProfile {
        stateful_decap: true,
        ..VnicProfile::default()
    };
    let mut vnic = Vnic::new(VnicId(1), VpcId(1), ip(10, 7, 0, 1), profile, ServerId(0));
    vnic.tables = t;
    vnic
}

#[test]
fn each_arm_of_the_walk_yields_its_literal_pre_action() {
    use Decision::{Accept, Drop};
    let vnic = hand_built_vnic();
    let ip = Ipv4Addr::new;
    let (own, steered) = (ip(10, 7, 0, 1), ip(10, 7, 192, 9));
    // A PBR hit never reads the routes (its destination is blackholed);
    // a routing drop is stateless even under a stateful ACL, and NAT is
    // looked up regardless.
    #[rustfmt::skip]
    let tx_rows = [
        // arm, source, destination, port  -> verdict, stateful_acl, next_hop, NAT, qos, policy, mirrored
        ("PBR hit",            steered, ip(10, 66, 0, 1),  8080, Accept, true,  Some(41), false, 2, 0, false),
        ("route, destination", own,     ip(10, 8, 0, 5),   80,   Accept, true,  Some(5),  true,  0, 0, false),
        ("route, its hint",    own,     ip(10, 9, 0, 77),  443,  Accept, true,  Some(9),  true,  0, 5, true),
        ("route, neither",     own,     ip(10, 10, 0, 3),  80,   Accept, true,  None,     true,  0, 0, false),
        ("blackhole",          own,     ip(10, 66, 0, 1),  80,   Drop,   false, None,     true,  0, 0, false),
        ("route miss",         own,     ip(192, 168, 1, 1), 80,  Drop,   false, None,     true,  0, 0, false),
    ];
    for (arm, src, dst, port, verdict, stateful_acl, hop, nat, qos_class, stats_policy, mirrored) in
        tx_rows
    {
        let want = PreAction {
            verdict,
            stateful_acl,
            next_hop: hop.map(ServerId),
            nat_rewrite: nat.then_some(NAT_PUBLIC),
            stateful_decap: true,
            qos_class,
            stats_policy,
            mirror_to: mirrored.then_some(COLLECTOR),
        };
        let tuple = FiveTuple::tcp(src, 4000, dst, port);
        assert_eq!(rule_lookup(&vnic, &tuple, Direction::Tx), want, "tx, {arm}");
    }
    // Rx: no hop and no NAT; policy and mirror match the *source*
    // (10.9.0.77:443), the QoS class is still the destination port's.
    let from_peer = FiveTuple::tcp(ip(10, 9, 0, 77), 443, own, 8080);
    let want = PreAction {
        verdict: Drop,
        stateful_acl: true,
        next_hop: None,
        nat_rewrite: None,
        stateful_decap: true,
        qos_class: 2,
        stats_policy: 5,
        mirror_to: Some(COLLECTOR),
    };
    assert_eq!(rule_lookup(&vnic, &from_peer, Direction::Rx), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `rule_lookup` computes, packet for packet, the same pre-action as
    /// the legacy monolith's table walk (restated above as
    /// `reference_lookup`).
    #[test]
    fn rule_lookup_matches_the_legacy_reference(
        vnic in arb_vnic(),
        src_off in 0u32..=0xffff,
        dst_raw in any::<u32>(),
        dst_in_subnet in prop::bool::ANY,
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        dir in arb_dir(),
    ) {
        let subnet = vnic.addr.masked(16);
        // Sources sit in the vNIC's /16 (where the synthetic PBR/NAT
        // rules live); destinations are biased there too, with fully
        // random outliers so route misses occur.
        let dst = if dst_in_subnet {
            Ipv4Addr(subnet.0 | (dst_raw & 0xffff))
        } else {
            Ipv4Addr(dst_raw)
        };
        let tuple = FiveTuple::tcp(Ipv4Addr(subnet.0 | src_off), src_port, dst, dst_port);
        let got = rule_lookup(&vnic, &tuple, dir);
        prop_assert_eq!(got, reference_lookup(&vnic, &tuple, dir));
    }

    /// The bidirectional pair a slow path (or an FE) installs is exactly
    /// the two per-direction reference lookups over the session's
    /// Tx-oriented tuple, whichever direction the triggering packet had.
    #[test]
    fn pair_lookup_matches_per_direction_references(
        vnic in arb_vnic(),
        src_off in 0u32..=0xffff,
        dst_off in 0u32..=0xffff,
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        dir in arb_dir(),
    ) {
        let subnet = vnic.addr.masked(16);
        let tuple = FiveTuple::tcp(
            Ipv4Addr(subnet.0 | src_off),
            src_port,
            Ipv4Addr(subnet.0 | dst_off),
            dst_port,
        );
        let pair = pair_lookup(&vnic, &tuple, dir);
        let tx_tuple = match dir {
            Direction::Tx => tuple,
            Direction::Rx => tuple.reversed(),
        };
        prop_assert_eq!(pair.tx, reference_lookup(&vnic, &tx_tuple, Direction::Tx));
        prop_assert_eq!(pair.rx, reference_lookup(&vnic, &tx_tuple.reversed(), Direction::Rx));
    }

    /// Either direction's packet of a session computes the same pair —
    /// what lets an FE cache one flow entry for both.
    #[test]
    fn pair_lookup_is_the_same_from_either_direction(
        vnic in arb_vnic(),
        src_off in 0u32..=0xffff,
        dst_raw in any::<u32>(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
    ) {
        let src = Ipv4Addr(vnic.addr.masked(16).0 | src_off);
        let tuple = FiveTuple::tcp(src, src_port, Ipv4Addr(dst_raw), dst_port);
        prop_assert_eq!(
            pair_lookup(&vnic, &tuple, Direction::Tx),
            pair_lookup(&vnic, &tuple.reversed(), Direction::Rx)
        );
    }
}

// ---------------------------------------------------------------------
// The four profile presets, at full size.
// ---------------------------------------------------------------------

/// An address inside `prefix/len`, its host bits taken from `raw`.
fn inside((prefix, len): (Ipv4Addr, u8), raw: u32) -> Ipv4Addr {
    let net = Ipv4Addr(u32::MAX).masked(len).0;
    Ipv4Addr(prefix.0 & net | raw & !net)
}

/// The default, load-balancer, NAT-gateway and transit-router vNICs,
/// each with an inbound service port opened: a priority-0 insert in
/// front of every synthesized rule, which rebuilds the ACL index.
fn preset_vnics() -> Vec<Vnic> {
    [
        VnicProfile::default(),
        VnicProfile::load_balancer(),
        VnicProfile::nat_gateway(),
        VnicProfile::transit_router(),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, p)| {
        let addr = Ipv4Addr::new(10, 7 + i as u8, 0, 1);
        let mut vnic = Vnic::new(VnicId(i as u32), VpcId(1), addr, p, ServerId(0));
        vnic.allow_inbound_port(9000);
        vnic
    })
    .collect()
}

/// `rule_lookup` equals the scanning reference on the presets, with
/// tuples drawn inside their synthesized prefixes: a random ACL rule's
/// source and destination (or a random route's destination), and half
/// the time a destination port inside the rule's range. Random tuples
/// would almost never reach a rule. The presets are built once, so the
/// cases come from a seeded generator rather than `proptest!`.
#[test]
fn rule_lookup_matches_the_reference_on_the_preset_profiles() {
    let mut rng = SimRng::new(31);
    let mut synthesized_hits = 0;
    for vnic in preset_vnics() {
        let rules = vnic.tables.acl.rules();
        let routes: Vec<(Ipv4Addr, u8, RouteTarget)> = vnic.tables.route.routes().collect();
        for _ in 0..2_000 {
            let bits = |rng: &mut SimRng| rng.range(0, 1 << 32) as u32;
            let r = &rules[rng.index(rules.len())];
            let src = if rng.chance(0.5) {
                inside((vnic.addr, 16), bits(&mut rng))
            } else {
                inside(r.src, bits(&mut rng))
            };
            let dst = if rng.chance(0.5) {
                let (prefix, len, _) = routes[rng.index(routes.len())];
                inside((prefix, len), bits(&mut rng))
            } else {
                inside(r.dst, bits(&mut rng))
            };
            let dst_port = if rng.chance(0.5) {
                rng.range(u64::from(r.dst_ports.lo), u64::from(r.dst_ports.hi) + 1) as u16
            } else {
                bits(&mut rng) as u16
            };
            let tuple = FiveTuple::tcp(src, bits(&mut rng) as u16, dst, dst_port);
            for dir in [Direction::Tx, Direction::Rx] {
                // Past the inbound-port rule at position 0.
                synthesized_hits +=
                    usize::from(rules.iter().skip(1).any(|r| r.matches(&tuple, dir)));
                assert_eq!(
                    rule_lookup(&vnic, &tuple, dir),
                    reference_lookup(&vnic, &tuple, dir),
                    "{:?} {tuple:?} {dir:?}",
                    vnic.id
                );
            }
        }
    }
    // Three presets have synthesized ACL rules; a fair share of their
    // cases must reach one.
    assert!(
        synthesized_hits > 1_000,
        "{synthesized_hits} cases hit a synthesized rule"
    );
}

// ---------------------------------------------------------------------
// `pair_lookup` on the default synthetic vNIC.
// ---------------------------------------------------------------------

fn default_vnic() -> Vnic {
    Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    )
}

/// From the vNIC's own address to a mapped peer, outside the synthetic
/// ACL drop ranges.
fn tx_tuple() -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 0, 1),
        40000,
        Ipv4Addr::new(10, 7, 0, 100),
        9000,
    )
}

#[test]
fn lookup_is_deterministic_and_direction_symmetric() {
    let v = default_vnic();
    let a = pair_lookup(&v, &tx_tuple(), Direction::Tx);
    let b = pair_lookup(&v, &tx_tuple(), Direction::Tx);
    assert_eq!(a, b);
    // Looking up from the RX side of the same session yields the same
    // bidirectional pair — this is what makes FE caching direction-
    // agnostic.
    let c = pair_lookup(&v, &tx_tuple().reversed(), Direction::Rx);
    assert_eq!(a, c);
}

#[test]
fn tx_preaction_resolves_next_hop() {
    let r = pair_lookup(&default_vnic(), &tx_tuple(), Direction::Tx);
    assert!(r.tx.next_hop.is_some(), "mapped peer must resolve");
    assert_eq!(r.rx.next_hop, None, "ingress delivers locally");
}

#[test]
fn unmapped_destination_uses_gateway() {
    // A vNIC with no vNIC-server entries at all: destinations are
    // routable via the default route but resolve to no server, which
    // models egress via the VPC gateway (next_hop None, Accept).
    let profile = VnicProfile {
        vnic_server_entries: 0,
        ..VnicProfile::default()
    };
    let v = Vnic::new(
        VnicId(3),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        profile,
        ServerId(0),
    );
    let t = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 0, 1),
        40000,
        Ipv4Addr::new(172, 30, 1, 1),
        9000,
    );
    let r = pair_lookup(&v, &t, Direction::Tx);
    assert_eq!(r.tx.verdict, Decision::Accept);
    assert_eq!(r.tx.next_hop, None);
}

#[test]
fn pbr_overrides_destination_routing() {
    let mut v = default_vnic();
    // Map the policy hop to a concrete server, then steer the test
    // subnet's 192.x sources through it.
    let via = Ipv4Addr::new(10, 7, 250, 1);
    v.tables.vnic_server.set(via, ServerId(42));
    v.tables.pbr.insert(PbrRule {
        src_prefix: (Ipv4Addr::new(10, 7, 192, 0), 24),
        via,
    });
    let steered = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 192, 5),
        40000,
        Ipv4Addr::new(10, 7, 0, 100),
        9000,
    );
    let r = pair_lookup(&v, &steered, Direction::Tx);
    assert_eq!(r.tx.next_hop, Some(ServerId(42)));
    // Unsteered sources still follow the destination route.
    let r = pair_lookup(&v, &tx_tuple(), Direction::Tx);
    assert_ne!(r.tx.next_hop, Some(ServerId(42)));
}

#[test]
fn blackhole_routes_drop_statelessly() {
    let mut v = default_vnic();
    v.tables
        .route
        .insert(Ipv4Addr::new(192, 0, 2, 0), 24, RouteTarget::Blackhole);
    let t = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 0, 1),
        40000,
        Ipv4Addr::new(192, 0, 2, 9),
        9000,
    );
    let r = pair_lookup(&v, &t, Direction::Tx);
    assert_eq!(r.tx.verdict, Decision::Drop);
    assert!(!r.tx.stateful_acl, "routing drops are not stateful");
}
