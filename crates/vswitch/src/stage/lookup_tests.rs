//! Property tests of the lookup graph: equivalence of the
//! combinator-composed pipeline against a straight-line reference
//! implementation of the same table walk. They live beside the code
//! because the reference reads `Vnic::tables` directly, which is private
//! to this crate — that is the point: it re-states the semantics
//! independently of the stage graph it checks.

use super::{direction_lookup, lookup_graph, pair_lookup};
use crate::tables::route::RouteTarget;
use crate::vnic::{Vnic, VnicProfile};
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

fn reference_lookup(vnic: &Vnic, tuple: &FiveTuple, dir: Direction) -> PreAction {
    let t = &vnic.tables;
    let acl = t.acl.lookup(tuple, dir);
    let qos_class = t.qos.classify(tuple.dst_port);
    let stats_policy = match dir {
        Direction::Tx => t.policy.lookup(tuple.dst_ip, tuple.dst_port),
        Direction::Rx => t.policy.lookup(tuple.src_ip, tuple.src_port),
    };
    let (routable, next_hop) = match dir {
        Direction::Tx => {
            if let Some(via) = t.pbr.lookup(tuple.src_ip) {
                // PBR steers straight to a server, bypassing the routes.
                (true, t.vnic_server.select(via, tuple.stable_hash()))
            } else {
                match t.route.lookup(tuple.dst_ip) {
                    Some(RouteTarget::Overlay(hint)) => {
                        let h = tuple.stable_hash();
                        let hop = t
                            .vnic_server
                            .select(tuple.dst_ip, h)
                            .or_else(|| t.vnic_server.select(hint, h));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The combinator-composed lookup pipeline computes, packet for
    /// packet, the same pre-action as the legacy monolith's table walk
    /// (restated above as `reference_lookup`).
    #[test]
    fn lookup_graph_matches_the_legacy_reference(
        vnic in arb_vnic(),
        src_off in 0u32..=0xffff,
        dst_raw in any::<u32>(),
        dst_in_subnet in prop::bool::ANY,
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        dir in arb_dir(),
    ) {
        let graph = lookup_graph();
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
        let got = direction_lookup(&graph, &vnic, &tuple, dir);
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
        let graph = lookup_graph();
        let subnet = vnic.addr.masked(16);
        let tuple = FiveTuple::tcp(
            Ipv4Addr(subnet.0 | src_off),
            src_port,
            Ipv4Addr(subnet.0 | dst_off),
            dst_port,
        );
        let pair = pair_lookup(&graph, &vnic, &tuple, dir);
        let tx_tuple = match dir {
            Direction::Tx => tuple,
            Direction::Rx => tuple.reversed(),
        };
        prop_assert_eq!(pair.tx, reference_lookup(&vnic, &tx_tuple, Direction::Tx));
        prop_assert_eq!(pair.rx, reference_lookup(&vnic, &tx_tuple.reversed(), Direction::Rx));
    }
}
