//! The rule-table lookup: one stateless function of
//! `(tables, tuple, direction)`.
//!
//! [`rule_lookup`] walks a vNIC's tables in one fixed order — ACL →
//! QoS classify → stats policy → routing (Tx: PBR steer, else overlay
//! route + vNIC-server selection; Rx: local delivery) → source NAT (Tx
//! only) → mirror tap — and assembles the [`PreAction`] at the bottom.
//! [`pair_lookup`] calls it once per direction of a session. These two
//! are the only datapath code that reads `Vnic::tables`, which is private
//! to this crate.

use crate::tables::route::RouteTarget;
use crate::vnic::Vnic;
use nezha_types::{Decision, Direction, FiveTuple, PreAction, PreActionPair};

/// Looks `tuple` up in `vnic`'s rule tables as a packet of direction
/// `dir`.
pub fn rule_lookup(vnic: &Vnic, tuple: &FiveTuple, dir: Direction) -> PreAction {
    let tables = &vnic.tables;
    let tx = dir == Direction::Tx;
    // The (possibly stateful) preliminary verdict; routing may override it.
    let acl = tables.acl.lookup(tuple, dir);
    let qos_class = tables.qos.classify(tuple.dst_port);
    // Policy and mirror rules match the remote endpoint.
    let (remote_ip, remote_port) = if tx {
        (tuple.dst_ip, tuple.dst_port)
    } else {
        (tuple.src_ip, tuple.src_port)
    };
    let stats_policy = tables.policy.lookup(remote_ip, remote_port);

    let (routable, next_hop) = if !tx {
        // The packet terminates at this vNIC.
        (true, None)
    } else if let Some(via) = tables.pbr.lookup(tuple.src_ip) {
        // A source-address PBR hit steers straight to a server,
        // bypassing the route table.
        (true, tables.vnic_server.select(via))
    } else if let Some(RouteTarget::Overlay(hint)) = tables.route.lookup(tuple.dst_ip) {
        // The overlay hop maps to a server first by the flow's own
        // destination, then by the route's hint.
        let hop = tables
            .vnic_server
            .select(tuple.dst_ip)
            .or_else(|| tables.vnic_server.select(hint));
        (true, hop)
    } else {
        // Blackhole or no route.
        (false, None)
    };

    let nat_rewrite = if tx {
        tables.nat.lookup(tuple.src_ip)
    } else {
        None
    };
    // Observability only: the tap never affects the verdict.
    let mirror_to = tables.mirror.lookup(remote_ip, remote_port);

    // Routing drops are final (stateless); only ACL verdicts may be
    // softened by connection state.
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

/// Looks up both directions of the session the packet belongs to,
/// producing the bidirectional pre-action pair that gets cached as a
/// flow entry. The result depends only on the vNIC's tables and the
/// tuple — stateless, hence FE-replicable.
pub fn pair_lookup(vnic: &Vnic, tuple: &FiveTuple, pkt_dir: Direction) -> PreActionPair {
    let tx_tuple = match pkt_dir {
        Direction::Tx => *tuple,
        Direction::Rx => tuple.reversed(),
    };
    PreActionPair {
        tx: rule_lookup(vnic, &tx_tuple, Direction::Tx),
        rx: rule_lookup(vnic, &tx_tuple.reversed(), Direction::Rx),
    }
}

/// Imported by `benchmark/src/probes.rs` (frozen); delete with ROADMAP
/// item 1(c). Nothing else may name these three.
#[derive(Debug)]
pub struct LookupGraph;

#[doc(hidden)]
pub fn lookup_graph() -> LookupGraph {
    LookupGraph
}

#[doc(hidden)]
pub fn direction_lookup(_: &LookupGraph, vnic: &Vnic, t: &FiveTuple, dir: Direction) -> PreAction {
    rule_lookup(vnic, t, dir)
}

#[cfg(test)]
#[path = "lookup_tests.rs"]
mod tests;
