//! The rule-table lookup pipeline as stages.
//!
//! One evaluation of [`direction_node`] over a [`PktCtx`] reproduces the
//! legacy `direction_lookup` exactly: ACL → QoS classify → stats policy
//! → routing (PBR steer, overlay route + vNIC-server selection, or local
//! Rx delivery) → source NAT (Tx only) → mirror tap. Stage bodies are
//! the only datapath code that reads `Vnic::tables`, which is private to
//! this crate.

use super::graph::{branch, guard, seq, stage, Node, Stage, StageGraph, StageVerdict};
use super::PktCtx;
use crate::tables::route::RouteTarget;
use crate::vnic::Vnic;
use nezha_types::{Direction, FiveTuple, PreAction, PreActionPair};

fn is_tx(ctx: &PktCtx) -> bool {
    ctx.dir == Direction::Tx
}

fn pbr_steered(ctx: &PktCtx) -> bool {
    ctx.draft.pbr_via.is_some()
}

fn overlay_routed(ctx: &PktCtx) -> bool {
    ctx.draft.overlay_hint.is_some()
}

/// ACL match: records the (possibly stateful) preliminary verdict.
#[derive(Debug)]
pub struct AclLookup;

impl Stage for AclLookup {
    fn name(&self) -> &'static str {
        "acl"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        ctx.draft.acl = vnic.tables.acl.lookup(&ctx.tuple, ctx.dir);
        StageVerdict::Continue
    }
}

/// QoS classification by destination port.
#[derive(Debug)]
pub struct QosClassify;

impl Stage for QosClassify {
    fn name(&self) -> &'static str {
        "qos-classify"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        ctx.draft.qos_class = vnic.tables.qos.classify(ctx.tuple.dst_port);
        StageVerdict::Continue
    }
}

/// Statistics-policy match on the remote endpoint.
#[derive(Debug)]
pub struct StatsPolicy;

impl Stage for StatsPolicy {
    fn name(&self) -> &'static str {
        "stats-policy"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        let t = &ctx.tuple;
        ctx.draft.stats_policy = match ctx.dir {
            Direction::Tx => vnic.tables.policy.lookup(t.dst_ip, t.dst_port),
            Direction::Rx => vnic.tables.policy.lookup(t.src_ip, t.src_port),
        };
        StageVerdict::Continue
    }
}

/// Policy-based routing: source-address override of the route table.
#[derive(Debug)]
pub struct PbrLookup;

impl Stage for PbrLookup {
    fn name(&self) -> &'static str {
        "pbr"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        ctx.draft.pbr_via = vnic.tables.pbr.lookup(ctx.tuple.src_ip);
        StageVerdict::Continue
    }
}

/// Resolves a PBR hit straight to a server, bypassing the route table.
#[derive(Debug)]
pub struct PbrSteer;

impl Stage for PbrSteer {
    fn name(&self) -> &'static str {
        "pbr-steer"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        let Some(via) = ctx.draft.pbr_via else {
            return StageVerdict::Continue;
        };
        ctx.draft.routable = true;
        ctx.draft.next_hop = vnic.tables.vnic_server.select(via, ctx.tuple.stable_hash());
        StageVerdict::Continue
    }
}

/// Overlay route lookup on the destination address.
#[derive(Debug)]
pub struct RouteLookup;

impl Stage for RouteLookup {
    fn name(&self) -> &'static str {
        "route"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        match vnic.tables.route.lookup(ctx.tuple.dst_ip) {
            Some(RouteTarget::Overlay(hint)) => {
                ctx.draft.routable = true;
                ctx.draft.overlay_hint = Some(hint);
            }
            Some(RouteTarget::Blackhole) | None => ctx.draft.routable = false,
        }
        StageVerdict::Continue
    }
}

/// Maps an overlay hop to a concrete server: first by the flow's own
/// destination, then by the route's hint.
#[derive(Debug)]
pub struct VnicServerSelect;

impl Stage for VnicServerSelect {
    fn name(&self) -> &'static str {
        "vnic-server"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        let Some(hint) = ctx.draft.overlay_hint else {
            return StageVerdict::Continue;
        };
        let map = &vnic.tables.vnic_server;
        let flow_hash = ctx.tuple.stable_hash();
        ctx.draft.next_hop = map
            .select(ctx.tuple.dst_ip, flow_hash)
            .or_else(|| map.select(hint, flow_hash));
        StageVerdict::Continue
    }
}

/// Rx direction: the packet terminates at this vNIC, always routable.
#[derive(Debug)]
pub struct RxLocalDeliver;

impl Stage for RxLocalDeliver {
    fn name(&self) -> &'static str {
        "rx-local"
    }

    fn eval(&self, ctx: &mut PktCtx, _vnic: &Vnic) -> StageVerdict {
        ctx.draft.routable = true;
        ctx.draft.next_hop = None;
        StageVerdict::Continue
    }
}

/// Source NAT on the egress direction.
#[derive(Debug)]
pub struct NatRewrite;

impl Stage for NatRewrite {
    fn name(&self) -> &'static str {
        "nat"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        ctx.draft.nat_rewrite = vnic.tables.nat.lookup(ctx.tuple.src_ip);
        StageVerdict::Continue
    }
}

/// Mirror tap on the remote endpoint. Observability only — composed
/// under [`tee`](super::tee) so it can never stop the pipeline.
#[derive(Debug)]
pub struct MirrorTap;

impl Stage for MirrorTap {
    fn name(&self) -> &'static str {
        "mirror"
    }

    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        let t = &ctx.tuple;
        ctx.draft.mirror_to = match ctx.dir {
            Direction::Tx => vnic.tables.mirror.lookup(t.dst_ip, t.dst_port),
            Direction::Rx => vnic.tables.mirror.lookup(t.src_ip, t.src_port),
        };
        StageVerdict::Continue
    }
}

/// The standard per-direction rule-table pipeline, composed.
pub fn direction_node() -> Node {
    seq(vec![
        stage(AclLookup),
        stage(QosClassify),
        stage(StatsPolicy),
        branch(
            "egress-routing",
            is_tx,
            seq(vec![
                stage(PbrLookup),
                branch(
                    "pbr-steer",
                    pbr_steered,
                    stage(PbrSteer),
                    seq(vec![
                        stage(RouteLookup),
                        guard("overlay-hop", overlay_routed, stage(VnicServerSelect)),
                    ]),
                ),
            ]),
            stage(RxLocalDeliver),
        ),
        guard("snat", is_tx, stage(NatRewrite)),
        super::tee(stage(MirrorTap)),
    ])
}

/// Compiles the standard lookup graph (once per switch and per cluster).
pub fn lookup_graph() -> StageGraph {
    StageGraph::compile(direction_node()).expect("standard lookup graph is valid")
}

/// Evaluates the lookup graph for one direction of `tuple`.
pub fn direction_lookup(
    graph: &StageGraph,
    vnic: &Vnic,
    tuple: &FiveTuple,
    dir: Direction,
) -> PreAction {
    let mut ctx = PktCtx::new(*tuple, dir);
    graph.eval(&mut ctx, vnic);
    ctx.draft.finish(vnic)
}

/// Evaluates the lookup graph for both directions of the session the
/// packet belongs to, producing the bidirectional pre-action pair that
/// gets cached as a flow entry. The result depends only on the vNIC's
/// tables and the tuple — stateless, hence FE-replicable.
pub fn pair_lookup(
    graph: &StageGraph,
    vnic: &Vnic,
    tuple: &FiveTuple,
    pkt_dir: Direction,
) -> PreActionPair {
    let tx_tuple = match pkt_dir {
        Direction::Tx => *tuple,
        Direction::Rx => tuple.reversed(),
    };
    PreActionPair {
        tx: direction_lookup(graph, vnic, &tx_tuple, Direction::Tx),
        rx: direction_lookup(graph, vnic, &tx_tuple.reversed(), Direction::Rx),
    }
}

#[cfg(test)]
#[path = "lookup_tests.rs"]
mod tests;
