//! The rule-table lookup pipeline as a composable stage graph, plus the
//! cost plans that split a CPU charge into per-stage shares.
//!
//! The paper's equivalence argument (§3.1) rests on the *same* rule
//! lookup running at the traditional local vSwitch and at a Nezha FE.
//! The lookup is the one part of the datapath with real structure — ten
//! stages, three branches/guards, a tee — so it is a first-class value:
//! stages ([`PktCtx`] in, [`StageVerdict`] out) composed with [`seq`],
//! [`branch`], [`tee`] and [`guard`] into one [`StageGraph`]. Everything
//! around it (flow-cache probe, CPU charge, session establishment,
//! admission) is straight-line code in
//! [`VSwitch::process_local`](crate::VSwitch::process_local).
//!
//! * [`graph`] — the combinator core: [`Stage`], [`Node`], [`StageGraph`];
//! * [`lookup`] — the rule tables (ACL, QoS, policy, PBR, route,
//!   vNIC-server, NAT, mirror) as stages, and the lookup entry points;
//! * [`costing`] — the fast/slow [`CostSlot`] plans, realized against a
//!   charged cycle total (exact reconciliation) and mapped onto profiler
//!   stage handles.

pub mod costing;
pub mod graph;
pub mod lookup;

pub use costing::{CostSlot, FAST_PLAN, SLOW_PLAN};
pub use graph::{
    branch, guard, seq, stage, tee, GraphError, Node, Pred, Stage, StageGraph, StageVerdict,
};

use crate::tables::acl::AclVerdict;
use crate::vnic::Vnic;
use nezha_types::{Decision, Direction, FiveTuple, Ipv4Addr, PreAction, ServerId};

/// The packet context every lookup stage reads and writes: the tuple
/// under consideration, the direction, and the accumulating pre-action
/// draft.
#[derive(Clone, Copy, Debug)]
pub struct PktCtx {
    /// The five-tuple as seen from `dir`.
    pub tuple: FiveTuple,
    /// The direction this evaluation models.
    pub dir: Direction,
    /// The pre-action under construction.
    pub draft: PreActionDraft,
}

impl PktCtx {
    /// A context for one rule-table lookup pass.
    pub fn new(tuple: FiveTuple, dir: Direction) -> Self {
        PktCtx {
            tuple,
            dir,
            draft: PreActionDraft::default(),
        }
    }
}

/// The pre-action a lookup pass accumulates stage by stage;
/// [`PreActionDraft::finish`] assembles the final [`PreAction`] with the
/// routing-overrides-ACL verdict rule.
#[derive(Clone, Copy, Debug)]
pub struct PreActionDraft {
    /// The ACL stage's (possibly stateful) preliminary verdict.
    pub acl: AclVerdict,
    /// QoS class from the classifier stage.
    pub qos_class: u8,
    /// Statistics policy id (0 = none).
    pub stats_policy: u8,
    /// Whether any routing stage accepted the destination.
    pub routable: bool,
    /// Resolved next hop, if any.
    pub next_hop: Option<ServerId>,
    /// Policy-based-routing hop address, when the PBR stage matched.
    pub pbr_via: Option<Ipv4Addr>,
    /// Overlay routing hint, when the route stage matched an overlay.
    pub overlay_hint: Option<Ipv4Addr>,
    /// Source-NAT rewrite, when the NAT stage matched.
    pub nat_rewrite: Option<Ipv4Addr>,
    /// Mirror collector, when the mirror tap matched.
    pub mirror_to: Option<Ipv4Addr>,
}

impl Default for PreActionDraft {
    fn default() -> Self {
        PreActionDraft {
            acl: AclVerdict {
                decision: Decision::Accept,
                stateful: false,
            },
            qos_class: 0,
            stats_policy: 0,
            routable: false,
            next_hop: None,
            pbr_via: None,
            overlay_hint: None,
            nat_rewrite: None,
            mirror_to: None,
        }
    }
}

impl PreActionDraft {
    /// Assembles the final pre-action: routing drops are final
    /// (stateless); only ACL verdicts may be softened by connection
    /// state.
    pub fn finish(&self, vnic: &Vnic) -> PreAction {
        let verdict = if !self.routable {
            Decision::Drop
        } else {
            self.acl.decision
        };
        PreAction {
            verdict,
            stateful_acl: self.acl.stateful && self.routable,
            next_hop: self.next_hop,
            nat_rewrite: self.nat_rewrite,
            stateful_decap: vnic.profile.stateful_decap,
            qos_class: self.qos_class,
            stats_policy: self.stats_policy,
            mirror_to: self.mirror_to,
        }
    }
}
