//! Packet-processing actions and pre-actions.
//!
//! The paper abstracts all NF processing as `Action = func(pkt, rules,
//! states)` (§2.1). Rule-table lookup produces **pre-actions** — preliminary
//! per-direction decisions that are not yet final for stateful NFs. The fast
//! path then computes `process_pkt(pre_actions, state)`.
//!
//! A [`PreAction`] is what one rule-table pipeline pass yields for one
//! direction of a flow. A [`PreActionPair`] holds both directions and is
//! what a cached bidirectional flow entry stores, and what Nezha's FE
//! piggybacks onto RX packets for the BE (§3.1). The final [`Action`] is
//! produced only where both pre-actions *and* state are present.

use crate::addr::{Ipv4Addr, ServerId};

/// The accept/drop verdict portion of a decision.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Decision {
    /// Forward the packet.
    Accept,
    /// Silently discard the packet.
    Drop,
}

impl Decision {
    /// True for [`Decision::Accept`].
    pub const fn is_accept(self) -> bool {
        matches!(self, Decision::Accept)
    }
}

/// Result of one rule-table pipeline pass for one flow direction.
///
/// Encodes everything the fast path needs to forward without re-querying
/// rule tables: the preliminary verdict, routing/rewrite outputs, QoS class
/// and statistics policy, plus flags for the stateful NFs that must combine
/// this with session state before the verdict is final.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PreAction {
    /// Preliminary verdict from the ACL table. For a *stateful* ACL this is
    /// not final: the BE may override it using the first-packet direction.
    pub verdict: Decision,
    /// True when the verdict came from a stateful ACL rule and must be
    /// combined with the first-packet-direction state (paper §5.1).
    pub stateful_acl: bool,
    /// Destination server resolved via VXLAN routing + the vNIC-server map
    /// (`None` when the verdict is Drop or the destination is off-overlay).
    pub next_hop: Option<ServerId>,
    /// Overlay source rewrite for NAT (`None` = no NAT).
    pub nat_rewrite: Option<Ipv4Addr>,
    /// True when stateful decapsulation applies to this flow: the RX path
    /// must record the overlay source so TX responses can be re-encapsulated
    /// toward it (paper §5.2).
    pub stateful_decap: bool,
    /// QoS class from the meter table; `0` is best-effort.
    pub qos_class: u8,
    /// Statistics policy id from the flow-log/statistics policy table;
    /// `0` = record nothing. Non-zero policies make state initialization
    /// *rule-table-involved* (paper §3.2.2), which is what forces notify
    /// packets on the TX path.
    pub stats_policy: u8,
    /// Overlay collector receiving mirror copies of this direction's
    /// packets (`None` = not mirrored). One of the advanced-table outputs
    /// of §2.2.2.
    pub mirror_to: Option<Ipv4Addr>,
}

impl PreAction {
    /// A permissive pre-action that accepts and forwards to `next_hop`.
    pub const fn accept(next_hop: Option<ServerId>) -> Self {
        PreAction {
            verdict: Decision::Accept,
            stateful_acl: false,
            next_hop,
            nat_rewrite: None,
            stateful_decap: false,
            qos_class: 0,
            stats_policy: 0,
            mirror_to: None,
        }
    }

    /// A dropping pre-action.
    pub const fn drop() -> Self {
        PreAction {
            verdict: Decision::Drop,
            stateful_acl: false,
            next_hop: None,
            nat_rewrite: None,
            stateful_decap: false,
            qos_class: 0,
            stats_policy: 0,
            mirror_to: None,
        }
    }
}

/// Both directions' pre-actions, as stored in one bidirectional cached-flow
/// entry ("VPC ID, 5-tuple, pre-actions / 5-tuple(R), pre-actions" in the
/// paper's Fig. 1) and as piggybacked FE→BE on the RX path.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PreActionPair {
    /// Pre-action for egress (TX) packets.
    pub tx: PreAction,
    /// Pre-action for ingress (RX) packets.
    pub rx: PreAction,
}

impl PreActionPair {
    /// Selects the direction-appropriate pre-action.
    pub const fn for_direction(&self, dir: crate::flow::Direction) -> &PreAction {
        match dir {
            crate::flow::Direction::Tx => &self.tx,
            crate::flow::Direction::Rx => &self.rx,
        }
    }

    /// Symmetric accept pair forwarding TX to `tx_hop` and RX to `rx_hop`.
    pub const fn accept(tx_hop: Option<ServerId>, rx_hop: Option<ServerId>) -> Self {
        PreActionPair {
            tx: PreAction::accept(tx_hop),
            rx: PreAction::accept(rx_hop),
        }
    }
}

/// The final processing action for one packet: the output of
/// `process_pkt(pre_actions, state)` with state applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Action {
    /// Final verdict.
    pub verdict: Decision,
    /// Where to forward (None when dropping or delivering locally to a VM).
    pub next_hop: Option<ServerId>,
    /// Source-address rewrite applied (NAT).
    pub nat_rewrite: Option<Ipv4Addr>,
    /// Overlay destination used when re-encapsulating a TX response under
    /// stateful decap (the recorded LB address).
    pub encap_override: Option<Ipv4Addr>,
    /// QoS class used for queue selection.
    pub qos_class: u8,
    /// Overlay collector to copy the packet to (mirroring).
    pub mirror_to: Option<Ipv4Addr>,
}

impl Action {
    /// A drop action.
    pub const fn drop() -> Self {
        Action {
            verdict: Decision::Drop,
            next_hop: None,
            nat_rewrite: None,
            encap_override: None,
            qos_class: 0,
            mirror_to: None,
        }
    }

    /// Derives the final action from a direction's pre-action and, for
    /// stateful ACL, the recorded first-packet direction.
    ///
    /// This is the paper's §5.1 logic verbatim: if the rule is stateful and
    /// the session was initiated locally (first packet TX), responses are
    /// accepted even when the RX pre-action says drop; an RX-initiated flow
    /// hitting a drop pre-action stays dropped (unsolicited).
    pub fn finalize(
        pre: &PreAction,
        pkt_dir: crate::flow::Direction,
        first_dir: Option<crate::flow::Direction>,
    ) -> Self {
        let mut verdict = pre.verdict;
        if pre.stateful_acl {
            match (pkt_dir, first_dir) {
                // Response traffic to a locally-initiated session passes.
                (crate::flow::Direction::Rx, Some(crate::flow::Direction::Tx)) => {
                    verdict = Decision::Accept;
                }
                // TX responses to an externally-initiated, accepted session
                // pass as well (the RX pre-action accepted the first packet).
                (crate::flow::Direction::Tx, Some(crate::flow::Direction::Rx)) => {
                    verdict = Decision::Accept;
                }
                _ => {}
            }
        }
        Action {
            verdict,
            next_hop: if verdict.is_accept() {
                pre.next_hop
            } else {
                None
            },
            nat_rewrite: pre.nat_rewrite,
            encap_override: None,
            qos_class: pre.qos_class,
            mirror_to: if verdict.is_accept() {
                pre.mirror_to
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Direction;

    fn stateful_drop_rx() -> PreAction {
        PreAction {
            verdict: Decision::Drop,
            stateful_acl: true,
            ..PreAction::drop()
        }
    }

    #[test]
    fn stateful_acl_allows_responses_to_local_sessions() {
        // RX pre-action drops, but first packet was TX: accept (§5.1).
        let a = Action::finalize(&stateful_drop_rx(), Direction::Rx, Some(Direction::Tx));
        assert_eq!(a.verdict, Decision::Accept);
    }

    #[test]
    fn stateful_acl_drops_unsolicited() {
        // RX pre-action drops and the first packet was itself RX: drop.
        let a = Action::finalize(&stateful_drop_rx(), Direction::Rx, Some(Direction::Rx));
        assert_eq!(a.verdict, Decision::Drop);
        assert_eq!(a.next_hop, None);
        // Unknown first direction also drops.
        let a = Action::finalize(&stateful_drop_rx(), Direction::Rx, None);
        assert_eq!(a.verdict, Decision::Drop);
    }

    #[test]
    fn stateless_drop_is_final() {
        let pre = PreAction::drop();
        let a = Action::finalize(&pre, Direction::Rx, Some(Direction::Tx));
        assert_eq!(a.verdict, Decision::Drop);
    }

    #[test]
    fn accept_keeps_routing_outputs() {
        let mut pre = PreAction::accept(Some(ServerId(9)));
        pre.nat_rewrite = Some(Ipv4Addr::new(100, 64, 0, 1));
        pre.qos_class = 3;
        let a = Action::finalize(&pre, Direction::Tx, Some(Direction::Tx));
        assert_eq!(a.verdict, Decision::Accept);
        assert_eq!(a.next_hop, Some(ServerId(9)));
        assert_eq!(a.nat_rewrite, Some(Ipv4Addr::new(100, 64, 0, 1)));
        assert_eq!(a.qos_class, 3);
    }

    #[test]
    fn pair_selects_by_direction() {
        let pair = PreActionPair {
            tx: PreAction::accept(Some(ServerId(1))),
            rx: PreAction::drop(),
        };
        assert_eq!(pair.for_direction(Direction::Tx).verdict, Decision::Accept);
        assert_eq!(pair.for_direction(Direction::Rx).verdict, Decision::Drop);
    }

    #[test]
    fn tx_response_to_accepted_inbound_session_passes() {
        // First packet was RX and got accepted; the TX reply must pass even
        // if the TX pre-action is a stateful drop.
        let a = Action::finalize(&stateful_drop_rx(), Direction::Tx, Some(Direction::Rx));
        assert_eq!(a.verdict, Decision::Accept);
    }
}
