//! The fast-path `process_pkt(pre_actions, state)` and the result types
//! of one packet's trip through a vSwitch.
//!
//! These are *pure* functions over pre-actions and state — the same code runs
//! in three places, exactly as the paper requires for its equivalence
//! argument (§3.1): in the traditional local vSwitch, at a Nezha FE
//! (which has rules/flows but receives state in the packet), and at a
//! Nezha BE (which has state but receives pre-actions in the packet).

use nezha_types::{
    Action, Direction, Packet, PreAction, SessionState, StatefulDecapState, TcpEvent,
};
use serde::{Deserialize, Serialize};

/// Which processing path a packet took.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PathTaken {
    /// Exact-match hit on the cached flow.
    Fast,
    /// Full rule-table lookup.
    Slow,
}

/// Terminal outcome for one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessOutcome {
    /// The packet proceeds with this final action.
    Forwarded(Action),
    /// Dropped by policy (final ACL verdict).
    AclDrop,
    /// Dropped: no route covers the destination.
    Unroutable,
    /// Dropped: per-class QoS rate exceeded.
    RateLimited,
    /// Dropped: the vSwitch CPU backlog bound was exceeded (overload).
    CpuOverload,
}

impl ProcessOutcome {
    /// True when the packet survived.
    pub fn is_forwarded(&self) -> bool {
        matches!(self, ProcessOutcome::Forwarded(_))
    }
}

/// Full result of processing one packet at one vSwitch.
#[derive(Clone, Copy, Debug)]
pub struct ProcessResult {
    /// What happened.
    pub outcome: ProcessOutcome,
    /// Which path the packet took; `None` for CPU drops (an overloaded
    /// switch rejects the packet before it takes any path).
    pub path: Option<PathTaken>,
    /// The nominal cycles (before gray-failure scaling) the switch priced
    /// this packet at: charged on success, attempted on a CPU drop. An
    /// unknown vNIC is priced as a table-less slow path, though nothing
    /// is charged for it.
    pub cycles: u64,
    /// When the vSwitch finished with the packet (includes CPU queueing).
    pub done_at: nezha_sim::time::SimTime,
    /// True when a new session entry was created by this packet.
    pub created_session: bool,
    /// True when session-table memory was exhausted and the flow is being
    /// processed without caching (a #concurrent-flows overload signal).
    pub session_overflow: bool,
}

/// Per-stage decomposition of one CPU charge, produced by
/// [`costs_from_plan`](crate::stage::costing::costs_from_plan) for the
/// profiler. Leaf cycles always sum to exactly the charged total.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageCosts {
    /// Per-byte DMA + copy share.
    pub dma: u64,
    /// Header-parse share.
    pub parse: u64,
    /// Session share: flow-cache lookup (fast) or creation (slow).
    pub session: u64,
    /// First-packet slow-path overhead share (slow path only).
    pub overhead: u64,
    /// Rule-pipeline tiers (slow path only): index 0 is the base pipeline
    /// + ACL tier, indices 1.. the vNIC's extra per-table costs.
    pub tiers: Vec<u64>,
}

impl StageCosts {
    /// Sum of every leaf share (equals the charged total by construction).
    pub fn total(&self) -> u64 {
        self.dma + self.parse + self.session + self.overhead + self.tiers.iter().sum::<u64>()
    }
}

/// The fast-path `process_pkt(pre_actions, state)` of the paper's Fig. 1:
/// combines a direction's pre-action with the session state to produce the
/// final action, and applies the state transition the packet implies.
///
/// This exact function runs on the BE for RX packets (state local,
/// pre-actions from the packet) and on the FE for TX packets (pre-actions
/// local, state from the packet) — byte-identical decisions either way,
/// which `tests/separation_equivalence.rs` verifies exhaustively.
pub fn process_pkt(pre: &PreAction, state: &mut SessionState, pkt: &Packet) -> Action {
    update_state(Some(pre), state, pkt);
    finalize_with_state(pre, state, pkt)
}

/// Applies the state transitions a packet implies.
///
/// With `pre = Some(_)` this is the full transition (pre-action-derived
/// state like the statistics policy is adopted). With `pre = None` it is
/// the **BE-side TX half** under Nezha: the BE sees the packet before any
/// rule lookup, so it can apply packet-derived transitions (first-packet
/// direction, TCP FSM, statistics under the already-known policy) but
/// cannot adopt rule-table-involved state — that arrives later via notify
/// packets (§3.2.2).
pub fn update_state(pre: Option<&PreAction>, state: &mut SessionState, pkt: &Packet) {
    let first = *state.first_dir.get_or_insert(pkt.dir);
    if pkt.tuple.protocol == nezha_types::IpProtocol::Tcp {
        let ev = TcpEvent::from_flags(pkt.tcp_flags, pkt.dir, first);
        state.tcp = state.tcp.step(ev);
    }
    // Stateful decap (§5.2): RX records the overlay source.
    if pre.is_some_and(|p| p.stateful_decap) && pkt.dir == Direction::Rx {
        if let Some(src) = pkt.overlay_encap_src {
            state.decap = Some(StatefulDecapState { overlay_src: src });
        }
    }
    // Rule-table-involved state: adopt the statistics policy the
    // pre-action dictates (§3.2.2), then record under whatever policy is
    // in force.
    if let Some(p) = pre {
        if p.stats_policy != 0 {
            state.stats.policy = p.stats_policy;
        }
    }
    if state.stats.policy != 0 {
        state.stats.record(pkt.dir, pkt.wire_len() as u64);
    }
}

/// Computes the final action from a pre-action and the (already updated)
/// session state — pure, no state mutation. This is the decision half of
/// `process_pkt`, runnable wherever the two inputs happen to meet: at the
/// local vSwitch, at the FE (state carried in), or at the BE (pre-actions
/// carried in).
pub fn finalize_with_state(pre: &PreAction, state: &SessionState, pkt: &Packet) -> Action {
    let mut action = Action::finalize(pre, pkt.dir, state.first_dir);
    if pre.stateful_decap && pkt.dir == Direction::Tx {
        action.encap_override = state.decap.map(|d| d.overlay_src);
    }
    action
}

/// Number of mirror copies the action implies (0 or 1); counted by the
/// vSwitch and emitted toward the collector by the surrounding fabric.
pub fn mirror_copies(action: &Action) -> u32 {
    u32::from(action.mirror_to.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::lookup::pair_lookup;
    use crate::vnic::{Vnic, VnicProfile};
    use nezha_types::{Decision, FiveTuple, Ipv4Addr, ServerId, TcpFlags, TcpState, VnicId, VpcId};

    fn vnic() -> Vnic {
        Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        )
    }

    fn tx_tuple() -> FiveTuple {
        // From the vNIC's own address to a mapped peer.
        FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 0, 1),
            40000,
            Ipv4Addr::new(10, 7, 0, 100),
            9000, // outside synthetic ACL drop ranges
        )
    }

    #[test]
    fn lookup_is_deterministic_and_direction_symmetric() {
        let v = vnic();
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
        let v = vnic();
        let r = pair_lookup(&v, &tx_tuple(), Direction::Tx);
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
        let mut v = vnic();
        // Map the policy hop to a concrete server, then steer the test
        // subnet's 192.x sources through it.
        let via = Ipv4Addr::new(10, 7, 250, 1);
        v.tables.vnic_server.set(via, ServerId(42));
        v.tables.pbr.insert(crate::tables::pbr::PbrRule {
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
        let normal = tx_tuple();
        let r = pair_lookup(&v, &normal, Direction::Tx);
        assert_ne!(r.tx.next_hop, Some(ServerId(42)));
    }

    #[test]
    fn blackhole_routes_drop_statelessly() {
        let mut v = vnic();
        v.tables.route.insert(
            Ipv4Addr::new(192, 0, 2, 0),
            24,
            crate::tables::route::RouteTarget::Blackhole,
        );
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

    #[test]
    fn process_pkt_initializes_first_dir_and_fsm() {
        let v = vnic();
        let r = pair_lookup(&v, &tx_tuple(), Direction::Tx);
        let mut state = SessionState::default();
        let pkt = Packet::tx_data(1, VpcId(1), VnicId(1), tx_tuple(), TcpFlags::SYN, 0);
        let act = process_pkt(&r.tx, &mut state, &pkt);
        assert_eq!(state.first_dir, Some(Direction::Tx));
        assert_eq!(state.tcp, TcpState::SynSent);
        assert_eq!(act.verdict, Decision::Accept);
    }

    #[test]
    fn stateful_acl_blocks_unsolicited_rx_but_allows_responses() {
        let v = vnic(); // security-group default: stateful drop inbound
                        // A destination covered by routing but hitting the stateful
                        // default-drop on RX.
        let rx = FiveTuple::tcp(
            Ipv4Addr::new(172, 30, 1, 1),
            50000,
            Ipv4Addr::new(10, 7, 0, 1),
            9000,
        );
        let r = pair_lookup(&v, &rx, Direction::Rx);

        // Unsolicited: first packet is RX.
        let mut state = SessionState::default();
        let pkt = Packet::rx_data(1, VpcId(1), VnicId(1), rx, TcpFlags::SYN, 0);
        let act = process_pkt(&r.rx, &mut state, &pkt);
        assert_eq!(act.verdict, Decision::Drop);

        // Solicited: the session's first packet was TX.
        let mut state = SessionState::first_packet(Direction::Tx);
        let act = process_pkt(&r.rx, &mut state, &pkt);
        assert_eq!(act.verdict, Decision::Accept);
    }

    #[test]
    fn stateful_decap_records_and_reencapsulates() {
        let profile = VnicProfile {
            stateful_decap: true,
            ..VnicProfile::default()
        };
        let v = Vnic::new(
            VnicId(2),
            VpcId(1),
            Ipv4Addr::new(10, 8, 0, 1),
            profile,
            ServerId(0),
        );
        let rx = FiveTuple::tcp(
            Ipv4Addr::new(203, 0, 113, 50), // client
            55555,
            Ipv4Addr::new(10, 8, 0, 1), // real server (this vNIC)
            8080,
        );
        let r = pair_lookup(&v, &rx, Direction::Rx);
        let mut state = SessionState::default();

        // RX packet from the LB, overlay-encapsulated with the LB address.
        let mut pkt = Packet::rx_data(1, VpcId(1), VnicId(2), rx, TcpFlags::SYN, 0);
        pkt.overlay_encap_src = Some(Ipv4Addr::new(100, 64, 0, 7));
        // RX must be permitted: loosen verdict by treating first dir RX as
        // accepted (LB vNICs allow inbound).
        let mut pre_rx = r.rx;
        pre_rx.verdict = Decision::Accept;
        pre_rx.stateful_acl = false;
        process_pkt(&pre_rx, &mut state, &pkt);
        assert_eq!(
            state.decap,
            Some(StatefulDecapState {
                overlay_src: Ipv4Addr::new(100, 64, 0, 7)
            })
        );

        // The TX response is re-encapsulated toward the recorded LB.
        let mut pre_tx = r.tx;
        pre_tx.verdict = Decision::Accept;
        pre_tx.stateful_acl = false;
        let tx_pkt = Packet::tx_data(
            2,
            VpcId(1),
            VnicId(2),
            rx.reversed(),
            TcpFlags::SYN | TcpFlags::ACK,
            0,
        );
        let act = process_pkt(&pre_tx, &mut state, &tx_pkt);
        assert_eq!(act.encap_override, Some(Ipv4Addr::new(100, 64, 0, 7)));
    }

    #[test]
    fn stats_policy_from_preaction_becomes_state_and_records() {
        let v = vnic();
        let mut pre = pair_lookup(&v, &tx_tuple(), Direction::Tx).tx;
        pre.stats_policy = 3;
        let mut state = SessionState::default();
        let pkt = Packet::tx_data(1, VpcId(1), VnicId(1), tx_tuple(), TcpFlags::SYN, 100);
        process_pkt(&pre, &mut state, &pkt);
        assert_eq!(state.stats.policy, 3);
        assert_eq!(state.stats.tx_packets, 1);
        assert!(state.stats.tx_bytes > 100);
    }

    #[test]
    fn outcome_helpers() {
        assert!(ProcessOutcome::Forwarded(Action::drop()).is_forwarded());
        assert!(!ProcessOutcome::AclDrop.is_forwarded());
        assert!(!ProcessOutcome::CpuOverload.is_forwarded());
    }
}
