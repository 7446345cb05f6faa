//! Session state — the data Nezha keeps **local, in one copy**.
//!
//! A session-table entry records bidirectional flows plus their shared
//! state (paper Fig. 1). The state has several independently-optional
//! components (TCP FSM, first-packet direction, stateful-decap address,
//! flow statistics); paper §7.1 measures the *used* state at 5–8 B average
//! against a fixed 64 B slab — we model both the slab and the measured
//! size so the Fig. 15 experiment can reproduce that gap.
//!
//! The fast path's `process_pkt(pre_actions, state)` lives here too, as
//! [`SessionState::process_pkt`] and its two halves. They are pure
//! functions over a pre-action, the state and the packet, and the same
//! code runs in three places, exactly as the paper's equivalence
//! argument requires (§3.1): in the traditional local vSwitch, at a
//! Nezha FE (which has rules/flows but receives state in the packet),
//! and at a Nezha BE (which has state but receives pre-actions in the
//! packet).

use crate::action::{Action, PreAction};
use crate::addr::Ipv4Addr;
use crate::five_tuple::IpProtocol;
use crate::flow::Direction;
use crate::packet::Packet;
use crate::tcp_fsm::{TcpEvent, TcpState};

/// State recorded by stateful decapsulation (paper §5.2): the overlay
/// source (the load balancer's address) seen when the RX packet was
/// decapsulated, so TX responses can be re-encapsulated toward the LB
/// rather than leaking directly to the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatefulDecapState {
    /// The recorded overlay source address (LB VIP endpoint).
    pub overlay_src: Ipv4Addr,
}

/// Flow-level statistics counters, recorded only while a statistics
/// policy ([`SessionState::stats_policy`]) applies. The session table
/// keeps them, not [`SessionState`], so only sessions under a policy pay
/// for them (paper §7.1, Fig. 15).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsState {
    /// Packets seen TX.
    pub tx_packets: u64,
    /// Packets seen RX.
    pub rx_packets: u64,
    /// Bytes seen TX.
    pub tx_bytes: u64,
    /// Bytes seen RX.
    pub rx_bytes: u64,
}

impl StatsState {
    /// Records one packet in the given direction.
    pub fn record(&mut self, dir: Direction, bytes: u64) {
        match dir {
            Direction::Tx => {
                self.tx_packets += 1;
                self.tx_bytes += bytes;
            }
            Direction::Rx => {
                self.rx_packets += 1;
                self.rx_bytes += bytes;
            }
        }
    }
}

/// The per-session state blob, less the flow-statistics counters
/// ([`StatsState`]) that only a session under a statistics policy has.
///
/// The fixed allocation slab is [`SessionState::SLAB_BYTES`] = 64 B (paper
/// §7.1), counters included; [`SessionState::used_bytes`] reports the
/// bytes a variable-length encoding would need, which Fig. 15 shows
/// averages 5–8 B in production.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionState {
    /// Direction of the session's first packet — the stateful-ACL state.
    pub first_dir: Option<Direction>,
    /// TCP connection tracking state (TCP sessions only).
    pub tcp: TcpState,
    /// Stateful-decap recorded address, when that NF applies.
    pub decap: Option<StatefulDecapState>,
    /// Active statistics policy id (0 = none): the canonical
    /// *rule-table-involved* state of §3.2.2. The counters it switches on
    /// ([`StatsState`]) are kept by the session table, not here.
    pub stats_policy: u8,
}

const _: () = assert!(std::mem::size_of::<SessionState>() <= 12);

impl SessionState {
    /// Fixed state slab size used by the production vSwitch (paper §7.1).
    pub const SLAB_BYTES: usize = 64;

    /// A fresh state whose first packet had direction `dir`.
    pub fn first_packet(dir: Direction) -> Self {
        SessionState {
            first_dir: Some(dir),
            ..Default::default()
        }
    }

    /// Bytes a compact variable-length encoding of the *used* state needs.
    ///
    /// Accounting (mirrors the paper's 5–8 B average): first-packet
    /// direction packs with the TCP FSM into 1 byte; a live (non-terminal)
    /// TCP FSM costs 4 more bytes of tracking data; stateful decap stores a
    /// 4-byte address; an active stats policy stores 1 + 32 bytes of
    /// counters. A pure stateless flow (no state at all) uses 0 bytes but
    /// still occupies the full 64-byte slab in the fixed layout.
    pub fn used_bytes(&self) -> usize {
        let mut n = 0;
        if self.first_dir.is_some() || self.tcp != TcpState::None {
            n += 1;
        }
        if self.tcp != TcpState::None && !self.tcp.is_closed() {
            n += 4;
        }
        if self.decap.is_some() {
            n += 4;
        }
        if self.stats_policy != 0 {
            n += 1 + 32;
        }
        n
    }

    /// True when no stateful NF recorded anything (slab entirely wasted).
    pub fn is_empty(&self) -> bool {
        self.used_bytes() == 0
    }

    /// The fast-path `process_pkt(pre_actions, state)` of the paper's
    /// Fig. 1: combines a direction's pre-action with the session state to
    /// produce the final action, and applies the state transition the
    /// packet implies.
    ///
    /// This exact function runs on the BE for RX packets (state local,
    /// pre-actions from the packet) and at the local vSwitch; the FE runs
    /// its decision half, [`SessionState::finalize`], on TX packets (state
    /// from the packet) — byte-identical decisions either way, which
    /// `tests/separation_equivalence.rs` verifies.
    pub fn process_pkt(&mut self, pre: &PreAction, pkt: &Packet) -> Action {
        self.update(Some(pre), pkt);
        self.finalize(pre, pkt)
    }

    /// Applies the state transitions a packet implies.
    ///
    /// With `pre = Some(_)` this is the full transition (pre-action-derived
    /// state like the statistics policy is adopted). With `pre = None` it is
    /// the **BE-side TX half** under Nezha: the BE sees the packet before any
    /// rule lookup, so it can apply packet-derived transitions (first-packet
    /// direction, TCP FSM) but cannot adopt rule-table-involved state — that
    /// arrives later via notify packets (§3.2.2).
    ///
    /// Flow statistics are not counted here: the owner of the counters
    /// records the packet when `stats_policy` is non-zero after the update.
    pub fn update(&mut self, pre: Option<&PreAction>, pkt: &Packet) {
        let first = *self.first_dir.get_or_insert(pkt.dir);
        if pkt.tuple.protocol == IpProtocol::Tcp {
            let ev = TcpEvent::from_flags(pkt.tcp_flags, pkt.dir, first);
            self.tcp = self.tcp.step(ev);
        }
        // Stateful decap (§5.2): RX records the overlay source.
        if pre.is_some_and(|p| p.stateful_decap) && pkt.dir == Direction::Rx {
            if let Some(src) = pkt.overlay_encap_src {
                self.decap = Some(StatefulDecapState { overlay_src: src });
            }
        }
        // Rule-table-involved state: adopt the statistics policy the
        // pre-action dictates (§3.2.2).
        if let Some(p) = pre {
            if p.stats_policy != 0 {
                self.stats_policy = p.stats_policy;
            }
        }
    }

    /// Computes the final action from a pre-action and the (already
    /// updated) state — pure, no state mutation. This is the decision half
    /// of [`SessionState::process_pkt`], runnable wherever the two inputs
    /// happen to meet: at the local vSwitch, at the FE (state carried in),
    /// or at the BE (pre-actions carried in).
    pub fn finalize(&self, pre: &PreAction, pkt: &Packet) -> Action {
        let mut action = Action::finalize(pre, pkt.dir, self.first_dir);
        if pre.stateful_decap && pkt.dir == Direction::Tx {
            action.encap_override = self.decap.map(|d| d.overlay_src);
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Decision;
    use crate::addr::{ServerId, VnicId, VpcId};
    use crate::five_tuple::FiveTuple;
    use crate::headers::TcpFlags;

    #[test]
    fn empty_state_uses_zero_of_its_slab() {
        let s = SessionState::default();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(SessionState::SLAB_BYTES, 64);
    }

    #[test]
    fn typical_stateful_acl_state_is_small() {
        // The common case in production: first-dir + established TCP FSM.
        let mut s = SessionState::first_packet(Direction::Tx);
        s.tcp = TcpState::Established;
        assert_eq!(s.used_bytes(), 5);
        assert!(s.used_bytes() <= 8, "must land in the paper's 5-8B band");
    }

    #[test]
    fn decap_state_adds_four_bytes() {
        let mut s = SessionState::first_packet(Direction::Rx);
        s.decap = Some(StatefulDecapState {
            overlay_src: Ipv4Addr::new(10, 9, 9, 9),
        });
        assert_eq!(s.used_bytes(), 1 + 4);
    }

    #[test]
    fn stats_state_is_the_heavy_case() {
        let mut s = SessionState::first_packet(Direction::Tx);
        s.stats_policy = 2;
        let mut stats = StatsState::default();
        stats.record(Direction::Tx, 1500);
        stats.record(Direction::Rx, 60);
        assert_eq!(stats.tx_packets, 1);
        assert_eq!(stats.rx_bytes, 60);
        assert_eq!(s.used_bytes(), 1 + 33);
        assert!(s.used_bytes() <= SessionState::SLAB_BYTES);
    }

    #[test]
    fn closed_tcp_sheds_tracking_bytes() {
        let mut s = SessionState::first_packet(Direction::Tx);
        s.tcp = TcpState::Established;
        let live = s.used_bytes();
        s.tcp = TcpState::Closed;
        assert!(s.used_bytes() < live);
    }

    // `process_pkt` over literal pre-actions, one per stateful NF.

    fn tx_tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 0, 1),
            40000,
            Ipv4Addr::new(10, 7, 0, 100),
            9000,
        )
    }

    /// A security group's stateful default for inbound traffic.
    fn stateful_drop() -> PreAction {
        PreAction {
            stateful_acl: true,
            ..PreAction::drop()
        }
    }

    #[test]
    fn process_pkt_initializes_first_dir_and_fsm() {
        let mut state = SessionState::default();
        let pkt = Packet::tx_data(1, VpcId(1), VnicId(1), tx_tuple(), TcpFlags::SYN, 0);
        let act = state.process_pkt(&PreAction::accept(Some(ServerId(7))), &pkt);
        assert_eq!(state.first_dir, Some(Direction::Tx));
        assert_eq!(state.tcp, TcpState::SynSent);
        assert_eq!(act.verdict, Decision::Accept);
        assert_eq!(act.next_hop, Some(ServerId(7)));
    }

    #[test]
    fn stateful_acl_blocks_unsolicited_rx_but_allows_responses() {
        let pkt = Packet::rx_data(
            1,
            VpcId(1),
            VnicId(1),
            tx_tuple().reversed(),
            TcpFlags::SYN,
            0,
        );
        // Unsolicited: first packet is RX.
        let mut state = SessionState::default();
        let act = state.process_pkt(&stateful_drop(), &pkt);
        assert_eq!(act.verdict, Decision::Drop);
        // Solicited: the session's first packet was TX.
        let mut state = SessionState::first_packet(Direction::Tx);
        let act = state.process_pkt(&stateful_drop(), &pkt);
        assert_eq!(act.verdict, Decision::Accept);
    }

    #[test]
    fn stateful_decap_records_and_reencapsulates() {
        let lb = Ipv4Addr::new(100, 64, 0, 7);
        let decap = PreAction {
            stateful_decap: true,
            ..PreAction::accept(None)
        };
        let client = FiveTuple::tcp(
            Ipv4Addr::new(203, 0, 113, 50),
            55555,
            Ipv4Addr::new(10, 8, 0, 1),
            8080,
        );
        let mut state = SessionState::default();
        // RX packet from the LB, overlay-encapsulated with the LB address.
        let mut pkt = Packet::rx_data(1, VpcId(1), VnicId(2), client, TcpFlags::SYN, 0);
        pkt.overlay_encap_src = Some(lb);
        state.process_pkt(&decap, &pkt);
        assert_eq!(state.decap, Some(StatefulDecapState { overlay_src: lb }));
        // The TX response is re-encapsulated toward the recorded LB.
        let flags = TcpFlags::SYN | TcpFlags::ACK;
        let reply = Packet::tx_data(2, VpcId(1), VnicId(2), client.reversed(), flags, 0);
        let act = state.process_pkt(&decap, &reply);
        assert_eq!(act.encap_override, Some(lb));
    }

    #[test]
    fn stats_policy_from_preaction_becomes_state() {
        let pre = PreAction {
            stats_policy: 3,
            ..PreAction::accept(None)
        };
        let mut state = SessionState::default();
        let pkt = Packet::tx_data(1, VpcId(1), VnicId(1), tx_tuple(), TcpFlags::SYN, 100);
        state.process_pkt(&pre, &pkt);
        assert_eq!(state.stats_policy, 3);
    }

    #[test]
    fn be_tx_half_keeps_the_policy_it_already_has() {
        // `update(None, ..)` never adopts rule-table-involved state, and
        // leaves a policy the state already carries in force.
        let pkt = Packet::tx_data(1, VpcId(1), VnicId(1), tx_tuple(), TcpFlags::SYN, 0);
        let mut state = SessionState::default();
        state.update(None, &pkt);
        assert_eq!(state.stats_policy, 0);
        state.stats_policy = 4;
        state.update(None, &pkt);
        assert_eq!(state.stats_policy, 4);
    }
}
