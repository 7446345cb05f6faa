//! Connection-tracking TCP finite state machine.
//!
//! This is the *vSwitch's* view of a TCP connection (conntrack-style), not
//! an endpoint implementation: it watches flags pass in both directions and
//! tracks enough state to (a) age entries correctly — established sessions
//! live ~8 s idle (paper §2.2.2) while embryonic SYN-state sessions get a
//! much shorter aging time to blunt SYN floods (paper §7.3) — and (b)
//! support stateful NFs that depend on connection status.

use crate::flow::Direction;
use std::fmt;

/// Conntrack states, a deliberately small subset of RFC 793's machine:
/// the vSwitch only needs to distinguish "establishing", "established",
/// "closing", and "closed" for aging and policy purposes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TcpState {
    /// No packets seen yet.
    #[default]
    None,
    /// A SYN was seen from the session originator; embryonic session.
    SynSent,
    /// SYN+ACK seen from the responder.
    SynReceived,
    /// Three-way handshake complete; data may flow.
    Established,
    /// A FIN has been seen from one side.
    FinWait,
    /// FINs seen from both sides; draining.
    Closing,
    /// Connection is closed (FIN handshake done or RST seen).
    Closed,
}

impl TcpState {
    /// True for embryonic (not yet established) states, which receive the
    /// short SYN aging time of paper §7.3.
    pub const fn is_embryonic(self) -> bool {
        matches!(self, TcpState::SynSent | TcpState::SynReceived)
    }

    /// True once the handshake completed and until close.
    pub const fn is_established(self) -> bool {
        matches!(
            self,
            TcpState::Established | TcpState::FinWait | TcpState::Closing
        )
    }

    /// True when the entry can be reclaimed immediately.
    pub const fn is_closed(self) -> bool {
        matches!(self, TcpState::Closed)
    }
}

impl fmt::Display for TcpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TcpState::None => "NONE",
            TcpState::SynSent => "SYN_SENT",
            TcpState::SynReceived => "SYN_RECEIVED",
            TcpState::Established => "ESTABLISHED",
            TcpState::FinWait => "FIN_WAIT",
            TcpState::Closing => "CLOSING",
            TcpState::Closed => "CLOSED",
        };
        write!(f, "{s}")
    }
}

/// An observed TCP segment, reduced to what the tracker needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpEvent {
    /// Direction relative to the session *originator* (the side that sent
    /// the first packet): `Tx` = from originator, `Rx` = from responder.
    pub from_originator: bool,
    /// SYN flag.
    pub syn: bool,
    /// ACK flag.
    pub ack: bool,
    /// FIN flag.
    pub fin: bool,
    /// RST flag.
    pub rst: bool,
}

impl TcpEvent {
    /// Event for a plain data/ACK segment.
    pub const fn data(from_originator: bool) -> Self {
        TcpEvent {
            from_originator,
            syn: false,
            ack: true,
            fin: false,
            rst: false,
        }
    }

    /// Event for an initial SYN.
    pub const fn syn(from_originator: bool) -> Self {
        TcpEvent {
            from_originator,
            syn: true,
            ack: false,
            fin: false,
            rst: false,
        }
    }

    /// Event for a SYN+ACK.
    pub const fn syn_ack(from_originator: bool) -> Self {
        TcpEvent {
            from_originator,
            syn: true,
            ack: true,
            fin: false,
            rst: false,
        }
    }

    /// Event for a FIN (with ACK, as in practice).
    pub const fn fin(from_originator: bool) -> Self {
        TcpEvent {
            from_originator,
            syn: false,
            ack: true,
            fin: true,
            rst: false,
        }
    }

    /// Event for an RST.
    pub const fn rst(from_originator: bool) -> Self {
        TcpEvent {
            from_originator,
            syn: false,
            ack: false,
            fin: false,
            rst: true,
        }
    }

    /// Derives an event from header flags plus the packet's direction and
    /// the recorded first-packet direction of the session.
    pub fn from_flags(
        flags: crate::headers::TcpFlags,
        pkt_dir: Direction,
        first_dir: Direction,
    ) -> Self {
        use crate::headers::TcpFlags as F;
        TcpEvent {
            from_originator: pkt_dir == first_dir,
            syn: flags.contains(F::SYN),
            ack: flags.contains(F::ACK),
            fin: flags.contains(F::FIN),
            rst: flags.contains(F::RST),
        }
    }
}

impl TcpState {
    /// Advances the machine on an observed segment and returns the next
    /// state. The tracker is forgiving of retransmissions (SYN in `SynSent`
    /// stays in `SynSent`) and strict about RST (always `Closed`).
    pub fn step(self, ev: TcpEvent) -> TcpState {
        use TcpState::*;
        if ev.rst {
            return Closed;
        }
        match self {
            None => {
                if ev.syn && !ev.ack {
                    SynSent
                } else {
                    // Mid-stream pickup (e.g. after failover or table
                    // eviction): treat any non-SYN as established traffic so
                    // long-lived connections keep working.
                    Established
                }
            }
            SynSent => {
                if ev.syn && ev.ack && !ev.from_originator {
                    SynReceived
                } else if ev.fin {
                    FinWait
                } else {
                    SynSent
                }
            }
            SynReceived => {
                if ev.ack && !ev.syn && ev.from_originator {
                    Established
                } else if ev.fin {
                    FinWait
                } else {
                    SynReceived
                }
            }
            Established => {
                if ev.fin {
                    FinWait
                } else {
                    Established
                }
            }
            FinWait => {
                if ev.fin {
                    Closing
                } else {
                    FinWait
                }
            }
            Closing => {
                if ev.ack && !ev.fin {
                    Closed
                } else {
                    Closing
                }
            }
            Closed => Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_way_handshake() {
        let s = TcpState::None
            .step(TcpEvent::syn(true))
            .step(TcpEvent::syn_ack(false))
            .step(TcpEvent::data(true));
        assert_eq!(s, TcpState::Established);
        assert!(s.is_established());
        assert!(!s.is_embryonic());
    }

    #[test]
    fn graceful_close() {
        let s = TcpState::Established
            .step(TcpEvent::fin(true))
            .step(TcpEvent::fin(false))
            .step(TcpEvent::data(true));
        assert_eq!(s, TcpState::Closed);
        assert!(s.is_closed());
    }

    #[test]
    fn rst_closes_from_any_state() {
        for s in [
            TcpState::None,
            TcpState::SynSent,
            TcpState::SynReceived,
            TcpState::Established,
            TcpState::FinWait,
            TcpState::Closing,
        ] {
            assert_eq!(s.step(TcpEvent::rst(true)), TcpState::Closed);
            assert_eq!(s.step(TcpEvent::rst(false)), TcpState::Closed);
        }
    }

    #[test]
    fn syn_retransmission_stays_embryonic() {
        let s = TcpState::None
            .step(TcpEvent::syn(true))
            .step(TcpEvent::syn(true));
        assert_eq!(s, TcpState::SynSent);
        assert!(s.is_embryonic());
    }

    #[test]
    fn midstream_pickup_is_established() {
        // After failover the session entry may be recreated mid-connection;
        // the first observed segment is plain data.
        assert_eq!(
            TcpState::None.step(TcpEvent::data(false)),
            TcpState::Established
        );
    }

    #[test]
    fn syn_ack_from_originator_does_not_advance() {
        // A spoofed SYN+ACK from the same side as the original SYN must not
        // move the handshake forward.
        let s = TcpState::SynSent.step(TcpEvent::syn_ack(true));
        assert_eq!(s, TcpState::SynSent);
    }

    #[test]
    fn event_from_flags_maps_direction() {
        use crate::headers::TcpFlags as F;
        let ev = TcpEvent::from_flags(F::SYN | F::ACK, Direction::Rx, Direction::Tx);
        assert!(!ev.from_originator);
        assert!(ev.syn && ev.ack && !ev.fin && !ev.rst);
        let ev = TcpEvent::from_flags(F::FIN | F::ACK, Direction::Tx, Direction::Tx);
        assert!(ev.from_originator && ev.fin);
    }

    #[test]
    fn closed_is_terminal() {
        assert_eq!(TcpState::Closed.step(TcpEvent::syn(true)), TcpState::Closed);
        assert_eq!(
            TcpState::Closed.step(TcpEvent::data(false)),
            TcpState::Closed
        );
    }
}
