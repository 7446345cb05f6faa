//! Session keys and packet direction.

use crate::addr::VpcId;
use crate::five_tuple::FiveTuple;
use std::fmt;

/// Direction of a packet relative to the vNIC it belongs to.
///
/// * `Tx` (egress): sent *by* the local VM, traverses BE → FE under Nezha.
/// * `Rx` (ingress): destined *to* the local VM, traverses FE → BE.
///
/// Stateful ACL (paper §5.1) records the direction of a session's first
/// packet as its state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Egress: VM → network.
    Tx,
    /// Ingress: network → VM.
    Rx,
}

impl Direction {
    /// The opposite direction.
    pub const fn flipped(self) -> Self {
        match self {
            Direction::Tx => Direction::Rx,
            Direction::Rx => Direction::Tx,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Tx => write!(f, "TX"),
            Direction::Rx => write!(f, "RX"),
        }
    }
}

/// Key of a *bidirectional* session-table entry: `(VPC ID, canonical
/// 5-tuple)`.
///
/// The VPC ID disambiguates tenants reusing identical private 5-tuples
/// (paper §2.1, Fig. 1). Both directions of a connection map to the same
/// `SessionKey`, so session state (TCP FSM, first-packet direction,
/// statistics) lives in exactly one entry — the property that lets Nezha
/// keep a single local copy of state with no cross-node synchronization
/// (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// Owning tenant network.
    pub vpc: VpcId,
    /// Canonical orientation of the session's 5-tuple.
    pub canonical: FiveTuple,
}

impl SessionKey {
    /// Builds the session key for any directional tuple of the session.
    pub fn of(vpc: VpcId, tuple: FiveTuple) -> Self {
        SessionKey {
            vpc,
            canonical: tuple.canonical(),
        }
    }
}

impl fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionKey[{} {}]", self.vpc, self.canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            50000,
            Ipv4Addr::new(10, 0, 1, 7),
            443,
        )
    }

    #[test]
    fn both_directions_share_one_session_key() {
        assert_eq!(
            SessionKey::of(VpcId(3), tuple()),
            SessionKey::of(VpcId(3), tuple().reversed())
        );
    }

    #[test]
    fn different_vpcs_do_not_collide() {
        assert_ne!(
            SessionKey::of(VpcId(1), tuple()),
            SessionKey::of(VpcId(2), tuple())
        );
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Tx.flipped(), Direction::Rx);
        assert_eq!(Direction::Rx.flipped(), Direction::Tx);
        assert_eq!(Direction::Tx.to_string(), "TX");
    }
}
