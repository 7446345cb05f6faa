//! Addresses and identifiers used throughout the system.
//!
//! The cloud model follows the paper's terminology:
//! * a **VPC** isolates one tenant's virtual network ([`VpcId`]);
//! * a **vNIC** is the unit of offloading — each vNIC owns its rule tables
//!   ([`VnicId`]);
//! * a **server** hosts one SmartNIC/vSwitch ([`ServerId`]);
//! * [`Ipv4Addr`] / [`MacAddr`] are compact wire-friendly address types used
//!   in both overlay (tenant) and underlay (datacenter) headers.

use std::fmt;

/// A 32-bit IPv4 address stored in host byte order.
///
/// We intentionally do not use `std::net::Ipv4Addr`: this type needs cheap
/// arithmetic (prefix masking, offsetting for synthetic address allocation)
/// and direct `u32` access in hot paths of the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// The all-zero (unspecified) address.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// Returns the four octets in network order.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Reconstructs an address from network-order octets.
    pub const fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(o))
    }

    /// Applies a prefix mask of the given length. Total over `u8`: a
    /// length of 32 or more keeps the exact address.
    ///
    /// Used by longest-prefix-match route tables and by ACL prefix rules.
    pub const fn masked(self, prefix_len: u8) -> Ipv4Addr {
        match prefix_len {
            0 => Ipv4Addr(0),
            1..=31 => Ipv4Addr(self.0 & (u32::MAX << (32 - prefix_len as u32))),
            _ => self,
        }
    }

    /// True when `self` falls inside `prefix/len`.
    pub const fn in_prefix(self, prefix: Ipv4Addr, len: u8) -> bool {
        self.masked(len).0 == prefix.masked(len).0
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

/// A 48-bit Ethernet MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Derives a locally-administered unicast MAC from a 32-bit id.
    ///
    /// The simulator allocates MACs for servers and gateways this way so
    /// that addresses are deterministic functions of topology ids.
    pub const fn from_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x4e, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric id.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{self}")
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_type! {
    /// Identifies a tenant virtual network (VPC). Recorded alongside the
    /// 5-tuple in cached flows so tenants reusing the same private addresses
    /// stay isolated (paper §2.1).
    VpcId
}

id_type! {
    /// Identifies one virtual NIC. The vNIC is Nezha's unit of offloading:
    /// each vNIC owns a set of rule tables, and offloading moves *that
    /// vNIC's* stateless tables to remote FEs.
    VnicId
}

id_type! {
    /// Identifies a physical server (equivalently, its SmartNIC/vSwitch).
    ServerId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_octet_round_trip() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(a.octets(), [10, 1, 2, 3]);
        assert_eq!(Ipv4Addr::from_octets(a.octets()), a);
        assert_eq!(a.to_string(), "10.1.2.3");
    }

    #[test]
    fn ipv4_masking() {
        let a = Ipv4Addr::new(192, 168, 37, 201);
        assert_eq!(a.masked(24), Ipv4Addr::new(192, 168, 37, 0));
        assert_eq!(a.masked(16), Ipv4Addr::new(192, 168, 0, 0));
        assert_eq!(a.masked(0), Ipv4Addr::UNSPECIFIED);
        assert_eq!(a.masked(32), a);
        // Past 32 the mask stays the exact address, never a wrapped shift
        // that would keep only the top bit.
        assert_eq!(a.masked(33), a);
        assert_eq!(a.masked(255), a);
        assert!(!Ipv4Addr::new(192, 0, 0, 0).in_prefix(a, 33));
        assert!(a.in_prefix(a, 255));
    }

    #[test]
    fn ipv4_prefix_membership() {
        let p = Ipv4Addr::new(10, 0, 0, 0);
        assert!(Ipv4Addr::new(10, 200, 1, 1).in_prefix(p, 8));
        assert!(!Ipv4Addr::new(11, 0, 0, 1).in_prefix(p, 8));
        // Zero-length prefix matches everything.
        assert!(Ipv4Addr::new(1, 2, 3, 4).in_prefix(p, 0));
    }

    #[test]
    fn mac_from_id_is_deterministic_and_unicast() {
        let m1 = MacAddr::from_id(7);
        let m2 = MacAddr::from_id(7);
        let m3 = MacAddr::from_id(8);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
        // Locally-administered bit set, multicast bit clear.
        assert_eq!(m1.0[0] & 0x02, 0x02);
        assert_eq!(m1.0[0] & 0x01, 0x00);
    }

    #[test]
    fn id_display() {
        assert_eq!(VnicId(3).to_string(), "VnicId(3)");
        assert_eq!(ServerId(9).raw(), 9);
        assert_eq!(VpcId::from(5u32), VpcId(5));
    }
}
