//! VXLAN routing: longest-prefix match over overlay destinations.
//!
//! The route table answers "is this overlay destination reachable in the
//! tenant's VPC, and through what overlay endpoint". Every route sits in
//! one hash map keyed by `(prefix length, masked address)`; a lookup
//! probes the lengths present, longest first, so it costs one hash probe
//! per distinct length and allocates nothing.

use nezha_sim::dense::DenseMap;
use nezha_types::Ipv4Addr;

/// Outcome of a route lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteTarget {
    /// Deliver within the VPC overlay toward this gateway/endpoint hint
    /// (the vNIC→server map resolves the physical server).
    Overlay(Ipv4Addr),
    /// Destination is unreachable in this VPC; drop.
    Blackhole,
}

/// The LPM route table.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// `(len, masked address)` → target.
    routes: DenseMap<(u8, u32), RouteTarget>,
    /// Bit `len` set when some route has that prefix length (`0..=32`).
    lens: u64,
}

impl RouteTable {
    /// An empty table (everything unreachable).
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Inserts or replaces a route for `prefix/len`. A length past 32 is
    /// a host route, the same as `/32`.
    pub fn insert(&mut self, prefix: Ipv4Addr, len: u8, target: RouteTarget) {
        let len = len.min(32);
        self.routes.insert((len, prefix.masked(len).0), target);
        self.lens |= 1u64 << len;
    }

    /// Longest-prefix-match lookup; `None` when no route covers `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<RouteTarget> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros() as u8;
            if let Some(t) = self.routes.get(&(len, dst.masked(len).0)) {
                return Some(*t);
            }
            lens ^= 1u64 << len;
        }
        None
    }

    /// Every route as `(masked prefix, len, target)`, in insertion order.
    #[cfg(test)]
    pub(crate) fn routes(&self) -> impl Iterator<Item = (Ipv4Addr, u8, RouteTarget)> + '_ {
        self.routes
            .iter()
            .map(|(&(len, prefix), &t)| (Ipv4Addr(prefix), len, t))
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Memory footprint under the given per-entry cost.
    pub fn memory_bytes(&self, per_entry: u64) -> u64 {
        self.routes.len() as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, RouteTarget::Blackhole);
        rt.insert(
            Ipv4Addr::new(10, 1, 0, 0),
            16,
            RouteTarget::Overlay(Ipv4Addr::new(192, 168, 0, 1)),
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 1, 9, 9)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(192, 168, 0, 1)))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 2, 9, 9)),
            Some(RouteTarget::Blackhole)
        );
        assert_eq!(rt.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn default_route_via_len_zero() {
        let mut rt = RouteTable::new();
        rt.insert(
            Ipv4Addr::UNSPECIFIED,
            0,
            RouteTarget::Overlay(Ipv4Addr::new(1, 1, 1, 1)),
        );
        assert!(rt.lookup(Ipv4Addr::new(203, 0, 113, 5)).is_some());
    }

    #[test]
    fn replace_does_not_double_count() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 24, RouteTarget::Blackhole);
        rt.insert(
            Ipv4Addr::new(10, 0, 0, 0),
            24,
            RouteTarget::Overlay(Ipv4Addr::new(2, 2, 2, 2)),
        );
        assert_eq!(rt.len(), 1);
        assert!(!rt.is_empty());
        assert_eq!(rt.memory_bytes(32), 32);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 7)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(2, 2, 2, 2)))
        );
    }

    #[test]
    fn host_routes() {
        let mut rt = RouteTable::new();
        rt.insert(
            Ipv4Addr::new(10, 0, 0, 7),
            32,
            RouteTarget::Overlay(Ipv4Addr::new(3, 3, 3, 3)),
        );
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 24, RouteTarget::Blackhole);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 7)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(3, 3, 3, 3)))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 8)),
            Some(RouteTarget::Blackhole)
        );
    }

    #[test]
    fn lengths_past_32_are_host_routes() {
        let host = Ipv4Addr::new(10, 0, 0, 7);
        let hint = |d| RouteTarget::Overlay(Ipv4Addr::new(d, d, d, d));
        let mut rt = RouteTable::new();
        rt.insert(host, 33, hint(1));
        assert_eq!(rt.lookup(host), Some(hint(1)));
        // Not a match on the top address bit alone.
        assert_eq!(rt.lookup(Ipv4Addr::new(10, 0, 0, 8)), None);
        // /32, /33 and /255 name one route: each replaces the last.
        rt.insert(host, 32, hint(2));
        assert_eq!(rt.lookup(host), Some(hint(2)));
        rt.insert(host, 255, hint(3));
        assert_eq!(rt.lookup(host), Some(hint(3)));
        assert_eq!(rt.len(), 1);
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 24, RouteTarget::Blackhole);
        assert_eq!(rt.lookup(host), Some(hint(3)));
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 8)),
            Some(RouteTarget::Blackhole)
        );
    }
}
