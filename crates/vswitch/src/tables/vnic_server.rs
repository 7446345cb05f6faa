//! The vNIC→server mapping table (the "global routing table").
//!
//! Maps an overlay vNIC address to the physical server currently hosting
//! it. The full table lives at the gateway; vSwitches learn entries on
//! demand with a 200 ms learning interval (§4.2.1), which is why Nezha's
//! offload needs a dual-running stage — in-flight packets keep arriving at
//! the BE until every peer has learned the FE addresses.
//!
//! Entries are deliberately heavy (≈2 KB each in the memory model): the
//! paper observes single vNICs storing O(100K) entries and consuming over
//! 200 MB (§2.2.2), which is one of the forces behind the #vNICs-limited-
//! by-memory bottleneck.

use nezha_sim::dense::DenseMap;
use nezha_types::{Ipv4Addr, ServerId};

/// Hosting set for one overlay address. Almost every entry points at a
/// single server (only offloaded vNICs fan out to FE lists), and `set`
/// runs once per learned peer connection, so the single-server case is
/// kept inline to avoid a heap allocation per call.
#[derive(Clone, Debug)]
enum Hosting {
    One(ServerId),
    Many(Vec<ServerId>),
}

impl Hosting {
    fn as_slice(&self) -> &[ServerId] {
        match self {
            Hosting::One(s) => std::slice::from_ref(s),
            Hosting::Many(v) => v,
        }
    }
}

/// The mapping table: overlay address → hosting server(s).
///
/// Under Nezha an offloaded vNIC maps to *several* servers (its FEs); the
/// sender picks one by flow hash. A non-offloaded vNIC maps to exactly its
/// home server.
///
/// Point lookups only — `select` runs on every FE miss and the map is
/// never walked — so a [`DenseMap`] serves it (the `HashMap` ban in
/// `clippy.toml` is about iteration order).
#[derive(Clone, Debug, Default)]
pub struct VnicServerMap {
    entries: DenseMap<Ipv4Addr, Hosting>,
}

impl VnicServerMap {
    /// An empty map.
    pub fn new() -> Self {
        VnicServerMap::default()
    }

    /// Points `addr` at a single hosting server. Re-learning an unchanged
    /// mapping is a no-op write — bulk workloads re-add connections to the
    /// same few peers constantly.
    pub fn set(&mut self, addr: Ipv4Addr, server: ServerId) {
        match self.entries.get_mut(&addr) {
            Some(Hosting::One(s)) if *s == server => {}
            Some(h) => *h = Hosting::One(server),
            None => {
                self.entries.insert(addr, Hosting::One(server));
            }
        }
    }

    /// Points `addr` at a set of servers (the FEs of an offloaded vNIC).
    /// Order matters: the flow-hash index selects into this list.
    pub fn set_many(&mut self, addr: Ipv4Addr, servers: Vec<ServerId>) {
        assert!(
            !servers.is_empty(),
            "a vNIC must map to at least one server"
        );
        self.entries.insert(addr, Hosting::Many(servers));
    }

    /// Removes the mapping for `addr`.
    pub fn remove(&mut self, addr: Ipv4Addr) {
        self.entries.remove(&addr);
    }

    /// The servers hosting `addr`, empty when unknown.
    pub fn lookup(&self, addr: Ipv4Addr) -> &[ServerId] {
        self.entries.get(&addr).map_or(&[], Hosting::as_slice)
    }

    /// Selects one hosting server for a flow with the given stable hash
    /// (Nezha's `Hash(5-tuple)` load balancing, §3.2.3).
    pub fn select(&self, addr: Ipv4Addr, flow_hash: u64) -> Option<ServerId> {
        let servers = self.lookup(addr);
        if servers.is_empty() {
            None
        } else {
            Some(servers[(flow_hash % servers.len() as u64) as usize])
        }
    }

    /// Number of mapped addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memory footprint under the given per-entry cost.
    pub fn memory_bytes(&self, per_entry: u64) -> u64 {
        self.entries.len() as u64 * per_entry
    }

    /// Copies the entry for `addr` from `other` (the on-demand gateway
    /// learning path). Returns true when something was learned.
    pub fn learn_from(&mut self, other: &VnicServerMap, addr: Ipv4Addr) -> bool {
        match other.entries.get(&addr) {
            Some(servers) => {
                self.entries.insert(addr, servers.clone());
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_mapping() {
        let mut m = VnicServerMap::new();
        m.set(Ipv4Addr::new(10, 0, 0, 5), ServerId(3));
        assert_eq!(m.lookup(Ipv4Addr::new(10, 0, 0, 5)), &[ServerId(3)]);
        assert_eq!(
            m.select(Ipv4Addr::new(10, 0, 0, 5), 12345),
            Some(ServerId(3))
        );
        assert_eq!(m.lookup(Ipv4Addr::new(10, 0, 0, 6)), &[] as &[ServerId]);
        assert_eq!(m.select(Ipv4Addr::new(10, 0, 0, 6), 0), None);
    }

    #[test]
    fn multi_mapping_selects_by_hash() {
        let mut m = VnicServerMap::new();
        let fes = vec![ServerId(1), ServerId(2), ServerId(3), ServerId(4)];
        m.set_many(Ipv4Addr::new(10, 0, 0, 9), fes.clone());
        // Deterministic and covering: each index reachable.
        for (h, want) in [(0u64, 1u32), (1, 2), (2, 3), (3, 4), (4, 1)] {
            assert_eq!(
                m.select(Ipv4Addr::new(10, 0, 0, 9), h),
                Some(ServerId(want))
            );
        }
        assert_eq!(m.lookup(Ipv4Addr::new(10, 0, 0, 9)), fes.as_slice());
    }

    #[test]
    fn remove_and_accounting() {
        let mut m = VnicServerMap::new();
        m.set(Ipv4Addr::new(1, 1, 1, 1), ServerId(1));
        m.set(Ipv4Addr::new(2, 2, 2, 2), ServerId(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.memory_bytes(2048), 4096);
        m.remove(Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn learning_copies_entries_on_demand() {
        let mut gateway = VnicServerMap::new();
        gateway.set_many(Ipv4Addr::new(10, 0, 0, 1), vec![ServerId(5), ServerId(6)]);
        let mut local = VnicServerMap::new();
        assert!(local.learn_from(&gateway, Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!local.learn_from(&gateway, Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(local.lookup(Ipv4Addr::new(10, 0, 0, 1)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_server_list_rejected() {
        let mut m = VnicServerMap::new();
        m.set_many(Ipv4Addr::new(1, 1, 1, 1), vec![]);
    }
}
