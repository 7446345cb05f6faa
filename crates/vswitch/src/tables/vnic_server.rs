//! The per-vNIC learned-peer table (its copy of the "global routing
//! table").
//!
//! Maps an overlay peer address to the one physical server hosting it.
//! The full table lives at the gateway; a vSwitch learns entries on
//! demand with a 200 ms learning interval (§4.2.1), which is why Nezha's
//! offload needs a dual-running stage — in-flight packets keep arriving at
//! the BE until every peer has learned the FE addresses. Spreading one
//! address's traffic over several FEs is the gateway's job
//! (`nezha_core::gateway`), so an entry here names a single server.
//!
//! Entries are deliberately heavy (≈2 KB each in the memory model): the
//! paper observes single vNICs storing O(100K) entries and consuming over
//! 200 MB (§2.2.2), which is one of the forces behind the #vNICs-limited-
//! by-memory bottleneck. The simulator's own entry is 4 + 4 bytes.

use nezha_sim::dense::DenseMap;
use nezha_types::{Ipv4Addr, ServerId};

/// A learned peer's value: one server id, no heap.
const _: () = assert!(std::mem::size_of::<ServerId>() == 4);

/// The learned-peer table: overlay address → hosting server.
///
/// Point lookups only — `select` runs on every TX rule lookup and the map
/// is never walked — so a [`DenseMap`] serves it (the `HashMap` ban in
/// `clippy.toml` is about iteration order).
#[derive(Clone, Debug, Default)]
pub struct VnicServerMap {
    entries: DenseMap<Ipv4Addr, ServerId>,
}

impl VnicServerMap {
    /// Points `addr` at `server`, learned before or not.
    pub fn set(&mut self, addr: Ipv4Addr, server: ServerId) {
        self.entries.insert(addr, server);
    }

    /// Points an already learned `addr` at `server`, in one probe.
    /// Returns false, changing nothing, when `addr` is not learned.
    pub fn update(&mut self, addr: Ipv4Addr, server: ServerId) -> bool {
        match self.entries.get_mut(&addr) {
            Some(s) => {
                *s = server;
                true
            }
            None => false,
        }
    }

    /// The server hosting `addr`, `None` when it is not learned.
    pub fn select(&self, addr: Ipv4Addr) -> Option<ServerId> {
        self.entries.get(&addr).copied()
    }

    /// Number of learned addresses.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_select_update_and_accounting() {
        let mut m = VnicServerMap::default();
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 5), Ipv4Addr::new(10, 0, 0, 6));
        m.set(a, ServerId(3));
        assert_eq!((m.select(a), m.select(b)), (Some(ServerId(3)), None));
        assert!(m.update(a, ServerId(4)) && !m.update(b, ServerId(4)));
        assert_eq!((m.select(a), m.select(b)), (Some(ServerId(4)), None));
        m.set(b, ServerId(5));
        assert_eq!((m.len(), m.memory_bytes(2048)), (2, 4096));
    }
}
