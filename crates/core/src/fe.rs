//! The vNIC **frontend** (FE): stateless rules + cached flows on a remote
//! idle SmartNIC.
//!
//! An FE holds a complete copy of one offloaded vNIC's rule tables and a
//! cache of flows it has looked up; it holds **no session state**. That is
//! the entire point: "as FEs only maintain stateless rule tables and
//! cached flows, packets can be processed correctly by any FE without
//! synchronization" (§3.2.3) — add or remove FEs freely, lose one with no
//! state loss, and a post-scaling cache miss costs only one re-executed
//! rule lookup ("slightly more than 10 microseconds").

use nezha_sim::dense::{DenseMap, Interner};
use nezha_sim::resources::MemoryPool;
use nezha_types::{Direction, FiveTuple, PreActionPair, ServerId, SessionKey};
use nezha_vswitch::config::MemoryModel;
use nezha_vswitch::stage::lookup::pair_lookup;
use nezha_vswitch::vnic::Vnic;

/// One FE instance: an offloaded vNIC's tables hosted on a remote server.
#[derive(Debug)]
pub struct FrontEnd {
    /// A full copy of the vNIC's rule tables ("Each FE maintains a
    /// complete copy of the rule tables", §3.2.3).
    pub vnic: Vnic,
    /// The BE's location, configured by the controller ("BE Location
    /// Config", Fig. 7).
    pub be_location: ServerId,
    /// Cached flows regenerated on the fly by rule lookups (Fig. 7).
    /// Dense-hashed: the per-packet hit path is one O(1) probe, and the
    /// only iteration (invalidate-all) is aggregate, so lookup order is
    /// never behavior-visible. Entries store a 4-byte interned id rather
    /// than the 64-byte pair itself: flows over the same rule tables
    /// collapse onto a few hundred distinct pre-action values, so the
    /// probe array stays a quarter the size and the resolve table is
    /// cache-resident.
    flows: DenseMap<SessionKey, u32>,
    /// Distinct pre-action values behind the flow entries' interned ids.
    pairs: Interner<PreActionPair>,
    hits: u64,
    misses: u64,
    /// Flows that could not be cached because the host's table memory was
    /// exhausted (processing still succeeds, uncached).
    cache_skips: u64,
}

impl FrontEnd {
    /// Creates an FE for `vnic` whose backend lives at `be_location`.
    pub fn new(vnic: Vnic, be_location: ServerId) -> Self {
        FrontEnd {
            vnic,
            be_location,
            flows: DenseMap::new(),
            pairs: Interner::new(),
            hits: 0,
            misses: 0,
            cache_skips: 0,
        }
    }

    /// Number of cached flows.
    pub fn cached_flows(&self) -> usize {
        self.flows.len()
    }

    /// `(hits, misses, cache_skips)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.cache_skips)
    }

    /// Returns the cached pre-actions for the session of `tuple`, running
    /// the rule lookup (and caching the result in `pool`) on a miss. The
    /// FE calls the *same* lookup function as the local vSwitch — Nezha's
    /// equivalence property (§3.1).
    ///
    /// The boolean is `true` on a miss — the caller charges lookup cycles
    /// instead of fast-path cycles, and (on the TX workflow) considers a
    /// notify packet (§3.2.2).
    pub fn lookup_or_insert(
        &mut self,
        tuple: &FiveTuple,
        pkt_dir: Direction,
        pool: &mut MemoryPool,
        m: &MemoryModel,
    ) -> (PreActionPair, bool) {
        let key = SessionKey::of(self.vnic.vpc, *tuple);
        if let Some(&id) = self.flows.get(&key) {
            self.hits += 1;
            return (*self.pairs.resolve(id), false);
        }
        self.misses += 1;
        let pair = pair_lookup(&self.vnic, tuple, pkt_dir);
        if pool.alloc(m.flow_entry).is_ok() {
            let id = self.pairs.intern(pair);
            self.flows.insert(key, id);
        } else {
            self.cache_skips += 1;
        }
        (pair, true)
    }

    /// Invalidates all cached flows (rule-table change, §3.2.2), releasing
    /// their memory. Returns the number invalidated.
    pub fn invalidate_flows(&mut self, pool: &mut MemoryPool, m: &MemoryModel) -> usize {
        let n = self.flows.len();
        pool.free(n as u64 * m.flow_entry);
        self.flows.clear();
        // Every id died with its flow: the previous rule generation's
        // pre-action values must not stay interned forever.
        self.pairs.clear();
        n
    }

    /// Model bytes this FE holds on its host's pool: its rule tables
    /// (charged when configured, grown by [`Vnic::learn_peer`]) plus one
    /// `flow_entry` per cached flow.
    pub(crate) fn memory_bytes(&self, m: &MemoryModel) -> u64 {
        self.vnic.table_memory(m) + self.flows.len() as u64 * m.flow_entry
    }

    /// Releases **all** memory this FE holds on `pool` (tables + flows);
    /// called when the FE is removed (scale-in, failover cleanup).
    pub fn release(self, pool: &mut MemoryPool, m: &MemoryModel) {
        pool.free(self.memory_bytes(m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::{Ipv4Addr, VnicId, VpcId};
    use nezha_vswitch::vnic::VnicProfile;

    fn fe() -> FrontEnd {
        let vnic = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        );
        FrontEnd::new(vnic, ServerId(0))
    }

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 0, 1),
            port,
            Ipv4Addr::new(10, 7, 0, 100),
            9000,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (p1, miss1) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        assert!(miss1);
        let (p2, miss2) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        assert!(!miss2);
        assert_eq!(p1, p2);
        assert_eq!(f.counters(), (1, 1, 0));
        assert_eq!(f.cached_flows(), 1);
        assert_eq!(pool.used(), m.flow_entry);
    }

    #[test]
    fn both_directions_share_one_cached_flow() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (pa, _) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        let (pb, miss) = f.lookup_or_insert(&tuple(1000).reversed(), Direction::Rx, &mut pool, &m);
        assert!(!miss, "reverse direction must hit the same entry");
        assert_eq!(pa, pb);
        assert_eq!(f.cached_flows(), 1);
    }

    #[test]
    fn oom_skips_caching_but_still_answers() {
        let mut f = fe();
        let mut pool = MemoryPool::new(0);
        let m = MemoryModel::default();
        let (_, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
        assert_eq!(f.cached_flows(), 0);
        assert_eq!(f.counters().2, 1);
        // Second lookup is a miss again (nothing cached) but still works.
        let (_, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
    }

    #[test]
    fn invalidate_forgets_the_previous_rule_generation() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (before, _) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert_eq!(f.pairs.len(), 1);
        // A table update changes what the lookup yields ...
        let peer = tuple(1).dst_ip;
        f.vnic.learn_peer(peer, ServerId(5), &mut pool, &m);
        f.invalidate_flows(&mut pool, &m);
        assert!(f.pairs.is_empty());
        // ... and only the new generation's value is interned afterwards.
        let (after, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
        assert_ne!(before, after);
        assert_eq!(f.pairs.len(), 1);
    }

    #[test]
    fn invalidate_and_release_free_memory() {
        let mut f = fe();
        let mut pool = MemoryPool::new(20_000_000);
        let m = MemoryModel::default();
        for p in 0..10 {
            f.lookup_or_insert(&tuple(p), Direction::Tx, &mut pool, &m);
        }
        assert_eq!(pool.used(), 10 * m.flow_entry);
        assert_eq!(f.invalidate_flows(&mut pool, &m), 10);
        assert_eq!(pool.used(), 0);

        // Simulate the host charging table memory and a learned peer,
        // then releasing the FE.
        pool.alloc(f.vnic.table_memory(&m)).unwrap();
        let peer = Ipv4Addr::new(10, 9, 0, 1);
        f.vnic.learn_peer(peer, ServerId(3), &mut pool, &m);
        f.lookup_or_insert(&tuple(0), Direction::Tx, &mut pool, &m);
        assert_eq!(pool.used(), f.memory_bytes(&m));
        f.release(&mut pool, &m);
        assert_eq!(pool.used(), 0);
    }
}
