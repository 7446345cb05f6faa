//! The bidirectional session table.
//!
//! One entry serves both directions of a session (keyed by the canonical
//! 5-tuple + VPC id, §2.1), holding the cached pre-actions for both
//! directions ("cached flows") and the session state. Memory is charged
//! against the vSwitch table pool: a full entry costs
//! `flow_entry (≈100 B) + state_slab (64 B)`; a Nezha-BE entry whose
//! cached flows moved to the FEs costs only the state slab — that freed
//! memory is exactly where the paper's #concurrent-flows gain comes from
//! (§6.2.1).
//!
//! Aging (§2.2.2, §7.3): established sessions expire after
//! [`SESSION_AGING`] idle; embryonic (SYN-state) sessions get a much
//! shorter timeout (`VSwitchConfig::syn_aging`) so a SYN flood cannot pin
//! BE memory; closed sessions are reclaimed on sweep.

use crate::config::{MemoryModel, VSwitchConfig};
use nezha_sim::dense::{DenseMap, Interner};
use nezha_sim::resources::{MemoryPool, OutOfMemory};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Direction, PreActionPair, SessionKey, SessionState, TcpState};

/// Idle timeout for established sessions ("an average of 8s", §2.2.2).
pub const SESSION_AGING: SimDuration = SimDuration::from_secs(8);

/// [`SessionEntry::flow`] of an entry with no cached flows.
const NO_FLOW: u32 = u32::MAX;

/// One bidirectional session entry.
#[derive(Clone, Debug)]
pub struct SessionEntry {
    /// The vNIC this session belongs to (for per-vNIC attribution).
    pub vnic: nezha_types::VnicId,
    /// The cached pre-actions for both directions, as an id interned in
    /// the owning table ([`SessionTable::pre_actions`] resolves it);
    /// [`NO_FLOW`] once offloaded to FEs (BE role), after a rule update,
    /// or for entries created without a local rule lookup. Sessions over
    /// one vNIC's rule tables share a few hundred distinct pairs, so the
    /// entry carries 4 bytes instead of the 64-byte pair.
    flow: u32,
    /// The locally-kept session state (single copy).
    pub state: SessionState,
    /// Last packet time, for aging.
    pub last_seen: SimTime,
}

const _: () = assert!(std::mem::size_of::<SessionEntry>() <= 64);

impl SessionEntry {
    /// True while the entry holds cached flows (and is charged
    /// `flow_entry` bytes for them on top of the state slab).
    pub fn has_cached_flows(&self) -> bool {
        self.flow != NO_FLOW
    }

    /// Model bytes the entry is charged: its state slab, plus
    /// `flow_entry` while it holds cached flows.
    pub(crate) fn memory_bytes(&self, m: &MemoryModel) -> u64 {
        m.state_slab
            + if self.has_cached_flows() {
                m.flow_entry
            } else {
                0
            }
    }
}

/// The session table with byte-accounted capacity.
///
/// Backed by a [`DenseMap`]: per-packet lookups are O(1) hash probes
/// instead of ordered-tree walks. Lookup order is never visible;
/// iteration (aging sweeps, flow invalidation) is aggregate-only, so
/// the map's deterministic insertion order — a pure function of the
/// call sequence — preserves byte-identical same-seed runs (determinism
/// constrains iteration, not lookup; see `nezha_sim::dense`).
#[derive(Debug, Default)]
pub struct SessionTable {
    entries: DenseMap<SessionKey, SessionEntry>,
    /// Distinct pre-action values behind the entries' `flow` ids.
    pairs: Interner<PreActionPair>,
    created_total: u64,
    expired_total: u64,
    rejected_total: u64,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(created, expired, rejected-for-memory)` lifetime counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.created_total, self.expired_total, self.rejected_total)
    }

    /// Looks up a session.
    pub fn get(&self, key: &SessionKey) -> Option<&SessionEntry> {
        self.entries.get(key)
    }

    /// Mutable lookup (does not touch aging; call [`SessionTable::touch`]).
    pub fn get_mut(&mut self, key: &SessionKey) -> Option<&mut SessionEntry> {
        self.entries.get_mut(key)
    }

    /// Marks activity on a session.
    pub fn touch(&mut self, key: &SessionKey, now: SimTime) {
        if let Some(e) = self.entries.get_mut(key) {
            e.last_seen = now;
        }
    }

    /// The slot of `key`'s entry, for a caller that returns to one entry
    /// several times per packet ([`SessionTable::at`],
    /// [`SessionTable::at_mut`], [`SessionTable::cache_flows`]) and wants
    /// to probe once. Stays valid across [`SessionTable::establish`];
    /// `remove` and `expire` invalidate it.
    pub fn slot(&self, key: &SessionKey) -> Option<usize> {
        self.entries.index_of(key)
    }

    /// The entry in `slot`.
    pub fn at(&self, slot: usize) -> &SessionEntry {
        self.entries.value_at(slot)
    }

    /// The entry in `slot`, mutably.
    pub fn at_mut(&mut self, slot: usize) -> &mut SessionEntry {
        self.entries.value_at_mut(slot)
    }

    /// The cached pre-actions of `entry` (an entry of this table), if it
    /// holds any.
    pub fn pre_actions(&self, entry: &SessionEntry) -> Option<&PreActionPair> {
        entry
            .has_cached_flows()
            .then(|| self.pairs.resolve(entry.flow))
    }

    /// Caches `pair` on the entry in `slot` (an entry re-caching after
    /// [`SessionTable::invalidate_flows`]) when `pool` has room for its
    /// `flow_entry` bytes. Returns whether it cached.
    pub fn cache_flows(
        &mut self,
        slot: usize,
        pair: PreActionPair,
        pool: &mut MemoryPool,
        m: &MemoryModel,
    ) -> bool {
        let e = self.entries.value_at_mut(slot);
        debug_assert!(!e.has_cached_flows(), "flow entry charged twice");
        if pool.alloc(m.flow_entry).is_err() {
            return false;
        }
        e.flow = self.pairs.intern(pair);
        true
    }

    /// Removes one session, releasing its memory.
    pub fn remove(&mut self, key: &SessionKey, pool: &mut MemoryPool, m: &MemoryModel) {
        if let Some(e) = self.entries.remove(key) {
            pool.free(e.memory_bytes(m));
        }
    }

    /// Drops the cached pre-actions of **every** entry (keeping state),
    /// releasing their flow-entry bytes. Two callers in the paper: a
    /// rule-table change — "the associated cached flows are invalidated
    /// and deleted, which will be regenerated after subsequent rule table
    /// lookups" (§3.2.2) — and the BE entering Nezha's final stage — "we
    /// can delete the rule tables and cached flows on the BE" (§4.2.1).
    /// Returns how many entries were invalidated (`flow_entry` bytes each).
    pub fn invalidate_flows(&mut self, pool: &mut MemoryPool, m: &MemoryModel) -> usize {
        let mut n = 0;
        for e in self.entries.values_mut() {
            n += usize::from(e.has_cached_flows());
            e.flow = NO_FLOW;
        }
        // No entry holds an id any more: the old rule generation's
        // pre-action values go with it.
        self.pairs.clear();
        pool.free(n as u64 * m.flow_entry);
        n
    }

    /// Sweeps expired sessions at `now` under the aging policy of `cfg`.
    /// Returns the number of entries reclaimed.
    pub fn expire(&mut self, now: SimTime, cfg: &VSwitchConfig, pool: &mut MemoryPool) -> usize {
        let m = &cfg.memory;
        let mut freed_bytes = 0;
        let before = self.entries.len();
        self.entries.retain(|_, e| {
            let idle = now.since(e.last_seen);
            let timeout = if e.state.tcp.is_closed() {
                // Closed sessions reclaim on the next sweep.
                SimDuration::ZERO
            } else if e.state.tcp.is_embryonic() {
                cfg.syn_aging
            } else {
                SESSION_AGING
            };
            let keep = idle <= timeout;
            if !keep {
                freed_bytes += e.memory_bytes(m);
            }
            keep
        });
        pool.free(freed_bytes);
        let expired = before - self.entries.len();
        self.expired_total += expired as u64;
        expired
    }

    /// Creates and inserts a new session — a first packet in direction
    /// `dir` with optional cached pre-actions — charging `pool`. On
    /// memory exhaustion the insert is rejected: the overload condition
    /// behind the paper's #concurrent-flows hotspots.
    #[expect(
        clippy::too_many_arguments,
        reason = "key, vNIC, direction and pre-actions come from the packet, the clock from the engine, pool and model from the vSwitch: three owners, no struct to borrow them from together"
    )]
    pub fn establish(
        &mut self,
        key: SessionKey,
        vnic: nezha_types::VnicId,
        dir: Direction,
        pre_actions: Option<PreActionPair>,
        now: SimTime,
        pool: &mut MemoryPool,
        m: &MemoryModel,
    ) -> Result<&mut SessionEntry, OutOfMemory> {
        let bytes = m.state_slab + pre_actions.map_or(0, |_| m.flow_entry);
        pool.alloc(bytes).inspect_err(|_e| {
            self.rejected_total += 1;
        })?;
        let mut state = SessionState::first_packet(dir);
        state.tcp = TcpState::None;
        let entry = SessionEntry {
            vnic,
            flow: pre_actions.map_or(NO_FLOW, |pair| self.pairs.intern(pair)),
            state,
            last_seen: now,
        };
        let (stored, previous) = self.entries.insert_entry(key, entry);
        debug_assert!(previous.is_none(), "duplicate session insert");
        self.created_total += 1;
        Ok(stored)
    }

    /// Iterates over `(key, entry)` pairs (stable only within one run).
    pub fn iter(&self) -> impl Iterator<Item = (&SessionKey, &SessionEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_sim::time::SimDuration;
    use nezha_types::{FiveTuple, Ipv4Addr, VpcId};

    fn key(n: u16) -> SessionKey {
        SessionKey::of(
            VpcId(1),
            FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                1000 + n,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
        )
    }

    fn setup() -> (SessionTable, MemoryPool, VSwitchConfig) {
        (
            SessionTable::new(),
            MemoryPool::new(10_000),
            VSwitchConfig::default(),
        )
    }

    #[test]
    fn establish_charges_full_entry() {
        let (mut t, mut pool, cfg) = setup();
        t.establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
        assert_eq!(pool.used(), 100 + 64);
        assert_eq!(t.len(), 1);
        assert_eq!(t.counters().0, 1);
    }

    #[test]
    fn stateless_be_entry_costs_only_slab() {
        let (mut t, mut pool, cfg) = setup();
        t.establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Rx,
            None,
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
        assert_eq!(pool.used(), 64);
    }

    #[test]
    fn memory_exhaustion_rejects_new_sessions() {
        let (mut t, _, cfg) = setup();
        let mut pool = MemoryPool::new(200); // room for exactly one full entry
        t.establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
        let err = t.establish(
            key(2),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        );
        assert!(err.is_err());
        assert_eq!(t.counters().2, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn invalidate_flows_multiplies_capacity() {
        // The §6.2.1 mechanism: dropping 100 B of flow entry per session
        // leaves 64 B entries — the same pool then fits ~2.5x the sessions.
        let (mut t, _, cfg) = setup();
        let mut pool = MemoryPool::new(164 * 10);
        for i in 0..10 {
            t.establish(
                key(i),
                nezha_types::VnicId(0),
                Direction::Tx,
                Some(PreActionPair::accept(None, None)),
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        }
        assert_eq!(pool.available(), 0);
        assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 10);
        assert_eq!(pool.available(), 1000);
        // 1000 freed bytes now fit 15 more state-only sessions.
        for i in 10..25 {
            t.establish(
                key(i),
                nezha_types::VnicId(0),
                Direction::Tx,
                None,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        }
        assert_eq!(t.len(), 25);
    }

    #[test]
    fn aging_established_vs_embryonic() {
        let (mut t, mut pool, cfg) = setup();
        // Established session.
        let e = t
            .establish(
                key(1),
                nezha_types::VnicId(0),
                Direction::Tx,
                None,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        e.state.tcp = TcpState::Established;
        // Embryonic session.
        let e = t
            .establish(
                key(2),
                nezha_types::VnicId(0),
                Direction::Tx,
                None,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        e.state.tcp = TcpState::SynSent;

        // After 2 s (> syn_aging 1 s, < SESSION_AGING 8 s): SYN expires.
        let n = t.expire(SimTime(2_000_000_000), &cfg, &mut pool);
        assert_eq!(n, 1);
        assert!(t.get(&key(1)).is_some());
        assert!(t.get(&key(2)).is_none());

        // After 10 s idle the established one goes too.
        let n = t.expire(SimTime(10_000_000_000), &cfg, &mut pool);
        assert_eq!(n, 1);
        assert!(t.is_empty());
        assert_eq!(pool.used(), 0);
        assert_eq!(t.counters().1, 2);
    }

    #[test]
    fn touch_resets_aging_clock() {
        let (mut t, mut pool, cfg) = setup();
        let e = t
            .establish(
                key(1),
                nezha_types::VnicId(0),
                Direction::Tx,
                None,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        e.state.tcp = TcpState::Established;
        t.touch(&key(1), SimTime(7_000_000_000));
        // 8 s after creation but only 1 s after the touch: still alive.
        assert_eq!(t.expire(SimTime(8_000_000_000), &cfg, &mut pool), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn closed_sessions_reclaim_on_sweep() {
        let (mut t, mut pool, cfg) = setup();
        let e = t
            .establish(
                key(1),
                nezha_types::VnicId(0),
                Direction::Tx,
                None,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .unwrap();
        e.state.tcp = TcpState::Closed;
        assert_eq!(
            t.expire(SimTime(0) + SimDuration::from_millis(1), &cfg, &mut pool),
            1
        );
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_flows_keeps_state() {
        let (mut t, mut pool, cfg) = setup();
        t.establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
        assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 1);
        let e = t.get(&key(1)).unwrap();
        assert!(!e.has_cached_flows());
        assert!(t.pre_actions(e).is_none());
        // No entry holds an id: the interned values went with the flows.
        assert!(t.pairs.is_empty());
        assert_eq!(e.state.first_dir, Some(Direction::Tx));
        assert_eq!(pool.used(), 64);
        // Idempotent.
        assert_eq!(t.invalidate_flows(&mut pool, &cfg.memory), 0);
    }

    #[test]
    fn remove_releases_memory() {
        let (mut t, mut pool, cfg) = setup();
        t.establish(
            key(1),
            nezha_types::VnicId(0),
            Direction::Tx,
            Some(PreActionPair::accept(None, None)),
            SimTime(0),
            &mut pool,
            &cfg.memory,
        )
        .unwrap();
        t.remove(&key(1), &mut pool, &cfg.memory);
        assert_eq!(pool.used(), 0);
        // Removing a missing key is a no-op.
        t.remove(&key(1), &mut pool, &cfg.memory);
        assert_eq!(pool.used(), 0);
    }
}
