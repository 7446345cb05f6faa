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
//! Flow statistics (1 + 32 B, §7.1) exist only for a session under a
//! statistics policy, so the table keeps them in a side map rather than
//! in every entry: an entry is 32 bytes, and a session without a policy
//! never touches the map.
//!
//! Aging (§2.2.2, §7.3): established sessions expire after
//! [`SESSION_AGING`] idle; embryonic (SYN-state) sessions get a much
//! shorter timeout (`VSwitchConfig::syn_aging`) so a SYN flood cannot pin
//! BE memory; closed sessions are reclaimed on sweep.

use crate::config::{MemoryModel, VSwitchConfig};
use nezha_sim::dense::{DenseMap, Interner};
use nezha_sim::resources::{MemoryPool, OutOfMemory};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Direction, PreActionPair, SessionKey, SessionState, StatsState, TcpState};

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

const _: () = assert!(std::mem::size_of::<SessionEntry>() <= 32);

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
    /// Flow statistics of the sessions under a statistics policy that
    /// have counted a packet ([`SessionTable::record_stats`]).
    stats: DenseMap<SessionKey, StatsState>,
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

    /// Counts one packet of `bytes` in direction `dir` in the flow
    /// statistics of `key`'s session, when its entry is under a
    /// statistics policy (`stats_policy != 0`): only those sessions'
    /// counters are dropped by [`SessionTable::remove`] and
    /// [`SessionTable::expire`]. Callers check the policy on the entry
    /// they already hold first, so a packet of a flow without one costs
    /// no probe here.
    pub fn record_stats(&mut self, key: SessionKey, dir: Direction, bytes: u64) {
        let entry = self.entries.get(&key);
        if entry.is_none_or(|e| e.state.stats_policy == 0) {
            return;
        }
        match self.stats.get_mut(&key) {
            Some(s) => s.record(dir, bytes),
            None => {
                let mut s = StatsState::default();
                s.record(dir, bytes);
                self.stats.insert(key, s);
            }
        }
    }

    /// The flow statistics of `key`'s session: zero for a session that
    /// has counted nothing (no policy, or none yet).
    pub fn stats(&self, key: &SessionKey) -> StatsState {
        self.stats.get(key).copied().unwrap_or_default()
    }

    /// Removes one session, releasing its memory and its counters.
    pub fn remove(&mut self, key: &SessionKey, pool: &mut MemoryPool, m: &MemoryModel) {
        if let Some(e) = self.entries.remove(key) {
            pool.free(e.memory_bytes(m));
            if e.state.stats_policy != 0 {
                self.stats.remove(key);
            }
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

    /// Sweeps expired sessions at `now` under the aging policy of `cfg`,
    /// with their counters. Returns the number of entries reclaimed.
    pub fn expire(&mut self, now: SimTime, cfg: &VSwitchConfig, pool: &mut MemoryPool) -> usize {
        let m = &cfg.memory;
        let mut freed_bytes = 0;
        let before = self.entries.len();
        let stats = &mut self.stats;
        self.entries.retain(|key, e| {
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
                if e.state.stats_policy != 0 {
                    stats.remove(key);
                }
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
#[path = "session_tests.rs"]
mod tests;
