//! The gateway's vNIC→server table, with learning-delay semantics.
//!
//! The authoritative table lives at the gateway; vSwitches learn entries
//! on demand with a [`LEARNING_INTERVAL`] of 200 ms (§4.2.1). During an
//! offload (or fallback, or failover), an entry changes from one server
//! set to another — but each *sender* keeps using the stale value until
//! its own learning refresh fires. We model this with versioned entries:
//! a change records `(previous, current, switch_at)`, and a sender
//! resolves to `previous` until `switch_at + jitter(sender)`, where the
//! deterministic per-sender jitter is uniform over one learning interval.
//!
//! This is exactly the mechanism that forces Nezha's **dual-running
//! stage**: for up to `learning interval + RTT` after a change, packets
//! keep arriving at the old location, which must still be able to process
//! them (§4.2.1).

use nezha_sim::dense::DenseMap;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Ipv4Addr, ServerId};

/// How long a sender keeps using a stale entry after a change: the
/// vSwitches' gateway-learning interval (200 ms in production, §4.2.1).
/// The region simulator's offload completion adds the same interval.
pub const LEARNING_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// One versioned gateway entry.
#[derive(Clone, Debug)]
struct VersionedEntry {
    current: Vec<ServerId>,
    previous: Vec<ServerId>,
    switch_at: SimTime,
}

/// The gateway table.
#[derive(Clone, Debug, Default)]
pub struct Gateway {
    /// Dense-hashed: `select` probes this (and `pins`) once per RX
    /// packet; neither map is ever iterated order-visibly (`unpin_*`
    /// retains are pure filters).
    entries: DenseMap<Ipv4Addr, VersionedEntry>,
    /// Exact-flow overrides: `(vNIC address, flow hash) → server`. Used to
    /// steer a pinned elephant flow to its dedicated FE while the general
    /// entry spreads everything else (§7.5).
    pins: DenseMap<(Ipv4Addr, u64), ServerId>,
}

impl Gateway {
    /// Creates an empty gateway.
    pub fn new() -> Self {
        Gateway::default()
    }

    /// Installs an exact-flow override steering `flow_hash` of `addr` to
    /// one server (elephant pinning, §7.5).
    pub fn pin(&mut self, addr: Ipv4Addr, flow_hash: u64, server: ServerId) {
        self.pins.insert((addr, flow_hash), server);
    }

    /// Removes every override of `addr` that steers to `server` — called
    /// when that server stops being one of the vNIC's FEs (failover,
    /// scale-in), so a dead pin cannot blackhole its flow.
    pub fn unpin_server(&mut self, addr: Ipv4Addr, server: ServerId) {
        self.pins.retain(|(a, _), s| *a != addr || *s != server);
    }

    /// Removes every override of `addr` (fallback: no FEs remain).
    pub fn unpin_addr(&mut self, addr: Ipv4Addr) {
        self.pins.retain(|(a, _), _| *a != addr);
    }

    /// Installs or replaces the mapping for `addr`, effective for each
    /// sender within one [`LEARNING_INTERVAL`] of `now`.
    pub fn update(&mut self, addr: Ipv4Addr, servers: Vec<ServerId>, now: SimTime) {
        assert!(
            !servers.is_empty(),
            "gateway entry needs at least one server"
        );
        let previous = self
            .entries
            .get(&addr)
            .map(|e| e.current.clone())
            .unwrap_or_else(|| servers.clone());
        self.entries.insert(
            addr,
            VersionedEntry {
                current: servers,
                previous,
                switch_at: now,
            },
        );
    }

    /// Deterministic per-sender learning jitter in `[0, LEARNING_INTERVAL)`.
    fn jitter(sender: ServerId) -> SimDuration {
        let h = (sender.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
        SimDuration(h % LEARNING_INTERVAL.nanos())
    }

    /// Resolves `addr` as seen by `sender` at `now`: stale senders still
    /// see the previous mapping. Returns the full server set; the caller
    /// selects one by flow hash.
    pub fn resolve(&self, addr: Ipv4Addr, sender: ServerId, now: SimTime) -> Option<&[ServerId]> {
        let e = self.entries.get(&addr)?;
        let learned_at = e.switch_at + Gateway::jitter(sender);
        if now < learned_at {
            Some(&e.previous)
        } else {
            Some(&e.current)
        }
    }

    /// Resolves one concrete server for a flow with the given stable hash.
    pub fn select(
        &self,
        addr: Ipv4Addr,
        sender: ServerId,
        flow_hash: u64,
        now: SimTime,
    ) -> Option<ServerId> {
        if let Some(&s) = self.pins.get(&(addr, flow_hash)) {
            return Some(s);
        }
        let servers = self.resolve(addr, sender, now)?;
        if servers.is_empty() {
            None
        } else {
            Some(servers[(flow_hash % servers.len() as u64) as usize])
        }
    }

    /// The authoritative (post-learning) mapping, ignoring staleness.
    pub fn current(&self, addr: Ipv4Addr) -> Option<&[ServerId]> {
        self.entries.get(&addr).map(|e| e.current.as_slice())
    }

    /// Number of mapped addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the gateway has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gw() -> Gateway {
        Gateway::new()
    }

    #[test]
    fn initial_entry_is_visible_immediately() {
        let mut g = gw();
        g.update(Ipv4Addr::new(10, 0, 0, 1), vec![ServerId(3)], SimTime(0));
        // First install: previous == current, so staleness is harmless.
        assert_eq!(
            g.select(Ipv4Addr::new(10, 0, 0, 1), ServerId(7), 0, SimTime(0)),
            Some(ServerId(3))
        );
    }

    #[test]
    fn senders_learn_within_one_interval() {
        let mut g = gw();
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        g.update(addr, vec![ServerId(1)], SimTime(0));
        let t1 = SimTime(10_000_000_000);
        g.update(addr, vec![ServerId(2)], t1);

        // Immediately after the switch, some sender with nonzero jitter
        // still sees the old value.
        let mut saw_stale = false;
        let mut saw_fresh = false;
        for s in 0..64 {
            match g.select(addr, ServerId(s), 0, t1) {
                Some(ServerId(1)) => saw_stale = true,
                Some(ServerId(2)) => saw_fresh = true,
                _ => {}
            }
        }
        assert!(
            saw_stale,
            "some sender should still be stale at switch time"
        );
        let _ = saw_fresh; // jitter may or may not include ~0 for these ids

        // One full learning interval later, everyone sees the new value.
        let t2 = t1 + LEARNING_INTERVAL;
        for s in 0..64 {
            assert_eq!(g.select(addr, ServerId(s), 0, t2), Some(ServerId(2)));
        }
        // The bound holds for every sender, not only the ones sampled.
        for s in 0..4096 {
            assert_eq!(g.resolve(addr, ServerId(s), t2), Some(&[ServerId(2)][..]));
        }
    }

    #[test]
    fn select_uses_flow_hash_across_fes() {
        let mut g = gw();
        let addr = Ipv4Addr::new(10, 0, 0, 9);
        g.update(
            addr,
            vec![ServerId(1), ServerId(2), ServerId(3)],
            SimTime(0),
        );
        let t = SimTime(0) + LEARNING_INTERVAL;
        let picks: Vec<_> = (0u64..6)
            .map(|h| g.select(addr, ServerId(0), h, t).unwrap())
            .collect();
        assert_eq!(
            picks,
            vec![
                ServerId(1),
                ServerId(2),
                ServerId(3),
                ServerId(1),
                ServerId(2),
                ServerId(3)
            ]
        );
    }

    #[test]
    fn unknown_addr_resolves_none() {
        let g = gw();
        assert!(g
            .resolve(Ipv4Addr::new(1, 2, 3, 4), ServerId(0), SimTime(0))
            .is_none());
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn current_ignores_staleness() {
        let mut g = gw();
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        g.update(addr, vec![ServerId(1)], SimTime(0));
        g.update(addr, vec![ServerId(2)], SimTime(1));
        assert_eq!(g.current(addr), Some(&[ServerId(2)][..]));
    }

    #[test]
    fn flow_pins_override_the_hash() {
        let mut g = gw();
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        g.update(addr, vec![ServerId(1), ServerId(2)], SimTime(0));
        let t = SimTime(0) + LEARNING_INTERVAL;
        let h = 12345u64;
        let unpinned = g.select(addr, ServerId(0), h, t).unwrap();
        let target = ServerId(if unpinned == ServerId(1) { 2 } else { 1 });
        g.pin(addr, h, target);
        assert_eq!(g.select(addr, ServerId(0), h, t), Some(target));
        // Other hashes unaffected.
        assert!(g.select(addr, ServerId(0), h + 1, t).is_some());
        // Unpinning another server leaves the override; unpinning its
        // target removes it.
        g.unpin_server(addr, unpinned);
        assert_eq!(g.select(addr, ServerId(0), h, t), Some(target));
        g.unpin_server(addr, target);
        assert_eq!(g.select(addr, ServerId(0), h, t), Some(unpinned));
    }

    #[test]
    fn jitter_is_deterministic_per_sender() {
        let mut g = gw();
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        g.update(addr, vec![ServerId(1)], SimTime(0));
        g.update(addr, vec![ServerId(2)], SimTime(1_000_000_000));
        let a = g.select(addr, ServerId(42), 0, SimTime(1_050_000_000));
        let b = g.select(addr, ServerId(42), 0, SimTime(1_050_000_000));
        assert_eq!(a, b);
    }
}
