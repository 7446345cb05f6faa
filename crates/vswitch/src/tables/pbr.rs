//! Policy-based routing — the first of the "advanced features" §2.2.2
//! names ("policy-based routing, traffic mirroring, or flow logging").
//!
//! PBR overrides the destination-driven VXLAN route by *source*: traffic
//! from designated prefixes is steered through an inspection or egress
//! point regardless of where the destination table would send it.
//! Stateless tenant configuration, so — like every other rule table — it
//! replicates to FEs verbatim.

use nezha_types::Ipv4Addr;

/// One policy route.
#[derive(Clone, Copy, Debug)]
pub struct PbrRule {
    /// Matched *source* prefix.
    pub src_prefix: (Ipv4Addr, u8),
    /// Overlay next hop overriding the route-table result.
    pub via: Ipv4Addr,
}

/// The policy-based routing table: longest source prefix wins.
#[derive(Clone, Debug, Default)]
pub struct PbrTable {
    rules: Vec<PbrRule>,
}

impl PbrTable {
    /// An empty table (no overrides).
    pub fn new() -> Self {
        PbrTable::default()
    }

    /// Adds a rule.
    pub fn insert(&mut self, rule: PbrRule) {
        self.rules.push(rule);
    }

    /// The override next hop for `src`, if any — longest matching source
    /// prefix wins, insertion order breaking ties.
    pub fn lookup(&self, src: Ipv4Addr) -> Option<Ipv4Addr> {
        self.rules
            .iter()
            .filter(|r| src.in_prefix(r.src_prefix.0, r.src_prefix.1))
            .max_by_key(|r| r.src_prefix.1)
            .map(|r| r.via)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no overrides exist.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Memory footprint under the given per-rule cost.
    pub fn memory_bytes(&self, per_rule: u64) -> u64 {
        self.rules.len() as u64 * per_rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_source_prefix_wins() {
        let mut t = PbrTable::new();
        t.insert(PbrRule {
            src_prefix: (Ipv4Addr::new(10, 1, 0, 0), 16),
            via: Ipv4Addr::new(192, 168, 0, 1),
        });
        t.insert(PbrRule {
            src_prefix: (Ipv4Addr::new(10, 1, 2, 0), 24),
            via: Ipv4Addr::new(192, 168, 0, 2),
        });
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 1, 2, 9)),
            Some(Ipv4Addr::new(192, 168, 0, 2))
        );
        assert_eq!(
            t.lookup(Ipv4Addr::new(10, 1, 9, 9)),
            Some(Ipv4Addr::new(192, 168, 0, 1))
        );
        assert_eq!(t.lookup(Ipv4Addr::new(10, 2, 0, 1)), None);
    }

    #[test]
    fn accounting() {
        let mut t = PbrTable::new();
        assert!(t.is_empty());
        t.insert(PbrRule {
            src_prefix: (Ipv4Addr::UNSPECIFIED, 0),
            via: Ipv4Addr::new(1, 1, 1, 1),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.memory_bytes(24), 24);
    }
}
