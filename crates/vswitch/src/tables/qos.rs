//! The QoS/meter table: classifies flows and enforces per-class rates.
//!
//! The slow path queries QoS to stamp a class into the pre-action; the
//! fast path then only consults the class's token bucket. Rate limiting at
//! VM granularity is exactly the operation the paper notes becomes a
//! *distributed* rate-limiting problem under Sirius's bucket spreading —
//! and stays a purely local one under Nezha, because all of a vNIC's
//! classification state lives in its rule tables which every FE holds in
//! full (§2.3.3, §3.2.3).

use super::acl::PortRange;
use nezha_sim::resources::TokenBucket;
use nezha_sim::time::SimTime;

/// One QoS classification rule.
#[derive(Clone, Copy, Debug)]
pub struct QosRule {
    /// Destination-port range selecting the class.
    pub dst_ports: PortRange,
    /// Class stamped into the pre-action (0 = best effort).
    pub class: u8,
}

/// Per-class rate limit.
#[derive(Clone, Copy, Debug)]
pub struct ClassLimit {
    /// Class the limit applies to.
    pub class: u8,
    /// Sustained rate in bytes per second.
    pub rate_bytes_per_sec: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: f64,
}

/// The QoS table: classification rules plus per-class token buckets.
#[derive(Debug, Clone, Default)]
pub struct QosTable {
    rules: Vec<QosRule>,
    limits: Vec<(u8, TokenBucket)>,
}

impl QosTable {
    /// An empty table: everything is class 0, unlimited.
    pub fn new() -> Self {
        QosTable::default()
    }

    /// Adds a classification rule (first match wins).
    pub fn add_rule(&mut self, rule: QosRule) {
        self.rules.push(rule);
    }

    /// Installs a rate limit for a class.
    pub fn add_limit(&mut self, limit: ClassLimit) {
        self.limits.push((
            limit.class,
            TokenBucket::new(limit.rate_bytes_per_sec, limit.burst_bytes),
        ));
    }

    /// Classifies a destination port.
    pub fn classify(&self, dst_port: u16) -> u8 {
        self.rules
            .iter()
            .find(|r| r.dst_ports.contains(dst_port))
            .map_or(0, |r| r.class)
    }

    /// Admits `bytes` for `class` at `now`; classes without a limit always
    /// admit. Returns false when the packet exceeds the class rate.
    pub fn admit(&mut self, now: SimTime, class: u8, bytes: u64) -> bool {
        match self.limits.iter_mut().find(|(c, _)| *c == class) {
            Some((_, tb)) => tb.admit(now, bytes as f64),
            None => true,
        }
    }

    /// Number of classification rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no classification rules exist.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Memory footprint under the given per-rule cost.
    pub fn memory_bytes(&self, per_rule: u64) -> u64 {
        (self.rules.len() + self.limits.len()) as u64 * per_rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_first_match() {
        let mut q = QosTable::new();
        q.add_rule(QosRule {
            dst_ports: PortRange { lo: 80, hi: 80 },
            class: 2,
        });
        q.add_rule(QosRule {
            dst_ports: PortRange { lo: 0, hi: 1023 },
            class: 1,
        });
        assert_eq!(q.classify(80), 2);
        assert_eq!(q.classify(443), 1);
        assert_eq!(q.classify(8080), 0);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn unlimited_class_always_admits() {
        let mut q = QosTable::new();
        assert!(q.admit(SimTime(0), 0, 1_000_000_000));
    }

    #[test]
    fn limited_class_enforces_rate() {
        let mut q = QosTable::new();
        q.add_limit(ClassLimit {
            class: 3,
            rate_bytes_per_sec: 1000.0,
            burst_bytes: 100.0,
        });
        assert!(q.admit(SimTime(0), 3, 100));
        assert!(!q.admit(SimTime(0), 3, 1));
        // 100 ms refills 100 bytes.
        assert!(q.admit(SimTime(100_000_000), 3, 100));
        // Other classes unaffected.
        assert!(q.admit(SimTime(0), 0, 10_000));
    }

    #[test]
    fn memory_counts_rules_and_limits() {
        let mut q = QosTable::new();
        q.add_rule(QosRule {
            dst_ports: PortRange::ANY,
            class: 1,
        });
        q.add_limit(ClassLimit {
            class: 1,
            rate_bytes_per_sec: 1.0,
            burst_bytes: 1.0,
        });
        assert_eq!(q.memory_bytes(32), 64);
    }
}
