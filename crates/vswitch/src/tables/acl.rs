//! The access-control-list table, with stateful rules.
//!
//! ACL rules match on source/destination prefixes, port ranges, and
//! protocol — the "expensive range matching" of §2.1 — in priority order,
//! first hit wins. A rule may be **stateful**: its verdict is preliminary
//! and the final decision combines it with the session's first-packet
//! direction (§5.1). A default verdict applies when nothing matches.
//!
//! The lookup is a tuple-space search rather than a scan: rules are
//! grouped by their `(source length, destination length)` pair, and each
//! group hashes the masked `(source, destination)` prefix pair to the
//! rules carrying exactly those prefixes. One hash probe per group finds
//! every rule whose prefixes can match; only those run the full
//! [`AclRule::matches`] (direction, ports, protocol).

use nezha_sim::dense::DenseMap;
use nezha_types::{Decision, Direction, FiveTuple, IpProtocol, Ipv4Addr};

/// An inclusive port range. `PortRange::ANY` matches every port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortRange {
    /// Lowest matching port.
    pub lo: u16,
    /// Highest matching port (inclusive).
    pub hi: u16,
}

impl PortRange {
    /// Matches all ports.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// A single-port range.
    pub const fn only(p: u16) -> Self {
        PortRange { lo: p, hi: p }
    }

    /// True when `p` falls inside the range.
    pub const fn contains(&self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// One ACL rule.
#[derive(Clone, Copy, Debug)]
pub struct AclRule {
    /// Priority; lower value = matched first.
    pub priority: u32,
    /// Direction the rule applies to (`None` = both). Security groups are
    /// direction-scoped: egress and ingress rule sets are distinct.
    pub direction: Option<Direction>,
    /// Source prefix (address, length).
    pub src: (Ipv4Addr, u8),
    /// Destination prefix (address, length).
    pub dst: (Ipv4Addr, u8),
    /// Source port range.
    pub src_ports: PortRange,
    /// Destination port range.
    pub dst_ports: PortRange,
    /// Protocol filter (`None` = any).
    pub protocol: Option<IpProtocol>,
    /// Verdict when the rule matches.
    pub decision: Decision,
    /// True when the verdict is connection-based (stateful ACL, §5.1).
    pub stateful: bool,
}

impl AclRule {
    /// A catch-all rule with the given verdict.
    pub const fn catch_all(priority: u32, decision: Decision, stateful: bool) -> Self {
        AclRule {
            priority,
            direction: None,
            src: (Ipv4Addr::UNSPECIFIED, 0),
            dst: (Ipv4Addr::UNSPECIFIED, 0),
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
            protocol: None,
            decision,
            stateful,
        }
    }

    /// True when the rule matches the tuple in the given direction.
    pub fn matches(&self, t: &FiveTuple, dir: Direction) -> bool {
        self.direction.is_none_or(|d| d == dir)
            && t.src_ip.in_prefix(self.src.0, self.src.1)
            && t.dst_ip.in_prefix(self.dst.0, self.dst.1)
            && self.src_ports.contains(t.src_port)
            && self.dst_ports.contains(t.dst_port)
            && self.protocol.is_none_or(|p| p == t.protocol)
    }
}

/// Result of an ACL lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AclVerdict {
    /// The matched (or default) decision.
    pub decision: Decision,
    /// Whether the matched rule was stateful.
    pub stateful: bool,
}

/// Rules that share one `(src_len, dst_len)` pair.
#[derive(Clone, Debug)]
struct Group {
    src_len: u8,
    dst_len: u8,
    /// Position of the group's first rule in priority order; the table
    /// keeps its groups sorted by it.
    first: u32,
    /// Masked `(src, dst)` → positions of the group's rules with exactly
    /// those prefixes, ascending.
    buckets: DenseMap<(u32, u32), Vec<u32>>,
}

/// The ACL table: rules in priority order plus a default verdict.
///
/// `Default` is [`AclTable::allow_all`] — the permissive stateless table.
#[derive(Clone, Debug)]
pub struct AclTable {
    rules: Vec<AclRule>,
    /// The lookup index over `rules`, built at insert time.
    groups: Vec<Group>,
    /// Default verdict for egress traffic when no rule matches.
    default_tx: AclVerdict,
    /// Default verdict for ingress traffic when no rule matches. Cloud
    /// security groups typically default-deny inbound *statefully*:
    /// unsolicited ingress drops, but replies to locally initiated
    /// connections pass (§5.1).
    default_rx: AclVerdict,
}

impl Default for AclTable {
    fn default() -> Self {
        AclTable::allow_all()
    }
}

impl AclTable {
    /// An empty table with the given per-direction defaults.
    pub fn new(default_tx: AclVerdict, default_rx: AclVerdict) -> Self {
        AclTable {
            rules: Vec::new(),
            groups: Vec::new(),
            default_tx,
            default_rx,
        }
    }

    /// A permissive table: accept everything, stateless, both directions.
    pub fn allow_all() -> Self {
        let accept = AclVerdict {
            decision: Decision::Accept,
            stateful: false,
        };
        AclTable::new(accept, accept)
    }

    /// The classic security-group shape: egress default-accept (stateful,
    /// so return traffic of an inbound-accepted session also passes),
    /// ingress default-deny *stateful* (replies to locally initiated
    /// connections pass, unsolicited traffic drops — §5.1).
    pub fn security_group() -> Self {
        AclTable::new(
            AclVerdict {
                decision: Decision::Accept,
                stateful: true,
            },
            AclVerdict {
                decision: Decision::Drop,
                stateful: true,
            },
        )
    }

    /// Inserts a rule, keeping priority order (stable for equal priority).
    /// An append indexes the one new rule; an insert before the last rule
    /// shifts every later position, so it rebuilds the index.
    pub fn insert(&mut self, rule: AclRule) {
        let pos = self.rules.partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(pos, rule);
        if pos + 1 == self.rules.len() {
            self.index(pos);
        } else {
            self.groups.clear();
            for i in 0..self.rules.len() {
                self.index(i);
            }
        }
    }

    /// Files the rule at `pos`, which must be after every indexed rule.
    fn index(&mut self, pos: usize) {
        let r = &self.rules[pos];
        let lens = (r.src.1, r.dst.1);
        let key = (r.src.0.masked(lens.0).0, r.dst.0.masked(lens.1).0);
        let pos = pos as u32;
        let g = match self
            .groups
            .iter()
            .position(|g| (g.src_len, g.dst_len) == lens)
        {
            Some(g) => g,
            None => {
                self.groups.push(Group {
                    src_len: lens.0,
                    dst_len: lens.1,
                    first: pos,
                    buckets: DenseMap::new(),
                });
                self.groups.len() - 1
            }
        };
        let buckets = &mut self.groups[g].buckets;
        match buckets.get_mut(&key) {
            Some(bucket) => bucket.push(pos),
            None => {
                buckets.insert(key, vec![pos]);
            }
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the table holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Clears all rules.
    pub fn clear(&mut self) {
        self.rules.clear();
        self.groups.clear();
    }

    /// The rules in lookup order: by priority, then insertion.
    #[cfg(test)]
    pub(crate) fn rules(&self) -> &[AclRule] {
        &self.rules
    }

    /// The verdict for a packet of direction `dir` that no rule matches.
    pub(crate) fn default_verdict(&self, dir: Direction) -> AclVerdict {
        match dir {
            Direction::Tx => self.default_tx,
            Direction::Rx => self.default_rx,
        }
    }

    /// First-hit lookup in priority order; falls back to the direction's
    /// default.
    ///
    /// Visits the groups in order of their first rule and each group's
    /// one bucket the tuple hashes to, stopping at the first position
    /// past the best match so far: the result is the first matching rule
    /// of a full scan, without the scan.
    pub fn lookup(&self, t: &FiveTuple, dir: Direction) -> AclVerdict {
        let mut best = self.rules.len();
        for g in &self.groups {
            if g.first as usize >= best {
                break;
            }
            let key = (t.src_ip.masked(g.src_len).0, t.dst_ip.masked(g.dst_len).0);
            let Some(bucket) = g.buckets.get(&key) else {
                continue;
            };
            for &p in bucket {
                let p = p as usize;
                if p >= best {
                    break;
                }
                if self.rules[p].matches(t, dir) {
                    best = p;
                    break;
                }
            }
        }
        match self.rules.get(best) {
            Some(r) => AclVerdict {
                decision: r.decision,
                stateful: r.stateful,
            },
            None => self.default_verdict(dir),
        }
    }

    /// Memory footprint under the given per-rule cost.
    pub fn memory_bytes(&self, per_rule: u64) -> u64 {
        self.rules.len() as u64 * per_rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16) -> FiveTuple {
        FiveTuple::tcp(src, sp, dst, dp)
    }

    fn table(default_tx: Decision, default_rx: Decision, stateful: bool) -> AclTable {
        AclTable::new(
            AclVerdict {
                decision: default_tx,
                stateful,
            },
            AclVerdict {
                decision: default_rx,
                stateful,
            },
        )
    }

    #[test]
    fn port_range_semantics() {
        assert!(PortRange::ANY.contains(0));
        assert!(PortRange::ANY.contains(65535));
        let r = PortRange { lo: 100, hi: 200 };
        assert!(r.contains(100) && r.contains(200) && r.contains(150));
        assert!(!r.contains(99) && !r.contains(201));
        assert!(PortRange::only(443).contains(443));
        assert!(!PortRange::only(443).contains(444));
    }

    #[test]
    fn priority_order_first_hit_wins() {
        let mut acl = table(Decision::Accept, Decision::Accept, false);
        // Low priority: drop everything from 10/8.
        acl.insert(AclRule {
            priority: 10,
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(10, Decision::Drop, false)
        });
        // Higher priority (lower number): allow 10.1/16.
        acl.insert(AclRule {
            priority: 1,
            src: (Ipv4Addr::new(10, 1, 0, 0), 16),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let allowed = t(Ipv4Addr::new(10, 1, 2, 3), 1, Ipv4Addr::new(8, 8, 8, 8), 80);
        let denied = t(Ipv4Addr::new(10, 2, 2, 3), 1, Ipv4Addr::new(8, 8, 8, 8), 80);
        assert_eq!(
            acl.lookup(&allowed, Direction::Tx).decision,
            Decision::Accept
        );
        assert_eq!(acl.lookup(&denied, Direction::Tx).decision, Decision::Drop);
        assert_eq!(acl.len(), 2);
    }

    #[test]
    fn port_and_protocol_filters() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        acl.insert(AclRule {
            dst_ports: PortRange::only(443),
            protocol: Some(IpProtocol::Tcp),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let https = t(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        let http = t(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 80);
        let udp443 = FiveTuple::udp(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        assert_eq!(acl.lookup(&https, Direction::Tx).decision, Decision::Accept);
        assert_eq!(acl.lookup(&http, Direction::Tx).decision, Decision::Drop);
        assert_eq!(acl.lookup(&udp443, Direction::Tx).decision, Decision::Drop);
    }

    #[test]
    fn security_group_defaults_are_direction_scoped() {
        let acl = AclTable::security_group();
        let tuple = t(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let rx = acl.lookup(&tuple, Direction::Rx);
        assert_eq!(rx.decision, Decision::Drop);
        assert!(rx.stateful);
        let tx = acl.lookup(&tuple, Direction::Tx);
        assert_eq!(tx.decision, Decision::Accept);
        assert!(tx.stateful);
        assert!(acl.is_empty());
    }

    #[test]
    fn direction_scoped_rules_only_match_their_direction() {
        let mut acl = AclTable::security_group();
        acl.insert(AclRule {
            direction: Some(Direction::Rx),
            dst_ports: PortRange::only(22),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let ssh = t(Ipv4Addr::new(9, 9, 9, 9), 5, Ipv4Addr::new(10, 0, 0, 1), 22);
        assert_eq!(acl.lookup(&ssh, Direction::Rx).decision, Decision::Accept);
        // The same tuple as egress misses the RX-scoped rule and falls to
        // the TX default (accept, stateful).
        let v = acl.lookup(&ssh, Direction::Tx);
        assert_eq!(v.decision, Decision::Accept);
        assert!(v.stateful);
    }

    #[test]
    fn memory_scales_with_rules() {
        let mut acl = AclTable::allow_all();
        assert_eq!(acl.memory_bytes(64), 0);
        for i in 0..10 {
            acl.insert(AclRule::catch_all(i, Decision::Accept, false));
        }
        assert_eq!(acl.memory_bytes(64), 640);
        acl.clear();
        assert_eq!(acl.memory_bytes(64), 0);
    }

    #[test]
    fn equal_priority_is_stable_insertion_order() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        acl.insert(AclRule {
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(5, Decision::Accept, false)
        });
        acl.insert(AclRule {
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(5, Decision::Drop, false)
        });
        // The first-inserted accept wins at equal priority.
        let v = acl.lookup(
            &t(Ipv4Addr::new(10, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            Direction::Tx,
        );
        assert_eq!(v.decision, Decision::Accept);
    }

    /// The testbed's shape: 100 appended `/24` rules, then a priority-0
    /// inbound-port rule inserted at the front, which rebuilds the index.
    #[test]
    fn front_insert_rebuilds_the_index() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        for i in 0..100u32 {
            acl.insert(AclRule {
                dst: (Ipv4Addr(0x0a07_0000 + (i << 8)), 24),
                dst_ports: PortRange::only(i as u16),
                ..AclRule::catch_all(i + 1, Decision::Accept, false)
            });
        }
        assert_eq!(acl.groups.len(), 1);
        let to = |host: u32, port| {
            t(
                Ipv4Addr::new(1, 1, 1, 1),
                1,
                Ipv4Addr(0x0a07_0000 + host),
                port,
            )
        };
        assert_eq!(
            acl.lookup(&to(0x0305, 3), Direction::Tx).decision,
            Decision::Accept
        );
        assert_eq!(
            acl.lookup(&to(0x0305, 4), Direction::Tx).decision,
            Decision::Drop
        );
        acl.insert(AclRule {
            direction: Some(Direction::Rx),
            dst_ports: PortRange::only(4),
            ..AclRule::catch_all(0, Decision::Accept, false)
        });
        // The catch-all group now comes first.
        assert_eq!(
            acl.groups
                .iter()
                .map(|g| (g.src_len, g.dst_len, g.first))
                .collect::<Vec<_>>(),
            vec![(0, 0, 0), (0, 24, 1)]
        );
        assert_eq!(
            acl.lookup(&to(0x0305, 4), Direction::Rx).decision,
            Decision::Accept
        );
        assert_eq!(
            acl.lookup(&to(0x0305, 4), Direction::Tx).decision,
            Decision::Drop
        );
        assert_eq!(
            acl.lookup(&to(0x0305, 3), Direction::Rx).decision,
            Decision::Accept
        );
        acl.clear();
        assert!(acl.groups.is_empty());
        assert_eq!(
            acl.lookup(&to(0x0305, 3), Direction::Rx).decision,
            Decision::Drop
        );
    }

    /// A better-placed rule in a later-indexed bucket of an earlier group
    /// still wins over an earlier group's later rule.
    #[test]
    fn best_position_wins_across_groups() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        let ten = (Ipv4Addr::new(10, 0, 0, 0), 8);
        acl.insert(AclRule {
            dst: ten,
            dst_ports: PortRange::only(80),
            ..AclRule::catch_all(1, Decision::Drop, true)
        });
        acl.insert(AclRule {
            src: ten,
            ..AclRule::catch_all(2, Decision::Accept, false)
        });
        acl.insert(AclRule {
            dst: ten,
            ..AclRule::catch_all(3, Decision::Drop, false)
        });
        let tuple = |dp| {
            t(
                Ipv4Addr::new(10, 1, 1, 1),
                1,
                Ipv4Addr::new(10, 2, 2, 2),
                dp,
            )
        };
        assert_eq!(
            acl.lookup(&tuple(80), Direction::Tx),
            AclVerdict {
                decision: Decision::Drop,
                stateful: true
            }
        );
        assert_eq!(
            acl.lookup(&tuple(81), Direction::Tx).decision,
            Decision::Accept
        );
    }

    #[test]
    fn prefix_lengths_past_32_match_the_exact_address() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        let host = Ipv4Addr::new(10, 0, 0, 7);
        for len in [33, 255] {
            acl.insert(AclRule {
                dst: (host, len),
                ..AclRule::catch_all(1, Decision::Accept, false)
            });
        }
        let to = |dst| t(Ipv4Addr::new(1, 1, 1, 1), 1, dst, 80);
        assert_eq!(
            acl.lookup(&to(host), Direction::Tx).decision,
            Decision::Accept
        );
        // Not a match on the top address bit alone.
        assert_eq!(
            acl.lookup(&to(Ipv4Addr::new(10, 0, 0, 8)), Direction::Tx)
                .decision,
            Decision::Drop
        );
        assert_eq!(
            acl.lookup(&to(Ipv4Addr::new(0, 0, 0, 1)), Direction::Tx)
                .decision,
            Decision::Drop
        );
    }
}
