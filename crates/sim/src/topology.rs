//! The datacenter fabric: a three-tier Clos-style topology model.
//!
//! Servers sit under top-of-rack (ToR) switches, racks under aggregation
//! switches (one logical aggregation layer per pod), pods under the core.
//! The paper's FE-selection strategy prefers "idle vSwitches under the same
//! ToR switch" and widens to aggregation/core only when needed (§4.2.1,
//! Appendix B.1) — so the topology must answer *which servers share a ToR*
//! and *how far apart two servers are*.
//!
//! Latency model: each switch traversal costs [`PER_HOP`]; serialization
//! adds `bytes × 8 / bandwidth` at [`LINK_GBPS`]. Hop counts: same server 0,
//! same rack 2 (up to ToR, down), same pod 4, cross-pod 6. Modern fabrics
//! are provisioned with headroom (paper §6.4), so links themselves are not
//! a queueing bottleneck in our model — the vSwitch CPU is.

use crate::time::SimDuration;
use nezha_types::ServerId;

/// Link bandwidth in gigabits per second (100 Gbps+ in the paper).
pub const LINK_GBPS: f64 = 100.0;
/// Latency of one switch traversal.
pub const PER_HOP: SimDuration = SimDuration::from_micros(5);

/// Shape parameters of the fabric.
#[derive(Clone, Copy, Debug)]
pub struct TopologyConfig {
    /// Servers under each ToR switch.
    pub servers_per_rack: u32,
    /// Racks in each pod (sharing an aggregation layer).
    pub racks_per_pod: u32,
    /// Number of pods.
    pub pods: u32,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            servers_per_rack: 32,
            racks_per_pod: 8,
            pods: 4,
        }
    }
}

/// The instantiated fabric.
#[derive(Clone, Debug)]
pub struct Topology {
    cfg: TopologyConfig,
}

impl Topology {
    /// Builds a fabric from its configuration.
    pub fn new(cfg: TopologyConfig) -> Self {
        assert!(cfg.servers_per_rack > 0 && cfg.racks_per_pod > 0 && cfg.pods > 0);
        Topology { cfg }
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Total number of servers.
    pub fn total_servers(&self) -> u32 {
        self.cfg.servers_per_rack * self.cfg.racks_per_pod * self.cfg.pods
    }

    /// Rack index of a server.
    pub fn rack_of(&self, s: ServerId) -> u32 {
        s.0 / self.cfg.servers_per_rack
    }

    /// Pod index of a server.
    pub fn pod_of(&self, s: ServerId) -> u32 {
        self.rack_of(s) / self.cfg.racks_per_pod
    }

    /// True when both servers hang off the same ToR.
    pub fn same_rack(&self, a: ServerId, b: ServerId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Switch traversals between two servers (0 / 2 / 4 / 6).
    pub fn hops(&self, a: ServerId, b: ServerId) -> u32 {
        if a == b {
            0
        } else if self.same_rack(a, b) {
            2
        } else if self.pod_of(a) == self.pod_of(b) {
            4
        } else {
            6
        }
    }

    /// One-way latency for `bytes` between two servers: propagation
    /// (per-hop × hops) plus serialization at the configured link rate.
    pub fn latency(&self, a: ServerId, b: ServerId, bytes: usize) -> SimDuration {
        let ser = SimDuration::from_secs_f64(bytes as f64 * 8.0 / (LINK_GBPS * 1e9));
        if a == b {
            // Loopback through the local vSwitch: serialization only.
            return ser;
        }
        SimDuration(PER_HOP.nanos() * self.hops(a, b) as u64) + ser
    }

    /// All servers sharing `s`'s rack, excluding `s` itself. The candidate
    /// pool for FE selection at ToR scope.
    pub fn rack_peers(&self, s: ServerId) -> Vec<ServerId> {
        let rack = self.rack_of(s);
        let base = rack * self.cfg.servers_per_rack;
        (base..base + self.cfg.servers_per_rack)
            .map(ServerId)
            .filter(|&p| p != s)
            .collect()
    }

    /// All servers in `s`'s pod, excluding `s`. The widened candidate pool
    /// when the rack has too few idle vSwitches (Appendix B.1).
    pub fn pod_peers(&self, s: ServerId) -> Vec<ServerId> {
        let pod = self.pod_of(s);
        let per_pod = self.cfg.servers_per_rack * self.cfg.racks_per_pod;
        let base = pod * per_pod;
        (base..base + per_pod)
            .map(ServerId)
            .filter(|&p| p != s)
            .collect()
    }

    /// Every server in the fabric, excluding `s`. The final widening step.
    pub fn all_peers(&self, s: ServerId) -> Vec<ServerId> {
        (0..self.total_servers())
            .map(ServerId)
            .filter(|&p| p != s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(TopologyConfig {
            servers_per_rack: 4,
            racks_per_pod: 2,
            pods: 3,
        })
    }

    #[test]
    fn counts_and_indices() {
        let t = topo();
        assert_eq!(t.total_servers(), 24);
        assert_eq!(t.rack_of(ServerId(0)), 0);
        assert_eq!(t.rack_of(ServerId(5)), 1);
        assert_eq!(t.pod_of(ServerId(7)), 0);
        assert_eq!(t.pod_of(ServerId(8)), 1);
        assert_eq!(t.config().pods, 3);
    }

    #[test]
    fn hop_counts() {
        let t = topo();
        assert_eq!(t.hops(ServerId(1), ServerId(1)), 0);
        assert_eq!(t.hops(ServerId(0), ServerId(3)), 2); // same rack
        assert_eq!(t.hops(ServerId(0), ServerId(4)), 4); // same pod
        assert_eq!(t.hops(ServerId(0), ServerId(8)), 6); // cross pod
                                                         // Symmetry.
        assert_eq!(t.hops(ServerId(8), ServerId(0)), 6);
    }

    #[test]
    fn latency_includes_serialization() {
        let t = topo();
        // Same rack, 0 bytes: exactly 2 hops of propagation.
        assert_eq!(
            t.latency(ServerId(0), ServerId(1), 0),
            SimDuration::from_micros(10)
        );
        // 12500 bytes at 100 Gbps = 1 us serialization.
        let l = t.latency(ServerId(0), ServerId(1), 12_500);
        assert_eq!(l, SimDuration::from_micros(11));
        // Loopback is serialization only.
        assert_eq!(
            t.latency(ServerId(0), ServerId(0), 12_500),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn extra_hop_cost_is_tens_of_microseconds() {
        // The paper argues the BE->FE detour adds "a few tens of us" at
        // most; with default config one extra rack-local traversal is 10us.
        let t = Topology::new(TopologyConfig::default());
        let extra = t.latency(ServerId(0), ServerId(1), 1500);
        assert!(extra < SimDuration::from_micros(50), "extra hop {extra}");
    }

    #[test]
    fn rack_peers_share_rack_and_exclude_self() {
        let t = topo();
        let peers = t.rack_peers(ServerId(5));
        assert_eq!(peers, vec![ServerId(4), ServerId(6), ServerId(7)]);
        assert!(peers.iter().all(|&p| t.same_rack(p, ServerId(5))));
    }

    #[test]
    fn pod_peers_and_all_peers_scopes() {
        let t = topo();
        let pod = t.pod_peers(ServerId(0));
        assert_eq!(pod.len(), 7);
        assert!(pod.iter().all(|&p| t.pod_of(p) == 0));
        let all = t.all_peers(ServerId(0));
        assert_eq!(all.len(), 23);
    }
}
