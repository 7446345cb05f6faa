//! The traditional local-only vSwitch baseline.
//!
//! Wraps the analytic capacity formulas of one SmartNIC in one place so
//! every experiment computes "before Nezha" numbers identically: CPS from
//! the slow-path cycle cost, #concurrent flows from the session-entry
//! footprint, #vNICs from the rule-table footprint.

use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::vnic::{Vnic, VnicProfile};

/// A local-only vSwitch capacity model for one vNIC profile.
#[derive(Clone, Debug)]
pub struct LocalOnly {
    /// Host configuration.
    pub host: VSwitchConfig,
    /// The vNIC profile under load.
    pub profile: VnicProfile,
    vnic: Vnic,
}

impl LocalOnly {
    /// Builds the baseline for a host + profile pair.
    pub fn new(host: VSwitchConfig, profile: VnicProfile) -> Self {
        let vnic = Vnic::new(
            VnicId(0),
            VpcId(0),
            Ipv4Addr::new(10, 0, 0, 1),
            profile,
            ServerId(0),
        );
        LocalOnly {
            host,
            profile,
            vnic,
        }
    }

    /// CPS capacity: one slow-path pass per connection (the first packet
    /// caches the bidirectional flow) plus the fast-path remainder of a
    /// TCP_CRR exchange.
    pub fn cps_capacity(&self, pkt_bytes: usize) -> f64 {
        self.host.capacity_hz() / self.vnic.crr_cycles(&self.host.costs, pkt_bytes) as f64
    }

    /// Concurrent-flow capacity given a session-table memory budget.
    pub fn flow_capacity(&self, session_memory: u64) -> f64 {
        let m = self.host.memory;
        session_memory as f64 / (m.flow_entry + m.state_slab) as f64
    }

    /// Number of vNICs of this profile the host can fit alongside a
    /// deployed session table.
    pub fn vnic_capacity(&self, session_memory: u64) -> u64 {
        let tables = self.vnic.table_memory(&self.host.memory);
        (self.host.table_memory.saturating_sub(session_memory) / tables).max(1)
    }

    /// Bytes of rule tables this profile occupies.
    pub fn table_bytes(&self) -> u64 {
        self.vnic.table_memory(&self.host.memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_matches_paper_envelope() {
        let b = LocalOnly::new(VSwitchConfig::default(), VnicProfile::default());
        let cps = b.cps_capacity(64);
        assert!(
            (80_000.0..400_000.0).contains(&cps),
            "baseline CPS {cps} outside O(100K)"
        );
        // 1 GB session budget at 164 B/entry ≈ 6.5M flows.
        let flows = b.flow_capacity(1 << 30);
        assert!((5e6..8e6).contains(&flows), "flows {flows}");
    }

    #[test]
    fn middlebox_profiles_are_slower_per_connection() {
        let host = VSwitchConfig::middlebox_host();
        let plain = LocalOnly::new(host, VnicProfile::default()).cps_capacity(64);
        let lb = LocalOnly::new(host, VnicProfile::load_balancer()).cps_capacity(64);
        let nat = LocalOnly::new(host, VnicProfile::nat_gateway()).cps_capacity(64);
        let tr = LocalOnly::new(host, VnicProfile::transit_router()).cps_capacity(64);
        // §6.3.1: the more complex the lookup, the lower the CPS —
        // NAT < LB < TR < plain.
        assert!(
            nat < lb && lb < tr && tr < plain,
            "nat={nat} lb={lb} tr={tr} plain={plain}"
        );
    }

    #[test]
    fn middlebox_hosts_fit_only_a_few_middlebox_vnics() {
        let b = LocalOnly::new(
            VSwitchConfig::middlebox_host(),
            VnicProfile::load_balancer(),
        );
        let n = b.vnic_capacity(1 << 30);
        // §2.2.2: "#vNICs ... drastically reduced to just a few".
        assert!(n < 30, "fit {n} LB vNICs");
        assert!(b.table_bytes() > 50 << 20, "LB tables should be O(100MB)");
    }
}
