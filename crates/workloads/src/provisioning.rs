//! vNIC-provisioning bursts: the container/serverless pattern that
//! stresses #vNICs (§2.2.2 — "the rise of container and serverless
//! services has led to high demands for vNIC provisioning").
//!
//! The generator emits a paced sequence of vNIC creation requests; the
//! consumer installs them on a vSwitch (or, under Nezha, creates their
//! rule tables directly on FEs — which is why #vNIC overloads vanish
//! entirely in Fig. 13).

use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::vnic::{Vnic, VnicProfile};

/// A provisioning burst description.
#[derive(Clone, Debug)]
pub struct VnicProvisioning {
    /// First vNIC id to allocate (ids increment from here).
    pub first_id: u32,
    /// Owning tenant.
    pub vpc: VpcId,
    /// Base overlay subnet; each vNIC gets `base + i` as its address.
    pub base_addr: Ipv4Addr,
    /// Profile every provisioned vNIC uses.
    pub profile: VnicProfile,
    /// Number of vNICs to create.
    pub count: usize,
    /// Pacing between requests.
    pub interval: SimDuration,
    /// Home server for the vNICs.
    pub home: ServerId,
}

impl VnicProvisioning {
    /// A serverless-style burst: many small vNICs, fast.
    pub fn serverless(
        first_id: u32,
        vpc: VpcId,
        base_addr: Ipv4Addr,
        count: usize,
        home: ServerId,
    ) -> Self {
        VnicProvisioning {
            first_id,
            vpc,
            base_addr,
            profile: VnicProfile {
                // Function sandboxes: tiny rule sets, few peers.
                acl_rules: 8,
                routes: 4,
                qos_rules: 0,
                nat_rules: 0,
                policy_rules: 0,
                mirror_rules: 0,
                pbr_rules: 0,
                vnic_server_entries: 16,
                extra_tables: 0,
                lookup_weight: 1.0,
                stateful_acl: true,
                stateful_decap: false,
            },
            count,
            interval: SimDuration::from_millis(5),
            home,
        }
    }

    /// Generates `(when, vnic)` pairs.
    pub fn generate(&self, start: SimTime) -> Vec<(SimTime, Vnic)> {
        (0..self.count)
            .map(|i| {
                let at = start + SimDuration(self.interval.nanos() * i as u64);
                let vnic = Vnic::new(
                    VnicId(self.first_id + i as u32),
                    self.vpc,
                    Ipv4Addr(self.base_addr.0 + i as u32),
                    self.profile,
                    self.home,
                );
                (at, vnic)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::ServerId;
    use nezha_vswitch::config::VSwitchConfig;
    use nezha_vswitch::vswitch::VSwitch;

    fn burst(count: usize) -> VnicProvisioning {
        VnicProvisioning::serverless(
            100,
            VpcId(9),
            Ipv4Addr::new(10, 20, 0, 0),
            count,
            ServerId(0),
        )
    }

    #[test]
    fn generates_paced_unique_vnics() {
        let reqs = burst(50).generate(SimTime(0));
        assert_eq!(reqs.len(), 50);
        for (i, (at, v)) in reqs.iter().enumerate() {
            assert_eq!(at.nanos(), 5_000_000 * i as u64);
            assert_eq!(v.id, VnicId(100 + i as u32));
            assert_eq!(v.addr, Ipv4Addr(Ipv4Addr::new(10, 20, 0, 0).0 + i as u32));
        }
    }

    #[test]
    fn vswitch_memory_caps_provisioning_without_nezha() {
        // The #vNICs bottleneck of §2.2.2, reproduced: a memory-squeezed
        // vSwitch accepts only a fraction of a serverless burst.
        let cfg = VSwitchConfig {
            table_memory: 64 << 20,
            ..VSwitchConfig::default()
        };
        let mut vs = VSwitch::new(ServerId(0), cfg);
        let mut accepted = 0;
        for (_, v) in burst(100).generate(SimTime(0)) {
            if vs.add_vnic(v).is_ok() {
                accepted += 1;
            }
        }
        // Serverless vNICs still pay the ~2 MB fixed table overhead, so
        // 64 MB fits ~30.
        assert!(accepted < 40, "accepted {accepted}");
        assert!(accepted > 20, "accepted {accepted}");
        assert_eq!(vs.vnic_count(), accepted);
    }

    #[test]
    fn be_metadata_footprint_fits_the_same_burst_a_thousandfold() {
        // Under Nezha, the same budget holds BE metadata (2 KB each)
        // instead of full tables: the §6.2.1 1000x headroom.
        let cfg = VSwitchConfig::default();
        let per_table = burst(1).generate(SimTime(0))[0].1.table_memory(&cfg.memory);
        let ratio = per_table / cfg.memory.be_metadata;
        assert!(ratio >= 1_000, "tables/metadata ratio {ratio}");
    }
}
