//! Persistent-connection workload: the session-table-bloating pattern.
//!
//! "Some L4 load balancers maintain persistent connections for each
//! client, which can cause session table bloat" (§2.2.2). Each generated
//! connection completes a handshake and one request/response, then stays
//! open — the session entry lives in the BE table until idle aging, so a
//! burst of these measures the #concurrent-flows capacity directly.

use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};

/// A persistent-flows workload description.
#[derive(Clone, Debug)]
pub struct PersistentFlows {
    /// Target vNIC.
    pub vnic: VnicId,
    /// Its VPC.
    pub vpc: VpcId,
    /// Service address.
    pub service_addr: Ipv4Addr,
    /// Service port.
    pub service_port: u16,
    /// Servers hosting the clients.
    pub client_servers: Vec<ServerId>,
    /// Number of concurrent connections to open.
    pub count: usize,
    /// Interval between consecutive opens (paced, not Poisson — an LB
    /// ramping up its backend mesh).
    pub open_interval: SimDuration,
}

impl PersistentFlows {
    /// Generates `count` persistent connections starting at `start`.
    ///
    /// Tuples sweep client addresses across a /16 so arbitrarily many
    /// distinct sessions can coexist.
    pub fn generate(&self, start: SimTime) -> Vec<ConnSpec> {
        assert!(!self.client_servers.is_empty());
        (0..self.count)
            .map(|n| {
                let client_ip = Ipv4Addr(
                    self.service_addr.masked(16).0
                        | 0x0100
                        | ((n as u32 / 250) << 8)
                        | (n as u32 % 250 + 1),
                );
                let port = 10_000 + (n % 50_000) as u16;
                ConnSpec {
                    vnic: self.vnic,
                    vpc: self.vpc,
                    tuple: FiveTuple::tcp(client_ip, port, self.service_addr, self.service_port),
                    peer_server: self.client_servers[n % self.client_servers.len()],
                    kind: ConnKind::PersistentInbound,
                    start: start + SimDuration(self.open_interval.nanos() * n as u64),
                    payload: 64,
                    overlay_encap_src: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn wl(count: usize) -> PersistentFlows {
        PersistentFlows {
            vnic: VnicId(1),
            vpc: VpcId(1),
            service_addr: Ipv4Addr::new(10, 7, 0, 1),
            service_port: 9000,
            client_servers: vec![ServerId(8)],
            count,
            open_interval: SimDuration::from_micros(50),
        }
    }

    #[test]
    fn generates_distinct_persistent_conns() {
        let specs = wl(10_000).generate(SimTime::ZERO);
        assert_eq!(specs.len(), 10_000);
        let tuples: BTreeSet<_> = specs.iter().map(|s| s.tuple).collect();
        assert_eq!(tuples.len(), 10_000);
        assert!(specs.iter().all(|s| s.kind == ConnKind::PersistentInbound));
    }

    #[test]
    fn opens_are_paced() {
        let specs = wl(3).generate(SimTime(1_000));
        assert_eq!(specs[0].start, SimTime(1_000));
        assert_eq!(specs[1].start, SimTime(1_000 + 50_000));
        assert_eq!(specs[2].start, SimTime(1_000 + 100_000));
    }

    #[test]
    fn client_addresses_stay_inside_the_overlay_slash16() {
        let specs = wl(60_000).generate(SimTime::ZERO);
        for s in &specs {
            assert!(s.tuple.src_ip.in_prefix(Ipv4Addr::new(10, 7, 0, 0), 16));
        }
    }
}
