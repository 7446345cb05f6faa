//! TCP_CRR-style CPS workload: short connections at a target rate.
//!
//! "Netperf TCP_CRR is used to simulate a traffic pattern that primarily
//! consists of short connections requiring high CPS" (§6.2.1). The
//! generator emits [`ConnSpec`]s with exponential (Poisson) inter-arrival
//! times at the requested mean rate, cycling client addresses and ports so
//! every connection is a distinct flow (each first packet takes the slow
//! path, exactly the load that saturates vSwitch CPUs).

use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_sim::rng::SimRng;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};

/// A CPS workload description.
#[derive(Clone, Debug)]
pub struct CpsWorkload {
    /// Target vNIC.
    pub vnic: VnicId,
    /// Its VPC.
    pub vpc: VpcId,
    /// The vNIC's overlay service address.
    pub service_addr: Ipv4Addr,
    /// The listening port (must be permitted by the vNIC's ACL).
    pub service_port: u16,
    /// Base of the client overlay address range (one /24 is cycled).
    pub client_base: Ipv4Addr,
    /// Servers hosting the client endpoints (cycled round-robin).
    pub client_servers: Vec<ServerId>,
    /// Mean connections per second.
    pub rate: f64,
    /// Workload duration.
    pub duration: SimDuration,
    /// Request/response payload bytes.
    pub payload: u32,
    /// Connection shape (default: full TCP_CRR).
    pub kind: ConnKind,
}

impl CpsWorkload {
    /// A standard TCP_CRR workload at `rate` connections/second.
    pub fn tcp_crr(
        vnic: VnicId,
        vpc: VpcId,
        service_addr: Ipv4Addr,
        service_port: u16,
        client_servers: Vec<ServerId>,
        rate: f64,
        duration: SimDuration,
    ) -> Self {
        CpsWorkload {
            vnic,
            vpc,
            service_addr,
            service_port,
            client_base: Ipv4Addr(service_addr.masked(16).0 | 0x0100), // x.y.1.0
            client_servers,
            rate,
            duration,
            payload: 128,
            kind: ConnKind::Inbound,
        }
    }

    /// Generates the connection specs with Poisson arrivals starting at
    /// `start`. Tuples are unique across the run (clients cycle a /24 of
    /// addresses × the ephemeral port range).
    pub fn generate(&self, start: SimTime, rng: &mut SimRng) -> Vec<ConnSpec> {
        assert!(self.rate > 0.0 && !self.client_servers.is_empty());
        let mut specs = Vec::new();
        let mut t = start;
        let end = start + self.duration;
        let mean_gap = 1.0 / self.rate;
        let mut n: u64 = 0;
        loop {
            t += SimDuration::from_secs_f64(rng.exp(mean_gap));
            if t >= end {
                break;
            }
            let client_ip = Ipv4Addr(self.client_base.0 + (n % 200) as u32);
            let port = 10_000 + ((n / 200) % 50_000) as u16;
            let tuple = FiveTuple::tcp(client_ip, port, self.service_addr, self.service_port);
            specs.push(ConnSpec {
                vnic: self.vnic,
                vpc: self.vpc,
                tuple,
                peer_server: self.client_servers[(n % self.client_servers.len() as u64) as usize],
                kind: self.kind,
                start: t,
                payload: self.payload,
                overlay_encap_src: None,
            });
            n += 1;
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn wl(rate: f64) -> CpsWorkload {
        CpsWorkload::tcp_crr(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            9000,
            vec![ServerId(8), ServerId(9)],
            rate,
            SimDuration::from_secs(1),
        )
    }

    #[test]
    fn rate_is_respected_on_average() {
        let mut rng = SimRng::new(1);
        let specs = wl(10_000.0).generate(SimTime::ZERO, &mut rng);
        let n = specs.len() as f64;
        assert!((9_000.0..11_000.0).contains(&n), "generated {n}");
    }

    #[test]
    fn tuples_are_unique_and_orderly() {
        let mut rng = SimRng::new(2);
        let specs = wl(5_000.0).generate(SimTime::ZERO, &mut rng);
        let tuples: BTreeSet<_> = specs.iter().map(|s| s.tuple).collect();
        assert_eq!(tuples.len(), specs.len(), "duplicate tuples");
        // Start times are nondecreasing and inside the window.
        for w in specs.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!(specs.last().unwrap().start < SimTime::ZERO + SimDuration::from_secs(1));
        // All destined to the service.
        assert!(specs
            .iter()
            .all(|s| s.tuple.dst_port == 9000 && s.tuple.dst_ip == Ipv4Addr::new(10, 7, 0, 1)));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = wl(2_000.0).generate(SimTime::ZERO, &mut SimRng::new(7));
        let b = wl(2_000.0).generate(SimTime::ZERO, &mut SimRng::new(7));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.tuple == y.tuple && x.start == y.start));
    }

    #[test]
    fn clients_cycle_across_servers() {
        let mut rng = SimRng::new(3);
        let specs = wl(3_000.0).generate(SimTime::ZERO, &mut rng);
        let servers: BTreeSet<_> = specs.iter().map(|s| s.peer_server).collect();
        assert_eq!(servers.len(), 2);
    }
}
