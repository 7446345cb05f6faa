//! Heavy-tailed tenant populations: the demand skew behind the paper's
//! "shortage and waste" paradox.
//!
//! Production data (Fig. 4, Table 1) show a tiny fraction of tenants
//! generating almost all service usage: P50 VMs create 0.53% of the CPS
//! of P9999 VMs; P9999 CPU utilization is ~20× the average. The
//! population model draws per-tenant demand in three dimensions (CPS,
//! concurrent flows, vNICs) from clipped log-normals whose parameters are
//! calibrated to those percentile ratios, plus the Fig. 2 relation that
//! high-CPS VMs are themselves lightly loaded.

use nezha_sim::rng::SimRng;
use nezha_sim::stats::Samples;

/// One tenant VM's sampled demand.
#[derive(Clone, Copy, Debug)]
pub struct TenantSample {
    /// New connections per second the VM generates.
    pub cps: f64,
    /// Concurrent flows the VM sustains.
    pub concurrent_flows: f64,
    /// vNICs the VM provisions.
    pub vnics: f64,
    /// The VM's *own* CPU utilization — per Fig. 2, mostly below 60% even
    /// for the heaviest network users ("VMs with high network demands
    /// deplete the SmartNICs' resources, not their own").
    pub vm_cpu: f64,
}

/// Parameters of the tenant population.
#[derive(Clone, Copy, Debug)]
pub struct TenantPopulation {
    /// Median CPS demand per VM.
    pub cps_median: f64,
    /// Log-normal sigma of CPS (≈2.0 reproduces Table 1's P99/P9999 ratio
    /// of ~6%).
    pub cps_sigma: f64,
    /// Median concurrent flows.
    pub flows_median: f64,
    /// Sigma of flows (Table 1: P50 0.78% of P9999).
    pub flows_sigma: f64,
    /// Median vNIC count.
    pub vnics_median: f64,
    /// Sigma of vNICs (Table 1: P50 0.65%, with a long P999→P9999 jump).
    pub vnics_sigma: f64,
}

impl Default for TenantPopulation {
    fn default() -> Self {
        TenantPopulation {
            cps_median: 120.0,
            cps_sigma: 2.0,
            flows_median: 900.0,
            flows_sigma: 1.9,
            vnics_median: 1.5,
            vnics_sigma: 2.0,
        }
    }
}

impl TenantPopulation {
    /// Samples one tenant VM.
    pub fn sample(&self, rng: &mut SimRng) -> TenantSample {
        let cps = self.cps_median * (self.cps_sigma * rng.normal()).exp();
        // A VM's own CPU load is only weakly tied to its network demand:
        // even the hottest network users are mostly under 60% (Fig. 2).
        let vm_cpu = (0.1 + 0.5 * rng.f64() + 0.1 * rng.normal()).clamp(0.02, 0.98);
        TenantSample {
            cps,
            concurrent_flows: self.flows_median * (self.flows_sigma * rng.normal()).exp(),
            vnics: (self.vnics_median * (self.vnics_sigma * rng.normal()).exp()).max(1.0),
            vm_cpu,
        }
    }

    /// Samples `n` tenants.
    pub fn sample_many(&self, n: usize, rng: &mut SimRng) -> Vec<TenantSample> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Builds Table 1: each capability's demand at P50/P90/P99/P999 as a
    /// fraction of its P9999 demand.
    pub fn usage_shares(&self, n: usize, rng: &mut SimRng) -> UsageShares {
        let tenants = self.sample_many(n, rng);
        let shares = |pick: fn(&TenantSample) -> f64| {
            let mut s = Samples::new();
            for t in &tenants {
                s.record(pick(t));
            }
            let p9999 = s.percentile(99.99);
            [
                s.percentile(50.0) / p9999,
                s.percentile(90.0) / p9999,
                s.percentile(99.0) / p9999,
                s.percentile(99.9) / p9999,
                1.0,
            ]
        };
        UsageShares {
            cps: shares(|t| t.cps),
            flows: shares(|t| t.concurrent_flows),
            vnics: shares(|t| t.vnics),
        }
    }
}

/// Table 1's normalized usage distribution: `[P50, P90, P99, P999, P9999]`
/// as fractions of the P9999 value.
#[derive(Clone, Copy, Debug)]
pub struct UsageShares {
    /// CPS shares.
    pub cps: [f64; 5],
    /// Concurrent-flow shares.
    pub flows: [f64; 5],
    /// vNIC-count shares.
    pub vnics: [f64; 5],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_tiny_p50_share() {
        let mut rng = SimRng::new(11);
        let shares = TenantPopulation::default().usage_shares(60_000, &mut rng);
        // Table 1: P50 is a fraction of a percent of P9999 for all three.
        assert!(shares.cps[0] < 0.03, "cps p50 share {}", shares.cps[0]);
        assert!(
            shares.flows[0] < 0.03,
            "flows p50 share {}",
            shares.flows[0]
        );
        assert!(
            shares.vnics[0] < 0.05,
            "vnics p50 share {}",
            shares.vnics[0]
        );
        // Monotone increase to 1.0 at P9999.
        for dim in [shares.cps, shares.flows, shares.vnics] {
            for w in dim.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert_eq!(dim[4], 1.0);
        }
        // P99 still under ~15% (paper: ~6%).
        assert!(shares.cps[2] < 0.15, "cps p99 share {}", shares.cps[2]);
    }

    #[test]
    fn fig2_high_cps_vms_are_lightly_loaded() {
        let mut rng = SimRng::new(12);
        let pop = TenantPopulation::default();
        let tenants = pop.sample_many(50_000, &mut rng);
        // Take the top 1% by CPS; 90% of them must be under ~70% VM CPU
        // (paper: 90% below 60%).
        let mut by_cps = tenants.clone();
        by_cps.sort_by(|a, b| b.cps.total_cmp(&a.cps));
        let hot = &by_cps[..500];
        let lightly = hot.iter().filter(|t| t.vm_cpu < 0.7).count();
        assert!(
            lightly as f64 / hot.len() as f64 > 0.8,
            "only {lightly}/500 hot VMs lightly loaded"
        );
    }

    #[test]
    fn samples_are_positive_and_deterministic() {
        let pop = TenantPopulation::default();
        let a = pop.sample_many(100, &mut SimRng::new(5));
        let b = pop.sample_many(100, &mut SimRng::new(5));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cps.to_bits(), y.cps.to_bits());
            assert!(x.cps > 0.0 && x.concurrent_flows > 0.0 && x.vnics >= 1.0);
            assert!((0.0..=1.0).contains(&x.vm_cpu));
        }
    }
}
