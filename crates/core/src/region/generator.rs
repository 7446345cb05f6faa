//! The lazily-materialized heavy-tailed tenant population.
//!
//! The paper's region hosts millions of vNICs across O(10K) servers, and
//! the multi-tenant pressure that makes SmartNIC sharing hard (SuperNIC,
//! Meili) comes from the *tail*: a few tenants orders of magnitude
//! hotter than the median. Materializing millions of tenant structs
//! would dominate memory for no benefit, so [`TenantModel`] stores only
//! the seed and the population size — O(1) state regardless of
//! population size — and derives every tenant on demand from this
//! module's calibration constants as a pure function of
//! `Stream::Tenant.rng_at(seed, id)`.
//!
//! Purity is also what makes the population shard-count invariant: any
//! shard can re-derive exactly the tenants homed on its servers without
//! consuming shared RNG state, and a migrated tenant's demand can be
//! removed/added bit-exactly on both sides from the id alone.

use super::scenario::Scenario;
use super::stream::Stream;
use super::RegionConfig;

/// Bounded-Pareto tail index of per-tenant demand weight (~1 ⇒ the top
/// 1% of tenants holds most of the demand).
pub const TENANT_ALPHA: f64 = 1.05;
/// Bounds of the per-tenant demand weight.
pub const TENANT_WEIGHT: (f64, f64) = (1.0, 20_000.0);
/// CPU demand per unit of tenant weight (fraction of capacity).
pub const TENANT_CPU_SCALE: f64 = 4.0e-5;
/// Memory demand per unit of tenant weight (fraction of capacity).
pub const TENANT_MEM_SCALE: f64 = 1.5e-5;

/// O(1)-state generator for the tenant population.
#[derive(Clone, Copy, Debug)]
pub struct TenantModel {
    seed: u64,
    count: u64,
}

/// One derived tenant: its demand contribution plus the uniform draws
/// the scenario interprets into a lifecycle. ~100 bytes, alive only
/// while being inspected.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    /// Tenant id in `[0, count)`.
    pub id: u64,
    /// CPU demand contributed to its server (fraction of capacity).
    pub cpu: f64,
    /// Memory demand contributed to its server (fraction of capacity).
    pub mem: f64,
    churn_u: f64,
    life_frac: f64,
    migrate_u: f64,
    migrate_to_u: f64,
}

/// What happens to a tenant during one scenario run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// Present for the whole run.
    Resident,
    /// Present from the start, deprovisioned at the given epoch.
    DiesAt(u64),
    /// Provisioned at the given epoch.
    BornAt(u64),
    /// Live-migrates to the given server at the given epoch.
    MigratesAt(u64, u64),
}

impl TenantModel {
    /// Builds the generator from region config — O(1) time and memory
    /// for any population size.
    pub fn from_config(cfg: &RegionConfig) -> Self {
        TenantModel {
            seed: cfg.seed,
            count: cfg.tenants,
        }
    }

    /// Population size.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Derives tenant `id` — a pure function of `(seed, id)`; two calls
    /// always return bit-identical tenants.
    pub fn tenant(&self, id: u64) -> Tenant {
        let mut rng = Stream::Tenant.rng_at(self.seed, id);
        let (lo, hi) = TENANT_WEIGHT;
        let cpu_w = rng.bounded_pareto(TENANT_ALPHA, lo, hi);
        let mem_w = rng.bounded_pareto(TENANT_ALPHA, lo, hi);
        Tenant {
            id,
            cpu: cpu_w * TENANT_CPU_SCALE,
            mem: mem_w * TENANT_MEM_SCALE,
            churn_u: rng.f64(),
            life_frac: rng.f64(),
            migrate_u: rng.f64(),
            migrate_to_u: rng.f64(),
        }
    }
}

impl Tenant {
    /// The server this tenant is provisioned on at the start of the run.
    pub fn home(&self, servers: u64) -> u64 {
        self.id % servers
    }

    /// Interprets the tenant's uniform draws under `sc`: churners split
    /// evenly into mid-run deaths and mid-run births; of the rest,
    /// `migrate_frac` migrate once (never to their own server — that
    /// collapses to [`Lifecycle::Resident`]). Churn and migration are
    /// disjoint so a tenant's demand always has exactly one owner per
    /// epoch.
    pub fn lifecycle(&self, sc: &Scenario, total_epochs: u64, servers: u64) -> Lifecycle {
        if total_epochs == 0 || servers == 0 {
            return Lifecycle::Resident;
        }
        let epoch = ((self.life_frac * total_epochs as f64) as u64).min(total_epochs - 1);
        if self.churn_u < sc.churn_frac * 0.5 {
            return Lifecycle::DiesAt(epoch);
        }
        if self.churn_u < sc.churn_frac {
            return Lifecycle::BornAt(epoch);
        }
        if self.migrate_u < sc.migrate_frac {
            let to = ((self.migrate_to_u * servers as f64) as u64).min(servers - 1);
            if to != self.home(servers) {
                return Lifecycle::MigratesAt(epoch.max(1), to);
            }
        }
        Lifecycle::Resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64, count: u64) -> TenantModel {
        let cfg = RegionConfig {
            seed,
            tenants: count,
            ..Default::default()
        };
        TenantModel::from_config(&cfg)
    }

    #[test]
    fn model_state_is_constant_size() {
        // Lazy materialization: the generator for 100M tenants is the
        // same few words as for 10 — no per-tenant storage anywhere.
        assert!(std::mem::size_of::<TenantModel>() <= 64);
        let huge = model(1, 100_000_000);
        assert_eq!(huge.count(), 100_000_000);
        // Deriving a far-out tenant is O(1), not O(id).
        let t = huge.tenant(99_999_999);
        assert!(t.cpu > 0.0);
    }

    #[test]
    fn population_is_seed_deterministic() {
        let a = model(7, 10_000);
        let b = model(7, 10_000);
        for id in (0..10_000).step_by(97) {
            let (ta, tb) = (a.tenant(id), b.tenant(id));
            assert_eq!(ta.cpu.to_bits(), tb.cpu.to_bits());
            assert_eq!(ta.mem.to_bits(), tb.mem.to_bits());
            assert_eq!(ta.churn_u.to_bits(), tb.churn_u.to_bits());
        }
        // A different seed produces a different population.
        let c = model(8, 10_000);
        let diff = (0..100).filter(|&i| a.tenant(i).cpu.to_bits() != c.tenant(i).cpu.to_bits());
        assert!(diff.count() > 90);
    }

    #[test]
    fn top_one_percent_holds_an_outsized_demand_share() {
        // Heavy tail (bounded Pareto, alpha ~1): the top 1% of tenants
        // must hold a grossly disproportionate share of total demand —
        // the Fig. 4 / Table 1 skew motif.
        let m = model(42, 200_000);
        let mut weights: Vec<f64> = (0..m.count()).map(|id| m.tenant(id).cpu).collect();
        weights.sort_by(f64::total_cmp);
        let total: f64 = weights.iter().sum();
        let top: f64 = weights[weights.len() - weights.len() / 100..].iter().sum();
        let share = top / total;
        assert!(
            (0.25..0.95).contains(&share),
            "top-1% share {share} outside heavy-tail band"
        );
        // And the single hottest tenant dwarfs the median.
        let median = weights[weights.len() / 2];
        let max = weights[weights.len() - 1];
        assert!(max / median > 100.0, "max/median {}", max / median);
    }

    #[test]
    fn lifecycles_partition_and_respect_rates() {
        let m = model(3, 50_000);
        let sc = Scenario {
            churn_frac: 0.10,
            migrate_frac: 0.05,
            ..Scenario::quiet(1)
        };
        let (mut dies, mut born, mut migrates, mut resident) = (0u64, 0u64, 0u64, 0u64);
        for id in 0..m.count() {
            let t = m.tenant(id);
            match t.lifecycle(&sc, 24, 1_000) {
                Lifecycle::DiesAt(e) => {
                    assert!(e < 24);
                    dies += 1;
                }
                Lifecycle::BornAt(e) => {
                    assert!(e < 24);
                    born += 1;
                }
                Lifecycle::MigratesAt(e, to) => {
                    assert!((1..24).contains(&e));
                    assert!(to < 1_000);
                    assert_ne!(to, t.home(1_000));
                    migrates += 1;
                }
                Lifecycle::Resident => resident += 1,
            }
        }
        let n = m.count() as f64;
        assert!((dies as f64 / n - 0.05).abs() < 0.01, "dies {dies}");
        assert!((born as f64 / n - 0.05).abs() < 0.01, "born {born}");
        assert!(
            (migrates as f64 / n - 0.045).abs() < 0.01,
            "migrates {migrates}"
        );
        assert_eq!(dies + born + migrates + resident, m.count());
        // A quiet scenario has no lifecycle events at all.
        let quiet = Scenario::quiet(1);
        assert!(
            (0..1000).all(|id| m.tenant(id).lifecycle(&quiet, 24, 1_000) == Lifecycle::Resident)
        );
    }

    #[test]
    fn homes_cover_servers_evenly() {
        let m = model(5, 10_000);
        let servers = 100u64;
        let mut counts = vec![0u64; servers as usize];
        for id in 0..m.count() {
            counts[m.tenant(id).home(servers) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "modular homing is exact");
    }
}
