//! The epoch barrier: global scenario draws and deterministic
//! cross-shard effect merges.
//!
//! Shards never talk to each other mid-epoch. Everything cross-shard —
//! offload grants (controller decisions against the region-wide FE
//! pool), tenant migrations, flash crowds, and fault waves — flows
//! through the [`Barrier`] between epochs:
//!
//! * **Per-epoch scenario draws** (does a flash crowd fire? where does a
//!   fault wave land?) come from the barrier's own global
//!   `region.controller` stream, drawn exactly once per epoch, so no
//!   shard's stream position ever depends on another shard's activity.
//! * **Effect merging** uses [`nezha_sim::shard::merge_effects`]: the
//!   merged order is a pure function of (epoch, shard id, sorted effect
//!   keys) — by construction, since the barrier runs once per epoch and
//!   the merge sorts by (shard id, key). Arrival order can never leak
//!   into results, which is what makes the shard count unobservable.
//!
//! The controller grants offload requests in merged (= global server
//! id) order against the FE pool cap, so a capped pool denies the same
//! requests for every shard count.

use super::scenario::Scenario;
use super::stream::Stream;
use super::RegionConfig;
use crate::controller::INITIAL_FES;
use nezha_sim::rng::SimRng;
use nezha_sim::shard::merge_effects;

/// An offload request: (global server id, pre-sampled activation
/// completion in seconds). The server id is the merge key.
pub(crate) type OffloadRequest = (u64, f64);

/// A tenant migration in flight: (tenant id, destination server, cpu
/// demand, memory demand). The tenant id is the merge key.
pub(crate) type Migration = (u64, u64, f64, f64);

/// What the barrier decided for one epoch, already routed per shard.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShardInbox {
    /// Global server ids granted an offload (apply before the epoch).
    pub grants: Vec<u64>,
    /// Global server ids whose request was denied (clear the pending
    /// flag so they may retry).
    pub denials: Vec<u64>,
    /// Migrations arriving at servers this shard owns.
    pub arrivals: Vec<Migration>,
}

/// The global per-epoch plan (identical for every shard).
#[derive(Clone, Debug)]
pub(crate) struct EpochPlan {
    /// Demand multiplier from the diurnal wave.
    pub diurnal: f64,
    /// Contiguous server range hit by a flash crowd, if one fired.
    pub flash: Option<(u64, u64)>,
    /// Correlated crash/restart wave, if one fired: the contiguous server
    /// range `(lo, hi)` crashes this epoch and restarts at the epoch in
    /// the third field.
    pub wave: Option<(u64, u64, u64)>,
}

/// Result of resolving one epoch's merged offload requests.
#[derive(Clone, Debug, Default)]
pub(crate) struct GrantOutcome {
    /// (server, completion secs) for each granted request, in merged
    /// (global server id) order.
    pub granted: Vec<(u64, f64)>,
    /// Servers denied by the FE pool cap, in merged order.
    pub denied: Vec<u64>,
}

/// The barrier/controller state.
#[derive(Debug)]
pub(crate) struct Barrier {
    rng: SimRng,
    fe_pool_used: u64,
    fe_pool_cap: u64,
}

impl Barrier {
    /// Fresh barrier for one run, with an empty FE pool.
    pub(super) fn new(cfg: &RegionConfig) -> Self {
        Barrier {
            rng: Stream::Controller.rng(cfg.seed),
            fe_pool_used: 0,
            fe_pool_cap: cfg.fe_pool_cap,
        }
    }

    /// Draws the global plan for `epoch`. The draw sequence depends only
    /// on the scenario and the epoch sequence — never on shard activity.
    pub(super) fn plan_epoch(
        &mut self,
        epoch: u64,
        sc: &Scenario,
        servers: u64,
        epochs_per_day: u64,
    ) -> EpochPlan {
        let diurnal = sc.diurnal(epoch, epochs_per_day);
        let flash = if sc.flash_prob > 0.0 && servers > 0 && self.rng.chance(sc.flash_prob) {
            let span = sc.flash_span.clamp(1, servers);
            let lo = self.rng.range(0, servers - span + 1);
            Some((lo, lo + span))
        } else {
            None
        };
        let wave = if sc.fault_prob > 0.0 && servers > 0 && self.rng.chance(sc.fault_prob) {
            let span = sc.fault_span.clamp(1, servers);
            let lo = self.rng.range(0, servers - span + 1);
            Some((lo, lo + span, epoch.saturating_add(sc.fault_epochs.max(1))))
        } else {
            None
        };
        EpochPlan {
            diurnal,
            flash,
            wave,
        }
    }

    /// Merges per-shard offload requests and grants them in global
    /// server order against the FE pool cap. [`INITIAL_FES`] FEs are
    /// charged per grant; scale-outs charge one more via
    /// [`Barrier::charge_scale_outs`].
    pub(super) fn resolve_requests(
        &mut self,
        per_shard: Vec<(u32, Vec<OffloadRequest>)>,
    ) -> GrantOutcome {
        let initial_fes = INITIAL_FES as u64;
        let merged = merge_effects(
            per_shard
                .into_iter()
                .map(|(shard, reqs)| {
                    (
                        shard,
                        reqs.into_iter()
                            .map(|(s, c)| (s, (s, c)))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
        );
        let mut out = GrantOutcome::default();
        for (_, (server, completion)) in merged {
            if self.fe_pool_used + initial_fes <= self.fe_pool_cap {
                self.fe_pool_used += initial_fes;
                out.granted.push((server, completion));
            } else {
                out.denied.push(server);
            }
        }
        out
    }

    /// Accounts scale-out FEs against the pool (never denied — a
    /// scale-out grows an existing offload, §B.2).
    pub(super) fn charge_scale_outs(&mut self, n: u64) {
        self.fe_pool_used = self.fe_pool_used.saturating_add(n);
    }

    /// Merges per-shard outbound migrations into the canonical global
    /// order (shard id, then tenant id).
    pub(super) fn merge_migrations(per_shard: Vec<(u32, Vec<Migration>)>) -> Vec<Migration> {
        merge_effects(
            per_shard
                .into_iter()
                .map(|(shard, migs)| {
                    (
                        shard,
                        migs.into_iter().map(|m| (m.0, m)).collect::<Vec<_>>(),
                    )
                })
                .collect(),
        )
        .into_iter()
        .map(|(_, m)| m)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RegionConfig {
        RegionConfig::default()
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let sc = Scenario::production_day();
        let run = || {
            let mut b = Barrier::new(&cfg());
            (0..48)
                .map(|e| {
                    let p = b.plan_epoch(e, &sc, 10_000, 48);
                    (p.flash, p.wave)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        let plans = run();
        assert!(
            plans.iter().any(|(f, _)| f.is_some()) || plans.iter().any(|(_, w)| w.is_some()),
            "production day drew no events in 48 epochs (possible, but the seed says otherwise)"
        );
    }

    #[test]
    fn grants_respect_the_pool_cap_in_global_order() {
        let mut b = Barrier::new(&RegionConfig {
            fe_pool_cap: 10,
            ..cfg()
        });
        // Shards reported out of order, requests out of order within.
        let out = b.resolve_requests(vec![(1, vec![(70, 0.5), (50, 0.4)]), (0, vec![(3, 0.3)])]);
        // Granted in global server order until the cap: 3 and 50 fit
        // (8 FEs), 70 would need 12 > 10.
        assert_eq!(out.granted, vec![(3, 0.3), (50, 0.4)]);
        assert_eq!(out.denied, vec![70]);
    }

    #[test]
    fn migration_merge_is_arrival_order_invariant() {
        let a = || vec![(9u64, 5u64, 0.1, 0.2), (2, 7, 0.3, 0.4)];
        let b = || vec![(4u64, 1u64, 0.5, 0.6)];
        let fwd = Barrier::merge_migrations(vec![(0, a()), (1, b())]);
        let rev = Barrier::merge_migrations(vec![(1, b()), (0, a())]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].0, 2, "shard 0's migrations sort by tenant id first");
    }

    #[test]
    fn quiet_scenarios_consume_no_controller_randomness() {
        let sc = Scenario::quiet(1);
        let mut b = Barrier::new(&cfg());
        for e in 0..24 {
            let p = b.plan_epoch(e, &sc, 1_000, 24);
            assert_eq!(p.diurnal, 1.0);
            assert!(p.flash.is_none() && p.wave.is_none());
        }
        // The stream was never advanced: a fresh barrier draws the same
        // next value.
        let mut fresh = Barrier::new(&cfg());
        assert_eq!(b.rng.f64().to_bits(), fresh.rng.f64().to_bits());
    }
}
