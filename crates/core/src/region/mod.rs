//! The flow-level (fluid) region simulator for production-scale results,
//! executed as deterministic shards.
//!
//! The paper's production experiments span O(10K) servers and months
//! (Figs. 2–4, 13; Tables 1, 3, 4; Appendix B.2). Packet-level simulation
//! at that scale is pointless — those results are *statistical* — so this
//! module models each vSwitch's demand as a stochastic process with the
//! same resource accounting as the packet-level cluster:
//!
//! * per-server baseline demand is heavy-tailed (log-normal, clipped),
//!   calibrated to Fig. 4's utilization CDF ("shortage and waste": ~5%
//!   average CPU with a P9999 of ~90%);
//! * a lazily-materialized heavy-tailed tenant population
//!   ([`generator`]) layers per-tenant demand, churn, and live migration
//!   on top — millions of tenants in O(1) memory;
//! * demand **spikes** arrive randomly, with a heavy-tailed magnitude and
//!   a log-normal *rise time*; an overload occurs when demand exceeds
//!   capacity while the vNIC is not yet offloaded — under Nezha that
//!   requires the spike to outrun the ~1–3 s offload activation
//!   (Fig. 13's residual >99.9%-mitigated overloads);
//! * offload/scale events follow the controller thresholds of Fig. 8 and
//!   sample the same completion-time model as the packet-level
//!   controller (Table 4) — both read the constants of
//!   [`crate::controller`];
//! * [`middlebox`] computes Table 3's per-middlebox gains analytically
//!   from the calibrated capacity models.
//!
//! # Sharded execution
//!
//! The region runs as `cfg.shards` independent per-partition event loops
//! (`shard`): each shard owns a contiguous server range (and the
//! tenants homed there), its own indexed RNG streams (`stream`), and
//! its own epoch calendar of deferred lifecycle/fault events.
//! Cross-shard effects — offload grants against the region FE pool,
//! tenant migrations, flash crowds, fault waves — are exchanged only at
//! per-epoch `barrier` merges whose ordering is a pure function of
//! (epoch, shard id, sorted effect keys). The invariant, enforced by
//! `tests/shard_equivalence.rs`: **the same seed produces byte-identical
//! results for any shard count**.
//!
//! The writes nothing in the loop reads back — the report's utilization
//! samples and the observation windows — are applied on one consumer
//! thread, in the order the loop makes them (`window`); everything
//! else runs on the calling thread.
//!
//! Every distributional parameter is a constant next to the code that
//! draws from it (`shard`, [`generator`]), documented against the paper
//! quantity it was calibrated to.

mod barrier;
pub mod generator;
pub mod middlebox;
pub mod scenario;
mod shard;
mod stream;
mod window;

pub use generator::{Lifecycle, Tenant, TenantModel};
pub use scenario::Scenario;

use crate::controller::{config_push_latency, GATEWAY_UPDATE_DELAY, INITIAL_FES};
use crate::gateway::LEARNING_INTERVAL;
use barrier::{Barrier, GrantOutcome, Migration, OffloadRequest, ShardInbox};
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::obs::{LogHistogram, SloRule, WindowedRollup};
use nezha_sim::report::BenchReport;
use nezha_sim::rng::SimRng;
use nezha_sim::shard::ShardSpec;
use nezha_sim::stats::Samples;
use nezha_sim::time::{SimDuration, SimTime};
use shard::RegionShard;
use stream::Stream;
use window::{EpochWindows, Fold, Sink};

/// Which capability a demand spike stresses (Fig. 3's hotspot causes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpikeKind {
    /// New connections per second (CPU on the slow path).
    Cps,
    /// Concurrent flows (memory on the fast path).
    Flows,
    /// vNIC provisioning (memory on the slow path).
    Vnics,
}

/// The region settings a scenario varies. The calibrated distributions
/// are constants of [`generator`] (tenant demand) and `shard` (server
/// baselines, spikes, scale-out pressure); the offload thresholds and
/// timings are the packet-level controller's ([`crate::controller`],
/// [`crate::gateway::LEARNING_INTERVAL`]).
#[derive(Clone, Copy, Debug)]
pub struct RegionConfig {
    /// Number of servers (paper: O(10K)).
    pub servers: usize,
    /// Number of execution shards the server partition is split into.
    /// Results are byte-identical for any value ≥ 1 (the shard count is
    /// an execution detail, never a model parameter).
    pub shards: u32,
    /// RNG seed.
    pub seed: u64,
    /// Epoch length (demand re-sampling period).
    pub epoch: SimDuration,
    /// Tenant population size (lazily materialized — never allocated
    /// per-tenant). Zero disables the tenant layer, reproducing the
    /// pure baseline-demand model.
    pub tenants: u64,
    /// Region-wide FE pool capacity; offload grants beyond it are
    /// denied. `u64::MAX` models an effectively unconstrained pool.
    pub fe_pool_cap: u64,
    /// Per-server, per-epoch probability of a demand spike.
    pub spike_prob: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            servers: 10_000,
            shards: 4,
            seed: 0x4e5a,
            epoch: SimDuration::from_secs(3600),
            tenants: 0,
            fe_pool_cap: u64::MAX,
            spike_prob: 0.002,
        }
    }
}

/// Aggregated outputs of a region run.
#[derive(Debug, Default)]
pub struct RegionReport {
    /// Overload occurrences per day, by cause.
    pub daily_cps: Vec<u64>,
    /// Overloads from #concurrent flows per day.
    pub daily_flows: Vec<u64>,
    /// Overloads from #vNICs per day.
    pub daily_vnics: Vec<u64>,
    /// CPU utilization snapshots across servers and epochs (Fig. 4a).
    pub cpu_utils: Samples,
    /// Memory utilization snapshots (Fig. 4b).
    pub mem_utils: Samples,
    /// Offload events triggered.
    pub offload_events: u64,
    /// Offload requests denied by the FE pool cap.
    pub offload_denied: u64,
    /// Total FEs provisioned (Appendix B.2's 10 062-style count).
    pub total_fes_provisioned: u64,
    /// Scale-out operations.
    pub scale_out_events: u64,
    /// Offload completion times (Table 4), in seconds.
    pub completion_times: Samples,
    /// Tenants provisioned mid-run (churn).
    pub tenant_births: u64,
    /// Tenants deprovisioned mid-run (churn).
    pub tenant_deaths: u64,
    /// Tenant live migrations completed.
    pub migrations: u64,
    /// Flash crowds that fired.
    pub flash_crowds: u64,
    /// Servers crashed by correlated fault waves.
    pub fault_crashes: u64,
}

impl RegionReport {
    /// Total overloads by cause across the run.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.daily_cps.iter().sum(),
            self.daily_flows.iter().sum(),
            self.daily_vnics.iter().sum(),
        )
    }

    /// Renders the run as a [`BenchReport`] whose metrics section is a
    /// deterministic function of the simulation (safe to exact-diff
    /// against goldens regardless of shard count or host). The percentile
    /// sections are [`LogHistogram`]-sourced latency/utilization
    /// quantiles — also pure functions of the seed, since log-bucket
    /// counts are insertion-order independent.
    pub fn bench_report(&mut self, id: &str) -> BenchReport {
        let (cps, flows, vnics) = self.totals();
        let cpu_p99 = self.cpu_utils.percentile(99.0);
        let completion_mean = self.completion_times.mean();
        let completion_hist = LogHistogram::from_samples(&self.completion_times);
        let cpu_hist = LogHistogram::from_samples(&self.cpu_utils);
        BenchReport::new(id)
            .percentiles("offload_completion_secs", &completion_hist)
            .percentiles("cpu_util", &cpu_hist)
            .metric("overloads_cps", cps as f64, "count")
            .metric("overloads_flows", flows as f64, "count")
            .metric("overloads_vnics", vnics as f64, "count")
            .metric("offload_events", self.offload_events as f64, "count")
            .metric("offload_denied", self.offload_denied as f64, "count")
            .metric(
                "fes_provisioned",
                self.total_fes_provisioned as f64,
                "count",
            )
            .metric("scale_out_events", self.scale_out_events as f64, "count")
            .metric("tenant_births", self.tenant_births as f64, "count")
            .metric("tenant_deaths", self.tenant_deaths as f64, "count")
            .metric("migrations", self.migrations as f64, "count")
            .metric("flash_crowds", self.flash_crowds as f64, "count")
            .metric("fault_crashes", self.fault_crashes as f64, "count")
            .metric("cpu_util_mean", self.cpu_utils.mean(), "fraction")
            .metric("cpu_util_p99", cpu_p99, "fraction")
            .metric("mem_util_mean", self.mem_utils.mean(), "fraction")
            .metric("completion_mean", completion_mean, "seconds")
    }

    /// Records the run into `registry` under `region.*` keys: one
    /// counter per total and one histogram each for the utilization and
    /// completion-time samples, observed in report order (record before
    /// a percentile query sorts them). Counters add, so recording several
    /// runs into one registry sums them.
    pub fn record_into(&self, registry: &MetricsRegistry) {
        let (cps, flows, vnics) = self.totals();
        for (key, n) in [
            ("region.overload.cps", cps),
            ("region.overload.flows", flows),
            ("region.overload.vnics", vnics),
            ("region.offload_events", self.offload_events),
            ("region.offload_denied", self.offload_denied),
            ("region.scale_out_events", self.scale_out_events),
            ("region.fes_provisioned", self.total_fes_provisioned),
            ("region.tenant_births", self.tenant_births),
            ("region.tenant_deaths", self.tenant_deaths),
            ("region.migrations", self.migrations),
            ("region.flash_crowds", self.flash_crowds),
            ("region.fault_crashes", self.fault_crashes),
        ] {
            registry.add(registry.counter(key, &[]), n);
        }
        for (key, samples) in [
            ("region.cpu_util", &self.cpu_utils),
            ("region.mem_util", &self.mem_utils),
            ("region.offload_completion_secs", &self.completion_times),
        ] {
            let h = registry.histogram(key, &[]);
            for &v in samples.raw() {
                registry.observe(h, v);
            }
        }
    }
}

/// Samples one offload activation completion time from `rng`: the
/// slowest of the initial FE config pushes, plus the gateway update,
/// plus the learning interval — the packet-level controller's model and
/// constants, hence Table 4's distribution.
pub(crate) fn completion_from(rng: &mut SimRng) -> SimDuration {
    let mut worst = SimDuration::ZERO;
    for _ in 0..INITIAL_FES {
        let d = config_push_latency(rng);
        if d > worst {
            worst = d;
        }
    }
    worst + GATEWAY_UPDATE_DELAY + LEARNING_INTERVAL
}

/// The fluid region simulator, executed as deterministic shards.
#[derive(Debug)]
pub struct Region {
    cfg: RegionConfig,
    spec: ShardSpec,
    shards: Vec<RegionShard>,
    /// Standalone stream for [`Region::sample_completion`] — never used
    /// by the sharded run itself (servers sample completions from their
    /// own streams).
    completion_rng: SimRng,
    /// Per-epoch windowed rollup + SLO watchdog; `None` until
    /// [`Region::enable_windows`]. One window per epoch, folded on the
    /// sink's thread in barrier order ([`window`]) — the JSONL stream
    /// and SLO event log are byte-identical for any shard count.
    windows: Option<EpochWindows>,
}

impl Region {
    /// Builds a region: the server partition is split into `cfg.shards`
    /// contiguous shards and every server draws its heavy-tailed
    /// baseline from its own global-id-derived stream.
    pub fn new(cfg: RegionConfig) -> Self {
        let spec = ShardSpec::new(cfg.shards.max(1), cfg.servers as u64);
        let shards = (0..spec.shards())
            .map(|i| RegionShard::new(i, &spec, &cfg))
            .collect();
        Region {
            cfg,
            spec,
            shards,
            completion_rng: Stream::Completion.rng(cfg.seed),
            windows: None,
        }
    }

    /// Turns on the per-epoch observability plane: each epoch closes as
    /// one window (counter deltas, utilization and completion-time
    /// histograms), retained in a ring of `retain` records, with `rules`
    /// evaluated at every close. Shards contribute counts, the
    /// histograms are recorded in ascending `(shard, server)` order, so
    /// the window stream is part of the shard-count-invariance contract.
    pub fn enable_windows(&mut self, retain: usize, rules: Vec<SloRule>) {
        self.windows = Some(EpochWindows::new(retain, rules));
    }

    /// The windowed rollup; `None` until [`Region::enable_windows`].
    /// A new run ([`Region::run_scenario`]) continues appending windows:
    /// window indices keep counting up from the rollup's `closed()`.
    pub fn windows(&self) -> Option<&WindowedRollup> {
        self.windows.as_ref().map(|w| &w.rollup)
    }

    /// Samples one offload activation completion time (Table 4) from the
    /// region's standalone completion stream.
    pub fn sample_completion(&mut self) -> SimDuration {
        completion_from(&mut self.completion_rng)
    }

    /// Deferred events currently pending across all shard queues. The
    /// lazy-materialization bound: this scales with *churning* tenants
    /// (plus scripted faults), never with the population size.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(RegionShard::pending_events).sum()
    }

    /// Runs the steady-state scenario for `days`, with or without Nezha
    /// — the original calibration model (no waves, churn, or faults).
    pub fn run_days(&mut self, days: usize, nezha: bool) -> RegionReport {
        self.run_scenario(&Scenario::quiet(days), nezha)
    }

    /// Runs one scenario to completion, producing the per-day overload
    /// counts and utilization snapshots. Byte-identical for any
    /// `cfg.shards` value: all cross-shard effects flow through the
    /// per-epoch barrier, whose merge order is partition-independent.
    pub fn run_scenario(&mut self, sc: &Scenario, nezha: bool) -> RegionReport {
        let cfg = self.cfg;
        let epoch_ns = cfg.epoch.nanos();
        let epochs_per_day = ((24 * 3600) as f64 / cfg.epoch.as_secs_f64())
            .round()
            .max(1.0) as u64;
        let total_epochs = sc.days as u64 * epochs_per_day;
        let model = TenantModel::from_config(&cfg);
        let servers = cfg.servers as u64;
        // Every server reports one sample per epoch, crashed or not.
        let samples = total_epochs as usize * cfg.servers;
        let sink = Sink::new(samples, self.windows.take());
        let mut barrier = Barrier::new(&cfg);
        let mut inboxes: Vec<ShardInbox> = vec![ShardInbox::default(); self.shards.len()];

        for sh in &mut self.shards {
            sh.begin_run(&cfg, sc, &model, total_epochs);
        }

        // Everything below runs here except the writes nothing reads
        // back — the utilization samples and the windows — which go to
        // the sink's thread in the order they are made (`window`).
        let (mut report, sink) = sink.run(self.shards.len(), |tx| {
            let mut report = RegionReport::default();
            // Nezha proactively offloads every server already above the
            // threshold at rollout; grants land in epoch 0's inboxes, so
            // they are accounted to this run's first window.
            if nezha {
                let per_shard: Vec<(u32, Vec<OffloadRequest>)> = self
                    .shards
                    .iter_mut()
                    .map(|sh| (sh.id(), sh.initial_requests()))
                    .collect();
                let outcome = barrier.resolve_requests(per_shard);
                self.record_grants(&outcome, &mut report, &mut inboxes);
                tx.send(Fold::Grants(outcome));
            }

            let (mut day_cps, mut day_flows, mut day_vnics) = (0u64, 0u64, 0u64);
            for epoch in 0..total_epochs {
                let plan = barrier.plan_epoch(epoch, sc, servers, epochs_per_day);
                if plan.flash.is_some() {
                    report.flash_crowds += 1;
                }

                // Run every shard, folding outputs in ascending shard
                // order (float accumulation order must be
                // partition-independent).
                let mut requests: Vec<(u32, Vec<OffloadRequest>)> =
                    Vec::with_capacity(self.shards.len());
                let mut migrations: Vec<(u32, Vec<Migration>)> =
                    Vec::with_capacity(self.shards.len());
                for sh in &mut self.shards {
                    let inbox = std::mem::take(&mut inboxes[sh.id() as usize]);
                    let mut out = sh.run_epoch(
                        epoch,
                        &plan,
                        &inbox,
                        &cfg,
                        sc,
                        &model,
                        nezha,
                        epochs_per_day,
                    );
                    tx.send(Fold::Utils(sh.swap_utils(tx.spare())));
                    day_cps += out.overloads[0];
                    day_flows += out.overloads[1];
                    day_vnics += out.overloads[2];
                    report.tenant_births += out.births;
                    report.tenant_deaths += out.deaths;
                    report.fault_crashes += out.crashes;
                    report.scale_out_events += out.scale_outs;
                    report.total_fes_provisioned += out.scale_outs;
                    barrier.charge_scale_outs(out.scale_outs);
                    tx.send(Fold::Effects(out.window_effects()));
                    requests.push((sh.id(), std::mem::take(&mut out.requests)));
                    migrations.push((sh.id(), std::mem::take(&mut out.migrations)));
                }

                // Barrier: resolve this epoch's offload requests in global
                // server order against the FE pool; route migrations to
                // the owners of their destination servers. Both apply
                // next epoch.
                let outcome = barrier.resolve_requests(requests);
                self.record_grants(&outcome, &mut report, &mut inboxes);
                tx.send(Fold::Grants(outcome));
                let mut win_migrations = 0u64;
                for m in Barrier::merge_migrations(migrations) {
                    report.migrations += 1;
                    win_migrations += 1;
                    inboxes[self.spec.owner(m.1) as usize].arrivals.push(m);
                }
                tx.send(Fold::Close {
                    start: SimTime(epoch * epoch_ns),
                    end: SimTime((epoch + 1) * epoch_ns),
                    migrations: win_migrations,
                    flash: plan.flash.is_some(),
                });

                if (epoch + 1) % epochs_per_day == 0 {
                    report.daily_cps.push(day_cps);
                    report.daily_flows.push(day_flows);
                    report.daily_vnics.push(day_vnics);
                    (day_cps, day_flows, day_vnics) = (0, 0, 0);
                }
            }
            report
        });
        report.cpu_utils = sink.cpu;
        report.mem_utils = sink.mem;
        self.windows = sink.windows;
        report
    }

    /// Records a barrier grant outcome into the report and
    /// routes each decision to its server's owning shard inbox.
    fn record_grants(
        &self,
        outcome: &GrantOutcome,
        report: &mut RegionReport,
        inboxes: &mut [ShardInbox],
    ) {
        for &(server, secs) in &outcome.granted {
            report.offload_events += 1;
            report.total_fes_provisioned += INITIAL_FES as u64;
            report.completion_times.record(secs);
            inboxes[self.spec.owner(server) as usize]
                .grants
                .push(server);
        }
        for &server in &outcome.denied {
            report.offload_denied += 1;
            inboxes[self.spec.owner(server) as usize]
                .denials
                .push(server);
        }
    }
}

#[cfg(test)]
impl Region {
    /// Test hook: schedules a scenario's lifecycle events without
    /// running any epochs, so tests can inspect the queue footprint.
    fn prime_for_test(&mut self, sc: &Scenario) {
        let cfg = self.cfg;
        let epochs_per_day = ((24 * 3600) as f64 / cfg.epoch.as_secs_f64())
            .round()
            .max(1.0) as u64;
        let total_epochs = sc.days as u64 * epochs_per_day;
        let model = TenantModel::from_config(&cfg);
        for sh in &mut self.shards {
            sh.begin_run(&cfg, sc, &model, total_epochs);
        }
    }
}

#[cfg(test)]
mod tests;
