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
//!   controller (Table 4);
//! * [`middlebox`] computes Table 3's per-middlebox gains analytically
//!   from the calibrated capacity models.
//!
//! # Sharded execution
//!
//! The region runs as `cfg.shards` independent per-partition event loops
//! (`shard`): each shard owns a contiguous server range (and the
//! tenants homed there), its own indexed RNG streams (`stream`), and
//! its own bucket-ladder queue of deferred lifecycle/fault events.
//! Cross-shard effects — offload grants against the region FE pool,
//! tenant migrations, flash crowds, fault waves — are exchanged only at
//! per-epoch `barrier` merges whose ordering is a pure function of
//! (epoch, shard id, sorted effect keys). The invariant, enforced by
//! `tests/shard_equivalence.rs`: **the same seed produces byte-identical
//! results for any shard count**.
//!
//! Every distributional parameter lives in [`RegionConfig`], documented
//! against the paper quantity it was calibrated to.

mod barrier;
pub mod generator;
pub mod middlebox;
pub mod scenario;
mod shard;
mod stream;
mod window;

pub use generator::{Lifecycle, Tenant, TenantModel};
pub use scenario::Scenario;

use barrier::{Barrier, GrantOutcome, Migration, OffloadRequest, ShardInbox};
use nezha_sim::metrics::{CounterHandle, HistogramHandle, MetricsRegistry};
use nezha_sim::obs::{LogHistogram, SloRule, WindowedRollup};
use nezha_sim::report::BenchReport;
use nezha_sim::rng::SimRng;
use nezha_sim::shard::ShardSpec;
use nezha_sim::stats::Samples;
use nezha_sim::time::{SimDuration, SimTime};
use shard::RegionShard;
use stream::Stream;
use window::EpochWindows;

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

/// Region model parameters.
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
    /// Bounded-Pareto tail index of per-tenant demand weight (~1 ⇒ the
    /// top 1% of tenants holds most of the demand).
    pub tenant_alpha: f64,
    /// Bounds of the per-tenant demand weight.
    pub tenant_weight: (f64, f64),
    /// CPU demand per unit of tenant weight (fraction of capacity).
    pub tenant_cpu_scale: f64,
    /// Memory demand per unit of tenant weight (fraction of capacity).
    pub tenant_mem_scale: f64,
    /// Region-wide FE pool capacity; offload grants beyond it are
    /// denied. `u64::MAX` models an effectively unconstrained pool.
    pub fe_pool_cap: u64,
    /// Median of the per-server baseline CPU demand (fraction of
    /// capacity). Calibrated with `cpu_sigma` to Fig. 4a: avg ≈ 5%,
    /// P90 ≈ 15%, P99 ≈ 41%, P999 ≈ 68%, P9999 ≈ 90%.
    pub cpu_median: f64,
    /// Log-normal sigma of the CPU baseline.
    pub cpu_sigma: f64,
    /// Median of the per-server baseline memory demand. Calibrated with
    /// `mem_sigma` to Fig. 4b: avg ≈ 1.5%, P999 ≈ 93%, P9999 ≈ 96%.
    pub mem_median: f64,
    /// Log-normal sigma of the memory baseline.
    pub mem_sigma: f64,
    /// Fraction of servers hosting memory-heavy middlebox-style vNICs
    /// (the fat tail of Fig. 4b).
    pub mem_heavy_frac: f64,
    /// Per-server, per-epoch probability of a demand spike.
    pub spike_prob: f64,
    /// Bounded-Pareto tail index of spike magnitude.
    pub spike_alpha: f64,
    /// Spike magnitude bounds (multiplier on baseline).
    pub spike_mult: (f64, f64),
    /// Median spike rise time; a spike faster than the offload
    /// activation still causes a (brief) overload under Nezha.
    pub spike_rise_median: SimDuration,
    /// Log-normal sigma of the rise time.
    pub spike_rise_sigma: f64,
    /// Relative frequency of CPS / flows / vNIC spikes. Calibrated to
    /// Fig. 3's observed hotspot shares (≈61% / 30% / 9%, Appendix A.1).
    pub spike_weights: (f64, f64, f64),
    /// Offload trigger threshold (Fig. 8: 70%).
    pub offload_threshold: f64,
    /// Median of one FE config push (same model as the packet cluster).
    pub push_median: SimDuration,
    /// Log-normal sigma of the push.
    pub push_sigma: f64,
    /// Gateway update delay.
    pub gateway_delay: SimDuration,
    /// vSwitch learning interval.
    pub learning_interval: SimDuration,
    /// Initial FE count (Appendix B.2: 4).
    pub initial_fes: usize,
    /// Per offloaded-vNIC, per-day probability that demand growth forces
    /// a scale-out (calibrated to Appendix B.2's ≈2.6% of pools).
    pub scale_out_daily_prob: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            servers: 10_000,
            shards: 4,
            seed: 0x4e5a,
            epoch: SimDuration::from_secs(3600),
            tenants: 0,
            tenant_alpha: 1.05,
            tenant_weight: (1.0, 20_000.0),
            tenant_cpu_scale: 4.0e-5,
            tenant_mem_scale: 1.5e-5,
            fe_pool_cap: u64::MAX,
            cpu_median: 0.028,
            cpu_sigma: 1.15,
            mem_median: 0.008,
            mem_sigma: 1.05,
            mem_heavy_frac: 0.0035,
            spike_prob: 0.002,
            spike_alpha: 1.1,
            spike_mult: (1.5, 40.0),
            spike_rise_median: SimDuration::from_secs(60),
            spike_rise_sigma: 1.2,
            spike_weights: (0.61, 0.30, 0.09),
            offload_threshold: 0.70,
            push_median: SimDuration::from_millis(430),
            push_sigma: 0.50,
            gateway_delay: SimDuration::from_millis(100),
            learning_interval: SimDuration::from_millis(200),
            initial_fes: 4,
            scale_out_daily_prob: 0.0009,
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
}

/// Pre-registered handles mirroring [`RegionReport`] into an attached
/// [`MetricsRegistry`] (all under the `region.` prefix).
#[derive(Clone, Debug)]
struct RegionTelemetry {
    registry: MetricsRegistry,
    overload_cps: CounterHandle,
    overload_flows: CounterHandle,
    overload_vnics: CounterHandle,
    offload_events: CounterHandle,
    offload_denied: CounterHandle,
    scale_out_events: CounterHandle,
    fes_provisioned: CounterHandle,
    tenant_births: CounterHandle,
    tenant_deaths: CounterHandle,
    migrations: CounterHandle,
    flash_crowds: CounterHandle,
    fault_crashes: CounterHandle,
    cpu_util: HistogramHandle,
    mem_util: HistogramHandle,
    completion_secs: HistogramHandle,
}

impl RegionTelemetry {
    fn register(registry: &MetricsRegistry) -> Self {
        RegionTelemetry {
            registry: registry.clone(),
            overload_cps: registry.counter("region.overload.cps", &[]),
            overload_flows: registry.counter("region.overload.flows", &[]),
            overload_vnics: registry.counter("region.overload.vnics", &[]),
            offload_events: registry.counter("region.offload_events", &[]),
            offload_denied: registry.counter("region.offload_denied", &[]),
            scale_out_events: registry.counter("region.scale_out_events", &[]),
            fes_provisioned: registry.counter("region.fes_provisioned", &[]),
            tenant_births: registry.counter("region.tenant_births", &[]),
            tenant_deaths: registry.counter("region.tenant_deaths", &[]),
            migrations: registry.counter("region.migrations", &[]),
            flash_crowds: registry.counter("region.flash_crowds", &[]),
            fault_crashes: registry.counter("region.fault_crashes", &[]),
            cpu_util: registry.histogram("region.cpu_util", &[]),
            mem_util: registry.histogram("region.mem_util", &[]),
            completion_secs: registry.histogram("region.offload_completion_secs", &[]),
        }
    }
}

/// Samples one offload activation completion time from `rng`: the
/// slowest of the initial FE config pushes, plus the gateway update,
/// plus the learning interval — identical in form to the packet-level
/// controller, hence Table 4's distribution.
pub(crate) fn completion_from(rng: &mut SimRng, cfg: &RegionConfig) -> SimDuration {
    let mut worst = SimDuration::ZERO;
    for _ in 0..cfg.initial_fes {
        let d = rng.lognormal_duration(cfg.push_median, cfg.push_sigma);
        if d > worst {
            worst = d;
        }
    }
    worst + cfg.gateway_delay + cfg.learning_interval
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
    tel: Option<RegionTelemetry>,
    /// Per-epoch windowed rollup + SLO watchdog; `None` until
    /// [`Region::enable_windows`]. One window per epoch, folded once at
    /// the barrier ([`window`]) — the JSONL stream and SLO event log are
    /// byte-identical for any shard count.
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
            tel: None,
            windows: None,
        }
    }

    /// Turns on the per-epoch observability plane: each epoch closes as
    /// one window (counter deltas, utilization and completion-time
    /// histograms), retained in a ring of `retain` records, with `rules`
    /// evaluated at every close. Shards contribute counts, the
    /// histograms are recorded at the barrier, so the window stream is
    /// part of the shard-count-invariance contract.
    pub fn enable_windows(&mut self, retain: usize, rules: Vec<SloRule>) {
        self.windows = Some(EpochWindows::new(retain, rules));
    }

    /// The windowed rollup; `None` until [`Region::enable_windows`].
    /// A new run ([`Region::run_scenario`]) continues appending windows:
    /// window indices keep counting up from the rollup's `closed()`.
    pub fn windows(&self) -> Option<&WindowedRollup> {
        self.windows.as_ref().map(|w| &w.rollup)
    }

    /// Attaches a [`MetricsRegistry`]: subsequent runs mirror the
    /// [`RegionReport`] quantities into `region.*` counters and
    /// histograms there. Optional — an unattached region pays no
    /// telemetry cost.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.tel = Some(RegionTelemetry::register(registry));
    }

    /// Samples one offload activation completion time (Table 4) from the
    /// region's standalone completion stream.
    pub fn sample_completion(&mut self) -> SimDuration {
        completion_from(&mut self.completion_rng, &self.cfg)
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
        let mut report = RegionReport::default();
        // Every server reports one sample per epoch, crashed or not.
        let samples = total_epochs as usize * cfg.servers;
        report.cpu_utils.reserve(samples);
        report.mem_utils.reserve(samples);
        let mut barrier = Barrier::new(&cfg);
        let mut inboxes: Vec<ShardInbox> = vec![ShardInbox::default(); self.shards.len()];

        for sh in &mut self.shards {
            sh.begin_run(&cfg, sc, &model, total_epochs, epoch_ns);
        }

        if let Some(w) = &mut self.windows {
            w.begin_run();
        }

        // Nezha proactively offloads every server already above the
        // threshold at rollout; grants land in epoch 0's inboxes.
        if nezha {
            let per_shard: Vec<(u32, Vec<OffloadRequest>)> = self
                .shards
                .iter_mut()
                .map(|sh| (sh.id(), sh.initial_requests(&cfg)))
                .collect();
            let outcome = barrier.resolve_requests(per_shard, cfg.initial_fes as u64);
            self.record_grants(&outcome, &mut report, &mut inboxes);
            // These land in epoch 0's inboxes, so they are accounted to
            // this run's first window.
            if let Some(w) = &mut self.windows {
                w.note_grants(&outcome);
            }
        }

        let (mut day_cps, mut day_flows, mut day_vnics) = (0u64, 0u64, 0u64);
        for epoch in 0..total_epochs {
            let t_epoch = SimTime(epoch * epoch_ns);
            let mut plan =
                barrier.plan_epoch(epoch, t_epoch, sc, servers, epochs_per_day, epoch_ns);
            if plan.flash.is_some() {
                report.flash_crowds += 1;
                if let Some(tel) = &self.tel {
                    tel.registry.inc(tel.flash_crowds);
                }
            }
            if let Some(wave) = plan.wave.take() {
                let spec = self.spec;
                let subs =
                    wave.split_by_server(spec.shards(), |sid| spec.owner(u64::from(sid.raw())));
                for (sh, sub) in self.shards.iter_mut().zip(subs) {
                    sh.apply_fault_plan(sub);
                }
            }

            // Run every shard, folding outputs in ascending shard order
            // (float accumulation order must be partition-independent).
            let mut requests: Vec<(u32, Vec<OffloadRequest>)> =
                Vec::with_capacity(self.shards.len());
            let mut migrations: Vec<(u32, Vec<Migration>)> = Vec::with_capacity(self.shards.len());
            for sh in &mut self.shards {
                let inbox = std::mem::take(&mut inboxes[sh.id() as usize]);
                let mut out = sh.run_epoch(
                    t_epoch,
                    &plan,
                    &inbox,
                    &cfg,
                    sc,
                    &model,
                    nezha,
                    epochs_per_day,
                );
                for &(cpu, mem) in sh.utils() {
                    report.cpu_utils.record(cpu);
                    report.mem_utils.record(mem);
                    if let Some(tel) = &self.tel {
                        tel.registry.observe(tel.cpu_util, cpu);
                        tel.registry.observe(tel.mem_util, mem);
                    }
                    if let Some(w) = &mut self.windows {
                        w.record_util(cpu, mem);
                    }
                }
                day_cps += out.overloads[0];
                day_flows += out.overloads[1];
                day_vnics += out.overloads[2];
                report.tenant_births += out.births;
                report.tenant_deaths += out.deaths;
                report.fault_crashes += out.crashes;
                report.scale_out_events += out.scale_outs;
                report.total_fes_provisioned += out.scale_outs;
                barrier.charge_scale_outs(out.scale_outs);
                if let Some(tel) = &self.tel {
                    tel.registry.add(tel.overload_cps, out.overloads[0]);
                    tel.registry.add(tel.overload_flows, out.overloads[1]);
                    tel.registry.add(tel.overload_vnics, out.overloads[2]);
                    tel.registry.add(tel.tenant_births, out.births);
                    tel.registry.add(tel.tenant_deaths, out.deaths);
                    tel.registry.add(tel.fault_crashes, out.crashes);
                    tel.registry.add(tel.scale_out_events, out.scale_outs);
                    tel.registry.add(tel.fes_provisioned, out.scale_outs);
                }
                if let Some(w) = &mut self.windows {
                    w.add_effects(out.window_effects());
                }
                requests.push((sh.id(), std::mem::take(&mut out.requests)));
                migrations.push((sh.id(), std::mem::take(&mut out.migrations)));
            }

            // Barrier: resolve this epoch's offload requests in global
            // server order against the FE pool; route migrations to the
            // owners of their destination servers. Both apply next epoch.
            let outcome = barrier.resolve_requests(requests, cfg.initial_fes as u64);
            self.record_grants(&outcome, &mut report, &mut inboxes);
            if let Some(w) = &mut self.windows {
                w.note_grants(&outcome);
            }
            let mut win_migrations = 0u64;
            for m in Barrier::merge_migrations(migrations) {
                report.migrations += 1;
                win_migrations += 1;
                if let Some(tel) = &self.tel {
                    tel.registry.inc(tel.migrations);
                }
                inboxes[self.spec.owner(m.1) as usize].arrivals.push(m);
            }

            if let Some(w) = &mut self.windows {
                let end = SimTime((epoch + 1) * epoch_ns);
                w.close(t_epoch, end, win_migrations, plan.flash.is_some());
            }

            if (epoch + 1) % epochs_per_day == 0 {
                report.daily_cps.push(day_cps);
                report.daily_flows.push(day_flows);
                report.daily_vnics.push(day_vnics);
                (day_cps, day_flows, day_vnics) = (0, 0, 0);
            }
        }
        report
    }

    /// Records a barrier grant outcome into the report/telemetry and
    /// routes each decision to its server's owning shard inbox.
    fn record_grants(
        &self,
        outcome: &GrantOutcome,
        report: &mut RegionReport,
        inboxes: &mut [ShardInbox],
    ) {
        for &(server, secs) in &outcome.granted {
            report.offload_events += 1;
            report.total_fes_provisioned += self.cfg.initial_fes as u64;
            report.completion_times.record(secs);
            if let Some(tel) = &self.tel {
                tel.registry.inc(tel.offload_events);
                tel.registry
                    .add(tel.fes_provisioned, self.cfg.initial_fes as u64);
                tel.registry.observe(tel.completion_secs, secs);
            }
            inboxes[self.spec.owner(server) as usize]
                .grants
                .push(server);
        }
        for &server in &outcome.denied {
            report.offload_denied += 1;
            if let Some(tel) = &self.tel {
                tel.registry.inc(tel.offload_denied);
            }
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
        let epoch_ns = cfg.epoch.nanos();
        let epochs_per_day = ((24 * 3600) as f64 / cfg.epoch.as_secs_f64())
            .round()
            .max(1.0) as u64;
        let total_epochs = sc.days as u64 * epochs_per_day;
        let model = TenantModel::from_config(&cfg);
        for sh in &mut self.shards {
            sh.begin_run(&cfg, sc, &model, total_epochs, epoch_ns);
        }
    }
}

#[cfg(test)]
mod tests;
