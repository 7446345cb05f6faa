//! One region shard: a contiguous server partition with its own RNG
//! streams and its own epoch calendar of deferred events.
//!
//! The shard-count invariance contract, in full:
//!
//! * **Per-server streams.** Every random draw a server makes (baseline,
//!   wobble, spikes, offload races, scale-outs) comes from that server's
//!   own `Stream::Server.rng_at(seed, id)` stream — a
//!   pure function of the global server id, so the draw sequence is
//!   identical no matter which shard executes it.
//! * **Canonical intra-epoch ordering.** Queue events due in an epoch
//!   are taken from its calendar slot, sorted by `(server, tenant, kind)`,
//!   then applied — scheduling order (which *does* depend on partition
//!   layout) never reaches simulation state.
//! * **Ascending emission.** Per-epoch outputs (utilization samples,
//!   requests, migrations) are emitted in ascending server order, so the
//!   barrier's ascending-shard concatenation reproduces the global
//!   ascending-server order for any shard count — which is what makes
//!   floating-point accumulation (histogram sums are order-sensitive in
//!   the last ulp) byte-identical.
//! * **Shard-partitioned faults.** A fault wave arrives as one global
//!   server range; each shard queues a crash now and a restart later for
//!   the servers of the range it owns, and the drain sets their crash
//!   flags.

use super::barrier::{EpochPlan, Migration, OffloadRequest, ShardInbox};
use super::generator::{Lifecycle, TenantModel};
use super::scenario::Scenario;
use super::stream::Stream;
use super::{completion_from, RegionConfig, SpikeKind};
use crate::controller::OFFLOAD_THRESHOLD;
use nezha_sim::rng::SimRng;
use nezha_sim::shard::ShardSpec;
use nezha_sim::time::SimDuration;

/// Median of the per-server baseline CPU demand (fraction of capacity).
/// Calibrated with [`CPU_SIGMA`] to Fig. 4a: avg ≈ 5%, P90 ≈ 15%,
/// P99 ≈ 41%, P999 ≈ 68%, P9999 ≈ 90%.
const CPU_MEDIAN: f64 = 0.028;
/// Log-normal sigma of the CPU baseline.
const CPU_SIGMA: f64 = 1.15;
/// Median of the per-server baseline memory demand. Calibrated with
/// [`MEM_SIGMA`] to Fig. 4b: avg ≈ 1.5%, P999 ≈ 93%, P9999 ≈ 96%.
const MEM_MEDIAN: f64 = 0.008;
/// Log-normal sigma of the memory baseline.
const MEM_SIGMA: f64 = 1.05;
/// Fraction of servers hosting memory-heavy middlebox-style vNICs (the
/// fat tail of Fig. 4b).
const MEM_HEAVY_FRAC: f64 = 0.0035;
/// Bounded-Pareto tail index of spike magnitude.
const SPIKE_ALPHA: f64 = 1.1;
/// Spike magnitude bounds (multiplier on baseline).
const SPIKE_MULT: (f64, f64) = (1.5, 40.0);
/// Median spike rise time; a spike faster than the offload activation
/// still causes a (brief) overload under Nezha.
const SPIKE_RISE_MEDIAN: SimDuration = SimDuration::from_secs(60);
/// Log-normal sigma of the rise time.
const SPIKE_RISE_SIGMA: f64 = 1.2;
/// Relative frequency of CPS / flows / vNIC spikes. Calibrated to
/// Fig. 3's observed hotspot shares (≈61% / 30% / 9%, Appendix A.1).
const SPIKE_WEIGHTS: (f64, f64, f64) = (0.61, 0.30, 0.09);
/// Per offloaded-vNIC, per-day probability that demand growth forces a
/// scale-out (calibrated to Appendix B.2's ≈2.6% of pools).
const SCALE_OUT_DAILY_PROB: f64 = 0.0009;

/// A deferred intra-shard event on the shard's epoch calendar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QueueEvent {
    /// A scripted crash (`crash: true`) or restart of one owned server.
    Fault { server: u64, crash: bool },
    /// A churning tenant deprovisions from its server.
    TenantDeath { server: u64, tenant: u64 },
    /// A churning tenant provisions onto its server.
    TenantBirth { server: u64, tenant: u64 },
    /// A tenant live-migrates away from its server.
    MigrateOut { server: u64, tenant: u64, to: u64 },
}

impl QueueEvent {
    /// Canonical application key: `(server, tenant, kind)`. Queueing
    /// order is a function of partition layout; applying in key order
    /// makes epoch semantics layout-independent. Keys are unique within
    /// an epoch: a tenant has one lifecycle event, and with at most one
    /// wave per epoch a server gets at most one crash and one restart.
    fn key(&self) -> (u64, u64, u8) {
        match *self {
            QueueEvent::Fault { server, crash } => (server, 0, u8::from(!crash)),
            QueueEvent::TenantDeath { server, tenant } => (server, tenant, 2),
            QueueEvent::TenantBirth { server, tenant } => (server, tenant, 3),
            QueueEvent::MigrateOut { server, tenant, .. } => (server, tenant, 4),
        }
    }
}

/// Everything one shard reports from one epoch besides the utilization
/// samples (those are handed over in a buffer,
/// [`RegionShard::swap_utils`]). Consumed by the barrier in ascending
/// shard order.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochOutput {
    /// Offload requests (server, completion secs), ascending server order.
    pub requests: Vec<OffloadRequest>,
    /// Outbound tenant migrations, ascending (server, tenant) order.
    pub migrations: Vec<Migration>,
    /// Overload counts by cause: `[cps, flows, vnics]`.
    pub overloads: [u64; 3],
    /// Tenants provisioned this epoch.
    pub births: u64,
    /// Tenants deprovisioned this epoch.
    pub deaths: u64,
    /// Servers crashed by fault waves this epoch.
    pub crashes: u64,
    /// Servers restarted this epoch.
    pub restarts: u64,
    /// Scale-out operations on offloaded pools this epoch.
    pub scale_outs: u64,
}

impl EpochOutput {
    /// The epoch as shard-local window effects for the region's
    /// observability plane: counter deltas, nothing else. Counts with
    /// the same key add at the barrier, so the window record is the same
    /// for any shard count; the window's histograms are the region's own
    /// (it sees every sample once, via [`RegionShard::swap_utils`]).
    pub(crate) fn window_effects(&self) -> [(&'static str, u64); 10] {
        [
            ("region.overload.cps", self.overloads[0]),
            ("region.overload.flows", self.overloads[1]),
            ("region.overload.vnics", self.overloads[2]),
            ("region.offload_requests", self.requests.len() as u64),
            ("region.migrations_out", self.migrations.len() as u64),
            ("region.tenant_births", self.births),
            ("region.tenant_deaths", self.deaths),
            ("region.fault_crashes", self.crashes),
            ("region.fault_restarts", self.restarts),
            ("region.scale_out_events", self.scale_outs),
        ]
    }
}

/// Per-server state owned by exactly one shard.
#[derive(Debug)]
struct ShardServer {
    rng: SimRng,
    base_cpu: f64,
    base_mem: f64,
    tenant_cpu: f64,
    tenant_mem: f64,
    offloaded: bool,
    /// An offload request is in flight; blocks duplicates until the
    /// barrier answers with a grant or denial.
    requested: bool,
    crashed: bool,
}

/// One shard of the region: a contiguous server range plus its queue.
#[derive(Debug)]
pub(crate) struct RegionShard {
    id: u32,
    /// Global id of `servers[0]`.
    first: u64,
    servers: Vec<ShardServer>,
    /// The epoch calendar: `queue[e]` holds the events due in epoch `e`,
    /// unordered. One slot per epoch of the run plus a last one for
    /// everything due after it (restarts past the end stay pending).
    queue: Vec<Vec<QueueEvent>>,
    /// `(cpu, mem)` utilization per owned server from the last epoch,
    /// ascending server order; swapped for an emptied buffer when the
    /// region hands it to its sink.
    utils: Vec<(f64, f64)>,
}

impl RegionShard {
    /// Builds shard `id` of the partition, deriving every owned server's
    /// stream and heavy-tailed baseline from the global server id.
    pub(super) fn new(id: u32, spec: &ShardSpec, cfg: &RegionConfig) -> Self {
        let range = spec.range(id);
        let first = range.start;
        let servers: Vec<ShardServer> = range
            .map(|g| {
                let mut rng = Stream::Server.rng_at(cfg.seed, g);
                let base_cpu = (CPU_MEDIAN * (CPU_SIGMA * rng.normal()).exp()).min(0.98);
                let heavy = rng.chance(MEM_HEAVY_FRAC);
                let base_mem = if heavy {
                    0.3 + 0.66 * rng.f64()
                } else {
                    (MEM_MEDIAN * (MEM_SIGMA * rng.normal()).exp()).min(0.96)
                };
                ShardServer {
                    rng,
                    base_cpu,
                    base_mem,
                    tenant_cpu: 0.0,
                    tenant_mem: 0.0,
                    offloaded: false,
                    requested: false,
                    crashed: false,
                }
            })
            .collect();
        RegionShard {
            id,
            first,
            queue: Vec::new(),
            utils: Vec::with_capacity(servers.len()),
            servers,
        }
    }

    /// Shard id.
    pub(super) fn id(&self) -> u32 {
        self.id
    }

    /// Hands over the last epoch's `(cpu, mem)` utilization per owned
    /// server, in ascending server order, and keeps the empty `spare`
    /// buffer for the next epoch's.
    pub(super) fn swap_utils(&mut self, spare: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
        std::mem::replace(&mut self.utils, spare)
    }

    /// Events still pending on the shard queue (tenant lifecycle +
    /// faults) — the resident footprint of the lazy tenant population.
    pub(super) fn pending_events(&self) -> usize {
        self.queue.iter().map(Vec::len).sum()
    }

    /// Queues `ev` for `epoch`; an epoch past the run's end lands in the
    /// calendar's last slot, which no epoch drains.
    fn schedule(queue: &mut [Vec<QueueEvent>], epoch: u64, ev: QueueEvent) {
        let last = queue.len() as u64 - 1;
        queue[epoch.min(last) as usize].push(ev);
    }

    /// Resets run-scoped state and schedules the shard's tenant
    /// lifecycle events: for each owned server, its home tenants (ids
    /// congruent to the server modulo the server count) are derived
    /// lazily, their steady demand accumulated in ascending tenant
    /// order, and only churning/migrating tenants ever touch the queue.
    pub(super) fn begin_run(
        &mut self,
        cfg: &RegionConfig,
        sc: &Scenario,
        model: &TenantModel,
        total_epochs: u64,
    ) {
        self.queue.clear();
        self.queue.resize_with(total_epochs as usize + 1, Vec::new);
        let servers_total = cfg.servers as u64;
        for (local, srv) in self.servers.iter_mut().enumerate() {
            srv.tenant_cpu = 0.0;
            srv.tenant_mem = 0.0;
            srv.offloaded = false;
            srv.requested = false;
            srv.crashed = false;
            if servers_total == 0 {
                continue;
            }
            let g = self.first + local as u64;
            let mut t = g;
            while t < model.count() {
                let tenant = model.tenant(t);
                match tenant.lifecycle(sc, total_epochs, servers_total) {
                    Lifecycle::Resident => {
                        srv.tenant_cpu += tenant.cpu;
                        srv.tenant_mem += tenant.mem;
                    }
                    Lifecycle::DiesAt(e) => {
                        srv.tenant_cpu += tenant.cpu;
                        srv.tenant_mem += tenant.mem;
                        Self::schedule(
                            &mut self.queue,
                            e,
                            QueueEvent::TenantDeath {
                                server: g,
                                tenant: t,
                            },
                        );
                    }
                    Lifecycle::BornAt(e) => {
                        Self::schedule(
                            &mut self.queue,
                            e,
                            QueueEvent::TenantBirth {
                                server: g,
                                tenant: t,
                            },
                        );
                    }
                    Lifecycle::MigratesAt(e, to) => {
                        srv.tenant_cpu += tenant.cpu;
                        srv.tenant_mem += tenant.mem;
                        Self::schedule(
                            &mut self.queue,
                            e,
                            QueueEvent::MigrateOut {
                                server: g,
                                tenant: t,
                                to,
                            },
                        );
                    }
                }
                t += servers_total;
            }
        }
    }

    /// Pre-run proactive offload scan (Nezha rollout): every owned
    /// server already above the threshold emits a request, in ascending
    /// server order.
    pub(super) fn initial_requests(&mut self) -> Vec<OffloadRequest> {
        let mut reqs = Vec::new();
        for (local, srv) in self.servers.iter_mut().enumerate() {
            let demand = (srv.base_cpu + srv.tenant_cpu).max(srv.base_mem + srv.tenant_mem);
            if demand > OFFLOAD_THRESHOLD && !srv.offloaded && !srv.requested {
                srv.requested = true;
                let c = completion_from(&mut srv.rng);
                reqs.push((self.first + local as u64, c.as_secs_f64()));
            }
        }
        reqs
    }

    /// Runs one epoch over the owned partition.
    // Out of line, so the per-server loop (the region's hot path) is
    // compiled on its own: inlined, its code moved with every edit to
    // the barrier loop in `Region::run_scenario`.
    #[inline(never)]
    #[expect(
        clippy::too_many_arguments,
        reason = "the barrier's per-epoch plan and inbox plus the run's config, scenario and tenant model are separate `Region` fields, borrowed apart so the shard loop can hold `&mut` to the shard"
    )]
    pub(super) fn run_epoch(
        &mut self,
        epoch: u64,
        plan: &EpochPlan,
        inbox: &ShardInbox,
        cfg: &RegionConfig,
        sc: &Scenario,
        model: &TenantModel,
        nezha: bool,
        epochs_per_day: u64,
    ) -> EpochOutput {
        let mut out = EpochOutput::default();
        self.utils.clear();
        self.utils.reserve(self.servers.len());

        // 1. Barrier responses from last epoch (disjoint server sets).
        for &g in &inbox.grants {
            let srv = &mut self.servers[(g - self.first) as usize];
            srv.offloaded = true;
            srv.requested = false;
        }
        for &g in &inbox.denials {
            self.servers[(g - self.first) as usize].requested = false;
        }
        // 2. Inbound migrations (already in canonical merged order).
        for &(_, to, cpu, mem) in &inbox.arrivals {
            let srv = &mut self.servers[(to - self.first) as usize];
            srv.tenant_cpu += cpu;
            srv.tenant_mem += mem;
        }

        // 3. This epoch's fault wave: a crash now and a restart later for
        // each owned server in its range.
        if let Some((lo, hi, restart)) = plan.wave {
            let end = self.first + self.servers.len() as u64;
            for server in lo.max(self.first)..hi.min(end) {
                for (at, crash) in [(epoch, true), (restart, false)] {
                    Self::schedule(&mut self.queue, at, QueueEvent::Fault { server, crash });
                }
            }
        }

        // 4. Take the events due this epoch and apply them in canonical
        // (server, tenant, kind) order — layout-independent.
        let mut due = std::mem::take(&mut self.queue[epoch as usize]);
        due.sort_unstable_by_key(QueueEvent::key);
        for ev in due {
            match ev {
                QueueEvent::Fault { server, crash } => {
                    self.servers[(server - self.first) as usize].crashed = crash;
                    if crash {
                        out.crashes += 1;
                    } else {
                        out.restarts += 1;
                    }
                }
                QueueEvent::TenantDeath { server, tenant } => {
                    let t = model.tenant(tenant);
                    let srv = &mut self.servers[(server - self.first) as usize];
                    srv.tenant_cpu -= t.cpu;
                    srv.tenant_mem -= t.mem;
                    out.deaths += 1;
                }
                QueueEvent::TenantBirth { server, tenant } => {
                    let t = model.tenant(tenant);
                    let srv = &mut self.servers[(server - self.first) as usize];
                    srv.tenant_cpu += t.cpu;
                    srv.tenant_mem += t.mem;
                    out.births += 1;
                }
                QueueEvent::MigrateOut { server, tenant, to } => {
                    let t = model.tenant(tenant);
                    let srv = &mut self.servers[(server - self.first) as usize];
                    srv.tenant_cpu -= t.cpu;
                    srv.tenant_mem -= t.mem;
                    out.migrations.push((tenant, to, t.cpu, t.mem));
                }
            }
        }

        // 5. Per-server epoch step, ascending server order.
        let scale_p = SCALE_OUT_DAILY_PROB / epochs_per_day as f64;
        for local in 0..self.servers.len() {
            let g = self.first + local as u64;
            let srv = &mut self.servers[local];
            if srv.crashed {
                // The vSwitch is down: no demand served, no draws made
                // (the stream resumes exactly where it paused).
                self.utils.push((0.0, 0.0));
                continue;
            }
            // Small multiplicative wander around the baseline, scaled by
            // the diurnal wave.
            let wobble = (0.25 * srv.rng.normal()).exp();
            let base_cpu = srv.base_cpu + srv.tenant_cpu;
            let base_mem = srv.base_mem + srv.tenant_mem;
            let mut cpu = (base_cpu * wobble * plan.diurnal).min(0.99);
            let mut mem = base_mem.min(0.99);
            // Record the *post-Nezha residual* utilization: an offloaded
            // server sheds most of its hot vNIC's load.
            if srv.offloaded {
                cpu *= 0.15;
                mem *= 0.4;
            }
            self.utils.push((cpu, mem));

            // Threshold-triggered proactive offload request.
            if nezha && !srv.offloaded && !srv.requested && cpu.max(mem) > OFFLOAD_THRESHOLD {
                srv.requested = true;
                let c = completion_from(&mut srv.rng);
                out.requests.push((g, c.as_secs_f64()));
            }

            // Random demand spikes; the diurnal wave modulates arrival
            // pressure.
            if srv.rng.chance(cfg.spike_prob * plan.diurnal) {
                let kind = spike_kind(&mut srv.rng);
                let mult = srv
                    .rng
                    .bounded_pareto(SPIKE_ALPHA, SPIKE_MULT.0, SPIKE_MULT.1);
                // A surge adds demand on top of the baseline: a tenant's
                // traffic jumps by an absolute amount (a flash crowd does
                // not scale with how idle the switch was).
                let surge = 0.05 * mult;
                let demand = match kind {
                    SpikeKind::Cps => base_cpu + surge,
                    _ => base_mem + surge,
                };
                if demand > 1.0 {
                    if let Some(cause) = spike_outcome(srv, kind, nezha, &mut out.requests, g) {
                        out.overloads[cause] += 1;
                    }
                }
            }

            // Flash crowd: a scenario-scripted surge on a contiguous
            // span, stressing the CPS slow path.
            if let Some((lo, hi)) = plan.flash {
                if (lo..hi).contains(&g) && base_cpu + sc.flash_surge > 1.0 {
                    if let Some(cause) =
                        spike_outcome(srv, SpikeKind::Cps, nezha, &mut out.requests, g)
                    {
                        out.overloads[cause] += 1;
                    }
                }
            }

            // Scale-out pressure on offloaded pools.
            if nezha && srv.offloaded && srv.rng.chance(scale_p) {
                out.scale_outs += 1;
            }
        }
        out
    }
}

/// Draws which capability a spike stresses (Fig. 3 shares).
fn spike_kind(rng: &mut SimRng) -> SpikeKind {
    let (a, b, c) = SPIKE_WEIGHTS;
    let x = rng.f64() * (a + b + c);
    if x < a {
        SpikeKind::Cps
    } else if x < a + b {
        SpikeKind::Flows
    } else {
        SpikeKind::Vnics
    }
}

/// Decides whether a capacity-exceeding spike overloads, mirroring the
/// packet-level controller: without Nezha every such spike overloads;
/// vNIC spikes are fully absorbed (§6.3.3); offloaded (or
/// activation-in-flight) servers absorb remotely; otherwise the offload
/// activation races the spike's rise time and a request is emitted.
/// Returns the overload cause index, if any.
fn spike_outcome(
    srv: &mut ShardServer,
    kind: SpikeKind,
    nezha: bool,
    requests: &mut Vec<OffloadRequest>,
    server: u64,
) -> Option<usize> {
    let cause = match kind {
        SpikeKind::Cps => 0,
        SpikeKind::Flows => 1,
        SpikeKind::Vnics => 2,
    };
    if !nezha {
        return Some(cause);
    }
    if kind == SpikeKind::Vnics {
        // vNIC rule tables are created directly on the FEs — Nezha fully
        // prevents these (§6.3.3).
        return None;
    }
    if srv.offloaded || srv.requested {
        // Remote pool absorbs it (possibly scaling).
        return None;
    }
    // Offload races the spike's rise: only spikes faster than the
    // activation window overload.
    let completion = completion_from(&mut srv.rng);
    let rise = srv
        .rng
        .lognormal_duration(SPIKE_RISE_MEDIAN, SPIKE_RISE_SIGMA);
    srv.requested = true;
    requests.push((server, completion.as_secs_f64()));
    (rise < completion).then_some(cause)
}
