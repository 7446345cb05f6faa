//! The Nezha controller: utilization monitoring, offload/fallback,
//! FE selection, and remote-pool scale-out/scale-in (§4.2, §4.3, Fig. 8).
//!
//! Decision tree per vSwitch report (Fig. 8):
//!
//! * utilization > **70%** and dominated by *local* vNIC load → **offload**
//!   vNICs in descending order of consumption until below the safe level;
//! * utilization > **40%**:
//!   * dominated by *remote* (FE) load → **scale out** more FEs;
//!   * dominated by *local* load while hosting FEs → **scale in**: remove
//!     every FE on this vSwitch to prioritize local traffic (§4.3).
//!
//! Fallback to local processing (§4.2.2) is the manual
//! [`Cluster::trigger_fallback`] workflow; the automatic trigger that
//! would pick low-usage vNICs is not modelled.
//!
//! Every configuration change takes effect with a modeled propagation
//! delay (log-normal push latency per FE, a gateway sync, then the
//! 200 ms learning interval), which yields Table 4's completion-time
//! distribution and the dual-running stage for free.
//!
//! A delayed [`ConfigOp`] names only ids and works out its effect from
//! the lifecycle state when it lands. A gateway sync points the vNIC's
//! entry at its live, ready FEs while the vNIC is offloading or
//! offloaded, and at its home otherwise, so a sync scheduled before a
//! fallback cannot point the gateway back at FEs being torn down. Every
//! FE removal (scale-in, failover, the BE↔FE mutual ping) goes through
//! `replace_fe`, which refills the pool to its floor.

use crate::be::{BackendMeta, OffloadPhase};
use crate::cluster::{Cluster, ConfigOp, Event};
use crate::fe::FrontEnd;
use crate::gateway::LEARNING_INTERVAL;
use crate::telemetry::{Ctr, Hist};
use nezha_sim::rng::SimRng;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{NezhaError, NezhaResult, ServerId, VnicId};
use std::collections::BTreeMap;

/// Utilization report / decision period.
pub const REPORT_PERIOD: SimDuration = SimDuration::from_millis(500);
/// Offload trigger threshold (70% in Fig. 8). The region simulator
/// offloads at the same level.
pub const OFFLOAD_THRESHOLD: f64 = 0.70;
/// Scale-out/-in trigger threshold (40% in Fig. 8); also the ceiling on
/// an FE candidate's utilization.
pub const SCALE_THRESHOLD: f64 = 0.40;
/// Offload vNICs until projected utilization falls below this.
pub const SAFE_LEVEL: f64 = 0.40;
/// FEs per offload (4 in production, Appendix B.2): the default of
/// [`ControllerConfig::initial_fes`] and the region simulator's grant.
pub const INITIAL_FES: usize = 4;
/// FEs added per scale-out (production doubles 4 → 8, Fig. 11).
pub const SCALE_OUT_STEP: usize = 4;
/// Minimum spacing between scale-outs of one vNIC's pool: utilization
/// windows keep reading hot for up to their length after a widening
/// takes effect, so reacting faster than this double-fires.
pub const SCALE_OUT_COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// Median of the per-FE config push latency (log-normal).
pub const CONFIG_PUSH_MEDIAN: SimDuration = SimDuration::from_millis(430);
/// Log-normal sigma of the push latency.
pub const CONFIG_PUSH_SIGMA: f64 = 0.50;
/// Delay for a gateway table update to apply.
pub const GATEWAY_UPDATE_DELAY: SimDuration = SimDuration::from_millis(100);
/// Slack past the learning interval before a falling-back vNIC's FEs are
/// torn down, so packets a sender launched under the old mapping still
/// find an FE.
pub const FALLBACK_FINAL_MARGIN: SimDuration = SimDuration::from_millis(50);
/// Health-monitor ping period (§4.4).
pub const PING_PERIOD: SimDuration = SimDuration::from_millis(500);
/// Missed pings before a vSwitch is declared crashed.
pub const PING_MISSES: u32 = 3;

/// One FE config push's latency, drawn from `rng` — the draw both the
/// packet-level controller and the region simulator make per FE.
pub(crate) fn config_push_latency(rng: &mut SimRng) -> SimDuration {
    rng.lognormal_duration(CONFIG_PUSH_MEDIAN, CONFIG_PUSH_SIGMA)
}

/// The controller settings a testbed varies; every other number of the
/// controller is one of this module's constants.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// FEs per offload (default [`INITIAL_FES`]).
    pub initial_fes: usize,
    /// Minimum FE count maintained by failover (§4.4).
    pub min_fes: usize,
    /// Enable automatic offloading on threshold crossings.
    pub auto_offload: bool,
    /// Enable automatic FE scaling.
    pub auto_scale: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            initial_fes: INITIAL_FES,
            min_fes: 4,
            auto_offload: true,
            auto_scale: true,
        }
    }
}

/// Controller bookkeeping between ticks.
#[derive(Debug, Default)]
pub struct ControllerState {
    /// Cycles charged for *local* (BE or traditional) work per server
    /// since the last tick, indexed by `ServerId`.
    local_cycles: Vec<f64>,
    /// Cycles charged for *remote* (FE) work per server since last tick.
    remote_cycles: Vec<f64>,
    /// Last scale-out instant per vNIC (cooldown enforcement).
    last_scale_out: BTreeMap<VnicId, SimTime>,
}

/// Adds `cycles` to server `s`'s tally, growing the tally to reach it.
fn note(tally: &mut Vec<f64>, s: ServerId, cycles: u64) {
    let i = s.0 as usize;
    if i >= tally.len() {
        tally.resize(i + 1, 0.0);
    }
    tally[i] += cycles as f64;
}

impl ControllerState {
    /// Fresh state.
    pub fn new() -> Self {
        ControllerState::default()
    }

    pub(crate) fn note_local_cycles(&mut self, s: ServerId, cycles: u64) {
        note(&mut self.local_cycles, s, cycles);
    }

    pub(crate) fn note_remote_cycles(&mut self, s: ServerId, cycles: u64) {
        note(&mut self.remote_cycles, s, cycles);
    }

    fn split(&self, s: ServerId) -> (f64, f64) {
        let i = s.0 as usize;
        (
            self.local_cycles.get(i).copied().unwrap_or(0.0),
            self.remote_cycles.get(i).copied().unwrap_or(0.0),
        )
    }

    fn reset(&mut self) {
        self.local_cycles.fill(0.0);
        self.remote_cycles.fill(0.0);
    }
}

impl Cluster {
    /// One controller decision round (runs every [`REPORT_PERIOD`]).
    pub(crate) fn controller_tick(&mut self, now: SimTime) {
        let cfg = self.cfg.controller;
        self.engine
            .schedule_in(REPORT_PERIOD, Event::ControllerTick);
        // Scripted controller outage: reports are lost and no decision is
        // made until the controller recovers (the data plane keeps
        // forwarding on its last-pushed configuration — §4.4's argument
        // that the controller is off the critical path).
        if self.faults.controller_down() {
            self.controller.reset();
            return;
        }
        let n = self.switches.len();
        let mut to_scale_out: Vec<ServerId> = Vec::new();
        for i in 0..n {
            let server = ServerId(i as u32);
            if self.faults.is_crashed(server) {
                continue;
            }
            let cpu = self.switches[i].cpu_utilization(now);
            let mem = self.switches[i].mem_utilization();
            let util = cpu.max(mem);
            let (local, remote) = self.controller.split(server);
            // Publish the per-server utilization report the decisions
            // below are based on. The gauge handles were pre-registered
            // at startup: no string-keyed registry lookup here.
            if let Some(g) = self.tel.ctrl_gauges.get(i).copied() {
                let reg = &self.tel.shared.registry;
                reg.set(g.cpu_util, cpu);
                reg.set(g.mem_util, mem);
                reg.set(g.local_cycles, local);
                reg.set(g.remote_cycles, remote);
            }

            if util > OFFLOAD_THRESHOLD && cfg.auto_offload && local >= remote {
                self.offload_overloaded(server, cpu, mem, now);
            } else if util > SCALE_THRESHOLD && cfg.auto_scale {
                if remote > local {
                    to_scale_out.push(server);
                } else if remote > 0.0 {
                    self.scale_in_server(server);
                }
            }
        }
        // One scale-out per vNIC per tick: several hot FE hosts of the
        // same pool are one signal, not several.
        let mut scaled: Vec<VnicId> = Vec::new();
        for server in to_scale_out {
            if let Some(vnic) = self.hottest_fe_vnic(server) {
                if !scaled.contains(&vnic) {
                    self.scale_out(vnic, SCALE_OUT_STEP);
                    scaled.push(vnic);
                }
            }
        }
        self.controller.reset();
    }

    /// Offloads this vSwitch's local vNICs, heaviest first, until the
    /// projected utilization is below the safe level (§4.2.1).
    fn offload_overloaded(&mut self, server: ServerId, cpu: f64, mem: f64, now: SimTime) {
        let by_cpu = cpu >= mem;
        let vs = &self.switches[server.0 as usize];
        // Rank candidates by the triggering resource.
        let mut candidates: Vec<(VnicId, f64)> = vs
            .vnic_ids()
            .into_iter()
            .filter(|v| self.vnic_home.get(v) == Some(&server))
            .filter(|v| !self.be_meta.contains_key(v))
            .map(|v| {
                let weight = if by_cpu {
                    vs.vnic_cycle_shares().get(&v).copied().unwrap_or(0.0)
                } else {
                    vs.vnic_memory(v) as f64
                };
                (v, weight)
            })
            .collect();
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

        let total: f64 = candidates.iter().map(|c| c.1).sum();
        let mut util = cpu.max(mem);
        for (vnic, weight) in candidates {
            if util <= SAFE_LEVEL {
                break;
            }
            if self.trigger_offload(vnic, now).is_ok() {
                // Project the relief proportionally to the vNIC's share.
                if total > 0.0 {
                    util -= (weight / total) * util;
                }
            }
        }
    }

    /// Starts offloading `vnic` to a fresh FE set (§4.2.1 workflow).
    ///
    /// Errors if the vNIC is unknown, already offloaded, or no candidate
    /// FEs exist.
    pub fn trigger_offload(&mut self, vnic: VnicId, now: SimTime) -> NezhaResult<()> {
        if self.be_meta.contains_key(&vnic) {
            return Err(NezhaError::AlreadyOffloaded(vnic));
        }
        let home = *self
            .vnic_home
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        let want = self.cfg.controller.initial_fes;
        let fes = self.select_idle_vswitches(home, want, &[]);
        if fes.is_empty() {
            return Err(NezhaError::NoIdleVswitches);
        }
        // BE metadata costs the 2 KB of §6.2.1.
        let be_bytes = self.cfg.vswitch.memory.be_metadata;
        if self.switches[home.0 as usize].mem.alloc(be_bytes).is_err() {
            return Err(NezhaError::InsufficientMemory {
                what: "BE metadata",
            });
        }
        let mut meta = BackendMeta::new(now);
        self.tel.inc(Ctr::OffloadEvents);

        // Push rule tables to each FE with a modeled per-FE delay.
        let mut worst = SimDuration::ZERO;
        for fe in fes {
            meta.add_fe(fe);
            let delay = config_push_latency(&mut self.rng);
            worst = worst.max(delay);
            self.engine
                .schedule_in(delay, Event::Config(ConfigOp::FeConfigured { vnic, fe }));
        }
        self.be_meta.insert(vnic, meta);

        // Gateway sync follows the slowest FE config plus its own push;
        // at apply time it reflects whichever FEs actually configured.
        let gw_at = now + worst + GATEWAY_UPDATE_DELAY;
        self.engine
            .schedule_at(gw_at, Event::Config(ConfigOp::GatewaySync { vnic }));
        if self.cfg.skip_dual_running {
            // Ablation: tear the BE's tables down the moment the FEs are
            // up — before a single peer has learned the new mapping.
            self.engine
                .schedule_at(now + worst, Event::Config(ConfigOp::BeFinalStage { vnic }));
        }
        // Activation check once every sender has learned the new mapping.
        self.engine.schedule_at(
            gw_at + LEARNING_INTERVAL,
            Event::Config(ConfigOp::CheckActivation { vnic }),
        );
        Ok(())
    }

    /// Selects idle vSwitches to host FEs: same ToR first, widening to the
    /// pod and then the whole fabric; candidates must be alive, have
    /// headroom, and have *similar* utilization for a consistent flow
    /// experience (Appendix B.1 — we sort ascending and take a contiguous
    /// low-utilization block).
    pub(crate) fn select_idle_vswitches(
        &mut self,
        home: ServerId,
        want: usize,
        exclude: &[ServerId],
    ) -> Vec<ServerId> {
        let now = self.engine.now();
        let scopes = [
            self.topo.rack_peers(home),
            self.topo.pod_peers(home),
            self.topo.all_peers(home),
        ];
        for scope in scopes {
            let mut cands: Vec<(ServerId, f64)> = scope
                .into_iter()
                .filter(|s| !self.faults.is_crashed(*s))
                .filter(|s| !exclude.contains(s))
                .map(|s| (s, self.switches[s.0 as usize].cpu_utilization(now)))
                .filter(|(_, u)| *u < SCALE_THRESHOLD)
                .collect();
            if cands.len() >= want {
                cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
                return cands.into_iter().take(want).map(|(s, _)| s).collect();
            }
        }
        Vec::new()
    }

    /// Adds `n` more FEs for an offloaded vNIC (scale-out, §4.3).
    ///
    /// A no-op while a previous scale-out's pushes are still in flight or
    /// within [`SCALE_OUT_COOLDOWN`] of it — the pool must see the effect
    /// of one widening before deciding on another.
    pub fn scale_out(&mut self, vnic: VnicId, n: usize) -> usize {
        let Some(meta) = self.be_meta.get(&vnic) else {
            return 0;
        };
        let now = self.engine.now();
        let cooling = (self.controller.last_scale_out.get(&vnic))
            .is_some_and(|&last| now.since(last) < SCALE_OUT_COOLDOWN);
        if !meta.all_ready() || cooling {
            return 0;
        }
        self.add_fes(vnic, n, None)
    }

    /// Adds up to `n` FEs to an offloaded vNIC's pool, never on `avoid`,
    /// and pushes their config; the gateway is synced after the pushes.
    /// Returns how many were added.
    fn add_fes(&mut self, vnic: VnicId, n: usize, avoid: Option<ServerId>) -> usize {
        let Some(meta) = self.be_meta.get(&vnic) else {
            return 0;
        };
        let mut unavailable = meta.fe_list.clone();
        unavailable.extend(avoid);
        let new_fes = self.select_idle_vswitches(self.vnic_home[&vnic], n, &unavailable);
        if new_fes.is_empty() {
            return 0;
        }
        self.tel.inc(Ctr::ScaleOutEvents);
        self.controller
            .last_scale_out
            .insert(vnic, self.engine.now());
        // Every added FE re-hashes a slice of the flow space onto a cold
        // cache — counted as churn for the recovery metrics.
        self.tel.add(Ctr::RehashChurn, new_fes.len() as u64);
        if let Some(meta) = self.be_meta.get_mut(&vnic) {
            new_fes.iter().for_each(|&fe| meta.add_fe(fe));
        }
        for &fe in &new_fes {
            let delay = config_push_latency(&mut self.rng);
            self.engine
                .schedule_in(delay, Event::Config(ConfigOp::FeConfigured { vnic, fe }));
        }
        self.engine.schedule_in(
            CONFIG_PUSH_MEDIAN.times(2) + GATEWAY_UPDATE_DELAY,
            Event::Config(ConfigOp::GatewaySync { vnic }),
        );
        new_fes.len()
    }

    /// The vNIC with the largest FE (remote) usage on `server` — the
    /// scale-out candidate when that host runs hot.
    fn hottest_fe_vnic(&self, server: ServerId) -> Option<VnicId> {
        let vs = &self.switches[server.0 as usize];
        let shares = vs.vnic_cycle_shares();
        self.fes
            .keys()
            .filter(|(s, _)| *s == server)
            .map(|(_, v)| (*v, shares.get(v).copied().unwrap_or(0.0)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map(|(v, _)| v)
    }

    /// Scale-in: remove every FE on `server` to prioritize its local vNIC
    /// traffic (§4.3), replacing each elsewhere where the pool drops below
    /// its floor.
    pub fn scale_in_server(&mut self, server: ServerId) {
        if self.replace_fes_on(server) {
            self.tel.inc(Ctr::ScaleInEvents);
        }
    }

    /// [`Cluster::replace_fe`] for every FE on `server`, in vNIC id order.
    /// False when `server` hosts none.
    pub(crate) fn replace_fes_on(&mut self, server: ServerId) -> bool {
        let mut victims: Vec<VnicId> = self
            .fes
            .keys()
            .filter(|(s, _)| *s == server)
            .map(|(_, v)| *v)
            .collect();
        victims.sort_unstable_by_key(|v| v.0);
        for &vnic in &victims {
            self.replace_fe(vnic, server);
        }
        !victims.is_empty()
    }

    /// Removes `vnic`'s FE on `server`, then refills the pool to
    /// [`ControllerConfig::min_fes`], never on `server` — the one path by
    /// which scale-in, failover and the BE↔FE mutual ping shed an FE.
    /// "If one of the 4 FEs crashes, we will delete the faulty FE and add
    /// a new one. If there are more than 4 … only delete" (§4.4). The
    /// refill is not a widening, so [`Cluster::scale_out`]'s in-flight
    /// and cooldown guards do not hold it back.
    pub(crate) fn replace_fe(&mut self, vnic: VnicId, server: ServerId) {
        self.remove_fe(vnic, server);
        let cur = self.be_meta.get(&vnic).map_or(0, |m| m.fe_list.len());
        let floor = self.cfg.controller.min_fes;
        if cur < floor {
            self.add_fes(vnic, floor - cur, Some(server));
        }
    }

    /// Removes one FE of one vNIC: config and memory, then a gateway sync.
    pub(crate) fn remove_fe(&mut self, vnic: VnicId, fe_server: ServerId) {
        let Some(meta) = self.be_meta.get_mut(&vnic) else {
            return;
        };
        if !meta.remove_fe(fe_server) {
            return;
        }
        // A removal re-hashes the departed FE's flow slice onto the
        // survivors (churn, mirrored by the add side in scale-out).
        self.tel.inc(Ctr::RehashChurn);
        if let Some(fe) = self.fes.remove(&(fe_server, vnic)) {
            let m = self.cfg.vswitch.memory;
            fe.release(&mut self.switches[fe_server.0 as usize].mem, &m);
        }
        self.engine.schedule_in(
            GATEWAY_UPDATE_DELAY,
            Event::Config(ConfigOp::GatewaySync { vnic }),
        );
    }

    /// Starts a fallback to local processing (§4.2.2).
    pub fn trigger_fallback(&mut self, vnic: VnicId, now: SimTime) -> NezhaResult<()> {
        let meta = self
            .be_meta
            .get(&vnic)
            .ok_or(NezhaError::NotOffloaded(vnic))?;
        if meta.phase != OffloadPhase::Offloaded {
            return Err(NezhaError::OffloadInProgress(vnic));
        }
        self.begin_fallback(vnic, now)?;
        self.tel.inc(Ctr::FallbackEvents);
        Ok(())
    }

    /// The fallback both the management plane ([`Cluster::trigger_fallback`])
    /// and the data plane's graceful degradation start: re-arm the home
    /// with the master tables unless it still holds them (dual-running
    /// again), enter `FallbackDual`, sync the gateway (which then names
    /// the home), and tear the FEs down once every sender has learned
    /// that. Changes nothing on error.
    pub(crate) fn begin_fallback(&mut self, vnic: VnicId, now: SimTime) -> NezhaResult<()> {
        let home = *self
            .vnic_home
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        let master = self
            .master_vnics
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        let meta = self
            .be_meta
            .get_mut(&vnic)
            .ok_or(NezhaError::NotOffloaded(vnic))?;
        let vs = &mut self.switches[home.0 as usize];
        if vs.vnic(vnic).is_none() {
            vs.add_vnic(master.clone())
                .map_err(|_| NezhaError::InsufficientMemory { what: "BE tables" })?;
        }
        meta.phase = OffloadPhase::FallbackDual;
        let gw_at = now + GATEWAY_UPDATE_DELAY;
        self.engine
            .schedule_at(gw_at, Event::Config(ConfigOp::GatewaySync { vnic }));
        self.engine.schedule_at(
            gw_at + LEARNING_INTERVAL + FALLBACK_FINAL_MARGIN,
            Event::Config(ConfigOp::FallbackFinal { vnic }),
        );
        Ok(())
    }

    /// Applies a delayed configuration operation.
    pub(crate) fn apply_config(&mut self, op: ConfigOp, now: SimTime) {
        match op {
            ConfigOp::FeConfigured { vnic, fe } => {
                // A repeated push for a configured FE changes nothing.
                if !self.is_alive(fe) || self.fes.contains_key(&(fe, vnic)) {
                    return;
                }
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if !meta.fe_list.contains(&fe) {
                    return; // removed while the push was in flight
                }
                let Some(master) = self.master_vnics.get(&vnic) else {
                    return;
                };
                let bytes = master.table_memory(&self.cfg.vswitch.memory);
                if self.switches[fe.0 as usize].mem.alloc(bytes).is_err() {
                    // The candidate filled up while configuring; drop it.
                    if let Some(meta) = self.be_meta.get_mut(&vnic) {
                        meta.remove_fe(fe);
                    }
                    return;
                }
                let home = self.vnic_home[&vnic];
                self.fes
                    .insert((fe, vnic), FrontEnd::new(master.clone(), home));
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return; // meta presence checked above
                };
                meta.mark_ready(fe);
                // A straggling push can land after the scheduled gateway
                // sync; re-sync once the set completes so every ready FE
                // receives RX traffic.
                if meta.all_ready() {
                    self.engine.schedule_in(
                        GATEWAY_UPDATE_DELAY,
                        Event::Config(ConfigOp::GatewaySync { vnic }),
                    );
                }
            }
            ConfigOp::GatewaySync { vnic } => {
                let (Some(&home), Some(&addr)) =
                    (self.vnic_home.get(&vnic), self.vnic_addr.get(&vnic))
                else {
                    return;
                };
                // Worked out from the lifecycle as it is now (the live FEs
                // while the BE steers through them, else the home), so a
                // sync scheduled under an earlier phase cannot point the
                // gateway at FEs a fallback is tearing down.
                let mut servers: Vec<ServerId> = Vec::new();
                if self.nezha_active_for_tx(vnic) {
                    let ready = self.be_meta[&vnic].ready_fes();
                    servers.extend(ready.iter().filter(|&&s| self.is_alive(s)));
                }
                if servers.is_empty() && self.is_alive(home) {
                    servers.push(home);
                }
                if !servers.is_empty() {
                    self.gateway.update(addr, servers, now);
                }
            }
            ConfigOp::CheckActivation { vnic } => {
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if meta.phase == OffloadPhase::OffloadDual && meta.activated_at.is_none() {
                    meta.activated_at = Some(now);
                    let completion = now.since(meta.triggered_at);
                    self.tel
                        .observe_duration(Hist::OffloadCompletion, completion);
                    // Enter the final stage after learning-interval + RTT.
                    self.engine.schedule_in(
                        LEARNING_INTERVAL + SimDuration::from_millis(2),
                        Event::Config(ConfigOp::BeFinalStage { vnic }),
                    );
                }
            }
            ConfigOp::BeFinalStage { vnic } => {
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if meta.phase != OffloadPhase::OffloadDual {
                    return;
                }
                meta.phase = OffloadPhase::Offloaded;
                let home = self.vnic_home[&vnic];
                let vs = &mut self.switches[home.0 as usize];
                // "Delete the rule tables and cached flows on the BE"
                // (§4.2.1): frees the memory that becomes #flows headroom.
                vs.remove_vnic(vnic);
                let m = self.cfg.vswitch.memory;
                vs.sessions.invalidate_flows(&mut vs.mem, &m);
            }
            ConfigOp::FallbackFinal { vnic } => {
                let Some(meta) = self.be_meta.get(&vnic) else {
                    return;
                };
                if meta.phase != OffloadPhase::FallbackDual {
                    return;
                }
                for fe_server in self.fe_servers(vnic) {
                    if let Some(fe) = self.fes.remove(&(fe_server, vnic)) {
                        let m = self.cfg.vswitch.memory;
                        fe.release(&mut self.switches[fe_server.0 as usize].mem, &m);
                    }
                }
                let home = self.vnic_home[&vnic];
                self.switches[home.0 as usize]
                    .mem
                    .free(self.cfg.vswitch.memory.be_metadata);
                self.be_meta.remove(&vnic);
            }
            ConfigOp::BeLocationUpdate { vnic, new_home } => {
                // §7.2: live migration — repoint every FE's BE location.
                // A home outside the topology has no vSwitch to move to.
                if new_home.0 as usize >= self.switches.len() {
                    return;
                }
                // The BE metadata moves with the BE; a new home without
                // room for it ignores the update.
                let old_home = self.vnic_home.get(&vnic).copied();
                if let Some(old) =
                    old_home.filter(|&h| h != new_home && self.be_meta.contains_key(&vnic))
                {
                    let be_bytes = self.cfg.vswitch.memory.be_metadata;
                    let new_pool = &mut self.switches[new_home.0 as usize].mem;
                    if new_pool.alloc(be_bytes).is_err() {
                        return;
                    }
                    self.switches[old.0 as usize].mem.free(be_bytes);
                }
                for ((_, v), fe) in self.fes.iter_mut() {
                    if *v == vnic {
                        fe.be_location = new_home;
                    }
                }
                self.vnic_home.insert(vnic, new_home);
            }
        }
    }
}
