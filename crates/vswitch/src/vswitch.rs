//! The assembled vSwitch: vNICs + session table + CPU/memory enforcement.
//!
//! [`VSwitch::process_local`] implements the traditional architecture of
//! the paper's Fig. 1 as one straight-line function: look up the session
//! (fast path) or the rule tables (slow path, via [`pair_lookup`]), all
//! charged against the CPU server and the table memory pool owned here,
//! then [`SessionState::process_pkt`]. `nezha-core` builds the BE and FE
//! roles from the finer-grained primitives also exposed here
//! ([`VSwitch::charge`], [`VSwitch::vnic`], the session table).

use crate::config::VSwitchConfig;
use crate::session::SessionTable;
use crate::stage::costing;
use crate::stage::lookup::pair_lookup;
use crate::telemetry::SwitchTelemetry;
use crate::vnic::Vnic;
use nezha_sim::dense::DenseMap;
use nezha_sim::profile::Stage;
use nezha_sim::resources::{CpuOutcome, CpuServer, MemoryPool, OutOfMemory};
use nezha_sim::telemetry::Telemetry;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{Action, Decision, Ipv4Addr, Packet, ServerId, SessionKey, SessionState, VnicId};
use std::collections::BTreeMap;

pub use crate::telemetry::VSwitchCounters;

/// Deepest CPU backlog (as drain time) before packets drop.
pub const MAX_BACKLOG: SimDuration = SimDuration::from_millis(2);

/// Which processing path a packet took.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathTaken {
    /// Exact-match hit on the cached flow.
    Fast,
    /// Full rule-table lookup.
    Slow,
}

/// Terminal outcome for one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcessOutcome {
    /// The packet proceeds with this final action.
    Forwarded(Action),
    /// Dropped by policy (final ACL verdict).
    AclDrop,
    /// Dropped: no route covers the destination.
    Unroutable,
    /// Dropped: per-class QoS rate exceeded.
    RateLimited,
    /// Dropped: the vSwitch CPU backlog bound was exceeded (overload).
    CpuOverload,
}

impl ProcessOutcome {
    /// True when the packet survived.
    pub fn is_forwarded(&self) -> bool {
        matches!(self, ProcessOutcome::Forwarded(_))
    }
}

/// Full result of processing one packet at one vSwitch.
#[derive(Clone, Copy, Debug)]
pub struct ProcessResult {
    /// What happened.
    pub outcome: ProcessOutcome,
    /// Which path the packet took; `None` for CPU drops (an overloaded
    /// switch rejects the packet before it takes any path).
    pub path: Option<PathTaken>,
    /// The nominal cycles (before gray-failure scaling) the switch priced
    /// this packet at: charged on success, attempted on a CPU drop. An
    /// unknown vNIC is priced as a table-less slow path, though nothing
    /// is charged for it.
    pub cycles: u64,
    /// When the vSwitch finished with the packet (includes CPU queueing).
    pub done_at: SimTime,
    /// True when a new session entry was created by this packet.
    pub created_session: bool,
    /// True when session-table memory was exhausted and the flow is being
    /// processed without caching (a #concurrent-flows overload signal).
    pub session_overflow: bool,
}

/// A SmartNIC vSwitch instance.
#[derive(Debug)]
pub struct VSwitch {
    /// The hosting server's id.
    pub id: ServerId,
    pub(crate) cfg: VSwitchConfig,
    cpu: CpuServer,
    /// Table memory pool (rule tables + session table share it, §2.2.2).
    pub mem: MemoryPool,
    /// Dense-hashed: probed (twice) per processed packet. Iteration is
    /// only via [`VSwitch::vnic_ids`], which sorts.
    pub(crate) vnics: DenseMap<VnicId, Vnic>,
    /// The session table (public: the Nezha BE role manipulates it).
    pub sessions: SessionTable,
    pub(crate) tel: SwitchTelemetry,
    /// Cycles charged per vNIC (for the controller's offload-candidate
    /// ranking, §4.2.1), measured over the CPU's utilization window.
    vnic_cycles: BTreeMap<VnicId, f64>,
    /// Gray-failure knob: every cycle charge is scaled by this factor
    /// (1.0 when healthy). A degraded SmartNIC burns more cycles for the
    /// same work — the "slow but not dead" member of Appendix C.
    cycle_multiplier: f64,
}

impl VSwitch {
    /// Builds a standalone vSwitch on server `id` with the given
    /// configuration and a private [`Telemetry`] handle.
    pub fn new(id: ServerId, cfg: VSwitchConfig) -> Self {
        Self::with_telemetry(id, cfg, &Telemetry::new())
    }

    /// Builds a vSwitch reporting into the shared `tel`: its
    /// `vswitch.*{server=N}` counters, trace events and span trees land
    /// beside every other component constructed with the same handle.
    pub fn with_telemetry(id: ServerId, cfg: VSwitchConfig, tel: &Telemetry) -> Self {
        VSwitch {
            id,
            cpu: CpuServer::new(cfg.cores, cfg.core_hz, MAX_BACKLOG),
            mem: MemoryPool::new(cfg.table_memory),
            vnics: DenseMap::new(),
            sessions: SessionTable::new(),
            tel: SwitchTelemetry::register(tel, id),
            vnic_cycles: BTreeMap::new(),
            cycle_multiplier: 1.0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VSwitchConfig {
        &self.cfg
    }

    /// The telemetry handle this switch reports into (trace ring and
    /// profiler disabled until the owner enables them).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel.shared
    }

    /// Lifetime counters, assembled from the metrics registry.
    pub fn counters(&self) -> VSwitchCounters {
        self.tel.view()
    }

    /// Installs a vNIC, charging its rule-table memory. Fails when the
    /// SmartNIC cannot fit the tables — the #vNICs bottleneck of §2.2.2.
    /// A vNIC with the same id is replaced and its charge freed.
    pub fn add_vnic(&mut self, vnic: Vnic) -> Result<(), OutOfMemory> {
        self.mem.alloc(vnic.table_memory(&self.cfg.memory))?;
        if let Some(old) = self.vnics.insert(vnic.id, vnic) {
            self.mem.free(old.table_memory(&self.cfg.memory));
        }
        Ok(())
    }

    /// Removes a vNIC, freeing what its tables hold. Returns the vNIC.
    pub fn remove_vnic(&mut self, id: VnicId) -> Option<Vnic> {
        let vnic = self.vnics.remove(&id)?;
        self.mem.free(vnic.table_memory(&self.cfg.memory));
        Some(vnic)
    }

    /// [`Vnic::learn_peer`] on the hosted vNIC `id`, charged to this
    /// switch's pool (a no-op for a vNIC not hosted here).
    pub fn learn_peer(&mut self, id: VnicId, addr: Ipv4Addr, server: ServerId) {
        if let Some(vnic) = self.vnics.get_mut(&id) {
            vnic.learn_peer(addr, server, &mut self.mem, &self.cfg.memory);
        }
    }

    /// Looks up a hosted vNIC.
    pub fn vnic(&self, id: VnicId) -> Option<&Vnic> {
        self.vnics.get(&id)
    }

    /// Ids of all hosted vNICs, in stable (id) order — iteration order
    /// must never leak BTreeMap randomness into control decisions.
    pub fn vnic_ids(&self) -> Vec<VnicId> {
        let mut ids: Vec<VnicId> = self.vnics.keys().copied().collect();
        ids.sort_unstable_by_key(|v| v.0);
        ids
    }

    /// Number of hosted vNICs.
    pub fn vnic_count(&self) -> usize {
        self.vnics.len()
    }

    /// Sets the gray-failure cycle multiplier (fault injection; 1.0
    /// restores healthy behavior). Values > 1 inflate every subsequent
    /// cycle charge, shrinking this switch's effective capacity.
    pub fn set_cycle_multiplier(&mut self, multiplier: f64) {
        self.cycle_multiplier = multiplier.max(0.0);
    }

    /// The current gray-failure cycle multiplier.
    pub fn cycle_multiplier(&self) -> f64 {
        self.cycle_multiplier
    }

    /// The post-multiplier cycle cost of a nominal charge: exactly what
    /// [`VSwitch::charge`] bills the CPU and attributes to the vNIC.
    /// Profiling sites record this value so span totals reconcile with
    /// [`VSwitch::vnic_cycle_shares`] even under gray-failure scaling.
    pub fn scaled_cycles(&self, cycles: u64) -> u64 {
        if self.cycle_multiplier == 1.0 {
            cycles
        } else {
            ((cycles as f64) * self.cycle_multiplier).round() as u64
        }
    }

    /// Charges `cycles` of work at `now`, attributed to `vnic`.
    pub fn charge(&mut self, now: SimTime, vnic: VnicId, cycles: u64) -> CpuOutcome {
        let cycles = self.scaled_cycles(cycles);
        let out = self.cpu.offer(now, cycles);
        if !out.is_dropped() {
            *self.vnic_cycles.entry(vnic).or_insert(0.0) += cycles as f64;
        }
        out
    }

    /// CPU utilization over the trailing window, `[0, 1]`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Replaces the CPU utilization measurement window (default 1 s).
    pub fn set_util_window(&mut self, len: nezha_sim::time::SimDuration) {
        self.cpu.set_window(len);
    }

    /// Memory utilization, `[0, 1]`.
    pub fn mem_utilization(&self) -> f64 {
        self.mem.utilization()
    }

    /// Cumulative cycles attributed to each vNIC (the controller ranks
    /// offload candidates by this, descending — §4.2.1).
    pub fn vnic_cycle_shares(&self) -> &BTreeMap<VnicId, f64> {
        &self.vnic_cycles
    }

    /// Memory bytes attributable to one vNIC: its rule tables plus its
    /// share of the session table.
    pub fn vnic_memory(&self, id: VnicId) -> u64 {
        let tables = self
            .vnics
            .get(&id)
            .map_or(0, |v| v.table_memory(&self.cfg.memory));
        let sessions: u64 = self
            .sessions
            .iter()
            .filter(|(_, e)| e.vnic == id)
            .map(|(_, e)| e.memory_bytes(&self.cfg.memory))
            .sum();
        tables + sessions
    }

    /// Model bytes this switch's own owners hold on its pool: every hosted
    /// vNIC's tables plus every session entry. The FEs and BE metadata it
    /// hosts for a cluster are charged to the same pool but owned there.
    pub fn held_bytes(&self) -> u64 {
        let m = &self.cfg.memory;
        let tables: u64 = self.vnics.values().map(|v| v.table_memory(m)).sum();
        tables
            + self
                .sessions
                .iter()
                .map(|(_, e)| e.memory_bytes(m))
                .sum::<u64>()
    }

    /// Sweeps expired sessions (call periodically, e.g. every second).
    pub fn expire_sessions(&mut self, now: SimTime) -> usize {
        self.sessions.expire(now, &self.cfg, &mut self.mem)
    }

    /// Records one structured trace event for `pkt` (no-op while the
    /// trace ring is disabled or the filter rejects it).
    pub fn trace_event(&self, at: SimTime, pkt: &Packet, kind: TraceEventKind) {
        self.tel.shared.trace_pkt(at, self.id, pkt, kind);
    }

    /// Counts one first packet whose session could not be stored because
    /// table memory is exhausted (`vswitch.session_overflows{server}`).
    pub fn note_session_overflow(&self) {
        self.tel.shared.registry.inc(self.tel.session_overflows);
    }

    /// Processes one packet in the **traditional local architecture**:
    /// this vSwitch holds the vNIC's rules, flows, and state.
    pub fn process_local(&mut self, pkt: &Packet, now: SimTime) -> ProcessResult {
        self.trace_event(now, pkt, TraceEventKind::Enqueue);
        let costs = self.cfg.costs;
        let bytes = pkt.wire_len();
        // Unroutable until the rule lookup finds a route.
        let mut result = ProcessResult {
            outcome: ProcessOutcome::Unroutable,
            path: Some(PathTaken::Slow),
            cycles: 0,
            done_at: now,
            created_session: false,
            session_overflow: false,
        };
        let Some(vnic) = self.vnics.get(&pkt.vnic) else {
            // A stale vNIC-server mapping upstream.
            result.cycles = costs.slow_path_cycles(bytes, 0, 0);
            return self.finish_traced(pkt, result);
        };

        // Probe the flow cache — the packet's one session-table probe;
        // everything below returns to the entry through `slot`. A hit
        // yields this direction's pre-action.
        let key = SessionKey::of(pkt.vpc, pkt.tuple);
        let slot = self.sessions.slot(&key);
        let cached = slot
            .and_then(|s| self.sessions.pre_actions(self.sessions.at(s)))
            .map(|pair| *pair.for_direction(pkt.dir));
        // Priced after the probe, so fast-path packets skip the slow-path
        // formula's `ln`.
        let (path, cycles, probe) = match cached {
            Some(_) => (
                PathTaken::Fast,
                costs.fast_path_cycles(bytes),
                TraceEventKind::TableHit,
            ),
            None => (
                PathTaken::Slow,
                vnic.slow_path_cycles(&costs, bytes),
                TraceEventKind::TableMiss,
            ),
        };
        self.trace_event(now, pkt, probe);
        result.cycles = cycles;
        let CpuOutcome::Done { done_at } = self.charge(now, pkt.vnic, cycles) else {
            // An overloaded switch rejects the packet before any path.
            result.outcome = ProcessOutcome::CpuOverload;
            result.path = None;
            return self.finish_traced(pkt, result);
        };
        result.path = Some(path);
        result.done_at = done_at;
        self.trace_event(now, pkt, TraceEventKind::CpuCharge { cycles });
        // The span tree of a successful charge: a `local` root with
        // per-stage leaves summing to exactly what the CPU model charged.
        if self.tel.shared.profiler.is_enabled() {
            if let Some(vnic) = self.vnics.get(&pkt.vnic) {
                let mut leaves = Vec::new();
                let total = self.scaled_cycles(cycles);
                costing::charge_leaves(path, &costs, vnic, bytes, total, &mut leaves);
                self.tel
                    .shared
                    .span_tree(Stage::Local, pkt, self.id, now, done_at, &leaves);
            }
        }

        // `charge` needed the whole switch; take the vNIC back.
        let Some(vnic) = self.vnics.get_mut(&pkt.vnic) else {
            return self.finish_traced(pkt, result);
        };
        let (pre, entry) = match cached {
            Some(pre) => (pre, slot.map(|s| self.sessions.at_mut(s))),
            None => {
                let pair = pair_lookup(vnic, &pkt.tuple, pkt.dir);
                let pre = *pair.for_direction(pkt.dir);
                // Stateless routing drops are final: no session for them.
                if pre.verdict == Decision::Drop && !pre.stateful_acl {
                    return self.finish_traced(pkt, result);
                }
                let memory = &self.cfg.memory;
                let entry = match slot {
                    None => {
                        let established = self.sessions.establish(
                            key,
                            pkt.vnic,
                            pkt.dir,
                            Some(pair),
                            now,
                            &mut self.mem,
                            memory,
                        );
                        result.created_session = established.is_ok();
                        result.session_overflow = established.is_err();
                        established.ok()
                    }
                    // The entry lost its cached flows to a rule update:
                    // re-cache the fresh lookup if memory allows.
                    Some(s) => {
                        self.sessions.cache_flows(s, pair, &mut self.mem, memory);
                        Some(self.sessions.at_mut(s))
                    }
                };
                (pre, entry)
            }
        };
        let action = match entry {
            Some(e) => {
                e.last_seen = now;
                let action = e.state.process_pkt(&pre, pkt);
                if e.state.stats_policy != 0 {
                    self.sessions.record_stats(key, pkt.dir, bytes as u64);
                }
                action
            }
            // Session memory exhausted: process against ephemeral state
            // (stateful guarantees degrade exactly as they would on a
            // real overflowing switch).
            None => SessionState::default().process_pkt(&pre, pkt),
        };
        result.outcome = if action.verdict == Decision::Drop {
            ProcessOutcome::AclDrop
        } else if !vnic.tables.qos.admit(now, action.qos_class, bytes as u64) {
            ProcessOutcome::RateLimited
        } else {
            ProcessOutcome::Forwarded(action)
        };
        self.finish_traced(pkt, result)
    }

    /// Counts and traces the terminal `result` of one packet.
    fn finish_traced(&self, pkt: &Packet, result: ProcessResult) -> ProcessResult {
        let reg = &self.tel.shared.registry;
        let drop_reason = match result.outcome {
            ProcessOutcome::Forwarded(a) => {
                reg.inc(self.tel.forwarded);
                if a.mirror_to.is_some() {
                    reg.inc(self.tel.mirrored);
                }
                None
            }
            ProcessOutcome::AclDrop => {
                reg.inc(self.tel.acl_drops);
                Some(DropReason::PolicyDeny)
            }
            ProcessOutcome::Unroutable => {
                reg.inc(self.tel.unroutable);
                Some(DropReason::NoRoute)
            }
            ProcessOutcome::RateLimited => {
                reg.inc(self.tel.rate_limited);
                Some(DropReason::RateLimited)
            }
            ProcessOutcome::CpuOverload => {
                reg.inc(self.tel.cpu_drops);
                Some(DropReason::Backlog)
            }
        };
        if result.session_overflow {
            self.note_session_overflow();
        }
        if let Some(reason) = drop_reason {
            self.trace_event(result.done_at, pkt, TraceEventKind::Drop(reason));
        }
        result
    }
}

#[cfg(test)]
#[path = "vswitch_tests.rs"]
mod tests;
