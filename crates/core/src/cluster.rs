//! The packet-level testbed: cluster construction, public accessors, and
//! scripted fault application, all on the deterministic event engine.
//!
//! The cluster's moving parts live in sibling modules:
//!
//! * [`crate::config`] — [`ClusterConfig`] + builder and the delayed
//!   [`ConfigOp`] pushes;
//! * [`crate::telemetry`] — the shared [`Telemetry`] handle, the closed
//!   instrument vocabularies and the aggregated [`ClusterStats`] view;
//! * `crate::dispatch` — the [`Event`] match, the NSH demux, and what the
//!   two roles' handlers share (charging, drops, terminal forwarding);
//! * [`crate::be`] / [`crate::fe`] — the per-packet BE and FE handlers,
//!   beside the [`BackendMeta`] and [`FrontEnd`] types they drive;
//! * `crate::driver` — connection scripts, retries and probes.
//!
//! The controller (`controller.rs`) and health monitor (`monitor.rs`)
//! extend this struct with the management plane.

use crate::be::BackendMeta;
use crate::conn::{ConnKind, ConnSpec, ConnState, ConnTable};
use crate::controller::{ControllerState, PING_PERIOD, REPORT_PERIOD};
use crate::fe::FrontEnd;
use crate::gateway::Gateway;
use crate::monitor::MonitorState;
use crate::telemetry::{ClusterTelemetry, Ctr};
use crate::vm::{VmConfig, VmModel};
use nezha_sim::dense::DenseMap;
use nezha_sim::engine::Engine;
use nezha_sim::fault::{FaultKind, FaultPlan, FaultState};
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::profile::Profiler;
use nezha_sim::rng::SimRng;
use nezha_sim::telemetry::Telemetry;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::topology::Topology;
use nezha_sim::trace::PacketTrace;
use nezha_types::{Ipv4Addr, NezhaError, NezhaResult, Packet, ServerId, VnicId};
use nezha_vswitch::vnic::Vnic;
use nezha_vswitch::vswitch::VSwitch;

pub use crate::config::{ClusterConfig, ClusterConfigBuilder, ConfigOp, LbMode};
pub use crate::dispatch::Event;
pub use crate::driver::{retry_backoff, RETRY_CAP, RETRY_TIMEOUT};
pub use crate::telemetry::ClusterStats;

use crate::driver::{PROBE_BIT, SILENT_BIT};

/// Period of the session-aging sweep: every live vSwitch expires its
/// idle sessions once per period.
pub const AGING_PERIOD: SimDuration = SimDuration::from_secs(1);

/// A `u32`-addressed arena with a LIFO free list: where packets park
/// between schedule and arrival, so a queued event carries a 4-byte id
/// instead of a 200-byte copy.
///
/// `insert` returns an id; `take` moves the value out and recycles the
/// id. Ids are recycled most-recently-freed first, so the id sequence is
/// a pure function of the call sequence.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Parks a value, returning its id.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "2^32 live slab slots is beyond any simulated run; ids are u32 to keep events 16 bytes"
    )]
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(value);
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Some(value));
                id
            }
        }
    }

    /// Moves the value at `id` out, recycling the slot.
    ///
    /// Panics when `id` is vacant — a vacant take means an event was
    /// duplicated or double-freed, which must never happen.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a vacant take means an event was duplicated or double-freed: a simulator bug, not an input"
    )]
    pub(crate) fn take(&mut self, id: u32) -> T {
        let v = self.slots[id as usize].take().expect("vacant slab slot");
        self.free.push(id);
        v
    }
}

/// The packet-level testbed.
#[derive(Debug)]
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    /// The fabric.
    pub topo: Topology,
    /// Event engine.
    pub engine: Engine<Event>,
    pub(crate) switches: Vec<VSwitch>,
    /// The gateway's versioned vNIC-server table.
    pub gateway: Gateway,
    /// FE instances keyed by `(host, vnic)`. Dense-hashed: each FE visit
    /// is one O(1) probe. Every iteration site either
    /// aggregates or sorts explicitly (monitor targets, failover victims),
    /// so map order is never behavior-visible.
    pub(crate) fes: DenseMap<(ServerId, VnicId), FrontEnd>,
    /// Per-vNIC lookup tables, all dense-hashed: each is probed on the
    /// per-packet path (home resolution, VM delivery, BE metadata) and
    /// none is iterated order-visibly — the one iteration site (the
    /// monitor's mutual-ping pairs over `be_meta`) sorts explicitly.
    pub(crate) be_meta: DenseMap<VnicId, BackendMeta>,
    pub(crate) vnic_home: DenseMap<VnicId, ServerId>,
    pub(crate) vnic_addr: DenseMap<VnicId, Ipv4Addr>,
    /// Controller-side master copy of each vNIC's tables (tenant intent),
    /// used to (re)configure FEs and to re-arm the BE on fallback.
    pub(crate) master_vnics: DenseMap<VnicId, Vnic>,
    pub(crate) vms: DenseMap<VnicId, VmModel>,
    /// Connection states by id. Ids are handed out sequentially from 1
    /// and never reused; records are freed a chunk at a time once every
    /// connection in the chunk is terminal. Also the queue of unstarted
    /// connections registered in start order ([`Cluster::add_conn`]).
    pub(crate) conns: ConnTable,
    /// In-flight packets parked between schedule and arrival — each
    /// with the instant its network journey began — addressed by the
    /// `u32` id inside [`Event::Arrive`] / [`Event::StartProbe`].
    /// Slot reuse is LIFO and ids are a pure function of the schedule
    /// call sequence, so replay stays seed-deterministic.
    pub(crate) pkt_slab: Slab<(Packet, SimTime)>,
    next_probe_id: u64,
    /// Telemetry: shared registry + trace + pre-registered handles.
    pub(crate) tel: ClusterTelemetry,
    /// Controller bookkeeping.
    pub(crate) controller: ControllerState,
    /// Monitor bookkeeping.
    pub(crate) monitor: MonitorState,
    pub(crate) rng: SimRng,
    /// Live scripted fault conditions (chaos injection), the one record
    /// of which servers are crashed and which paths are cut. Sampled
    /// from its own forked RNG stream so fault outcomes replay
    /// seed-for-seed.
    pub(crate) faults: FaultState,
}

impl Cluster {
    /// Builds a cluster and schedules the periodic management ticks.
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = Topology::new(cfg.topology);
        let n = topo.total_servers() as usize;
        // The one telemetry handle: every component is built around it.
        let tel = ClusterTelemetry::register(Telemetry::new(), n);
        let switches: Vec<VSwitch> = (0..n)
            .map(|i| VSwitch::with_telemetry(ServerId(i as u32), cfg.vswitch, &tel.shared))
            .collect();
        let mut engine = Engine::new();
        engine.attach_metrics(&tel.shared.registry);
        engine.schedule_in(REPORT_PERIOD, Event::ControllerTick);
        engine.schedule_in(PING_PERIOD, Event::MonitorTick);
        engine.schedule_in(AGING_PERIOD, Event::AgingTick);
        Cluster {
            topo,
            engine,
            switches,
            gateway: Gateway::new(),
            fes: DenseMap::new(),
            be_meta: DenseMap::new(),
            vnic_home: DenseMap::new(),
            vnic_addr: DenseMap::new(),
            master_vnics: DenseMap::new(),
            vms: DenseMap::new(),
            conns: ConnTable::default(),
            pkt_slab: Slab::default(),
            next_probe_id: 1,
            tel,
            controller: ControllerState::new(),
            monitor: MonitorState::new(),
            // Raw seed, not `derive_seed`: pinned by golden fixtures
            // (refactor_equivalence, the benchmark's payload digests);
            // migrate when re-baselining.
            rng: SimRng::new(cfg.seed),
            // An independent stream derived from the seed (not forked from
            // `rng`, so enabling faults never perturbs baseline draws).
            // The mix is pinned by the same goldens.
            faults: FaultState::new(SimRng::new(
                cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xFA17,
            )),
            cfg,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Parks `pkt` (and `sent_at`, when its journey began) in the packet
    /// slab and schedules its arrival at `server` — the queue entry
    /// carries the slab id, not the packet.
    pub(crate) fn schedule_arrive(
        &mut self,
        at: SimTime,
        server: ServerId,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        let pkt = self.pkt_slab.insert((pkt, sent_at));
        self.engine.schedule_at(at, Event::Arrive { server, pkt });
    }

    /// The cluster's shared [`MetricsRegistry`] — engine, every vSwitch,
    /// and the management plane all report here. Take `.snapshot()` to
    /// read every metric deterministically.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.tel.shared.registry
    }

    /// The shared packet-trace ring (disabled until
    /// [`Cluster::enable_trace`]).
    pub fn trace(&self) -> &PacketTrace {
        &self.tel.shared.trace
    }

    /// Turns on structured per-packet tracing, keeping at most `capacity`
    /// most-recent events. Pass 0 to disable again.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tel.shared.trace.set_capacity(capacity);
    }

    /// The shared cycle-attribution [`Profiler`] (disabled until
    /// [`Cluster::enable_profile`]).
    pub fn profiler(&self) -> &Profiler {
        &self.tel.shared.profiler
    }

    /// Turns on cycle-attribution profiling: every subsequent CPU charge
    /// records a causal span tree, keeping at most `span_capacity` full
    /// span records (aggregate stage/flamegraph totals are unbounded).
    pub fn enable_profile(&mut self, span_capacity: usize) {
        self.tel.shared.profiler.enable(span_capacity);
    }

    /// Turns on the live observability plane: windowed rollups of every
    /// registry metric (counter deltas, changed gauges, per-window
    /// histogram summaries) every `width` of simulated time, a bounded
    /// ring of `retain` full window records, and an SLO watchdog over
    /// `rules` evaluated at each window close. Also registers the
    /// per-FE-server `fe.rx_pkts` counters the fairness rule consumes.
    ///
    /// Call before the run starts (registration is string-keyed and must
    /// not happen mid-simulation: each lookup allocates its key). Runs that
    /// never enable windows carry zero overhead and identical snapshots.
    pub fn enable_windows(
        &mut self,
        width: nezha_sim::time::SimDuration,
        retain: usize,
        rules: Vec<nezha_sim::obs::SloRule>,
    ) {
        let n = self.switches.len();
        self.tel.register_windows(n, width, retain, rules);
    }

    /// The windowed rollup (window records, JSONL stream, SLO events);
    /// `None` until [`Cluster::enable_windows`].
    pub fn windows(&self) -> Option<&nezha_sim::obs::WindowedRollup> {
        self.tel.windows.as_ref().map(|w| w.rollup())
    }

    /// Closes every open window whose end is `<= t` against the current
    /// registry contents. `run_until` does this automatically as sim
    /// time advances; experiments stepping the run window-by-window call
    /// it explicitly at segment ends.
    pub fn close_windows_to(&mut self, t: SimTime) {
        let ClusterTelemetry {
            windows, shared, ..
        } = &mut self.tel;
        if let Some(w) = windows.as_mut() {
            w.advance_to(t, &shared.registry);
        }
    }

    /// Total cycles the CPU model has charged across every switch and
    /// vNIC since construction — the ground truth the profiler's
    /// per-stage totals must reconcile with.
    pub fn total_charged_cycles(&self) -> f64 {
        self.switches
            .iter()
            .map(|vs| vs.vnic_cycle_shares().values().sum::<f64>())
            .sum()
    }

    /// The legacy aggregated view, assembled from the metrics registry.
    pub fn stats(&self) -> ClusterStats {
        self.tel.stats()
    }

    /// Immutable access to a server's vSwitch.
    ///
    /// Errors with [`NezhaError::UnknownServer`] when `s` is outside the
    /// topology.
    pub fn switch(&self, s: ServerId) -> NezhaResult<&VSwitch> {
        self.switches
            .get(s.0 as usize)
            .ok_or(NezhaError::UnknownServer(s))
    }

    /// Mutable access to a server's vSwitch (tests / rule pushes).
    pub fn switch_mut(&mut self, s: ServerId) -> NezhaResult<&mut VSwitch> {
        self.switches
            .get_mut(s.0 as usize)
            .ok_or(NezhaError::UnknownServer(s))
    }

    /// Whether a server is alive: in the topology and not crashed.
    pub fn is_alive(&self, s: ServerId) -> bool {
        (s.0 as usize) < self.switches.len() && !self.faults.is_crashed(s)
    }

    /// The BE metadata of an offloaded vNIC, if any.
    pub fn backend(&self, vnic: VnicId) -> Option<&BackendMeta> {
        self.be_meta.get(&vnic)
    }

    /// The VM attached to a vNIC.
    pub fn vm(&self, vnic: VnicId) -> Option<&VmModel> {
        self.vms.get(&vnic)
    }

    /// Number of FEs currently hosted for `vnic`.
    pub fn fe_count(&self, vnic: VnicId) -> usize {
        self.fes.keys().filter(|(_, v)| *v == vnic).count()
    }

    /// An FE's `(hits, misses, cache_skips)` counters.
    pub fn fe_counters(&self, fe: ServerId, vnic: VnicId) -> Option<(u64, u64, u64)> {
        self.fes.get(&(fe, vnic)).map(|f| f.counters())
    }

    /// Number of flows cached at one FE.
    pub fn fe_cached_flows(&self, fe: ServerId, vnic: VnicId) -> Option<usize> {
        self.fes.get(&(fe, vnic)).map(|f| f.cached_flows())
    }

    /// The BE location configured on one FE (None when that FE does not
    /// exist).
    pub fn fe_be_location(&self, fe: ServerId, vnic: VnicId) -> Option<ServerId> {
        self.fes.get(&(fe, vnic)).map(|f| f.be_location)
    }

    /// The current home (BE) server of a vNIC.
    pub fn home_of(&self, vnic: VnicId) -> Option<ServerId> {
        self.vnic_home.get(&vnic).copied()
    }

    /// Servers hosting FEs for `vnic`, in stable (id) order.
    pub fn fe_servers(&self, vnic: VnicId) -> Vec<ServerId> {
        let mut servers: Vec<ServerId> = self
            .fes
            .keys()
            .filter(|(_, v)| *v == vnic)
            .map(|(s, _)| *s)
            .collect();
        servers.sort_unstable_by_key(|s| s.0);
        servers
    }

    /// Installs a vNIC (with VM) on its home server and registers it at
    /// the gateway.
    ///
    /// Errors when the cluster already has a vNIC with this id, `home` is
    /// outside the topology, or its vSwitch cannot fit the vNIC's
    /// tables; the cluster is left unchanged.
    pub fn add_vnic(&mut self, vnic: Vnic, home: ServerId, vm: VmConfig) -> NezhaResult<()> {
        let id = vnic.id;
        if self.vnic_home.contains_key(&id) {
            return Err(NezhaError::DuplicateVnic(id));
        }
        let addr = vnic.addr;
        self.switches
            .get_mut(home.0 as usize)
            .ok_or(NezhaError::UnknownServer(home))?
            .add_vnic(vnic.clone())
            .map_err(|_| NezhaError::InsufficientMemory {
                what: "vNIC tables",
            })?;
        self.master_vnics.insert(id, vnic);
        self.vnic_home.insert(id, home);
        self.vnic_addr.insert(id, addr);
        self.gateway.update(addr, vec![home], self.engine.now());
        self.vms.insert(id, VmModel::new(vm));
        Ok(())
    }

    /// Registers the mapping of a peer/client overlay address so the
    /// vNIC's egress lookups resolve to real topology servers.
    ///
    /// Errors with [`NezhaError::UnknownVnic`] for a vNIC that was never
    /// [added](Cluster::add_vnic).
    pub fn map_peer(&mut self, vnic: VnicId, addr: Ipv4Addr, server: ServerId) -> NezhaResult<()> {
        let home = *self
            .vnic_home
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        if let Some(master) = self.master_vnics.get_mut(&vnic) {
            master.tables_mut().vnic_server.set(addr, server);
        }
        // Each held copy charges its own host for a new address.
        self.switches[home.0 as usize].learn_peer(vnic, addr, server);
        let m = self.cfg.vswitch.memory;
        for ((fe_server, v), fe) in self.fes.iter_mut() {
            if *v == vnic {
                let pool = &mut self.switches[fe_server.0 as usize].mem;
                fe.vnic.learn_peer(addr, server, pool, &m);
            }
        }
        Ok(())
    }

    /// Registers a connection and schedules its start. Peer addresses are
    /// mapped automatically. Returns the connection id.
    ///
    /// A future start reserves its engine sequence number now and, when
    /// it is no earlier than the last one chained, waits in the
    /// connection table's start chain instead of the event queue (see
    /// [`Engine::reserve_seq`]): delivery order is unchanged, and an
    /// unstarted connection costs no queue entry. An [`Engine::clear`]
    /// drops the chain's queued head, and with it every start chained
    /// behind it, registered before or after.
    ///
    /// Errors with [`NezhaError::UnknownVnic`] when `spec.vnic` was never
    /// [added](Cluster::add_vnic).
    pub fn add_conn(&mut self, spec: ConnSpec) -> NezhaResult<u64> {
        let peer_addr = match spec.kind {
            ConnKind::Inbound | ConnKind::PersistentInbound | ConnKind::SynOnly => {
                spec.tuple.src_ip
            }
            ConnKind::Outbound => spec.tuple.dst_ip,
        };
        self.map_peer(spec.vnic, peer_addr, spec.peer_server)?;
        let id = self.conns.push(spec);
        let start = Event::StartConn { conn: id };
        if spec.start <= self.engine.now() {
            // Due now: the `immediate` lane may be its place.
            self.engine.schedule_at(spec.start, start);
        } else {
            let seq = self.engine.reserve_seq();
            if self.conns.chain_start(id, spec.start, seq) {
                self.engine.schedule_reserved(spec.start, seq, start);
            }
        }
        Ok(id)
    }

    /// Connection `id` starts: queues the start chain's next `StartConn`
    /// when `id` headed it, then injects the first step.
    pub(crate) fn start_conn(&mut self, id: u64, now: SimTime) {
        if let Some((next, at, seq)) = self.conns.start_next(id) {
            self.engine
                .schedule_reserved(at, seq, Event::StartConn { conn: next });
        }
        self.inject_step(id, 0, now);
    }

    /// The state of connection `id` (ids start at 1; 0, probe traces and
    /// freed records resolve to `None`).
    pub(crate) fn conn(&self, id: u64) -> Option<&ConnState> {
        self.conns.get(id)
    }

    /// Mutable access to connection `id` (tests drive connections
    /// through this).
    #[cfg(test)]
    pub(crate) fn conn_mut(&mut self, id: u64) -> Option<&mut ConnState> {
        self.conns.get_mut(id)
    }

    /// Injects a standalone probe packet (latency measurement, Fig. 12).
    /// RX probes start at `from` and follow the full ingress path to the
    /// VM; the delivered latency lands in [`ClusterStats::probe_latency`].
    pub fn inject_probe_rx(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
    ) -> NezhaResult<()> {
        self.inject_rx_packet(vnic, tuple, payload, from, at, false)
    }

    /// Injects a bulk/background RX packet: takes the full data-plane
    /// path (and loads every resource on it) but is excluded from the
    /// probe-latency samples. Used for bulk background streams.
    pub fn inject_bulk_rx(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
    ) -> NezhaResult<()> {
        self.inject_rx_packet(vnic, tuple, payload, from, at, true)
    }

    fn inject_rx_packet(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
        silent: bool,
    ) -> NezhaResult<()> {
        let vpc = self
            .master_vnics
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?
            .vpc;
        let id = PROBE_BIT | if silent { SILENT_BIT } else { 0 } | self.next_probe_id;
        self.next_probe_id += 1;
        let pkt = Packet::rx_data(id, vpc, vnic, tuple, nezha_types::TcpFlags::ACK, payload);
        let pkt = self.pkt_slab.insert((pkt, at));
        self.engine.schedule_at(at, Event::StartProbe { pkt, from });
        Ok(())
    }

    /// Schedules every transition of a scripted [`FaultPlan`] onto the
    /// event engine. Faults replay on the simulated clock from the
    /// cluster's seeded fault RNG stream: two runs with the same seed and
    /// the same plan observe identical fault behavior.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        for ev in plan.into_events() {
            self.engine
                .schedule_at(ev.at, Event::Fault(Box::new(ev.kind)));
        }
    }

    /// Runs the cluster until simulated time `deadline`.
    ///
    /// Dispatch is one event at a time, in `(at, seq)` order, straight
    /// from [`Engine::pop_until`]: the event moves out of its queue entry
    /// into its handler with no intermediate buffer.
    ///
    /// When windows are enabled, every window whose end falls at or
    /// before an event's timestamp is closed *before* that event is
    /// handled (a boundary event belongs to the window it opens), and all
    /// windows up to `deadline` are flushed once the events due by then
    /// are drained.
    ///
    /// Debug builds then check the memory ledger (`ledger_drift` is
    /// empty), so every test that runs a cluster checks it; release
    /// builds skip the check.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(s) = self.engine.pop_until(deadline) {
            if self.tel.windows.is_some() {
                self.close_windows_to(s.at);
            }
            self.handle(s.event, s.at);
        }
        if self.tel.windows.is_some() {
            self.close_windows_to(deadline);
        }
        debug_assert_eq!(self.ledger_drift(), [], "(server, pool used, bytes held)");
    }

    /// Servers whose memory pool disagrees with what its owners hold, as
    /// `(server, used, held)`. A server's pool is charged by its
    /// vSwitch (hosted vNICs' tables and session entries), by each FE it
    /// hosts ([`FrontEnd::memory_bytes`]) and by the BE metadata of each
    /// offloaded vNIC homed there; nothing else may draw on it.
    pub(crate) fn ledger_drift(&self) -> Vec<(ServerId, u64, u64)> {
        let m = &self.cfg.vswitch.memory;
        let mut held: Vec<u64> = self.switches.iter().map(VSwitch::held_bytes).collect();
        for ((server, _), fe) in self.fes.iter() {
            held[server.0 as usize] += fe.memory_bytes(m);
        }
        for vnic in self.be_meta.keys() {
            held[self.vnic_home[vnic].0 as usize] += m.be_metadata;
        }
        self.switches
            .iter()
            .zip(held)
            .filter(|(vs, held)| vs.mem.used() != *held)
            .map(|(vs, held)| (vs.id, vs.mem.used(), held))
            .collect()
    }

    /// Applies one scripted fault transition: cluster-level side effects
    /// first (the monitor's crash clock, vSwitch cycle multipliers), then
    /// the recorded condition set liveness and the per-packet queries are
    /// answered from.
    pub(crate) fn handle_fault(&mut self, kind: FaultKind, now: SimTime) {
        self.tel.inc(Ctr::FaultEvents);
        match &kind {
            // A server outside the topology has nothing to crash.
            FaultKind::Crash { server } if (server.0 as usize) < self.switches.len() => {
                self.monitor.crash_pending.insert(*server, now);
            }
            FaultKind::Restart { server } => {
                self.monitor.crash_pending.remove(server);
            }
            FaultKind::GraySlow { server, multiplier } => {
                if let Some(vs) = self.switches.get_mut(server.0 as usize) {
                    vs.set_cycle_multiplier(*multiplier);
                }
            }
            FaultKind::GrayRecover { server } => {
                if let Some(vs) = self.switches.get_mut(server.0 as usize) {
                    vs.set_cycle_multiplier(1.0);
                }
            }
            _ => {}
        }
        self.faults.apply(&kind);
    }
}
