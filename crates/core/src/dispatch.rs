//! Event dispatch: the cluster's [`Event`] match, the arrival gate, and
//! the NSH demux that hands each packet to its role handler (the BE's in
//! `be.rs`, the FE's in `fe.rs`).
//!
//! Also home to what both roles share: the flow hashes, CPU charging,
//! drop and misroute accounting, and the terminal forwarding paths
//! (`process_locally` / `forward_to_peer` / `deliver_to_vm`).
//!
//! Every handler is a `Cluster` method taking the packet's current
//! `server` and its arrival time `now`. Handlers draw from no RNG (only
//! `lose_packet`'s jitter does, inside the driver) and never panic on a
//! broken invariant: they degrade to a counted misroute or loss.

use crate::cluster::{Cluster, AGING_PERIOD};
use crate::config::{ConfigOp, LbMode};
use crate::telemetry::Ctr;
use nezha_sim::fault::FaultKind;
use nezha_sim::profile::Stage;
use nezha_sim::resources::CpuOutcome;
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{Action, Direction, NezhaPayloadKind, Packet, ServerId, VnicId};
use nezha_vswitch::{ProcessOutcome, VSwitch};

/// Events driving the cluster.
///
/// Sixteen bytes: a queued event holds ids and a step index, never a
/// payload. Packets park in the cluster's packet slab, a [`ConfigOp`]
/// (at most two 4-byte ids) rides inline, and the rare [`FaultKind`]
/// rides boxed, so the engine's `{at, seq, event}` queue entry is 32
/// bytes, where a 48-byte `FaultKind` inline would make it 64 or more.
#[derive(Clone, Debug)]
pub enum Event {
    /// A packet arrives at a server's vSwitch.
    ///
    /// The packet and the instant its network journey began (for
    /// latency) are parked in the cluster's packet slab; the queue entry
    /// carries only the 4-byte slab id.
    Arrive {
        /// Receiving server.
        server: ServerId,
        /// Slab id of the parked packet (`Cluster::schedule_arrive`).
        pkt: u32,
    },
    /// Start a registered connection.
    StartConn {
        /// Connection id.
        conn: u64,
    },
    /// A step's packet reached its terminal point; inject the next step.
    AdvanceConn {
        /// Connection id.
        conn: u64,
        /// The step that completed.
        from_step: u8,
    },
    /// Retransmit a lost step.
    RetryStep {
        /// Connection id.
        conn: u64,
        /// The step to retry.
        step: u8,
    },
    /// Periodic controller tick (utilization reports + decisions).
    ControllerTick,
    /// Periodic health-monitor tick (ping polling).
    MonitorTick,
    /// Periodic session-aging sweep.
    AgingTick,
    /// A delayed configuration push takes effect.
    Config(ConfigOp),
    /// Begin a standalone probe packet's journey from `from`.
    StartProbe {
        /// Slab id of the parked probe packet (RX-oriented, trace has
        /// the probe bit set).
        pkt: u32,
        /// The injecting server.
        from: ServerId,
    },
    /// A scripted fault transition fires (see `Cluster::apply_fault_plan`).
    Fault(Box<FaultKind>),
}

const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// The flow hash used for FE selection: `Hash(5-tuple)` over the session's
/// canonical orientation, so both directions of a session select the same
/// FE and each session performs exactly one rule lookup and caches one
/// flow entry. (Nezha does not *need* this — state lives at the BE either
/// way, §3.2.3 — but collocating directions avoids duplicate lookups and
/// duplicate cached flows, and is what makes Fig. 9's CPS knee sit at 4
/// FEs.)
pub(crate) fn flow_hash(t: &nezha_types::FiveTuple) -> u64 {
    t.canonical().stable_hash()
}

/// Mixes a per-packet discriminator into the flow hash for the
/// packet-level LB ablation.
pub(crate) fn packet_hash(t: &nezha_types::FiveTuple, trace: u64) -> u64 {
    let mut h = flow_hash(t) ^ trace.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h
}

/// A successful CPU charge: when the work finishes, and how many cycles
/// were actually consumed after gray-failure scaling.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Charge {
    /// Completion time of the charged work.
    pub(crate) done: SimTime,
    /// The scaled cycle count actually burned (profiler attribution).
    pub(crate) scaled: u64,
}

impl Charge {
    /// Charges `cycles` against `vs` for `pkt`'s vNIC. `None` on CPU
    /// overload, with nothing accounted: best-effort traffic such as a
    /// notify is retried implicitly on the next miss.
    pub(crate) fn on(vs: &mut VSwitch, now: SimTime, pkt: &Packet, cycles: u64) -> Option<Self> {
        match vs.charge(now, pkt.vnic, cycles) {
            CpuOutcome::Dropped => None,
            CpuOutcome::Done { done_at } => Some(Charge {
                done: done_at,
                scaled: vs.scaled_cycles(cycles),
            }),
        }
    }
}

impl Cluster {
    /// The FE-selection hash for one packet under the configured LB mode.
    pub(crate) fn select_hash(&self, t: &nezha_types::FiveTuple, trace: u64) -> u64 {
        match self.cfg.lb_mode {
            LbMode::FlowLevel => flow_hash(t),
            LbMode::PacketLevel => packet_hash(t, trace),
        }
    }

    /// Dispatches one engine event.
    pub(crate) fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Arrive { server, pkt } => {
                let (pkt, sent_at) = self.pkt_slab.take(pkt);
                self.handle_arrive(server, now, pkt, sent_at);
            }
            Event::StartConn { conn } => self.start_conn(conn, now),
            Event::AdvanceConn { conn, from_step } => self.advance_conn(conn, from_step, now),
            Event::RetryStep { conn, step } => self.retry_step(conn, step, now),
            Event::ControllerTick => self.controller_tick(now),
            Event::MonitorTick => self.monitor_tick(now),
            Event::AgingTick => {
                for i in 0..self.switches.len() {
                    if !self.faults.is_crashed(ServerId(i as u32)) {
                        self.switches[i].expire_sessions(now);
                    }
                }
                self.engine.schedule_in(AGING_PERIOD, Event::AgingTick);
            }
            Event::Config(op) => self.apply_config(op, now),
            Event::StartProbe { pkt, from } => {
                let (pkt, _) = self.pkt_slab.take(pkt);
                self.start_probe(pkt, from, now);
            }
            Event::Fault(kind) => self.handle_fault(*kind, now),
        }
    }

    /// A packet arrives at `server`: gate it, then demux on the NSH
    /// header (role handlers) or the plain-packet routing rules.
    fn handle_arrive(&mut self, server: ServerId, now: SimTime, pkt: Packet, sent_at: SimTime) {
        if !self.gate(server, now, &pkt) {
            return;
        }
        if let Some(nsh) = pkt.nezha {
            match nsh.kind {
                NezhaPayloadKind::TxCarry => {
                    self.fe_handle_tx_carry(server, now, nsh, pkt, sent_at)
                }
                NezhaPayloadKind::RxCarry => {
                    self.be_handle_rx_carry(server, now, nsh, pkt, sent_at)
                }
                NezhaPayloadKind::Notify => self.be_handle_notify(server, now, nsh, pkt),
                NezhaPayloadKind::HealthProbe | NezhaPayloadKind::HealthReply => {
                    // Health traffic is handled inline by the monitor tick
                    // (replies are modeled as observation of liveness).
                }
            }
            return;
        }
        // Plain packet: at the home, the BE; elsewhere only RX traffic
        // is FE-bound, and the FE visit counts a misroute when `server`
        // hosts no FE for the vNIC (a stale mapping pointed at an FE
        // that was just scaled in).
        let is_home = self.vnic_home.get(&pkt.vnic) == Some(&server);
        match (is_home, pkt.dir) {
            (true, Direction::Tx) => self.be_handle_tx(server, now, pkt, sent_at),
            (true, Direction::Rx) => self.be_handle_direct_rx(server, now, pkt, sent_at),
            (false, Direction::Rx) => self.fe_handle_rx(server, now, pkt, sent_at),
            (false, Direction::Tx) => self.misroute(pkt.trace, now),
        }
    }

    /// The arrival gate: crashed server, scripted link fault. Returns
    /// `false` — after recording the drop and scheduling the retry — when
    /// the packet must be discarded.
    fn gate(&mut self, server: ServerId, now: SimTime, pkt: &Packet) -> bool {
        if self.faults.is_crashed(server) {
            self.drop_pkt(server, now, pkt, DropReason::PeerDown);
            return false;
        }
        if let (Some(src), Some(dst)) = (pkt.outer_src, pkt.outer_dst) {
            // Scripted link faults: partitions drop deterministically,
            // (bursty) loss models sample the seeded fault RNG.
            if self.faults.should_drop(src, dst) {
                self.tel.inc(Ctr::FaultLinkDrops);
                self.drop_pkt(server, now, pkt, DropReason::Fault);
                return false;
            }
        }
        true
    }

    /// Charges `cycles` against `server`'s vSwitch for `pkt`'s vNIC. On
    /// CPU overload the packet is lost (retry scheduled) and `None` is
    /// returned — the handler just returns.
    pub(crate) fn charge(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: &Packet,
        cycles: u64,
    ) -> Option<Charge> {
        let charge = Charge::on(&mut self.switches[server.0 as usize], now, pkt, cycles);
        if charge.is_none() {
            self.lose_packet(pkt.trace, now);
        }
        charge
    }

    /// Full fault-drop sequence at arrival time: trace marker, profiler
    /// marker, lost-packet accounting (with retry).
    fn drop_pkt(&mut self, server: ServerId, now: SimTime, pkt: &Packet, reason: DropReason) {
        self.fault_drop_marker(server, now, pkt, reason);
        self.lose_packet(pkt.trace, now);
    }

    /// Trace + profiler markers for a fault-discarded packet at `server`,
    /// *without* loss accounting (the caller decides whether the packet
    /// counts).
    pub(crate) fn fault_drop_marker(
        &self,
        server: ServerId,
        at: SimTime,
        pkt: &Packet,
        reason: DropReason,
    ) {
        let tel = &self.tel.shared;
        tel.trace_pkt(at, server, pkt, TraceEventKind::Drop(reason));
        // A leafless tree: the zero-cycle marker lands under the packet's
        // causal span, so injected losses show inside the victim's tree.
        tel.span_tree(Stage::FaultDrop, pkt, server, at, at, &[]);
    }

    /// A packet arrived somewhere that cannot process it: count the
    /// misroute and lose the packet (retry scheduled).
    pub(crate) fn misroute(&mut self, trace: u64, now: SimTime) {
        self.tel.inc(Ctr::Misroutes);
        self.lose_packet(trace, now);
    }

    /// Counts the mirror copies an action fans out: one when it names a
    /// collector, else none (§2.2.2).
    pub(crate) fn count_mirrors(&self, action: &Action) {
        let copies = u64::from(action.mirror_to.is_some());
        self.tel.add(Ctr::MirrorCopies, copies);
    }

    /// Traditional processing at the home vSwitch.
    pub(crate) fn process_locally(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        let r = self.switches[server.0 as usize].process_local(&pkt, now);
        self.controller.note_local_cycles(server, r.cycles);
        match r.outcome {
            ProcessOutcome::Forwarded(action) => {
                self.count_mirrors(&action);
                match pkt.dir {
                    Direction::Tx => self.forward_to_peer(server, pkt, action, sent_at, r.done_at),
                    Direction::Rx => {
                        self.deliver_to_vm(now, pkt.vnic, pkt.trace, sent_at, r.done_at)
                    }
                }
            }
            ProcessOutcome::AclDrop | ProcessOutcome::Unroutable | ProcessOutcome::RateLimited => {
                self.deny_conn(pkt.trace)
            }
            ProcessOutcome::CpuOverload => self.lose_packet(pkt.trace, now),
        }
    }

    /// Final TX forwarding from `server` toward the peer endpoint: the
    /// conn/probe's packet has cleared the Nezha/local pipeline.
    pub(crate) fn forward_to_peer(
        &mut self,
        server: ServerId,
        pkt: Packet,
        action: Action,
        sent_at: SimTime,
        done: SimTime,
    ) {
        // Resolve where the peer lives: the action's next hop when the
        // tables knew it, else the conn spec (gateway egress).
        let conns = &self.conns;
        let peer = action
            .next_hop
            .or_else(|| conns.get(pkt.trace >> 4).map(|c| conns.spec(c).peer_server));
        let Some(peer) = peer else {
            // No destination (pure probe toward gateway): terminal here.
            return self.complete_step(pkt.trace, sent_at, done);
        };
        let lat = self.topo.latency(server, peer, pkt.wire_len());
        // The peer endpoint consumes the packet without vSwitch charging
        // (the peer side is assumed unloaded, §6.1 testbed setup).
        self.complete_step(pkt.trace, sent_at, done + lat);
    }

    /// Final RX delivery into the VM kernel.
    pub(crate) fn deliver_to_vm(
        &mut self,
        now: SimTime,
        vnic: VnicId,
        trace: u64,
        sent_at: SimTime,
        done: SimTime,
    ) {
        let Some(vm) = self.vms.get_mut(&vnic) else {
            return self.complete_step(trace, sent_at, done);
        };
        match vm.deliver_packet(done) {
            Some(kernel_done) => self.complete_step(trace, sent_at, kernel_done),
            None => self.lose_packet(trace, now),
        }
    }
}
