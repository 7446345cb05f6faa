//! Event dispatch: the cluster's [`Event`] match, the arrival gate, and
//! the NSH demux that hands each packet to its role handler (`be` / `fe`).
//!
//! Also home to the flow-hash helpers and the shared terminal forwarding
//! paths (`process_locally` / `forward_to_peer` / `deliver_to_vm`) both
//! roles funnel into.

use crate::cluster::{Cluster, AGING_PERIOD};
use crate::config::{ConfigOp, LbMode};
use crate::datapath::be;
use crate::datapath::ctx::HandlerCtx;
use crate::datapath::fe::{self, FeBinding};
use nezha_sim::fault::FaultKind;
use nezha_sim::time::SimTime;
use nezha_types::{Direction, NezhaPayloadKind, Packet, ServerId};
use nezha_vswitch::ProcessOutcome;

/// Events driving the cluster.
///
/// Sixteen bytes: a queued event is an id and a step index, never a
/// payload. Packets park in the cluster's packet slab, and the rare
/// control payloads ([`ConfigOp`], [`FaultKind`]) ride boxed, so the
/// engine's `{at, seq, event}` queue entry is 32 bytes, where a 48-byte
/// `FaultKind` inline would make it 64 or more.
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
    /// A delayed configuration push takes effect (build with
    /// [`Event::config`]).
    Config(Box<ConfigOp>),
    /// Hard-crash a server's SmartNIC.
    Crash {
        /// The crashing server.
        server: ServerId,
    },
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

impl Event {
    /// A delayed configuration push.
    pub fn config(op: ConfigOp) -> Event {
        // Boxed so `Event` stays 16 bytes; control-plane events only, so the
        // allocation is not per-packet work.
        Event::Config(Box::new(op))
    }
}

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
                self.handle_arrive(server, pkt, sent_at, now);
            }
            Event::StartConn { conn } => self.start_conn(conn, now),
            Event::AdvanceConn { conn, from_step } => self.advance_conn(conn, from_step, now),
            Event::RetryStep { conn, step } => self.retry_step(conn, step, now),
            Event::ControllerTick => self.controller_tick(now),
            Event::MonitorTick => self.monitor_tick(now),
            Event::AgingTick => {
                for i in 0..self.switches.len() {
                    if self.alive[i] {
                        self.switches[i].expire_sessions(now);
                    }
                }
                self.engine.schedule_in(AGING_PERIOD, Event::AgingTick);
            }
            Event::Config(op) => self.apply_config(*op, now),
            Event::Crash { server } => {
                // A server outside the topology has nothing to crash.
                if let Some(alive) = self.alive.get_mut(server.0 as usize) {
                    *alive = false;
                    self.monitor.crash_pending.insert(server, now);
                }
            }
            Event::StartProbe { pkt, from } => {
                let (pkt, _) = self.pkt_slab.take(pkt);
                self.start_probe(pkt, from, now);
            }
            Event::Fault(kind) => self.handle_fault(*kind, now),
        }
    }

    /// A packet arrives at `server`: gate it, then demux on the NSH
    /// header (role handlers) or the plain-packet routing rules.
    fn handle_arrive(&mut self, server: ServerId, pkt: Packet, sent_at: SimTime, now: SimTime) {
        let mut ctx = HandlerCtx::new(self, server, now);
        if !ctx.gate(&pkt) {
            return;
        }
        if let Some(nsh) = pkt.nezha {
            match nsh.kind {
                NezhaPayloadKind::TxCarry => fe::fe_handle_tx_carry(&mut ctx, nsh, pkt, sent_at),
                NezhaPayloadKind::RxCarry => be::be_handle_rx_carry(&mut ctx, nsh, pkt, sent_at),
                NezhaPayloadKind::Notify => be::be_handle_notify(&mut ctx, nsh, pkt),
                NezhaPayloadKind::HealthProbe | NezhaPayloadKind::HealthReply => {
                    // Health traffic is handled inline by the monitor tick
                    // (replies are modeled as observation of `alive`).
                }
            }
            return;
        }
        // Plain packet.
        let is_home = ctx.cl.vnic_home.get(&pkt.vnic) == Some(&server);
        if is_home {
            match pkt.dir {
                Direction::Tx => be::be_handle_tx(&mut ctx, pkt, sent_at),
                Direction::Rx => be::be_handle_direct_rx(&mut ctx, pkt, sent_at),
            }
        } else if let Some(binding) = FeBinding::claim(ctx.cl, server, &pkt) {
            fe::fe_handle_rx(&mut ctx, binding, pkt, sent_at);
        } else {
            // Stale mapping pointed at a server that is neither home nor a
            // configured FE (e.g. an FE that was just scaled in).
            ctx.misroute(&pkt);
        }
    }
}

/// Traditional processing at the home vSwitch.
pub(crate) fn process_locally(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let r = vs.process_local(&pkt, now);
    ctx.note_local_cycles(r.cycles);
    match r.outcome {
        ProcessOutcome::Forwarded(action) => {
            ctx.count_mirrors(&action);
            match pkt.dir {
                Direction::Tx => forward_to_peer(ctx, pkt, action, sent_at, r.done_at),
                Direction::Rx => deliver_to_vm(ctx, pkt.vnic, pkt.trace, sent_at, r.done_at),
            }
        }
        ProcessOutcome::AclDrop | ProcessOutcome::Unroutable | ProcessOutcome::RateLimited => {
            ctx.deny(pkt.trace)
        }
        ProcessOutcome::CpuOverload => ctx.lose(pkt.trace),
    }
}

/// Final TX forwarding toward the peer endpoint: the conn/probe's
/// packet has cleared the Nezha/local pipeline.
pub(crate) fn forward_to_peer(
    ctx: &mut HandlerCtx<'_>,
    pkt: Packet,
    action: nezha_types::Action,
    sent_at: SimTime,
    done: SimTime,
) {
    let from = ctx.server;
    // Resolve where the peer lives: the action's next hop when the
    // tables knew it, else the conn spec (gateway egress).
    let conns = &ctx.cl.conns;
    let peer = action
        .next_hop
        .or_else(|| conns.get(pkt.trace >> 4).map(|c| conns.spec(c).peer_server));
    let Some(peer) = peer else {
        // No destination (pure probe toward gateway): terminal here.
        ctx.complete(pkt.trace, sent_at, done);
        return;
    };
    let lat = ctx.cl.topo.latency(from, peer, pkt.wire_len());
    // The peer endpoint consumes the packet without vSwitch charging
    // (the peer side is assumed unloaded, §6.1 testbed setup).
    ctx.complete(pkt.trace, sent_at, done + lat);
}

/// Final RX delivery into the VM kernel.
pub(crate) fn deliver_to_vm(
    ctx: &mut HandlerCtx<'_>,
    vnic: nezha_types::VnicId,
    trace: u64,
    sent_at: SimTime,
    done: SimTime,
) {
    let Some(vm) = ctx.cl.vms.get_mut(&vnic) else {
        return ctx.complete(trace, sent_at, done);
    };
    match vm.deliver_packet(done) {
        Some(kernel_done) => ctx.complete(trace, sent_at, kernel_done),
        None => ctx.lose(trace),
    }
}
