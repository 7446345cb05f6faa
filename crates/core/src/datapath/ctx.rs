//! [`HandlerCtx`]: the one place the datapath's cross-cutting plumbing
//! lives.
//!
//! Every BE/FE handler receives a `&mut HandlerCtx`. Its methods are the
//! ones that bind this invocation's `server`/`now` or carry logic (the
//! arrival gate, charging, span/trace recording, loss/deny/completion
//! accounting). A plain counter increment needs neither, so handlers
//! write `ctx.cl.tel.inc(Ctr::…)` directly — the closed [`Ctr`]
//! vocabulary is the whole interface. The handlers keep direct access to
//! protocol state via [`HandlerCtx::cl`] — split field borrows
//! (`switches` vs `fes`) are obtained with
//! `let cl = &mut *ctx.cl;`.

use crate::cluster::Cluster;
use crate::telemetry::Ctr;
use nezha_sim::profile::{SpanId, Stage};
use nezha_sim::resources::CpuOutcome;
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{Action, Packet, ServerId};
use std::ops::Range;

/// Borrowed view of the cluster for one handler invocation: the packet's
/// current server, the arrival time, and the full cluster state.
///
pub(crate) struct HandlerCtx<'c> {
    /// The whole cluster; handlers use this for protocol state only.
    pub(crate) cl: &'c mut Cluster,
    /// The server whose vSwitch is processing the packet.
    pub(crate) server: ServerId,
    /// Arrival time of the packet being handled.
    pub(crate) now: SimTime,
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

impl<'c> HandlerCtx<'c> {
    pub(crate) fn new(cl: &'c mut Cluster, server: ServerId, now: SimTime) -> Self {
        HandlerCtx { cl, server, now }
    }

    // ------------------------------------------------------------------
    // Arrival gate.
    // ------------------------------------------------------------------

    /// The arrival gate: dead server, blackholed link, scripted link
    /// fault. Returns `false` — after recording the drop and scheduling
    /// the retry — when the packet must be discarded.
    pub(crate) fn gate(&mut self, pkt: &Packet) -> bool {
        if !self.cl.alive[self.server.0 as usize] {
            self.drop_pkt(pkt, DropReason::PeerDown);
            return false;
        }
        if let (Some(src), Some(dst)) = (pkt.outer_src, pkt.outer_dst) {
            if self.cl.link_blackholed(src, dst) {
                self.drop_pkt(pkt, DropReason::PeerDown);
                return false;
            }
            // Scripted link faults: partitions drop deterministically,
            // (bursty) loss models sample the seeded fault RNG.
            if self.cl.faults.should_drop(src, dst) {
                self.cl.tel.inc(Ctr::FaultLinkDrops);
                self.drop_pkt(pkt, DropReason::Fault);
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Cycle charging.
    // ------------------------------------------------------------------

    /// Charges `cycles` against this server's vSwitch for `pkt`'s vNIC.
    /// On CPU overload the packet is lost (retry scheduled) and `None`
    /// is returned — the handler just returns.
    pub(crate) fn charge(&mut self, pkt: &Packet, cycles: u64) -> Option<Charge> {
        match self.charge_silent(pkt, cycles) {
            Some(c) => Some(c),
            None => {
                self.cl.lose_packet(pkt.trace, self.now);
                None
            }
        }
    }

    /// Like [`HandlerCtx::charge`] but an overload drop is *not* counted
    /// as a lost packet (best-effort traffic such as notifies, which are
    /// retried implicitly on the next miss).
    pub(crate) fn charge_silent(&mut self, pkt: &Packet, cycles: u64) -> Option<Charge> {
        let vs = &mut self.cl.switches[self.server.0 as usize];
        match vs.charge(self.now, pkt.vnic, cycles) {
            CpuOutcome::Dropped => None,
            CpuOutcome::Done { done_at } => Some(Charge {
                done: done_at,
                scaled: vs.scaled_cycles(cycles),
            }),
        }
    }

    /// Reports cycles burned on this server for its *own* (BE) traffic.
    pub(crate) fn note_local_cycles(&mut self, cycles: u64) {
        self.cl.controller.note_local_cycles(self.server, cycles);
    }

    /// Reports cycles burned on this server on *behalf of others* (FE).
    pub(crate) fn note_remote_cycles(&mut self, cycles: u64) {
        self.cl.controller.note_remote_cycles(self.server, cycles);
    }

    // ------------------------------------------------------------------
    // Tracing and profiling.
    // ------------------------------------------------------------------

    /// Records one cluster-level trace event for `pkt` at this server.
    pub(crate) fn trace(&self, at: SimTime, pkt: &Packet, kind: TraceEventKind) {
        self.cl.tel.shared.trace_pkt(at, self.server, pkt, kind);
    }

    /// Records this handler's root span plus its cycle-bearing leaves;
    /// returns the root id for threading across the BE↔FE hop.
    pub(crate) fn span(
        &self,
        stage: Stage,
        pkt: &Packet,
        start: SimTime,
        end: SimTime,
        leaves: &[(Stage, u64)],
    ) -> Option<SpanId> {
        self.cl
            .tel
            .shared
            .span_tree(stage, pkt, self.server, start, end, leaves)
    }

    /// Records one explicit marker span (NSH encap/decap hop parents)
    /// over `during` under `parent`.
    pub(crate) fn span_marker(
        &self,
        stage: Stage,
        parent: SpanId,
        pkt: &Packet,
        during: Range<SimTime>,
        cycles: u64,
    ) -> Option<SpanId> {
        self.cl
            .tel
            .shared
            .span_marker(stage, parent, pkt, self.server, during, cycles)
    }

    // ------------------------------------------------------------------
    // Drops and terminal accounting.
    // ------------------------------------------------------------------

    /// Full fault-drop sequence at arrival time: trace marker, profiler
    /// marker, lost-packet accounting (with retry).
    pub(crate) fn drop_pkt(&mut self, pkt: &Packet, reason: DropReason) {
        self.fault_drop_marker(self.now, pkt, reason);
        self.cl.lose_packet(pkt.trace, self.now);
    }

    /// Trace + profiler markers for a fault-discarded packet, *without*
    /// loss accounting (the caller decides whether the packet counts).
    pub(crate) fn fault_drop_marker(&self, at: SimTime, pkt: &Packet, reason: DropReason) {
        self.trace(at, pkt, TraceEventKind::Drop(reason));
        // A leafless tree: the zero-cycle marker lands under the packet's
        // causal span, so injected losses show inside the victim's tree.
        self.span(Stage::FaultDrop, pkt, at, at, &[]);
    }

    /// A packet arrived somewhere that cannot process it: count the
    /// misroute and lose the packet (retry scheduled).
    pub(crate) fn misroute(&mut self, pkt: &Packet) {
        self.cl.tel.inc(Ctr::Misroutes);
        self.cl.lose_packet(pkt.trace, self.now);
    }

    /// Loss accounting + retry scheduling for `trace`.
    pub(crate) fn lose(&mut self, trace: u64) {
        self.cl.lose_packet(trace, self.now);
    }

    /// Terminal policy drop for `trace`'s connection (no retry).
    pub(crate) fn deny(&mut self, trace: u64) {
        self.cl.deny_conn(trace);
    }

    /// `trace`'s step reached its terminal point at `at`.
    pub(crate) fn complete(&mut self, trace: u64, sent_at: SimTime, at: SimTime) {
        self.cl.complete_step(trace, sent_at, at);
    }

    // ------------------------------------------------------------------
    // Targeted event counters and fault queries.
    // ------------------------------------------------------------------

    /// Counts the mirror copies an action fans out: one when it names a
    /// collector, else none (§2.2.2).
    pub(crate) fn count_mirrors(&self, action: &Action) {
        let copies = u64::from(action.mirror_to.is_some());
        self.cl.tel.add(Ctr::MirrorCopies, copies);
    }

    /// Samples the scripted notify-loss fault (seeded fault RNG stream).
    pub(crate) fn drop_notify(&mut self) -> bool {
        self.cl.faults.drop_notify()
    }
}
