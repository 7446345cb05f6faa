//! The one telemetry handle: metrics registry + packet-trace ring +
//! cycle profiler, built once per cluster (or per standalone vSwitch)
//! and handed to every component at construction. It owns the only
//! [`TraceEvent`] and [`Span`] constructors, so the shape of a packet's
//! trace line or span tree is decided here and nowhere else.

use crate::metrics::MetricsRegistry;
use crate::profile::{Profiler, Span, SpanId, Stage};
use crate::time::SimTime;
use crate::trace::{PacketTrace, TraceEvent, TraceEventKind};
use nezha_types::{Packet, ServerId};
use std::ops::Range;

/// Clone-to-share bundle of the three sinks; clones observe the same ones.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Named counters, gauges, histograms and series.
    pub registry: MetricsRegistry,
    /// Per-packet event ring (records nothing until given a capacity).
    pub trace: PacketTrace,
    /// Cycle-attribution profiler (disabled until enabled).
    pub profiler: Profiler,
}

impl Telemetry {
    /// An empty registry, a disabled trace ring and a disabled profiler.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Records one trace event for `pkt` at `server` (one flag test while
    /// the ring is disabled).
    pub fn trace_pkt(&self, at: SimTime, server: ServerId, pkt: &Packet, kind: TraceEventKind) {
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                at,
                trace_id: pkt.trace,
                server,
                vnic: pkt.vnic,
                kind,
            });
        }
    }

    /// Records a root span for `pkt` (zero cycles, one packet, the wire
    /// bytes, parented on the causal id the packet carries in
    /// `prof_span`) plus one child per nonzero-cycle leaf, and returns
    /// the root id for threading across the next hop. With no leaves this
    /// is a zero-cycle marker inside the packet's tree (fault drops).
    /// `None` while the profiler is disabled.
    pub fn span_tree(
        &self,
        stage: Stage,
        pkt: &Packet,
        server: ServerId,
        start: SimTime,
        end: SimTime,
        leaves: &[(Stage, u64)],
    ) -> Option<SpanId> {
        if !self.profiler.is_enabled() {
            return None;
        }
        let base = Span {
            stage,
            parent: SpanId::from_raw(pkt.prof_span),
            trace: pkt.trace,
            server,
            vnic: pkt.vnic,
            start,
            end,
            cycles: 0,
            bytes: pkt.wire_len() as u64,
            packets: 1,
        };
        let root = self.profiler.record(base);
        for &(stage, cycles) in leaves {
            if cycles > 0 {
                self.profiler.record(Span {
                    stage,
                    parent: root,
                    cycles,
                    bytes: 0,
                    packets: 0,
                    ..base
                });
            }
        }
        root
    }

    /// Records one explicit child span over `during` under `parent` —
    /// recorded even at zero cycles, because its id is what the packet
    /// carries across the NSH hop. Bytes and packets stay on the root.
    pub fn span_marker(
        &self,
        stage: Stage,
        parent: SpanId,
        pkt: &Packet,
        server: ServerId,
        during: Range<SimTime>,
        cycles: u64,
    ) -> Option<SpanId> {
        self.profiler.record(Span {
            stage,
            parent: Some(parent),
            trace: pkt.trace,
            server,
            vnic: pkt.vnic,
            start: during.start,
            end: during.end,
            cycles,
            bytes: 0,
            packets: 0,
        })
    }
}
