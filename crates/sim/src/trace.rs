//! Structured per-packet tracing: a bounded, filterable ring buffer of
//! simulation events.
//!
//! Where [`crate::metrics`] aggregates, [`PacketTrace`] narrates: each
//! [`TraceEvent`] records *what happened to one packet* (enqueue, CPU
//! charge, table hit/miss, NSH encap/decap, notify, drop-with-reason) at a
//! deterministic [`SimTime`]. Because the buffer is bounded it is safe to
//! leave enabled in long runs — old events fall off the front — and because
//! it records only simulated time, two same-seed runs produce identical
//! event sequences (asserted by `tests/determinism.rs`).
//!
//! Recording is off unless a capacity is configured, and a [`TraceFilter`]
//! can narrow capture to one server/vNIC or to drops only, keeping the cost
//! near zero when a test cares about a single flow.

#![expect(
    clippy::disallowed_types,
    reason = "observability handle: an `Rc<RefCell<_>>` clone-to-share store, one instance per shard, never shared across a shard boundary (shards merge through explicit snapshots)"
)]

use crate::time::SimTime;
use nezha_types::{ServerId, VnicId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Why a packet was dropped, as recorded in a [`TraceEventKind::Drop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The vSwitch CPU backlog was full (overload).
    Backlog,
    /// A policy/security rule denied the packet.
    PolicyDeny,
    /// A QoS class token bucket was empty.
    RateLimited,
    /// No route/session matched and slow-path resolution failed.
    NoRoute,
    /// The packet arrived at a server that no longer owns its flow
    /// (stale gateway mapping past the carry window).
    Stale,
    /// The carrying FE or destination server had failed.
    PeerDown,
    /// Decode of the wire format failed.
    Malformed,
    /// Discarded by the fault engine (injected link loss, partition,
    /// or notify drop) — distinguishes chaos drops from organic ones.
    Fault,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Backlog => "backlog",
            DropReason::PolicyDeny => "policy-deny",
            DropReason::RateLimited => "rate-limited",
            DropReason::NoRoute => "no-route",
            DropReason::Stale => "stale",
            DropReason::PeerDown => "peer-down",
            DropReason::Malformed => "malformed",
            DropReason::Fault => "fault",
        };
        f.write_str(s)
    }
}

/// The event taxonomy a trace records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Packet entered a vSwitch ingress queue.
    Enqueue,
    /// The vSwitch charged CPU cycles to process the packet.
    CpuCharge {
        /// Cycles consumed by the pipeline stage.
        cycles: u64,
    },
    /// Fast-path table lookup hit.
    TableHit,
    /// Fast-path table lookup missed (slow path taken).
    TableMiss,
    /// An NSH (Nezha service header) was pushed onto the packet.
    NshEncap,
    /// An NSH was stripped from the packet.
    NshDecap,
    /// An FE sent a Notify back to the BE (first packet of a session).
    Notify,
    /// The packet was dropped.
    Drop(DropReason),
}

/// One recorded event: where and when something happened to a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Correlates the events of one packet across servers.
    pub trace_id: u64,
    /// Server (vSwitch) where the event occurred.
    pub server: ServerId,
    /// The vNIC the packet belongs to.
    pub vnic: VnicId,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Record-time filter: an event is kept only if it passes every set field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep only events on this server.
    pub server: Option<ServerId>,
    /// Keep only events for this vNIC.
    pub vnic: Option<VnicId>,
    /// Keep only `Drop` events.
    pub drops_only: bool,
}

impl TraceFilter {
    /// A filter that keeps everything.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Restricts to one server.
    pub fn on_server(mut self, server: ServerId) -> Self {
        self.server = Some(server);
        self
    }

    /// Restricts to one vNIC.
    pub fn on_vnic(mut self, vnic: VnicId) -> Self {
        self.vnic = Some(vnic);
        self
    }

    /// Restricts to drop events.
    pub fn drops(mut self) -> Self {
        self.drops_only = true;
        self
    }

    fn accepts(&self, ev: &TraceEvent) -> bool {
        if let Some(s) = self.server {
            if ev.server != s {
                return false;
            }
        }
        if let Some(v) = self.vnic {
            if ev.vnic != v {
                return false;
            }
        }
        if self.drops_only && !matches!(ev.kind, TraceEventKind::Drop(_)) {
            return false;
        }
        true
    }
}

#[derive(Debug)]
struct TraceInner {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    filter: TraceFilter,
    recorded: u64,
    evicted: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. Clones share the same buffer;
/// with capacity 0 (the default) recording is a no-op.
#[derive(Clone, Debug)]
pub struct PacketTrace {
    inner: Rc<RefCell<TraceInner>>,
}

impl Default for PacketTrace {
    /// A trace that records nothing (capacity 0).
    fn default() -> Self {
        PacketTrace::with_capacity(0)
    }
}

impl PacketTrace {
    /// A trace keeping at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketTrace {
            inner: Rc::new(RefCell::new(TraceInner {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                filter: TraceFilter::all(),
                recorded: 0,
                evicted: 0,
            })),
        }
    }

    /// Sets the record-time filter (applies to subsequent records only).
    pub fn set_filter(&self, filter: TraceFilter) {
        self.inner.borrow_mut().filter = filter;
    }

    /// Resizes the ring in place (all clones see the change). Shrinking
    /// evicts the oldest events; setting 0 disables recording.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.borrow_mut();
        while inner.events.len() > capacity {
            inner.events.pop_front();
            inner.evicted += 1;
        }
        inner.capacity = capacity;
    }

    /// True when recording can have an effect (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().capacity > 0
    }

    /// Records one event, evicting the oldest when full. No-op when the
    /// trace is disabled or the filter rejects the event.
    pub fn record(&self, ev: TraceEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.capacity == 0 || !inner.filter.accepts(&ev) {
            return;
        }
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.evicted += 1;
        }
        inner.events.push_back(ev);
        inner.recorded += 1;
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().events.is_empty()
    }

    /// Total events accepted since creation (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// Events pushed out of the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.inner.borrow().evicted
    }

    /// Copies out the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().copied().collect()
    }

    /// Copies out the buffered events passing `filter`, oldest first.
    pub fn query(&self, filter: TraceFilter) -> Vec<TraceEvent> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|ev| filter.accepts(ev))
            .copied()
            .collect()
    }

    /// All events of one packet (by `trace_id`), oldest first.
    pub fn packet(&self, trace_id: u64) -> Vec<TraceEvent> {
        self.inner
            .borrow()
            .events
            .iter()
            .filter(|ev| ev.trace_id == trace_id)
            .copied()
            .collect()
    }

    /// Drops all buffered events (counters keep their totals).
    pub fn clear(&self) {
        self.inner.borrow_mut().events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, id: u64, server: u32, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(at),
            trace_id: id,
            server: ServerId(server),
            vnic: VnicId(1),
            kind,
        }
    }

    #[test]
    fn trace_records_nothing_until_enabled() {
        let t = PacketTrace::default();
        assert!(!t.is_enabled());
        t.record(ev(1, 1, 1, TraceEventKind::Enqueue));
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = PacketTrace::with_capacity(3);
        for i in 0..5 {
            t.record(ev(i, i, 1, TraceEventKind::Enqueue));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.evicted(), 2);
        let times: Vec<u64> = t.events().iter().map(|e| e.at.nanos()).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn record_filter_applies() {
        let t = PacketTrace::with_capacity(16);
        t.set_filter(TraceFilter::all().on_server(ServerId(2)).drops());
        t.record(ev(1, 1, 1, TraceEventKind::Drop(DropReason::Backlog)));
        t.record(ev(2, 2, 2, TraceEventKind::Enqueue));
        t.record(ev(3, 3, 2, TraceEventKind::Drop(DropReason::Stale)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].kind, TraceEventKind::Drop(DropReason::Stale));
    }

    #[test]
    fn query_and_packet_lookup() {
        let t = PacketTrace::with_capacity(16);
        t.record(ev(1, 7, 1, TraceEventKind::Enqueue));
        t.record(ev(2, 7, 1, TraceEventKind::TableMiss));
        t.record(ev(3, 8, 2, TraceEventKind::NshEncap));
        t.record(ev(4, 7, 2, TraceEventKind::Notify));
        assert_eq!(t.packet(7).len(), 3);
        assert_eq!(t.query(TraceFilter::all().on_server(ServerId(2))).len(), 2);
        assert_eq!(t.query(TraceFilter::all()).len(), 4);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = PacketTrace::with_capacity(8);
        let other = t.clone();
        other.record(ev(1, 1, 1, TraceEventKind::TableHit));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::PolicyDeny.to_string(), "policy-deny");
        assert_eq!(DropReason::Backlog.to_string(), "backlog");
        assert_eq!(DropReason::Fault.to_string(), "fault");
    }

    #[test]
    fn combined_filter_requires_every_field() {
        let t = PacketTrace::with_capacity(16);
        t.set_filter(
            TraceFilter::all()
                .on_server(ServerId(2))
                .on_vnic(VnicId(1))
                .drops(),
        );
        // Wrong server, wrong kind, wrong vnic — each fails one clause.
        t.record(ev(1, 1, 1, TraceEventKind::Drop(DropReason::Fault)));
        t.record(ev(2, 2, 2, TraceEventKind::Enqueue));
        let mut other_vnic = ev(3, 3, 2, TraceEventKind::Drop(DropReason::Fault));
        other_vnic.vnic = VnicId(9);
        t.record(other_vnic);
        // Passes all three.
        t.record(ev(4, 4, 2, TraceEventKind::Drop(DropReason::Backlog)));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.events()[0].kind,
            TraceEventKind::Drop(DropReason::Backlog)
        );
        // query() applies the same conjunction over a buffered mix.
        let u = PacketTrace::with_capacity(16);
        u.record(ev(1, 1, 2, TraceEventKind::Drop(DropReason::Stale)));
        u.record(ev(2, 2, 2, TraceEventKind::TableHit));
        u.record(ev(3, 3, 3, TraceEventKind::Drop(DropReason::Stale)));
        let q = u.query(
            TraceFilter::all()
                .on_server(ServerId(2))
                .on_vnic(VnicId(1))
                .drops(),
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].at, SimTime(1));
    }

    #[test]
    fn ring_at_exactly_capacity_evicts_nothing() {
        let t = PacketTrace::with_capacity(4);
        for i in 0..4 {
            t.record(ev(i, i, 1, TraceEventKind::Enqueue));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.evicted(), 0);
        let times: Vec<u64> = t.events().iter().map(|e| e.at.nanos()).collect();
        assert_eq!(times, vec![0, 1, 2, 3], "insertion order preserved");
    }

    #[test]
    fn ring_at_capacity_plus_one_evicts_exactly_the_oldest() {
        let t = PacketTrace::with_capacity(4);
        for i in 0..5 {
            t.record(ev(i, i, 1, TraceEventKind::Enqueue));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.recorded(), 5);
        let times: Vec<u64> = t.events().iter().map(|e| e.at.nanos()).collect();
        assert_eq!(times, vec![1, 2, 3, 4], "oldest event gone, order kept");
    }
}
