//! Cycle-attribution profiler and causal span tracer.
//!
//! Every headline claim in the paper is a cycle-budget claim: offload wins
//! because slow-path rule lookups and session handling dominate vSwitch
//! CPU. The aggregate counters in [`crate::metrics`] say *how many* cycles
//! were charged; this module says *where they went* — per pipeline stage,
//! per call stack, and per packet, across the BE↔FE hop.
//!
//! ## Span model
//!
//! A **span** is one closed interval of simulated work: a stage name, a
//! `[start, end]` pair of [`SimTime`]s, and the cycles/bytes/packets it
//! accounts for. Spans are recorded *after the fact* in a single call
//! ([`Profiler::record`]) because the deterministic CPU model knows a
//! charge's completion time synchronously — there is no open/close pair to
//! mismatch. The stage vocabulary is the closed [`Stage`] enum — there is
//! no string-keyed stage table to look up — so the per-packet cost when
//! enabled is a `RefCell` borrow plus vector pushes, and a single flag
//! test when disabled.
//!
//! ## Causal parents
//!
//! Each recorded span gets a [`SpanId`]. A span may name a parent span;
//! the id packs the parent's interned *stack path* so linking never needs
//! a lookup table. Ids flatten to a nonzero `u64` ([`SpanId::to_raw`])
//! that components thread through packets crossing the fabric, which is
//! how one packet's life (BE enqueue → NSH encap → FE rule lookup →
//! notify return → session update) reconstructs as a single tree even
//! though its spans were recorded on different servers.
//!
//! ## Aggregation and export
//!
//! Recording feeds three sinks:
//! - per-stage self totals (the cycle-share table),
//! - per-stack-path totals (the collapsed-stack flamegraph,
//!   [`Profiler::flamegraph`]),
//! - a bounded ring of full span records (the Chrome `trace_event`
//!   export, [`Profiler::chrome_trace`], and tree queries).
//!
//! ## Determinism invariants
//!
//! All timestamps come from [`SimTime`]; the profiler holds no wall-clock,
//! no randomness, and iterates only `BTreeMap`s, so two same-seed runs
//! produce byte-identical exports. Recording never changes simulation
//! behaviour: the profiler is a pure observer and is disabled by default.

#![expect(
    clippy::disallowed_types,
    reason = "observability handle: an `Rc<RefCell<_>>` clone-to-share store, one instance per shard, never shared across a shard boundary (shards merge through explicit snapshots)"
)]

use crate::metrics::{json_f64, json_str};
use crate::time::SimTime;
use nezha_types::{ServerId, VnicId};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Number of `rule_tier{n}` stages. Covers the base pipeline tier plus
/// every `extra_tables` profile up to 7.
pub const RULE_TIERS: usize = 8;

/// Sentinel for "no parent path" in the intern table.
const NO_PATH: u32 = u32::MAX;

/// The closed profiling-stage vocabulary. The exporters print
/// [`Stage::name`], so the names are part of the golden contract.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// Header parse cost.
    Parse,
    /// Per-byte DMA + copy cost.
    Dma,
    /// Session/flow-table lookup (fast hit) or creation (slow path).
    SessionLookup,
    /// BE connection-state adoption/update.
    SessionUpdate,
    /// First-packet slow-path overhead (upcalls, validation).
    Slowpath,
    /// NSH encapsulation work.
    NshEncap,
    /// NSH decapsulation work.
    NshDecap,
    /// Notify processing.
    Notify,
    /// Rule-pipeline tier `n`: `rule_tier0` (base pipeline + ACL) through
    /// `rule_tier{RULE_TIERS-1}` (extra per-table costs); larger `n`
    /// count as the last tier.
    RuleTier(u8),
    /// Root: traditional local (non-offloaded) processing.
    Local,
    /// Root: BE egress handling (state update + encap toward an FE).
    BeTx,
    /// Root: FE handling of a BE-encapsulated egress carry.
    FeTxCarry,
    /// Root: FE handling of ingress traffic from the gateway.
    FeRx,
    /// Root: BE handling of an FE-encapsulated ingress carry.
    BeRxCarry,
    /// Root: BE handling of an FE notify.
    BeNotify,
    /// Root: BE handling of ingress that bypassed the FEs.
    BeDirectRx,
    /// Marker: a packet discarded by the fault engine (0 cycles).
    FaultDrop,
}

/// Stage names by [`Stage::index`] (flamegraph frames: no `;`, spaces or
/// newlines).
const STAGE_NAMES: [&str; Stage::COUNT] = [
    "parse",
    "dma",
    "session_lookup",
    "session_update",
    "slowpath",
    "nsh_encap",
    "nsh_decap",
    "notify",
    "rule_tier0",
    "rule_tier1",
    "rule_tier2",
    "rule_tier3",
    "rule_tier4",
    "rule_tier5",
    "rule_tier6",
    "rule_tier7",
    "local",
    "be_tx",
    "fe_tx_carry",
    "fe_rx",
    "be_rx_carry",
    "be_notify",
    "be_direct_rx",
    "fault_drop",
];

impl Stage {
    /// Number of distinct stages.
    pub const COUNT: usize = 16 + RULE_TIERS;

    /// Dense index in `0..Stage::COUNT`.
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Dma => 1,
            Stage::SessionLookup => 2,
            Stage::SessionUpdate => 3,
            Stage::Slowpath => 4,
            Stage::NshEncap => 5,
            Stage::NshDecap => 6,
            Stage::Notify => 7,
            Stage::RuleTier(n) => 8 + (n as usize).min(RULE_TIERS - 1),
            Stage::Local => 8 + RULE_TIERS,
            Stage::BeTx => 9 + RULE_TIERS,
            Stage::FeTxCarry => 10 + RULE_TIERS,
            Stage::FeRx => 11 + RULE_TIERS,
            Stage::BeRxCarry => 12 + RULE_TIERS,
            Stage::BeNotify => 13 + RULE_TIERS,
            Stage::BeDirectRx => 14 + RULE_TIERS,
            Stage::FaultDrop => 15 + RULE_TIERS,
        }
    }

    /// The stage's name as the exporters print it.
    pub fn name(self) -> &'static str {
        STAGE_NAMES[self.index()]
    }
}

/// Identity of one recorded span.
///
/// Packs the span's sequence number (low 40 bits) with its interned stack
/// path (high 24 bits), so a child span can be attributed to the right
/// flamegraph stack from the id alone — no side table that could grow
/// without bound.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SpanId {
    seq: u64,
    path: u32,
}

impl SpanId {
    /// Flattens to a nonzero `u64` suitable for carrying in a packet
    /// field (`0` meaning "no span").
    pub fn to_raw(self) -> u64 {
        ((self.seq + 1) & 0xff_ffff_ffff) | ((self.path as u64) << 40)
    }

    /// Recovers a span id from [`SpanId::to_raw`]; `0` maps to `None`.
    pub fn from_raw(raw: u64) -> Option<SpanId> {
        if raw == 0 {
            None
        } else {
            Some(SpanId {
                seq: (raw & 0xff_ffff_ffff) - 1,
                path: (raw >> 40) as u32,
            })
        }
    }
}

/// Input to [`Profiler::record`]: one closed interval of attributed work.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Stage this work belongs to.
    pub stage: Stage,
    /// Causal parent, if any (possibly recorded on another server).
    pub parent: Option<SpanId>,
    /// Trace id of the packet this work was done for (0 if none).
    pub trace: u64,
    /// Server the work ran on.
    pub server: ServerId,
    /// vNIC the work was charged to.
    pub vnic: VnicId,
    /// When the work began.
    pub start: SimTime,
    /// When the work completed.
    pub end: SimTime,
    /// Simulated cycles attributed to this span (self time, post any
    /// gray-failure multiplier — i.e. exactly what the CPU model charged).
    pub cycles: u64,
    /// Wire bytes attributed to this span.
    pub bytes: u64,
    /// Packets attributed to this span.
    pub packets: u64,
}

/// One recorded span, as stored in the ring and returned by queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's identity.
    pub id: SpanId,
    /// Causal parent, if any.
    pub parent: Option<SpanId>,
    /// Stage.
    pub stage: Stage,
    /// Packet trace id (0 if none).
    pub trace: u64,
    /// Server the work ran on.
    pub server: ServerId,
    /// vNIC the work was charged to.
    pub vnic: VnicId,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Self cycles.
    pub cycles: u64,
    /// Self bytes.
    pub bytes: u64,
    /// Self packets.
    pub packets: u64,
}

/// Accumulated self totals for one stage or one stack path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Simulated cycles.
    pub cycles: u64,
    /// Wire bytes.
    pub bytes: u64,
    /// Packets.
    pub packets: u64,
}

impl StageTotals {
    fn add(&mut self, s: &Span) {
        self.cycles += s.cycles;
        self.bytes += s.bytes;
        self.packets += s.packets;
    }
}

#[derive(Debug)]
struct PathNode {
    parent: u32,
    stage: Stage,
}

#[derive(Debug, Default)]
struct Inner {
    enabled: bool,
    stage_agg: [StageTotals; Stage::COUNT],
    paths: Vec<PathNode>,
    path_index: BTreeMap<(u32, Stage), u32>,
    path_agg: Vec<StageTotals>,
    spans: VecDeque<SpanRecord>,
    capacity: usize,
    recorded: u64,
    evicted: u64,
    next_seq: u64,
}

/// The shared profiler. `Clone` shares the same underlying store (the
/// same single-ownership model as `MetricsRegistry`): the cluster creates
/// one and hands clones to every component it instruments.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Rc<RefCell<Inner>>,
}

impl Profiler {
    /// Creates a disabled profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Enables recording with a span-ring capacity. Aggregates (stage and
    /// flamegraph totals) are unbounded but tiny; only the full span
    /// records are ring-bounded. Capacity 0 keeps aggregation but drops
    /// span records (flamegraph works, Chrome trace is empty).
    pub fn enable(&self, span_capacity: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.enabled = true;
        inner.capacity = span_capacity;
        // Pre-size the ring so steady-state recording never grows the
        // allocation mid-measurement (a realloc pause inside the measured
        // region would skew the very spans being recorded). Huge
        // capacities (effectively "unbounded") are not paid for eagerly.
        const EAGER_PREALLOC_MAX: usize = 1 << 20;
        if span_capacity <= EAGER_PREALLOC_MAX {
            let additional = span_capacity.saturating_sub(inner.spans.len());
            inner.spans.reserve_exact(additional);
        }
    }

    /// True when spans are being recorded. Instrumentation sites check
    /// this before doing any per-span work.
    pub fn is_enabled(&self) -> bool {
        self.inner.borrow().enabled
    }

    /// Discards all recorded data. Packets in flight still carry span
    /// ids minted before the clear, so the interned path table and the
    /// sequence counter survive (only their aggregates are zeroed): a
    /// later span recorded under such a parent resolves to the right
    /// stack and can never alias a post-clear span.
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.stage_agg = Default::default();
        for a in &mut inner.path_agg {
            *a = StageTotals::default();
        }
        inner.spans.clear();
        inner.recorded = 0;
        inner.evicted = 0;
    }

    /// Records one span. Returns `None` when disabled (the only per-call
    /// cost on that path is the flag test), otherwise the new span's id.
    pub fn record(&self, span: Span) -> Option<SpanId> {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return None;
        }
        let parent_path = span.parent.map_or(NO_PATH, |p| p.path);
        let key = (parent_path, span.stage);
        let path = match inner.path_index.get(&key) {
            Some(&p) => p,
            None => {
                let p = inner.paths.len() as u32;
                inner.paths.push(PathNode {
                    parent: parent_path,
                    stage: span.stage,
                });
                inner.path_agg.push(StageTotals::default());
                inner.path_index.insert(key, p);
                p
            }
        };
        inner.path_agg[path as usize].add(&span);
        inner.stage_agg[span.stage.index()].add(&span);
        let id = SpanId {
            seq: inner.next_seq,
            path,
        };
        inner.next_seq += 1;
        inner.recorded += 1;
        if inner.capacity > 0 {
            if inner.spans.len() == inner.capacity {
                inner.spans.pop_front();
                inner.evicted += 1;
            }
            inner.spans.push_back(SpanRecord {
                id,
                parent: span.parent,
                stage: span.stage,
                trace: span.trace,
                server: span.server,
                vnic: span.vnic,
                start: span.start,
                end: span.end,
                cycles: span.cycles,
                bytes: span.bytes,
                packets: span.packets,
            });
        }
        Some(id)
    }

    /// Total spans recorded since enable/clear.
    pub fn recorded(&self) -> u64 {
        self.inner.borrow().recorded
    }

    /// Span records evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.inner.borrow().evicted
    }

    /// Sum of self cycles across all stages — equals the CPU model's
    /// total charged cycles when every charge site is instrumented.
    pub fn total_cycles(&self) -> u64 {
        self.inner.borrow().stage_agg.iter().map(|a| a.cycles).sum()
    }

    /// Per-stage self totals for every [`Stage`], sorted by stage name.
    pub fn stage_totals(&self) -> Vec<(String, StageTotals)> {
        let inner = self.inner.borrow();
        let mut totals: Vec<(String, StageTotals)> = STAGE_NAMES
            .iter()
            .zip(inner.stage_agg)
            .map(|(name, agg)| (name.to_string(), agg))
            .collect();
        totals.sort_by(|a, b| a.0.cmp(&b.0));
        totals
    }

    /// All span records currently in the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.borrow().spans.iter().copied().collect()
    }

    /// The span record with the given id, if still in the ring.
    pub fn span(&self, id: SpanId) -> Option<SpanRecord> {
        self.inner
            .borrow()
            .spans
            .iter()
            .find(|s| s.id == id)
            .copied()
    }

    /// Direct children of a span still in the ring, oldest first.
    pub fn children(&self, id: SpanId) -> Vec<SpanRecord> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .copied()
            .collect()
    }

    /// Spans recorded for one packet trace id, oldest first. The full
    /// causal tree can reach across trace ids (e.g. notify packets carry
    /// trace 0); follow `parent` links via [`Profiler::span`] for those.
    pub fn packet_spans(&self, trace: u64) -> Vec<SpanRecord> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.trace == trace)
            .copied()
            .collect()
    }

    /// The stage-name stack of a span, outermost first (e.g.
    /// `["be_tx", "nsh_encap"]`), derived from its interned path.
    pub fn stack(&self, id: SpanId) -> Vec<String> {
        let inner = self.inner.borrow();
        let mut out = Vec::new();
        let mut cur = id.path;
        while (cur as usize) < inner.paths.len() {
            let node = &inner.paths[cur as usize];
            out.push(node.stage.name().to_string());
            if node.parent == NO_PATH {
                break;
            }
            cur = node.parent;
        }
        out.reverse();
        out
    }

    /// Collapsed-stack flamegraph text: one `frame;frame;... cycles` line
    /// per stack path with nonzero self cycles, sorted lexicographically.
    /// Feed to `flamegraph.pl` / `inferno-flamegraph` as-is.
    pub fn flamegraph(&self) -> String {
        let inner = self.inner.borrow();
        let mut lines: Vec<String> = Vec::new();
        for (pid, agg) in inner.path_agg.iter().enumerate() {
            if agg.cycles == 0 {
                continue;
            }
            let mut stack = Vec::new();
            let mut cur = pid as u32;
            loop {
                let node = &inner.paths[cur as usize];
                stack.push(node.stage.name());
                if node.parent == NO_PATH {
                    break;
                }
                cur = node.parent;
            }
            stack.reverse();
            lines.push(format!("{} {}", stack.join(";"), agg.cycles));
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON for the span ring: complete (`"X"`)
    /// events with microsecond timestamps derived from [`SimTime`], one
    /// process per server and one thread per vNIC. Load via
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.0 as f64 / 1000.0;
            let dur = s.end.0.saturating_sub(s.start.0) as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"nezha\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"trace\":{},\
                 \"cycles\":{},\"bytes\":{},\"packets\":{}}}}}",
                json_str(s.stage.name()),
                json_f64(ts),
                json_f64(dur),
                s.server.0,
                s.vnic.0,
                s.id.to_raw(),
                s.parent.map_or(0, SpanId::to_raw),
                s.trace,
                s.cycles,
                s.bytes,
                s.packets,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, parent: Option<SpanId>, cycles: u64) -> Span {
        Span {
            stage,
            parent,
            trace: 7,
            server: ServerId(1),
            vnic: VnicId(2),
            start: SimTime(1_000),
            end: SimTime(2_000),
            cycles,
            bytes: 64,
            packets: 1,
        }
    }

    #[test]
    fn profiler_records_nothing_until_enabled() {
        let p = Profiler::new();
        assert_eq!(p.record(span(Stage::Parse, None, 100)), None);
        assert_eq!(p.recorded(), 0);
        assert_eq!(p.total_cycles(), 0);
        assert_eq!(p.flamegraph(), "");
        assert_eq!(
            p.chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    /// Flamegraphs, Chrome traces and `stage_totals` print these names,
    /// so the table is part of the golden contract.
    #[test]
    fn stage_index_and_name_match_the_golden_table() {
        let table = [
            (Stage::Parse, "parse"),
            (Stage::Dma, "dma"),
            (Stage::SessionLookup, "session_lookup"),
            (Stage::SessionUpdate, "session_update"),
            (Stage::Slowpath, "slowpath"),
            (Stage::NshEncap, "nsh_encap"),
            (Stage::NshDecap, "nsh_decap"),
            (Stage::Notify, "notify"),
            (Stage::RuleTier(0), "rule_tier0"),
            (Stage::RuleTier(1), "rule_tier1"),
            (Stage::RuleTier(2), "rule_tier2"),
            (Stage::RuleTier(3), "rule_tier3"),
            (Stage::RuleTier(4), "rule_tier4"),
            (Stage::RuleTier(5), "rule_tier5"),
            (Stage::RuleTier(6), "rule_tier6"),
            (Stage::RuleTier(7), "rule_tier7"),
            (Stage::Local, "local"),
            (Stage::BeTx, "be_tx"),
            (Stage::FeTxCarry, "fe_tx_carry"),
            (Stage::FeRx, "fe_rx"),
            (Stage::BeRxCarry, "be_rx_carry"),
            (Stage::BeNotify, "be_notify"),
            (Stage::BeDirectRx, "be_direct_rx"),
            (Stage::FaultDrop, "fault_drop"),
        ];
        assert_eq!(table.len(), Stage::COUNT);
        for (i, (stage, name)) in table.iter().enumerate() {
            assert_eq!((stage.index(), stage.name()), (i, *name));
        }
        // Tiers past the last one count as the last one.
        assert_eq!(Stage::RuleTier(200).name(), "rule_tier7");
        // `stage_totals` lists every stage, sorted by name.
        let totals = Profiler::new().stage_totals();
        assert_eq!(totals.len(), Stage::COUNT);
        assert!(totals.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn span_ids_round_trip_through_raw() {
        let p = Profiler::new();
        p.enable(16);
        let id = p.record(span(Stage::Parse, None, 10)).unwrap();
        assert_eq!(SpanId::from_raw(id.to_raw()), Some(id));
        assert_eq!(SpanId::from_raw(0), None);
    }

    #[test]
    fn totals_and_flamegraph_accumulate_per_stack() {
        let p = Profiler::new();
        p.enable(16);
        let (root, leaf) = (Stage::BeTx, Stage::SessionUpdate);
        let r = p.record(span(root, None, 0)).unwrap();
        p.record(span(leaf, Some(r), 250)).unwrap();
        p.record(span(leaf, Some(r), 250)).unwrap();
        let r2 = p.record(span(root, None, 0)).unwrap();
        p.record(span(leaf, Some(r2), 100)).unwrap();
        assert_eq!(p.total_cycles(), 600);
        assert_eq!(p.flamegraph(), "be_tx;session_update 600\n");
        let totals = p.stage_totals();
        let (_, t) = totals.iter().find(|(n, _)| n == "session_update").unwrap();
        assert_eq!(t.cycles, 600);
        assert_eq!(t.packets, 3);
        assert_eq!(
            p.stack(p.children(r)[0].id),
            vec!["be_tx", "session_update"]
        );
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_aggregates() {
        let p = Profiler::new();
        p.enable(2);
        let a = p.record(span(Stage::Parse, None, 1)).unwrap();
        let _b = p.record(span(Stage::Parse, None, 2)).unwrap();
        let _c = p.record(span(Stage::Parse, None, 3)).unwrap();
        assert_eq!(p.evicted(), 1);
        assert_eq!(p.recorded(), 3);
        assert_eq!(p.span(a), None);
        assert_eq!(p.spans().len(), 2);
        assert_eq!(p.total_cycles(), 6);
    }

    #[test]
    fn children_and_packet_queries_follow_links() {
        let p = Profiler::new();
        p.enable(16);
        let r = p.record(span(Stage::FeTxCarry, None, 0)).unwrap();
        let c = p.record(span(Stage::NshDecap, Some(r), 400)).unwrap();
        let kids = p.children(r);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].id, c);
        assert_eq!(p.packet_spans(7).len(), 2);
        assert_eq!(p.packet_spans(8).len(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let mk = || {
            let p = Profiler::new();
            p.enable(16);
            let r = p.record(span(Stage::Parse, None, 123)).unwrap();
            p.record(span(Stage::Parse, Some(r), 45)).unwrap();
            p.chrome_trace()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.0"));
        assert!(a.ends_with("]}"));
    }

    /// Regression: a packet in flight across `clear()` still carries its
    /// pre-clear span id; recording under it used to intern a path whose
    /// parent index was gone, and `flamegraph()` indexed out of bounds.
    #[test]
    fn clear_with_spans_in_flight_keeps_stacks_resolvable() {
        let p = Profiler::new();
        p.enable(16);
        let root = p.record(span(Stage::BeTx, None, 0)).unwrap();
        let child = p.record(span(Stage::NshEncap, Some(root), 0)).unwrap();
        p.clear();
        assert_eq!(
            (p.recorded(), p.total_cycles(), p.flamegraph()),
            (0, 0, String::new())
        );
        let late = p.record(span(Stage::FeTxCarry, Some(child), 40)).unwrap();
        assert_eq!(p.flamegraph(), "be_tx;nsh_encap;fe_tx_carry 40\n");
        assert_eq!(p.stack(late), vec!["be_tx", "nsh_encap", "fe_tx_carry"]);
        // Ids minted after the clear never alias the ones still in flight.
        assert_ne!(p.record(span(Stage::BeTx, None, 0)), Some(root));
    }
}
