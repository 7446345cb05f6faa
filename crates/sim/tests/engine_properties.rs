//! Property tests of the simulation substrate: event ordering, CPU-server
//! conservation laws, utilization-window behaviour, and topology metrics.

use nezha_sim::engine::Engine;
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::resources::{CpuServer, MemoryPool, UtilizationWindow};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::topology::{Topology, TopologyConfig};
use nezha_types::ServerId;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The reference the engine is compared against: a binary heap ordered by
/// `(at, seq)` and the two documented pop flavours, nothing else.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    now: u64,
    seq: u64,
    processed: u64,
}

impl ModelQueue {
    fn schedule_at(&mut self, at: u64, ev: u32) {
        self.heap.push(Reverse((at.max(self.now), self.seq, ev)));
        self.seq += 1;
    }

    fn peek(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((at, _, ev)) = self.heap.pop()?;
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }

    /// Pops the minimum if it is due by `deadline`; otherwise only the
    /// clock moves (to `deadline`, never backwards).
    fn pop_until(&mut self, deadline: u64) -> Option<(u64, u32)> {
        if self.peek().is_some_and(|at| at <= deadline) {
            self.pop()
        } else {
            self.now = self.now.max(deadline);
            None
        }
    }
}

/// Offsets from `now`, in units of `scale` ns: inside one bucket, a few
/// buckets out, slice-sized, and sparse far-future (the periodic-tick
/// distance that used to drag the horizon out).
fn offset(kind: u64, raw: u64, scale: u64) -> u64 {
    let span = match kind % 5 {
        0 => 1,
        1 => 20_000,
        2 => 200_000,
        3 => 2_000_000,
        _ => 600_000_000,
    };
    (raw % span) * scale
}

/// Replays `ops` on a fresh engine and on the model, comparing everything
/// observable after every step.
fn check_against_model(scale: u64, ops: &[(u32, u64, u64)]) -> Result<(), TestCaseError> {
    let mut eng = Engine::new();
    let mut model = ModelQueue::default();
    let mut next_ev = 0u32;
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        // The target instant of this step: usually ahead of the clock,
        // now and then behind it (a stale deadline, a schedule to clamp).
        let t = if b % 7 == 0 {
            model.now.saturating_sub(a % 1_000)
        } else {
            model.now + offset(a, b, scale)
        };
        match op {
            0..=2 => {
                eng.schedule_at(SimTime(t), next_ev);
                model.schedule_at(t, next_ev);
                next_ev += 1;
            }
            3 => {
                let delay = t.saturating_sub(model.now);
                eng.schedule_in(SimDuration(delay), next_ev);
                model.schedule_at(model.now + delay, next_ev);
                next_ev += 1;
            }
            // Same-instant burst: FIFO among equals.
            4 => {
                for _ in 0..(2 + b % 7) {
                    eng.schedule_at(SimTime(t), next_ev);
                    model.schedule_at(t, next_ev);
                    next_ev += 1;
                }
            }
            5 => {
                let got = eng.pop().map(|s| (s.at.0, s.event));
                prop_assert_eq!(got, model.pop(), "step {step}: pop");
            }
            // A bounded pop, then a schedule hard on its heels — the
            // "register traffic right after an idle peek" sequence.
            6 | 7 => {
                let got = eng.pop_until(SimTime(t)).map(|s| (s.at.0, s.event));
                prop_assert_eq!(got, model.pop_until(t), "step {step}: pop_until({t})");
                if op == 7 {
                    let at = model.now + offset(b, a, scale);
                    eng.schedule_at(SimTime(at), next_ev);
                    model.schedule_at(at, next_ev);
                    next_ev += 1;
                }
            }
            // Fully idle, then schedule: drain everything, let the clock
            // run on with nothing pending, and schedule from there.
            10 => {
                while let Some(want) = model.pop() {
                    prop_assert_eq!(eng.pop().map(|s| (s.at.0, s.event)), Some(want));
                }
                prop_assert!(eng.pop_until(SimTime(t)).is_none(), "step {step}: idle");
                prop_assert_eq!(model.pop_until(t), None);
                let at = model.now + offset(b, a, scale);
                eng.schedule_at(SimTime(at), next_ev);
                model.schedule_at(at, next_ev);
                next_ev += 1;
            }
            // Drain every event at the earliest instant <= t, one
            // `pop_until` at a time (what `Cluster::run_until` does).
            _ => {
                let mut got = Vec::new();
                if let Some(first) = eng.pop_until(SimTime(t)) {
                    let at = first.at;
                    got.push((at.0, first.event));
                    got.extend(std::iter::from_fn(|| eng.pop_until(at)).map(|s| (s.at.0, s.event)));
                }
                let mut want = Vec::new();
                if let Some(first) = model.pop_until(t) {
                    want.push(first);
                    want.extend(std::iter::from_fn(|| model.pop_until(first.0)));
                }
                prop_assert_eq!(got, want, "step {step}: drain the instant <= {t}");
            }
        }
        prop_assert_eq!(eng.now().0, model.now, "step {step} (op {op}): now");
        prop_assert_eq!(
            eng.pending(),
            model.heap.len(),
            "step {step} (op {op}): pending"
        );
        prop_assert_eq!(
            eng.processed(),
            model.processed,
            "step {step} (op {op}): processed"
        );
        prop_assert_eq!(
            eng.peek_time().map(|t| t.0),
            model.peek(),
            "step {step} (op {op}): peek"
        );
    }
    // Whatever is left drains in model order.
    while let Some(want) = model.pop() {
        prop_assert_eq!(eng.pop().map(|s| (s.at.0, s.event)), Some(want));
    }
    prop_assert!(eng.pop().is_none());
    Ok(())
}

/// Schedules `setup` up front — each entry either queued or only
/// reserved — then replays `ops` (pops, bounded pops, new schedules and
/// early filings of a reservation) on a fresh engine and on a model that queued
/// everything up front. A reservation still unfiled when it is the
/// model's next event is filed right then: at the instant being drained
/// when an equal-time entry popped before it, below the horizon when its
/// bucket is already promoted. An early filing of a far-future key
/// lands on the coarse rung.
fn check_reservations_against_model(
    scale: u64,
    setup: &[(u64, u64, bool)],
    ops: &[(u32, u64, u64)],
) -> Result<(), TestCaseError> {
    let reg = MetricsRegistry::new();
    let mut eng = Engine::new();
    eng.attach_metrics(&reg);
    let mut model = ModelQueue::default();
    // Unfiled reservations by seq: (at, event).
    let mut unfiled: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    let mut next_ev = 0u32;
    for &(kind, raw, reserve) in setup {
        let at = offset(kind, raw, scale);
        if reserve {
            let seq = eng.reserve_seq();
            prop_assert_eq!(seq, model.seq);
            unfiled.insert(seq, (at, next_ev));
        } else {
            eng.schedule_at(SimTime(at), next_ev);
        }
        model.schedule_at(at, next_ev);
        next_ev += 1;
    }
    // Files the model's next event if it is an unfiled reservation due
    // by `deadline`: the latest the contract allows.
    let file_due = |eng: &mut Engine<u32>,
                    model: &ModelQueue,
                    unfiled: &mut BTreeMap<u64, (u64, u32)>,
                    deadline: u64| {
        if let Some(Reverse((at, seq, _))) = model.heap.peek() {
            if *at <= deadline {
                if let Some((at, ev)) = unfiled.remove(seq) {
                    eng.schedule_reserved(SimTime(at), *seq, ev);
                }
            }
        }
    };
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        match op {
            0..=3 => {
                file_due(&mut eng, &model, &mut unfiled, u64::MAX);
                let got = eng.pop().map(|s| (s.at.0, s.event));
                prop_assert_eq!(got, model.pop(), "step {step}: pop");
            }
            4 => {
                let t = model.now + offset(a, b, scale);
                file_due(&mut eng, &model, &mut unfiled, t);
                let got = eng.pop_until(SimTime(t)).map(|s| (s.at.0, s.event));
                prop_assert_eq!(got, model.pop_until(t), "step {step}: pop_until({t})");
            }
            // A new schedule, often at the instant being drained (the
            // `immediate` lane every earlier reservation must precede).
            5 | 6 => {
                let at = if b % 2 == 0 {
                    model.now
                } else {
                    model.now + offset(a, b, scale)
                };
                eng.schedule_at(SimTime(at), next_ev);
                model.schedule_at(at, next_ev);
                next_ev += 1;
            }
            // An early filing of any outstanding reservation.
            _ => {
                let nth = usize::try_from(a).unwrap_or(0) % unfiled.len().max(1);
                if let Some(&seq) = unfiled.keys().nth(nth) {
                    if let Some((at, ev)) = unfiled.remove(&seq) {
                        eng.schedule_reserved(SimTime(at), seq, ev);
                    }
                }
            }
        }
        prop_assert_eq!(eng.now().0, model.now, "step {step} (op {op}): now");
        prop_assert_eq!(
            eng.pending(),
            model.heap.len(),
            "step {step} (op {op}): pending"
        );
        prop_assert_eq!(
            eng.processed(),
            model.processed,
            "step {step} (op {op}): processed"
        );
        let snap = reg.snapshot();
        prop_assert_eq!(
            snap.counter("engine.scheduled"),
            model.seq,
            "step {step}: scheduled"
        );
        prop_assert_eq!(snap.counter("engine.processed"), model.processed);
    }
    loop {
        file_due(&mut eng, &model, &mut unfiled, u64::MAX);
        let want = model.pop();
        prop_assert_eq!(eng.pop().map(|s| (s.at.0, s.event)), want);
        if want.is_none() {
            break;
        }
    }
    prop_assert!(unfiled.is_empty());
    prop_assert_eq!(eng.pending(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Any interleaving of schedules, pops and instant drains delivers
    /// exactly what a `(at, seq)` binary heap delivers — at ns offsets
    /// (600 ms ones cross the 20.48 ms coarse rung) and at offsets 100x
    /// wider (up to 60 s, across thousands of coarse buckets).
    #[test]
    fn engine_matches_a_binary_heap_model(
        ops in prop::collection::vec((0u32..11, any::<u64>(), any::<u64>()), 1..250),
    ) {
        check_against_model(1, &ops)?;
        check_against_model(100, &ops)?;
    }

    /// Reserving a random subset of the schedules and filing each later,
    /// anywhere up to its own pop, delivers what scheduling everything
    /// up front delivers, with the same pending, processed and scheduled
    /// counts at every step — at ns offsets (600 ms ones cross the
    /// coarse rung) and at offsets 100x wider.
    #[test]
    fn engine_reserved_events_pop_where_they_were_reserved(
        setup in prop::collection::vec((0u64..5, any::<u64>(), any::<bool>()), 1..120),
        ops in prop::collection::vec((0u32..9, any::<u64>(), any::<u64>()), 1..250),
    ) {
        check_reservations_against_model(1, &setup, &ops)?;
        check_reservations_against_model(100, &setup, &ops)?;
    }

    /// Pops are globally ordered by (time, schedule sequence), regardless
    /// of insertion order.
    #[test]
    fn engine_pops_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some(s) = eng.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(s.at > lt || (s.at == lt && s.event > li));
            }
            last = Some((s.at, s.event));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The CPU server never drops while the backlog bound is respected,
    /// accepted+dropped equals offered, and completion times are
    /// monotone in offer order.
    #[test]
    fn cpu_server_conservation(
        jobs in prop::collection::vec((0u64..4_000_000, 1u64..200_000), 1..200),
    ) {
        let mut cpu = CpuServer::new(2, 1_000_000_000, SimDuration::from_millis(2));
        let mut t = SimTime(0);
        let mut last_done: Option<SimTime> = None;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for (gap, cycles) in jobs.iter() {
            t += SimDuration(*gap);
            match cpu.offer(t, *cycles) {
                nezha_sim::resources::CpuOutcome::Done { done_at } => {
                    prop_assert!(done_at >= t);
                    if let Some(ld) = last_done {
                        prop_assert!(done_at >= ld, "FIFO service order violated");
                    }
                    last_done = Some(done_at);
                    accepted += 1;
                }
                nezha_sim::resources::CpuOutcome::Dropped => {
                    // Drops only under a genuinely deep backlog.
                    prop_assert!(cpu.queue_delay(t) > SimDuration::from_millis(2));
                    dropped += 1;
                }
            }
        }
        prop_assert_eq!(cpu.counters(), (accepted, dropped));
        prop_assert_eq!(accepted + dropped, jobs.len() as u64);
    }

    /// Memory pool: any alloc/free sequence that the pool accepts keeps
    /// `used + available == capacity` and `used <= peak <= capacity`.
    #[test]
    fn memory_pool_invariants(ops in prop::collection::vec((prop::bool::ANY, 1u64..5_000), 1..200)) {
        let mut pool = MemoryPool::new(100_000);
        let mut ledger: Vec<u64> = Vec::new();
        for (is_alloc, size) in ops {
            if is_alloc {
                if pool.alloc(size).is_ok() {
                    ledger.push(size);
                }
            } else if let Some(sz) = ledger.pop() {
                pool.free(sz);
            }
            prop_assert_eq!(pool.used() + pool.available(), pool.capacity());
            prop_assert_eq!(pool.used(), ledger.iter().sum::<u64>());
            prop_assert!(pool.peak() >= pool.used());
            prop_assert!(pool.peak() <= pool.capacity());
        }
    }

    /// Utilization windows never report more work than was added, and
    /// report zero once a full window has passed since the last add.
    #[test]
    fn window_bounds(adds in prop::collection::vec((0u64..50_000_000, 0.0f64..100.0), 1..100)) {
        let mut w = UtilizationWindow::new(SimDuration::from_millis(10));
        let mut t = SimTime(0);
        let mut total = 0.0;
        for (gap, amt) in adds {
            t += SimDuration(gap);
            w.add(t, amt);
            total += amt;
            let s = w.sum(t);
            prop_assert!(s <= total + 1e-9, "window {s} exceeds all work {total}");
            prop_assert!(s >= 0.0);
        }
        prop_assert_eq!(w.sum(t + SimDuration::from_millis(11)), 0.0);
    }

    /// Topology: hop counts are symmetric, zero iff same server, and
    /// latency is monotone in both hops and bytes.
    #[test]
    fn topology_metrics(a in 0u32..256, b in 0u32..256, bytes in 0usize..10_000) {
        let topo = Topology::new(TopologyConfig {
            servers_per_rack: 8,
            racks_per_pod: 4,
            pods: 8,
        });
        let (a, b) = (ServerId(a), ServerId(b));
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert_eq!(topo.hops(a, b) == 0, a == b);
        prop_assert!(topo.latency(a, b, bytes + 1) >= topo.latency(a, b, bytes));
        if a != b {
            prop_assert!(topo.latency(a, b, bytes) >= topo.latency(a, a, bytes));
        }
        // Rack peers really share the rack.
        for p in topo.rack_peers(a) {
            prop_assert!(topo.same_rack(a, p));
            prop_assert_eq!(topo.hops(a, p), 2);
        }
    }
}
