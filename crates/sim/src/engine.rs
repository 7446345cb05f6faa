//! The discrete-event engine: a time-ordered queue of user-defined events.
//!
//! Determinism contract: two events scheduled for the same instant are
//! delivered in the order they were *scheduled* (stable FIFO tie-break via
//! a monotone sequence number). Combined with the seeded [`crate::SimRng`],
//! a run is a pure function of its inputs — a property every experiment
//! harness and regression test in this repository relies on.
//!
//! Storage: a pending event is one `{at, seq, event}` entry, payload
//! inline, held in exactly one place — the `immediate` lane (due now),
//! the sorted run (due before the horizon), the fine rung (one unordered
//! bucket per 20 µs, at most `RUNG` of them) or the coarse rung (one
//! bucket per `RUNG` fine widths, for everything past the fine rung's
//! end). An entry moves coarse → fine → run at most once each: the
//! two-rung ladder queue of Tang, Goh & Thng (ACM TOMACS 2005).
//!
//! Reserved sequence numbers: [`Engine::reserve_seq`] takes the next
//! `seq` (counted in `engine.scheduled` and in [`Engine::pending`], as a
//! schedule would be) without queueing anything, and
//! [`Engine::schedule_reserved`] later files the event under that
//! original `(at, seq)` key. It pops exactly where a `schedule_at(at, _)`
//! made at reservation time would have, provided the caller files it no
//! later than its due instant and reserved it before that instant began
//! draining (`at > now()` at reservation). A caller holding many
//! reservations pays one queue entry only for those it has filed.

use crate::metrics::{CounterHandle, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// An event with its due time.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The user event payload.
    pub event: E,
}

/// The queue entry: due time, stable tie-break sequence and the event
/// itself — 32 bytes for the cluster's 16-byte event, 24 for a `u64`.
/// The one copy of a queued event from schedule to pop.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Delivery order: `(at, seq)`, unique because `seq` is.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The event engine: a clock plus a priority queue of [`Scheduled`] events.
///
/// The engine does not interpret events; callers drive the loop:
///
/// ```
/// use nezha_sim::{Engine, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Ping, Pong }
///
/// let mut eng = Engine::new();
/// eng.schedule_in(SimDuration::from_millis(1), Ev::Ping);
/// while let Some(s) = eng.pop() {
///     match s.event {
///         Ev::Ping if s.at < SimTime(10_000_000) => {
///             eng.schedule_in(SimDuration::from_millis(1), Ev::Pong);
///         }
///         _ => {}
///     }
/// }
/// assert!(eng.now() >= SimTime(2_000_000));
/// ```
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// Every pending entry with `at < horizon`, sorted descending by
    /// `(at, seq)` so the earliest sits at the back: a pop is
    /// `Vec::pop`, and a whole bucket is ordered by one cache-friendly
    /// unstable sort at promotion time instead of per-key heap sifts.
    /// Entries scheduled below the horizon after the promotion are merged
    /// in by binary-search insertion. That shift stays a short L1
    /// `memmove` because of the one invariant the drain side keeps: on
    /// return to the caller the horizon is at most one bucket past
    /// `max(now, deadline)`, so the run spans one bucket (tens of keys)
    /// and everything later takes the O(1) bucket push.
    run: Vec<Entry<E>>,
    /// The fine rung: `buckets[i]` holds entries due in
    /// `[(bucket_base + i) * BUCKET_NS, (bucket_base + i + 1) * BUCKET_NS)`,
    /// unordered. It ends where the coarse rung starts, at bucket
    /// `far_base * RUNG`, and never spans more than [`RUNG`] buckets
    /// (`far_base * RUNG - bucket_base <= RUNG`). A slot opens empty and
    /// takes a `spare` when its first entry lands.
    buckets: VecDeque<Vec<Entry<E>>>,
    /// Absolute bucket index of `buckets[0]`. The run/ladder boundary
    /// (`horizon`) is `bucket_base * BUCKET_NS`.
    bucket_base: u64,
    /// The coarse rung: `far[j]` holds entries in fine buckets
    /// `[(far_base + j) * RUNG, (far_base + j + 1) * RUNG)`, unordered.
    /// Its front bucket is scattered into the fine rung — each entry
    /// moves once — when the fine rung is empty and the front bucket
    /// starts at or before the caller's deadline.
    far: VecDeque<Vec<Entry<E>>>,
    /// Absolute coarse index of `far[0]`.
    far_base: u64,
    /// Total entries across both rungs.
    staged_len: usize,
    /// Events scheduled *at* the instant being drained (`draining_at`).
    /// Every entry queued for that instant before it started draining is
    /// in the run (below the horizon) with a smaller sequence number and
    /// pops first, so FIFO order here *is* `(at, seq)` order — these
    /// events skip the run entirely. Completion-style events (fire "now")
    /// are a quarter of a packet workload, so this path matters.
    immediate: VecDeque<E>,
    /// The instant most recently popped from the run; the only due time
    /// `immediate` events can have (it equals `now` while any are queued).
    draining_at: Option<SimTime>,
    /// Empty `Vec`s with capacity — the run's storage retired at each
    /// promotion — handed to the next fine slot whose first entry lands,
    /// so steady-state scheduling never touches the allocator (capacity
    /// is invisible to behavior; only contents are). At most [`RUNG`].
    spare: Vec<Vec<Entry<E>>>,
    /// Sequence numbers reserved and not yet filed: pending events that
    /// have no entry yet.
    reserved: usize,
    processed: u64,
    telemetry: Option<EngineTelemetry>,
}

/// Width of one fine bucket: 20 µs of simulated time — a hair
/// above the fabric's common-case one-way latency, so most packet
/// arrivals land one or two buckets out (an O(1) push) instead of in the
/// sorted run. Promotion happens only for buckets that start at or before
/// the caller's deadline, so the run holds at most one promoted bucket
/// plus the sub-bucket-latency events scheduled since: tens of keys,
/// L1-resident, however sparse the pending events are.
const BUCKET_NS: u64 = 20_000;

/// Fine buckets per coarse bucket, and the most the fine rung spans:
/// 20.48 ms. A key an hour out opens ~176 K coarse slots, not 180 M fine
/// ones.
const RUNG: u64 = 1024;

/// Pre-registered handles the engine updates when metrics are attached.
#[derive(Clone, Debug)]
struct EngineTelemetry {
    registry: MetricsRegistry,
    scheduled: CounterHandle,
    processed: CounterHandle,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            run: Vec::new(),
            buckets: VecDeque::new(),
            bucket_base: 0,
            far: VecDeque::new(),
            far_base: 1,
            staged_len: 0,
            immediate: VecDeque::new(),
            draining_at: None,
            spare: Vec::new(),
            reserved: 0,
            processed: 0,
            telemetry: None,
        }
    }

    /// Attaches a [`MetricsRegistry`]: from now on the engine keeps the
    /// `engine.scheduled` / `engine.processed` counters up to date there.
    /// Optional — an unattached engine pays no telemetry cost.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let tel = EngineTelemetry {
            registry: registry.clone(),
            scheduled: registry.counter("engine.scheduled", &[]),
            processed: registry.counter("engine.processed", &[]),
        };
        tel.registry.add(tel.scheduled, self.seq);
        tel.registry.add(tel.processed, self.processed);
        self.telemetry = Some(tel);
    }

    /// The current simulated time (the due time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending, reserved ones included.
    pub fn pending(&self) -> usize {
        self.run.len() + self.staged_len + self.immediate.len() + self.reserved
    }

    /// The run/ladder boundary: keys due strictly before this live in
    /// `run`.
    #[inline]
    fn horizon_ns(&self) -> u64 {
        self.bucket_base.saturating_mul(BUCKET_NS)
    }

    /// Ensures the earliest pending event due by `limit` (if any) is
    /// resident in the run: when the run has gone dry, skips empty fine
    /// buckets and promotes the first nonempty one — one unstable sort,
    /// then every pop is O(1) — and, whenever the fine rung runs out,
    /// scatters the coarse rung's front bucket into it. Either step
    /// happens only for a bucket that *starts* at or before `limit`. A
    /// nonempty run owns the global minimum (run keys are below the
    /// horizon, rung keys at or above it) and a bucket left on a rung
    /// holds nothing due by `limit`, so a peek never moves the horizon
    /// more than one bucket past its deadline.
    fn refill(&mut self, limit: SimTime) {
        // `immediate` is due at `now`, ahead of anything on the ladder.
        if !self.run.is_empty() || !self.immediate.is_empty() {
            return;
        }
        while self.horizon_ns() <= limit.0 {
            let Some(front) = self.buckets.front_mut() else {
                // The fine rung is dry: its next `RUNG` buckets are the
                // coarse front bucket's.
                let start = self.far_base * RUNG;
                if start.saturating_mul(BUCKET_NS) > limit.0 {
                    return;
                }
                let Some(coarse) = self.far.pop_front() else {
                    return;
                };
                debug_assert!(start >= self.bucket_base, "horizon moved backwards");
                self.bucket_base = start;
                self.far_base += 1;
                for e in coarse {
                    self.push_fine(e);
                }
                continue;
            };
            if front.is_empty() {
                self.buckets.pop_front();
                self.bucket_base += 1;
                continue;
            }
            let mut keys = std::mem::take(front);
            self.buckets.pop_front();
            self.bucket_base += 1;
            self.staged_len -= keys.len();
            // Descending `(at, seq)`: the earliest entry ends up at the
            // back, where `Vec::pop` is O(1).
            keys.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            let retired = std::mem::replace(&mut self.run, keys);
            if retired.capacity() > 0 && self.spare.len() < RUNG as usize {
                self.spare.push(retired);
            }
            return;
        }
    }

    /// Files `e` — due at or past the horizon, before the coarse rung —
    /// in its fine bucket. A slot's first entry brings a spare `Vec`.
    fn push_fine(&mut self, e: Entry<E>) {
        let idx = (e.at.0 / BUCKET_NS - self.bucket_base) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        let slot = &mut self.buckets[idx];
        if slot.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *slot = spare;
            }
        }
        slot.push(e);
    }

    /// Schedules `event` at absolute time `at`. Times before `now` are
    /// clamped to `now` — the simulator never travels backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq();
        if self.draining_at == Some(at) {
            // `at == now`: see `immediate`.
            self.immediate.push_back(event);
            return;
        }
        self.file(Entry { at, seq, event });
    }

    /// Takes the next sequence number, counted as scheduled and as
    /// pending, for an event to be filed later with
    /// [`Engine::schedule_reserved`] (module docs: the contract).
    pub fn reserve_seq(&mut self) -> u64 {
        self.reserved += 1;
        self.next_seq()
    }

    /// Files `event` under the key `(at, seq)` taken by
    /// [`Engine::reserve_seq`], no later than `at` itself. Never the
    /// `immediate` lane: the reservation predates the instant's draining,
    /// so at the draining instant the entry belongs in the run, ahead of
    /// every immediate.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(at >= self.now && seq < self.seq, "stale reservation");
        // Saturating: a reservation taken before a `clear` is filed as a
        // fresh event.
        self.reserved = self.reserved.saturating_sub(1);
        self.file(Entry { at, seq, event });
    }

    /// The next sequence number, counted in `engine.scheduled`.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.scheduled);
        }
        seq
    }

    /// Puts `entry` (due at or after `now`) in the run or on a rung.
    #[inline]
    fn file(&mut self, entry: Entry<E>) {
        let at = entry.at;
        if at.0 < self.horizon_ns() {
            // Below the horizon: merge into the (descending-sorted) run.
            let key = entry.key();
            let pos = self.run.partition_point(|e| e.key() > key);
            self.run.insert(pos, entry);
            return;
        }
        if self.buckets.is_empty() && self.far.is_empty() {
            // Empty rungs have no position to keep: re-anchor both at the
            // clock, or the first key after an idle stretch (or a
            // `clear`) would open one coarse slot per 20.48 ms slept
            // through. Only ever forwards — run keys stay below the
            // horizon.
            self.bucket_base = self.bucket_base.max(self.now.0 / BUCKET_NS);
            self.far_base = self.bucket_base / RUNG + 1;
        }
        let bucket = at.0 / BUCKET_NS;
        if bucket < self.far_base * RUNG {
            self.push_fine(entry);
        } else {
            let idx = (bucket / RUNG - self.far_base) as usize;
            if idx >= self.far.len() {
                self.far.resize_with(idx + 1, Vec::new);
            }
            self.far[idx].push(entry);
        }
        self.staged_len += 1;
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its due time.
    ///
    /// Tracks the instant being drained in `draining_at` so that
    /// [`Engine::schedule_at`] can route same-instant schedules to the
    /// O(1) `immediate` lane. Delivery order at one instant is still
    /// exactly `(at, seq)`: run entries at the draining instant all
    /// pre-date anything in `immediate` (a key can only enter the run
    /// *before* its instant starts draining — later same-instant
    /// schedules are diverted to `immediate` with larger `seq`), so the
    /// run goes first and `immediate` follows in FIFO (= `seq`) order.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let (at, event) = match self.run.last() {
            Some(e) if self.draining_at == Some(e.at) => self.run.pop().map(|e| (e.at, e.event))?,
            _ => match self.immediate.pop_front() {
                Some(event) => (self.now, event),
                None => {
                    self.refill(SimTime(u64::MAX));
                    let e = self.run.pop()?;
                    debug_assert!(e.at >= self.now, "event queue went backwards");
                    self.now = e.at;
                    self.draining_at = Some(e.at);
                    (e.at, e.event)
                }
            },
        };
        self.processed += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.processed);
        }
        Some(Scheduled { at, event })
    }

    /// Pops the next event only if it is due at or before `deadline`.
    ///
    /// Used by harnesses that interleave simulation with periodic sampling:
    /// the clock advances to `deadline` when the queue has nothing earlier.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        self.refill(deadline);
        let popped = match self.resident_due() {
            Some(due) if due <= deadline => self.pop(),
            _ => {
                self.now = self.now.max(deadline);
                None
            }
        };
        self.debug_assert_horizon();
        popped
    }

    /// Earliest pending instant outside the ladder: `immediate` (when
    /// present) is due at `now`, which no run key can precede.
    fn resident_due(&self) -> Option<SimTime> {
        if self.immediate.is_empty() {
            self.run.last().map(|e| e.at)
        } else {
            Some(self.now)
        }
    }

    /// The drain side's invariants: a pop hands control back with the
    /// horizon at most one bucket past `max(now, deadline)` — which is
    /// `now` itself, an idle pop having left the clock at its deadline —
    /// so what the caller schedules next beyond that bucket is an O(1)
    /// ladder push, never a sorted insert; and the fine rung spans at
    /// most `RUNG` buckets.
    #[inline]
    fn debug_assert_horizon(&self) {
        let limit = self.now.0.saturating_add(BUCKET_NS);
        debug_assert!(self.horizon_ns() <= limit, "horizon ran past now");
        debug_assert!(
            (self.bucket_base..=self.bucket_base + RUNG).contains(&(self.far_base * RUNG)),
            "fine rung spans more than RUNG buckets"
        );
    }

    /// Due time of the next filed event, if any (a reservation not yet
    /// filed has no due time).
    pub fn peek_time(&self) -> Option<SimTime> {
        let earliest = |b: &Vec<Entry<E>>| b.iter().map(|e| e.at).min();
        self.resident_due()
            .or_else(|| self.buckets.iter().find_map(earliest))
            .or_else(|| self.far.iter().find_map(earliest))
    }

    /// Drops all pending events, reservations included (used when tearing
    /// down a scenario).
    pub fn clear(&mut self) {
        self.reserved = 0;
        self.run.clear();
        self.buckets.clear();
        self.far.clear();
        self.staged_len = 0;
        self.immediate.clear();
        self.draining_at = None;
    }
}

impl<E> fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(30), "c");
        eng.schedule_at(SimTime(10), "a");
        eng.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(eng.now(), SimTime(30));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut eng = Engine::new();
        for i in 0..100 {
            eng.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(100), ());
        eng.pop();
        eng.schedule_at(SimTime(50), ()); // in the past
        let s = eng.pop().unwrap();
        assert_eq!(s.at, SimTime(100));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1000), "first");
        eng.pop();
        eng.schedule_in(SimDuration::from_nanos(5), "second");
        assert_eq!(eng.pop().unwrap().at, SimTime(1005));
    }

    #[test]
    fn pop_until_respects_deadline_and_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(10), "early");
        eng.schedule_at(SimTime(100), "late");
        assert_eq!(eng.pop_until(SimTime(50)).unwrap().event, "early");
        assert!(eng.pop_until(SimTime(50)).is_none());
        // Clock advanced to the deadline even though nothing popped.
        assert_eq!(eng.now(), SimTime(50));
        assert_eq!(eng.pop().unwrap().event, "late");
    }

    #[test]
    fn promotion_stops_at_the_deadline() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(500_000_000), 0u32);
        assert!(eng.pop_until(SimTime(1_000_000)).is_none());
        assert!(eng.run.is_empty());
        assert!(eng.horizon_ns() <= 1_000_000 + BUCKET_NS);
        // Everything registered after the idle peek takes the bucket path.
        for i in 0..10_000u64 {
            eng.schedule_at(SimTime(2_000_000 + i * 37), 1);
        }
        assert_eq!(eng.run.len(), 0);
        assert_eq!(eng.pending(), 10_001);
        let drained: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.at).collect();
        assert_eq!(drained.len(), 10_001);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(drained.last(), Some(&SimTime(500_000_000)));
    }

    #[test]
    fn idle_slices_do_not_grow_the_run() {
        const MS: u64 = 1_000_000;
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(100 * MS), 0u64);
        let mut ticks = 0;
        for slice in 1..=1_000u64 {
            let deadline = SimTime(slice * MS);
            while let Some(s) = eng.pop_until(deadline) {
                ticks += 1;
                eng.schedule_at(SimTime(s.at.0 + 100 * MS), s.event + 1);
            }
            assert_eq!(eng.now(), deadline);
            assert!(eng.run.is_empty(), "slice {slice}: run={}", eng.run.len());
            assert!(eng.horizon_ns() <= deadline.0 + BUCKET_NS);
            // A caller registering traffic between slices stays on the
            // ladder: nothing lands in the sorted run.
            eng.schedule_at(SimTime(deadline.0 + MS / 2), u64::MAX);
            assert!(eng.run.is_empty());
            assert_eq!(
                eng.pop_until(SimTime(deadline.0 + MS / 2)).unwrap().event,
                u64::MAX
            );
        }
        assert_eq!(ticks, 10);
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn an_empty_ladder_follows_the_clock() {
        let mut eng: Engine<u32> = Engine::new();
        // Idle for 10 s, then one key a bucket ahead: one or two ladder
        // slots, not the 500 000 between time zero and now.
        assert!(eng.pop_until(SimTime(10_000_000_000)).is_none());
        eng.schedule_in(SimDuration::from_micros(20), 1);
        assert!(eng.buckets.len() + eng.far.len() <= 2);
        // The same after a `clear` and a second idle stretch.
        eng.clear();
        assert!(eng.pop_until(SimTime(20_000_000_000)).is_none());
        eng.schedule_in(SimDuration::from_micros(20), 2);
        assert!(eng.buckets.len() + eng.far.len() <= 2);
        assert_eq!(eng.pop().unwrap().at, SimTime(20_000_020_000));
    }

    #[test]
    fn a_far_future_key_opens_few_ladder_slots() {
        // One coarse slot per 20.48 ms between now and the key, not one
        // fine slot per 20 µs (500 001 for 10 s before the coarse rung).
        for (secs, max_slots) in [(10, 1_000), (3_600, 200_000)] {
            let mut eng = Engine::new();
            eng.schedule_in(SimDuration::from_secs(secs), 7u32);
            let slots = eng.buckets.len() + eng.far.len();
            assert!(slots <= max_slots, "{secs} s: {slots} ladder slots");
            let s = eng.pop().unwrap();
            assert_eq!((s.at, s.event), (SimTime(secs * 1_000_000_000), 7));
        }
    }

    #[test]
    fn a_reserved_event_keeps_its_place_at_the_draining_instant() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(10), "first");
        let seq = eng.reserve_seq();
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.pop().unwrap().event, "first");
        // Scheduled while instant 10 drains: after the reservation.
        eng.schedule_at(SimTime(10), "immediate");
        eng.schedule_reserved(SimTime(10), seq, "reserved");
        let order: Vec<_> = std::iter::from_fn(|| eng.pop()).map(|s| s.event).collect();
        assert_eq!(order, ["reserved", "immediate"]);
        assert_eq!((eng.pending(), eng.processed()), (0, 3));
    }

    #[test]
    fn clear_empties_queue() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ());
        eng.schedule_at(SimTime(2), ());
        eng.reserve_seq();
        assert_eq!(eng.pending(), 3);
        eng.clear();
        assert_eq!(eng.pending(), 0);
        assert!(eng.pop().is_none());
    }

    #[test]
    fn peek_time_reports_next_due() {
        let mut eng = Engine::new();
        assert_eq!(eng.peek_time(), None);
        eng.schedule_at(SimTime(42), ());
        assert_eq!(eng.peek_time(), Some(SimTime(42)));
    }

    #[test]
    fn attached_metrics_track_scheduled_and_processed() {
        let reg = MetricsRegistry::new();
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ()); // before attach: seeded into the counter
        eng.attach_metrics(&reg);
        eng.schedule_at(SimTime(2), ());
        eng.pop();
        eng.pop();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.scheduled"), 2);
        assert_eq!(snap.counter("engine.processed"), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Two identical runs must produce identical event orders.
        let run = || {
            let mut eng = Engine::new();
            let mut order = Vec::new();
            eng.schedule_at(SimTime(1), 0u32);
            while let Some(s) = eng.pop() {
                order.push((s.at, s.event));
                if s.event < 20 {
                    eng.schedule_in(SimDuration::from_nanos(s.event as u64 % 3), s.event + 1);
                    eng.schedule_in(SimDuration::from_nanos(s.event as u64 % 3), s.event + 2);
                }
                if order.len() > 2000 {
                    break;
                }
            }
            order
        };
        assert_eq!(run(), run());
    }
}
