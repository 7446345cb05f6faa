//! The discrete-event engine: a time-ordered queue of user-defined events.
//!
//! Determinism contract: two events scheduled for the same instant are
//! delivered in the order they were *scheduled* (stable FIFO tie-break via
//! a monotone sequence number). Combined with the seeded [`crate::SimRng`],
//! a run is a pure function of its inputs — a property every experiment
//! harness and regression test in this repository relies on.

use crate::dense::Slab;
use crate::metrics::{CounterHandle, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::fmt;

/// An event with its due time and stable tie-break sequence.
#[derive(Clone, Debug)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// The user event payload.
    pub event: E,
}

/// The queue entry: 24 bytes of `(at, seq, slab id)`. The event payload
/// itself parks in the engine's slab, so every sort swap and run shift
/// moves three words instead of a whole event.
#[derive(Clone, Copy, Debug)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    id: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapKey {}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so that an ascending sort puts the earliest time (then
        // lowest sequence number) last, where `Vec::pop` is O(1).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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
    /// Every pending key with `at < horizon`, sorted descending by
    /// `(at, seq)` so the earliest key sits at the back: a pop is
    /// `Vec::pop`, and a whole bucket is ordered by one cache-friendly
    /// unstable sort at promotion time instead of per-key heap sifts.
    /// Keys scheduled below the horizon after the promotion are merged in
    /// by binary-search insertion. That shift stays a short L1 `memmove`
    /// because of the one invariant the drain side keeps: on return to
    /// the caller the horizon is at most one bucket past
    /// `max(now, deadline)`, so the run spans one bucket (tens of keys)
    /// and everything later takes the O(1) bucket push.
    run: Vec<HeapKey>,
    /// The far-future bucket ladder: `buckets[i]` holds keys due in
    /// `[(bucket_base + i) * bucket_ns, (bucket_base + i + 1) * bucket_ns)`,
    /// unordered. A far event costs one O(1) bucket push at schedule time
    /// and its share of one bulk sort when its whole bucket promotes —
    /// never a per-key sift.
    buckets: std::collections::VecDeque<Vec<HeapKey>>,
    /// Absolute bucket index of `buckets[0]`. The run/ladder boundary
    /// (`horizon`) is `bucket_base * bucket_ns`.
    bucket_base: u64,
    /// Width of one far-future bucket in nanoseconds ([`BUCKET_NS`] by
    /// default). The ladder holds one bucket per width-worth of pending
    /// horizon, so the width must match the timeline's granularity: 20 µs
    /// for the packet datapath, epoch-scale for coarse region timelines
    /// (via [`Engine::with_bucket_width`]) — a 20 µs ladder spanning a
    /// simulated day would need ~4 billion buckets.
    bucket_ns: u64,
    /// Total keys across `buckets`.
    staged_len: usize,
    /// Events scheduled *at* the instant most recently drained by
    /// [`Engine::pop_batch_until`]. The batch pop removed every queued
    /// entry at that instant, and any later same-instant schedule gets a
    /// strictly larger sequence number, so FIFO order here *is* `(at,
    /// seq)` order — these events skip the run and the parked slab
    /// entirely. Completion-style events (fire "now") are a quarter of a
    /// packet workload, so this path matters.
    immediate: std::collections::VecDeque<E>,
    /// The instant whose batch was most recently drained; the only due
    /// time `immediate` events can have.
    draining_at: Option<SimTime>,
    /// Retired bucket allocations, reused for new buckets so steady-state
    /// scheduling never touches the allocator (capacity is invisible to
    /// behavior; only contents are).
    spare: Vec<Vec<HeapKey>>,
    /// Pending event payloads, addressed by the heap keys' slab ids.
    parked: Slab<E>,
    processed: u64,
    telemetry: Option<EngineTelemetry>,
}

/// Default width of one far-future bucket: 20 µs of simulated time — a
/// hair above the fabric's common-case one-way latency, so most packet
/// arrivals land one or two buckets out (an O(1) push) instead of in the
/// sorted run. Promotion happens only for buckets that start at or before
/// the caller's deadline, so the run holds at most one promoted bucket
/// plus the sub-bucket-latency events scheduled since: tens of keys,
/// L1-resident, however sparse the pending events are.
const BUCKET_NS: u64 = 20_000;

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
    /// Creates an engine at time zero with an empty queue and the default
    /// 20 µs bucket width (tuned for the packet datapath).
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            run: Vec::new(),
            buckets: std::collections::VecDeque::new(),
            bucket_base: 0,
            bucket_ns: BUCKET_NS,
            staged_len: 0,
            immediate: std::collections::VecDeque::new(),
            draining_at: None,
            spare: Vec::new(),
            parked: Slab::new(),
            processed: 0,
            telemetry: None,
        }
    }

    /// Creates an engine whose far-future ladder uses `width`-wide buckets
    /// instead of the default 20 µs.
    ///
    /// The ladder's memory is one bucket per `width` of pending horizon,
    /// so coarse timelines (the region simulator schedules churn and
    /// fault events across whole simulated days at epoch granularity)
    /// must use an epoch-scale width. Delivery semantics are identical
    /// for every width — only promotion batching changes.
    pub fn with_bucket_width(width: SimDuration) -> Self {
        let mut eng = Engine::new();
        assert!(width.nanos() > 0, "bucket width must be positive");
        eng.bucket_ns = width.nanos();
        eng
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

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.run.len() + self.staged_len + self.immediate.len()
    }

    /// The run/ladder boundary: keys due strictly before this live in
    /// `run`.
    #[inline]
    fn horizon_ns(&self) -> u64 {
        self.bucket_base.saturating_mul(self.bucket_ns)
    }

    /// Ensures the earliest pending event due by `limit` (if any) is
    /// resident in the run: when the run has gone dry, skips empty
    /// buckets and promotes the first nonempty one — one unstable sort,
    /// then every pop is O(1) — but only while the front bucket *starts*
    /// at or before `limit`. A nonempty run owns the global minimum (run
    /// keys are below the horizon, ladder keys at or above it) and a
    /// bucket left on the ladder holds nothing due by `limit`, so a peek
    /// never moves the horizon more than one bucket past its deadline.
    fn refill(&mut self, limit: SimTime) {
        // `immediate` is due at `now`, ahead of anything on the ladder.
        if !self.run.is_empty() || !self.immediate.is_empty() {
            return;
        }
        while self.horizon_ns() <= limit.0 {
            let Some(front) = self.buckets.front_mut() else {
                return;
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
            // `HeapKey`'s Ord is inverted (max-heap order), so an
            // ascending sort under it is descending `(at, seq)` — the
            // earliest key ends up at the back, where `Vec::pop` is O(1).
            keys.sort_unstable();
            let retired = std::mem::replace(&mut self.run, keys);
            if retired.capacity() > 0 && self.spare.len() < 32 {
                self.spare.push(retired);
            }
            return;
        }
    }

    /// Schedules `event` at absolute time `at`. Times before `now` are
    /// clamped to `now` — the simulator never travels backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.scheduled);
        }
        if self.draining_at == Some(at) {
            // `at == now` and the batch pop already emptied the heap of
            // this instant, so FIFO order is exactly `(at, seq)` order.
            self.immediate.push_back(event);
            return;
        }
        let id = self.parked.insert(event);
        let key = HeapKey { at, seq, id };
        if at.0 < self.horizon_ns() {
            // Below the horizon: merge into the (descending-sorted) run.
            // `seq` is unique, so the search always misses and yields the
            // insertion point that keeps `(at, seq)` order.
            let (Ok(pos) | Err(pos)) = self.run.binary_search(&key);
            self.run.insert(pos, key);
        } else {
            if self.buckets.is_empty() {
                // An empty ladder has no position to keep: re-anchor it
                // at the clock, or the first key after an idle stretch
                // (or a `clear`) would open one empty bucket per width
                // of simulated time slept through. Only ever forwards —
                // run keys stay below the horizon.
                self.bucket_base = self.bucket_base.max(self.now.0 / self.bucket_ns);
            }
            let idx = (at.0 / self.bucket_ns - self.bucket_base) as usize;
            if idx >= self.buckets.len() {
                let spare = &mut self.spare;
                self.buckets
                    .resize_with(idx + 1, || spare.pop().unwrap_or_default());
            }
            self.buckets[idx].push(key);
            self.staged_len += 1;
        }
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
        if let Some(&k) = self.run.last() {
            if self.draining_at == Some(k.at) {
                self.run.pop();
                self.processed += 1;
                if let Some(tel) = &self.telemetry {
                    tel.registry.inc(tel.processed);
                }
                return Some(Scheduled {
                    at: k.at,
                    event: self.parked.take(k.id),
                });
            }
        }
        if let Some(event) = self.immediate.pop_front() {
            #[expect(
                clippy::expect_used,
                reason = "`schedule` pushes to `immediate` only when `draining_at == Some(at)`, and `clear` empties both"
            )]
            let at = self.draining_at.expect("immediate implies draining_at");
            self.processed += 1;
            if let Some(tel) = &self.telemetry {
                tel.registry.inc(tel.processed);
            }
            return Some(Scheduled { at, event });
        }
        self.refill(SimTime(u64::MAX));
        let k = self.run.pop()?;
        debug_assert!(k.at >= self.now, "event queue went backwards");
        self.now = k.at;
        self.draining_at = Some(k.at);
        self.processed += 1;
        if let Some(tel) = &self.telemetry {
            tel.registry.inc(tel.processed);
        }
        Some(Scheduled {
            at: k.at,
            event: self.parked.take(k.id),
        })
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

    /// Pops *every* event due at the earliest pending instant `<= deadline`
    /// into `batch` (cleared first), advancing the clock to that instant.
    /// Advances the clock to `deadline` and leaves `batch` empty when
    /// nothing is due.
    ///
    /// Delivery order is unchanged from popping one at a time: the batch
    /// is the same-timestamp prefix of the queue in sequence order, and
    /// any event a batch member schedules — even at the very same instant
    /// — receives a strictly larger sequence number, so it sorts after
    /// every batch member and fires on a later call. Callers amortize one
    /// peek per *batch* instead of one per event.
    pub fn pop_batch_until(&mut self, deadline: SimTime, batch: &mut Vec<Scheduled<E>>) {
        batch.clear();
        self.refill(deadline);
        let due = match self.resident_due() {
            Some(due) if due <= deadline => due,
            _ => {
                self.now = self.now.max(deadline);
                self.debug_assert_horizon();
                return;
            }
        };
        // Run entries at `due` pre-date (= smaller `seq` than) anything
        // in `immediate` — see `pop` — so they drain first.
        while let Some(&k) = self.run.last() {
            if k.at != due {
                break;
            }
            self.run.pop();
            batch.push(Scheduled {
                at: k.at,
                event: self.parked.take(k.id),
            });
        }
        batch.extend(
            self.immediate
                .drain(..)
                .map(|event| Scheduled { at: due, event }),
        );
        self.now = due;
        self.draining_at = Some(due);
        let n = batch.len() as u64;
        self.processed += n;
        if let Some(tel) = &self.telemetry {
            tel.registry.add(tel.processed, n);
        }
        self.debug_assert_horizon();
    }

    /// Earliest pending instant outside the ladder: `immediate` (when
    /// present) lives at `draining_at == now`, which no run key can
    /// precede.
    fn resident_due(&self) -> Option<SimTime> {
        if self.immediate.is_empty() {
            self.run.last().map(|k| k.at)
        } else {
            self.draining_at
        }
    }

    /// The drain side's one invariant: every pop flavour hands control
    /// back with the horizon at most one bucket past `max(now, deadline)`
    /// — which is `now` itself, an idle pop having left the clock at its
    /// deadline — so what the caller schedules next beyond that bucket is
    /// an O(1) ladder push, never a sorted insert.
    #[inline]
    fn debug_assert_horizon(&self) {
        let limit = self.now.0.saturating_add(self.bucket_ns);
        debug_assert!(self.horizon_ns() <= limit, "horizon ran past now");
    }

    /// Due time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.resident_due().or_else(|| {
            self.buckets
                .iter()
                .find_map(|b| b.iter().map(|k| k.at).min())
        })
    }

    /// Drops all pending events (used when tearing down a scenario).
    pub fn clear(&mut self) {
        self.run.clear();
        self.buckets.clear();
        self.staged_len = 0;
        self.immediate.clear();
        self.draining_at = None;
        self.parked = Slab::new();
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
        assert!(eng.horizon_ns() <= 1_000_000 + eng.bucket_ns);
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
        let mut batch = Vec::new();
        let mut ticks = 0;
        for slice in 1..=1_000u64 {
            let deadline = SimTime(slice * MS);
            loop {
                eng.pop_batch_until(deadline, &mut batch);
                if batch.is_empty() {
                    break;
                }
                for s in batch.drain(..) {
                    ticks += 1;
                    eng.schedule_at(SimTime(s.at.0 + 100 * MS), s.event + 1);
                }
            }
            assert_eq!(eng.now(), deadline);
            assert!(eng.run.is_empty(), "slice {slice}: run={}", eng.run.len());
            assert!(eng.horizon_ns() <= deadline.0 + eng.bucket_ns);
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
        assert!(eng.buckets.len() <= 2, "buckets={}", eng.buckets.len());
        // The same after a `clear` and a second idle stretch.
        eng.clear();
        assert!(eng.pop_until(SimTime(20_000_000_000)).is_none());
        eng.schedule_in(SimDuration::from_micros(20), 2);
        assert!(eng.buckets.len() <= 2, "buckets={}", eng.buckets.len());
        assert_eq!(eng.pop().unwrap().at, SimTime(20_000_020_000));
    }

    #[test]
    fn clear_empties_queue() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime(1), ());
        eng.schedule_at(SimTime(2), ());
        assert_eq!(eng.pending(), 2);
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
    fn wide_buckets_deliver_identically_and_stay_small() {
        // Delivery order is width-independent: the same µs-scale schedule
        // (small enough for the default 20 µs ladder to walk) drains
        // identically through a wide-bucket engine.
        let times: Vec<u64> = (0..50)
            .map(|i| (i * 7 % 50) * 25_000 + (i % 3) * 17)
            .collect();
        let drain = |mut eng: Engine<usize>| -> Vec<(SimTime, usize)> {
            for (ev, &t) in times.iter().enumerate() {
                eng.schedule_at(SimTime(t), ev);
            }
            std::iter::from_fn(|| eng.pop())
                .map(|s| (s.at, s.event))
                .collect()
        };
        let wide = drain(Engine::with_bucket_width(SimDuration::from_millis(1)));
        let narrow = drain(Engine::new());
        assert_eq!(wide, narrow);

        // Hour-scale schedule: epoch-wide buckets keep the ladder at ~50
        // entries where the 20 µs default would need ~9 billion. Delivery
        // is still strict (at, seq) order across the whole span.
        let epoch = SimDuration::from_secs(3600);
        let mut eng: Engine<usize> = Engine::with_bucket_width(epoch);
        let hours: Vec<u64> = (0..50)
            .map(|i| (i * 7 % 50) * epoch.nanos() + (i % 3) * 17)
            .collect();
        for (ev, &t) in hours.iter().enumerate() {
            eng.schedule_at(SimTime(t), ev);
        }
        assert!(eng.buckets.len() <= 50, "buckets={}", eng.buckets.len());
        let drained: Vec<(SimTime, usize)> = std::iter::from_fn(|| eng.pop())
            .map(|s| (s.at, s.event))
            .collect();
        assert_eq!(drained.len(), hours.len());
        let mut expected: Vec<(SimTime, usize)> = hours
            .iter()
            .enumerate()
            .map(|(ev, &t)| (SimTime(t), ev))
            .collect();
        expected.sort();
        assert_eq!(drained, expected);
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
