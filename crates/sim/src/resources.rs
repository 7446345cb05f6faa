//! SmartNIC resource models: CPU, memory, and rate limiting.
//!
//! These models are the load-bearing substitution for real hardware (see
//! DESIGN.md §2). The paper's bottlenecks are:
//!
//! * **CPU on the slow path** — rule-table lookups burn cycles, limiting
//!   CPS ([`CpuServer`]);
//! * **memory on the fast/slow path** — session tables and rule tables burn
//!   bytes, limiting #concurrent flows and #vNICs ([`MemoryPool`]).
//!
//! [`CpuServer`] is a *fluid* multi-core server: work is a number of cycles,
//! the server drains at `cores × hz` cycles per second, and a bounded
//! backlog turns sustained overload into queueing delay and, past the
//! bound, packet drops. This one mechanism produces the paper's Fig. 2
//! (vSwitch CPU saturation), Fig. 11 (utilization timelines), and Fig. 12
//! (latency explosion beyond ~90% load) without any per-experiment tuning.

use crate::time::{SimDuration, SimTime};

/// Outcome of offering work to a [`CpuServer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuOutcome {
    /// Work accepted; processing completes at `done_at` (includes queueing).
    Done {
        /// Completion time, `>= now`.
        done_at: SimTime,
    },
    /// The backlog bound was exceeded; the work (packet) is dropped.
    Dropped,
}

impl CpuOutcome {
    /// Completion time, if the work was accepted.
    pub fn done_at(self) -> Option<SimTime> {
        match self {
            CpuOutcome::Done { done_at } => Some(done_at),
            CpuOutcome::Dropped => None,
        }
    }

    /// True when the work was dropped.
    pub fn is_dropped(self) -> bool {
        matches!(self, CpuOutcome::Dropped)
    }
}

/// A fluid multi-core CPU with bounded backlog and utilization tracking.
#[derive(Debug, Clone)]
pub struct CpuServer {
    capacity_hz: f64,
    backlog_done: SimTime,
    max_backlog: SimDuration,
    window: UtilizationWindow,
    accepted: u64,
    dropped: u64,
}

impl CpuServer {
    /// Creates a server with `cores` cores at `hz` cycles/second each and
    /// the given backlog bound (the deepest queue, expressed as time to
    /// drain, before new work is dropped).
    pub fn new(cores: u32, hz: u64, max_backlog: SimDuration) -> Self {
        assert!(cores > 0 && hz > 0);
        CpuServer {
            capacity_hz: cores as f64 * hz as f64,
            backlog_done: SimTime::ZERO,
            max_backlog,
            window: UtilizationWindow::new(SimDuration::from_millis(1000)),
            accepted: 0,
            dropped: 0,
        }
    }

    /// Total capacity in cycles per second.
    pub fn capacity_hz(&self) -> f64 {
        self.capacity_hz
    }

    /// Offers `cycles` of work at time `now`.
    pub fn offer(&mut self, now: SimTime, cycles: u64) -> CpuOutcome {
        let queue_delay = self.backlog_done.since(now);
        if queue_delay > self.max_backlog {
            self.dropped += 1;
            return CpuOutcome::Dropped;
        }
        let service = SimDuration::from_secs_f64(cycles as f64 / self.capacity_hz);
        let done_at = self.backlog_done.max(now) + service;
        self.backlog_done = done_at;
        self.accepted += 1;
        self.window.add(now, cycles as f64);
        CpuOutcome::Done { done_at }
    }

    /// Current queueing delay a new job would experience.
    pub fn queue_delay(&self, now: SimTime) -> SimDuration {
        self.backlog_done.since(now)
    }

    /// Offered-load utilization over the trailing measurement window,
    /// in `[0, 1]`. Can be sampled at any time; this is what the vSwitch
    /// reports to the controller every reporting period.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let cap = self.capacity_hz * self.window.len().as_secs_f64();
        (self.window.sum(now) / cap).min(1.0)
    }

    /// Replaces the utilization measurement window length.
    pub fn set_window(&mut self, len: SimDuration) {
        self.window = UtilizationWindow::new(len);
    }

    /// (accepted, dropped) job counters since construction.
    pub fn counters(&self) -> (u64, u64) {
        (self.accepted, self.dropped)
    }
}

/// A rolling-window accumulator: `sum(now)` returns the total quantity
/// added during the trailing window. Implemented as rotating fixed bins —
/// O(1) add, O(bins) read, no allocation after construction.
#[derive(Debug, Clone)]
pub struct UtilizationWindow {
    bins: Vec<f64>,
    bin_len: SimDuration,
    /// Index of the bin covering `cursor_start ..= cursor_start+bin_len`.
    cursor: usize,
    cursor_start: SimTime,
}

const WINDOW_BINS: usize = 10;

impl UtilizationWindow {
    /// Creates a window of the given total length.
    pub fn new(len: SimDuration) -> Self {
        assert!(len.nanos() >= WINDOW_BINS as u64);
        UtilizationWindow {
            bins: vec![0.0; WINDOW_BINS],
            bin_len: SimDuration(len.nanos() / WINDOW_BINS as u64),
            cursor: 0,
            cursor_start: SimTime::ZERO,
        }
    }

    /// Total window length.
    pub fn len(&self) -> SimDuration {
        SimDuration(self.bin_len.nanos() * WINDOW_BINS as u64)
    }

    /// Always false; windows have fixed nonzero length. Provided to satisfy
    /// the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn rotate_to(&mut self, now: SimTime) {
        // Advance the cursor bin until it covers `now`, zeroing stale bins.
        let mut steps = 0;
        while now >= self.cursor_start + self.bin_len {
            self.cursor = (self.cursor + 1) % WINDOW_BINS;
            self.bins[self.cursor] = 0.0;
            self.cursor_start += self.bin_len;
            steps += 1;
            if steps > WINDOW_BINS {
                // Larger jump than the whole window: reset directly.
                let skip = now.since(self.cursor_start).nanos() / self.bin_len.nanos();
                self.cursor_start =
                    SimTime(self.cursor_start.nanos() + skip * self.bin_len.nanos());
                for b in &mut self.bins {
                    *b = 0.0;
                }
            }
        }
    }

    /// Adds `amount` at time `now` (monotone `now` expected).
    pub fn add(&mut self, now: SimTime, amount: f64) {
        self.rotate_to(now);
        self.bins[self.cursor] += amount;
    }

    /// Sum over the trailing window as of `now`.
    pub fn sum(&self, now: SimTime) -> f64 {
        // Bins older than the window have been zeroed by rotation; a read
        // long after the last add must not see stale data, so compute how
        // many bins are still in range.
        let age_bins = now.since(self.cursor_start).nanos() / self.bin_len.nanos().max(1);
        if age_bins as usize >= WINDOW_BINS {
            return 0.0;
        }
        let live = WINDOW_BINS - age_bins as usize;
        (0..live)
            .map(|k| self.bins[(self.cursor + WINDOW_BINS - k) % WINDOW_BINS])
            .sum()
    }
}

/// Error returned when a [`MemoryPool`] allocation does not fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still free.
    pub free: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A byte-accounted memory pool with a hard capacity.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    peak: u64,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// Attempts to reserve `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let free = self.capacity - self.used;
        if bytes > free {
            return Err(OutOfMemory {
                requested: bytes,
                free,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Releases `bytes`. Releasing more than is allocated is a logic error
    /// and panics in debug builds; release clamps in release builds.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.used,
            "freeing {} of {} used",
            bytes,
            self.used
        );
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark since construction.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Fraction of capacity in use, `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.used as f64 / self.capacity as f64
    }
}

/// A token bucket used by the QoS meter table.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket admitting `rate_per_sec` units steadily with a
    /// burst allowance, starting full.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// Attempts to consume `amount` at time `now`; false = over rate.
    pub fn admit(&mut self, now: SimTime, amount: f64) -> bool {
        let dt = now.since(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srv() -> CpuServer {
        // 1 core at 1 GHz, 1 ms max backlog.
        CpuServer::new(1, 1_000_000_000, SimDuration::from_millis(1))
    }

    #[test]
    fn idle_server_completes_after_service_time() {
        let mut s = srv();
        match s.offer(SimTime(0), 1000) {
            CpuOutcome::Done { done_at } => assert_eq!(done_at, SimTime(1000)),
            CpuOutcome::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn backlog_accumulates_fifo() {
        let mut s = srv();
        let d1 = s.offer(SimTime(0), 1000).done_at().unwrap();
        let d2 = s.offer(SimTime(0), 1000).done_at().unwrap();
        assert_eq!(d1, SimTime(1000));
        assert_eq!(d2, SimTime(2000));
        assert_eq!(s.queue_delay(SimTime(0)), SimDuration(2000));
    }

    #[test]
    fn overload_drops_past_backlog_bound() {
        let mut s = srv();
        // Fill slightly past 1 ms of backlog: 1100 jobs of 1 us each.
        let mut dropped = 0;
        for _ in 0..1100 {
            if s.offer(SimTime(0), 1000).is_dropped() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "no drops under 1.1ms of instantaneous backlog");
        let (acc, drop) = s.counters();
        assert_eq!(acc + drop, 1100);
        // Work offered later, after the backlog drains, is accepted again.
        assert!(!s.offer(SimTime(3_000_000), 1000).is_dropped());
    }

    #[test]
    fn backlog_drains_with_time() {
        let mut s = srv();
        s.offer(SimTime(0), 500_000); // 0.5 ms of work
        assert_eq!(s.queue_delay(SimTime(0)), SimDuration(500_000));
        assert_eq!(s.queue_delay(SimTime(250_000)), SimDuration(250_000));
        assert_eq!(s.queue_delay(SimTime(600_000)), SimDuration::ZERO);
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut s = srv();
        s.set_window(SimDuration::from_millis(100));
        // Offer 50% load for 100 ms: 1 job of 5000 cycles every 10 us.
        let mut t = SimTime(0);
        for _ in 0..10_000 {
            s.offer(t, 5_000);
            t += SimDuration::from_micros(10);
        }
        let u = s.utilization(t);
        assert!((u - 0.5).abs() < 0.1, "utilization {u}");
    }

    #[test]
    fn utilization_decays_when_idle() {
        let mut s = srv();
        s.set_window(SimDuration::from_millis(100));
        s.offer(SimTime(0), 50_000_000); // 50 ms of work
        assert!(s.utilization(SimTime(1_000_000)) > 0.4);
        // Long after, the window has rotated past all of it.
        assert_eq!(s.utilization(SimTime(1_000_000_000)), 0.0);
    }

    #[test]
    fn window_handles_large_time_jumps() {
        let mut w = UtilizationWindow::new(SimDuration::from_millis(10));
        w.add(SimTime(0), 100.0);
        // Jump far beyond the window.
        w.add(SimTime(10_000_000_000), 5.0);
        assert_eq!(w.sum(SimTime(10_000_000_000)), 5.0);
        assert!(!w.is_empty());
        assert_eq!(w.len(), SimDuration::from_millis(10));
    }

    #[test]
    fn memory_pool_accounting() {
        let mut m = MemoryPool::new(1000);
        m.alloc(400).unwrap();
        m.alloc(600).unwrap();
        assert_eq!(m.used(), 1000);
        assert_eq!(m.available(), 0);
        let e = m.alloc(1).unwrap_err();
        assert_eq!(e.requested, 1);
        assert_eq!(e.free, 0);
        m.free(500);
        assert_eq!(m.used(), 500);
        assert_eq!(m.peak(), 1000);
        assert!((m.utilization() - 0.5).abs() < 1e-12);
        assert!(e.to_string().contains("out of memory"));
    }

    #[test]
    fn token_bucket_enforces_rate() {
        let mut tb = TokenBucket::new(100.0, 10.0);
        // Burst of 10 admitted immediately.
        assert!((0..10).all(|_| tb.admit(SimTime(0), 1.0)));
        assert!(!tb.admit(SimTime(0), 1.0));
        // After 50 ms, 5 tokens refilled.
        assert!((0..5).all(|_| tb.admit(SimTime(50_000_000), 1.0)));
        assert!(!tb.admit(SimTime(50_000_000), 1.0));
    }
}
