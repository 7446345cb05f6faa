//! The region's open observation window: one window per epoch, folded
//! once, at the barrier.
//!
//! Shards contribute counter deltas only. The three histograms of a
//! window — CPU and memory utilization, offload completion times — are
//! recorded here, by the region, in the same ascending `(shard, server)`
//! pass that appends the samples to the report, and are cleared at
//! window close instead of being rebuilt. Bucket counts are integer adds
//! and the extrema are exact, so the closed record does not depend on
//! the shard count (the stream is pinned byte for byte by
//! `tests/shard_equivalence.rs`).

use super::barrier::GrantOutcome;
use nezha_sim::obs::{LogHistogram, SloRule, WindowRecord, WindowedRollup};
use nezha_sim::time::SimTime;

/// The window being filled, plus the rollup closed windows go to.
#[derive(Debug)]
pub(crate) struct EpochWindows {
    pub rollup: WindowedRollup,
    cpu: LogHistogram,
    mem: LogHistogram,
    completions: LogHistogram,
    /// Counter deltas of the open window, from the shards and from the
    /// barrier, in arrival order (same keys add at close).
    effects: Vec<(&'static str, u64)>,
}

impl EpochWindows {
    pub fn new(retain: usize, rules: Vec<SloRule>) -> Self {
        EpochWindows {
            rollup: WindowedRollup::new(retain, rules),
            cpu: LogHistogram::new(),
            mem: LogHistogram::new(),
            completions: LogHistogram::new(),
            effects: Vec::new(),
        }
    }

    /// Drops whatever an earlier run left in the open window (only a run
    /// of zero epochs leaves anything: its rollout grants).
    pub fn begin_run(&mut self) {
        self.cpu.clear();
        self.mem.clear();
        self.completions.clear();
        self.effects.clear();
    }

    /// One server-epoch utilization sample.
    #[inline]
    pub fn record_util(&mut self, cpu: f64, mem: f64) {
        self.cpu.record(cpu);
        self.mem.record(mem);
    }

    /// One shard's counter deltas for the open window.
    pub fn add_effects(&mut self, effects: impl IntoIterator<Item = (&'static str, u64)>) {
        self.effects.extend(effects);
    }

    /// One barrier grant outcome: grant/denial counts plus the
    /// completion time of every grant.
    pub fn note_grants(&mut self, outcome: &GrantOutcome) {
        self.effects.extend([
            ("region.offload_granted", outcome.granted.len() as u64),
            ("region.offload_denied", outcome.denied.len() as u64),
        ]);
        for &(_, secs) in &outcome.granted {
            self.completions.record(secs);
        }
    }

    /// Closes the open window over `[start, end)`: every counter delta
    /// added up by key (the barrier-level ones are already global), plus
    /// a summary of every histogram that saw a value. Leaves the next
    /// window empty.
    pub fn close(&mut self, start: SimTime, end: SimTime, migrations: u64, flash: bool) {
        self.effects.extend([
            ("region.migrations", migrations),
            ("region.flash_crowds", u64::from(flash)),
        ]);
        let mut rec =
            WindowRecord::from_effects(self.rollup.closed(), start, end, self.effects.drain(..));
        for (key, hist) in [
            ("region.util.cpu", &mut self.cpu),
            ("region.util.mem", &mut self.mem),
            ("region.offload_completion_secs", &mut self.completions),
        ] {
            if !hist.is_empty() {
                rec.set_hist(key, hist.summary());
                hist.clear();
            }
        }
        self.rollup.push(rec);
    }
}
