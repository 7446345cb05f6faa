//! The region's write-only fold: the report's utilization samples and
//! the open observation window, applied on one consumer thread.
//!
//! The epoch loop in `Region::run_scenario` never reads back what it
//! records per server-epoch, so it sends it here instead ([`Fold`]) and
//! a [`Sink`] applies the messages on a scoped thread, in the order they
//! were sent. Every shard, RNG draw and barrier decision stays on the
//! calling thread; only these writes move. The channel is FIFO and the
//! loop sends in the order it used to apply, so every sample, histogram
//! bucket, window record and SLO event is the value it would be with the
//! fold inline.
//!
//! One window per epoch. Shards contribute counter deltas only. The
//! three histograms of a window — CPU and memory utilization, offload
//! completion times — are recorded here, in the same ascending
//! `(shard, server)` pass that appends the samples to the report, and
//! are cleared at window close instead of being rebuilt. Bucket counts
//! are integer adds and the extrema are exact, so the closed record does
//! not depend on the shard count (the stream is pinned byte for byte by
//! `tests/shard_equivalence.rs`).

use super::barrier::GrantOutcome;
use nezha_sim::obs::{LogHistogram, SloRule, WindowRecord, WindowedRollup};
use nezha_sim::stats::Samples;
use nezha_sim::time::SimTime;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Epochs of messages the channel to the sink holds before the epoch
/// loop waits: enough to ride out a slow window close, few enough that
/// the utilization buffers in flight stay a few hundred KiB.
const BACKLOG_EPOCHS: usize = 4;

/// One write of the epoch loop, in the order the loop makes them: the
/// rollout's `Grants` before epoch 0, then per epoch each shard's
/// `Utils` and `Effects` in ascending shard order, the barrier's
/// `Grants`, and the `Close`.
#[derive(Debug)]
pub(crate) enum Fold {
    /// One shard's `(cpu, mem)` utilization per owned server, ascending
    /// server order. The emptied buffer goes back to the loop
    /// ([`SinkTx::spare`]).
    Utils(Vec<(f64, f64)>),
    /// One shard's counter deltas for the open window.
    Effects([(&'static str, u64); 10]),
    /// One barrier grant outcome, for the open window.
    Grants(GrantOutcome),
    /// Closes the open window over `[start, end)`.
    Close {
        start: SimTime,
        end: SimTime,
        migrations: u64,
        flash: bool,
    },
}

/// What the fold writes for the length of a run: the report's two
/// utilization sample sets and, when enabled, the windows.
#[derive(Debug)]
pub(crate) struct Sink {
    pub cpu: Samples,
    pub mem: Samples,
    pub windows: Option<EpochWindows>,
}

/// The epoch loop's end of the sink: sends [`Fold`]s and takes back
/// emptied utilization buffers.
#[derive(Debug)]
pub(crate) struct SinkTx {
    tx: SyncSender<Fold>,
    spares: Receiver<Vec<(f64, f64)>>,
}

impl SinkTx {
    /// Queues one write. A closed channel means the sink panicked; the
    /// join in [`Sink::run`] re-raises that panic, so nothing is lost by
    /// dropping the message here.
    pub fn send(&self, fold: Fold) {
        let _ = self.tx.send(fold);
    }

    /// An empty buffer for a shard's next epoch of samples: one the sink
    /// has emptied, or a new one while the first epochs are in flight.
    pub fn spare(&self) -> Vec<(f64, f64)> {
        self.spares.try_recv().unwrap_or_default()
    }
}

impl Sink {
    /// A sink for one run of `samples` server-epochs: the sample sets
    /// reserved once, the windows (if any) with an empty open window.
    pub fn new(samples: usize, mut windows: Option<EpochWindows>) -> Self {
        let (mut cpu, mut mem) = (Samples::new(), Samples::new());
        cpu.reserve(samples);
        mem.reserve(samples);
        if let Some(w) = &mut windows {
            w.begin_run();
        }
        Sink { cpu, mem, windows }
    }

    /// Runs `body` on the calling thread while a scoped consumer thread
    /// applies every [`Fold`] it sends, in order; returns `body`'s result
    /// and the sink once the consumer has applied the last message.
    /// `shards` sizes the channel ([`BACKLOG_EPOCHS`] epochs' messages).
    /// A panic on the consumer is re-raised here.
    pub fn run<R>(mut self, shards: usize, body: impl FnOnce(&SinkTx) -> R) -> (R, Sink) {
        let backlog = BACKLOG_EPOCHS * (2 * shards + 2);
        let (tx, rx) = sync_channel(backlog);
        let (spare_tx, spares) = sync_channel(backlog);
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                for fold in rx {
                    self.apply(fold, &spare_tx);
                }
                self
            });
            // `body`'s `SinkTx` is dropped when it returns, which ends
            // the consumer's loop once the channel is drained.
            let out = body(&SinkTx { tx, spares });
            match consumer.join() {
                Ok(sink) => (out, sink),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    }

    /// Applies one write; an emptied `Utils` buffer goes back on
    /// `spares`, or is dropped when that lane is full (the loop may be
    /// waiting on the sink, so the sink never waits on the loop).
    fn apply(&mut self, fold: Fold, spares: &SyncSender<Vec<(f64, f64)>>) {
        match fold {
            Fold::Utils(mut utils) => {
                for &(cpu, mem) in &utils {
                    self.cpu.record(cpu);
                    self.mem.record(mem);
                    if let Some(w) = &mut self.windows {
                        w.record_util(cpu, mem);
                    }
                }
                utils.clear();
                let _ = spares.try_send(utils);
            }
            Fold::Effects(effects) => {
                if let Some(w) = &mut self.windows {
                    w.effects.extend(effects);
                }
            }
            Fold::Grants(outcome) => {
                if let Some(w) = &mut self.windows {
                    w.note_grants(&outcome);
                }
            }
            Fold::Close {
                start,
                end,
                migrations,
                flash,
            } => {
                if let Some(w) = &mut self.windows {
                    w.close(start, end, migrations, flash);
                }
            }
        }
    }
}

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
    fn begin_run(&mut self) {
        self.cpu.clear();
        self.mem.clear();
        self.completions.clear();
        self.effects.clear();
    }

    /// One server-epoch utilization sample.
    #[inline]
    fn record_util(&mut self, cpu: f64, mem: f64) {
        self.cpu.record(cpu);
        self.mem.record(mem);
    }

    /// One barrier grant outcome: grant/denial counts plus the
    /// completion time of every grant.
    fn note_grants(&mut self, outcome: &GrantOutcome) {
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
    fn close(&mut self, start: SimTime, end: SimTime, migrations: u64, flash: bool) {
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
