//! Centralized FE crash monitoring and failover (§4.4, Appendix C).
//!
//! A centralized module ping-polls every vSwitch hosting FEs (via a
//! flow-direct rule to the vSwitch's VF in the real system — here the
//! probe outcome is the server's crash state in the fault record at tick
//! time, which models an un-answered ping). After [`PING_MISSES`]
//! consecutive silent periods the vSwitch is declared crashed and every
//! FE it hosted is removed by `Cluster::replace_fe`, which keeps the pool
//! at the ≥4-FE floor by adding replacements.
//!
//! Appendix C's production lesson is implemented too: when a majority of
//! monitored FE hosts appear dead *simultaneously*, the monitor suspends
//! automatic removal (such widespread failure is overwhelmingly a
//! monitoring bug, not a real outage) and counts a suspension for manual
//! inspection.

use crate::cluster::{Cluster, Event};
use crate::controller::{PING_MISSES, PING_PERIOD};
use crate::telemetry::{Ctr, Hist};
use nezha_sim::time::SimTime;
use nezha_types::{ServerId, VnicId};
use std::collections::BTreeMap;

/// Monitor bookkeeping.
#[derive(Debug, Default)]
pub struct MonitorState {
    missed: BTreeMap<ServerId, u32>,
    /// Consecutive failed BE↔FE mutual pings per (BE, FE) pair
    /// (Appendix C.1).
    mutual_missed: BTreeMap<(ServerId, ServerId), u32>,
    /// True while automatic removal is suspended (Appendix C.2).
    pub suspended: bool,
    /// Crash instants not yet detected by the monitor, for the
    /// crash-to-failover detection-latency metric.
    pub(crate) crash_pending: BTreeMap<ServerId, SimTime>,
}

impl MonitorState {
    /// Fresh state.
    pub fn new() -> Self {
        MonitorState::default()
    }
}

impl Cluster {
    /// One ping-polling round (runs every [`PING_PERIOD`]).
    pub(crate) fn monitor_tick(&mut self, now: SimTime) {
        self.engine.schedule_in(PING_PERIOD, Event::MonitorTick);
        // A controller outage silences the health monitor with it: ticks
        // keep rescheduling but no observation or removal happens, so
        // detection latency grows by the outage length.
        if self.faults.controller_down() {
            return;
        }

        // Only vSwitches hosting FEs are monitored — "since there are only
        // a few VMs requiring offloading, the monitoring targets are
        // limited, keeping detection overhead low" (§4.4).
        let mut targets: Vec<ServerId> = self.fes.keys().map(|(s, _)| *s).collect();
        targets.sort_unstable_by_key(|s| s.0);
        targets.dedup();
        if targets.is_empty() {
            self.monitor.missed.clear();
            return;
        }

        let mut newly_dead: Vec<ServerId> = Vec::new();
        let mut apparently_dead = 0usize;
        for &s in &targets {
            if !self.faults.is_crashed(s) {
                self.monitor.missed.insert(s, 0);
            } else {
                let m = self.monitor.missed.entry(s).or_insert(0);
                *m += 1;
                apparently_dead += 1;
                // `>=`, not `==`: a server whose threshold crossing was
                // swallowed by a suspension window must still be failed
                // over once the suspension lifts. (Duplicate failovers are
                // harmless — the first removal empties the victim list.)
                if *m >= PING_MISSES {
                    newly_dead.push(s);
                }
            }
        }

        // Appendix C.2: widespread "failure" smells like a monitor bug.
        if targets.len() >= 4 && apparently_dead * 2 > targets.len() {
            if !self.monitor.suspended {
                self.monitor.suspended = true;
                self.tel.inc(Ctr::MonitorSuspensions);
            }
            return;
        }
        self.monitor.suspended = false;

        for dead in newly_dead {
            self.failover_server(dead, now);
        }

        // BE↔FE mutual ping (Appendix C.1): detects link faults between a
        // healthy BE and a healthy FE that the centralized monitor cannot
        // see. Runs at the same cadence here; production uses a lower
        // frequency because total partitions between servers are rare.
        let mut pairs: Vec<(VnicId, ServerId, ServerId)> = self
            .be_meta
            .iter()
            .flat_map(|(v, m)| {
                let be = self.vnic_home[v];
                m.ready_fes()
                    .iter()
                    .map(move |fe| (*v, be, *fe))
                    .collect::<Vec<_>>()
            })
            .collect();
        pairs.sort_unstable_by_key(|(v, _, fe)| (v.0, fe.0));
        for (vnic, be, fe) in pairs {
            let fe_up = !self.faults.is_crashed(fe);
            let reachable =
                fe_up && !self.faults.is_crashed(be) && !self.faults.partitioned(be, fe);
            if reachable {
                self.monitor.mutual_missed.insert((be, fe), 0);
            } else if fe_up {
                // The FE answers the central monitor but not this BE: a
                // link fault. After the miss threshold, remove the FE from
                // *this* BE's pool only.
                let miss = self.monitor.mutual_missed.entry((be, fe)).or_insert(0);
                *miss += 1;
                if *miss >= PING_MISSES {
                    self.replace_fe(vnic, fe);
                    self.tel.inc(Ctr::FailoverEvents);
                }
            }
        }
    }

    /// True while automatic removal is suspended (Appendix C.2).
    pub fn monitor_suspended(&self) -> bool {
        self.monitor.suspended
    }

    /// Removes every FE on a crashed server and restores the ≥`min_fes`
    /// floor (§4.4 failover).
    pub(crate) fn failover_server(&mut self, dead: ServerId, now: SimTime) {
        if !self.replace_fes_on(dead) {
            return;
        }
        if let Some(crashed_at) = self.monitor.crash_pending.remove(&dead) {
            self.tel
                .observe_duration(Hist::DetectionLatency, now.since(crashed_at));
        }
        self.tel.inc(Ctr::FailoverEvents);
    }
}
