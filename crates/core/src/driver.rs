//! Connection driving: step injection, retry scheduling with seeded
//! exponential backoff, terminal accounting (complete / deny / lose),
//! and standalone probe packets.
//!
//! This is the layer *around* the BE/FE handlers: it turns [`ConnSpec`]
//! scripts into `Event::Arrive` packets, and the handlers call its
//! terminal accounting (`lose_packet`, `deny_conn`, `complete_step`).

use crate::cluster::Cluster;
use crate::conn::{ConnSpec, ConnStatus};
use crate::dispatch::{flow_hash, Event};
use crate::telemetry::{Ctr, Hist, Series};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Direction, Packet, ServerId};

/// Trace-id bit marking standalone probe packets: they traverse the full
/// data plane but never belong to a connection (and are not retried).
pub(crate) const PROBE_BIT: u64 = 1 << 63;
/// Probe packets with this bit traverse the full data plane but are not
/// recorded in the latency samples (bulk/background streams).
pub(crate) const SILENT_BIT: u64 = 1 << 62;

/// *Base* retransmission timeout for lost connection packets. Retry `k`
/// waits `RETRY_TIMEOUT · 2^k`, capped at [`RETRY_CAP`], with ±25% jitter
/// drawn from the seeded sim RNG, so a cluster-wide fault does not
/// re-synchronize every retransmission into one thundering herd.
pub const RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Upper bound on the backed-off retry delay (the exponential growth
/// saturates here).
pub const RETRY_CAP: SimDuration = SimDuration::from_secs(2);

/// The (un-jittered) delay before retry number `retries + 1`:
/// `base · 2^retries`, saturating at `cap`. The caller applies ±25%
/// jitter from the seeded sim RNG on top.
pub fn retry_backoff(base: SimDuration, cap: SimDuration, retries: u32) -> SimDuration {
    let factor = 1u64 << retries.min(31);
    SimDuration(base.0.saturating_mul(factor)).min(cap)
}

impl Cluster {
    /// Injects step `step_idx` of connection `conn_id`, unless the
    /// connection has moved past it or is terminal.
    pub(crate) fn inject_step(&mut self, conn_id: u64, step_idx: u8, now: SimTime) {
        let Some(conn) = self.conns.get(conn_id) else {
            return;
        };
        if conn.status != ConnStatus::InFlight || conn.pos != step_idx {
            return;
        }
        let spec = self.conns.spec(conn);
        self.send_step(conn_id, &spec, step_idx, now);
    }

    /// Injects step `step_idx` of `spec`, the connection `conn_id` whose
    /// next step the caller has checked it is.
    fn send_step(&mut self, conn_id: u64, spec: &ConnSpec, step_idx: u8, now: SimTime) {
        let script = spec.kind.script();
        let step = script[usize::from(step_idx)];
        let tuple = spec.step_tuple(step.dir);
        let payload = if step.has_payload { spec.payload } else { 0 };
        let trace = (conn_id << 4) | u64::from(step_idx);
        let mut pkt = match step.dir {
            Direction::Tx => {
                Packet::tx_data(trace, spec.vpc, spec.vnic, tuple, step.flags, payload)
            }
            Direction::Rx => {
                Packet::rx_data(trace, spec.vpc, spec.vnic, tuple, step.flags, payload)
            }
        };
        self.tel.series_add(Series::Total, now, 1.0);
        match step.dir {
            Direction::Tx => {
                // VM-originated: the kernel pays its share of the
                // connection's cycles to build and send the segment, then
                // the packet appears at the home vSwitch.
                let Some(vm) = self.vms.get_mut(&spec.vnic) else {
                    return self.lose_packet(trace, now);
                };
                let Some(sent) = vm.deliver_packet(now) else {
                    return self.lose_packet(trace, now);
                };
                let home = self.vnic_home[&spec.vnic];
                self.schedule_arrive(sent, home, pkt, sent);
            }
            Direction::Rx => {
                pkt.overlay_encap_src = spec.overlay_encap_src;
                // Peer-originated: resolve the vNIC's current location via
                // the (possibly stale) gateway-learned mapping.
                let addr = self.vnic_addr[&spec.vnic];
                let h = self.select_hash(&tuple, trace);
                let dst = self.gateway.select(addr, spec.peer_server, h, now);
                match dst {
                    Some(dst) => {
                        pkt.outer_src = Some(spec.peer_server);
                        pkt.outer_dst = Some(dst);
                        let lat = self.topo.latency(spec.peer_server, dst, pkt.wire_len());
                        self.schedule_arrive(now + lat, dst, pkt, now);
                    }
                    None => self.lose_packet(trace, now),
                }
            }
        }
    }

    pub(crate) fn advance_conn(&mut self, conn_id: u64, from_step: u8, now: SimTime) {
        let Some(conn) = self.conns.get_mut(conn_id) else {
            return;
        };
        if conn.status != ConnStatus::InFlight || conn.pos != from_step {
            return; // duplicate / stale completion
        }
        conn.pos += 1;
        conn.retries = 0;
        let conn = *conn;
        let spec = self.conns.spec(&conn);
        self.tel.inc(Ctr::PktOk);
        if usize::from(conn.pos) < spec.kind.script().len() {
            return self.send_step(conn_id, &spec, conn.pos, now);
        }
        self.conns.finish(conn_id, ConnStatus::Completed);
        self.tel.inc(Ctr::Completed);
        self.tel
            .observe_duration(Hist::ConnLatency, now.since(spec.start));
        self.tel.series_add(Series::Cps, now, 1.0);
        if let Some(vm) = self.vms.get_mut(&spec.vnic) {
            vm.conn_completed();
        }
    }

    pub(crate) fn retry_step(&mut self, conn_id: u64, step: u8, now: SimTime) {
        let Some(conn) = self.conns.get_mut(conn_id) else {
            return;
        };
        if conn.status != ConnStatus::InFlight || conn.pos != step {
            return;
        }
        // A full counter cannot count this retry: exhausted too.
        if conn.retries == u8::MAX || u32::from(conn.retries) >= self.cfg.max_retries {
            self.conns.finish(conn_id, ConnStatus::Failed);
            self.tel.inc(Ctr::Failed);
            return;
        }
        conn.retries += 1;
        let conn = *conn;
        let spec = self.conns.spec(&conn);
        self.send_step(conn_id, &spec, step, now);
    }

    /// Records a lost conn/probe packet and schedules the retry with
    /// exponential backoff (base [`RETRY_TIMEOUT`], doubling per retry up
    /// to [`RETRY_CAP`]) plus ±25% seeded jitter.
    pub(crate) fn lose_packet(&mut self, trace: u64, now: SimTime) {
        self.tel.series_add(Series::Loss, now, 1.0);
        self.tel.inc(Ctr::PktDropped);
        if self.faults.any_active() {
            self.tel.inc(Ctr::FaultInflightLoss);
        }
        if trace & PROBE_BIT != 0 || trace == 0 {
            return; // probes and notify packets (trace 0) are not retried
        }
        let conn = trace >> 4;
        let step = (trace & 0xf) as u8;
        let retries = self.conn(conn).map_or(0, |c| u32::from(c.retries));
        let base = retry_backoff(RETRY_TIMEOUT, RETRY_CAP, retries);
        let jitter = 0.75 + 0.5 * self.rng.f64();
        let delay = SimDuration::from_secs_f64(base.as_secs_f64() * jitter);
        self.engine
            .schedule_in(delay, Event::RetryStep { conn, step });
    }

    /// A policy drop: terminal for the connection, no retry.
    pub(crate) fn deny_conn(&mut self, trace: u64) {
        if trace & PROBE_BIT != 0 {
            return;
        }
        if self.conns.finish(trace >> 4, ConnStatus::Denied) {
            self.tel.inc(Ctr::Denied);
        }
    }

    /// A step's packet reached its terminal point.
    pub(crate) fn complete_step(&mut self, trace: u64, sent_at: SimTime, at: SimTime) {
        if trace & PROBE_BIT != 0 {
            if trace & SILENT_BIT == 0 {
                self.tel
                    .observe_duration(Hist::ProbeLatency, at.since(sent_at));
            }
            return;
        }
        let conn = trace >> 4;
        let from_step = (trace & 0xf) as u8;
        self.engine
            .schedule_at(at, Event::AdvanceConn { conn, from_step });
    }

    pub(crate) fn start_probe(&mut self, mut pkt: Packet, from: ServerId, now: SimTime) {
        let addr = self.vnic_addr[&pkt.vnic];
        match self.gateway.select(addr, from, flow_hash(&pkt.tuple), now) {
            Some(dst) => {
                pkt.outer_src = Some(from);
                pkt.outer_dst = Some(dst);
                let lat = self.topo.latency(from, dst, pkt.wire_len());
                self.schedule_arrive(now + lat, dst, pkt, now);
            }
            None => self.lose_packet(pkt.trace, now),
        }
    }
}
