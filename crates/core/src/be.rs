//! The vNIC **backend** (BE): the single local copy of session state.
//!
//! [`BackendMeta`] is the per-offloaded-vNIC bookkeeping the BE's vSwitch
//! keeps: the offload phase, the FE location config (Fig. 7), and which
//! FEs are ready. It costs the 2 KB "BE data" of §6.2.1 — the entire
//! local footprint that replaces the vNIC's multi-megabyte rule tables.
//! The BE's per-packet handlers (TX origination, RX-carry consumption,
//! notify absorption, stale-RX bouncing, graceful degradation) are the
//! `Cluster` methods below it.

use crate::cluster::Cluster;
use crate::dispatch::{flow_hash, Charge};
use crate::telemetry::Ctr;
use nezha_sim::profile::Stage;
use nezha_sim::time::SimTime;
use nezha_sim::trace::TraceEventKind;
use nezha_types::{
    Direction, NezhaHeader, NezhaPayloadKind, Packet, ServerId, SessionKey, SessionState, VnicId,
};
use nezha_vswitch::{SessionEntry, VSwitch};

/// Phase of a vNIC's offload lifecycle (§4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OffloadPhase {
    /// Not offloaded; traditional local processing.
    Local,
    /// Offload triggered: FEs being configured, peers learning the new
    /// mapping; BE still holds rules/flows and processes stale arrivals
    /// (the dual-running stage).
    OffloadDual,
    /// Final stage: BE holds state only; all traffic flows through FEs.
    Offloaded,
    /// Fallback triggered: BE re-armed with rules; peers relearning the
    /// BE address; FEs still process stale arrivals.
    FallbackDual,
}

/// Per-offloaded-vNIC bookkeeping at the BE.
#[derive(Clone, Debug)]
pub struct BackendMeta {
    /// Current lifecycle phase.
    pub phase: OffloadPhase,
    /// FE location config: the ordered FE list (order defines the flow-
    /// hash mapping). Includes FEs still being configured.
    pub fe_list: Vec<ServerId>,
    /// FEs whose rule tables have finished configuring and can serve.
    ready: Vec<ServerId>,
    /// When the offload was triggered (for completion-time measurement).
    pub triggered_at: SimTime,
    /// When all traffic started flowing through FEs (completion instant,
    /// the Table 4 quantity).
    pub activated_at: Option<SimTime>,
}

impl BackendMeta {
    /// Fresh metadata for an offload triggered at `now`.
    pub fn new(now: SimTime) -> Self {
        BackendMeta {
            phase: OffloadPhase::OffloadDual,
            fe_list: Vec::new(),
            ready: Vec::new(),
            triggered_at: now,
            activated_at: None,
        }
    }

    /// Adds an FE to the location config (not yet ready).
    pub fn add_fe(&mut self, fe: ServerId) {
        if !self.fe_list.contains(&fe) {
            self.fe_list.push(fe);
        }
    }

    /// Marks an FE's configuration complete.
    pub fn mark_ready(&mut self, fe: ServerId) {
        if self.fe_list.contains(&fe) && !self.ready.contains(&fe) {
            self.ready.push(fe);
        }
    }

    /// Removes an FE (scale-in or failover). Returns true if it was
    /// present.
    pub fn remove_fe(&mut self, fe: ServerId) -> bool {
        let had = self.fe_list.contains(&fe);
        self.fe_list.retain(|&s| s != fe);
        self.ready.retain(|&s| s != fe);
        had
    }

    /// The FEs currently able to serve traffic.
    pub fn ready_fes(&self) -> &[ServerId] {
        &self.ready
    }

    /// True once every configured FE is ready.
    pub fn all_ready(&self) -> bool {
        !self.fe_list.is_empty() && self.ready.len() == self.fe_list.len()
    }

    /// Selects the FE for a flow: `Hash(5-tuple) mod #ready` over the
    /// ready members, in the order they became ready (§3.2.3).
    pub fn select_fe(&self, flow_hash: u64) -> Option<ServerId> {
        if self.ready.is_empty() {
            return None;
        }
        Some(self.ready[(flow_hash % self.ready.len() as u64) as usize])
    }
}

/// The BE's session for `pkt`'s flow: the entry in `slot`, the one probe
/// of the packet (taken before the charge, which does not touch the
/// table), else a new state-only one. `None` when state memory is
/// exhausted: the caller counts the overflow and processes the flow
/// against scratch state, so its stateful guarantees degrade.
fn session_state<'v>(
    vs: &'v mut VSwitch,
    slot: Option<usize>,
    key: SessionKey,
    pkt: &Packet,
    now: SimTime,
) -> Option<&'v mut SessionEntry> {
    let Some(slot) = slot else {
        let memory = vs.config().memory;
        return vs
            .sessions
            .establish(key, pkt.vnic, pkt.dir, None, now, &mut vs.mem, &memory)
            .ok();
    };
    Some(vs.sessions.at_mut(slot))
}

/// The stateful BE handlers: TX origination + NSH encap, RX-carry
/// consumption, notify absorption, and direct-RX bouncing, plus the
/// graceful-degradation fallback (§3.2.1/§3.2.2, Appendix C.2).
impl Cluster {
    /// Does this vNIC currently steer TX traffic through FEs?
    fn nezha_active_for_tx(&self, vnic: VnicId) -> bool {
        self.be_meta.get(&vnic).is_some_and(|m| {
            matches!(m.phase, OffloadPhase::OffloadDual | OffloadPhase::Offloaded)
                && !m.ready_fes().is_empty()
        })
    }

    /// Graceful degradation (Appendix C.2): when `vnic` is offloaded and
    /// its entire FE pool is dead, the BE's rule tables are gone and
    /// every packet hashed to an FE would be lost until the monitor
    /// rebuilds the pool — which it will not do while suspended. So the
    /// data plane starts the fallback itself, mid-packet. Returns true
    /// when it did; false when the pool is alive or the home vSwitch
    /// cannot fit the tables (packets stay lost until the management
    /// plane recovers).
    fn degrade_if_collapsed(&mut self, vnic: VnicId, now: SimTime) -> bool {
        let collapsed = self.be_meta.get(&vnic).is_some_and(|m| {
            m.phase == OffloadPhase::Offloaded
                && m.ready_fes().iter().all(|fe| self.faults.is_crashed(*fe))
        });
        if !collapsed || self.begin_fallback(vnic, now).is_err() {
            return false;
        }
        self.tel.inc(Ctr::DegradedEvents);
        true
    }

    /// TX packet from the local VM at its home (BE) vSwitch.
    pub(crate) fn be_handle_tx(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        self.degrade_if_collapsed(pkt.vnic, now);
        if !self.nezha_active_for_tx(pkt.vnic) {
            return self.process_locally(server, now, pkt, sent_at);
        }
        let key = SessionKey::of(pkt.vpc, pkt.tuple);
        let vs = &self.switches[server.0 as usize];
        let costs = vs.config().costs;
        let slot = vs.sessions.slot(&key);
        let cycles = match slot {
            None => costs.be_first_packet,
            Some(_) => costs.be_per_packet,
        };
        let Some(charge) = self.charge(server, now, &pkt, cycles) else {
            return;
        };
        let done = charge.done;
        self.controller.note_local_cycles(server, cycles);
        // State handling: create (state-only) or update, locally.
        let vs = &mut self.switches[server.0 as usize];
        let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, pkt.vnic, pkt.vpc);
        match session_state(vs, slot, key, &pkt, now) {
            Some(entry) => {
                entry.state.update(None, &pkt);
                entry.last_seen = now;
                nsh.carry_state(&entry.state);
                if entry.state.stats_policy != 0 {
                    vs.sessions
                        .record_stats(key, pkt.dir, pkt.wire_len() as u64);
                }
            }
            None => {
                vs.note_session_overflow();
                nsh.carry_state(&SessionState::first_packet(Direction::Tx));
            }
        }
        // Select the FE by flow hash and ship the packet with its state.
        // `nezha_active_for_tx` above implies the meta exists; degrade to a
        // loss (never a panic) if that invariant is ever broken.
        let Some(meta) = self.be_meta.get(&pkt.vnic) else {
            return self.lose_packet(pkt.trace, now);
        };
        let h = self.select_hash(&pkt.tuple, pkt.trace);
        let Some(fe) = meta.select_fe(h) else {
            return self.lose_packet(pkt.trace, now);
        };
        let mut out = pkt.with_nezha(nsh);
        out.outer_src = Some(server);
        out.outer_dst = Some(fe);
        // Span tree: the BE charge is pure session work (the cost model
        // does not split it further); the zero-cycle encap marker is the
        // causal parent the FE's span will hang off across the hop.
        let tel = &self.tel.shared;
        let leaves = [(Stage::SessionUpdate, charge.scaled)];
        if let Some(root) = tel.span_tree(Stage::BeTx, &pkt, server, now, done, &leaves) {
            let encap = tel.span_marker(Stage::NshEncap, root, &pkt, server, done..done, 0);
            if let Some(encap) = encap {
                out.prof_span = encap.to_raw();
            }
        }
        tel.trace_pkt(done, server, &out, TraceEventKind::NshEncap);
        let lat = self.topo.latency(server, fe, out.wire_len());
        self.schedule_arrive(done + lat, fe, out, sent_at);
    }

    /// RX-carried packet arriving at the BE: update local state with the
    /// piggybacked pre-actions and deliver to the VM.
    pub(crate) fn be_handle_rx_carry(
        &mut self,
        server: ServerId,
        now: SimTime,
        nsh: NezhaHeader,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        if self.vnic_home.get(&pkt.vnic) != Some(&server) {
            return self.misroute(pkt.trace, now);
        }
        let Some(pair) = nsh.pre_actions else {
            return self.misroute(pkt.trace, now);
        };
        self.tel
            .shared
            .trace_pkt(now, server, &pkt, TraceEventKind::NshDecap);
        let key = SessionKey::of(pkt.vpc, pkt.tuple);
        let vs = &self.switches[server.0 as usize];
        let costs = vs.config().costs;
        let slot = vs.sessions.slot(&key);
        let cycles = match slot {
            None => costs.be_first_packet,
            Some(_) => costs.be_per_packet,
        };
        let Some(charge) = self.charge(server, now, &pkt, cycles) else {
            return;
        };
        let done = charge.done;
        // The BE charge is again pure session work; the zero-cycle decap
        // marker documents the hop in the tree (flamegraphs skip it).
        let tel = &self.tel.shared;
        let leaves = [(Stage::SessionUpdate, charge.scaled)];
        if let Some(root) = tel.span_tree(Stage::BeRxCarry, &pkt, server, now, done, &leaves) {
            tel.span_marker(Stage::NshDecap, root, &pkt, server, now..now, 0);
        }
        self.controller.note_local_cycles(server, cycles);

        // Restore the info the FE carried for state initialization.
        let mut inner = pkt.strip_nezha();
        inner.overlay_encap_src = nsh.decap_addr;
        let vs = &mut self.switches[server.0 as usize];
        let action = match session_state(vs, slot, key, &pkt, now) {
            Some(entry) => {
                entry.last_seen = now;
                // Adopt rule-table-involved state piggybacked in the header
                // without verification (§3.2.2 RX workflow).
                if let Some(p) = nsh.stats_policy {
                    entry.state.stats_policy = p;
                }
                let action = entry.state.process_pkt(&pair.rx, &inner);
                if entry.state.stats_policy != 0 {
                    vs.sessions
                        .record_stats(key, inner.dir, inner.wire_len() as u64);
                }
                action
            }
            None => {
                vs.note_session_overflow();
                SessionState::default().process_pkt(&pair.rx, &inner)
            }
        };
        if action.verdict == nezha_types::Decision::Drop {
            return self.deny_conn(pkt.trace);
        }
        self.count_mirrors(&action);
        self.deliver_to_vm(now, pkt.vnic, pkt.trace, sent_at, done);
    }

    /// Standalone notify packet at the BE (§3.2.2 TX workflow).
    pub(crate) fn be_handle_notify(
        &mut self,
        server: ServerId,
        now: SimTime,
        nsh: NezhaHeader,
        pkt: Packet,
    ) {
        let key = SessionKey::of(pkt.vpc, pkt.tuple);
        let vs = &mut self.switches[server.0 as usize];
        let cycles = vs.config().costs.be_per_packet;
        // A lost notify is retried implicitly on the next miss.
        let Some(charge) = Charge::on(vs, now, &pkt, cycles) else {
            return;
        };
        // The notify chains off the FE span that emitted it, closing the
        // BE → FE → BE causal loop for the packet that missed.
        let leaves = [(Stage::Notify, charge.scaled)];
        self.tel
            .shared
            .span_tree(Stage::BeNotify, &pkt, server, now, charge.done, &leaves);
        if let Some(entry) = vs.sessions.get_mut(&key) {
            if let Some(p) = nsh.stats_policy {
                entry.state.stats_policy = p;
            }
        }
    }

    /// RX packet arriving directly at the BE (sender's mapping is stale or
    /// the vNIC is simply not offloaded).
    pub(crate) fn be_handle_direct_rx(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        // Graceful degradation: with every FE dead, bouncing is futile —
        // fall back to local processing if the tables fit.
        if self.degrade_if_collapsed(pkt.vnic, now) {
            return self.process_locally(server, now, pkt, sent_at);
        }
        let fe = match self.be_meta.get(&pkt.vnic) {
            Some(meta) if meta.phase == OffloadPhase::Offloaded => {
                meta.select_fe(flow_hash(&pkt.tuple))
            }
            // Local / dual-running: the BE still has rules and flows.
            _ => return self.process_locally(server, now, pkt, sent_at),
        };
        // Final stage: tables are gone. Bounce to an FE (costs a parse).
        self.tel.inc(Ctr::StaleBounces);
        let Some(fe) = fe else {
            return self.lose_packet(pkt.trace, now);
        };
        let cycles = self.switches[server.0 as usize].config().costs.parse;
        let Some(charge) = self.charge(server, now, &pkt, cycles) else {
            return;
        };
        let done = charge.done;
        let mut out = pkt;
        // A stale bounce costs one parse; the FE visit it triggers hangs
        // off this root via `prof_span`.
        let leaves = [(Stage::Parse, charge.scaled)];
        let tel = &self.tel.shared;
        if let Some(root) = tel.span_tree(Stage::BeDirectRx, &out, server, now, done, &leaves) {
            out.prof_span = root.to_raw();
        }
        out.outer_src = Some(server);
        out.outer_dst = Some(fe);
        let lat = self.topo.latency(server, fe, out.wire_len());
        self.schedule_arrive(done + lat, fe, out, sent_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_ready_tracking() {
        let mut be = BackendMeta::new(SimTime(0));
        assert_eq!(be.phase, OffloadPhase::OffloadDual);
        be.add_fe(ServerId(1));
        be.add_fe(ServerId(2));
        be.add_fe(ServerId(2)); // idempotent
        assert_eq!(be.fe_list.len(), 2);
        assert!(!be.all_ready());
        assert_eq!(be.select_fe(0), None, "nothing ready yet");
        be.mark_ready(ServerId(1));
        be.mark_ready(ServerId(1)); // idempotent
        assert_eq!(be.ready_fes(), &[ServerId(1)]);
        be.mark_ready(ServerId(2));
        assert!(be.all_ready());
    }

    #[test]
    fn mark_ready_requires_membership() {
        let mut be = BackendMeta::new(SimTime(0));
        be.add_fe(ServerId(1));
        be.mark_ready(ServerId(9)); // never added
        assert!(be.ready_fes().is_empty());
    }

    #[test]
    fn select_is_stable_hash_mod() {
        let mut be = BackendMeta::new(SimTime(0));
        for s in [1, 2, 3, 4] {
            be.add_fe(ServerId(s));
            be.mark_ready(ServerId(s));
        }
        assert_eq!(be.select_fe(5), Some(ServerId(2)));
        assert_eq!(be.select_fe(5), Some(ServerId(2)));
        assert_eq!(be.select_fe(7), Some(ServerId(4)));
    }

    #[test]
    fn remove_fe_updates_everything() {
        let mut be = BackendMeta::new(SimTime(0));
        for s in [1, 2, 3, 4] {
            be.add_fe(ServerId(s));
            be.mark_ready(ServerId(s));
        }
        assert!(be.remove_fe(ServerId(3)));
        assert!(!be.remove_fe(ServerId(3)));
        assert_eq!(be.fe_list.len(), 3);
        assert_eq!(be.ready_fes().len(), 3);
        // Re-added, it becomes ready last and takes the last hash slot.
        be.add_fe(ServerId(3));
        be.mark_ready(ServerId(3));
        assert_eq!(
            be.ready_fes(),
            &[ServerId(1), ServerId(2), ServerId(4), ServerId(3)]
        );
        for h in 0..8 {
            let hashed = be.ready_fes()[(h % 4) as usize];
            assert_eq!(be.select_fe(h), Some(hashed));
        }
    }
}
