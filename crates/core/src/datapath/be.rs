//! Stateful backend (BE) handlers: TX origination + NSH encap, RX-carry
//! consumption, notify absorption, and direct-RX bouncing, plus the
//! graceful-degradation fallback (§3.2.1/§3.2.2, Appendix C.2).

use crate::be::OffloadPhase;
use crate::cluster::Cluster;
use crate::config::ConfigOp;
use crate::controller::GATEWAY_UPDATE_DELAY;
use crate::datapath::ctx::HandlerCtx;
use crate::datapath::dispatch::{flow_hash, process_locally, Event};
use crate::gateway::LEARNING_INTERVAL;
use crate::telemetry::Ctr;
use nezha_sim::profile::Stage;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::trace::TraceEventKind;
use nezha_types::{
    Direction, NezhaHeader, NezhaPayloadKind, Packet, SessionKey, SessionState, VnicId,
};
use nezha_vswitch::{SessionEntry, VSwitch};

/// Does this vNIC currently steer TX traffic through FEs?
pub(crate) fn nezha_active_for_tx(cl: &Cluster, vnic: VnicId) -> bool {
    cl.be_meta.get(&vnic).is_some_and(|m| {
        matches!(m.phase, OffloadPhase::OffloadDual | OffloadPhase::Offloaded)
            && !m.ready_fes().is_empty()
    })
}

/// The graceful-degradation trigger: an offloaded vNIC whose entire
/// FE pool is dead. The BE's rule tables are gone and every packet
/// hashed to an FE would be lost until the monitor rebuilds the pool
/// — which it will not do while suspended (Appendix C.2).
pub(crate) fn fe_pool_collapsed(cl: &Cluster, vnic: VnicId) -> bool {
    cl.be_meta.get(&vnic).is_some_and(|m| {
        m.phase == OffloadPhase::Offloaded
            && !m.ready_fes().iter().any(|fe| cl.alive[fe.0 as usize])
    })
}

/// Emergency fallback from the data plane when the FE pool collapses:
/// re-arm the BE with the master tables and schedule the normal
/// fallback teardown. Unlike `Cluster::trigger_fallback` this runs
/// mid-packet and tolerates the dead pool. Returns false when the
/// home vSwitch cannot fit the tables (packets stay lost until the
/// management plane recovers).
pub(crate) fn degrade_to_local(ctx: &mut HandlerCtx<'_>, vnic: VnicId) -> bool {
    let now = ctx.now;
    let cl = &mut *ctx.cl;
    let Some(home) = cl.vnic_home.get(&vnic).copied() else {
        return false;
    };
    let Some(master) = cl.master_vnics.get(&vnic).cloned() else {
        return false;
    };
    if cl.switches[home.0 as usize].vnic(vnic).is_none()
        && cl.switches[home.0 as usize].add_vnic(master).is_err()
    {
        return false;
    }
    let Some(meta) = cl.be_meta.get_mut(&vnic) else {
        return false;
    };
    meta.phase = OffloadPhase::FallbackDual;
    ctx.cl.tel.inc(Ctr::DegradedEvents);
    let cl = &mut *ctx.cl;
    let addr = cl.vnic_addr[&vnic];
    let gw_at = now + GATEWAY_UPDATE_DELAY;
    cl.engine.schedule_at(
        gw_at,
        Event::config(ConfigOp::GatewayUpdate {
            addr,
            // Allocates: degradation to the local vSwitch is a rare
            // fault-recovery event, not per-packet work.
            servers: vec![home],
        }),
    );
    cl.engine.schedule_at(
        gw_at + LEARNING_INTERVAL + SimDuration::from_millis(50),
        Event::config(ConfigOp::FallbackFinal { vnic }),
    );
    true
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

/// TX packet from the local VM at its home (BE) vSwitch.
pub(crate) fn be_handle_tx(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    if fe_pool_collapsed(ctx.cl, pkt.vnic) {
        degrade_to_local(ctx, pkt.vnic);
    }
    if !nezha_active_for_tx(ctx.cl, pkt.vnic) {
        return process_locally(ctx, pkt, sent_at);
    }
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let costs = vs.config().costs;
    let slot = vs.sessions.slot(&key);
    let cycles = match slot {
        None => costs.be_first_packet,
        Some(_) => costs.be_per_packet,
    };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    let charged = charge.scaled;
    ctx.note_local_cycles(cycles);
    // State handling: create (state-only) or update, locally.
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, pkt.vnic, pkt.vpc);
    match session_state(vs, slot, key, &pkt, now) {
        Some(entry) => {
            entry.state.update(None, &pkt);
            entry.last_seen = now;
            nsh.carry_state(&entry.state);
        }
        None => {
            vs.note_session_overflow();
            nsh.carry_state(&SessionState::first_packet(Direction::Tx));
        }
    }
    // Select the FE by flow hash and ship the packet with its state.
    // `nezha_active_for_tx` above implies the meta exists; degrade to a
    // loss (never a panic) if that invariant is ever broken.
    let Some(meta) = ctx.cl.be_meta.get(&pkt.vnic) else {
        return ctx.lose(pkt.trace);
    };
    let h = ctx.cl.select_hash(&pkt.tuple, pkt.trace);
    let Some(fe) = meta.select_fe(&key, h) else {
        return ctx.lose(pkt.trace);
    };
    let mut out = pkt.with_nezha(nsh);
    out.outer_src = Some(server);
    out.outer_dst = Some(fe);
    // Span tree: the BE charge is pure session work (the cost model
    // does not split it further); the zero-cycle encap marker is the
    // causal parent the FE's span will hang off across the hop.
    let leaves = [(Stage::SessionUpdate, charged)];
    if let Some(root) = ctx.span(Stage::BeTx, &pkt, now, done, &leaves) {
        let encap = ctx.span_marker(Stage::NshEncap, root, &pkt, done..done, 0);
        if let Some(encap) = encap {
            out.prof_span = encap.to_raw();
        }
    }
    ctx.trace(done, &out, TraceEventKind::NshEncap);
    let lat = ctx.cl.topo.latency(server, fe, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, fe, out, sent_at);
}

/// RX-carried packet arriving at the BE: update local state with the
/// piggybacked pre-actions and deliver to the VM.
pub(crate) fn be_handle_rx_carry(
    ctx: &mut HandlerCtx<'_>,
    nsh: NezhaHeader,
    pkt: Packet,
    sent_at: SimTime,
) {
    let (server, now) = (ctx.server, ctx.now);
    if ctx.cl.vnic_home.get(&pkt.vnic) != Some(&server) {
        return ctx.misroute(&pkt);
    }
    let Some(pair) = nsh.pre_actions else {
        return ctx.misroute(&pkt);
    };
    ctx.trace(now, &pkt, TraceEventKind::NshDecap);
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let costs = vs.config().costs;
    let slot = vs.sessions.slot(&key);
    let cycles = match slot {
        None => costs.be_first_packet,
        Some(_) => costs.be_per_packet,
    };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    // The BE charge is again pure session work; the zero-cycle decap
    // marker documents the hop in the tree (flamegraphs skip it).
    let leaves = [(Stage::SessionUpdate, charge.scaled)];
    if let Some(root) = ctx.span(Stage::BeRxCarry, &pkt, now, done, &leaves) {
        ctx.span_marker(Stage::NshDecap, root, &pkt, now..now, 0);
    }
    ctx.note_local_cycles(cycles);

    // Restore the info the FE carried for state initialization.
    let mut inner = pkt.strip_nezha();
    inner.overlay_encap_src = nsh.decap_addr;
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let action = match session_state(vs, slot, key, &pkt, now) {
        Some(entry) => {
            entry.last_seen = now;
            // Adopt rule-table-involved state piggybacked in the header
            // without verification (§3.2.2 RX workflow).
            if let Some(p) = nsh.stats_policy {
                entry.state.stats.policy = p;
            }
            entry.state.process_pkt(&pair.rx, &inner)
        }
        None => {
            vs.note_session_overflow();
            SessionState::default().process_pkt(&pair.rx, &inner)
        }
    };
    if action.verdict == nezha_types::Decision::Drop {
        return ctx.deny(pkt.trace);
    }
    ctx.count_mirrors(&action);
    crate::datapath::dispatch::deliver_to_vm(ctx, pkt.vnic, pkt.trace, sent_at, done);
}

/// Standalone notify packet at the BE (§3.2.2 TX workflow).
pub(crate) fn be_handle_notify(ctx: &mut HandlerCtx<'_>, nsh: NezhaHeader, pkt: Packet) {
    let (server, now) = (ctx.server, ctx.now);
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let cycles = ctx.cl.switches[server.0 as usize]
        .config()
        .costs
        .be_per_packet;
    // A lost notify is retried implicitly on the next miss.
    let Some(charge) = ctx.charge_silent(&pkt, cycles) else {
        return;
    };
    // The notify chains off the FE span that emitted it, closing the
    // BE → FE → BE causal loop for the packet that missed.
    let leaves = [(Stage::Notify, charge.scaled)];
    ctx.span(Stage::BeNotify, &pkt, now, charge.done, &leaves);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    if let Some(entry) = vs.sessions.get_mut(&key) {
        if let Some(p) = nsh.stats_policy {
            entry.state.stats.policy = p;
        }
    }
}

/// RX packet arriving directly at the BE (sender's mapping is stale or
/// the vNIC is simply not offloaded).
pub(crate) fn be_handle_direct_rx(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    // Graceful degradation: with every FE dead, bouncing is futile —
    // fall back to local processing if the tables fit.
    if fe_pool_collapsed(ctx.cl, pkt.vnic) && degrade_to_local(ctx, pkt.vnic) {
        return process_locally(ctx, pkt, sent_at);
    }
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let fe = match ctx.cl.be_meta.get(&pkt.vnic) {
        Some(meta) if meta.phase == OffloadPhase::Offloaded => {
            meta.select_fe(&key, flow_hash(&pkt.tuple))
        }
        // Local / dual-running: the BE still has rules and flows.
        _ => return process_locally(ctx, pkt, sent_at),
    };
    // Final stage: tables are gone. Bounce to an FE (costs a parse).
    ctx.cl.tel.inc(Ctr::StaleBounces);
    let Some(fe) = fe else {
        return ctx.lose(pkt.trace);
    };
    let cycles = ctx.cl.switches[server.0 as usize].config().costs.parse;
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    let mut out = pkt;
    // A stale bounce costs one parse; the FE visit it triggers hangs
    // off this root via `prof_span`.
    let leaves = [(Stage::Parse, charge.scaled)];
    if let Some(root) = ctx.span(Stage::BeDirectRx, &out, now, done, &leaves) {
        out.prof_span = root.to_raw();
    }
    out.outer_src = Some(server);
    out.outer_dst = Some(fe);
    let lat = ctx.cl.topo.latency(server, fe, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, fe, out, sent_at);
}
