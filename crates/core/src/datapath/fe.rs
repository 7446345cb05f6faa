//! Stateless frontend (FE) handlers: TX-carry finalization, RX
//! pre-action lookup + piggybacking, and notify emission (§3.2.1/§3.2.2).

use crate::datapath::ctx::HandlerCtx;
use crate::datapath::dispatch::forward_to_peer;
use crate::telemetry::Ctr;
use nezha_sim::profile::{SpanId, Stage};
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{Direction, NezhaHeader, NezhaPayloadKind, Packet, PreActionPair, ServerId};
use nezha_vswitch::stage::costing;
use nezha_vswitch::PathTaken;

/// Proof that `server` was a configured FE for a packet's vNIC at demux
/// time, carrying the facts the RX handler needs (satellite of the
/// membership-assumption fix: `fe_handle_rx` no longer trusts an
/// unstated "caller checked membership" comment — it receives the claim
/// as a value, and degrades to a counted misroute if the entry vanished).
pub(crate) struct FeBinding {
    /// Where this vNIC's stateful BE lives (captured from the entry).
    pub(crate) be: ServerId,
}

impl FeBinding {
    /// Claims FE membership for a plain packet: only RX traffic is ever
    /// FE-bound, and the `(server, vnic)` pair must have a configured
    /// frontend. Returns `None` — the demux counts a misroute — otherwise.
    pub(crate) fn claim(
        cl: &crate::cluster::Cluster,
        server: ServerId,
        pkt: &Packet,
    ) -> Option<Self> {
        if pkt.dir != Direction::Rx {
            return None;
        }
        let fe = cl.fes.get(&(server, pkt.vnic))?;
        Some(FeBinding { be: fe.be_location })
    }
}

/// The front half both FE workflows share, once charged.
struct FeVisit {
    /// The session's bidirectional pre-actions.
    pair: PreActionPair,
    /// True when the flow cache missed and the rule lookup ran.
    miss: bool,
    /// When the FE's CPU finished with the packet.
    done: SimTime,
    /// The NSH-carry share of the scaled charge.
    carry: u64,
    /// The visit's root span (profiler enabled only).
    root: Option<SpanId>,
}

/// Resolves `pkt`'s pre-actions at this server's FE (cached flow, or the
/// rule lookup on a miss), prices and charges the visit, and records its
/// span tree under `root_stage`. `carry_leaf` names the leaf the NSH
/// carry share is attributed to; `None` leaves it to the caller (the RX
/// side records it as an explicit marker to capture its id). Returns
/// `None` — the packet already accounted for — when the FE entry is gone
/// or the CPU is overloaded.
fn fe_visit(
    ctx: &mut HandlerCtx<'_>,
    pkt: &Packet,
    dir: Direction,
    root_stage: Stage,
    carry_leaf: Option<Stage>,
) -> Option<FeVisit> {
    let (server, now) = (ctx.server, ctx.now);
    let cl = &mut *ctx.cl;
    let vs = &mut cl.switches[server.0 as usize];
    let mem_model = vs.config().memory;
    let costs = vs.config().costs;
    let Some(fe) = cl.fes.get_mut(&(server, pkt.vnic)) else {
        // Membership was claimed at demux time; an FE entry vanishing
        // between then and now means the pool changed under us — count
        // it rather than silently dropping on the floor.
        ctx.misroute(pkt);
        return None;
    };
    let (pair, miss) = fe.lookup_or_insert(&pkt.tuple, dir, &mut vs.mem, &mem_model);
    // A cache miss re-executes the full slow path: "the FE executes
    // the same code as before deploying Nezha" (§5.1) — which is why
    // per-FE CPS capacity matches a local vSwitch's, and Fig. 9's
    // gain curve needs ~4 FEs to saturate the VM. Priced only on the
    // miss branch: the slow-path formula costs an `ln` per call.
    let bytes = pkt.wire_len();
    let (path, lookup_cycles) = if miss {
        (PathTaken::Slow, fe.vnic.slow_path_cycles(&costs, bytes))
    } else {
        (PathTaken::Fast, costs.fast_path_cycles(bytes))
    };
    let cycles = costs.fe_carry + lookup_cycles;
    let charge = ctx.charge(pkt, cycles)?;
    // Attribute the FE charge: the `fe_carry` share is NSH work, the
    // remainder follows the lookup path's own cost plan.
    let carry = charge.scaled.min(costs.fe_carry);
    let mut root = None;
    if ctx.cl.tel.shared.profiler.is_enabled() {
        if let Some(fe) = ctx.cl.fes.get(&(server, pkt.vnic)) {
            // Leaf assembly allocates: only while profiling, never in
            // measurement runs.
            let mut leaves = Vec::from_iter(carry_leaf.map(|leaf| (leaf, carry)));
            let rest = charge.scaled - carry;
            costing::charge_leaves(path, &costs, &fe.vnic, bytes, rest, &mut leaves);
            root = ctx.span(root_stage, pkt, now, charge.done, &leaves);
        }
    }
    ctx.note_remote_cycles(cycles);
    Some(FeVisit {
        pair,
        miss,
        done: charge.done,
        carry,
        root,
    })
}

/// TX-carried packet arriving at an FE: look up pre-actions, finalize
/// with the carried state, and forward to the destination.
pub(crate) fn fe_handle_tx_carry(
    ctx: &mut HandlerCtx<'_>,
    nsh: NezhaHeader,
    mut pkt: Packet,
    sent_at: SimTime,
) {
    if !ctx.cl.fes.contains_key(&(ctx.server, pkt.vnic)) {
        return ctx.misroute(&pkt);
    }
    ctx.trace(ctx.now, &pkt, TraceEventKind::NshDecap);
    let Some(FeVisit {
        pair,
        miss,
        done,
        root,
        ..
    }) = fe_visit(
        ctx,
        &pkt,
        Direction::Tx,
        Stage::FeTxCarry,
        Some(Stage::NshDecap),
    )
    else {
        return;
    };
    // The root hangs off the BE's encap marker carried in `prof_span`,
    // and replaces it so the notify (if any) chains off this FE visit.
    if let Some(root) = root {
        pkt.prof_span = root.to_raw();
    }

    // Finalize against the state the BE carried.
    let inner = pkt.strip_nezha();
    let action = nsh.carried_state().finalize(&pair.tx, &inner);
    if action.verdict == nezha_types::Decision::Drop {
        return ctx.deny(pkt.trace);
    }
    ctx.count_mirrors(&action);

    // Notify packets: rule-table-involved state discovered at the FE
    // that differs from what the packet carried (§3.2.2).
    let state_differs = pair.tx.stats_policy != 0 && nsh.stats_policy != Some(pair.tx.stats_policy);
    if miss && (state_differs || ctx.cl.cfg.notify_always) {
        send_notify(ctx, &pkt, pair.tx.stats_policy, done);
    }

    // Forward toward the destination (peer endpoint).
    forward_to_peer(ctx, inner, action, sent_at, done);
}

/// RX packet arriving at an FE from the fabric: look up pre-actions,
/// piggyback them (plus state-initialization info), send to the BE.
pub(crate) fn fe_handle_rx(
    ctx: &mut HandlerCtx<'_>,
    binding: FeBinding,
    pkt: Packet,
    sent_at: SimTime,
) {
    let (server, now) = (ctx.server, ctx.now);
    let be = binding.be;
    let Some(FeVisit {
        pair,
        done,
        carry,
        root,
        ..
    }) = fe_visit(ctx, &pkt, Direction::Rx, Stage::FeRx, None)
    else {
        return;
    };
    ctx.cl.tel.note_fe_rx(server);
    // The carry share is encap work here (the FE wraps the packet for
    // the BE). Its span doubles as the causal hop parent the BE will
    // see — recorded explicitly to capture its id.
    let hop_span = root
        .and_then(|root| ctx.span_marker(Stage::NshEncap, root, &pkt, now..done, carry))
        .map_or(0, |id| id.to_raw());

    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::RxCarry, pkt.vnic, pkt.vpc);
    nsh.pre_actions = Some(pair);
    // Information the BE needs for state init that FE processing
    // destroys: the overlay encap source (stateful decap, §3.2.2).
    nsh.decap_addr = pkt.overlay_encap_src;
    if pair.rx.stats_policy != 0 {
        nsh.stats_policy = Some(pair.rx.stats_policy);
    }
    let mut out = pkt;
    out.overlay_encap_src = None; // FE rewrites the outer header
    let mut out = out.with_nezha(nsh);
    out.outer_src = Some(server);
    out.outer_dst = Some(be);
    out.prof_span = hop_span;
    ctx.trace(done, &out, TraceEventKind::NshEncap);
    let lat = ctx.cl.topo.latency(server, be, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, be, out, sent_at);
}

/// Emits one FE→BE notify packet for a missed flow (§3.2.2).
pub(crate) fn send_notify(ctx: &mut HandlerCtx<'_>, pkt: &Packet, policy: u8, done: SimTime) {
    let fe_server = ctx.server;
    ctx.cl.tel.inc(Ctr::Notifies);
    ctx.trace(done, pkt, TraceEventKind::Notify);
    let be = ctx.cl.vnic_home[&pkt.vnic];
    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::Notify, pkt.vnic, pkt.vpc);
    nsh.stats_policy = Some(policy);
    let mut notify = Packet::tx_data(
        0,
        pkt.vpc,
        pkt.vnic,
        pkt.tuple,
        nezha_types::TcpFlags::empty(),
        0,
    )
    .with_nezha(nsh);
    notify.outer_src = Some(fe_server);
    notify.outer_dst = Some(be);
    // The notify inherits the emitting FE visit's span so the BE-side
    // processing lands in the same causal tree as the original packet.
    notify.prof_span = pkt.prof_span;
    // Scripted notify loss (§3.2.2's channel is best-effort: the BE's
    // rule-table-involved state converges on a later miss instead).
    if ctx.drop_notify() {
        ctx.cl.tel.inc(Ctr::FaultNotifyDrops);
        ctx.fault_drop_marker(done, &notify, DropReason::Fault);
        return;
    }
    let lat = ctx.cl.topo.latency(fe_server, be, notify.wire_len());
    ctx.cl.schedule_arrive(done + lat, be, notify, done);
}
