//! The vNIC **frontend** (FE): stateless rules + cached flows on a remote
//! idle SmartNIC.
//!
//! An FE holds a complete copy of one offloaded vNIC's rule tables and a
//! cache of flows it has looked up; it holds **no session state**. That is
//! the entire point: "as FEs only maintain stateless rule tables and
//! cached flows, packets can be processed correctly by any FE without
//! synchronization" (§3.2.3) — add or remove FEs freely, lose one with no
//! state loss, and a post-scaling cache miss costs only one re-executed
//! rule lookup ("slightly more than 10 microseconds").
//!
//! [`FrontEnd`] is one such FE; the FE's per-packet handlers (TX-carry
//! finalization, RX pre-action lookup, notify emission) are the
//! `Cluster` methods below it.

use crate::cluster::Cluster;
use crate::dispatch::Charge;
use crate::telemetry::Ctr;
use nezha_sim::dense::{DenseMap, Interner};
use nezha_sim::profile::{SpanId, Stage};
use nezha_sim::resources::MemoryPool;
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{
    Direction, FiveTuple, NezhaHeader, NezhaPayloadKind, Packet, PreActionPair, ServerId,
};
use nezha_vswitch::config::MemoryModel;
use nezha_vswitch::stage::costing;
use nezha_vswitch::stage::lookup::pair_lookup;
use nezha_vswitch::vnic::Vnic;
use nezha_vswitch::PathTaken;

/// One FE instance: an offloaded vNIC's tables hosted on a remote server.
#[derive(Debug)]
pub struct FrontEnd {
    /// A full copy of the vNIC's rule tables ("Each FE maintains a
    /// complete copy of the rule tables", §3.2.3).
    pub vnic: Vnic,
    /// The BE's location, configured by the controller ("BE Location
    /// Config", Fig. 7).
    pub be_location: ServerId,
    /// Cached flows regenerated on the fly by rule lookups (Fig. 7),
    /// keyed by the session's canonical 5-tuple: an FE serves one vNIC,
    /// so a VPC id in the key would be the same in every entry.
    /// Dense-hashed: the per-packet hit path is one O(1) probe, and the
    /// only iteration (invalidate-all) is aggregate, so lookup order is
    /// never behavior-visible. Entries store a 4-byte interned id rather
    /// than the 64-byte pair itself: flows over the same rule tables
    /// collapse onto a few hundred distinct pre-action values, so the
    /// probe array stays a quarter the size and the resolve table is
    /// cache-resident.
    flows: DenseMap<FiveTuple, u32>,
    /// Distinct pre-action values behind the flow entries' interned ids.
    pairs: Interner<PreActionPair>,
    hits: u64,
    misses: u64,
    /// Flows that could not be cached because the host's table memory was
    /// exhausted (processing still succeeds, uncached).
    cache_skips: u64,
}

impl FrontEnd {
    /// Creates an FE for `vnic` whose backend lives at `be_location`.
    pub fn new(vnic: Vnic, be_location: ServerId) -> Self {
        FrontEnd {
            vnic,
            be_location,
            flows: DenseMap::new(),
            pairs: Interner::new(),
            hits: 0,
            misses: 0,
            cache_skips: 0,
        }
    }

    /// Number of cached flows.
    pub fn cached_flows(&self) -> usize {
        self.flows.len()
    }

    /// `(hits, misses, cache_skips)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.cache_skips)
    }

    /// Returns the cached pre-actions for the session of `tuple`, running
    /// the rule lookup (and caching the result in `pool`) on a miss. The
    /// FE calls the *same* lookup function as the local vSwitch — Nezha's
    /// equivalence property (§3.1).
    ///
    /// The boolean is `true` on a miss — the caller charges lookup cycles
    /// instead of fast-path cycles, and (on the TX workflow) considers a
    /// notify packet (§3.2.2).
    pub fn lookup_or_insert(
        &mut self,
        tuple: &FiveTuple,
        pkt_dir: Direction,
        pool: &mut MemoryPool,
        m: &MemoryModel,
    ) -> (PreActionPair, bool) {
        let key = tuple.canonical();
        if let Some(&id) = self.flows.get(&key) {
            self.hits += 1;
            return (*self.pairs.resolve(id), false);
        }
        self.misses += 1;
        let pair = pair_lookup(&self.vnic, tuple, pkt_dir);
        if pool.alloc(m.flow_entry).is_ok() {
            let id = self.pairs.intern(pair);
            self.flows.insert(key, id);
        } else {
            self.cache_skips += 1;
        }
        (pair, true)
    }

    /// Invalidates all cached flows (rule-table change, §3.2.2), releasing
    /// their memory. Returns the number invalidated.
    pub fn invalidate_flows(&mut self, pool: &mut MemoryPool, m: &MemoryModel) -> usize {
        let n = self.flows.len();
        pool.free(n as u64 * m.flow_entry);
        self.flows.clear();
        // Every id died with its flow: the previous rule generation's
        // pre-action values must not stay interned forever.
        self.pairs.clear();
        n
    }

    /// Model bytes this FE holds on its host's pool: its rule tables
    /// (charged when configured, grown by [`Vnic::learn_peer`]) plus one
    /// `flow_entry` per cached flow.
    pub(crate) fn memory_bytes(&self, m: &MemoryModel) -> u64 {
        self.vnic.table_memory(m) + self.flows.len() as u64 * m.flow_entry
    }

    /// Releases **all** memory this FE holds on `pool` (tables + flows);
    /// called when the FE is removed (scale-in, failover cleanup).
    pub fn release(self, pool: &mut MemoryPool, m: &MemoryModel) {
        pool.free(self.memory_bytes(m));
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
    /// Where the vNIC's stateful BE lives, as this FE is configured.
    be: ServerId,
}

/// The stateless FE handlers: TX-carry finalization, RX pre-action
/// lookup + piggybacking, and notify emission (§3.2.1/§3.2.2).
impl Cluster {
    /// Resolves `pkt`'s pre-actions at `server`'s FE (cached flow, or the
    /// rule lookup on a miss), prices and charges the visit, and records
    /// its span tree. A TX-carry visit (`dir` TX) decapsulates the NSH
    /// header first and attributes the carry share to that decap; an RX
    /// visit leaves it to the caller, which records it as an explicit
    /// encap marker to capture its id. Returns `None` — the packet
    /// already accounted for — when `server` hosts no FE for the vNIC (a
    /// counted misroute) or the CPU is overloaded.
    fn fe_visit(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: &Packet,
        dir: Direction,
    ) -> Option<FeVisit> {
        let Some(fe) = self.fes.get_mut(&(server, pkt.vnic)) else {
            self.misroute(pkt.trace, now);
            return None;
        };
        let (root_stage, carry_leaf) = match dir {
            Direction::Tx => {
                self.tel
                    .shared
                    .trace_pkt(now, server, pkt, TraceEventKind::NshDecap);
                (Stage::FeTxCarry, Some(Stage::NshDecap))
            }
            Direction::Rx => (Stage::FeRx, None),
        };
        let vs = &mut self.switches[server.0 as usize];
        let mem_model = vs.config().memory;
        let costs = vs.config().costs;
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
        let Some(charge) = Charge::on(vs, now, pkt, cycles) else {
            self.lose_packet(pkt.trace, now);
            return None;
        };
        // Attribute the FE charge: the `fe_carry` share is NSH work, the
        // remainder follows the lookup path's own cost plan.
        let carry = charge.scaled.min(costs.fe_carry);
        let mut root = None;
        let tel = &self.tel.shared;
        if tel.profiler.is_enabled() {
            // Leaf assembly allocates: only while profiling, never in
            // measurement runs.
            let mut leaves = Vec::from_iter(carry_leaf.map(|leaf| (leaf, carry)));
            let rest = charge.scaled - carry;
            costing::charge_leaves(path, &costs, &fe.vnic, bytes, rest, &mut leaves);
            root = tel.span_tree(root_stage, pkt, server, now, charge.done, &leaves);
        }
        self.controller.note_remote_cycles(server, cycles);
        Some(FeVisit {
            pair,
            miss,
            done: charge.done,
            carry,
            root,
            be: fe.be_location,
        })
    }

    /// TX-carried packet arriving at an FE: look up pre-actions, finalize
    /// with the carried state, and forward to the destination.
    pub(crate) fn fe_handle_tx_carry(
        &mut self,
        server: ServerId,
        now: SimTime,
        nsh: NezhaHeader,
        mut pkt: Packet,
        sent_at: SimTime,
    ) {
        let Some(FeVisit {
            pair,
            miss,
            done,
            root,
            ..
        }) = self.fe_visit(server, now, &pkt, Direction::Tx)
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
            return self.deny_conn(pkt.trace);
        }
        self.count_mirrors(&action);

        // Notify packets: rule-table-involved state discovered at the FE
        // that differs from what the packet carried (§3.2.2).
        let state_differs =
            pair.tx.stats_policy != 0 && nsh.stats_policy != Some(pair.tx.stats_policy);
        if miss && (state_differs || self.cfg.notify_always) {
            self.send_notify(server, &pkt, pair.tx.stats_policy, done);
        }

        // Forward toward the destination (peer endpoint).
        self.forward_to_peer(server, inner, action, sent_at, done);
    }

    /// RX packet arriving at an FE from the fabric: look up pre-actions,
    /// piggyback them (plus state-initialization info), send to the BE.
    pub(crate) fn fe_handle_rx(
        &mut self,
        server: ServerId,
        now: SimTime,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        let Some(FeVisit {
            pair,
            done,
            carry,
            root,
            be,
            ..
        }) = self.fe_visit(server, now, &pkt, Direction::Rx)
        else {
            return;
        };
        let tel = &self.tel;
        tel.note_fe_rx(server);
        // The carry share is encap work here (the FE wraps the packet for
        // the BE). Its span doubles as the causal hop parent the BE will
        // see — recorded explicitly to capture its id.
        let hop_span = root
            .and_then(|root| {
                tel.shared
                    .span_marker(Stage::NshEncap, root, &pkt, server, now..done, carry)
            })
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
        tel.shared
            .trace_pkt(done, server, &out, TraceEventKind::NshEncap);
        let lat = self.topo.latency(server, be, out.wire_len());
        self.schedule_arrive(done + lat, be, out, sent_at);
    }

    /// Emits one FE→BE notify packet for a missed flow (§3.2.2).
    fn send_notify(&mut self, fe_server: ServerId, pkt: &Packet, policy: u8, done: SimTime) {
        self.tel.inc(Ctr::Notifies);
        self.tel
            .shared
            .trace_pkt(done, fe_server, pkt, TraceEventKind::Notify);
        let be = self.vnic_home[&pkt.vnic];
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
        if self.faults.drop_notify() {
            self.tel.inc(Ctr::FaultNotifyDrops);
            self.fault_drop_marker(fe_server, done, &notify, DropReason::Fault);
            return;
        }
        let lat = self.topo.latency(fe_server, be, notify.wire_len());
        self.schedule_arrive(done + lat, be, notify, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::{Ipv4Addr, VnicId, VpcId};
    use nezha_vswitch::vnic::VnicProfile;

    fn fe() -> FrontEnd {
        let vnic = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        );
        FrontEnd::new(vnic, ServerId(0))
    }

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 0, 1),
            port,
            Ipv4Addr::new(10, 7, 0, 100),
            9000,
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (p1, miss1) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        assert!(miss1);
        let (p2, miss2) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        assert!(!miss2);
        assert_eq!(p1, p2);
        assert_eq!(f.counters(), (1, 1, 0));
        assert_eq!(f.cached_flows(), 1);
        assert_eq!(pool.used(), m.flow_entry);
    }

    #[test]
    fn both_directions_share_one_cached_flow() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (pa, _) = f.lookup_or_insert(&tuple(1000), Direction::Tx, &mut pool, &m);
        let (pb, miss) = f.lookup_or_insert(&tuple(1000).reversed(), Direction::Rx, &mut pool, &m);
        assert!(!miss, "reverse direction must hit the same entry");
        assert_eq!(pa, pb);
        assert_eq!(f.cached_flows(), 1);
    }

    #[test]
    fn oom_skips_caching_but_still_answers() {
        let mut f = fe();
        let mut pool = MemoryPool::new(0);
        let m = MemoryModel::default();
        let (_, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
        assert_eq!(f.cached_flows(), 0);
        assert_eq!(f.counters().2, 1);
        // Second lookup is a miss again (nothing cached) but still works.
        let (_, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
    }

    #[test]
    fn invalidate_forgets_the_previous_rule_generation() {
        let mut f = fe();
        let mut pool = MemoryPool::new(1_000_000);
        let m = MemoryModel::default();
        let (before, _) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert_eq!(f.pairs.len(), 1);
        // A table update changes what the lookup yields ...
        let peer = tuple(1).dst_ip;
        f.vnic.learn_peer(peer, ServerId(5), &mut pool, &m);
        f.invalidate_flows(&mut pool, &m);
        assert!(f.pairs.is_empty());
        // ... and only the new generation's value is interned afterwards.
        let (after, miss) = f.lookup_or_insert(&tuple(1), Direction::Tx, &mut pool, &m);
        assert!(miss);
        assert_ne!(before, after);
        assert_eq!(f.pairs.len(), 1);
    }

    #[test]
    fn invalidate_and_release_free_memory() {
        let mut f = fe();
        let mut pool = MemoryPool::new(20_000_000);
        let m = MemoryModel::default();
        for p in 0..10 {
            f.lookup_or_insert(&tuple(p), Direction::Tx, &mut pool, &m);
        }
        assert_eq!(pool.used(), 10 * m.flow_entry);
        assert_eq!(f.invalidate_flows(&mut pool, &m), 10);
        assert_eq!(pool.used(), 0);

        // Simulate the host charging table memory and a learned peer,
        // then releasing the FE.
        pool.alloc(f.vnic.table_memory(&m)).unwrap();
        let peer = Ipv4Addr::new(10, 9, 0, 1);
        f.vnic.learn_peer(peer, ServerId(3), &mut pool, &m);
        f.lookup_or_insert(&tuple(0), Direction::Tx, &mut pool, &m);
        assert_eq!(pool.used(), f.memory_bytes(&m));
        f.release(&mut pool, &m);
        assert_eq!(pool.used(), 0);
    }
}
