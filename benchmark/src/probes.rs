//! Layer probes: tight loops over one layer's public function, sized
//! from the traced run's counts (queue depth, live sessions), so that
//! `count x probe cost` estimates that layer's share of a run.
//!
//! Every probe runs until it has done 1 M operations or spent 0.2 s of
//! timed work, whichever comes first, and reports ns/op with the
//! operation count. Results pass through `black_box`.

use nezha_bench::experiments::harness;
use nezha_core::cluster::ClusterConfig;
use nezha_sim::dense::DenseMap;
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::obs::LogHistogram;
use nezha_sim::resources::MemoryPool;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::Engine;
use nezha_types::{
    Direction, FiveTuple, Ipv4Addr, NezhaHeader, NezhaPayloadKind, NshView, Packet, PreAction,
    PreActionPair, ServerId, SessionKey, TcpFlags,
};
use nezha_vswitch::session::SessionTable;
use nezha_vswitch::stage::lookup::{direction_lookup, lookup_graph};
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use nezha_vswitch::{VSwitch, VSwitchConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MAX_OPS: u64 = 1_000_000;
const MAX_TIME: Duration = Duration::from_millis(200);
/// Operations per timed chunk: long enough that the two clock reads
/// around it vanish, short enough to stop close to the budget.
const CHUNK: u64 = 8_192;

/// One probe's outcome (all zero for a probe that was skipped).
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Mean nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations timed.
    pub ops: u64,
}

/// Runs `probe` if `wanted`; otherwise its results read zero.
pub fn skip_unless<P: Default>(wanted: bool, probe: impl FnOnce() -> P) -> P {
    if wanted {
        probe()
    } else {
        P::default()
    }
}

/// Accumulates timed chunks until the op or time budget is spent.
#[derive(Debug, Default)]
struct Budget {
    ops: u64,
    spent: Duration,
}

impl Budget {
    fn more(&self) -> bool {
        self.ops < MAX_OPS && self.spent < MAX_TIME
    }

    fn timed(&mut self, ops: u64, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        self.spent += t.elapsed();
        self.ops += ops;
    }

    fn done(self) -> Probe {
        Probe {
            ns_per_op: self.spent.as_nanos() as f64 / self.ops.max(1) as f64,
            ops: self.ops,
        }
    }
}

/// SplitMix64: the probes' private input stream (the simulator's RNG is
/// a layer under test, not a tool here).
#[derive(Debug)]
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `sim.engine.hold_ns`: the classic hold model — pop the earliest
/// event, schedule a new one 20–200 µs ahead — on an `Engine<u64>` kept
/// at `pending` events.
pub fn engine_hold(pending: usize) -> Probe {
    let mut rng = Mix(1);
    let mut delay = move || SimDuration(20_000 + rng.next() % 180_000);
    let mut eng: Engine<u64> = Engine::new();
    for i in 0..pending.max(1) {
        eng.schedule_in(delay(), i as u64);
    }
    let mut b = Budget::default();
    while b.more() {
        b.timed(CHUNK, || {
            for _ in 0..CHUNK {
                let ev = eng.pop().expect("hold model never drains");
                eng.schedule_in(delay(), black_box(ev.event));
            }
        });
    }
    b.done()
}

/// `sim.engine.below_horizon_insert_ns`: `schedule_at` under the
/// horizon, ascending in time as a registration loop issues them, with
/// the sorted run growing to `keys`. The horizon is pushed out the way a
/// settled cluster's is: the only pending event is a sparse one 0.5 s
/// ahead, and a `pop_until` short of it promotes its bucket.
pub fn engine_below_horizon_insert(keys: u64) -> Probe {
    let mut b = Budget::default();
    while b.more() {
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule_at(SimTime(500_000_000), 0);
        let early = eng.pop_until(SimTime(1_000_000));
        assert!(early.is_none(), "the sparse event is not due yet");
        b.timed(keys, || {
            for i in 0..keys {
                eng.schedule_at(SimTime(2_000_000 + i * 8_000), i);
            }
        });
        black_box(eng.pending());
    }
    b.done()
}

/// `sim.dense.get_hit_ns` and `sim.dense.insert_remove_ns` on a
/// `DenseMap<u64, u64>` holding `n` keys.
pub fn dense(n: usize) -> (Probe, Probe) {
    let n = n.max(1) as u64;
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut map: DenseMap<u64, u64> = DenseMap::new();
    for i in 0..n {
        map.insert(key(i), i);
    }
    let mut rng = Mix(2);
    let mut get = Budget::default();
    while get.more() {
        get.timed(CHUNK, || {
            for _ in 0..CHUNK {
                black_box(map.get(&key(rng.next() % n)));
            }
        });
    }
    let mut churn = Budget::default();
    let mut next = n;
    while churn.more() {
        churn.timed(CHUNK, || {
            for _ in 0..CHUNK {
                map.insert(key(next), next);
                black_box(map.remove(&key(next - n)));
                next += 1;
            }
        });
    }
    (get.done(), churn.done())
}

/// `sim.metrics.inc_ns`, `sim.metrics.observe_ns` and
/// `sim.obs.loghist_record_ns`.
pub fn metrics() -> (Probe, Probe, Probe) {
    let reg = MetricsRegistry::new();
    let counter = reg.counter("probe.counter", &[]);
    let hist = reg.histogram("probe.hist", &[]);
    let mut rng = Mix(3);
    let mut value = move || (rng.next() % 1_000_000) as f64 * 1e-9;
    let mut inc = Budget::default();
    while inc.more() {
        inc.timed(CHUNK, || {
            for _ in 0..CHUNK {
                reg.inc(black_box(counter));
            }
        });
    }
    let mut observe = Budget::default();
    while observe.more() {
        observe.timed(CHUNK, || {
            for _ in 0..CHUNK {
                reg.observe(hist, black_box(value()));
            }
        });
    }
    black_box(reg.counter_value(counter));
    let mut lh = LogHistogram::new();
    let mut record = Budget::default();
    while record.more() {
        record.timed(CHUNK, || {
            for _ in 0..CHUNK {
                lh.record(black_box(value()));
            }
        });
    }
    black_box(lh.count());
    (inc.done(), observe.done(), record.done())
}

/// The vNIC every cluster workload runs against.
fn testbed_vnic() -> Vnic {
    let mut vnic = Vnic::new(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        VnicProfile::default(),
        harness::HOME,
    );
    vnic.allow_inbound_port(harness::SERVICE_PORT);
    vnic
}

/// Distinct client tuple number `i` toward the testbed service.
fn client_tuple(i: u64) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr(0x0a08_0000 | (i / 50_000) as u32),
        10_000 + (i % 50_000) as u16,
        harness::SERVICE_ADDR,
        harness::SERVICE_PORT,
    )
}

/// `vswitch.stage.lookup_ns`: one slow-path lookup, i.e. the Tx and the
/// Rx `direction_lookup` over the compiled lookup graph.
pub fn stage_lookup() -> Probe {
    let graph = lookup_graph();
    let vnic = testbed_vnic();
    let mut b = Budget::default();
    let mut i = 0u64;
    while b.more() {
        b.timed(CHUNK, || {
            for _ in 0..CHUNK {
                let rx = client_tuple(i);
                black_box(direction_lookup(
                    &graph,
                    &vnic,
                    &rx.reversed(),
                    Direction::Tx,
                ));
                black_box(direction_lookup(&graph, &vnic, &rx, Direction::Rx));
                i += 1;
            }
        });
    }
    b.done()
}

/// The testbed's vSwitch configuration (4 cores).
fn testbed_vswitch_cfg() -> VSwitchConfig {
    ClusterConfig::builder().cores(4).build().vswitch
}

fn rx_pkt(i: u64, flags: TcpFlags) -> Packet {
    Packet::rx_data(i, harness::VPC, harness::VNIC, client_tuple(i), flags, 128)
}

/// `vswitch.vswitch.process_fast_ns` / `process_slow_ns`:
/// `VSwitch::process_local` on an established flow (cycling over
/// `flows` sessions) and on a new flow (the new sessions are removed,
/// untimed, between chunks so the table stays near `flows` sessions).
pub fn process_local(flows: usize) -> (Probe, Probe) {
    let flows = flows.max(1) as u64;
    // 50 µs apart: far below the 4-core switch's capacity, so the CPU
    // model never sheds a probe packet.
    let gap = SimDuration(50_000);
    let mut vs = VSwitch::new(ServerId(0), testbed_vswitch_cfg());
    vs.add_vnic(testbed_vnic()).expect("tables fit");
    let mut now = SimTime::ZERO;
    for i in 0..flows {
        now += gap;
        let r = vs.process_local(&rx_pkt(i, TcpFlags::SYN), now);
        assert!(r.created_session, "probe flow {i} was not admitted");
    }
    let mut fast = Budget::default();
    let mut i = 0u64;
    while fast.more() {
        fast.timed(CHUNK, || {
            for _ in 0..CHUNK {
                now += gap;
                black_box(vs.process_local(&rx_pkt(i % flows, TcpFlags::ACK), now));
                i += 1;
            }
        });
    }
    let mut slow = Budget::default();
    let mut fresh = flows;
    let memory = vs.config().memory;
    while slow.more() {
        slow.timed(CHUNK, || {
            for _ in 0..CHUNK {
                now += gap;
                black_box(vs.process_local(&rx_pkt(fresh, TcpFlags::SYN), now));
                fresh += 1;
            }
        });
        for i in fresh - CHUNK..fresh {
            let key = SessionKey::of(harness::VPC, client_tuple(i));
            vs.sessions.remove(&key, &mut vs.mem, &memory);
        }
    }
    (fast.done(), slow.done())
}

/// `vswitch.session.get_ns`, `insert_ns` and `expire_ns_per_entry` on a
/// `SessionTable` holding `n` sessions.
pub fn session_table(n: usize) -> (Probe, Probe, Probe) {
    let n = n.max(1) as u64;
    let cfg = testbed_vswitch_cfg();
    let key = |i: u64| SessionKey::of(harness::VPC, client_tuple(i));
    let pair = Some(PreActionPair::accept(None, None));
    let fill = |table: &mut SessionTable, pool: &mut MemoryPool, from: u64, to: u64| {
        for i in from..to {
            table
                .establish(
                    key(i),
                    harness::VNIC,
                    Direction::Rx,
                    pair,
                    SimTime::ZERO,
                    pool,
                    &cfg.memory,
                )
                .expect("probe pool is large enough");
        }
    };
    let mut table = SessionTable::new();
    let mut pool = MemoryPool::new(1 << 40);
    fill(&mut table, &mut pool, 0, n);

    let mut rng = Mix(4);
    let mut get = Budget::default();
    while get.more() {
        get.timed(CHUNK, || {
            for _ in 0..CHUNK {
                black_box(table.get(&key(rng.next() % n)).is_some());
            }
        });
    }

    let mut insert = Budget::default();
    let mut next = n;
    while insert.more() {
        insert.timed(CHUNK, || fill(&mut table, &mut pool, next, next + CHUNK));
        for i in next..next + CHUNK {
            table.remove(&key(i), &mut pool, &cfg.memory);
        }
        next += CHUNK;
    }

    // Every entry idle past its timeout: one sweep reclaims all `n`.
    let mut expire = Budget::default();
    let far = SimTime::ZERO + SimDuration::from_secs(3_600);
    while expire.more() {
        expire.timed(n, || {
            black_box(table.expire(far, &cfg, &mut pool));
        });
        fill(&mut table, &mut pool, 0, n);
    }
    (get.done(), insert.done(), expire.done())
}

/// `types.nsh.encode_parse_ns`: `NezhaHeader::encode_into` then
/// `NshView::parse` of a header with every optional field set.
pub fn nsh_codec() -> Probe {
    let mut h = NezhaHeader::bare(NezhaPayloadKind::RxCarry, harness::VNIC, harness::VPC);
    h.first_dir = Some(Direction::Tx);
    h.decap_addr = Some(Ipv4Addr::new(100, 64, 3, 4));
    h.stats_policy = Some(5);
    h.pre_actions = Some(PreActionPair {
        tx: PreAction::accept(Some(ServerId(12))),
        rx: PreAction::drop(),
    });
    let mut buf = [0u8; NezhaHeader::MAX_WIRE_LEN];
    let mut b = Budget::default();
    while b.more() {
        b.timed(CHUNK, || {
            for _ in 0..CHUNK {
                let len = black_box(&h).encode_into(&mut buf);
                let view = NshView::parse(&buf[..len]).expect("own encoding parses");
                black_box((view.kind(), view.vnic(), view.vpc()));
            }
        });
    }
    b.done()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_stops_at_the_op_cap() {
        let mut b = Budget::default();
        let mut chunks = 0;
        while b.more() {
            b.timed(CHUNK, || {});
            chunks += 1;
        }
        let p = b.done();
        assert!(p.ops >= MAX_OPS && p.ops < MAX_OPS + CHUNK);
        assert_eq!(chunks, p.ops / CHUNK);
    }

    #[test]
    fn below_horizon_probe_really_is_below_the_horizon() {
        // The sorted-insert path keeps every key in the run, so a pop
        // right after returns the earliest inserted key, not the sparse
        // event that set the horizon.
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule_at(SimTime(500_000_000), 99);
        assert!(eng.pop_until(SimTime(1_000_000)).is_none());
        eng.schedule_at(SimTime(2_000_000), 7);
        assert_eq!(eng.pop().map(|s| s.event), Some(7));
    }

    #[test]
    fn small_probes_report_positive_costs() {
        for p in [engine_hold(64), stage_lookup(), nsh_codec()] {
            assert!(p.ops > 0 && p.ns_per_op > 0.0);
        }
        let (fast, slow) = process_local(64);
        assert!(fast.ops > 0 && slow.ops > 0);
        let (get, insert, expire) = session_table(64);
        assert!(get.ns_per_op > 0.0 && insert.ns_per_op > 0.0 && expire.ns_per_op > 0.0);
    }
}
