//! The hot path's allocation budget, measured: heap allocations per
//! engine event on a TCP_CRR run, heap bytes per registered connection,
//! heap bytes per entry while a session table or a vNIC's learned-peer
//! table grows, and exactly zero on the per-packet primitives that run
//! does not cross (the NSH codec, `DenseMap::get`) and on the rule lookup
//! (`pair_lookup`, whose ACL and route indexes are built at insert time,
//! never on a probe). Reading telemetry copies no sample set:
//! `Cluster::stats()`, `MetricsRegistry::snapshot()` and
//! `histogram_samples()` share the registry's buffers.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would be counted too.

use std::hint::black_box;

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::vm::VmConfig;
use nezha::sim::dense::DenseMap;
use nezha::sim::metrics::MetricsRegistry;
use nezha::sim::resources::MemoryPool;
use nezha::sim::rng::SimRng;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::types::{
    Decision, Direction, FiveTuple, Ipv4Addr, NezhaHeader, NezhaPayloadKind, NshView, PreAction,
    PreActionPair, ServerId, SessionKey, VnicId, VpcId,
};
use nezha::vswitch::stage::lookup::pair_lookup;
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::vswitch::{SessionTable, VSwitchConfig};
use nezha::workloads::cps::CpsWorkload;
use nezha::workloads::syn_flood::SynFlood;

#[expect(
    clippy::disallowed_types,
    reason = "the counting allocator's two `static AtomicU64` statistics; nothing in the simulator reads them"
)]
#[path = "../benchmark/src/alloc.rs"]
mod alloc;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const PORT: u16 = 9000;

/// `(allocation calls, bytes requested)` while `f` runs.
fn allocs_during(f: impl FnOnce()) -> (u64, u64) {
    let (calls, bytes) = alloc::counts();
    f();
    let (calls_after, bytes_after) = alloc::counts();
    (calls_after - calls, bytes_after - bytes)
}

/// `examples/quickstart.rs`'s cluster under 20k conn/s TCP_CRR for two
/// simulated seconds: heap bytes requested per connection while the
/// specs are registered, then allocations and engine events over the
/// second simulated second, then heap bytes requested by one
/// `Cluster::stats()` after the run.
fn registration_allocs_and_events(offload: bool) -> (f64, u64, u64, u64) {
    let cfg = ClusterConfig::builder()
        .cores(1)
        .auto_offload(false)
        .build();
    let mut cluster = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(PORT);
    let vm = VmConfig {
        per_core_cps: 13_425.0,
        ..VmConfig::default()
    };
    cluster.add_vnic(vnic, HOME, vm).unwrap();
    if offload {
        cluster.trigger_offload(VNIC, SimTime::ZERO).unwrap();
        cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    }

    let start = cluster.now();
    let wl = CpsWorkload::tcp_crr(
        VNIC,
        VpcId(1),
        SERVICE,
        PORT,
        (24..32).map(ServerId).collect(),
        20_000.0,
        SimDuration::from_secs(2),
    );
    let specs = wl.generate(start, &mut SimRng::new(7));
    let conns = specs.len();
    assert!(conns > 35_000, "only {conns} connections");
    let (_, registered) = allocs_during(|| {
        for spec in specs {
            cluster.add_conn(spec).unwrap();
        }
    });
    cluster.run_until(start + SimDuration::from_secs(1));
    let events = cluster.engine.processed();
    let (allocs, _) = allocs_during(|| cluster.run_until(start + SimDuration::from_secs(2)));
    let events = cluster.engine.processed() - events;
    assert!(events > 100_000, "only {events} events in the window");
    let mut latencies = 0;
    let (_, read) = allocs_during(|| latencies = cluster.stats().conn_latency.len());
    assert!(latencies > 35_000, "only {latencies} connection latencies");
    (registered as f64 / conns as f64, allocs, events, read)
}

/// Heap bytes requested by `snapshot()` and by `histogram_samples()` on a
/// registry holding one histogram of `n` samples.
fn registry_read_bytes(n: u32) -> (u64, u64) {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("latency.conn", &[]);
    for i in 0..n {
        reg.observe(h, f64::from(i % 1_000) * 1e-6);
    }
    let (_, snapshot) = allocs_during(|| {
        assert_eq!(reg.snapshot().histogram("latency.conn").len(), n as usize);
    });
    let (_, samples) = allocs_during(|| {
        assert_eq!(reg.histogram_samples(h).len(), n as usize);
    });
    (snapshot, samples)
}

/// Heap bytes requested per entry while a session table — a
/// `DenseMap<SessionKey, SessionEntry>` — grows to `n` entries.
fn session_table_growth_bytes(n: u32) -> f64 {
    let mut table = SessionTable::new();
    let mut pool = MemoryPool::new(u64::MAX);
    let m = VSwitchConfig::default().memory;
    let (_, bytes) = allocs_during(|| {
        for i in 0..n {
            let tuple = FiveTuple::tcp(Ipv4Addr::from(i), 1024, SERVICE, PORT);
            let key = SessionKey::of(VpcId(1), tuple);
            let dir = Direction::Rx;
            table
                .establish(key, VNIC, dir, None, SimTime::ZERO, &mut pool, &m)
                .unwrap();
        }
    });
    assert_eq!(table.len(), n as usize);
    bytes as f64 / f64::from(n)
}

/// Heap bytes requested per address while one `Vnic` learns `n` peers it
/// did not know (its learned-peer table grows past the profile's 2 000).
fn learned_peer_growth_bytes(n: u32) -> f64 {
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    let mut pool = MemoryPool::new(u64::MAX);
    let m = VSwitchConfig::default().memory;
    let known = vnic.table_memory(&m);
    let (_, bytes) = allocs_during(|| {
        for i in 0..n {
            let peer = Ipv4Addr::from(0xac10_0000 + i);
            vnic.learn_peer(peer, ServerId(i % 64), &mut pool, &m);
        }
    });
    let learned = (vnic.table_memory(&m) - known) / m.vnic_server_entry;
    assert_eq!(learned, u64::from(n));
    bytes as f64 / f64::from(n)
}

#[test]
fn hot_path_stays_inside_its_allocation_budget() {
    // Measured at this seed: 78 allocations / 301 203 events = 0.0003
    // local, 100 / 441 763 = 0.0002 offloaded (0.124 and 0.111 when every
    // 20 µs ladder bucket allocated its own `Vec`; 106 local when every
    // unstarted connection had a queue entry; 73 and 95 when session
    // tables grew by doubling, with fewer and larger requests). Request
    // counts are a function of the seed, not of the host.
    //
    // Registration: 32.7 B per connection, local and offloaded — the
    // 32-byte `ConnState` in whole-page chunks, plus the few interned
    // classes its connections share. 65.3 with the whole spec in a
    // 64-byte record; 146.5 and 144.8 when every unstarted connection
    // also held a 32-byte queue entry, with the coarse rung's bucket
    // doublings on top.
    //
    // Reads: one `Cluster::stats()` after the run requests 640 B local
    // and 1 360 B offloaded, its three time series and the shared headers
    // of its three sample sets; 321 824 and 322 552 B when every read
    // copied every sample set. Budget 4 KiB.
    for offload in [false, true] {
        let (registered, allocs, events, read) = registration_allocs_and_events(offload);
        assert!(
            registered <= 40.0,
            "registering allocated {registered:.1} B per connection (offload={offload}), budget 40"
        );
        assert!(
            allocs as f64 <= 0.01 * events as f64,
            "{allocs} allocations / {events} events = {:.4} per event (offload={offload}), budget 0.01",
            allocs as f64 / events as f64
        );
        assert!(
            read < 4_096,
            "Cluster::stats() requested {read} B (offload={offload}), budget 4 KiB"
        );
    }

    // A bare registry holding one 1 000 000-sample histogram: `snapshot()`
    // requests 1 028 B (one B-tree node, the key and the buffer's
    // shared header) and `histogram_samples()` after it 0 (the buffer is
    // shared already), against at least 8 000 000 B each, one copy of
    // the samples, when reads copied the set. Budget 4 KiB each.
    let (snapshot, samples) = registry_read_bytes(1_000_000);
    assert!(
        snapshot < 4_096,
        "snapshot() requested {snapshot} B on a 1M-sample histogram, budget 4 KiB"
    );
    assert!(
        samples < 4_096,
        "histogram_samples() requested {samples} B on a 1M-sample histogram, budget 4 KiB"
    );

    // Learned peers: 8 B of address + server id, in storage pages
    // allocated once, with the 4-byte index slots' doublings on top.
    // Measured: 22.0 B per address; 42.2 when each value was a 24-byte
    // enum able to hold a list of servers.
    let learned = learned_peer_growth_bytes(300_000);
    assert!(
        learned <= 32.0,
        "learning peers allocated {learned:.1} B per address, budget 32"
    );

    // Growth: 52 B of 20-byte key + 32-byte entry, in storage pages
    // allocated once, with the index slots' doublings on top. Measured:
    // 67.3 B per entry; 100.0 with a 64-byte entry that carried its own
    // flow-statistics counters, 108.2 with a 72-byte entry, and 363.5 when
    // keys and (80-byte) entries each sat in one doubling `Vec`, whose
    // every step requested a fresh copy.
    let grown = session_table_growth_bytes(300_000);
    assert!(
        grown <= 72.0,
        "growing a session table allocated {grown:.1} B per entry, budget 72"
    );

    let pa = PreAction {
        verdict: Decision::Accept,
        stateful_acl: true,
        next_hop: Some(ServerId(12)),
        nat_rewrite: Some(Ipv4Addr::new(100, 64, 0, 9)),
        stateful_decap: true,
        qos_class: 3,
        stats_policy: 5,
        mirror_to: None,
    };
    let header = NezhaHeader {
        first_dir: Some(Direction::Tx),
        decap_addr: Some(Ipv4Addr::new(100, 64, 3, 4)),
        stats_policy: Some(5),
        pre_actions: Some(PreActionPair { tx: pa, rx: pa }),
        ..NezhaHeader::bare(NezhaPayloadKind::RxCarry, VNIC, VpcId(7))
    };
    let mut buf = [0u8; NezhaHeader::MAX_WIRE_LEN];
    let (codec, _) = allocs_during(|| {
        for _ in 0..10_000 {
            let n = black_box(&header).encode_into(&mut buf);
            let view = NshView::parse(black_box(&buf[..n])).unwrap();
            black_box((view.kind(), view.vnic(), view.vpc(), view.first_dir()));
            black_box((view.decap_addr(), view.stats_policy(), view.pre_actions()));
        }
    });
    assert_eq!(codec, 0, "NSH encode_into/parse/accessors allocated");

    let mut map = DenseMap::new();
    for k in 0..10_000u64 {
        map.insert(k, k);
    }
    let (probes, _) = allocs_during(|| {
        for k in 0..10_000u64 {
            black_box(map.get(black_box(&k)));
            black_box(map.get(black_box(&(k + 10_000))));
        }
    });
    assert_eq!(probes, 0, "DenseMap::get allocated");

    // The slow path's rule lookup over the testbed vNIC (the priority-0
    // inbound-port rule rebuilt the ACL index), on 5 000 SYN-flood and
    // ~5 000 TCP_CRR first packets.
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(PORT);
    let half = SimDuration::from_millis(500);
    let flood = SynFlood {
        vnic: VNIC,
        vpc: VpcId(1),
        service_addr: SERVICE,
        service_port: PORT,
        attacker_server: ServerId(9),
        rate: 10_000.0,
        duration: half,
    };
    let crr = CpsWorkload::tcp_crr(
        VNIC,
        VpcId(1),
        SERVICE,
        PORT,
        vec![ServerId(24)],
        10_000.0,
        half,
    );
    let tuples: Vec<FiveTuple> = flood
        .generate(SimTime::ZERO)
        .into_iter()
        .chain(crr.generate(SimTime::ZERO, &mut SimRng::new(7)))
        .map(|spec| spec.tuple)
        .collect();
    assert!(tuples.len() > 9_500, "only {} tuples", tuples.len());
    let (lookups, _) = allocs_during(|| {
        for t in &tuples {
            black_box(pair_lookup(black_box(&vnic), black_box(t), Direction::Rx));
        }
    });
    assert_eq!(lookups, 0, "pair_lookup allocated");
}
