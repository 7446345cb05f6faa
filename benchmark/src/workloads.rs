//! The five workloads, each one run of: build → register traffic →
//! warm-up → measured segment → drain → verify.
//!
//! Traffic is open-loop in simulated time (arrivals follow a schedule,
//! whatever the completions do) and the measurement is host time for a
//! fixed amount of simulated work. The simulator is driven through its
//! public functions only; every input is generated here from the seed.

use crate::alloc;
use crate::trace::Tracer;
use nezha_bench::experiments::harness::{self, TestbedOpts};
use nezha_core::cluster::Cluster;
use nezha_core::conn::ConnSpec;
use nezha_core::region::{Region, RegionConfig, RegionReport, Scenario};
use nezha_sim::metrics::{MetricValue, MetricsSnapshot};
use nezha_sim::obs::SloRule;
use nezha_sim::rng::{derive_seed_indexed, SimRng};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId};
use nezha_workloads::cps::CpsWorkload;
use nezha_workloads::syn_flood::SynFlood;
use std::time::Instant;

/// Simulated width of one step of the warm-up, measured and drain
/// segments. Every slice is one lap of the run clock and, traced, one
/// span, so slice wall times are the stall detector; 1 ms gives every
/// cluster workload over 1 000 measured slices at the default measuring
/// seconds, which a p99 needs.
const SLICE: SimDuration = SimDuration(1_000_000);

/// Connections registered per lap of the set-up clock.
const REGISTER_CHUNK: usize = 4_096;

/// How long `trigger_offload` is given to reach the final stage (the
/// same 3 s `harness::offload_and_settle` uses).
const SETTLE: SimDuration = SimDuration(3_000_000_000);

/// What one child process reports back to the runner.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// `name value` pairs: end-to-end inputs, per-layer spans and
    /// counts, and `raw.*` sizing inputs for the probes.
    pub kv: Vec<(String, f64)>,
    /// Hash of the run's deterministic payload.
    pub digest: u64,
    /// Failed conservation checks (empty when all hold).
    pub violations: Vec<String>,
}

impl ChildReport {
    fn put(&mut self, name: &str, value: f64) {
        self.kv.push((name.to_string(), value));
    }
}

/// Word-wise FNV-1a style mixer for the payload digest.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }
    fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(b.len() as u64);
    }
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` once. `scale` multiplies the measured simulated
/// work. `tr` was created at the child's start, where `setup_s` begins.
pub fn run(workload: &str, seed: u64, scale: f64, tr: &mut Tracer) -> Result<ChildReport, String> {
    tr.open_at("bench", 0);
    tr.open_at("setup", 0);
    let mut rep = match workload {
        "crr_offloaded" => run_cluster(Kind::CrrOffloaded, seed, scale, tr),
        "crr_local" => run_cluster(Kind::CrrLocal, seed, scale, tr),
        "fastpath_wide" => run_cluster(Kind::FastpathWide, seed, scale, tr),
        "synflood_offloaded" => run_cluster(Kind::SynfloodOffloaded, seed, scale, tr),
        "region_month" => run_region(seed, scale, tr),
        other => return Err(format!("unknown workload '{other}'")),
    };
    tr.end(); // bench
    rep.put("peak_rss_mb", peak_rss_mb());
    if tr.enabled() {
        let child_wall = tr.spans()[0].dur_ns() as f64;
        let top: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.dur_ns() as f64)
            .sum();
        rep.put("raw.top_level_cover", top / child_wall);
    }
    Ok(rep)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    CrrOffloaded,
    CrrLocal,
    FastpathWide,
    SynfloodOffloaded,
}

impl Kind {
    fn offloaded(self) -> bool {
        self != Kind::CrrLocal
    }

    /// `(warm-up, measured at scale 1, drain)` in simulated time.
    fn segments(self) -> (SimDuration, SimDuration, SimDuration) {
        let ms = SimDuration::from_millis;
        match self {
            Kind::CrrOffloaded | Kind::CrrLocal => (ms(1_000), ms(8_000), ms(2_000)),
            Kind::FastpathWide => (ms(1_000), ms(5_000), ms(500)),
            Kind::SynfloodOffloaded => (ms(500), ms(5_000), ms(1_000)),
        }
    }
}

/// TCP_CRR offered rate: below the 4-FE capability, so every connection
/// completes and the run is the happy path, not collapse.
const CRR_RATE: f64 = 120_000.0;
/// SYN-flood rate (distinct spoofed tuples).
const SYN_RATE: f64 = 300_000.0;
/// `fastpath_wide`: concurrent flows, packet rate and payload.
const WIDE_FLOWS: usize = 100_000;
const WIDE_GAP: SimDuration = SimDuration(1_000); // 1 000 000 pkt/s
const WIDE_BYTES: u32 = 1_400;

/// The streamed packet source of `fastpath_wide`: `WIDE_FLOWS` flows
/// visited round-robin in a seed-shuffled order, one packet per
/// `WIDE_GAP`.
struct BulkStream {
    flows: Vec<(FiveTuple, ServerId)>,
    next_at: SimTime,
    end: SimTime,
    sent: u64,
}

impl BulkStream {
    fn new(seed: u64, start: SimTime, end: SimTime) -> Self {
        let clients = harness::client_servers();
        let mut flows: Vec<(FiveTuple, ServerId)> = (0..WIDE_FLOWS)
            .map(|i| {
                let tuple = FiveTuple::tcp(
                    Ipv4Addr::new(10, 7, 2 + (i / 250 / 250) as u8, (i % 250) as u8 + 1),
                    10_000 + (i / 250 % 250) as u16,
                    harness::SERVICE_ADDR,
                    harness::SERVICE_PORT,
                );
                (tuple, clients[i % clients.len()])
            })
            .collect();
        SimRng::new(seed).shuffle(&mut flows);
        BulkStream {
            flows,
            next_at: start,
            end,
            sent: 0,
        }
    }

    /// Injects every packet due before `horizon` (and before the stream
    /// ends).
    fn inject_before(&mut self, c: &mut Cluster, horizon: SimTime) {
        let stop = horizon.min(self.end);
        while self.next_at < stop {
            let (tuple, from) = self.flows[self.sent as usize % self.flows.len()];
            c.inject_bulk_rx(harness::VNIC, tuple, WIDE_BYTES, from, self.next_at)
                .expect("the testbed vNIC exists");
            self.sent += 1;
            self.next_at += WIDE_GAP;
        }
    }
}

fn crr_specs(seed: u64, start: SimTime, duration: SimDuration) -> Vec<ConnSpec> {
    let wl = CpsWorkload::tcp_crr(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        harness::SERVICE_PORT,
        harness::client_servers(),
        CRR_RATE,
        duration,
    );
    wl.generate(start, &mut SimRng::new(seed))
}

/// The flood of `SynFlood`, from a seed-chosen attacker server, each SYN
/// moved by a seeded jitter of under half a gap (so order is kept).
fn syn_specs(seed: u64, start: SimTime, duration: SimDuration) -> Vec<ConnSpec> {
    let mut rng = SimRng::new(seed);
    let clients = harness::client_servers();
    let flood = SynFlood {
        vnic: harness::VNIC,
        vpc: harness::VPC,
        service_addr: harness::SERVICE_ADDR,
        service_port: harness::SERVICE_PORT,
        attacker_server: clients[rng.index(clients.len())],
        rate: SYN_RATE,
        duration,
    };
    let half_gap = (0.5e9 / SYN_RATE) as u64;
    let mut specs = flood.generate(start);
    for s in &mut specs {
        s.start += SimDuration(rng.range(0, half_gap));
    }
    specs
}

/// Counters read through registry handles at a segment boundary (cheap:
/// no snapshot clone).
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    completed: u64,
    failed: u64,
    denied: u64,
    pkt_ok: u64,
    pkt_dropped: u64,
    notifies: u64,
    processed: u64,
    scheduled: u64,
    sess_created: u64,
    sess_expired: u64,
    fe_hits: u64,
    fe_misses: u64,
}

fn servers(c: &Cluster) -> impl Iterator<Item = ServerId> {
    (0..c.topo.total_servers()).map(ServerId)
}

impl Counts {
    fn read(c: &Cluster) -> Self {
        let reg = c.metrics();
        let counter = |name: &str| reg.counter_value(reg.counter(name, &[]));
        let (mut sess_created, mut sess_expired) = (0, 0);
        for s in servers(c) {
            let (created, expired, _) =
                c.switch(s).expect("server in topology").sessions.counters();
            sess_created += created;
            sess_expired += expired;
        }
        let (mut fe_hits, mut fe_misses) = (0, 0);
        for fe in c.fe_servers(harness::VNIC) {
            if let Some((hits, misses, _)) = c.fe_counters(fe, harness::VNIC) {
                fe_hits += hits;
                fe_misses += misses;
            }
        }
        Counts {
            completed: counter("conn.completed"),
            failed: counter("conn.failed"),
            denied: counter("conn.denied"),
            pkt_ok: counter("pkt.ok"),
            pkt_dropped: counter("pkt.dropped"),
            notifies: counter("nsh.notifies"),
            processed: c.engine.processed(),
            scheduled: counter("engine.scheduled"),
            sess_created,
            sess_expired,
            fe_hits,
            fe_misses,
        }
    }

    fn conns_done(&self) -> u64 {
        self.completed + self.failed + self.denied
    }
}

fn live_sessions(c: &Cluster) -> usize {
    servers(c)
        .map(|s| c.switch(s).expect("server in topology").sessions.len())
        .sum()
}

/// Queue depth and session working set, sampled at slice boundaries.
#[derive(Debug, Default)]
struct Sampler {
    slices: u64,
    pending_sum: u64,
    peak_pending: usize,
    peak_live: usize,
}

impl Sampler {
    fn sample(&mut self, c: &Cluster) {
        let pending = c.engine.pending();
        self.slices += 1;
        self.pending_sum += pending as u64;
        self.peak_pending = self.peak_pending.max(pending);
        self.peak_live = self.peak_live.max(live_sessions(c));
    }
}

/// Steps the cluster from `from` to `to` in `SLICE`s. A bulk stream is
/// kept one slice ahead of the clock: slice *k+1* is injected before
/// slice *k* runs, under a span called `inject_span`.
fn run_slices(
    c: &mut Cluster,
    tr: &mut Tracer,
    (from, to): (SimTime, SimTime),
    mut bulk: Option<(&mut BulkStream, &'static str)>,
    sampler: &mut Sampler,
) {
    let mut t = from;
    while t < to {
        let next = (t + SLICE).min(to);
        if let Some((stream, inject_span)) = bulk.as_mut() {
            tr.begin(inject_span);
            stream.inject_before(c, next + SLICE);
            tr.end();
        }
        tr.begin("core.cluster.run_until");
        c.run_until(next);
        tr.end();
        sampler.sample(c);
        tr.lap();
        t = next;
    }
}

/// `(setup_s, run_wall_s)` as this child's own laps add up. (The runner
/// reports the sums of per-lap medians over the repeats instead.)
fn lap_totals_s(tr: &Tracer) -> (f64, f64) {
    let (laps, setup) = tr.laps();
    let secs = |l: &[u64]| l.iter().sum::<u64>() as f64 / 1e9;
    (secs(&laps[..setup]), secs(&laps[setup..]))
}

/// Operations the metrics registry absorbed, read off a snapshot:
/// `(counter increments, exact-histogram observations, log-histogram
/// records)`.
fn metric_ops(snap: &MetricsSnapshot) -> (u64, u64, u64) {
    let (mut incs, mut observes, mut records) = (0u64, 0u64, 0u64);
    for (_, v) in snap.iter() {
        match v {
            MetricValue::Counter(n) => incs += n,
            MetricValue::Histogram(s) => observes += s.len() as u64,
            MetricValue::LogHist(h) => records += h.count(),
            MetricValue::Gauge(_) | MetricValue::Series(_) => {}
        }
    }
    (incs, observes, records)
}

fn run_cluster(kind: Kind, seed: u64, scale: f64, tr: &mut Tracer) -> ChildReport {
    let mut rep = ChildReport::default();
    let (warm, measured_1, drain) = kind.segments();
    let measured =
        SimDuration((measured_1.nanos() as f64 * scale) as u64 / SLICE.nanos() * SLICE.nanos());
    assert!(measured >= SLICE, "scale {scale} leaves no measured slice");

    tr.begin("core.cluster.build");
    let mut c = harness::testbed(TestbedOpts::default());
    tr.end();

    // What an idle testbed keeps queued: its periodic ticks.
    let idle_pending = c.engine.pending();

    let settle = |c: &mut Cluster, tr: &mut Tracer| {
        tr.begin("core.controller.offload_settle");
        harness::offload_and_settle(c);
        tr.end();
    };
    // The flood alone is registered before the offload — at t = 0, for a
    // start after the settle — so none of it lands below the engine's
    // horizon; the others register after it, as the figures do.
    let flood = kind == Kind::SynfloodOffloaded;
    if kind.offloaded() && !flood {
        settle(&mut c, tr);
    }
    let start = if flood {
        SimTime::ZERO + SETTLE
    } else {
        c.now()
    };
    tr.begin("workloads.generate");
    let (conns, mut stream) = match kind {
        Kind::CrrOffloaded | Kind::CrrLocal => (crr_specs(seed, start, warm + measured), None),
        Kind::SynfloodOffloaded => (syn_specs(seed, start, warm + measured), None),
        Kind::FastpathWide => {
            let stream = BulkStream::new(seed, start, start + warm + measured);
            (Vec::new(), Some(stream))
        }
    };
    tr.end();
    let specs = conns.len() as u64;
    tr.begin("core.driver.register");
    for chunk in conns.chunks(REGISTER_CHUNK) {
        for s in chunk {
            c.add_conn(*s).expect("the testbed vNIC exists");
        }
        tr.lap();
    }
    tr.end();
    drop(conns);
    if flood {
        settle(&mut c, tr);
    }
    let measure_from = start + warm;
    let run_to = measure_from + measured + drain;

    tr.begin("warmup");
    let mut warm_sampler = Sampler::default();
    if let Some(s) = stream.as_mut() {
        tr.begin("core.driver.register");
        s.inject_before(&mut c, start + SLICE);
        tr.end();
    }
    run_slices(
        &mut c,
        tr,
        (start, measure_from),
        stream.as_mut().map(|s| (s, "core.driver.register")),
        &mut warm_sampler,
    );
    tr.end();

    let base = Counts::read(&c);
    let base_ops = tr.enabled().then(|| metric_ops(&c.metrics().snapshot()));
    let base_sent = stream.as_ref().map_or(0, |s| s.sent);
    let alloc_setup = alloc::counts();
    tr.end(); // setup
    tr.end_setup_laps();

    tr.begin("run");
    let mut sampler = Sampler::default();
    run_slices(
        &mut c,
        tr,
        (measure_from, run_to),
        stream.as_mut().map(|s| (s, "core.driver.inject")),
        &mut sampler,
    );
    tr.end();
    let alloc_run = alloc::counts();
    let (setup_s, run_wall_s) = lap_totals_s(tr);

    tr.begin("verify");
    tr.begin("core.cluster.snapshot");
    let stats = c.stats();
    let snap = c.metrics().snapshot();
    tr.end();
    let end = Counts::read(&c);
    let vswitch_drops: u64 = snap
        .iter()
        .filter(|(k, _)| k.starts_with("vswitch.") && k.contains("_drops"))
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();
    let pkt_dropped = end.pkt_dropped - base.pkt_dropped;

    // Work and failures over the measured segment + drain.
    let (attempted, work, packets) = match &stream {
        Some(s) => {
            let injected = s.sent - base_sent;
            let lost = (pkt_dropped + vswitch_drops).min(injected);
            (injected, injected - lost, injected)
        }
        None => (
            specs - base.conns_done(),
            end.completed - base.completed,
            end.pkt_ok - base.pkt_ok + pkt_dropped,
        ),
    };

    // Conservation. None of these pins a value; each says nothing was
    // lost between two places that count the same thing.
    let mut check = |ok: bool, what: String| {
        if !ok {
            rep.violations.push(what);
        }
    };
    let injected_pkts: f64 = stats.total_series.points().iter().map(|(_, v)| v).sum();
    check(
        injected_pkts as u64 == end.pkt_ok + end.pkt_dropped,
        format!(
            "packets: injected {injected_pkts} != ok {} + dropped {}",
            end.pkt_ok, end.pkt_dropped
        ),
    );
    check(
        stats.conn_latency.len() as u64 == end.completed,
        format!(
            "connections: {} latencies for {} completions",
            stats.conn_latency.len(),
            end.completed
        ),
    );
    check(
        end.conns_done() <= specs,
        format!(
            "connections: {} finished of {specs} offered",
            end.conns_done()
        ),
    );
    check(
        end.scheduled - end.processed == c.engine.pending() as u64,
        format!(
            "engine: scheduled {} - processed {} != pending {}",
            end.scheduled,
            end.processed,
            c.engine.pending()
        ),
    );
    check(
        c.engine.pending() == idle_pending,
        format!(
            "drain: {} events pending, {idle_pending} when idle",
            c.engine.pending()
        ),
    );

    let mut digest = Digest::new();
    digest.word(c.engine.processed());
    digest.word(c.now().0);
    for (k, v) in snap.iter() {
        match v {
            MetricValue::Counter(n) => {
                digest.bytes(k.as_bytes());
                digest.word(*n);
            }
            MetricValue::Histogram(s) => {
                digest.bytes(k.as_bytes());
                digest.word(s.len() as u64);
                digest.word(s.mean().to_bits());
            }
            MetricValue::Gauge(g) => {
                digest.bytes(k.as_bytes());
                digest.word(g.to_bits());
            }
            _ => {}
        }
    }
    rep.digest = digest.0;
    tr.end(); // verify

    let events = end.processed - base.processed;
    let created = end.sess_created - base.sess_created;
    rep.put("setup_s", setup_s);
    rep.put("run_wall_s", run_wall_s);
    rep.put("work", work as f64);
    rep.put("attempted", attempted as f64);
    // Whatever was attempted and is not done — refused, lost, or still
    // in flight after the drain — has failed.
    rep.put("failed", (attempted - work) as f64);
    rep.put("raw.packets", packets as f64);
    rep.put(
        "raw.mean_pending",
        sampler.pending_sum as f64 / sampler.slices as f64,
    );
    // Connections registered up front, or packets streamed in.
    let registered = specs.max(stream.as_ref().map_or(0, |s| s.sent));
    rep.put("workloads.specs", registered as f64);
    rep.put(
        "core.datapath.fe_rx_pkts",
        ((end.fe_hits + end.fe_misses) - (base.fe_hits + base.fe_misses)) as f64,
    );
    rep.put(
        "core.datapath.notifies",
        (end.notifies - base.notifies) as f64,
    );
    rep.put("sim.engine.events", events as f64);
    rep.put(
        "sim.engine.scheduled",
        (end.scheduled - base.scheduled) as f64,
    );
    rep.put("sim.engine.peak_pending", sampler.peak_pending as f64);
    rep.put("sim.engine.events_per_wall_s", events as f64 / run_wall_s);
    rep.put(
        "core.cluster.ns_per_event",
        run_wall_s * 1e9 / events.max(1) as f64,
    );
    rep.put(
        "vswitch.fast_path_share",
        1.0 - created as f64 / packets.max(1) as f64,
    );
    // A slow-path lookup runs where the rule tables are: at the FEs
    // once offloaded (one per FE cache miss), at the home switch before
    // (one per session it creates).
    let lookups = if kind.offloaded() {
        end.fe_misses - base.fe_misses
    } else {
        created
    };
    rep.put("vswitch.stage.lookups", lookups as f64);
    rep.put("vswitch.session.created", created as f64);
    rep.put(
        "vswitch.session.expired",
        (end.sess_expired - base.sess_expired) as f64,
    );
    rep.put("vswitch.session.peak_live", sampler.peak_live as f64);
    rep.put("alloc.setup_mb", alloc_setup.1 as f64 / 1e6);
    rep.put(
        "alloc.calls_per_event",
        (alloc_run.0 - alloc_setup.0) as f64 / events.max(1) as f64,
    );
    rep.put(
        "alloc.bytes_per_event",
        (alloc_run.1 - alloc_setup.1) as f64 / events.max(1) as f64,
    );
    if let Some((incs0, observes0, records0)) = base_ops {
        let (incs, observes, records) = metric_ops(&snap);
        rep.put("raw.counter_incs", (incs - incs0) as f64);
        rep.put("raw.hist_observes", (observes - observes0) as f64);
        rep.put("raw.loghist_records", (records - records0) as f64);
    }
    let measured_slices = (measured.nanos() / SLICE.nanos()) as usize;
    put_span_metrics(&mut rep, tr, registered, measured_slices);
    rep
}

/// The span-derived per-layer values (zero from an untraced child).
/// The first `measured_slices` slices of the run are the measured
/// segment; the rest is the drain.
fn put_span_metrics(rep: &mut ChildReport, tr: &Tracer, register_ops: u64, measured_slices: usize) {
    if !tr.enabled() {
        return;
    }
    rep.put("workloads.generate_s", tr.total_s("workloads.generate"));
    rep.put("core.cluster.build_s", tr.total_s("core.cluster.build"));
    rep.put(
        "core.controller.offload_settle_s",
        tr.total_s("core.controller.offload_settle"),
    );
    let register_s = tr.total_s("core.driver.register") + tr.total_s("core.driver.inject");
    rep.put("core.driver.register_s", register_s);
    rep.put(
        "core.driver.register_ns_per_op",
        register_s * 1e9 / register_ops.max(1) as f64,
    );
    let run_until = tr.durations_under_s("core.cluster.run_until", Some("run"));
    rep.put(
        "core.cluster.run_until_s",
        run_until.iter().sum::<f64>() + 0.0,
    );
    // Slice percentiles are over the measured segment: the drain's
    // slices are idle and would only say that idling is fast.
    let slices = crate::stats::sorted(&run_until[..measured_slices.min(run_until.len())]);
    rep.put("core.cluster.slices", slices.len() as f64);
    rep.put(
        "core.cluster.slice_p50_us",
        crate::stats::percentile(&slices, 50.0) * 1e6,
    );
    // p99 only when the rule allows it (>= 1 000 slices); otherwise the
    // highest percentile the slice count supports, named by `slice_tail_pct`.
    let tail = crate::stats::supported_percentile(slices.len())
        .unwrap_or(50.0)
        .min(99.0);
    rep.put("core.cluster.slice_tail_pct", tail);
    rep.put(
        "core.cluster.slice_p99_us",
        crate::stats::percentile(&slices, tail) * 1e6,
    );
    rep.put(
        "core.cluster.snapshot_s",
        tr.total_s("core.cluster.snapshot"),
    );
    rep.put(
        "core.region.run_scenario_s",
        tr.total_s("core.region.run_scenario"),
    );
    // Where the child's wall time went, span by span: self times
    // partition the root span, so these sum to the child's wall time.
    for (name, self_s) in crate::trace::self_time_by_name_s(tr.spans()) {
        rep.put(&format!("self.{name}"), self_s);
    }
}

/// `region_month` sizing: the `region10k` shape of `experiments bench`.
const REGION_SERVERS: usize = 10_000;
const REGION_TENANTS: u64 = 1_000_000;
const REGION_DAYS: usize = 30;
const REGION_WARM_DAYS: usize = 5;
/// 30-day runs in the measured segment at scale 1.
const REGION_RUNS: f64 = 6.0;

fn region_cfg(seed: u64, shards: u32) -> RegionConfig {
    RegionConfig {
        servers: REGION_SERVERS,
        shards,
        tenants: REGION_TENANTS,
        epoch: SimDuration::from_secs(1800),
        seed,
        ..RegionConfig::default()
    }
}

/// A region with the windows and the two SLO rules `experiments bench`
/// enables on `region10k`.
fn region_with_windows(cfg: RegionConfig) -> Region {
    let mut region = Region::new(cfg);
    region.enable_windows(
        64,
        vec![
            SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
            SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        ],
    );
    region
}

fn scenario(days: usize) -> Scenario {
    Scenario {
        days,
        ..Scenario::production_day()
    }
}

/// Folds a region report into the digest: every counter and every raw
/// utilization and completion sample, in report order. (Cheaper than
/// `bench_report().deterministic_json()`, which sorts 14.4 M samples
/// per run to take percentiles, and it covers every sample, not four
/// quantiles of them.)
fn digest_region(digest: &mut Digest, r: &RegionReport) {
    for daily in [&r.daily_cps, &r.daily_flows, &r.daily_vnics] {
        for n in daily {
            digest.word(*n);
        }
    }
    for n in [
        r.offload_events,
        r.offload_denied,
        r.total_fes_provisioned,
        r.scale_out_events,
        r.tenant_births,
        r.tenant_deaths,
        r.migrations,
        r.flash_crowds,
        r.fault_crashes,
    ] {
        digest.word(n);
    }
    for samples in [&r.cpu_utils, &r.mem_utils, &r.completion_times] {
        digest.word(samples.len() as u64);
        for v in samples.raw() {
            digest.word(v.to_bits());
        }
    }
}

fn run_region(seed: u64, scale: f64, tr: &mut Tracer) -> ChildReport {
    let mut rep = ChildReport::default();
    // At least two, so that one stalled run is not the whole measurement.
    let runs = (REGION_RUNS * scale).round().max(2.0) as u64;

    tr.begin("warmup");
    let mut warm = region_with_windows(region_cfg(derive_seed_indexed(seed, "bench.region", 0), 8));
    let warm_report = warm.run_scenario(&scenario(REGION_WARM_DAYS), true);
    drop((warm, warm_report));
    tr.end();
    let alloc_setup = alloc::counts();
    tr.end(); // setup
    tr.end_setup_laps();

    let mut digest = Digest::new();
    let (mut samples, mut granted, mut denied) = (0u64, 0u64, 0u64);
    let (mut windows, mut slo_events, mut peak_pending) = (0u64, 0u64, 0usize);
    let mut alloc_run = (0u64, 0u64);
    for i in 1..=runs {
        tr.begin("run");
        let a0 = alloc::counts();
        tr.begin("core.region.new");
        let mut region =
            region_with_windows(region_cfg(derive_seed_indexed(seed, "bench.region", i), 8));
        tr.end();
        tr.begin("core.region.run_scenario");
        let report = region.run_scenario(&scenario(REGION_DAYS), true);
        tr.end();
        tr.lap();
        let a1 = alloc::counts();
        alloc_run = (alloc_run.0 + a1.0 - a0.0, alloc_run.1 + a1.1 - a0.1);
        tr.end();

        // Checking, not the workload: outside `run_wall_s`.
        tr.begin("verify");
        let expected = (REGION_SERVERS * REGION_DAYS * 48) as u64;
        if report.cpu_utils.len() as u64 != expected {
            rep.violations.push(format!(
                "region run {i}: {} samples, {expected} server-epochs",
                report.cpu_utils.len()
            ));
        }
        samples += report.cpu_utils.len() as u64;
        granted += report.offload_events;
        denied += report.offload_denied;
        peak_pending = peak_pending.max(region.pending_events());
        let rollup = region.windows().expect("windows enabled");
        windows += rollup.closed();
        slo_events += rollup.watchdog().events().len() as u64;
        digest_region(&mut digest, &report);
        drop((region, report));
        tr.end();
        tr.skip_lap();
    }
    rep.digest = digest.0;
    let (setup_s, run_wall_s) = lap_totals_s(tr);

    // What sharding costs or buys when shards run one after another.
    if tr.enabled() {
        tr.begin("core.region.shards_probe");
        let probe_seed = derive_seed_indexed(seed, "bench.region", 1);
        let time = |shards: u32| {
            let mut region = region_with_windows(region_cfg(probe_seed, shards));
            let t0 = Instant::now();
            let report = region.run_scenario(&scenario(REGION_DAYS), true);
            let wall = t0.elapsed().as_secs_f64();
            std::hint::black_box(report.offload_events);
            wall
        };
        let (one, eight) = (time(1), time(8));
        rep.put("core.region.shards1_over_shards8", one / eight);
        tr.end();
    }

    rep.put("setup_s", setup_s);
    rep.put("run_wall_s", run_wall_s);
    rep.put("work", samples as f64);
    // Failures here are offload requests the FE pool refused.
    rep.put("attempted", (granted + denied) as f64);
    rep.put("failed", denied as f64);
    rep.put(
        "core.region.ns_per_sample",
        run_wall_s * 1e9 / samples.max(1) as f64,
    );
    rep.put("core.region.offload_events", granted as f64);
    rep.put("sim.obs.windows_closed", windows as f64);
    rep.put("sim.obs.slo_events", slo_events as f64);
    rep.put("sim.engine.peak_pending", peak_pending as f64);
    rep.put("raw.mean_pending", peak_pending as f64);
    rep.put("alloc.setup_mb", alloc_setup.1 as f64 / 1e6);
    rep.put(
        "alloc.calls_per_event",
        alloc_run.0 as f64 / samples.max(1) as f64,
    );
    rep.put(
        "alloc.bytes_per_event",
        alloc_run.1 as f64 / samples.max(1) as f64,
    );
    put_span_metrics(&mut rep, tr, 0, 0);
    rep
}
