//! Refactor-equivalence harness: pins the observable behavior of the
//! datapath against fixtures generated **before** the `cluster.rs`
//! decomposition. Four scenario families (testbed, chaos,
//! profile, multi_vnic) run on three seeds each; for every run the full
//! [`ClusterStats`] view, the FNV-1a hash of the metrics snapshot JSON,
//! and (for the profile scenario) the complete flamegraph text must be
//! byte-identical to the checked-in pre-refactor fixture.
//!
//! To regenerate the fixtures (only legitimate when a PR *intentionally*
//! changes datapath behavior and says so):
//!
//! ```sh
//! NEZHA_REGEN_FIXTURES=1 cargo test --test refactor_equivalence
//! ```

use nezha::core::cluster::{Cluster, ClusterConfig, ClusterStats};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::controller::ControllerConfig;
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::rng::SimRng;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::workloads::cps::CpsWorkload;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [41, 42, 43];

/// FNV-1a, 64-bit. Stable across platforms and std versions, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders every field of [`ClusterStats`] into a line-oriented text
/// form. Floats are rendered as raw bits so "identical" means
/// bit-identical, not approximately equal.
fn stats_repr(stats: &mut ClusterStats) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        let _ = writeln!(out, "{k}={v}");
    };
    line("pkts.ok", stats.pkts.ok.to_string());
    line("pkts.dropped", stats.pkts.dropped.to_string());
    line("completed", stats.completed.to_string());
    line("denied", stats.denied.to_string());
    line("failed", stats.failed.to_string());
    line("notifies", stats.notifies.to_string());
    line("mirror_copies", stats.mirror_copies.to_string());
    line("stale_bounces", stats.stale_bounces.to_string());
    line("misroutes", stats.misroutes.to_string());
    line("offload_events", stats.offload_events.to_string());
    line("scale_out_events", stats.scale_out_events.to_string());
    line("scale_in_events", stats.scale_in_events.to_string());
    line("fallback_events", stats.fallback_events.to_string());
    line("failover_events", stats.failover_events.to_string());
    line("monitor_suspensions", stats.monitor_suspensions.to_string());
    line("fault_events", stats.fault_events.to_string());
    line("degraded_events", stats.degraded_events.to_string());
    line("rehash_churn", stats.rehash_churn.to_string());
    for (name, s) in [
        ("probe_latency", &mut stats.probe_latency),
        ("conn_latency", &mut stats.conn_latency),
        ("offload_completion", &mut stats.offload_completion),
        ("detection_latency", &mut stats.detection_latency),
    ] {
        let (mean, p50, p90, p99, p999, p9999) = s.summary();
        let _ = writeln!(
            out,
            "{name}: n={} mean={:016x} p50={:016x} p90={:016x} p99={:016x} \
             p999={:016x} p9999={:016x} max={:016x}",
            s.len(),
            mean.to_bits(),
            p50.to_bits(),
            p90.to_bits(),
            p99.to_bits(),
            p999.to_bits(),
            p9999.to_bits(),
            s.max().to_bits(),
        );
    }
    for (name, series) in [
        ("cps_series", &stats.cps_series),
        ("loss_series", &stats.loss_series),
        ("total_series", &stats.total_series),
    ] {
        let points = series.points();
        let mut text = String::new();
        for (t, v) in &points {
            let _ = writeln!(text, "{:016x} {:016x}", t.to_bits(), v.to_bits());
        }
        let _ = writeln!(
            out,
            "{name}: bins={} hash={:016x}",
            points.len(),
            fnv1a(text.as_bytes())
        );
    }
    out
}

fn push_metrics_hash(out: &mut String, c: &Cluster) {
    let _ = writeln!(
        out,
        "metrics_hash={:016x}",
        fnv1a(c.metrics().snapshot().to_json().as_bytes())
    );
}

fn base_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .seed(seed)
        .build()
}

fn offloaded_cluster(cfg: ClusterConfig) -> Cluster {
    let mut c = Cluster::new(cfg);
    let mut vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    vnic.allow_inbound_port(9000);
    c.add_vnic(vnic, ServerId(0), VmConfig::with_vcpus(64))
        .unwrap();
    c.trigger_offload(VnicId(1), SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    c
}

fn inbound_conns(c: &mut Cluster, n: u32) {
    for i in 0..n {
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i) as u16,
                Ipv4Addr::new(10, 7, 0, 1),
                9000,
            ),
            peer_server: ServerId(12 + i % 12),
            kind: ConnKind::Inbound,
            start: c.now() + SimDuration::from_micros(700 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
}

/// Plain offloaded testbed: 300 inbound connections plus a mid-run FE
/// crash, exercising be/fe handlers, retries, and failover.
fn run_testbed(seed: u64) -> String {
    let mut c = offloaded_cluster(base_config(seed));
    c.enable_trace(8192);
    inbound_conns(&mut c, 300);
    let victim = c.fe_servers(VnicId(1))[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_millis(150), victim));
    c.run_until(c.now() + SimDuration::from_secs(8));
    let mut out = stats_repr(&mut c.stats());
    push_metrics_hash(&mut out, &c);
    let _ = writeln!(out, "trace_events={}", c.trace().events().len());
    out
}

/// The chaos scenario from `tests/determinism.rs`: scripted crash,
/// bursty Gilbert–Elliott link loss on the BE↔FE path, restart, heal.
fn run_chaos(seed: u64) -> String {
    use nezha::sim::fault::GilbertElliott;
    let mut c = offloaded_cluster(base_config(seed));
    inbound_conns(&mut c, 300);
    let fes = c.fe_servers(VnicId(1));
    let t0 = c.now();
    c.apply_fault_plan(
        FaultPlan::new()
            .crash(t0 + SimDuration::from_millis(500), fes[0])
            .bursty_loss(
                t0 + SimDuration::from_millis(800),
                ServerId(0),
                fes[1],
                GilbertElliott::bursty(),
            )
            .restart(t0 + SimDuration::from_secs(3), fes[0])
            .link_heal(t0 + SimDuration::from_secs(4), ServerId(0), fes[1]),
    );
    c.run_until(t0 + SimDuration::from_secs(8));
    let mut out = stats_repr(&mut c.stats());
    push_metrics_hash(&mut out, &c);
    out
}

/// The profiling scenario: `notify_always` plus mixed inbound/outbound
/// traffic with the profiler on, so the BE→FE→notify→BE causal chains
/// appear in the flamegraph. The full collapsed-stack text is pinned.
fn run_profile(seed: u64) -> String {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .notify_always(true)
        .seed(seed)
        .build();
    let mut c = offloaded_cluster(cfg);
    c.enable_profile(1 << 16);
    for i in 0..200u32 {
        let outbound = i % 5 == 0;
        let tuple = if outbound {
            FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 0, 1),
                (30_000 + i) as u16,
                Ipv4Addr::new(10, 7, 3, (i % 200) as u8 + 1),
                4433,
            )
        } else {
            FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i) as u16,
                Ipv4Addr::new(10, 7, 0, 1),
                9000,
            )
        };
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple,
            peer_server: ServerId(12 + i % 12),
            kind: if outbound {
                ConnKind::Outbound
            } else {
                ConnKind::Inbound
            },
            start: c.now() + SimDuration::from_micros(700 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(6));
    let mut out = stats_repr(&mut c.stats());
    push_metrics_hash(&mut out, &c);
    let _ = writeln!(
        out,
        "chrome_trace_hash={:016x}",
        fnv1a(c.profiler().chrome_trace().as_bytes())
    );
    let _ = writeln!(out, "--- flamegraph ---");
    out.push_str(&c.profiler().flamegraph());
    out
}

/// Multi-vNIC concurrent offload on a multi-pod fabric: 128 servers in
/// 4 pods with 1-core vSwitches, four vNICs on four homes offloaded at
/// once onto 4 FEs each (`initial_fes = min_fes = 4`), then TCP_CRR to
/// every vNIC from 8 clients in another pod. The load is short (250 ms
/// at 18k conn/s per vNIC) so the family stays cheap in a debug build.
fn run_multi_vnic(seed: u64) -> String {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 16,
            racks_per_pod: 2,
            pods: 4,
        })
        .cores(1)
        .controller(ControllerConfig {
            initial_fes: 4,
            min_fes: 4,
            ..ControllerConfig::default()
        })
        .seed(seed)
        .build();
    let mut c = Cluster::new(cfg);
    let vnics: Vec<(VnicId, Ipv4Addr)> = (0..4u32)
        .map(|i| (VnicId(i + 1), Ipv4Addr::new(10, 7, 0, (i + 1) as u8)))
        .collect();
    for (i, &(id, addr)) in vnics.iter().enumerate() {
        let home = ServerId(i as u32);
        let mut vnic = Vnic::new(id, VpcId(1), addr, VnicProfile::default(), home);
        vnic.allow_inbound_port(9000);
        let vm = VmConfig {
            vcpus: 64,
            per_core_cps: 13_425.0,
        };
        c.add_vnic(vnic, home, vm).unwrap();
    }
    for &(id, _) in &vnics {
        c.trigger_offload(id, c.now()).unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(3));
    let start = c.now();
    let clients: Vec<ServerId> = (64..72).map(ServerId).collect();
    for (i, &(id, addr)) in vnics.iter().enumerate() {
        let wl = CpsWorkload::tcp_crr(
            id,
            VpcId(1),
            addr,
            9000,
            clients.clone(),
            18_000.0,
            SimDuration::from_millis(250),
        );
        let mut rng = SimRng::new(seed ^ (i as u64 + 1));
        for spec in wl.generate(start, &mut rng) {
            c.add_conn(spec).unwrap();
        }
    }
    c.run_until(start + SimDuration::from_secs(2));
    let mut out = stats_repr(&mut c.stats());
    for &(id, _) in &vnics {
        let _ = writeln!(out, "fes[{}]={:?}", id.0, c.fe_servers(id));
    }
    push_metrics_hash(&mut out, &c);
    out
}

fn fixture_path(name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/refactor")
        .join(format!("{name}_seed{seed}.txt"))
}

fn check_or_regen(name: &str, seed: u64, actual: &str) {
    let path = fixture_path(name, seed);
    if std::env::var("NEZHA_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing pre-refactor fixture {} ({e}); run with \
             NEZHA_REGEN_FIXTURES=1 only if a behavior change is intended",
            path.display()
        )
    });
    if expected != actual {
        // Show the first diverging line, not a wall of text.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        match mismatch {
            Some((i, (e, a))) => panic!(
                "{name} seed {seed} diverged from the pre-refactor fixture \
                 at line {}:\n  fixture: {e}\n  actual:  {a}",
                i + 1
            ),
            None => panic!(
                "{name} seed {seed} diverged from the pre-refactor fixture \
                 (line counts differ: fixture {} vs actual {})",
                expected.lines().count(),
                actual.lines().count()
            ),
        }
    }
}

#[test]
fn testbed_scenario_matches_pre_refactor_fixtures() {
    for seed in SEEDS {
        check_or_regen("testbed", seed, &run_testbed(seed));
    }
}

#[test]
fn chaos_scenario_matches_pre_refactor_fixtures() {
    for seed in SEEDS {
        check_or_regen("chaos", seed, &run_chaos(seed));
    }
}

#[test]
fn profile_scenario_matches_pre_refactor_fixtures() {
    for seed in SEEDS {
        check_or_regen("profile", seed, &run_profile(seed));
    }
}

#[test]
fn multi_vnic_scenario_matches_pre_refactor_fixtures() {
    for seed in SEEDS {
        check_or_regen("multi_vnic", seed, &run_multi_vnic(seed));
    }
}
