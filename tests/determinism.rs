//! Determinism guarantees: identical seeds produce identical runs, and
//! different seeds genuinely differ. Every recorded experiment depends on
//! this property.

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::sim::topology::TopologyConfig;
use nezha::sim::trace::TraceEvent;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

fn run_scenario(seed: u64) -> (u64, u64, u64, f64, Vec<ServerId>, u64) {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .seed(seed)
        .build();
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
    for i in 0..500u32 {
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
    // Inject a crash mid-run for the failure paths too.
    let victim = c.fe_servers(VnicId(1))[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now() + SimDuration::from_millis(150), victim));
    c.run_until(c.now() + SimDuration::from_secs(8));

    let mut fes = c.fe_servers(VnicId(1));
    fes.sort_unstable_by_key(|s| s.0);
    (
        c.stats().completed,
        c.stats().failed,
        c.stats().pkts.dropped,
        c.stats().offload_completion.mean(),
        fes,
        c.engine.processed(),
    )
}

#[test]
fn identical_seeds_replay_identically() {
    let a = run_scenario(42);
    let b = run_scenario(42);
    assert_eq!(a.0, b.0, "completed");
    assert_eq!(a.1, b.1, "failed");
    assert_eq!(a.2, b.2, "dropped");
    assert_eq!(a.3.to_bits(), b.3.to_bits(), "completion time");
    assert_eq!(a.4, b.4, "FE set");
    assert_eq!(a.5, b.5, "event count");
}

/// Same scenario as [`run_scenario`], but returns the full telemetry:
/// the serialized metrics snapshot and the recorded trace events.
fn run_telemetry_scenario(seed: u64) -> (String, Vec<TraceEvent>) {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .seed(seed)
        .build();
    let mut c = Cluster::new(cfg);
    c.enable_trace(8192);
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
    for i in 0..300u32 {
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
    c.run_until(c.now() + SimDuration::from_secs(6));
    (c.metrics().snapshot().to_json(), c.trace().events())
}

#[test]
fn telemetry_is_deterministic_across_same_seed_runs() {
    let (json_a, trace_a) = run_telemetry_scenario(42);
    let (json_b, trace_b) = run_telemetry_scenario(42);
    // The serialized metrics snapshot is byte-identical ...
    assert_eq!(json_a, json_b, "metrics snapshots diverged");
    // ... and the trace replays the exact same event sequence.
    assert_eq!(trace_a.len(), trace_b.len(), "trace lengths diverged");
    for (a, b) in trace_a.iter().zip(trace_b.iter()) {
        assert_eq!(a, b, "trace events diverged");
    }
    // The run did real work: counters registered and events recorded.
    assert!(json_a.contains("\"conn.completed\""));
    assert!(!trace_a.is_empty(), "trace recorded nothing");
}

#[test]
fn snapshot_histogram_percentiles_match_samples() {
    let cfg = ClusterConfig::builder().auto(false).seed(7).build();
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
    for i in 0..200u32 {
        c.add_conn(ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i) as u16,
                Ipv4Addr::new(10, 7, 0, 1),
                9000,
            ),
            peer_server: ServerId(8 + i % 8),
            kind: ConnKind::Inbound,
            start: SimTime::ZERO + SimDuration::from_micros(700 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    c.run_until(SimTime::ZERO + SimDuration::from_secs(5));
    // The registry-backed histogram and the legacy Samples view are the
    // same data: every percentile must agree bit-for-bit.
    let mut snap_hist = c.metrics().snapshot().histogram("latency.conn");
    let mut legacy = c.stats().conn_latency;
    assert!(!snap_hist.is_empty(), "no latency samples recorded");
    assert_eq!(snap_hist.len(), legacy.len());
    for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
        assert_eq!(
            snap_hist.percentile(p).to_bits(),
            legacy.percentile(p).to_bits(),
            "percentile {p} diverged between snapshot and Samples"
        );
    }
}

#[test]
fn snapshots_are_seed_identical_and_seed_sensitive() {
    // The exact property `clippy.toml`'s disallowed lists protect: with
    // hash-order iteration, wall-clock reads, or ambient entropy anywhere
    // in the sim-visible crates, one of these two assertions fails.
    let (json_a1, _) = run_telemetry_scenario(42);
    let (json_a2, _) = run_telemetry_scenario(42);
    assert_eq!(json_a1, json_a2, "same seed must be byte-identical");

    let (json_b, _) = run_telemetry_scenario(43);
    assert_ne!(
        json_a1, json_b,
        "different seeds produced byte-identical snapshots (jitter dead?)"
    );
}

/// Same telemetry scenario with a scripted fault plan on top: FE crash,
/// a bursty Gilbert–Elliott channel on the BE↔FE path, and a restart.
/// Covers the whole `nezha_sim::fault` engine — scheduling, the derived
/// fault RNG stream, link-state machines, and recovery metrics.
fn run_chaos_telemetry_scenario(seed: u64) -> String {
    use nezha::sim::fault::GilbertElliott;
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 12,
            racks_per_pod: 2,
            pods: 1,
        })
        .auto(false)
        .seed(seed)
        .build();
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
    for i in 0..300u32 {
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
    c.metrics().snapshot().to_json()
}

#[test]
fn chaos_snapshots_are_seed_identical_and_seed_sensitive() {
    // The Fig. 14 recovery time-series under faults is a golden artifact:
    // same seed → byte-identical, different seed → genuinely different.
    let a1 = run_chaos_telemetry_scenario(42);
    let a2 = run_chaos_telemetry_scenario(42);
    assert_eq!(a1, a2, "chaos run must replay byte-identically");
    // The fault machinery actually ran.
    assert!(a1.contains("\"fault.events\": {\"type\": \"counter\", \"value\": 4}"));

    let b = run_chaos_telemetry_scenario(43);
    assert_ne!(
        a1, b,
        "different seeds produced byte-identical chaos snapshots"
    );
}

/// The `experiments profile` scenario in miniature: offloaded vNIC,
/// profiler on, mixed inbound/outbound traffic with `notify_always` so
/// the BE→FE→BE notify chain is exercised. Returns the two artifacts the
/// subcommand exports: the collapsed-stack flamegraph text and the
/// Chrome `trace_event` JSON.
fn run_profile_scenario(seed: u64) -> (String, String) {
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
    (c.profiler().flamegraph(), c.profiler().chrome_trace())
}

#[test]
fn profile_artifacts_are_seed_identical_and_seed_sensitive() {
    // The two files `experiments profile` writes are golden artifacts:
    // same seed → byte-identical (SimTime only, deterministic ordering),
    // different seed → genuinely different.
    let (fg_a1, ct_a1) = run_profile_scenario(42);
    let (fg_a2, ct_a2) = run_profile_scenario(42);
    assert_eq!(fg_a1, fg_a2, "flamegraph must replay byte-identically");
    assert_eq!(ct_a1, ct_a2, "chrome trace must replay byte-identically");
    // The run profiled real work, including the cross-server chains.
    assert!(fg_a1.contains("be_tx;nsh_encap;fe_tx_carry"));
    assert!(fg_a1.contains("fe_rx;nsh_encap;be_rx_carry"));
    assert!(ct_a1.contains("\"traceEvents\""));

    let (fg_b, ct_b) = run_profile_scenario(43);
    assert!(
        fg_a1 != fg_b || ct_a1 != ct_b,
        "different seeds produced byte-identical profile artifacts"
    );
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = run_scenario(1);
    let b = run_scenario(2);
    // The workload is identical; the seeds drive config-push jitter, so
    // at minimum the activation time must differ.
    assert!(
        a.3.to_bits() != b.3.to_bits() || a.5 != b.5 || a.4 != b.4,
        "seeds 1 and 2 produced byte-identical runs"
    );
}

/// Everything a region run produces: every counter and daily row, the
/// raw bits of each sample set, the window stream and the SLO event
/// count. The region applies its samples and windows on a second thread,
/// so this is also the check that thread timing never reaches output.
fn run_region_scenario(seed: u64) -> (Vec<u64>, Vec<String>, usize) {
    use nezha::core::region::{Region, RegionConfig, Scenario};
    use nezha::sim::obs::SloRule;
    let mut region = Region::new(RegionConfig {
        servers: 1_200,
        shards: 4,
        seed,
        epoch: SimDuration::from_secs(3600),
        tenants: 60_000,
        spike_prob: 0.01,
        ..RegionConfig::default()
    });
    region.enable_windows(
        24,
        vec![
            SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
            SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        ],
    );
    let r = region.run_scenario(&Scenario::production_day(), true);
    let mut bits = vec![
        r.offload_events,
        r.offload_denied,
        r.total_fes_provisioned,
        r.scale_out_events,
        r.tenant_births,
        r.tenant_deaths,
        r.migrations,
        r.flash_crowds,
        r.fault_crashes,
    ];
    for daily in [&r.daily_cps, &r.daily_flows, &r.daily_vnics] {
        bits.extend(daily.iter().copied());
    }
    for samples in [&r.cpu_utils, &r.mem_utils, &r.completion_times] {
        bits.push(samples.len() as u64);
        bits.extend(samples.raw().iter().map(|v| v.to_bits()));
    }
    let w = region.windows().unwrap();
    (bits, w.jsonl_lines().to_vec(), w.watchdog().events().len())
}

#[test]
fn region_runs_replay_identically() {
    let a = run_region_scenario(42);
    let b = run_region_scenario(42);
    assert_eq!(a.0, b.0, "report counters or sample bits diverged");
    assert_eq!(a.1, b.1, "window stream diverged");
    assert_eq!(a.2, b.2, "SLO event count diverged");
    // The run did real work: one window per hour, samples for every
    // server-epoch, and a production day trips the rules.
    assert_eq!(a.1.len(), 24);
    assert!(a.2 > 0, "no SLO event");

    let c = run_region_scenario(43);
    assert_ne!(a.0, c.0, "seeds 42 and 43 produced byte-identical reports");
}
