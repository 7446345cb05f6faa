//! Ablations of Nezha's design choices, beyond the paper's own figures.
//!
//! DESIGN.md commits to exercising the choices the paper argues for in
//! prose; each ablation here flips exactly one of them and measures the
//! cost the paper predicts:
//!
//! 1. **flow-level vs packet-level load balancing** (§3.2.3): per-packet
//!    spreading duplicates rule lookups and cached flows across FEs;
//! 2. **notify suppression** (§3.2.2): notifying on every FE miss instead
//!    of only when rule-table-involved state differs floods the BE;
//! 3. **dual-running stage** (§4.2.1): deleting the BE's tables before
//!    peers learn the FE mapping forces in-flight packets onto the bounce
//!    path, adding detours during activation;
//! 4. **variable-length states** (§7.1): the measured state census implies
//!    the #concurrent-flow headroom the paper projects.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_core::cluster::{Cluster, LbMode};
use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, SessionState, VpcId};

/// Runs all ablations. Each cluster run's registry dump is attached as
/// the artifact `<ablation>_<arm>.metrics.json`.
pub fn run() -> BenchReport {
    banner(
        "Ablations",
        "Design-choice studies (beyond the paper's figures)",
    );
    let report = BenchReport::new("ablations");
    let report = lb_granularity(report);
    let report = notify_suppression(report);
    let report = dual_running(report);
    variable_state(report)
}

fn drive(c: &mut Cluster, conns: u32) {
    let t = c.now();
    for i in 0..conns {
        c.add_conn(ConnSpec {
            vnic: harness::VNIC,
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                (1024 + i / 200 * 211 + i % 200) as u16,
                harness::SERVICE_ADDR,
                harness::SERVICE_PORT,
            ),
            peer_server: harness::client_servers()[(i % 8) as usize],
            kind: ConnKind::Inbound,
            start: t + SimDuration::from_micros(500 * i as u64),
            payload: 100,
            overlay_encap_src: None,
        })
        .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(4));
}

fn fresh(f: impl FnOnce(&mut nezha_core::ClusterConfig)) -> Cluster {
    let mut cfg = harness::testbed(TestbedOpts::scaled()).cfg;
    f(&mut cfg);
    let mut c = Cluster::new(cfg);
    let mut vnic = nezha_vswitch::vnic::Vnic::new(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        nezha_vswitch::vnic::VnicProfile::default(),
        harness::HOME,
    );
    vnic.allow_inbound_port(harness::SERVICE_PORT);
    c.add_vnic(vnic, harness::HOME, nezha_core::vm::VmConfig::default())
        .unwrap();
    c
}

fn offloaded(f: impl FnOnce(&mut nezha_core::ClusterConfig)) -> Cluster {
    let mut c = fresh(f);
    c.trigger_offload(harness::VNIC, SimTime::ZERO).unwrap();
    c.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    c
}

fn lb_granularity(mut report: BenchReport) -> BenchReport {
    println!();
    println!("  (1) flow-level vs packet-level FE load balancing (§3.2.3)");
    let widths = [16usize, 12, 14, 14];
    header(
        &["mode", "completed", "FE lookups", "cached flows"],
        &widths,
    );
    for (name, mode) in [
        ("flow-level", LbMode::FlowLevel),
        ("packet-level", LbMode::PacketLevel),
    ] {
        let mut c = offloaded(|cfg| cfg.lb_mode = mode);
        drive(&mut c, 1_000);
        let (mut lookups, mut cached) = (0u64, 0usize);
        for fe in c.fe_servers(harness::VNIC) {
            let (_, misses, _) = c.fe_counters(fe, harness::VNIC).unwrap();
            lookups += misses;
            cached += c.fe_cached_flows(fe, harness::VNIC).unwrap();
        }
        let snap = c.metrics().snapshot();
        let completed = snap.counter("conn.completed");
        row(
            &[
                name.to_string(),
                completed.to_string(),
                lookups.to_string(),
                cached.to_string(),
            ],
            &widths,
        );
        for (metric, v, unit) in [
            ("completed", completed, "conns"),
            ("fe_lookups", lookups, "lookups"),
            ("cached_flows", cached as u64, "flows"),
        ] {
            report = report.metric(format!("{metric}{{lb={name}}}"), v as f64, unit);
        }
        report = report.artifact(format!("lb_{name}.metrics.json"), snap.to_json());
    }
    println!("  -> packet-level spreads each session over every FE: ~4x the rule");
    println!("     lookups and ~4x the cached-flow memory for identical goodput");
    report
}

fn notify_suppression(mut report: BenchReport) -> BenchReport {
    println!();
    println!("  (2) notify-packet suppression (§3.2.2)");
    let widths = [22usize, 12, 12];
    header(&["policy", "notifies", "completed"], &widths);
    for (id, name, always) in [
        ("differs_only", "differs-only (Nezha)", false),
        ("every_miss", "every miss", true),
    ] {
        let mut c = offloaded(|cfg| cfg.notify_always = always);
        // Outbound connections: the TX workflow is where notify packets
        // arise (§3.2.2) — the first packet reaches the FE from the BE.
        let t = c.now();
        for i in 0..1_000u32 {
            c.add_conn(ConnSpec {
                vnic: harness::VNIC,
                vpc: VpcId(1),
                tuple: FiveTuple::tcp(
                    harness::SERVICE_ADDR,
                    40_000 + (i % 20_000) as u16,
                    Ipv4Addr::new(10, 7, 3, (i % 200) as u8 + 1),
                    443,
                ),
                peer_server: harness::client_servers()[(i % 8) as usize],
                kind: ConnKind::Outbound,
                start: t + SimDuration::from_micros(500 * i as u64),
                payload: 100,
                overlay_encap_src: None,
            })
            .unwrap();
        }
        c.run_until(c.now() + SimDuration::from_secs(4));
        let snap = c.metrics().snapshot();
        let (notifies, completed) = (snap.counter("nsh.notifies"), snap.counter("conn.completed"));
        row(
            &[
                name.to_string(),
                notifies.to_string(),
                completed.to_string(),
            ],
            &widths,
        );
        for (metric, v, unit) in [
            ("notifies", notifies, "packets"),
            ("completed", completed, "conns"),
        ] {
            report = report.metric(format!("{metric}{{notify={id}}}"), v as f64, unit);
        }
        report = report.artifact(format!("notify_{id}.metrics.json"), snap.to_json());
    }
    println!("  -> suppressing no-change notifies removes one BE interrupt per new");
    println!("     flow with no loss of state fidelity");
    report
}

fn dual_running(mut report: BenchReport) -> BenchReport {
    println!();
    println!("  (3) the dual-running stage (§4.2.1)");
    let widths = [22usize, 14, 12, 12];
    header(
        &["transition", "stale bounces", "completed", "failed"],
        &widths,
    );
    for (id, name, skip) in [
        ("dual_running", "dual-running (Nezha)", false),
        ("immediate_teardown", "immediate teardown", true),
    ] {
        // Drive traffic *across* the transition: start conns first, then
        // trigger the offload while they flow.
        let mut c = fresh(|cfg| cfg.skip_dual_running = skip);
        // 2000 conns spanning 0..2s; offload triggers at 100ms.
        let t0 = SimTime::ZERO;
        for i in 0..2000u32 {
            c.add_conn(ConnSpec {
                vnic: harness::VNIC,
                vpc: VpcId(1),
                tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                    (1024 + i / 200 * 211 + i % 200) as u16,
                    harness::SERVICE_ADDR,
                    harness::SERVICE_PORT,
                ),
                peer_server: ServerId(16 + (i % 8)),
                kind: ConnKind::Inbound,
                start: t0 + SimDuration::from_micros(1000 * i as u64),
                payload: 100,
                overlay_encap_src: None,
            })
            .unwrap();
        }
        c.run_until(t0 + SimDuration::from_millis(100));
        c.trigger_offload(harness::VNIC, c.now()).unwrap();
        c.run_until(t0 + SimDuration::from_secs(6));
        let snap = c.metrics().snapshot();
        let (bounces, completed, failed) = (
            snap.counter("pkt.stale_bounces"),
            snap.counter("conn.completed"),
            snap.counter("conn.failed"),
        );
        row(
            &[
                name.to_string(),
                bounces.to_string(),
                completed.to_string(),
                failed.to_string(),
            ],
            &widths,
        );
        for (metric, v, unit) in [
            ("stale_bounces", bounces, "packets"),
            ("completed", completed, "conns"),
            ("failed", failed, "conns"),
        ] {
            report = report.metric(format!("{metric}{{dual={id}}}"), v as f64, unit);
        }
        report = report.artifact(format!("dual_{id}.metrics.json"), snap.to_json());
    }
    println!("  -> without the dual-running stage, every in-flight packet that");
    println!("     still targets the BE takes an extra bounce through an FE");
    report
}

fn variable_state(report: BenchReport) -> BenchReport {
    println!();
    println!("  (4) variable-length states (§7.1)");
    // Census a realistic state mix, then project the capacity uplift a
    // variable-length layout would buy over the fixed 64 B slab.
    // A production-like mix: overwhelmingly plain tracked connections,
    // small minorities behind LBs (decap) or under flow logging (stats).
    let mut mean = 0.0;
    let mut n = 0.0;
    for (weight, decap, stats) in [
        (0.88, false, false),
        (0.07, true, false),
        (0.05, false, true),
    ] {
        let mut s = SessionState {
            first_dir: Some(nezha_types::Direction::Tx),
            tcp: nezha_types::TcpState::Established,
            ..SessionState::default()
        };
        if decap {
            s.decap = Some(nezha_types::StatefulDecapState {
                overlay_src: Ipv4Addr::new(100, 64, 0, 1),
            });
        }
        if stats {
            s.stats.policy = 1;
        }
        mean += weight * s.used_bytes() as f64;
        n += weight;
    }
    mean /= n;
    println!(
        "  census mean {mean:.1} B vs the 64 B slab -> up to {:.1}x more states in",
        64.0 / mean
    );
    println!("  the same memory (paper: \"the improvement could be up to 8X\")");
    report
        .metric("state_census_mean_bytes", mean, "B")
        .metric("state_uplift", 64.0 / mean, "x")
}
