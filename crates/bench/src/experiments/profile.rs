//! `profile` — cycle attribution with causal BE↔FE span tracing.
//!
//! Not a paper figure: the observability walkthrough behind every other
//! experiment. Runs the scaled §6.1 testbed offloaded onto 4 FEs with the
//! profiler enabled, prints the per-stage cycle-share table, reconciles
//! the attribution against the CPU model's charged total (must agree
//! within 0.1%), shows one packet's BE → FE → BE causal chain, and
//! attaches the flamegraph / Chrome-trace artifacts to its report.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_sim::profile::Profiler;
use nezha_sim::time::SimDuration;
use nezha_types::{FiveTuple, Ipv4Addr};

/// Span-ring capacity: comfortably holds the measurement window's spans
/// at the scaled testbed's rates (aggregates are unbounded regardless).
const SPAN_CAPACITY: usize = 1 << 16;

/// Offered TCP_CRR rate during the profiled window (well below the
/// 4-FE capability so drops stay rare and the trees stay complete).
const RATE: f64 = 2_000.0;

/// Builds the offloaded scaled testbed, runs one TCP_CRR measurement
/// with the profiler on, and returns the profiler plus the cycles the
/// CPU model charged while it was enabled. Deterministic: every run
/// produces byte-identical flamegraph / Chrome-trace artifacts.
fn run_profiled() -> (Profiler, f64) {
    let mut cluster = harness::testbed(TestbedOpts::scaled());
    // Notify on every FE miss so the BE → FE → notify → BE causal chain
    // shows up in the span trees (the default testbed's stats policies
    // are all zero, which would never trigger the §3.2.2 notify).
    cluster.cfg.notify_always = true;
    harness::offload_and_settle(&mut cluster);
    let base = cluster.total_charged_cycles();
    cluster.enable_profile(SPAN_CAPACITY);
    // A handful of outbound connections: the VM-initiated TX side is what
    // takes FE misses (inbound flows are cached by their RX SYN first),
    // so these are the packets whose trees carry the notify hop.
    let t0 = cluster.now();
    for i in 0..64u32 {
        cluster
            .add_conn(ConnSpec {
                vnic: harness::VNIC,
                vpc: harness::VPC,
                tuple: FiveTuple::tcp(
                    harness::SERVICE_ADDR,
                    30_000 + i as u16,
                    Ipv4Addr::new(10, 7, 3, (i % 200) as u8 + 1),
                    4433,
                ),
                peer_server: harness::client_servers()[(i % 8) as usize],
                kind: ConnKind::Outbound,
                start: t0 + SimDuration::from_micros(500 * i as u64),
                payload: 100,
                overlay_encap_src: None,
            })
            .expect("outbound conn");
    }
    harness::measure_cps(
        &mut cluster,
        RATE,
        SimDuration::from_millis(200),
        SimDuration::from_millis(800),
    );
    let charged = cluster.total_charged_cycles() - base;
    (cluster.profiler().clone(), charged)
}

/// Runs the experiment, printing the tables and returning the typed
/// report (per-stage cycles, the reconciliation outcome, and the
/// `folded` flamegraph and `trace.json` Chrome-trace artifacts).
pub fn run() -> BenchReport {
    banner("profile", "Cycle attribution and causal BE↔FE span tracing");
    let (prof, charged) = run_profiled();
    let attributed = prof.total_cycles() as f64;

    println!(
        "  scaled testbed, 4 FEs, {} CPS offered; {} span records kept, {} evicted",
        eng(RATE),
        eng(prof.spans().len() as f64),
        eng(prof.evicted() as f64),
    );
    println!();

    let widths = [16usize, 12, 9, 10, 10];
    header(&["stage", "cycles", "share", "bytes", "packets"], &widths);
    let mut totals = prof.stage_totals();
    totals.retain(|(_, t)| t.cycles > 0 || t.packets > 0);
    totals.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
    let mut report = BenchReport::new("profile")
        .config("testbed", "scaled")
        .config("offered_cps", RATE)
        .metric("span_records", prof.spans().len() as f64, "spans")
        .metric("spans_evicted", prof.evicted() as f64, "spans");
    for (name, t) in &totals {
        let share = t.cycles as f64 / attributed.max(1.0);
        for (field, v, unit) in [
            ("cycles", t.cycles as f64, "cycles"),
            ("share", share, "fraction"),
            ("bytes", t.bytes as f64, "bytes"),
            ("packets", t.packets as f64, "packets"),
        ] {
            report = report.metric(format!("stage_{field}{{stage={name}}}"), v, unit);
        }
        row(
            &[
                name.clone(),
                eng(t.cycles as f64),
                pct(share),
                eng(t.bytes as f64),
                eng(t.packets as f64),
            ],
            &widths,
        );
    }
    println!();

    // The tentpole invariant: leaf spans decompose *exactly* what the CPU
    // model charged — a drifting profiler is worse than none.
    let drift = (attributed - charged).abs() / charged.max(1.0);
    println!(
        "  charged (CPU model): {} cycles; attributed: {} (drift {})",
        eng(charged),
        eng(attributed),
        pct(drift),
    );
    assert!(
        drift <= 1e-3,
        "profiler attribution drifted {:.4}% from the charged total",
        drift * 100.0
    );

    // One packet's causal chain across servers, read from the (unbounded)
    // path table: the notify's ancestry reaches back through the FE visit
    // to the BE that emitted the packet.
    let fg = prof.flamegraph();
    let chain = fg
        .lines()
        .find(|l| l.contains("be_notify"))
        .and_then(|l| l.split(' ').next())
        .map(|path| path.replace(';', " -> "));
    if let Some(chain) = chain {
        println!("  causal chain (one TX miss): {chain}");
    }
    println!();
    println!("  artifacts: set NEZHA_REPORT_DIR to export profile.folded");
    println!("  (inferno/flamegraph.pl input) and profile.trace.json");
    println!("  (chrome://tracing / Perfetto)");

    report
        .metric("charged_cycles", charged, "cycles")
        .metric("attributed_cycles", attributed, "cycles")
        .metric("reconciliation_drift", drift, "fraction")
        .artifact("folded", fg)
        .artifact("trace.json", prof.chrome_trace())
}
