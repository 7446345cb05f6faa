//! Fig. 9 — performance gain under different #FEs (auto-scaling off).
//!
//! Paper: CPS improvement grows with #FEs and plateaus at ≈3.3× beyond 4
//! FEs (the VM kernel becomes the bottleneck); #concurrent-flow gain
//! plateaus at ≈3.8× (local state memory becomes the bottleneck); #vNIC
//! gain is proportional to #FEs with a theoretical 1000× ceiling from the
//! 2 KB BE metadata.
//!
//! CPS is *measured* on the quarter-scale packet testbed; the memory
//! gains are computed from the byte-accounted capacity models at each
//! pool size.

use crate::experiments::harness::{self, TestbedOpts};
use crate::output::*;
use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::vnic::{Vnic, VnicProfile};

const FE_COUNTS: [usize; 5] = [1, 2, 4, 6, 8];

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 9", "Performance gain under different #FEs");

    // Baseline: the local-only CPS capability, found by bisection the
    // way a closed-loop netperf TCP_CRR run would.
    let nominal = harness::local_capacity(&harness::testbed(TestbedOpts::scaled()));
    let base = harness::find_capacity(
        || harness::testbed(TestbedOpts::scaled()),
        0.2 * nominal,
        4.2 * nominal,
    );
    println!(
        "  baseline (local-only) capability: {} CPS (nominal model: {})",
        eng(base),
        eng(nominal)
    );
    println!();

    let widths = [8usize, 10, 10, 12, 12];
    header(
        &["#FEs", "CPS", "CPS gain", "#flows gain", "#vNICs gain"],
        &widths,
    );
    let mut report = BenchReport::new("fig9")
        .metric("nominal_cps", nominal, "conn/s")
        .metric("baseline_cps", base, "conn/s");
    for &k in &FE_COUNTS {
        let cps = harness::find_capacity(
            || {
                let mut cluster = harness::testbed(TestbedOpts {
                    initial_fes: k,
                    ..TestbedOpts::scaled()
                });
                harness::offload_and_settle(&mut cluster);
                assert_eq!(cluster.fe_count(harness::VNIC), k, "pool size");
                cluster
            },
            0.2 * nominal,
            4.2 * nominal,
        );
        let cfg = harness::testbed(TestbedOpts::scaled()).cfg.vswitch;
        let (flows_gain, vnic_gain) = memory_gains(&cfg, k);
        report = report
            .metric(format!("cps{{fes={k}}}"), cps, "conn/s")
            .metric(format!("cps_gain{{fes={k}}}"), cps / base, "x")
            .metric(format!("flows_gain{{fes={k}}}"), flows_gain, "x")
            .metric(format!("vnic_gain{{fes={k}}}"), vnic_gain, "x");
        row(
            &[
                k.to_string(),
                eng(cps),
                gain(cps / base),
                gain(flows_gain),
                gain(vnic_gain),
            ],
            &widths,
        );
    }
    println!();
    println!("  paper: CPS plateaus at ~3.3x and #flows at ~3.8x beyond 4 FEs;");
    println!("         #vNICs grows with #FEs toward the 1000x BE-metadata ceiling");
    report
}

/// #flows and #vNICs gains at pool size `k`, from the byte models.
///
/// * #flows: locally, a session costs `flow_entry + state_slab` out of the
///   session budget; offloaded, the BE keeps 64 B states in the budget
///   *plus* the freed rule-table bytes, but each live session also needs
///   its cached flow at the FE handling it — with `k` FEs the cached-flow
///   capacity is `k × fe_budget / flow_entry`, which is what makes the
///   gain grow with #FEs before the BE memory plateau (paper §6.2.1).
/// * #vNICs: locally `budget / table_bytes` vNICs fit; offloaded, each
///   vNIC costs 2 KB of BE metadata locally and a full table copy on each
///   of its FEs, so `k` pool members host `k × budget / table_bytes`
///   table sets while the BE ceiling is `budget / 2 KB` (the 1000×).
fn memory_gains(cfg: &VSwitchConfig, k: usize) -> (f64, f64) {
    let m = cfg.memory;
    let vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    let tables = vnic.table_memory(&m) as f64;
    // The testbed dedicates a session budget sized like its rule tables
    // (a mid-size deployment: ~half the pool to tables, half to sessions).
    let session_budget = 2.0 * tables;
    let fe_budget = session_budget + tables;

    let flows_before = session_budget / (m.flow_entry + m.state_slab) as f64;
    let be_states = (session_budget + tables - m.be_metadata as f64) / m.state_slab as f64;
    // Each FE reserves most of its memory for its own local tenants; ~60%
    // of a session-budget's worth is available for cached flows.
    let fe_flows = k as f64 * 0.6 * session_budget / m.flow_entry as f64;
    let flows_after = be_states.min(fe_flows);

    let budget = fe_budget;
    let vnics_before = (budget / tables).max(1.0);
    let be_ceiling = budget / m.be_metadata as f64;
    let vnics_after = (k as f64 * budget / tables).min(be_ceiling);

    (flows_after / flows_before, vnics_after / vnics_before)
}
