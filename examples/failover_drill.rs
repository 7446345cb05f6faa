//! Failover drill: crash an FE under live traffic and watch the health
//! monitor detect it and restore the pool (paper §4.4 / Fig. 14).
//!
//! Run with: `cargo run --release --example failover_drill`

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::vm::VmConfig;
use nezha::sim::fault::FaultPlan;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::workloads::cps::CpsWorkload;

const VNIC: VnicId = VnicId(1);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);

fn main() {
    let cfg = ClusterConfig::builder()
        .cores(1)
        .auto_offload(false)
        .build();
    let mut cluster = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), ServerId(0));
    vnic.allow_inbound_port(9000);
    cluster
        .add_vnic(vnic, ServerId(0), VmConfig::default())
        .unwrap();

    cluster.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    let fes = cluster.fe_servers(VNIC);
    println!("pool up: FEs {fes:?}");

    // Steady traffic for 14 s; one FE dies at t = 6 s.
    let wl = CpsWorkload::tcp_crr(
        VNIC,
        VpcId(1),
        SERVICE,
        9000,
        (24..32).map(ServerId).collect(),
        30_000.0,
        SimDuration::from_secs(14),
    );
    let start = cluster.now();
    let mut rng = nezha::sim::rng::SimRng::new(99);
    for s in wl.generate(start, &mut rng) {
        cluster.add_conn(s).unwrap();
    }
    let victim = fes[0];
    let crash = start + SimDuration::from_secs(6);
    cluster.apply_fault_plan(FaultPlan::new().crash(crash, victim));
    println!(
        "scheduling crash of FE {victim} at t={:.1}s",
        crash.as_secs_f64()
    );

    // Sample the pool every second; report the packets lost during each
    // second (the Fig. 14 loss surge).
    let mut last_lost = 0u64;
    for step in 1..=16 {
        let t = start + SimDuration::from_secs(step);
        cluster.run_until(t);
        let fes = cluster.fe_servers(VNIC);
        let stats = cluster.stats();
        let lost_total = stats.pkts.dropped;
        let lost = lost_total - last_lost;
        last_lost = lost_total;
        println!(
            "t={:>4.1}s  FEs={:?}  lost this second: {}{}",
            t.as_secs_f64(),
            fes,
            lost,
            if stats.failover_events > 0 && lost == 0 && step >= 8 {
                "  (failed over, recovered)"
            } else {
                ""
            },
        );
    }

    let stats = cluster.stats();
    let total = stats.completed + stats.failed;
    println!();
    println!(
        "connections: {} completed, {} failed ({:.3}% of {total})",
        stats.completed,
        stats.failed,
        stats.failed as f64 / total as f64 * 100.0
    );
    println!(
        "failovers: {}; pool restored to {} FEs without the victim",
        stats.failover_events,
        cluster.fe_count(VNIC)
    );
    assert!(!cluster.fe_servers(VNIC).contains(&victim));
    assert_eq!(cluster.fe_count(VNIC), 4, "pool floor is 4 FEs");
}
