//! Quickstart: offload one overloaded vNIC and watch its CPS multiply.
//!
//! Builds a small simulated datacenter, drives a TCP_CRR workload at a
//! busy vNIC twice — once with the traditional local vSwitch, once with
//! Nezha offloading to four idle SmartNICs — and prints the goodput,
//! loss, and BE/FE utilization side by side.
//!
//! Run with: `cargo run --release --example quickstart`

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::vm::VmConfig;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use nezha::workloads::cps::CpsWorkload;

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const PORT: u16 = 9000;

fn build(offload: bool) -> Cluster {
    // A small SmartNIC keeps the demo fast.
    let cfg = ClusterConfig::builder()
        .cores(1)
        .auto_offload(false)
        .build();
    let mut cluster = Cluster::new(cfg);

    // One tenant vNIC with a security group that exposes port 9000.
    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(PORT);
    cluster
        .add_vnic(
            vnic,
            HOME,
            VmConfig {
                per_core_cps: 13_425.0,
                ..VmConfig::default()
            },
        )
        .unwrap();

    if offload {
        cluster
            .trigger_offload(VNIC, SimTime::ZERO)
            .expect("offload failed");
        cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        println!(
            "offloaded vNIC {VNIC} to FEs {:?} in {:.0} ms",
            cluster.fe_servers(VNIC),
            cluster.stats().offload_completion.mean() * 1e3
        );
    }
    cluster
}

fn drive(cluster: &mut Cluster, rate: f64) -> (f64, f64) {
    let duration = SimDuration::from_secs(3);
    let start = cluster.now();
    let wl = CpsWorkload::tcp_crr(
        VNIC,
        VpcId(1),
        SERVICE,
        PORT,
        (24..32).map(ServerId).collect(),
        rate,
        duration,
    );
    let mut rng = nezha::sim::rng::SimRng::new(7);
    for spec in wl.generate(start, &mut rng) {
        cluster.add_conn(spec).unwrap();
    }
    cluster.run_until(start + duration + SimDuration::from_secs(1));
    let stats = cluster.stats();
    let total = stats.completed + stats.failed + stats.denied;
    (
        stats.completed as f64 / duration.as_secs_f64(),
        1.0 - stats.completed as f64 / total.max(1) as f64,
    )
}

fn main() {
    // Offer ~3x the local vSwitch's capability — sustained, so the
    // traditional switch cannot hide behind retransmissions.
    let rate = 180_000.0;
    println!("offering {rate:.0} new connections/s to one vNIC\n");

    // The local switch's nominal capability, for reference.
    let probe = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    let capability = {
        let cfg = ClusterConfig::default().vswitch;
        let mut c = cfg;
        c.cores = 1;
        c.capacity_hz() / probe.crr_cycles(&c.costs, 64) as f64
    };

    let mut local = build(false);
    let (cps, fail) = drive(&mut local, rate);
    println!("traditional local vSwitch (capability ~{capability:.0} CPS):");
    println!(
        "  collapses under sustained 3x overload: goodput {cps:.0} CPS, {:.1}% of connections fail",
        fail * 100.0
    );
    println!();

    let mut nezha = build(true);
    let (cps_n, fail_n) = drive(&mut nezha, rate);
    println!("with Nezha (4 FEs initially):");
    println!(
        "  goodput {cps_n:.0} CPS, {:.1}% connections failed",
        fail_n * 100.0
    );
    println!(
        "  pool grew to {} FEs under load (auto-scaling)",
        nezha.fe_count(VNIC)
    );
    println!(
        "\nNezha sustains {:.1}x the local switch's capability (paper Fig. 9: ~3.3x,\nthen VM-kernel-limited)",
        cps_n / capability
    );
}
