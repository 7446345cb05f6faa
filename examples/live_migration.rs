//! VM live migration, two ways (paper §7.2 / Fig. A1).
//!
//! Traditional migration copies the VM's memory and reconfigures the
//! vNIC on the target vSwitch — seconds to minutes, growing with VM
//! size. Under Nezha the vNIC is already offloaded, so redirecting
//! traffic is a single BE-location update on the FEs: sub-millisecond,
//! independent of VM size. This example runs the redirect live in the
//! cluster and compares against the migration cost model.
//!
//! Run with: `cargo run --release --example live_migration`

use nezha::core::cluster::{Cluster, ClusterConfig, ConfigOp, Event};
use nezha::core::migration;
use nezha::core::vm::VmConfig;
use nezha::sim::time::{SimDuration, SimTime};
use nezha::types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha::vswitch::vnic::{Vnic, VnicProfile};

fn main() {
    // The cost model side (Fig. A1).
    println!("traditional live migration (model):");
    for (vcpus, mem_gb) in [(8u32, 16.0), (64, 256.0), (128, 1024.0)] {
        let c = migration::migrate(mem_gb, vcpus, 64 << 20);
        println!(
            "  {vcpus:>3} vCPU / {mem_gb:>5.0} GB: completion {:>7.1}s, downtime {:>5.2}s",
            c.completion.as_secs_f64(),
            c.downtime.as_secs_f64()
        );
    }
    let r = migration::nezha_redirect();
    println!(
        "  Nezha redirect:            completion {:>7.4}s — independent of VM size\n",
        r.completion.as_secs_f64()
    );

    // The live side: redirect an offloaded vNIC's BE in the simulator.
    let mut cluster = Cluster::new(ClusterConfig::default());
    let vnic = VnicId(1);
    let mut v = Vnic::new(
        vnic,
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    );
    v.allow_inbound_port(9000);
    cluster
        .add_vnic(v, ServerId(0), VmConfig::default())
        .unwrap();
    cluster.trigger_offload(vnic, SimTime::ZERO).unwrap();
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let old_home = ServerId(0);
    let new_home = ServerId(20);
    println!("live redirect in the cluster: BE {old_home} -> {new_home}");
    let t0 = cluster.now();
    cluster.engine.schedule_in(
        SimDuration::from_micros(800), // one config push to the FEs
        Event::Config(ConfigOp::BeLocationUpdate { vnic, new_home }),
    );
    cluster.run_until(t0 + SimDuration::from_millis(2));

    for fe in cluster.fe_servers(vnic) {
        let loc = cluster.fe_be_location(fe, vnic).unwrap();
        println!("  FE {fe}: BE location now {loc}");
        assert_eq!(loc, new_home);
    }
    assert_eq!(cluster.home_of(vnic), Some(new_home));
    println!(
        "redirect applied after a 0.8 ms config push (paper: <1 ms, vs tens\nof minutes for migrating a 1 TB VM)"
    );
}
