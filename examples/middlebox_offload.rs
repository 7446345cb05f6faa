//! Middlebox scenario: an LB real-server vNIC with stateful
//! decapsulation, offloaded under Nezha (the paper's §5.2 case study and
//! the Table 3 production setting).
//!
//! Shows the full §5.2 workflow end to end: the RX packet arrives via
//! the LB with an overlay source, the FE piggybacks it to the BE, the BE
//! records it as state, and the TX response is re-encapsulated toward
//! the LB — all verified on the live session table. Then prints the
//! analytic Table 3 gains for the three middlebox classes.
//!
//! Run with: `cargo run --release --example middlebox_offload`

use nezha::core::cluster::{Cluster, ClusterConfig};
use nezha::core::conn::{ConnKind, ConnSpec};
use nezha::core::region::middlebox;
use nezha::core::vm::VmConfig;
use nezha::sim::time::SimDuration;
use nezha::types::{FiveTuple, Ipv4Addr, ServerId, SessionKey, VnicId, VpcId};
use nezha::vswitch::config::VSwitchConfig;
use nezha::vswitch::vnic::{Vnic, VnicProfile};

fn main() {
    let cfg = ClusterConfig::builder().auto_offload(false).build();
    let mut cluster = Cluster::new(cfg);

    // A real server behind a load balancer: stateful decap applies.
    let rs = VnicId(7);
    let rs_addr = Ipv4Addr::new(10, 9, 0, 1);
    let lb_vip = Ipv4Addr::new(100, 64, 0, 5);
    let profile = VnicProfile {
        stateful_decap: true,
        ..VnicProfile::default()
    };
    let mut vnic = Vnic::new(rs, VpcId(3), rs_addr, profile, ServerId(0));
    vnic.allow_inbound_port(8080);
    cluster
        .add_vnic(vnic, ServerId(0), VmConfig::with_vcpus(32))
        .unwrap();

    // Offload it, then run one client connection through the LB.
    cluster.trigger_offload(rs, cluster.now()).unwrap();
    let t = cluster.now();
    cluster.run_until(t + SimDuration::from_secs(3));
    println!("real-server vNIC offloaded to {:?}", cluster.fe_servers(rs));

    let spec = ConnSpec {
        vnic: rs,
        vpc: VpcId(3),
        tuple: FiveTuple::tcp(Ipv4Addr::new(203, 0, 113, 9), 50_000, rs_addr, 8080),
        peer_server: ServerId(40),
        kind: ConnKind::PersistentInbound,
        start: cluster.now(),
        payload: 512,
        overlay_encap_src: Some(lb_vip), // the LB's address on the overlay
    };
    cluster.add_conn(spec).unwrap();
    let t = cluster.now();
    cluster.run_until(t + SimDuration::from_millis(400));

    assert_eq!(cluster.stats().completed, 1, "connection must complete");
    let key = SessionKey::of(VpcId(3), spec.tuple);
    let entry = cluster
        .switch(ServerId(0))
        .unwrap()
        .sessions
        .get(&key)
        .expect("session state lives at the BE");
    println!(
        "BE recorded stateful-decap address: {:?} (the LB VIP {lb_vip})",
        entry.state.decap.map(|d| d.overlay_src)
    );
    println!(
        "BE entry is state-only ({} B used of the 64 B slab); cached flows live at the FEs\n",
        entry.state.used_bytes()
    );

    // The production punchline: Table 3's gains for LB / NAT / TR.
    println!("analytic middlebox gains (paper Table 3):");
    let host = VSwitchConfig::middlebox_host();
    let vm = VmConfig {
        vcpus: 64,
        per_core_cps: 90_000.0,
    };
    for row in middlebox::gains(&host, &vm) {
        println!(
            "  {:<16} CPS {:.0}K -> {:.2}M ({:.2}x)   #flows {:.2}x   #vNICs >{:.0}x",
            row.name,
            row.cps_before / 1e3,
            row.cps_after / 1e6,
            row.cps_gain,
            row.flows_gain,
            row.vnic_gain.min(99.0)
        );
    }
}
