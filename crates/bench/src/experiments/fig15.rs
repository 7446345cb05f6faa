//! Fig. 15 — average state size across services in a region.
//!
//! Paper: the fixed 64 B state slab mostly holds 5–8 B of actual state
//! (FSM + first-packet direction for the vast majority of sessions; a
//! decap address or statistics counters for a minority), so variable-
//! length states could lift #concurrent flows by up to 8× (§7.1).
//!
//! We drive four service classes with different stateful-NF mixes
//! through the packet-level testbed, then census the live session
//! tables' `used_bytes`.

use crate::experiments::harness;
use crate::output::*;
use nezha_core::conn::{ConnKind, ConnSpec};
use nezha_core::vm::VmConfig;
use nezha_sim::stats::Samples;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, SessionState, VnicId, VpcId};
use nezha_vswitch::vnic::{Vnic, VnicProfile};

struct ServiceClass {
    name: &'static str,
    /// Fraction of flows hitting a statistics (flow-log) policy.
    logged: f64,
    /// Whether the service sits behind an LB (stateful decap).
    decap: bool,
}

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Fig. 15", "Average state size per service (vs 64B slab)");
    let classes = [
        ServiceClass {
            name: "api-frontend",
            logged: 0.00,
            decap: false,
        },
        ServiceClass {
            name: "web-tier",
            logged: 0.03,
            decap: false,
        },
        ServiceClass {
            name: "lb-real-server",
            logged: 0.00,
            decap: true,
        },
        ServiceClass {
            name: "audited-db",
            logged: 0.09,
            decap: false,
        },
    ];
    let widths = [16usize, 10, 12, 12];
    header(
        &["service", "sessions", "avg state(B)", "slab waste"],
        &widths,
    );

    let mut overall = Samples::new();
    let mut report = BenchReport::new("fig15");
    for (ci, class) in classes.iter().enumerate() {
        let mut cluster = harness::testbed(harness::TestbedOpts::scaled());
        let vnic_id = VnicId(10 + ci as u32);
        let addr = Ipv4Addr::new(10, 8 + ci as u8, 0, 1);
        let profile = VnicProfile {
            stateful_decap: class.decap,
            ..VnicProfile::default()
        };
        let mut vnic = Vnic::new(vnic_id, VpcId(1), addr, profile, ServerId(1));
        vnic.allow_inbound_port(8080);
        cluster
            .add_vnic(vnic, ServerId(1), VmConfig::with_vcpus(16))
            .unwrap();

        // Persistent connections so sessions stay live for the census.
        // "Logged" flows come from the prefixes the statistics policies
        // cover (the upper half of the service /16).
        let n = 2_000usize;
        for i in 0..n {
            let logged = (i as f64 / n as f64) < class.logged;
            let client = if logged {
                Ipv4Addr(addr.masked(16).0 | (128 << 8) | (i as u32 % 250 + 1))
            } else {
                Ipv4Addr(addr.masked(16).0 | (1 << 8) | (i as u32 % 250 + 1))
            };
            cluster
                .add_conn(ConnSpec {
                    vnic: vnic_id,
                    vpc: VpcId(1),
                    tuple: FiveTuple::tcp(
                        client,
                        10_000 + (i / 250) as u16 * 251 + (i % 250) as u16,
                        addr,
                        8080,
                    ),
                    peer_server: ServerId(16 + (i % 8) as u32),
                    kind: ConnKind::PersistentInbound,
                    start: SimTime::ZERO + SimDuration::from_micros(100 * i as u64),
                    payload: 64,
                    overlay_encap_src: class.decap.then_some(Ipv4Addr::new(100, 64, 0, 9)),
                })
                .unwrap();
        }
        cluster.run_until(SimTime::ZERO + SimDuration::from_millis(600));

        let mut sizes = Samples::new();
        for (_, e) in cluster.switch(ServerId(1)).unwrap().sessions.iter() {
            if e.vnic == vnic_id {
                sizes.record(e.state.used_bytes() as f64);
                overall.record(e.state.used_bytes() as f64);
            }
        }
        let waste = 1.0 - sizes.mean() / SessionState::SLAB_BYTES as f64;
        let service = format!("{{service={}}}", class.name);
        report = report
            .metric(format!("sessions{service}"), sizes.len() as f64, "sessions")
            .metric(format!("avg_state_bytes{service}"), sizes.mean(), "B")
            .metric(format!("slab_waste{service}"), waste, "fraction");
        row(
            &[
                class.name.to_string(),
                sizes.len().to_string(),
                format!("{:.2}", sizes.mean()),
                pct(waste),
            ],
            &widths,
        );
    }
    let lift = SessionState::SLAB_BYTES as f64 / overall.mean();
    println!();
    println!(
        "  overall mean {:.2} B of a {} B slab -> variable-length states could lift #flows {:.1}x (paper: up to 8x, avg 5-8B)",
        overall.mean(),
        SessionState::SLAB_BYTES,
        lift
    );
    report
        .summary("state_bytes", &overall, "B")
        .metric("flows_lift", lift, "x")
}
