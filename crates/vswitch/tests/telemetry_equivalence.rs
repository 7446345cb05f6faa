//! A vSwitch observes the same thing whether it owns its telemetry
//! (`VSwitch::new`) or reports into a handle shared with other
//! components (`VSwitch::with_telemetry`): same counters, same trace
//! events, same span records for the same packet sequence.

use nezha_sim::profile::SpanRecord;
use nezha_sim::telemetry::Telemetry;
use nezha_sim::time::SimTime;
use nezha_sim::trace::TraceEvent;
use nezha_types::{FiveTuple, Ipv4Addr, Packet, ServerId, TcpFlags, VnicId, VpcId};
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use nezha_vswitch::{VSwitch, VSwitchConfig};

const SERVER: ServerId = ServerId(3);

fn pkt(trace: u64, vnic: u32, sport: u16, flags: TcpFlags) -> Packet {
    let tuple = FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 0, 1),
        sport,
        Ipv4Addr::new(10, 7, 0, 100),
        9000,
    );
    Packet::tx_data(trace, VpcId(1), VnicId(vnic), tuple, flags, 64)
}

/// Drives slow path, fast path, an unknown vNIC and a CPU-overload burst
/// through `vs`; returns everything its telemetry saw.
fn drive(mut vs: VSwitch) -> (String, Vec<TraceEvent>, Vec<SpanRecord>) {
    let tel = vs.telemetry().clone();
    tel.trace.set_capacity(1 << 16);
    tel.profiler.enable(1 << 16);
    let home = Ipv4Addr::new(10, 7, 0, 1);
    let vnic = Vnic::new(VnicId(1), VpcId(1), home, VnicProfile::default(), SERVER);
    vs.add_vnic(vnic).unwrap();
    vs.process_local(&pkt(1, 1, 40000, TcpFlags::SYN), SimTime(0));
    vs.process_local(&pkt(2, 1, 40000, TcpFlags::ACK), SimTime(1_000));
    vs.process_local(&pkt(3, 99, 40000, TcpFlags::SYN), SimTime(2_000));
    for i in 0..3000u64 {
        let sport = 10_000 + i as u16;
        vs.process_local(&pkt(4 + i, 1, sport, TcpFlags::SYN), SimTime(3_000));
    }
    let counters = vs.counters();
    assert!(counters.forwarded > 0 && counters.unroutable == 1 && counters.cpu_drops > 0);
    let key = format!("vswitch.forwarded{{server={}}}", SERVER.0);
    assert_eq!(
        tel.registry.snapshot().counter(&key),
        counters.forwarded,
        "counters() is a view of the handle's registry"
    );
    (
        format!("{counters:?}"),
        tel.trace.events(),
        tel.profiler.spans(),
    )
}

#[test]
fn private_and_shared_telemetry_observe_the_same() {
    let cfg = VSwitchConfig::default();
    let private = drive(VSwitch::new(SERVER, cfg));

    // Shared: a neighbour constructed first on the same handle.
    let tel = Telemetry::new();
    let _neighbour = VSwitch::with_telemetry(ServerId(4), cfg, &tel);
    let shared = drive(VSwitch::with_telemetry(SERVER, cfg, &tel));

    assert!(!private.1.is_empty() && !private.2.is_empty());
    assert_eq!(private.0, shared.0, "counters()");
    assert_eq!(private.1, shared.1, "trace events");
    assert_eq!(private.2, shared.2, "span records");
}
