//! The offload lifecycle end to end: the memory ledger across every edge,
//! and the races between a fallback and the control ops in flight when it
//! starts (the `lifecycle_` tests `scripts/check.sh --fast` runs).

use super::*;

/// Walks one vNIC through every lifecycle edge with traffic running, half
/// of it from peers no table has learned yet, and checks after each edge
/// that every server's pool holds exactly what its owners derive:
/// offload, final stage, scale-out, scale-in, FE crash, failover, BE
/// relocation, fallback, fallback final, re-offload, and a `map_peer`
/// that finds one FE host full.
#[test]
fn lifecycle_walk_keeps_the_memory_ledger() {
    use nezha_vswitch::config::VSwitchConfig;
    // 32 MiB pools: a filler vNIC can fill an FE host cheaply.
    let cfg = ClusterConfig::builder()
        .topology(small_topology())
        .vswitch(VSwitchConfig {
            table_memory: 32 << 20,
            ..VSwitchConfig::default()
        })
        .auto(false)
        .build();
    let mut c = with_service_vnic(cfg, VmConfig::with_vcpus(64));
    let mut n = 0u16;
    let mut edge = |c: &mut Cluster, name: &str, run: SimDuration| {
        for _ in 0..40 {
            let mut spec = inbound_spec(
                n,
                c.now() + SimDuration::from_micros(500 * n as u64 % 20_000),
            );
            if n.is_multiple_of(2) {
                spec.tuple.src_ip =
                    Ipv4Addr::new(10, 7, 100 + (n / 250) as u8, (n % 250) as u8 + 1);
            }
            c.add_conn(spec).unwrap();
            n += 1;
        }
        c.run_until(c.now() + run);
        assert_eq!(c.ledger_drift(), [], "after {name}");
    };
    let ms = SimDuration::from_millis;

    c.trigger_offload(VNIC, c.now()).unwrap();
    edge(&mut c, "offload", ms(300));
    edge(&mut c, "final stage", ms(3_000));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);

    assert_eq!(c.scale_out(VNIC, 2), 2);
    edge(&mut c, "scale-out", ms(3_000));
    assert_eq!(c.fe_count(VNIC), 6);
    c.scale_in_server(c.fe_servers(VNIC)[0]);
    edge(&mut c, "scale-in", ms(500));
    assert_eq!(c.fe_count(VNIC), 5);

    let victim = c.fe_servers(VNIC)[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now(), victim));
    edge(&mut c, "FE crash", ms(100));
    edge(&mut c, "failover", ms(3_000));
    assert!(c.stats().failover_events >= 1);
    assert!(!c.fe_servers(VNIC).contains(&victim));

    let fes = c.fe_servers(VNIC);
    let new_home = (1..16)
        .map(ServerId)
        .find(|s| *s != victim && !fes.contains(s))
        .unwrap();
    let op = ConfigOp::BeLocationUpdate {
        vnic: VNIC,
        new_home,
    };
    c.engine.schedule_in(ms(1), Event::Config(op));
    edge(&mut c, "BE relocation", ms(10));
    assert_eq!(c.home_of(VNIC), Some(new_home));

    c.trigger_fallback(VNIC, c.now()).unwrap();
    edge(&mut c, "fallback", ms(50));
    edge(&mut c, "fallback final", ms(3_000));
    assert!(c.backend(VNIC).is_none());

    c.trigger_offload(VNIC, c.now()).unwrap();
    edge(&mut c, "re-offload", ms(3_000));
    assert_eq!(c.backend(VNIC).unwrap().phase, OffloadPhase::Offloaded);

    // Fill one FE host to within one mapping entry with a second vNIC.
    let m = c.cfg.vswitch.memory;
    let fes = c.fe_servers(VNIC);
    let (full, other) = (fes[0], fes[1]);
    let filler = |entries: usize| {
        let profile = VnicProfile {
            vnic_server_entries: entries,
            ..VnicProfile::default()
        };
        Vnic::new(
            VnicId(2),
            VpcId(2),
            Ipv4Addr::new(10, 9, 0, 1),
            profile,
            full,
        )
    };
    let room = c.switch(full).unwrap().mem.available() - filler(0).table_memory(&m);
    let filler = filler((room / m.vnic_server_entry) as usize);
    c.add_vnic(filler, full, VmConfig::with_vcpus(4)).unwrap();
    assert!(c.switch(full).unwrap().mem.available() < m.vnic_server_entry);
    let tables = |c: &Cluster, fe: ServerId| c.fes.get(&(fe, VNIC)).unwrap().vnic.table_memory(&m);
    let before = (tables(&c, full), tables(&c, other));
    c.map_peer(VNIC, Ipv4Addr::new(10, 7, 222, 1), ServerId(9))
        .unwrap();
    assert_eq!(tables(&c, full), before.0, "a full host does not learn");
    assert_eq!(tables(&c, other), before.1 + m.vnic_server_entry);
    edge(&mut c, "map_peer OOM on a full FE host", ms(10));
}

/// A `small_cluster(false)` with its RNG seeded `seed`.
fn seeded(seed: u64) -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(small_topology())
        .auto(false)
        .seed(seed)
        .build();
    with_service_vnic(cfg, VmConfig::with_vcpus(64))
}

/// Triggers a fallback `lead` from now and runs it out; the gateway must
/// then name the home, and new connections must complete there.
fn fall_back_after(c: &mut Cluster, lead: SimDuration) {
    c.run_until(c.now() + lead);
    c.trigger_fallback(VNIC, c.now()).unwrap();
    c.run_until(c.now() + SimDuration::from_secs(3));
    assert!(c.backend(VNIC).is_none());
    let addr = Ipv4Addr::new(10, 7, 0, 1);
    assert_eq!(c.gateway.current(addr), Some(&[HOME][..]));
    assert_eq!(offer_50(c, 0), 50);
}

/// A scale-out's pushes land during the fallback that follows it, and the
/// last one schedules a gateway sync; landing after the fallback's own,
/// it must not point the entry back at FEs the fallback tears down. The
/// seed and delay are one where it did, before the sync derived its
/// target from the phase.
#[test]
fn lifecycle_scale_out_then_fallback_ends_on_the_home() {
    let mut c = offloaded(seeded(8));
    assert_eq!(c.scale_out(VNIC, 4), 4);
    fall_back_after(&mut c, SimDuration::from_millis(300));
}

/// An FE crash detected while a fallback runs: the sync its removal
/// schedules must not leave the entry on the survivors once the fallback
/// has torn them down.
#[test]
fn lifecycle_fe_crash_detected_during_fallback_ends_on_the_home() {
    let mut c = offloaded(seeded(0));
    let victim = c.fe_servers(VNIC)[0];
    c.apply_fault_plan(FaultPlan::new().crash(c.now(), victim));
    fall_back_after(&mut c, SimDuration::from_millis(1_200));
}

/// Two of the four FE hosts crash at one instant: the second failover
/// refills the pool while the first one's replacement is still being
/// configured, so the pool is back at its floor of four.
#[test]
fn lifecycle_double_fe_crash_refills_the_pool() {
    let mut c = offloaded(seeded(0));
    let fes = c.fe_servers(VNIC);
    let plan = FaultPlan::new().crash(c.now(), fes[0]);
    c.apply_fault_plan(plan.crash(c.now(), fes[1]));
    c.run_until(c.now() + SimDuration::from_secs(20));
    assert_eq!(c.fe_servers(VNIC).len(), 4);
}
