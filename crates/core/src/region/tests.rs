//! Tests of the fluid region simulator: the paper-shape calibrations,
//! shard-count invariance, the window stream, fault waves, and the
//! lifecycle queue's footprint.

use super::*;
use crate::vm::VmConfig;
use nezha_vswitch::config::VSwitchConfig;

fn small_cfg() -> RegionConfig {
    RegionConfig {
        servers: 2_000,
        epoch: SimDuration::from_secs(6 * 3600),
        ..Default::default()
    }
}

#[test]
fn utilization_cdf_matches_fig4_shape() {
    let mut region = Region::new(small_cfg());
    let mut report = region.run_days(2, false);
    let (mean, _, p90, p99, _, _) = report.cpu_utils.summary();
    // Fig. 4a envelope: avg ~5%, P90 ~15%, P99 ~41%.
    assert!((0.02..0.10).contains(&mean), "cpu mean {mean}");
    assert!((0.08..0.25).contains(&p90), "cpu p90 {p90}");
    assert!((0.25..0.60).contains(&p99), "cpu p99 {p99}");
    let mem_mean = report.mem_utils.mean();
    assert!((0.005..0.04).contains(&mem_mean), "mem mean {mem_mean}");
    // The extreme-imbalance headline: P9999 ≫ average.
    let p9999 = report.cpu_utils.percentile(99.99);
    assert!(p9999 / mean > 8.0, "imbalance ratio {}", p9999 / mean);
}

#[test]
fn nezha_mitigates_overloads_by_orders_of_magnitude() {
    let cfg = RegionConfig {
        spike_prob: 0.05,
        ..small_cfg()
    };
    let mut r1 = Region::new(cfg);
    let before = r1.run_days(8, false);
    let mut r2 = Region::new(cfg);
    let after = r2.run_days(8, true);
    let (b_cps, b_flows, b_vnics) = before.totals();
    let (a_cps, a_flows, a_vnics) = after.totals();
    assert!(b_cps > 50, "need a meaningful baseline, got {b_cps}");
    assert!(b_flows > 10);
    assert!(b_vnics > 0);
    // Fig. 13: >99.9% of CPS/flows overloads resolved; #vNICs 100%.
    assert!(
        (a_cps + a_flows) * 50 < b_cps + b_flows,
        "mitigation too weak: {b_cps}+{b_flows} -> {a_cps}+{a_flows}"
    );
    assert_eq!(a_vnics, 0, "#vNIC overloads must vanish entirely");
}

#[test]
fn hotspot_cause_shares_match_fig3() {
    let mut r = Region::new(RegionConfig {
        servers: 4_000,
        spike_prob: 0.05,
        ..small_cfg()
    });
    let before = r.run_days(10, false);
    let (c, f, v) = before.totals();
    let total = (c + f + v) as f64;
    assert!(total > 100.0);
    let cs = c as f64 / total;
    let fs = f as f64 / total;
    let vs = v as f64 / total;
    // Fig. 3: ≈61% / 30% / 9%.
    assert!((0.45..0.75).contains(&cs), "cps share {cs}");
    assert!((0.18..0.42).contains(&fs), "flows share {fs}");
    assert!((0.02..0.20).contains(&vs), "vnic share {vs}");
}

#[test]
fn completion_times_match_table4_band() {
    let mut r = Region::new(small_cfg());
    let mut s = Samples::new();
    for _ in 0..5_000 {
        s.record_duration(r.sample_completion());
    }
    let (mean, _, p90, p99, _, _) = s.summary();
    // Table 4: avg ≈1.08 s, P90 ≈1.50 s, P99 ≈2.09 s. Shape check.
    assert!((0.6..1.6).contains(&mean), "mean {mean}");
    assert!(p90 > mean && p99 > p90);
    assert!((1.0..2.4).contains(&p90), "p90 {p90}");
    assert!((1.2..3.5).contains(&p99), "p99 {p99}");
}

#[test]
fn table3_gains_match_paper_shape() {
    let host = VSwitchConfig::middlebox_host();
    let vm = VmConfig {
        vcpus: 64,
        per_core_cps: 90_000.0,
    };
    let rows = middlebox::gains(&host, &vm);
    let lb = &rows[0];
    let nat = &rows[1];
    let tr = &rows[2];
    // Table 3 ordering: NAT > LB > TR on CPS gain; all 2.5-5.5x.
    assert!(nat.cps_gain > lb.cps_gain && lb.cps_gain > tr.cps_gain);
    for r in &rows {
        assert!(
            (2.5..5.5).contains(&r.cps_gain),
            "{} cps gain {}",
            r.name,
            r.cps_gain
        );
        assert!(r.vnic_gain > 40.0, "{} vnic gain {}", r.name, r.vnic_gain);
    }
    // Flows: NAT ≫ TR ≫ LB (50.4 / 15.3 / 5.04).
    assert!(nat.flows_gain > tr.flows_gain && tr.flows_gain > lb.flows_gain);
    assert!(
        (3.0..8.0).contains(&lb.flows_gain),
        "lb flows {}",
        lb.flows_gain
    );
    assert!(
        (30.0..70.0).contains(&nat.flows_gain),
        "nat flows {}",
        nat.flows_gain
    );
    assert!(
        (10.0..25.0).contains(&tr.flows_gain),
        "tr flows {}",
        tr.flows_gain
    );
}

#[test]
fn recorded_registry_mirrors_the_report() {
    let mut r = Region::new(RegionConfig {
        servers: 500,
        spike_prob: 0.05,
        ..small_cfg()
    });
    let report = r.run_days(3, true);
    let reg = MetricsRegistry::new();
    report.record_into(&reg);
    let snap = reg.snapshot();
    let (cps, flows, vnics) = report.totals();
    assert_eq!(snap.counter("region.overload.cps"), cps);
    assert_eq!(snap.counter("region.overload.flows"), flows);
    assert_eq!(snap.counter("region.overload.vnics"), vnics);
    assert_eq!(snap.counter("region.offload_events"), report.offload_events);
    assert_eq!(
        snap.counter("region.fes_provisioned"),
        report.total_fes_provisioned
    );
    assert_eq!(
        snap.counter("region.scale_out_events"),
        report.scale_out_events
    );
    let cpu = snap.histogram("region.cpu_util");
    assert_eq!(cpu.len(), report.cpu_utils.len());
    assert!((cpu.mean() - report.cpu_utils.mean()).abs() < 1e-12);
}

#[test]
fn appendix_b2_scale_out_rate_is_small() {
    let mut r = Region::new(RegionConfig {
        servers: 5_000,
        spike_prob: 0.004,
        ..small_cfg()
    });
    let report = r.run_days(30, true);
    assert!(
        report.offload_events > 50,
        "events {}",
        report.offload_events
    );
    // Appendix B.2: ≈4 FEs per offload, ≤ a few % scale-outs.
    let per_offload = report.total_fes_provisioned as f64 / report.offload_events as f64;
    assert!(
        (4.0..4.5).contains(&per_offload),
        "FEs/offload {per_offload}"
    );
    let ratio = report.scale_out_events as f64 / report.offload_events as f64;
    assert!(ratio < 0.10, "scale-out ratio {ratio}");
}

fn stress_cfg() -> RegionConfig {
    RegionConfig {
        servers: 1_200,
        tenants: 60_000,
        spike_prob: 0.01,
        epoch: SimDuration::from_secs(3600),
        ..Default::default()
    }
}

/// Collapses a report into a bitwise-comparable signature.
fn signature(report: &mut RegionReport) -> Vec<u64> {
    let (c, f, v) = report.totals();
    vec![
        c,
        f,
        v,
        report.cpu_utils.len() as u64,
        report.cpu_utils.mean().to_bits(),
        report.cpu_utils.percentile(99.0).to_bits(),
        report.mem_utils.mean().to_bits(),
        report.offload_events,
        report.offload_denied,
        report.total_fes_provisioned,
        report.scale_out_events,
        report.completion_times.mean().to_bits(),
        report.tenant_births,
        report.tenant_deaths,
        report.migrations,
        report.flash_crowds,
        report.fault_crashes,
    ]
}

#[test]
fn shard_count_is_unobservable() {
    // The tentpole invariant, smoke-sized (the exhaustive matrix
    // lives in tests/shard_equivalence.rs): every output bit is
    // independent of how the partition is executed.
    let sc = Scenario::production_day();
    let mut base = None;
    for shards in [1u32, 3, 8] {
        let mut r = Region::new(RegionConfig {
            shards,
            ..stress_cfg()
        });
        let mut report = r.run_scenario(&sc, true);
        let sig = signature(&mut report);
        match &base {
            None => base = Some(sig),
            Some(b) => assert_eq!(b, &sig, "shards={shards} diverged"),
        }
    }
}

/// The SLO rule set the region experiments ship with (also used by
/// `experiments watch_region`).
fn region_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
        SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        SloRule::fairness_below("overload_skew", "region.overload.", 0.35),
    ]
}

#[test]
fn window_stream_is_shard_count_invariant() {
    let sc = Scenario::production_day();
    let mut base: Option<(String, String)> = None;
    for shards in [1u32, 4] {
        let mut r = Region::new(RegionConfig {
            shards,
            ..stress_cfg()
        });
        r.enable_windows(8, region_rules());
        let _ = r.run_scenario(&sc, true);
        let w = r.windows().unwrap();
        // One window per epoch: 24 for a 1-hour-epoch production day;
        // the ring retains only the last 8 but the stream keeps all.
        assert_eq!(w.closed(), 24);
        assert_eq!(w.windows().count(), 8);
        assert_eq!(w.jsonl_lines().len(), 24);
        assert!(
            !w.watchdog().events().is_empty(),
            "production day must trip at least one SLO rule"
        );
        let sig = (w.jsonl(), w.watchdog().events_jsonl());
        match &base {
            None => base = Some(sig),
            Some(b) => assert_eq!(b, &sig, "shards={shards} window stream diverged"),
        }
    }
}

#[test]
fn windows_capture_barrier_and_shard_effects() {
    let mut r = Region::new(stress_cfg());
    r.enable_windows(24, Vec::new());
    let report = r.run_scenario(&Scenario::production_day(), true);
    let w = r.windows().unwrap();
    let sum = |key: &str| -> u64 { w.windows().map(|rec| rec.counter(key)).sum() };
    // Shard-merged window counters reproduce the report totals.
    assert_eq!(sum("region.tenant_births"), report.tenant_births);
    assert_eq!(sum("region.tenant_deaths"), report.tenant_deaths);
    assert_eq!(sum("region.fault_crashes"), report.fault_crashes);
    // Barrier-level counters reproduce the report totals too.
    assert_eq!(sum("region.migrations"), report.migrations);
    assert_eq!(sum("region.flash_crowds"), report.flash_crowds);
    assert_eq!(sum("region.offload_granted"), report.offload_events);
    // Utilization histograms cover every (alive) server-epoch sample.
    let hist_count: u64 = w
        .windows()
        .filter_map(|rec| rec.hist("region.util.cpu"))
        .map(|s| s.count)
        .sum();
    assert_eq!(hist_count as usize, report.cpu_utils.len());
}

/// Every bit of a report: counters, daily rows and each raw sample.
fn exact_bits(r: &RegionReport) -> Vec<u64> {
    let mut bits = vec![
        r.offload_events,
        r.offload_denied,
        r.total_fes_provisioned,
        r.scale_out_events,
        r.tenant_births,
        r.tenant_deaths,
        r.migrations,
        r.flash_crowds,
        r.fault_crashes,
    ];
    for daily in [&r.daily_cps, &r.daily_flows, &r.daily_vnics] {
        bits.extend(daily.iter().copied());
    }
    for samples in [&r.cpu_utils, &r.mem_utils, &r.completion_times] {
        bits.push(samples.len() as u64);
        bits.extend(samples.raw().iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn windows_observe_without_perturbing_the_report() {
    // The window fold reads the samples the report gets; it must not
    // reorder, drop or add one, at any shard count.
    let sc = Scenario::production_day();
    let mut base = None;
    for shards in [1u32, 3, 8] {
        let cfg = RegionConfig {
            shards,
            ..stress_cfg()
        };
        let off = Region::new(cfg).run_scenario(&sc, true);
        let mut watched = Region::new(cfg);
        watched.enable_windows(24, region_rules());
        let on = watched.run_scenario(&sc, true);
        let bits = exact_bits(&on);
        assert_eq!(
            bits,
            exact_bits(&off),
            "shards={shards}: windows moved a bit"
        );
        assert_eq!(base.get_or_insert(bits.clone()), &bits, "shards={shards}");

        // Each window's histograms count that epoch's samples once.
        let w = watched.windows().unwrap();
        for key in ["region.util.cpu", "region.util.mem"] {
            let counted: u64 = w
                .windows()
                .map(|rec| rec.hist(key).map_or(0, |s| s.count))
                .sum();
            assert_eq!(
                counted as usize,
                on.cpu_utils.len(),
                "shards={shards} {key}"
            );
        }
    }
}

#[test]
fn a_second_run_continues_the_window_stream() {
    let mut r = Region::new(stress_cfg());
    r.enable_windows(64, region_rules());
    let _ = r.run_scenario(&Scenario::production_day(), true);
    let _ = r.run_scenario(&Scenario::quiet(1), true);
    let w = r.windows().unwrap();
    assert_eq!(w.closed(), 48);
    assert_eq!(w.closed() as usize, w.jsonl_lines().len());
    let indices: Vec<u64> = w.windows().map(|rec| rec.index).collect();
    assert_eq!(
        indices,
        (0..48).collect::<Vec<u64>>(),
        "monotonic across runs"
    );
    for (i, line) in w.jsonl_lines().iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"window\": {i},")), "{line}");
    }
    // Window times restart with the run's clock; only the index is
    // the stream position.
    assert_eq!(w.windows().nth(24).unwrap().start, SimTime(0));
}

#[test]
fn a_zero_day_run_leaves_only_its_rollout_grants_and_the_next_run_drops_them() {
    let mut r = Region::new(stress_cfg());
    r.enable_windows(24, region_rules());
    // No epoch runs, but the rollout still resolves its grants and the
    // sink still hands the windows back.
    let empty = r.run_scenario(&Scenario::quiet(0), true);
    assert_eq!(empty.cpu_utils.len(), 0);
    assert_eq!(empty.mem_utils.len(), 0);
    assert!(
        empty.offload_events > 0,
        "no rollout grants to leave behind"
    );
    assert_eq!(r.windows().unwrap().closed(), 0);

    // Those grants sat in the open window; the next run starts it over,
    // so its windows count only its own grants.
    let day = r.run_scenario(&Scenario::quiet(1), true);
    let w = r.windows().unwrap();
    assert_eq!(w.closed(), 24);
    let granted: u64 = w
        .windows()
        .map(|rec| rec.counter("region.offload_granted"))
        .sum();
    assert_eq!(granted, day.offload_events);
}

#[test]
fn production_day_exercises_every_stressor() {
    let mut r = Region::new(stress_cfg());
    let report = r.run_scenario(&Scenario::production_day(), true);
    assert!(
        report.tenant_births > 100,
        "births {}",
        report.tenant_births
    );
    assert!(
        report.tenant_deaths > 100,
        "deaths {}",
        report.tenant_deaths
    );
    assert!(report.migrations > 100, "migrations {}", report.migrations);
    assert!(report.flash_crowds > 0, "no flash crowds fired");
    assert!(report.fault_crashes > 0, "no fault waves fired");
    // Tenant demand visibly lifts utilization above the bare
    // baseline model.
    let mut bare = Region::new(RegionConfig {
        tenants: 0,
        ..stress_cfg()
    });
    let bare_report = bare.run_scenario(&Scenario::quiet(1), true);
    assert!(report.cpu_utils.mean() > bare_report.cpu_utils.mean());
}

#[test]
fn fe_pool_cap_denies_offloads_deterministically() {
    let cfg = RegionConfig {
        fe_pool_cap: 40, // room for 10 grants of 4 FEs
        spike_prob: 0.05,
        ..stress_cfg()
    };
    let mut r = Region::new(cfg);
    let report = r.run_scenario(&Scenario::quiet(3), true);
    assert!(report.offload_denied > 0, "cap never hit");
    assert!(
        report.offload_events <= 10,
        "grants {} exceed the pool",
        report.offload_events
    );
    // Denials must be shard-count invariant too.
    let mut r2 = Region::new(RegionConfig { shards: 7, ..cfg });
    let report2 = r2.run_scenario(&Scenario::quiet(3), true);
    assert_eq!(report.offload_events, report2.offload_events);
    assert_eq!(report.offload_denied, report2.offload_denied);
}

#[test]
fn pending_events_scale_with_churn_not_population() {
    // Lazy materialization: a million-tenant region queues only its
    // churners/migrators (~ (churn + migrate) · tenants), never the
    // population.
    let mut r = Region::new(RegionConfig {
        servers: 2_000,
        tenants: 1_000_000,
        ..Default::default()
    });
    let sc = Scenario {
        churn_frac: 0.002,
        migrate_frac: 0.001,
        ..Scenario::quiet(1)
    };
    // Drive one run so queues are populated, then rebuild the run
    // state and inspect before draining.
    let _ = r.run_scenario(&sc, false);
    assert_eq!(r.pending_events(), 0, "a finished run drains its queues");
    let mut r2 = Region::new(RegionConfig {
        servers: 2_000,
        tenants: 1_000_000,
        ..Default::default()
    });
    r2.prime_for_test(&sc);
    let pending = r2.pending_events();
    let expected = (0.003 * 1_000_000.0) as usize;
    assert!(pending > expected / 2, "pending {pending} too low");
    assert!(
        pending < expected * 2,
        "pending {pending} scales with population?"
    );
}

#[test]
fn fault_waves_crash_before_restart_and_late_restarts_stay_pending() {
    // Every epoch crashes all 64 servers for two epochs: from epoch 2 on,
    // a server's restart (from two epochs back) and its next crash fall
    // in the same epoch, and the crash applies first. The last two
    // waves' restarts fall past the run and stay queued.
    let sc = Scenario {
        fault_prob: 1.0,
        fault_span: 64,
        fault_epochs: 2,
        ..Scenario::quiet(2)
    };
    for shards in [1, 3, 8] {
        let mut r = Region::new(RegionConfig {
            servers: 64,
            shards,
            ..small_cfg()
        });
        let report = r.run_scenario(&sc, false);
        assert_eq!(report.fault_crashes, 8 * 64, "shards {shards}");
        assert_eq!(r.pending_events(), 2 * 64, "shards {shards}");
        let (down, up) = report.cpu_utils.raw().split_at(2 * 64);
        assert!(down.iter().all(|&u| u == 0.0), "shards {shards}");
        assert!(up.iter().all(|&u| u > 0.0), "shards {shards}");
    }
}
