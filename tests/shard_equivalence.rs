//! Shard-equivalence harness: proves the region simulator's tentpole
//! invariant — **the shard count is an execution detail, never a model
//! parameter**. The same scenario runs at 1, 2, 4, and 8 shards on
//! three seeds; every observable (the full [`RegionReport`] rendered
//! with bit-exact floats, the FNV-1a hash of the metrics snapshot JSON,
//! and the bench report's deterministic section) must be byte-identical
//! across shard counts, and the 1-shard rendering is additionally
//! pinned against a checked-in golden fixture so cross-commit drift is
//! caught too.
//!
//! To regenerate the fixtures (only legitimate when a PR *intentionally*
//! changes region-model behavior and says so):
//!
//! ```sh
//! NEZHA_REGEN_FIXTURES=1 cargo test --test shard_equivalence
//! ```

use nezha::core::region::{Region, RegionConfig, RegionReport, Scenario};
use nezha::sim::metrics::MetricsRegistry;
use nezha::sim::obs::SloRule;
use nezha::sim::time::SimDuration;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [41, 42, 43];
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// FNV-1a, 64-bit. Stable across platforms and std versions, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A scaled-down production region: every stressor of the production-day
/// scenario on a population large enough that churn, migration, flash
/// crowds, and fault waves all fire on every seed.
fn scenario_cfg(seed: u64, shards: u32) -> RegionConfig {
    RegionConfig {
        servers: 1_500,
        shards,
        seed,
        tenants: 50_000,
        spike_prob: 0.01,
        epoch: SimDuration::from_secs(3600),
        ..Default::default()
    }
}

/// Renders every observable of a run into a line-oriented text form.
/// Floats are rendered as raw bits so "identical" means bit-identical,
/// not approximately equal.
fn report_repr(report: &mut RegionReport, metrics_json: &str, bench_json: &str) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        let _ = writeln!(out, "{k}={v}");
    };
    let (cps, flows, vnics) = report.totals();
    line("overloads.cps", cps.to_string());
    line("overloads.flows", flows.to_string());
    line("overloads.vnics", vnics.to_string());
    line("daily.cps", format!("{:?}", report.daily_cps));
    line("daily.flows", format!("{:?}", report.daily_flows));
    line("daily.vnics", format!("{:?}", report.daily_vnics));
    line("offload_events", report.offload_events.to_string());
    line("offload_denied", report.offload_denied.to_string());
    line(
        "total_fes_provisioned",
        report.total_fes_provisioned.to_string(),
    );
    line("scale_out_events", report.scale_out_events.to_string());
    line("tenant_births", report.tenant_births.to_string());
    line("tenant_deaths", report.tenant_deaths.to_string());
    line("migrations", report.migrations.to_string());
    line("flash_crowds", report.flash_crowds.to_string());
    line("fault_crashes", report.fault_crashes.to_string());
    for (name, s) in [
        ("cpu_utils", &mut report.cpu_utils),
        ("mem_utils", &mut report.mem_utils),
        ("completion_times", &mut report.completion_times),
    ] {
        let (mean, p50, p90, p99, p999, p9999) = s.summary();
        let _ = writeln!(
            out,
            "{name}: n={} mean={:016x} p50={:016x} p90={:016x} p99={:016x} \
             p999={:016x} p9999={:016x}",
            s.len(),
            mean.to_bits(),
            p50.to_bits(),
            p90.to_bits(),
            p99.to_bits(),
            p999.to_bits(),
            p9999.to_bits(),
        );
    }
    let _ = writeln!(out, "metrics_hash={:016x}", fnv1a(metrics_json.as_bytes()));
    let _ = writeln!(out, "--- bench deterministic section ---");
    out.push_str(bench_json);
    out.push('\n');
    out
}

fn run_once(seed: u64, shards: u32, nezha: bool) -> String {
    let reg = MetricsRegistry::new();
    let mut region = Region::new(scenario_cfg(seed, shards));
    region.attach_metrics(&reg);
    let mut report = region.run_scenario(&Scenario::production_day(), nezha);
    let metrics_json = reg.snapshot().to_json();
    let bench_json = report
        .bench_report("shard_equivalence")
        .deterministic_json();
    report_repr(&mut report, &metrics_json, &bench_json)
}

fn fixture_path(name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/shard")
        .join(format!("{name}_seed{seed}.txt"))
}

fn check_or_regen(name: &str, seed: u64, actual: &str) {
    let path = fixture_path(name, seed);
    if std::env::var("NEZHA_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with \
             NEZHA_REGEN_FIXTURES=1 only if a behavior change is intended",
            path.display()
        )
    });
    if expected != actual {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        match mismatch {
            Some((i, (e, a))) => panic!(
                "{name} seed {seed} diverged from the golden fixture at \
                 line {}:\n  fixture: {e}\n  actual:  {a}",
                i + 1
            ),
            None => panic!(
                "{name} seed {seed} diverged from the golden fixture \
                 (line counts differ: fixture {} vs actual {})",
                expected.lines().count(),
                actual.lines().count()
            ),
        }
    }
}

/// The tentpole matrix: {1, 2, 4, 8} shards × 3 seeds with Nezha on.
/// Every shard count must reproduce the 1-shard run byte for byte, and
/// the 1-shard run must match its golden fixture.
#[test]
fn shard_counts_are_byte_identical_with_nezha() {
    for seed in SEEDS {
        let baseline = run_once(seed, SHARD_COUNTS[0], true);
        for &shards in &SHARD_COUNTS[1..] {
            let actual = run_once(seed, shards, true);
            if baseline != actual {
                let (i, (e, a)) = baseline
                    .lines()
                    .zip(actual.lines())
                    .enumerate()
                    .find(|(_, (e, a))| e != a)
                    .expect("same line count but unequal text");
                panic!(
                    "seed {seed}: shards={shards} diverged from shards=1 at \
                     line {}:\n  1 shard:  {e}\n  {shards} shards: {a}",
                    i + 1
                );
            }
        }
        check_or_regen("nezha", seed, &baseline);
    }
}

/// The region watch's SLO rule set (mirrors `experiments watch
/// --config=region`), so the golden fixture pins the event log the live
/// view would show.
fn window_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
        SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        SloRule::fairness_below("overload_skew", "region.overload.", 0.35),
    ]
}

/// One windowed run: the full JSONL window stream plus the SLO event
/// log, exactly as the exporters would write them.
fn run_windows(seed: u64, shards: u32) -> String {
    let mut region = Region::new(scenario_cfg(seed, shards));
    region.enable_windows(64, window_rules());
    let _ = region.run_scenario(&Scenario::production_day(), true);
    let rollup = region.windows().expect("windows enabled");
    format!(
        "{}--- slo events ---\n{}",
        rollup.jsonl(),
        rollup.watchdog().events_jsonl()
    )
}

/// The observability tentpole's acceptance test: the per-epoch window
/// stream (counters, histogram summaries, SLO events — all of it
/// assembled from per-shard effects merged at barriers) is byte-identical
/// at every shard count, and pinned against a golden fixture. One seed:
/// each cell is a full production-day run, and the merge path it
/// exercises is seed-independent.
#[test]
fn window_stream_and_slo_log_are_byte_identical_across_shards() {
    let seed = SEEDS[0];
    let baseline = run_windows(seed, SHARD_COUNTS[0]);
    for &shards in &SHARD_COUNTS[1..] {
        let actual = run_windows(seed, shards);
        if baseline != actual {
            let (i, (e, a)) = baseline
                .lines()
                .zip(actual.lines())
                .enumerate()
                .find(|(_, (e, a))| e != a)
                .expect("same line count but unequal text");
            panic!(
                "seed {seed}: windowed run at shards={shards} diverged from \
                 shards=1 at line {}:\n  1 shard:  {e}\n  {shards} shards: {a}",
                i + 1
            );
        }
    }
    check_or_regen("windows", seed, &baseline);
}

/// Same matrix without Nezha (pure overload accounting, no controller
/// traffic): the invariance must not depend on the offload machinery.
#[test]
fn shard_counts_are_byte_identical_without_nezha() {
    for seed in SEEDS {
        let baseline = run_once(seed, SHARD_COUNTS[0], false);
        for &shards in &SHARD_COUNTS[1..] {
            assert_eq!(
                baseline,
                run_once(seed, shards, false),
                "seed {seed}: shards={shards} diverged from shards=1 (no-nezha)"
            );
        }
        check_or_regen("baseline", seed, &baseline);
    }
}
