//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `/BENCHMARK.json` states the same
//! names for the outside world; a unit test holds the two together.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and what one unit of its work is.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Normative name.
    pub name: &'static str,
    /// The unit `work_per_wall_s` counts on this workload.
    pub work_unit: &'static str,
}

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "crr_offloaded",
        work_unit: "completed connections",
    },
    Workload {
        name: "crr_local",
        work_unit: "completed connections",
    },
    Workload {
        name: "fastpath_wide",
        work_unit: "packets not dropped",
    },
    Workload {
        name: "synflood_offloaded",
        work_unit: "SYNs absorbed",
    },
    Workload {
        name: "region_month",
        work_unit: "server-epoch samples",
    },
];

/// An end-to-end metric and the share of the parent's median by which
/// it may get worse before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound, as a share of the reference median.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. (`fail_ratio`, the
/// fifth, is carried by the result line's `attempted` / `failed`: it is
/// 0 on every workload and a bounded metric may never be 0.)
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric. Layers are the simulator's module paths.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<module path>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in ledger order. A metric that does not
/// apply to a workload (region counts on a cluster run, FE packets on
/// `crr_local`) reads 0 there.
pub const PER_LAYER: [PerLayer; 56] = [
    lower("workloads.generate_s", "s"),
    lower("workloads.specs", "count"),
    lower("core.cluster.build_s", "s"),
    lower("core.controller.offload_settle_s", "s"),
    lower("core.driver.register_s", "s"),
    lower("core.driver.register_ns_per_op", "ns"),
    lower("core.cluster.run_until_s", "s"),
    lower("core.cluster.ns_per_event", "ns"),
    lower("core.cluster.slice_p50_us", "us"),
    lower("core.cluster.slice_p99_us", "us"),
    higher("core.cluster.slice_tail_pct", "%"),
    higher("core.cluster.slices", "count"),
    lower("core.cluster.snapshot_s", "s"),
    lower("core.datapath.fe_rx_pkts", "count"),
    lower("core.datapath.notifies", "count"),
    lower("core.datapath.residual_share", "ratio"),
    lower("sim.engine.events", "count"),
    lower("sim.engine.scheduled", "count"),
    lower("sim.engine.peak_pending", "count"),
    higher("sim.engine.events_per_wall_s", "1/s"),
    lower("sim.engine.hold_ns", "ns"),
    lower("sim.engine.est_share", "ratio"),
    lower("sim.engine.below_horizon_insert_ns", "ns"),
    lower("sim.engine.below_horizon_insert_1k_ns", "ns"),
    lower("sim.dense.get_hit_ns", "ns"),
    lower("sim.dense.insert_remove_ns", "ns"),
    lower("sim.metrics.inc_ns", "ns"),
    lower("sim.metrics.observe_ns", "ns"),
    lower("sim.obs.loghist_record_ns", "ns"),
    lower("sim.metrics.est_share", "ratio"),
    lower("sim.obs.windows_closed", "count"),
    lower("sim.obs.slo_events", "count"),
    higher("vswitch.fast_path_share", "ratio"),
    lower("vswitch.stage.lookups", "count"),
    lower("vswitch.stage.lookup_ns", "ns"),
    lower("vswitch.stage.est_share", "ratio"),
    lower("vswitch.vswitch.process_fast_ns", "ns"),
    lower("vswitch.vswitch.process_slow_ns", "ns"),
    lower("vswitch.session.created", "count"),
    lower("vswitch.session.expired", "count"),
    lower("vswitch.session.peak_live", "count"),
    lower("vswitch.session.get_ns", "ns"),
    lower("vswitch.session.insert_ns", "ns"),
    lower("vswitch.session.expire_ns_per_entry", "ns"),
    lower("vswitch.session.est_share", "ratio"),
    lower("types.nsh.encode_parse_ns", "ns"),
    lower("core.region.run_scenario_s", "s"),
    lower("core.region.ns_per_sample", "ns"),
    lower("core.region.offload_events", "count"),
    lower("core.region.shards1_over_shards8", "ratio"),
    lower("alloc.calls_per_event", "1/event"),
    lower("alloc.bytes_per_event", "B/event"),
    lower("alloc.setup_mb", "MB"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.top_level_cover_error", "ratio"),
    lower("fail_ratio", "ratio"),
];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 20_058;
/// Measuring seconds used when none are given (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 5.0;
/// Untraced child runs per workload whose medians are the result.
pub const REPEATS: usize = 5;
/// Untraced child runs beside the traced one in a `--trace 1` run; they
/// are the base of `trace.overhead_ratio`.
pub const TRACE_BASE_REPEATS: usize = 3;

/// The common factor on every workload's measured simulated work, per
/// measuring second asked for: at `--seconds 5` the five measured
/// segments of a workload take about five seconds of wall time, in a
/// quiet phase, on the two-core box the benchmark was sized on.
pub const SCALE_PER_SECOND: f64 = 0.045;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
