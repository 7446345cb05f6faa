//! The cluster's telemetry plumbing: the one [`Telemetry`] handle every
//! component is constructed with, and the closed vocabularies (`Ctr`,
//! `Hist`, `Series`) naming each cluster-level instrument once.
//!
//! Registration happens exactly once, in `ClusterTelemetry::register`
//! (called from `Cluster::new`). Registry lookups are string-keyed — each
//! builds its key `String` — so handlers record through the handle arrays
//! and never look up mid-simulation; a per-event lookup would show in
//! `tests/alloc_budget.rs`.

use nezha_sim::metrics::{CounterHandle, GaugeHandle, HistogramHandle, SeriesHandle};
use nezha_sim::obs::{RegistryWindows, SloRule};
use nezha_sim::stats::{Counter, Samples, TimeSeries};
use nezha_sim::telemetry::Telemetry;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::ServerId;

/// Aggregated measurements.
///
/// Since the telemetry redesign this is an owned *view* assembled on
/// demand from the cluster's [`nezha_sim::metrics::MetricsRegistry`] by
/// `Cluster::stats`; field names are unchanged so `c.stats.X` call sites
/// only became `c.stats().X`. Its sample sets share the registry's buffers
/// (`Samples::share`), so assembling it copies no sample; the series are
/// cloned. Experiments should prefer reading the registry snapshot
/// directly (`c.metrics().snapshot()`).
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Connection-packet delivery counter (ok vs lost).
    pub pkts: Counter,
    /// End-to-end latency of probe packets (seconds).
    pub probe_latency: Samples,
    /// Completed connection latencies (seconds).
    pub conn_latency: Samples,
    /// Completed connections per time bin (CPS series).
    pub cps_series: TimeSeries,
    /// Lost packets per time bin.
    pub loss_series: TimeSeries,
    /// Injected packets per time bin.
    pub total_series: TimeSeries,
    /// Offload activation completion times (seconds; Table 4).
    pub offload_completion: Samples,
    /// Connections completed / denied / failed.
    pub completed: u64,
    /// Connections denied by policy.
    pub denied: u64,
    /// Connections failed after retries.
    pub failed: u64,
    /// Notify packets generated (§3.2.2).
    pub notifies: u64,
    /// Mirror copies emitted toward collectors (advanced tables, §2.2.2).
    /// Under Nezha the FE emits TX-direction copies and the BE emits
    /// RX-direction ones (each holds the packet at finalization time).
    pub mirror_copies: u64,
    /// RX packets that reached the BE after the final stage and had to be
    /// bounced to an FE (stale vNIC-server mappings).
    pub stale_bounces: u64,
    /// Packets that arrived somewhere that could not process them.
    pub misroutes: u64,
    /// Controller event counters.
    pub offload_events: u64,
    /// Scale-out operations performed.
    pub scale_out_events: u64,
    /// Scale-in operations performed.
    pub scale_in_events: u64,
    /// Fallback operations performed.
    pub fallback_events: u64,
    /// Failovers completed.
    pub failover_events: u64,
    /// Monitor false-positive suspensions (Appendix C).
    pub monitor_suspensions: u64,
    /// Scripted fault transitions applied (chaos injection).
    pub fault_events: u64,
    /// Graceful degradations: the FE pool collapsed and the BE fell back
    /// to local processing from the data plane.
    pub degraded_events: u64,
    /// FE pool membership changes caused by failure handling — each one
    /// re-hashes a slice of the flow space (re-hash churn).
    pub rehash_churn: u64,
    /// Crash-to-failover detection latencies (seconds).
    pub detection_latency: Samples,
}

/// Declares a closed instrument vocabulary: each line names a variant
/// and its registry key, once. The variant indexes the handle array
/// registered from `ALL`.
macro_rules! vocabulary {
    ($(#[$meta:meta])* $name:ident { $($variant:ident = $key:literal),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum $name { $($variant),+ }

        impl $name {
            /// Every variant with its registry key, in index order.
            const ALL: [($name, &'static str); [$($key),+].len()] =
                [$(($name::$variant, $key)),+];
        }
    };
}

vocabulary! {
    /// The cluster-level counters.
    Ctr {
        PktOk = "pkt.ok",
        PktDropped = "pkt.dropped",
        Completed = "conn.completed",
        Denied = "conn.denied",
        Failed = "conn.failed",
        Notifies = "nsh.notifies",
        MirrorCopies = "pkt.mirror_copies",
        StaleBounces = "pkt.stale_bounces",
        Misroutes = "pkt.misroutes",
        OffloadEvents = "ctrl.offload_events",
        ScaleOutEvents = "ctrl.scale_out_events",
        ScaleInEvents = "ctrl.scale_in_events",
        FallbackEvents = "ctrl.fallback_events",
        FailoverEvents = "ctrl.failover_events",
        MonitorSuspensions = "monitor.suspensions",
        FaultEvents = "fault.events",
        FaultLinkDrops = "fault.link_drops",
        FaultNotifyDrops = "fault.notify_drops",
        FaultInflightLoss = "fault.inflight_loss",
        DegradedEvents = "ctrl.degraded_events",
        RehashChurn = "fault.rehash_churn",
    }
}

vocabulary! {
    /// The cluster-level exact-sample histograms (seconds).
    Hist {
        ProbeLatency = "latency.probe",
        ConnLatency = "latency.conn",
        OffloadCompletion = "offload.completion",
        DetectionLatency = "fault.detection_latency",
    }
}

vocabulary! {
    /// The cluster-level binned series.
    Series {
        Cps = "conn.cps",
        Loss = "pkt.loss",
        Total = "pkt.total",
    }
}

impl Series {
    fn bin(self) -> SimDuration {
        match self {
            Series::Cps => SimDuration::from_millis(50),
            Series::Loss | Series::Total => SimDuration::from_millis(100),
        }
    }
}

/// The cluster's telemetry plumbing: the shared handle and the
/// pre-registered handles every hot-path increment goes through.
/// Registered once in `Cluster::new`.
#[derive(Debug, Clone)]
pub(crate) struct ClusterTelemetry {
    /// The registry, trace ring and profiler shared by the engine, every
    /// vSwitch, and the cluster (trace and profiler disabled until
    /// `Cluster::enable_trace` / `Cluster::enable_profile`).
    pub(crate) shared: Telemetry,
    /// Handles indexed by [`Ctr`], [`Hist`] and [`Series`].
    counters: [CounterHandle; Ctr::ALL.len()],
    hists: [HistogramHandle; Hist::ALL.len()],
    series: [SeriesHandle; Series::ALL.len()],
    /// Per-server controller report gauges, indexed by `ServerId.0`.
    /// Pre-registered at startup: a string-keyed lookup per report would
    /// allocate its key mid-simulation.
    pub(crate) ctrl_gauges: Vec<ServerCtrlGauges>,
    /// Windowed-rollup driver (None until `Cluster::enable_windows`).
    pub(crate) windows: Option<RegistryWindows>,
    /// Per-server FE RX-packet counters (`fe.rx_pkts{server=i}`) feeding
    /// the fairness SLO, indexed by `ServerId.0`. Registered together
    /// with the rollup in [`ClusterTelemetry::register_windows`], so runs
    /// that never enable windows keep their golden snapshots unchanged.
    pub(crate) fe_rx: Option<Vec<CounterHandle>>,
}

/// The gauges one controller report publishes for one server.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerCtrlGauges {
    pub(crate) cpu_util: GaugeHandle,
    pub(crate) mem_util: GaugeHandle,
    pub(crate) local_cycles: GaugeHandle,
    pub(crate) remote_cycles: GaugeHandle,
}

impl ClusterTelemetry {
    /// Registers every cluster-level handle against `shared`.
    pub(crate) fn register(shared: Telemetry, servers: usize) -> Self {
        let registry = &shared.registry;
        let ctrl_gauges = (0..servers)
            .map(|i| {
                let labels = [("server", i.to_string())];
                ServerCtrlGauges {
                    cpu_util: registry.gauge("ctrl.cpu_util", &labels),
                    mem_util: registry.gauge("ctrl.mem_util", &labels),
                    local_cycles: registry.gauge("ctrl.local_cycles", &labels),
                    remote_cycles: registry.gauge("ctrl.remote_cycles", &labels),
                }
            })
            .collect();
        ClusterTelemetry {
            counters: Ctr::ALL.map(|(_, key)| registry.counter(key, &[])),
            hists: Hist::ALL.map(|(_, key)| registry.histogram(key, &[])),
            series: Series::ALL.map(|(s, key)| registry.series(key, &[], s.bin())),
            ctrl_gauges,
            windows: None,
            fe_rx: None,
            shared,
        }
    }

    /// Registers the windowed-rollup driver plus the per-FE-server RX
    /// counters the fairness SLO consumes. Lazy by design: enabling
    /// windows adds `fe.rx_pkts{server=i}` keys to the registry, so runs
    /// that never call this serialize exactly the golden snapshots
    /// pinned before the observability plane existed.
    pub(crate) fn register_windows(
        &mut self,
        servers: usize,
        width: SimDuration,
        retain: usize,
        rules: Vec<SloRule>,
    ) {
        let fe_rx = (0..servers)
            .map(|i| {
                self.shared
                    .registry
                    .counter("fe.rx_pkts", &[("server", i.to_string())])
            })
            .collect();
        self.fe_rx = Some(fe_rx);
        self.windows = Some(RegistryWindows::new(width, retain, rules));
    }

    /// Hot-path increment of the per-FE RX counter (no-op until windows
    /// are enabled). One branch, one borrow, one index — no allocation.
    pub(crate) fn note_fe_rx(&self, server: ServerId) {
        if let Some(fe_rx) = &self.fe_rx {
            if let Some(h) = fe_rx.get(server.0 as usize) {
                self.shared.registry.inc(*h);
            }
        }
    }

    /// Counter increment (hot path: one borrow + one index).
    pub(crate) fn inc(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Counter increment by `n`.
    pub(crate) fn add(&self, c: Ctr, n: u64) {
        self.shared.registry.add(self.counters[c as usize], n);
    }

    /// Duration observation in seconds.
    pub(crate) fn observe_duration(&self, h: Hist, d: SimDuration) {
        self.shared
            .registry
            .observe_duration(self.hists[h as usize], d);
    }

    /// Series bin accumulation.
    pub(crate) fn series_add(&self, s: Series, at: SimTime, v: f64) {
        self.shared
            .registry
            .series_add(self.series[s as usize], at, v);
    }

    /// Assembles the legacy [`ClusterStats`] view from the registry.
    pub(crate) fn stats(&self) -> ClusterStats {
        let reg = &self.shared.registry;
        let v = |c: Ctr| reg.counter_value(self.counters[c as usize]);
        let h = |h: Hist| reg.histogram_samples(self.hists[h as usize]);
        let s = |s: Series| reg.series_data(self.series[s as usize]);
        ClusterStats {
            pkts: Counter {
                ok: v(Ctr::PktOk),
                dropped: v(Ctr::PktDropped),
            },
            probe_latency: h(Hist::ProbeLatency),
            conn_latency: h(Hist::ConnLatency),
            cps_series: s(Series::Cps),
            loss_series: s(Series::Loss),
            total_series: s(Series::Total),
            offload_completion: h(Hist::OffloadCompletion),
            completed: v(Ctr::Completed),
            denied: v(Ctr::Denied),
            failed: v(Ctr::Failed),
            notifies: v(Ctr::Notifies),
            mirror_copies: v(Ctr::MirrorCopies),
            stale_bounces: v(Ctr::StaleBounces),
            misroutes: v(Ctr::Misroutes),
            offload_events: v(Ctr::OffloadEvents),
            scale_out_events: v(Ctr::ScaleOutEvents),
            scale_in_events: v(Ctr::ScaleInEvents),
            fallback_events: v(Ctr::FallbackEvents),
            failover_events: v(Ctr::FailoverEvents),
            monitor_suspensions: v(Ctr::MonitorSuspensions),
            fault_events: v(Ctr::FaultEvents),
            degraded_events: v(Ctr::DegradedEvents),
            rehash_churn: v(Ctr::RehashChurn),
            detection_latency: h(Hist::DetectionLatency),
        }
    }
}
