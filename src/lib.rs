//! # nezha
//!
//! A research-quality Rust reproduction of **"Nezha: SmartNIC-Based
//! Virtual Switch Load Sharing"** (SIGCOMM 2025): a distributed vSwitch
//! load-sharing system that offloads a high-demand vNIC's *stateless*
//! rule tables and cached flows to a pool of idle SmartNICs (frontends)
//! while keeping all session state local in a single copy (the backend) —
//! eliminating state synchronization, and making load balancing a plain
//! 5-tuple hash and fault tolerance active-active.
//!
//! The paper's SmartNIC testbed and production region are replaced by a
//! deterministic discrete-event simulator with explicit CPU/memory/fabric
//! models (see `DESIGN.md` for the substitution argument). This facade
//! crate re-exports the workspace:
//!
//! * [`types`] — wire formats, session keys, actions, the Nezha service
//!   header;
//! * [`sim`] — the event engine, resource models, topology, statistics;
//! * [`vswitch`] — the SmartNIC vSwitch: rule tables, session table,
//!   slow/fast path, stateful NFs;
//! * [`core`] — Nezha itself: BE/FE split, controller, offload/fallback,
//!   scaling, failover, and the region-scale fluid simulator;
//! * [`workloads`] — TCP_CRR, persistent flows, SYN floods, vNIC
//!   provisioning bursts, tenant populations;
//! * [`baselines`] — Sirius-like, Tea-like, Sailfish-like comparators and
//!   the deployment-cost model.
//!
//! ## Quickstart
//!
//! The [`prelude`] pulls in everything a typical simulation needs:
//!
//! ```
//! use nezha::prelude::*;
//!
//! // A small testbed with one busy vNIC on server 0.
//! let cfg = ClusterConfig::builder().auto(false).build();
//! let mut cluster = Cluster::new(cfg);
//! let mut vnic = Vnic::new(
//!     VnicId(1),
//!     VpcId(1),
//!     Ipv4Addr::new(10, 7, 0, 1),
//!     VnicProfile::default(),
//!     ServerId(0),
//! );
//! vnic.allow_inbound_port(9000);
//! cluster
//!     .add_vnic(vnic, ServerId(0), VmConfig::with_vcpus(64))
//!     .unwrap();
//!
//! // Offload it to four idle SmartNICs and let the config propagate.
//! cluster.trigger_offload(VnicId(1), SimTime::ZERO).unwrap();
//! cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));
//! assert_eq!(cluster.fe_count(VnicId(1)), 4);
//!
//! // Every run records telemetry; snapshots are deterministic.
//! let snap = cluster.metrics().snapshot();
//! assert_eq!(snap.counter("ctrl.offload_events"), 1);
//! ```

#![warn(missing_docs)]

pub use nezha_baselines as baselines;
pub use nezha_core as core;
pub use nezha_sim as sim;
pub use nezha_types as types;
pub use nezha_vswitch as vswitch;
pub use nezha_workloads as workloads;

pub mod prelude {
    //! The most commonly used names, importable in one line.
    //!
    //! Covers building a cluster ([`Cluster`], [`ClusterConfig`] and its
    //! builder, [`VSwitchConfig`]), populating it ([`Vnic`],
    //! [`VnicProfile`], [`VmConfig`], the workload generators), driving it
    //! ([`SimTime`], [`SimDuration`], [`ConnSpec`]), and reading it back
    //! ([`MetricsRegistry`], [`PacketTrace`], [`Profiler`], [`NezhaError`]).
    pub use nezha_core::cluster::{Cluster, ClusterConfig, ClusterConfigBuilder, LbMode};
    pub use nezha_core::config::ConfigOp;
    pub use nezha_core::conn::{ConnKind, ConnSpec};
    pub use nezha_core::region::Region;
    pub use nezha_core::telemetry::ClusterStats;
    pub use nezha_core::vm::VmConfig;
    pub use nezha_core::Event;
    pub use nezha_sim::metrics::{MetricsDiff, MetricsRegistry, MetricsSnapshot};
    pub use nezha_sim::profile::{Profiler, Span, SpanId, SpanRecord, Stage};
    pub use nezha_sim::report::{BenchReport, Sample, BENCH_SCHEMA_VERSION};
    pub use nezha_sim::telemetry::Telemetry;
    pub use nezha_sim::time::{SimDuration, SimTime};
    pub use nezha_sim::topology::TopologyConfig;
    pub use nezha_sim::trace::{PacketTrace, TraceEvent, TraceEventKind, TraceFilter};
    pub use nezha_types::{
        FiveTuple, Ipv4Addr, NezhaError, NezhaResult, ServerId, SessionKey, VnicId, VpcId,
    };
    pub use nezha_vswitch::config::VSwitchConfig;
    pub use nezha_vswitch::vnic::{Vnic, VnicProfile};
    pub use nezha_vswitch::vswitch::VSwitch;
    pub use nezha_workloads::cps::CpsWorkload;
    pub use nezha_workloads::flows::PersistentFlows;
    pub use nezha_workloads::syn_flood::SynFlood;
}
