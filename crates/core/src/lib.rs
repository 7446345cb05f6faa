//! # nezha-core
//!
//! The paper's contribution: **Nezha**, a distributed vSwitch load-sharing
//! system that offloads the *stateless* rule tables and cached flows of a
//! high-demand vNIC to a pool of idle SmartNICs (frontends, FEs) while
//! keeping all session state local in a single copy (the backend, BE).
//!
//! The crate provides two simulation fidelities backed by the same
//! resource models:
//!
//! * [`cluster`] — a packet-level testbed: every packet traverses real
//!   BE/FE code paths with NSH encapsulation, CPU/memory charging, fabric
//!   latency, connection scripts and VM-kernel modeling. Used for the
//!   paper's testbed experiments (Figs. 9–12, 14) and all integration
//!   tests.
//! * [`region`] — a flow-level (fluid) region: O(10K) vSwitches with
//!   heavy-tailed tenant demand, controller thresholds, offload/scale
//!   events and overload counting at month timescales. Used for the
//!   production experiments (Figs. 2–4, 13; Tables 1, 3, 4; Appendix B.2).
//!
//! Module map:
//! * [`gateway`] — the versioned vNIC→server table with the 200 ms
//!   learning interval that forces Nezha's dual-running stage;
//! * [`fe`] / [`be`] — the frontend (rules + cached flows, stateless) and
//!   backend (state only) roles, each with its per-packet handlers;
//! * [`vm`] — the VM kernel model whose saturation produces Fig. 10;
//! * [`conn`] — TCP_CRR-style connection scripts driven through the fabric;
//! * [`cluster`] — the event-driven world tying everything together:
//!   construction and accessors live here, the event match and the NSH
//!   demux that hands each packet to its [`be`] or [`fe`] handler in the
//!   private `dispatch` module, configuration in [`config`], instrument
//!   registration in [`telemetry`], and connection-script driving in the
//!   private `driver` module;
//! * [`controller`] — offload/fallback/scale-out/scale-in per Fig. 8;
//! * [`monitor`] — ping-polling crash detection and ≤2 s failover;
//! * [`migration`] — the VM live-migration cost model (Fig. A1);
//! * [`region`] — the fluid region simulator.
//!
//! Not modelled, because no experiment, scorecard row or benchmark
//! workload would read them: §7.2's version steering (offloading a vNIC
//! onto FEs of one vSwitch release), §7.4's BDF / child-vNIC numbering
//! for massive-vNIC VMs, and §7.5's elephant pinning to a dedicated FE.
//! Every flow of an offloaded vNIC goes to `Hash(5-tuple) mod #ready FEs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod be;
pub mod cluster;
#[cfg(test)]
mod cluster_tests;
pub mod config;
pub mod conn;
pub mod controller;
mod dispatch;
mod driver;
pub mod fe;
pub mod gateway;
pub mod migration;
pub mod monitor;
pub mod region;
pub mod telemetry;
pub mod vm;

pub use be::{BackendMeta, OffloadPhase};
pub use cluster::{Cluster, ClusterConfig, Event, LbMode};
pub use config::{ClusterConfigBuilder, ConfigOp};
pub use conn::{ConnKind, ConnSpec};
pub use controller::ControllerConfig;
pub use fe::FrontEnd;
pub use gateway::Gateway;
pub use telemetry::ClusterStats;
pub use vm::VmModel;
