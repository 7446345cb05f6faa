//! # nezha-vswitch
//!
//! A faithful model of the SmartNIC-accelerated vSwitch the Nezha paper
//! builds on (its Fig. 1): per-vNIC **rule tables** queried on the slow
//! path, a bidirectional **session table** caching pre-actions and holding
//! session state on the fast path, stateful NFs expressed as
//! `Action = func(pkt, rules, states)`, and explicit CPU/memory resource
//! accounting against the SmartNIC's budgets.
//!
//! The crate is deliberately role-agnostic: the same [`VSwitch`] object
//! serves as a traditional local vSwitch (the baseline), as a Nezha vNIC
//! **backend** (holding only states), and as a Nezha **frontend** (holding
//! only rule tables and cached flows) — `nezha-core` composes these roles
//! from the primitives exposed here, mirroring the paper's claim that
//! Nezha modifies less than 5% of the vSwitch code (§6.4).
//!
//! ## Module map
//!
//! * [`config`] — every calibration constant of the resource model;
//! * [`tables`] — the rule tables: stateful ACL, VXLAN route (LPM), QoS
//!   meter, NAT, statistics policy, and the vNIC→server mapping;
//! * [`vnic`] — a vNIC: its tables, overlay address, and size profile;
//! * [`session`] — the bidirectional session table with aging (including
//!   the short SYN aging of §7.3);
//! * [`stage`] — the slow-path rule-table lookup, one straight-line
//!   function shared by the local vSwitch and every FE
//!   ([`stage::lookup::pair_lookup`]), and the per-stage split of a
//!   charge for the profiler ([`stage::costing::charge_leaves`]);
//! * [`vswitch`] — the vSwitch: resource enforcement, the straight-line
//!   [`VSwitch::process_local`] and its per-packet result types.
//!
//! The fast-path `process_pkt(pre_actions, state)` itself is
//! [`nezha_types::SessionState::process_pkt`], next to the TCP FSM and
//! the final-action rule it glues together.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod config;
pub mod session;
pub mod stage;
pub mod tables;
mod telemetry;
pub mod vnic;
pub mod vswitch;

pub use config::{CostModel, VSwitchConfig};
pub use session::{SessionEntry, SessionTable};
pub use tables::acl::{AclRule, AclTable, PortRange};
pub use tables::nat::NatTable;
pub use tables::policy::PolicyTable;
pub use tables::qos::QosTable;
pub use tables::route::RouteTable;
pub use tables::vnic_server::VnicServerMap;
pub use vnic::{Vnic, VnicProfile, VnicTables};
pub use vswitch::{PathTaken, ProcessOutcome, ProcessResult, VSwitch};
