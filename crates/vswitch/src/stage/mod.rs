//! The slow path's two fixed pieces: the rule-table lookup, and the split
//! of a CPU charge into per-stage shares.
//!
//! The paper's equivalence argument (§3.1) rests on the *same* rule
//! lookup running at the traditional local vSwitch and at a Nezha FE, so
//! it is one stateless function of `(tables, tuple, direction)` that both
//! call. Everything around it (flow-cache probe, CPU charge, session
//! establishment, admission) is straight-line code in
//! [`VSwitch::process_local`](crate::VSwitch::process_local).
//!
//! * [`lookup`] — the walk over the rule tables (ACL, QoS, policy, PBR,
//!   route, vNIC-server, NAT, mirror): [`lookup::rule_lookup`] for one
//!   direction, [`lookup::pair_lookup`] for a session;
//! * [`costing`] — [`costing::charge_leaves`]: one charged cycle total on
//!   the fast or slow path, split exactly into profiler stage leaves.

pub mod costing;
pub mod lookup;
