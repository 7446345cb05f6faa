//! # nezha-workloads
//!
//! Traffic and population generators for the Nezha experiments:
//!
//! * [`cps`] — netperf TCP_CRR-style short-connection generators (the
//!   paper's testbed workload, §6.2.1), with Poisson arrivals and
//!   deterministic tuple allocation;
//! * [`flows`] — persistent-connection generators that bloat session
//!   tables (the L4-LB pattern of §2.2.2);
//! * [`provisioning`] — vNIC-creation bursts (the container/serverless
//!   pattern behind the #vNICs bottleneck);
//! * [`syn_flood`] — the SYN flood of §7.3;
//! * [`elephant`] — elephant-flow packet streams for the §7.5
//!   load-imbalance study;
//! * [`tenants`] — heavy-tailed tenant populations reproducing the
//!   production skew of Fig. 2, Fig. 4, and Table 1.
//!
//! All generators are deterministic functions of their seed, so every
//! experiment replays identically.

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

pub mod cps;
pub mod elephant;
pub mod flows;
pub mod provisioning;
pub mod syn_flood;
pub mod tenants;

pub use cps::CpsWorkload;
pub use elephant::ElephantFlow;
pub use flows::PersistentFlows;
pub use provisioning::VnicProvisioning;
pub use syn_flood::SynFlood;
pub use tenants::{TenantPopulation, TenantSample};
