//! # nezha-baselines
//!
//! The comparator architectures the paper positions Nezha against
//! (Table 2, §2.3, §8), implemented over the same resource models as the
//! Nezha stack so comparisons are apples-to-apples:
//!
//! * [`local`] — the traditional local-only vSwitch (the "before" in
//!   every gain computation);
//! * [`sirius`] — a Sirius-like dedicated DPU pool with primary/backup
//!   in-line state replication (packets ping-pong between the cards, so
//!   **new-connection capacity halves**) and bucket-based load balancing
//!   with state transfer for long-lived flows;
//! * [`tea`] — a Tea-like design keeping per-session state in remote
//!   DRAM servers: every state access from the switch pays a fabric RTT;
//! * [`sailfish`] — a Sailfish-like programmable-switch gateway that
//!   offloads **stateless** NFs only;
//! * [`features`] — the Table 2 qualitative feature matrix;
//! * [`cost`] — the Table 5 deployment-cost model.

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

pub mod cost;
pub mod features;
pub mod local;
pub mod sailfish;
pub mod sirius;
pub mod tea;

pub use cost::{DeploymentCost, ScaleOutTime};
pub use features::{FeatureMatrix, SystemFeatures};
pub use local::LocalOnly;
pub use sailfish::SailfishGateway;
pub use sirius::SiriusPool;
pub use tea::TeaSwitch;
