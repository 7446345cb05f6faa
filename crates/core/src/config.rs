//! Cluster-wide configuration: the [`ClusterConfig`] knobs, the fluent
//! [`ClusterConfigBuilder`], and the delayed [`ConfigOp`] pushes the
//! controller applies asynchronously.
//!
//! Everything here is re-exported from [`crate::cluster`] so existing
//! `nezha_core::cluster::ClusterConfig` imports keep working.

use crate::controller::ControllerConfig;
use nezha_sim::topology::TopologyConfig;
use nezha_types::{ServerId, VnicId};
use nezha_vswitch::config::VSwitchConfig;

/// FE load-balancing granularity (ablation of §3.2.3's design choice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LbMode {
    /// Nezha's choice: `Hash(5-tuple)` per flow — cache friendly, one
    /// rule lookup and one cached flow per session.
    FlowLevel,
    /// The rejected alternative: per-packet spreading — better short-term
    /// balance, but duplicated lookups and duplicated cached flows on
    /// every FE a session's packets touch.
    PacketLevel,
}

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Fabric shape.
    pub topology: TopologyConfig,
    /// Per-server vSwitch configuration.
    pub vswitch: VSwitchConfig,
    /// Controller FE counts and automation switches.
    pub controller: ControllerConfig,
    /// Retries before a connection is declared failed. A connection's
    /// retry counter holds 255, and a full counter counts as exhausted,
    /// so any larger value acts as 255.
    pub max_retries: u32,
    /// RNG seed (full determinism).
    pub seed: u64,
    /// FE selection granularity (ablation; Nezha uses flow-level).
    pub lb_mode: LbMode,
    /// Ablation: send a notify packet on *every* FE cache miss instead of
    /// only when the looked-up rule-table-involved state differs from the
    /// carried state (§3.2.2's suppression).
    pub notify_always: bool,
    /// Ablation: skip the dual-running stage — the BE deletes its rule
    /// tables as soon as the FEs are configured, before peers have
    /// learned the new mapping (§4.2.1 explains why this hurts).
    pub skip_dual_running: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            topology: TopologyConfig::default(),
            vswitch: VSwitchConfig::default(),
            controller: ControllerConfig::default(),
            max_retries: 5,
            seed: 0x4e5a_2025,
            lb_mode: LbMode::FlowLevel,
            notify_always: false,
            skip_dual_running: false,
        }
    }
}

/// Generates one fluent setter per `(name, type, target field path)`
/// triple, collapsing the builder's otherwise hand-written boilerplate.
macro_rules! builder_setters {
    ($( $(#[$doc:meta])* $name:ident: $ty:ty => $($field:ident).+ ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$($field).+ = $name;
                self
            }
        )*
    };
}

/// Fluent builder for [`ClusterConfig`], starting from the defaults.
///
/// ```
/// use nezha_core::cluster::ClusterConfig;
///
/// let cfg = ClusterConfig::builder()
///     .seed(7)
///     .auto(true)
///     .build();
/// assert_eq!(cfg.seed, 7);
/// assert!(cfg.controller.auto_offload);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    builder_setters! {
        /// Fabric shape.
        topology: TopologyConfig => topology,
        /// Per-server vSwitch configuration.
        vswitch: VSwitchConfig => vswitch,
        /// Controller FE counts and automation switches.
        controller: ControllerConfig => controller,
        /// Retries before a connection is declared failed; values above
        /// 255 act as 255 ([`ClusterConfig::max_retries`]).
        max_retries: u32 => max_retries,
        /// RNG seed (full determinism).
        seed: u64 => seed,
        /// Ablation: notify on every FE cache miss.
        notify_always: bool => notify_always,
        /// Convenience: vSwitch core count (the most-tuned knob in tests).
        cores: u32 => vswitch.cores,
        /// Convenience: automatic offload only (leaves auto-scaling as-is).
        auto_offload: bool => controller.auto_offload,
        /// Convenience: automatic FE scaling only (leaves auto-offload
        /// as-is).
        auto_scale: bool => controller.auto_scale,
    }

    /// Convenience: enables/disables both automatic offload and scaling.
    pub fn auto(mut self, auto: bool) -> Self {
        self.cfg.controller.auto_offload = auto;
        self.cfg.controller.auto_scale = auto;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ClusterConfig {
        self.cfg
    }
}

impl ClusterConfig {
    /// Starts a fluent [`ClusterConfigBuilder`] from the defaults.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }
}

/// Delayed configuration operations (the controller's pushes take effect
/// asynchronously, which is what creates the dual-running stage). Each
/// names only ids: whatever else it acts on is read from the cluster's
/// state when it lands, so an op that lands late acts on the lifecycle as
/// it is then, not as it was when the op was scheduled.
#[derive(Clone, Copy, Debug)]
pub enum ConfigOp {
    /// An FE finished installing the vNIC's rule tables.
    FeConfigured {
        /// The offloaded vNIC.
        vnic: VnicId,
        /// The FE's server.
        fe: ServerId,
    },
    /// The gateway's entry for the vNIC's address is set to where its
    /// lifecycle says traffic belongs (learning then begins): its live,
    /// ready FEs while offloading or offloaded, else its home if alive.
    GatewaySync {
        /// The vNIC whose entry is synced.
        vnic: VnicId,
    },
    /// All senders have learned the FE mapping: offload is *active*.
    CheckActivation {
        /// The offloaded vNIC.
        vnic: VnicId,
    },
    /// BE enters the final stage: drop rule tables and cached flows.
    BeFinalStage {
        /// The offloaded vNIC.
        vnic: VnicId,
    },
    /// Fallback completes: remove all FEs, return to local processing.
    FallbackFinal {
        /// The vNIC falling back.
        vnic: VnicId,
    },
    /// VM live migration (§7.2): repoint the BE location on all FEs.
    BeLocationUpdate {
        /// The migrated vNIC.
        vnic: VnicId,
        /// The new home server.
        new_home: ServerId,
    },
}
