//! Deterministic fault injection: scripted chaos on the simulated clock.
//!
//! The paper's fault-tolerance story (Fig. 14, Appendix C) covers much
//! more than a clean FE crash: gray-slow members, correlated rack
//! outages, lossy links, controller blackouts, and lost notify packets.
//! This module scripts all of them as a [`FaultPlan`] — a time-ordered
//! list of [`FaultEvent`]s the embedding event loop replays — plus the
//! [`FaultState`] that answers per-packet questions ("does this hop drop
//! this packet?") from a seeded RNG stream.
//!
//! Everything here runs on [`SimTime`] and [`SimRng`]: two runs with the
//! same seed and the same plan replay the same faults packet-for-packet,
//! which is what makes chaos scenarios regression-testable.

use crate::rng::SimRng;
use crate::time::SimTime;
use nezha_types::ServerId;
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of a Gilbert–Elliott two-state burst-loss channel.
///
/// The channel alternates between a *good* and a *bad* state; each
/// per-packet decision first applies the state transition, then samples
/// a loss with the state's probability. Bursts emerge from the sojourn
/// times, matching how real fabric gray failures cluster losses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-decision probability of entering the bad state from good.
    pub p_enter: f64,
    /// Per-decision probability of leaving the bad state back to good.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A moderately bursty channel: rare entries into a long-ish bad
    /// state that loses most packets, near-lossless otherwise.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_enter: 0.05,
            p_exit: 0.25,
            loss_good: 0.0,
            loss_bad: 0.75,
        }
    }
}

/// One scripted fault transition.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Hard-crash a server's SmartNIC: it stops processing packets and
    /// stops answering health probes.
    Crash {
        /// The crashing server.
        server: ServerId,
    },
    /// Bring a crashed server back (rebooted SmartNIC).
    Restart {
        /// The restarting server.
        server: ServerId,
    },
    /// Gray failure: the server keeps running but every cycle charge is
    /// scaled by `multiplier` — a slow, not dead, member.
    GraySlow {
        /// The degrading server.
        server: ServerId,
        /// Cycle-cost multiplier (> 1 slows the vSwitch down).
        multiplier: f64,
    },
    /// End a gray failure (multiplier back to 1).
    GrayRecover {
        /// The recovering server.
        server: ServerId,
    },
    /// Loss on the path between two servers (both directions), driven by
    /// an independent Gilbert–Elliott channel per direction. A channel
    /// that never enters its bad state (`p_enter = 0`) is uniform loss
    /// at `loss_good`.
    BurstyLoss {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
        /// Channel parameters.
        model: GilbertElliott,
    },
    /// Remove any loss model from the path between two servers.
    LinkHeal {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
    },
    /// Rack/pod partition: every path crossing from `left` to `right`
    /// (or back) blackholes until [`FaultKind::HealPartition`]. One
    /// partition is active at a time: a new one replaces the last. A
    /// single-link blackhole is the one-pair partition `[a]` / `[b]`.
    Partition {
        /// Servers on one side of the cut.
        left: Vec<ServerId>,
        /// Servers on the other side.
        right: Vec<ServerId>,
    },
    /// Heal the active partition.
    HealPartition,
    /// Controller outage: the centralized controller and health monitor
    /// stop making decisions (ticks still reschedule, but act as no-ops).
    ControllerOutage,
    /// End the controller outage.
    ControllerRecover,
    /// Drop FE→BE notify packets with the given probability — the
    /// §3.2.2 state-update channel degrades while data packets survive.
    NotifyDrop {
        /// Per-notify drop probability in `[0, 1]`.
        loss: f64,
    },
    /// Stop dropping notify packets.
    NotifyDropStop,
}

/// A fault transition at a scheduled simulated time.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// When the transition fires.
    pub at: SimTime,
    /// What changes.
    pub kind: FaultKind,
}

/// A scripted, time-ordered schedule of fault transitions.
///
/// Built fluently, then handed to the embedding event loop which
/// schedules each event on its engine:
///
/// ```
/// use nezha_sim::fault::FaultPlan;
/// use nezha_sim::time::SimTime;
/// use nezha_types::ServerId;
///
/// let t = SimTime::ZERO + nezha_sim::time::SimDuration::from_secs(6);
/// let plan = FaultPlan::new()
///     .crash(t, ServerId(3))
///     .restart(t + nezha_sim::time::SimDuration::from_secs(4), ServerId(3));
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary fault transition at `at`.
    pub fn add(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedules a server crash.
    pub fn crash(self, at: SimTime, server: ServerId) -> Self {
        self.add(at, FaultKind::Crash { server })
    }

    /// Schedules a server restart.
    pub fn restart(self, at: SimTime, server: ServerId) -> Self {
        self.add(at, FaultKind::Restart { server })
    }

    /// Schedules the start of a gray-slow failure.
    pub fn gray_slow(self, at: SimTime, server: ServerId, multiplier: f64) -> Self {
        self.add(at, FaultKind::GraySlow { server, multiplier })
    }

    /// Schedules the end of a gray-slow failure.
    pub fn gray_recover(self, at: SimTime, server: ServerId) -> Self {
        self.add(at, FaultKind::GrayRecover { server })
    }

    /// Schedules Gilbert–Elliott bursty loss on one path.
    pub fn bursty_loss(self, at: SimTime, a: ServerId, b: ServerId, model: GilbertElliott) -> Self {
        self.add(at, FaultKind::BurstyLoss { a, b, model })
    }

    /// Schedules the removal of any loss model on one path.
    pub fn link_heal(self, at: SimTime, a: ServerId, b: ServerId) -> Self {
        self.add(at, FaultKind::LinkHeal { a, b })
    }

    /// Schedules a partition between two server groups, replacing any
    /// active one.
    pub fn partition(self, at: SimTime, left: Vec<ServerId>, right: Vec<ServerId>) -> Self {
        self.add(at, FaultKind::Partition { left, right })
    }

    /// Schedules the healing of the active partition.
    pub fn heal_partition(self, at: SimTime) -> Self {
        self.add(at, FaultKind::HealPartition)
    }

    /// Schedules the start of a controller outage.
    pub fn controller_outage(self, at: SimTime) -> Self {
        self.add(at, FaultKind::ControllerOutage)
    }

    /// Schedules the end of a controller outage.
    pub fn controller_recover(self, at: SimTime) -> Self {
        self.add(at, FaultKind::ControllerRecover)
    }

    /// Schedules the start of notify-packet loss.
    pub fn notify_drop(self, at: SimTime, loss: f64) -> Self {
        self.add(at, FaultKind::NotifyDrop { loss })
    }

    /// Schedules the end of notify-packet loss.
    pub fn notify_drop_stop(self, at: SimTime) -> Self {
        self.add(at, FaultKind::NotifyDropStop)
    }

    /// Number of scheduled transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no transitions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled transitions, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consumes the plan, returning its transitions sorted by time
    /// (stable: same-instant events keep insertion order).
    pub fn into_events(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| e.at);
        self.events
    }
}

/// The Gilbert–Elliott channel on one directed link, with its current
/// state.
#[derive(Clone, Copy, Debug)]
struct LinkState {
    model: GilbertElliott,
    bad: bool,
}

/// The live fault conditions, updated by [`FaultState::apply`] and
/// queried by the embedding event loop on every affected decision.
///
/// All randomness (loss sampling, channel transitions) comes from the
/// seeded [`SimRng`] handed to [`FaultState::new`], so fault outcomes
/// replay bit-for-bit under a fixed seed.
#[derive(Debug)]
pub struct FaultState {
    rng: SimRng,
    crashed: BTreeSet<ServerId>,
    gray: BTreeSet<ServerId>,
    links: BTreeMap<(ServerId, ServerId), LinkState>,
    partition: Option<(BTreeSet<ServerId>, BTreeSet<ServerId>)>,
    controller_down: bool,
    notify_loss: Option<f64>,
}

impl FaultState {
    /// Fresh state drawing all randomness from `rng`.
    pub fn new(rng: SimRng) -> Self {
        FaultState {
            rng,
            crashed: BTreeSet::new(),
            gray: BTreeSet::new(),
            links: BTreeMap::new(),
            partition: None,
            controller_down: false,
            notify_loss: None,
        }
    }

    /// Applies one fault transition to the live condition set. The
    /// embedding loop is responsible for its own side effects (scaling
    /// vSwitch cycle costs); this records the conditions the liveness
    /// and per-packet queries below are answered from.
    pub fn apply(&mut self, kind: &FaultKind) {
        match kind {
            FaultKind::Crash { server } => {
                self.crashed.insert(*server);
            }
            FaultKind::Restart { server } => {
                self.crashed.remove(server);
            }
            FaultKind::GraySlow { server, .. } => {
                self.gray.insert(*server);
            }
            FaultKind::GrayRecover { server } => {
                self.gray.remove(server);
            }
            FaultKind::BurstyLoss { a, b, model } => {
                let fresh = LinkState {
                    model: *model,
                    bad: false,
                };
                self.links.insert((*a, *b), fresh);
                self.links.insert((*b, *a), fresh);
            }
            FaultKind::LinkHeal { a, b } => {
                self.links.remove(&(*a, *b));
                self.links.remove(&(*b, *a));
            }
            FaultKind::Partition { left, right } => {
                self.partition = Some((
                    left.iter().copied().collect(),
                    right.iter().copied().collect(),
                ));
            }
            FaultKind::HealPartition => {
                self.partition = None;
            }
            FaultKind::ControllerOutage => {
                self.controller_down = true;
            }
            FaultKind::ControllerRecover => {
                self.controller_down = false;
            }
            FaultKind::NotifyDrop { loss } => {
                self.notify_loss = Some(*loss);
            }
            FaultKind::NotifyDropStop => {
                self.notify_loss = None;
            }
        }
    }

    /// True when any scripted fault condition is currently active —
    /// used to attribute in-flight packet loss to faults.
    pub fn any_active(&self) -> bool {
        !self.crashed.is_empty()
            || !self.gray.is_empty()
            || !self.links.is_empty()
            || self.partition.is_some()
            || self.controller_down
            || self.notify_loss.is_some()
    }

    /// True when `server` is crash-scripted and not yet restarted.
    pub fn is_crashed(&self, server: ServerId) -> bool {
        self.crashed.contains(&server)
    }

    /// True when the active partition separates `a` from `b`.
    pub fn partitioned(&self, a: ServerId, b: ServerId) -> bool {
        match &self.partition {
            Some((left, right)) => {
                (left.contains(&a) && right.contains(&b))
                    || (left.contains(&b) && right.contains(&a))
            }
            None => false,
        }
    }

    /// True when the centralized controller (and its health monitor) is
    /// blacked out.
    pub fn controller_down(&self) -> bool {
        self.controller_down
    }

    /// Per-packet drop decision for the directed hop `from → to`:
    /// partitions drop deterministically; a lossy link advances its
    /// Gilbert–Elliott channel, then samples the state's loss, both from
    /// the fault RNG.
    pub fn should_drop(&mut self, from: ServerId, to: ServerId) -> bool {
        if self.partitioned(from, to) {
            return true;
        }
        let Some(link) = self.links.get_mut(&(from, to)) else {
            return false;
        };
        let m = link.model;
        if self.rng.chance(if link.bad { m.p_exit } else { m.p_enter }) {
            link.bad = !link.bad;
        }
        self.rng
            .chance(if link.bad { m.loss_bad } else { m.loss_good })
    }

    /// Per-notify drop decision (samples the fault RNG only while a
    /// notify-drop fault is active).
    pub fn drop_notify(&mut self) -> bool {
        match self.notify_loss {
            Some(p) => self.rng.chance(p),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn plan_sorts_stably_by_time() {
        let plan = FaultPlan::new()
            .restart(t(9), ServerId(1))
            .crash(t(3), ServerId(1))
            .controller_outage(t(3));
        let evs = plan.into_events();
        assert_eq!(evs.len(), 3);
        assert!(matches!(evs[0].kind, FaultKind::Crash { .. }));
        assert!(matches!(evs[1].kind, FaultKind::ControllerOutage));
        assert!(matches!(evs[2].kind, FaultKind::Restart { .. }));
    }

    #[test]
    fn conditions_toggle_and_any_active_tracks_them() {
        let mut st = FaultState::new(SimRng::new(1));
        assert!(!st.any_active());
        st.apply(&FaultKind::GraySlow {
            server: ServerId(2),
            multiplier: 8.0,
        });
        assert!(st.any_active());
        st.apply(&FaultKind::GrayRecover {
            server: ServerId(2),
        });
        assert!(!st.any_active());

        st.apply(&FaultKind::Partition {
            left: vec![ServerId(0), ServerId(1)],
            right: vec![ServerId(8)],
        });
        assert!(st.partitioned(ServerId(1), ServerId(8)));
        assert!(st.partitioned(ServerId(8), ServerId(0)));
        assert!(!st.partitioned(ServerId(0), ServerId(1)));
        assert!(st.should_drop(ServerId(0), ServerId(8)));
        st.apply(&FaultKind::HealPartition);
        assert!(!st.should_drop(ServerId(0), ServerId(8)));
        assert!(!st.any_active());
    }

    /// A channel that never enters its bad state is uniform loss at
    /// `loss_good`: the link-loss model has no second form.
    fn never_bad(loss_good: f64) -> FaultKind {
        FaultKind::BurstyLoss {
            a: ServerId(0),
            b: ServerId(1),
            model: GilbertElliott {
                p_enter: 0.0,
                p_exit: 1.0,
                loss_good,
                loss_bad: 0.0,
            },
        }
    }

    #[test]
    fn degenerate_channel_drops_both_ways_until_healed() {
        let mut st = FaultState::new(SimRng::new(7));
        st.apply(&never_bad(1.0));
        assert!(st.any_active());
        assert!((0..200).all(|_| st.should_drop(ServerId(0), ServerId(1))));
        assert!((0..200).all(|_| st.should_drop(ServerId(1), ServerId(0))));
        // Unrelated links are clean.
        assert!((0..200).all(|_| !st.should_drop(ServerId(0), ServerId(2))));
        st.apply(&FaultKind::LinkHeal {
            a: ServerId(1),
            b: ServerId(0),
        });
        assert!(!st.any_active());
        assert!((0..200).all(|_| !st.should_drop(ServerId(0), ServerId(1))));
        assert!((0..200).all(|_| !st.should_drop(ServerId(1), ServerId(0))));
    }

    #[test]
    fn degenerate_channel_hits_roughly_its_probability() {
        let mut st = FaultState::new(SimRng::new(7));
        st.apply(&never_bad(0.3));
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| st.should_drop(ServerId(0), ServerId(1)))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn bursty_loss_clusters_drops() {
        let mut st = FaultState::new(SimRng::new(9));
        st.apply(&FaultKind::BurstyLoss {
            a: ServerId(0),
            b: ServerId(1),
            model: GilbertElliott {
                p_enter: 0.02,
                p_exit: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        });
        let outcomes: Vec<bool> = (0..20_000)
            .map(|_| st.should_drop(ServerId(0), ServerId(1)))
            .collect();
        let drops = outcomes.iter().filter(|d| **d).count();
        assert!(drops > 0, "channel never entered the bad state");
        // Burstiness: a dropped packet's successor drops far more often
        // than the marginal loss rate (state persistence).
        let after_drop = outcomes
            .windows(2)
            .filter(|w| w[0])
            .filter(|w| w[1])
            .count();
        let p_cond = after_drop as f64 / drops as f64;
        let p_marginal = drops as f64 / outcomes.len() as f64;
        assert!(
            p_cond > 3.0 * p_marginal,
            "not bursty: P(drop|drop)={p_cond:.3} vs P(drop)={p_marginal:.3}"
        );
    }

    #[test]
    fn same_seed_replays_identical_drop_sequences() {
        let mk = || {
            let mut st = FaultState::new(SimRng::new(42));
            st.apply(&FaultKind::BurstyLoss {
                a: ServerId(0),
                b: ServerId(1),
                model: GilbertElliott::bursty(),
            });
            st.apply(&FaultKind::NotifyDrop { loss: 0.4 });
            (0..2000)
                .map(|i| {
                    if i % 3 == 0 {
                        st.drop_notify()
                    } else {
                        st.should_drop(ServerId(0), ServerId(1))
                    }
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn crash_and_controller_flags() {
        let mut st = FaultState::new(SimRng::new(3));
        st.apply(&FaultKind::Crash {
            server: ServerId(5),
        });
        assert!(st.is_crashed(ServerId(5)));
        st.apply(&FaultKind::ControllerOutage);
        assert!(st.controller_down());
        st.apply(&FaultKind::Restart {
            server: ServerId(5),
        });
        st.apply(&FaultKind::ControllerRecover);
        assert!(!st.is_crashed(ServerId(5)));
        assert!(!st.controller_down());
        assert!(!st.any_active());
    }
}
