//! The cost plans of the two packet paths, realized against a charged
//! cycle total.
//!
//! A plan is a sequence of [`CostSlot`]s in budget order; there are
//! exactly two, [`FAST_PLAN`] and [`SLOW_PLAN`]. [`costs_from_plan`]
//! walks a plan with sequential budgeting — each slot takes
//! `min(model cost, remaining budget)` and the plan's absorber slot
//! takes the remainder — so the shares sum to the charged total
//! *exactly* even when a vNIC `lookup_weight` or a gray-failure
//! multiplier scaled the charge away from the nominal model costs.
//! [`plan_leaves`] then maps each realized slot onto the profiler's
//! [`Stage`] vocabulary, and [`charge_leaves`] is the one assembly of
//! the three that both the local path and the FE visit record from.
//! Costs the model does not split (BE state work, notify processing) are
//! not artificially split here.

use crate::config::CostModel;
use crate::pipeline::{PathTaken, StageCosts};
use crate::vnic::Vnic;
use nezha_sim::profile::{Stage, RULE_TIERS};

/// One slot of the charge decomposition, in budget order. A plan's last
/// slot must be an absorber ([`CostSlot::SessionResidue`] or
/// [`CostSlot::RuleTiers`]) for the shares to sum to the charge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CostSlot {
    /// Per-byte DMA + copy share.
    Dma,
    /// Header-parse share.
    Parse,
    /// Fast-path session share: the cached-flow lookup absorbs the whole
    /// remaining budget (it is the fast path's only post-parse work).
    SessionResidue,
    /// Slow-path session-creation share.
    SessionCreate,
    /// First-packet slow-path overhead share.
    SlowOverhead,
    /// The rule-pipeline tiers: each extra table takes its model cost and
    /// tier 0 (base pipeline + ACL) absorbs the remaining budget.
    RuleTiers,
}

/// The fast-path plan: ingest, parse, cached-flow lookup.
pub const FAST_PLAN: &[CostSlot] = &[CostSlot::Dma, CostSlot::Parse, CostSlot::SessionResidue];

/// The slow-path plan: ingest, parse, session creation, first-packet
/// overhead, rule-table tiers.
pub const SLOW_PLAN: &[CostSlot] = &[
    CostSlot::Dma,
    CostSlot::Parse,
    CostSlot::SessionCreate,
    CostSlot::SlowOverhead,
    CostSlot::RuleTiers,
];

/// The plan a packet that took `path` is charged by.
pub fn plan(path: PathTaken) -> &'static [CostSlot] {
    match path {
        PathTaken::Fast => FAST_PLAN,
        PathTaken::Slow => SLOW_PLAN,
    }
}

/// Splits one charged cycle `total` into per-stage shares following
/// `plan` (see the module docs for the exact-sum budgeting rule).
pub fn costs_from_plan(
    plan: &[CostSlot],
    costs: &CostModel,
    vnic: &Vnic,
    bytes: usize,
    total: u64,
) -> StageCosts {
    fn take(budget: &mut u64, want: u64) -> u64 {
        let t = want.min(*budget);
        *budget -= t;
        t
    }
    let mut budget = total;
    let mut out = StageCosts::default();
    for slot in plan {
        match slot {
            CostSlot::Dma => {
                out.dma = take(&mut budget, (costs.per_byte_milli * bytes as u64) / 1000);
            }
            CostSlot::Parse => out.parse = take(&mut budget, costs.parse),
            CostSlot::SessionResidue => {
                // Cached-flow lookup: the rest of the fast-path charge.
                out.session = budget;
                budget = 0;
            }
            CostSlot::SessionCreate => out.session = take(&mut budget, costs.session_create),
            CostSlot::SlowOverhead => {
                out.overhead = take(&mut budget, costs.first_packet_overhead);
            }
            CostSlot::RuleTiers => {
                let extra = vnic.profile.extra_tables as usize;
                out.tiers = vec![0u64; extra + 1];
                for t in out.tiers.iter_mut().skip(1) {
                    *t = take(&mut budget, costs.per_extra_table);
                }
                out.tiers[0] = budget; // base pipeline + ACL + scaling residue
                budget = 0;
            }
        }
    }
    out
}

/// Emits `(stage, cycles)` for each realized slot of `plan`, in plan
/// order. Zero-cycle leaves are emitted too — the span recorder
/// (`Telemetry::span_tree`) skips them.
pub fn plan_leaves(plan: &[CostSlot], c: &StageCosts, f: &mut dyn FnMut(Stage, u64)) {
    for slot in plan {
        match slot {
            CostSlot::Dma => f(Stage::Dma, c.dma),
            CostSlot::Parse => f(Stage::Parse, c.parse),
            CostSlot::SessionResidue | CostSlot::SessionCreate => {
                f(Stage::SessionLookup, c.session)
            }
            CostSlot::SlowOverhead => f(Stage::Slowpath, c.overhead),
            CostSlot::RuleTiers => {
                for (i, &cycles) in c.tiers.iter().enumerate() {
                    f(Stage::RuleTier(i.min(RULE_TIERS - 1) as u8), cycles);
                }
            }
        }
    }
}

/// Appends to `out` the profiler leaves of one charged `total` on `path`:
/// the path's plan, realized against the total, mapped to stages.
pub fn charge_leaves(
    path: PathTaken,
    costs: &CostModel,
    vnic: &Vnic,
    bytes: usize,
    total: u64,
    out: &mut Vec<(Stage, u64)>,
) {
    let plan = plan(path);
    let c = costs_from_plan(plan, costs, vnic, bytes, total);
    plan_leaves(plan, &c, &mut |stage, cycles| out.push((stage, cycles)));
}
