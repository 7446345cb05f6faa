//! The per-stage split of one charged CPU total, for the profiler.
//!
//! [`charge_leaves`] budgets sequentially: each leaf takes
//! `min(model cost, remaining budget)` and one leaf per path absorbs the
//! remainder, so the leaves sum to the charged total *exactly* even when
//! a vNIC `lookup_weight` or a gray-failure multiplier scaled the charge
//! away from the nominal model costs. Both the local path and the FE
//! visit record from it. Costs the model does not split (BE state work,
//! notify processing) are not artificially split here.

use crate::config::CostModel;
use crate::vnic::Vnic;
use crate::vswitch::PathTaken;
use nezha_sim::profile::{Stage, RULE_TIERS};

/// Appends to `out` the profiler leaves of one charged `total` on `path`,
/// in span order. Zero-cycle leaves are emitted too — the span recorder
/// (`Telemetry::span_tree`) skips them.
///
/// * Fast: `Dma`, `Parse`, then `SessionLookup` (the cached-flow lookup)
///   with the remainder.
/// * Slow: `Dma`, `Parse`, `SessionLookup` (session creation),
///   `Slowpath` (first-packet overhead), `RuleTier(0)` (base pipeline +
///   ACL) with the remainder, then one `RuleTier(i)` per extra table,
///   each taking `min(per_extra_table, remaining)` before tier 0 does.
///   Tiers past the profiler's last one fold into it.
pub fn charge_leaves(
    path: PathTaken,
    costs: &CostModel,
    vnic: &Vnic,
    bytes: usize,
    total: u64,
    out: &mut Vec<(Stage, u64)>,
) {
    let mut rest = total;
    let mut take = |want: u64| {
        let t = want.min(rest);
        rest -= t;
        t
    };
    let dma = take(costs.per_byte_milli * bytes as u64 / 1000);
    out.push((Stage::Dma, dma));
    out.push((Stage::Parse, take(costs.parse)));
    match path {
        PathTaken::Fast => out.push((Stage::SessionLookup, take(u64::MAX))),
        PathTaken::Slow => {
            out.push((Stage::SessionLookup, take(costs.session_create)));
            out.push((Stage::Slowpath, take(costs.first_packet_overhead)));
            let tier0 = out.len();
            out.push((Stage::RuleTier(0), 0));
            for i in 1..=vnic.profile.extra_tables as usize {
                let tier = Stage::RuleTier(i.min(RULE_TIERS - 1) as u8);
                out.push((tier, take(costs.per_extra_table)));
            }
            out[tier0].1 = take(u64::MAX);
        }
    }
}
