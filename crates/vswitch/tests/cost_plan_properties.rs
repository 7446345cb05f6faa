//! Property tests of the cost plans: the exact-sum invariant of
//! [`costs_from_plan`] over the two canonical plans and over arbitrary
//! absorber-closed plans, and of the profiler leaves [`plan_leaves`]
//! emits for them.

use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::config::CostModel;
use nezha_vswitch::stage::costing::{costs_from_plan, plan_leaves};
use nezha_vswitch::stage::{CostSlot, FAST_PLAN, SLOW_PLAN};
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A vNIC with a random number of extra tables — the only vNIC property
/// the cost decomposition reads (it sizes the rule-tier vector).
fn arb_vnic() -> impl Strategy<Value = Vnic> {
    (0u8..4).prop_map(|extra_tables| {
        let profile = VnicProfile {
            acl_rules: 0,
            routes: 0,
            vnic_server_entries: 0,
            extra_tables,
            ..VnicProfile::default()
        };
        let addr = Ipv4Addr::new(10, 7, 0, 1);
        Vnic::new(VnicId(1), VpcId(1), addr, profile, ServerId(0))
    })
}

/// A random valid plan: a duplicate-free subset of the non-absorbing
/// slots closed by an absorber (the session slot is either the residue
/// absorber or the create share — never both).
fn arb_plan() -> impl Strategy<Value = Vec<CostSlot>> {
    (
        prop::bool::ANY, // dma
        prop::bool::ANY, // parse
        prop::bool::ANY, // session create
        prop::bool::ANY, // slow overhead
        prop::bool::ANY, // absorber: tiers vs session residue
    )
        .prop_map(|(dma, parse, create, overhead, tiers)| {
            let mut plan = Vec::new();
            if dma {
                plan.push(CostSlot::Dma);
            }
            if parse {
                plan.push(CostSlot::Parse);
            }
            if create && tiers {
                plan.push(CostSlot::SessionCreate);
            }
            if overhead {
                plan.push(CostSlot::SlowOverhead);
            }
            plan.push(if tiers {
                CostSlot::RuleTiers
            } else {
                CostSlot::SessionResidue
            });
            plan
        })
}

fn arb_costs() -> impl Strategy<Value = CostModel> {
    (
        0u64..200_000, // per_byte_milli
        0u64..5_000,   // parse
        0u64..20_000,  // session_create
        0u64..50_000,  // first_packet_overhead
        0u64..10_000,  // per_extra_table
    )
        .prop_map(
            |(per_byte_milli, parse, session_create, overhead, per_table)| CostModel {
                per_byte_milli,
                parse,
                session_create,
                first_packet_overhead: overhead,
                per_extra_table: per_table,
                ..CostModel::default()
            },
        )
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any valid plan — the canonical fast/slow plans and arbitrary
    /// absorber-closed compositions alike — splits any charged total into
    /// shares that sum back to it *exactly*, for any cost model, packet
    /// size, and vNIC profile. This is the cycle-reconciliation invariant
    /// the profiler's 0.00%-drift check rests on.
    #[test]
    fn plan_shares_sum_exactly_to_the_charged_total(
        plan in arb_plan(),
        costs in arb_costs(),
        vnic in arb_vnic(),
        bytes in 0usize..10_000,
        total in 0u64..5_000_000,
    ) {
        let c = costs_from_plan(&plan, &costs, &vnic, bytes, total);
        prop_assert_eq!(c.total(), total);
    }

    /// The two canonical plans preserve the same invariant and
    /// produce a tier vector sized by the vNIC's extra tables on the slow
    /// path.
    #[test]
    fn canonical_plans_reconcile_and_size_tiers(
        costs in arb_costs(),
        vnic in arb_vnic(),
        bytes in 0usize..10_000,
        total in 0u64..5_000_000,
        slow in prop::bool::ANY,
    ) {
        let plan = if slow { SLOW_PLAN } else { FAST_PLAN };
        let c = costs_from_plan(plan, &costs, &vnic, bytes, total);
        prop_assert_eq!(c.total(), total);
        if slow {
            prop_assert_eq!(c.tiers.len(), vnic.profile.extra_tables as usize + 1);
        } else {
            prop_assert!(c.tiers.is_empty());
        }
    }

    /// The profiler leaves a plan emits carry exactly the realized
    /// shares: summing the emitted cycles recovers the charged total, so
    /// flamegraph totals can never drift from the CPU accounting.
    #[test]
    fn plan_leaves_sum_to_the_charged_total(
        plan in arb_plan(),
        costs in arb_costs(),
        vnic in arb_vnic(),
        bytes in 0usize..10_000,
        total in 0u64..5_000_000,
    ) {
        let c = costs_from_plan(&plan, &costs, &vnic, bytes, total);
        let mut sum = 0u64;
        plan_leaves(&plan, &c, &mut |_stage, cycles| sum += cycles);
        prop_assert_eq!(sum, total);
    }
}
