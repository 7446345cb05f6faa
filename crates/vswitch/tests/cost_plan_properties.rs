//! Property tests of [`charge_leaves`], the profiler's per-stage split of
//! one charged cycle total: its leaves sum to the total exactly, come in
//! each path's fixed stage order, and each non-absorbing leaf takes
//! `min(model cost, remaining)`.

use nezha_sim::profile::{Stage, RULE_TIERS};
use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::config::CostModel;
use nezha_vswitch::stage::costing::charge_leaves;
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use nezha_vswitch::PathTaken;
use proptest::prelude::*;

/// A vNIC with `extra_tables` extra rule tables — the only vNIC property
/// the split reads. Up to 12, past the profiler's eight tiers.
fn arb_vnic() -> impl Strategy<Value = Vnic> {
    (0u8..=12).prop_map(|extra_tables| {
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

/// A charged total: half the draws far below the nominal cost (the
/// absorbing leaf gets starved), half up to well above it.
fn arb_total() -> impl Strategy<Value = u64> {
    (prop::bool::ANY, 0u64..5_000_000).prop_map(|(low, t)| if low { t % 20_000 } else { t })
}

fn arb_path() -> impl Strategy<Value = PathTaken> {
    prop::sample::select(vec![PathTaken::Fast, PathTaken::Slow])
}

fn leaves(
    path: PathTaken,
    costs: &CostModel,
    vnic: &Vnic,
    bytes: usize,
    total: u64,
) -> Vec<(Stage, u64)> {
    let mut out = Vec::new();
    charge_leaves(path, costs, vnic, bytes, total, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both paths split any charged total into leaves that sum back to it
    /// *exactly*, for any cost model, packet size and table count: the
    /// cycle-reconciliation invariant the profiler's 0.00%-drift check
    /// rests on.
    #[test]
    fn leaves_sum_exactly_to_the_charged_total(
        path in arb_path(),
        costs in arb_costs(),
        vnic in arb_vnic(),
        bytes in 0usize..10_000,
        total in arb_total(),
    ) {
        let sum: u64 = leaves(path, &costs, &vnic, bytes, total).iter().map(|l| l.1).sum();
        prop_assert_eq!(sum, total);
    }

    /// Each path's stage sequence is fixed, and every leaf but the
    /// absorbing one takes `min(model cost, remaining)` in budget order:
    /// dma, parse, then (slow) session creation, first-packet overhead
    /// and the extra tables, before tier 0. Extra tables past the last
    /// profiler tier land in `rule_tier7`.
    #[test]
    fn leaves_follow_the_path_order_and_budget(
        path in arb_path(),
        costs in arb_costs(),
        vnic in arb_vnic(),
        bytes in 0usize..10_000,
        total in arb_total(),
    ) {
        let got = leaves(path, &costs, &vnic, bytes, total);
        let mut rest = total;
        let mut take = |want: u64| {
            let t = want.min(rest);
            rest -= t;
            t
        };
        let dma = take(costs.per_byte_milli * bytes as u64 / 1000);
        let parse = take(costs.parse);
        let want = match path {
            PathTaken::Fast => {
                let session = take(u64::MAX);
                vec![(Stage::Dma, dma), (Stage::Parse, parse), (Stage::SessionLookup, session)]
            }
            PathTaken::Slow => {
                let create = take(costs.session_create);
                let overhead = take(costs.first_packet_overhead);
                let last = RULE_TIERS as u8 - 1;
                let tiers: Vec<(Stage, u64)> = (1..=vnic.profile.extra_tables)
                    .map(|i| (Stage::RuleTier(i.min(last)), take(costs.per_extra_table)))
                    .collect();
                let mut want = vec![
                    (Stage::Dma, dma),
                    (Stage::Parse, parse),
                    (Stage::SessionLookup, create),
                    (Stage::Slowpath, overhead),
                    (Stage::RuleTier(0), take(u64::MAX)),
                ];
                want.extend(tiers);
                want
            }
        };
        prop_assert_eq!(got, want);
    }
}

/// Ten extra tables: tiers 1..=6 keep their own stage, the other four
/// fold into `rule_tier7`, and tier 0 absorbs what the tables left.
#[test]
fn extra_tiers_past_the_last_fold_into_it() {
    let costs = CostModel {
        per_byte_milli: 0,
        parse: 10,
        session_create: 10,
        first_packet_overhead: 10,
        per_extra_table: 100,
        ..CostModel::default()
    };
    let vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile {
            extra_tables: 10,
            ..VnicProfile::default()
        },
        ServerId(0),
    );
    let got = leaves(PathTaken::Slow, &costs, &vnic, 0, 2_000);
    let stages: Vec<String> = got.iter().map(|(s, _)| s.name().to_string()).collect();
    assert_eq!(
        stages,
        [
            "dma",
            "parse",
            "session_lookup",
            "slowpath",
            "rule_tier0",
            "rule_tier1",
            "rule_tier2",
            "rule_tier3",
            "rule_tier4",
            "rule_tier5",
            "rule_tier6",
            "rule_tier7",
            "rule_tier7",
            "rule_tier7",
            "rule_tier7",
        ]
    );
    assert_eq!(got[4].1, 2_000 - 30 - 1_000, "tier 0 absorbs the rest");
    assert!(got[5..].iter().all(|&(_, c)| c == 100));
}
