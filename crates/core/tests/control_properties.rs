//! Property tests of the control-plane components: gateway convergence,
//! BDF allocation, backend-metadata invariants, and region monotonicity.

use nezha_core::bdf::{BdfAllocator, VnicAttachment};
use nezha_core::be::BackendMeta;
use nezha_core::gateway::{Gateway, LEARNING_INTERVAL};
use nezha_core::region::{Region, RegionConfig};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{FiveTuple, Ipv4Addr, ServerId, SessionKey, VpcId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// After any sequence of gateway updates, every sender converges to
    /// the final mapping within one learning interval of the last update,
    /// and never resolves to a server outside {previous ∪ current}.
    #[test]
    fn gateway_converges_within_learning_interval(
        updates in prop::collection::vec((prop::collection::vec(0u32..32, 1..5), 0u64..5_000), 1..8),
        senders in prop::collection::vec(0u32..64, 1..10),
    ) {
        let mut g = Gateway::new();
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        let mut t = SimTime(0);
        let mut last_servers = Vec::new();
        let mut prev_servers: Vec<ServerId> = Vec::new();
        for (servers, gap_ms) in &updates {
            t += SimDuration::from_millis(*gap_ms);
            prev_servers = last_servers.clone();
            last_servers = servers.iter().map(|s| ServerId(*s)).collect();
            g.update(addr, last_servers.clone(), t);
        }
        // Mid-learning: only previous or current servers ever appear.
        for &s in &senders {
            if let Some(pick) = g.select(addr, ServerId(s), 7, t) {
                prop_assert!(
                    last_servers.contains(&pick)
                        || prev_servers.contains(&pick)
                        || prev_servers.is_empty(),
                    "sender {s} resolved {pick} outside prev/current"
                );
            }
        }
        // One interval later: everyone sees the final mapping.
        let settled = t + LEARNING_INTERVAL;
        for &s in &senders {
            let pick = g.select(addr, ServerId(s), 7, settled).unwrap();
            prop_assert!(last_servers.contains(&pick));
        }
    }

    /// BDF allocation: attachments are unique, direct allocations never
    /// exceed capacity, and the allocator reports exhaustion exactly when
    /// `max_vnics` is reached.
    #[test]
    fn bdf_allocations_are_unique_until_exhaustion(
        sriov in prop::bool::ANY,
        children in prop::bool::ANY,
        want in 1u32..3_000,
    ) {
        let mut a = BdfAllocator::new(sriov, children);
        let mut seen = std::collections::BTreeSet::new();
        let mut granted = 0u32;
        for _ in 0..want {
            match a.allocate() {
                Ok(att) => {
                    granted += 1;
                    let key = match att {
                        VnicAttachment::Direct { bdf } => (bdf, 0u16),
                        VnicAttachment::Child { parent_bdf, vlan } => (parent_bdf, vlan),
                    };
                    prop_assert!(seen.insert(key), "duplicate attachment {key:?}");
                }
                Err(_) => break,
            }
        }
        prop_assert_eq!(granted, want.min(a.max_vnics()));
    }

    /// BackendMeta: any interleaving of add/ready/remove keeps `ready ⊆
    /// fe_list`, selection only returns ready members, and pinned flows
    /// never select a removed FE.
    #[test]
    fn backend_meta_invariants(ops in prop::collection::vec((0u8..3, 0u32..8), 1..60)) {
        let mut be = BackendMeta::new(SimTime(0));
        let key = SessionKey::of(
            VpcId(1),
            FiveTuple::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
        );
        for (op, s) in ops {
            let fe = ServerId(s);
            match op {
                0 => be.add_fe(fe),
                1 => be.mark_ready(fe),
                _ => {
                    be.remove_fe(fe);
                }
            }
            for r in be.ready_fes() {
                prop_assert!(be.fe_list.contains(r), "ready member not in fe_list");
            }
            if let Some(pick) = be.select_fe(&key, 5) {
                prop_assert!(be.ready_fes().contains(&pick));
            }
        }
    }

    /// Region monotonicity: enabling Nezha never increases total
    /// overloads, and #vNIC overloads are always zero under Nezha.
    #[test]
    fn region_nezha_never_hurts(seed in 0u64..50) {
        let cfg = RegionConfig {
            servers: 600,
            spike_prob: 0.05,
            seed,
            epoch: SimDuration::from_secs(6 * 3600),
            ..RegionConfig::default()
        };
        let before = Region::new(cfg).run_days(2, false);
        let after = Region::new(cfg).run_days(2, true);
        let (b1, b2, b3) = before.totals();
        let (a1, a2, a3) = after.totals();
        prop_assert!(a1 + a2 + a3 <= b1 + b2 + b3, "Nezha increased overloads");
        prop_assert_eq!(a3, 0, "vNIC overloads must vanish");
    }
}
