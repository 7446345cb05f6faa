//! Property tests of the control-plane components: gateway convergence,
//! backend-metadata invariants, and region monotonicity.

use nezha_core::be::BackendMeta;
use nezha_core::gateway::{Gateway, LEARNING_INTERVAL};
use nezha_core::region::{Region, RegionConfig};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{Ipv4Addr, ServerId};
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

    /// BackendMeta: any interleaving of add/ready/remove keeps `ready ⊆
    /// fe_list`, and selection is the one rule `ready[hash mod #ready]`
    /// (`None` while nothing is ready).
    #[test]
    fn backend_meta_invariants(
        ops in prop::collection::vec((0u8..3, 0u32..8, 0u64..1_000_000), 1..60),
    ) {
        let mut be = BackendMeta::new(SimTime(0));
        for (op, s, h) in ops {
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
            let ready = be.ready_fes();
            let want = (!ready.is_empty()).then(|| ready[(h % ready.len() as u64) as usize]);
            prop_assert_eq!(be.select_fe(h), want);
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
