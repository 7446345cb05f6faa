//! One module per paper table/figure, plus the shared testbed harness.
//!
//! Every experiment is a [`Run`] in [`EXPERIMENTS`]: it
//! prints its tables and returns every number it printed as a typed
//! report metric (plus any text artifacts, such as a flamegraph or a
//! registry dump), which the CLI hands to [`crate::output::emit_report`].

pub mod ablations;
pub mod appendix_b2;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig9;
pub mod fig_a1;
pub mod harness;
pub mod profile;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table_a1;
pub mod watch;

use nezha_sim::report::BenchReport;

/// An experiment: prints its tables, returns its report.
pub type Run = fn() -> BenchReport;

/// Every experiment by CLI id, in paper order (the order `all` runs).
/// Each returns a report whose id is its CLI id.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("table1", table1::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("table5", table5::run),
    ("table_a1", table_a1::run),
    ("fig_a1", fig_a1::run),
    ("appendix_b2", appendix_b2::run),
    ("ablations", ablations::run),
    ("chaos", chaos::run),
    ("profile", profile::run),
    ("watch", watch::run),
    ("watch_region", watch::run_region),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    /// The quick experiments return their numbers, under their own id,
    /// and same-seed runs return the same report.
    #[test]
    fn quick_reports_carry_metrics_and_replay_identically() {
        for id in ["table3", "table5", "fig15", "fig_a1"] {
            let run = EXPERIMENTS.iter().find(|(i, _)| *i == id).unwrap().1;
            let a = run();
            assert_eq!(a.id, id);
            assert!(!a.metrics().is_empty(), "{id} returned no metrics");
            assert_eq!(a.deterministic_json(), run().deterministic_json(), "{id}");
        }
    }
}
