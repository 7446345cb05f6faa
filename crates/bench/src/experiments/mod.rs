//! One module per paper table/figure, plus the shared testbed harness —
//! all dispatched through one [`Experiment`] registry.
//!
//! Every experiment implements [`Experiment`]: a registry key
//! ([`Experiment::name`], the CLI subcommand), an argument hook
//! ([`Experiment::configure`]), and a typed [`Experiment::run`] that
//! receives the shared [`Harness`] and returns a [`BenchReport`]. The
//! CLI and future experiments all enter through [`dispatch_with`];
//! there is no per-experiment wiring left.
//!
//! The paper-figure modules keep their original `run()` free functions
//! (plain-text tables plus legacy snapshot lines — those byte-exact
//! outputs are pinned by golden tests) and are adapted into the registry
//! by `Legacy`; `chaos`, `profile` and `watch` implement the trait
//! natively and return fully-populated reports.

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

pub use harness::Harness;
use nezha_sim::report::BenchReport;

/// One runnable experiment behind the registry.
///
/// `name()` is the stable CLI id; `configure()` receives any `--flag`
/// arguments that followed the id on the command line; `run()` does the
/// work and returns the typed report, which the dispatcher hands to
/// [`crate::output::emit_report`].
pub trait Experiment {
    /// The registry key / CLI subcommand (e.g. `"fig9"`).
    fn name(&self) -> &'static str;

    /// Applies CLI arguments. The default accepts none.
    fn configure(&mut self, args: &[String]) -> Result<(), String> {
        if args.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: unexpected arguments {args:?}",
                Experiment::name(self)
            ))
        }
    }

    /// Runs the experiment.
    fn run(&mut self, harness: &mut Harness) -> BenchReport;
}

/// Adapter for the paper-figure modules that still expose a bare
/// `run()`: prints exactly what it always printed, returns an id-only
/// report.
struct Legacy {
    name: &'static str,
    run: fn(),
}

impl Experiment for Legacy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, _harness: &mut Harness) -> BenchReport {
        (self.run)();
        BenchReport::new(self.name)
    }
}

fn legacy(name: &'static str, run: fn()) -> Box<dyn Experiment> {
    Box::new(Legacy { name, run })
}

/// Builds the full registry, in paper order (the order `all` runs).
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        legacy("fig2", fig2::run),
        legacy("fig3", fig3::run),
        legacy("fig4", fig4::run),
        legacy("table1", table1::run),
        legacy("fig9", fig9::run),
        legacy("fig10", fig10::run),
        legacy("fig11", fig11::run),
        legacy("fig12", fig12::run),
        legacy("table3", table3::run),
        legacy("table4", table4::run),
        legacy("fig13", fig13::run),
        legacy("fig14", fig14::run),
        legacy("fig15", fig15::run),
        legacy("table5", table5::run),
        legacy("table_a1", table_a1::run),
        legacy("fig_a1", fig_a1::run),
        legacy("appendix_b2", appendix_b2::run),
        legacy("ablations", ablations::run),
        Box::new(chaos::Chaos),
        Box::new(profile::Profile),
        Box::new(watch::Watch::default()),
    ]
}

/// Ids of all experiments, in paper order. Kept in sync with
/// [`registry`] by a unit test.
pub const ALL: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table3",
    "table4",
    "fig13",
    "fig14",
    "fig15",
    "table5",
    "table_a1",
    "fig_a1",
    "appendix_b2",
    "ablations",
    "chaos",
    "profile",
    "watch",
];

/// Outcome of a dispatch attempt.
pub enum DispatchOutcome {
    /// The experiment ran; its report was emitted.
    Ran(BenchReport),
    /// No experiment has this id.
    UnknownId,
    /// The id matched but its arguments did not parse.
    BadArgs(String),
}

/// Dispatches one experiment by id, passing `args` to its `configure`.
pub fn dispatch_with(id: &str, args: &[String]) -> DispatchOutcome {
    let Some(mut exp) = registry().into_iter().find(|e| e.name() == id) else {
        return DispatchOutcome::UnknownId;
    };
    if let Err(e) = exp.configure(args) {
        return DispatchOutcome::BadArgs(e);
    }
    let mut harness = Harness::new();
    let report = exp.run(&mut harness);
    crate::output::emit_report(&report);
    DispatchOutcome::Ran(report)
}

/// Dispatches one experiment by id with no arguments. Returns false for
/// unknown ids.
pub fn dispatch(id: &str) -> bool {
    match dispatch_with(id, &[]) {
        DispatchOutcome::Ran(_) => true,
        DispatchOutcome::UnknownId => false,
        DispatchOutcome::BadArgs(e) => {
            eprintln!("{e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_all_ids_in_order() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names, ALL);
    }

    #[test]
    fn unknown_id_is_reported() {
        assert!(matches!(
            dispatch_with("nope", &[]),
            DispatchOutcome::UnknownId
        ));
    }

    #[test]
    fn default_configure_rejects_arguments() {
        let args = vec!["--bogus".to_string()];
        assert!(matches!(
            dispatch_with("fig2", &args),
            DispatchOutcome::BadArgs(_)
        ));
    }
}
