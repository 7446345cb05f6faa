//! # nezha-bench
//!
//! The experiment harness: one module per table and figure of the paper's
//! evaluation, each regenerating its result from the models in this
//! workspace. Each is one `fn() -> BenchReport` in
//! [`experiments::EXPERIMENTS`]: it prints its tables and returns the
//! same numbers as typed report metrics, plus any text artifacts. The
//! `experiments` binary runs them by id:
//!
//! ```text
//! cargo run -p nezha-bench --release --bin experiments -- fig9
//! cargo run -p nezha-bench --release --bin experiments -- all
//! NEZHA_REPORT_DIR=reports cargo run -p nezha-bench --release --bin experiments -- table3
//! ```
//!
//! The last form also writes `reports/table3.json` (see
//! [`output::write_report`]).
//!
//! Absolute numbers come from a simulator, not the authors' testbed; the
//! *shapes* — who wins, by what factor, where the knees sit — are the
//! reproduction targets (see EXPERIMENTS.md for the side-by-side record).
//!
//! Nothing here reads the host clock: how fast the simulator itself runs
//! is measured from outside, by `benchmark/` (see its README).

#![warn(missing_docs)]

pub mod experiments;
pub mod output;
