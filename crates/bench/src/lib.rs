//! # nezha-bench
//!
//! The experiment harness: one module per table and figure of the paper's
//! evaluation, each regenerating its result from the models in this
//! workspace. The `experiments` binary dispatches to them:
//!
//! ```text
//! cargo run -p nezha-bench --release --bin experiments -- fig9
//! cargo run -p nezha-bench --release --bin experiments -- all
//! ```
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
