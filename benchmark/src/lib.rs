//! # nezha-benchmark
//!
//! The repository's performance yardstick (`/BENCHMARK.json`): five
//! workloads over the simulator's public API, four bounded end-to-end
//! metrics plus a failure count, and a per-layer ledger measured from
//! outside the program — spans around public calls, counts read from
//! public accessors, and probes over single layers.
//!
//! Two binaries share this library: `nezha-benchmark` (the runner, and
//! the untraced child every end-to-end number comes from) and
//! `nezha-benchmark-traced` (the same child with the span recorder on
//! and a counting allocator installed). See `README.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod cli;
pub mod probes;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
