//! The experiment runner: regenerates every table and figure of the
//! paper's evaluation from this workspace's models.
//!
//! ```text
//! experiments <id>...   run specific experiments (fig9, watch_region, ...)
//! experiments all       run everything, in paper order
//! experiments --list    list experiment ids
//! ```
//!
//! `NEZHA_REPORT_DIR=<dir>` writes each experiment's typed report (and
//! its artifacts) there.

use nezha_bench::experiments::{Run, EXPERIMENTS};
use nezha_bench::output::emit_report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = || EXPERIMENTS.iter().map(|(id, _)| *id);
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments <id>... | all | --list");
        eprintln!("ids: {}", ids().collect::<Vec<_>>().join(", "));
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--list") {
        // Tolerate a closed pipe (`experiments --list | head`).
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        for id in ids() {
            if writeln!(out, "{id}").is_err() {
                break;
            }
        }
        return ExitCode::SUCCESS;
    }
    let mut runs: Vec<Run> = Vec::new();
    for a in &args {
        if a == "all" {
            runs.extend(EXPERIMENTS.iter().map(|(_, run)| *run));
        } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(id, _)| id == a) {
            runs.push(*run);
        } else {
            eprintln!("unknown experiment: {a} (try --list)");
            return ExitCode::FAILURE;
        }
    }
    for run in runs {
        emit_report(&run());
    }
    ExitCode::SUCCESS
}
