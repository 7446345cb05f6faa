//! The experiment runner: regenerates every table and figure of the
//! paper's evaluation from this workspace's models.
//!
//! ```text
//! experiments <id> [--flag=..]...   run one experiment with arguments
//! experiments <id>...               run specific experiments (fig9, ...)
//! experiments all                   run everything, in paper order
//! experiments --list                list experiment ids
//! ```
//!
//! `--flag` arguments apply to the experiment id that precedes them
//! (e.g. `experiments watch --config=chaos --jsonl=windows.jsonl`).

use nezha_bench::experiments::{self, DispatchOutcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments <id> [--flag=value]... | all | --list");
        eprintln!("ids: {}", experiments::ALL.join(", "));
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--list") {
        // Tolerate a closed pipe (`experiments --list | head`).
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        for id in experiments::ALL {
            if writeln!(out, "{id}").is_err() {
                break;
            }
        }
        return ExitCode::SUCCESS;
    }
    // Group the command line into (id, flags-that-follow-it) runs.
    let mut jobs: Vec<(String, Vec<String>)> = Vec::new();
    for a in args {
        if a == "all" {
            for id in experiments::ALL {
                jobs.push((id.to_string(), Vec::new()));
            }
        } else if a.starts_with("--") {
            match jobs.last_mut() {
                Some((_, flags)) => flags.push(a),
                None => {
                    eprintln!("argument {a} must follow an experiment id");
                    return ExitCode::from(2);
                }
            }
        } else {
            jobs.push((a, Vec::new()));
        }
    }
    for (id, flags) in &jobs {
        match experiments::dispatch_with(id, flags) {
            DispatchOutcome::Ran(_) => {}
            DispatchOutcome::UnknownId => {
                eprintln!("unknown experiment: {id} (try --list)");
                return ExitCode::FAILURE;
            }
            DispatchOutcome::BadArgs(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
