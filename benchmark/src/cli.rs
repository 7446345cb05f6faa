//! Command line of both binaries.

use crate::runner::{self, WorkloadResult};
use crate::spec::{self, DEFAULT_SECONDS, DEFAULT_SEED, REPEATS, TRACE_BASE_REPEATS};
use crate::trace::Tracer;
use crate::workloads;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  nezha-benchmark all [--seed S] [--seconds T]        every workload + per-layer ledger, writes out/results.json
  nezha-benchmark aa  [--seed S] [--seconds T]        two full sets of the same build, compared within the bounds
  nezha-benchmark --workload W --seed S --seconds T --trace 0|1
                                                      one workload; last stdout line is the JSON result
  nezha-benchmark[-traced] run-one W --seed S --scale F
                                                      one child run (what the modes above spawn)";

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    spec::workload(name).map(|w| w.name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })
}

/// Entry point of both binaries; `traced` says which one is running.
pub fn main(traced: bool) -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(traced, origin, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("nezha-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` when the command ran but a check failed.
fn dispatch(traced: bool, origin: Instant, args: &[String]) -> Result<bool, String> {
    let seed = flag::<u64>(args, "--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flag::<f64>(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    match args.first().map(String::as_str) {
        Some("run-one") => {
            let name = args.get(1).ok_or("run-one needs a workload")?;
            let scale = flag::<f64>(args, "--scale")?.ok_or("run-one needs --scale")?;
            run_one(traced, origin, workload_name(name)?, seed, scale)
        }
        Some("all") => all(seed, seconds),
        Some("aa") => {
            let failures = runner::aa(seed, seconds)?;
            for f in &failures {
                println!("A/A FAILED: {f}");
            }
            if failures.is_empty() {
                println!(
                    "A/A passed: every end-to-end metric of set B is within its bound of set A"
                );
            }
            Ok(failures.is_empty())
        }
        _ => {
            let name: String = flag(args, "--workload")?.ok_or("no command")?;
            let trace = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            let repeats = if trace { TRACE_BASE_REPEATS } else { REPEATS };
            let res = runner::run_workload(workload_name(&name)?, seed, seconds, repeats, trace)?;
            runner::print_workload(&res);
            println!("{}", runner::result_line(&res, trace));
            // A failed check is reported in the result line, not by the
            // exit code: the run itself completed.
            Ok(true)
        }
    }
}

fn run_one(
    traced: bool,
    origin: Instant,
    workload: &'static str,
    seed: u64,
    scale: f64,
) -> Result<bool, String> {
    let mut tracer = Tracer::new(traced, origin);
    let report = workloads::run(workload, seed, scale, &mut tracer)?;
    if traced {
        let dir = runner::out_dir();
        let path = dir.join(format!("trace_{workload}.json"));
        let run_id = format!("{workload}-{seed}");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&run_id)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    for (name, value) in &report.kv {
        println!("kv {name} {value}");
    }
    let (laps, setup_laps) = tracer.laps();
    let laps: Vec<String> = laps.iter().map(u64::to_string).collect();
    println!("laps {setup_laps} {}", laps.join(" "));
    println!("digest {:016x}", report.digest);
    for v in &report.violations {
        println!("violation {v}");
    }
    println!("done");
    Ok(true)
}

fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    println!(
        "nezha-benchmark all: seed {seed}, {seconds} measuring seconds per workload, \
         {REPEATS} untraced repeats + 1 traced run each, one child at a time"
    );
    let mut results: Vec<WorkloadResult> = Vec::new();
    for w in &spec::WORKLOADS {
        let res = runner::run_workload(w.name, seed, seconds, REPEATS, true)?;
        runner::print_workload(&res);
        results.push(res);
    }
    let dir = runner::out_dir();
    let path = dir.join("results.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, runner::results_json(seed, seconds, &results)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let ok = results.iter().all(|r| r.correct() && r.failed() == 0);
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}
