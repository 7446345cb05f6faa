//! The parent side: runs each workload in fresh child processes, one at
//! a time, takes medians over the repeats, runs the layer probes after
//! the traced child, checks correctness, and prints the results.

use crate::probes;
use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What one child printed.
#[derive(Clone, Debug, Default)]
pub struct Child {
    /// `kv <name> <value>` lines.
    pub kv: BTreeMap<String, f64>,
    /// `digest <hex>`.
    pub digest: String,
    /// `violation <text>` lines.
    pub violations: Vec<String>,
    /// `laps <set-up laps> <ns>...`: the child's lap clock.
    pub laps: Vec<u64>,
    /// How many of `laps` are set-up; the rest are the measured run.
    pub setup_laps: usize,
}

impl Child {
    /// A reported value; 0 for one this child did not report (a metric
    /// that does not apply to its workload).
    pub fn get(&self, name: &str) -> f64 {
        self.kv.get(name).copied().unwrap_or(0.0)
    }

    /// Parses a child's standard output. `None` unless it ended with
    /// `done` (a child that died half-way is not a result).
    pub fn parse(stdout: &str) -> Option<Child> {
        let mut child = Child::default();
        let mut done = false;
        for line in stdout.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "kv" => {
                    let (name, value) = rest.split_once(' ')?;
                    child.kv.insert(name.to_string(), value.parse().ok()?);
                }
                "laps" => {
                    let mut fields = rest.split(' ');
                    child.setup_laps = fields.next()?.parse().ok()?;
                    child.laps = fields.map(str::parse).collect::<Result<_, _>>().ok()?;
                }
                "digest" => child.digest = rest.to_string(),
                "violation" => child.violations.push(rest.to_string()),
                "done" => done = true,
                _ => {}
            }
        }
        done.then_some(child)
    }
}

/// The sibling binary of the running one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found; build both binaries with `cargo build --release`",
            path.display()
        ))
    }
}

fn spawn_child(traced: bool, workload: &str, seed: u64, scale: f64) -> Result<Child, String> {
    let bin = sibling(if traced {
        "nezha-benchmark-traced"
    } else {
        "nezha-benchmark"
    })?;
    // `output()` waits for the child to end, so runs are strictly
    // sequential and nothing is left behind.
    let out = Command::new(&bin)
        .args(["run-one", workload, "--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{workload}: child ended with {}", out.status));
    }
    Child::parse(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| format!("{workload}: child output is not a complete report"))
}

/// One end-to-end metric over the repeats.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The reported value: a median over the repeats (for the two
    /// timings, taken lap by lap — see [`lap_medians`]).
    pub value: f64,
    /// Smallest whole-repeat value.
    pub min: f64,
    /// Largest whole-repeat value.
    pub max: f64,
    /// Repeats.
    pub n: usize,
}

/// Each lap's median over the repeats, in nanoseconds; `None` if the
/// repeats' lap sequences differ in shape.
///
/// Repeats of one seed do identical work in every lap, so a lap that is
/// slow in one repeat only was slowed by the host (on this kind of box,
/// a stolen time slice of 10–100 ms), while a stall the program causes
/// (a sweep, a rehash) is slow in every repeat and stays in the median.
fn lap_medians(children: &[Child]) -> Option<Vec<f64>> {
    let first = &children[0];
    children
        .iter()
        .all(|c| c.laps.len() == first.laps.len() && c.setup_laps == first.setup_laps)
        .then(|| {
            (0..first.laps.len())
                .map(|k| {
                    let lap: Vec<f64> = children.iter().map(|c| c.laps[k] as f64).collect();
                    stats::median(&lap)
                })
                .collect()
        })
}

/// One workload's children and what was derived from them.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Untraced repeats, in run order.
    pub untraced: Vec<Child>,
    /// Each lap's median over `untraced`, in nanoseconds (empty if the
    /// repeats' lap sequences differ, which `errors` then says).
    pub lap_medians: Vec<f64>,
    /// Set-up time: the set-up laps of `lap_medians`, summed.
    pub setup_s: f64,
    /// Measured segment + drain: the other laps of `lap_medians`, summed.
    pub run_wall_s: f64,
    /// The traced child, when the per-layer ledger was asked for.
    pub traced: Option<Child>,
    /// Per-layer ledger (empty without a traced child).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Operation counts behind the probe costs, for the printed table.
    pub probe_ops: Vec<(&'static str, u64)>,
    /// Failed checks, in words.
    pub errors: Vec<String>,
}

/// The whole-repeat values of an end-to-end metric.
fn e2e_raw(children: &[Child], name: &str) -> Vec<f64> {
    children
        .iter()
        .map(|c| match name {
            "work_per_wall_s" => c.get("work") / c.get("run_wall_s"),
            other => c.get(other),
        })
        .collect()
}

impl WorkloadResult {
    /// Takes the timings from the children's laps and checks the
    /// children against each other: no violated invariant, one digest.
    pub fn new(workload: &'static str, untraced: Vec<Child>, traced: Option<Child>) -> Self {
        let mut errors = Vec::new();
        let lap_medians = lap_medians(&untraced).unwrap_or_else(|| {
            errors.push("repeats differ in their lap sequence".to_string());
            Vec::new()
        });
        let (setup_s, run_wall_s) = if lap_medians.is_empty() {
            // No lap-wise median to take: the median of whole repeats.
            (
                stats::median(&e2e_raw(&untraced, "setup_s")),
                stats::median(&e2e_raw(&untraced, "run_wall_s")),
            )
        } else {
            let (setup, run) = lap_medians.split_at(untraced[0].setup_laps);
            (
                setup.iter().sum::<f64>() / 1e9,
                run.iter().sum::<f64>() / 1e9,
            )
        };
        for (i, c) in untraced.iter().chain(traced.iter()).enumerate() {
            for v in &c.violations {
                errors.push(format!("child {i}: {v}"));
            }
            if c.digest != untraced[0].digest {
                errors.push(format!(
                    "child {i}: payload_digest {} differs from {}",
                    c.digest, untraced[0].digest
                ));
            }
        }
        WorkloadResult {
            workload,
            untraced,
            lap_medians,
            setup_s,
            run_wall_s,
            traced,
            per_layer: Vec::new(),
            probe_ops: Vec::new(),
            errors,
        }
    }

    /// Every end-to-end metric's summary, in `END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, Summary)> {
        END_TO_END
            .iter()
            .map(|m| {
                let raw = e2e_raw(&self.untraced, m.name);
                let (min, max) = stats::min_max(&raw);
                let value = match m.name {
                    "setup_s" => self.setup_s,
                    "run_wall_s" => self.run_wall_s,
                    "work_per_wall_s" => self.untraced[0].get("work") / self.run_wall_s,
                    _ => stats::median(&raw),
                };
                let n = raw.len();
                (m.name, Summary { value, min, max, n })
            })
            .collect()
    }

    /// Work units attempted in the measured segment of one repeat.
    pub fn attempted(&self) -> u64 {
        self.untraced[0].get("attempted") as u64
    }

    /// Work units that did not succeed, of `attempted`.
    pub fn failed(&self) -> u64 {
        self.untraced[0].get("failed") as u64
    }

    /// The digest all repeats share (the first one's, if they differ —
    /// which `errors` then says).
    pub fn digest(&self) -> &str {
        &self.untraced[0].digest
    }

    /// No check failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Runs `workload`: `repeats` untraced children and, if `trace`, one
/// traced child (after the first untraced one) followed by the probes.
pub fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    repeats: usize,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let scale = seconds * spec::SCALE_PER_SECOND;
    let (mut untraced, mut traced) = (Vec::new(), None);
    for i in 0..repeats {
        untraced.push(spawn_child(false, workload, seed, scale)?);
        if trace && i == 0 {
            traced = Some(spawn_child(true, workload, seed, scale)?);
        }
    }
    let mut res = WorkloadResult::new(workload, untraced, traced);
    if let Some(traced) = res.traced.clone() {
        let cover_error = (traced.get("raw.top_level_cover") - 1.0).abs();
        if cover_error > 0.02 {
            res.errors.push(format!(
                "trace: top-level spans cover {:.4} of the child's wall time",
                traced.get("raw.top_level_cover")
            ));
        }
        ledger(&mut res, &traced, cover_error);
    }
    Ok(res)
}

/// Fills the per-layer ledger from the traced child's spans and counts
/// and from probes sized by those counts.
fn ledger(res: &mut WorkloadResult, traced: &Child, cover_error: f64) {
    // Counts are the same in every repeat; the time they are shares of
    // is the reported (untraced) one.
    let run_wall_ns = res.run_wall_s * 1e9;
    let live = traced.get("vswitch.session.peak_live") as usize;
    let pending = traced.get("raw.mean_pending") as usize;

    // Probes of layers the run never entered (no session ever lived:
    // `region_month`) are skipped and read 0, like that layer's counts.
    let on_datapath = live > 0;
    let hold = probes::engine_hold(pending);
    let below_10k = probes::engine_below_horizon_insert(10_000);
    let below_1k = probes::engine_below_horizon_insert(1_000);
    let (inc, observe, record) = probes::metrics();
    let nsh = probes::nsh_codec();
    let (dense_get, dense_churn) = probes::skip_unless(on_datapath, || probes::dense(live));
    let lookup = probes::skip_unless(on_datapath, probes::stage_lookup);
    let (fast, slow) = probes::skip_unless(on_datapath, || probes::process_local(live));
    let (get, insert, expire) = probes::skip_unless(on_datapath, || probes::session_table(live));

    let share = |cost_ns: f64| {
        if run_wall_ns > 0.0 {
            cost_ns / run_wall_ns
        } else {
            0.0
        }
    };
    let engine_share = share(traced.get("sim.engine.events") * hold.ns_per_op);
    let metrics_share = share(
        traced.get("raw.counter_incs") * inc.ns_per_op
            + traced.get("raw.hist_observes") * observe.ns_per_op
            + traced.get("raw.loghist_records") * record.ns_per_op,
    );
    let stage_share = share(traced.get("vswitch.stage.lookups") * lookup.ns_per_op);
    let session_share = share(
        traced.get("raw.packets") * get.ns_per_op
            + traced.get("vswitch.session.created") * insert.ns_per_op
            + traced.get("vswitch.session.expired") * expire.ns_per_op,
    );
    let probes = [
        ("sim.engine.hold_ns", hold),
        ("sim.engine.below_horizon_insert_ns", below_10k),
        ("sim.engine.below_horizon_insert_1k_ns", below_1k),
        ("sim.dense.get_hit_ns", dense_get),
        ("sim.dense.insert_remove_ns", dense_churn),
        ("sim.metrics.inc_ns", inc),
        ("sim.metrics.observe_ns", observe),
        ("sim.obs.loghist_record_ns", record),
        ("vswitch.stage.lookup_ns", lookup),
        ("vswitch.vswitch.process_fast_ns", fast),
        ("vswitch.vswitch.process_slow_ns", slow),
        ("vswitch.session.get_ns", get),
        ("vswitch.session.insert_ns", insert),
        ("vswitch.session.expire_ns_per_entry", expire),
        ("types.nsh.encode_parse_ns", nsh),
    ];
    let derived = [
        ("sim.engine.est_share", engine_share),
        ("sim.metrics.est_share", metrics_share),
        ("vswitch.stage.est_share", stage_share),
        ("vswitch.session.est_share", session_share),
        // What only tracing inside the program can split further:
        // dispatch and demux, `HandlerCtx`, the FE/BE handlers, the
        // driver. By construction the shares and this sum to 1.
        (
            "core.datapath.residual_share",
            1.0 - (engine_share + metrics_share + stage_share + session_share),
        ),
        ("trace.overhead_ratio", trace_overhead(res, traced)),
        ("trace.top_level_cover_error", cover_error),
        (
            "fail_ratio",
            traced.get("failed") / traced.get("attempted").max(1.0),
        ),
    ];
    res.per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let probe = probes.iter().find(|(n, _)| *n == m.name);
            let value = probe
                .map(|(_, p)| p.ns_per_op)
                .or_else(|| derived.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v))
                .unwrap_or_else(|| traced.get(m.name));
            (m.name, value)
        })
        .collect();
    res.probe_ops = probes.iter().map(|(n, p)| (*n, p.ops)).collect();
}

/// The traced run's cost relative to the untraced repeats: over the
/// laps of the measured run, the median — weighted by the lap's untraced
/// duration — of the traced lap divided by that lap's untraced median.
/// (A ratio of whole-run times would be at the mercy of one stalled lap
/// in the single traced run; an unweighted median, of the thousands of
/// microsecond-long idle laps of the drain.) 0 when the traced run's
/// laps do not line up with the untraced ones.
fn trace_overhead(res: &WorkloadResult, traced: &Child) -> f64 {
    let lined_up = res.lap_medians.len() == traced.laps.len()
        && res.untraced[0].setup_laps == traced.setup_laps
        && traced.setup_laps < traced.laps.len();
    if !lined_up {
        return 0.0;
    }
    let ratios: Vec<(f64, f64)> = (traced.setup_laps..traced.laps.len())
        .map(|k| {
            let base = res.lap_medians[k].max(1.0);
            (traced.laps[k] as f64 / base, base)
        })
        .collect();
    stats::weighted_median(&ratios)
}

/// Formats a value with all its digits (shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the driver reads: the end-to-end metrics of an
/// untraced run, or the per-layer ledger of a traced one.
pub fn result_line(res: &WorkloadResult, trace: bool) -> String {
    let metrics = if trace {
        metrics_json(
            PER_LAYER
                .iter()
                .zip(&res.per_layer)
                .map(|(m, (_, v))| (m.name, *v, m.unit)),
        )
    } else {
        metrics_json(
            END_TO_END
                .iter()
                .zip(res.end_to_end())
                .map(|(m, (_, s))| (m.name, s.value, m.unit)),
        )
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        res.correct(),
        res.attempted().max(1),
        res.failed(),
    )
}

/// Human-readable report of one workload.
pub fn print_workload(res: &WorkloadResult) {
    let unit = spec::workload(res.workload).map_or("", |w| w.work_unit);
    println!("\n== {} ==", res.workload);
    println!(
        "  payload_digest {}   attempted {}   failed {}   fail_ratio {}   (work unit: {unit})",
        res.digest(),
        res.attempted(),
        res.failed(),
        res.failed() as f64 / res.attempted().max(1) as f64,
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>14} {:>3}  unit",
        "end-to-end", "reported", "min", "max", "n"
    );
    for (m, (_, s)) in END_TO_END.iter().zip(res.end_to_end()) {
        println!(
            "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}",
            m.name, s.value, s.min, s.max, s.n, m.unit
        );
    }
    if !res.per_layer.is_empty() {
        println!(
            "  {:<40} {:>16}  unit",
            "per-layer (traced run + probes)", "value"
        );
        for (m, (_, v)) in PER_LAYER.iter().zip(&res.per_layer) {
            let ops = res
                .probe_ops
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(String::new(), |(_, ops)| format!("  ({ops} ops)"));
            println!("  {:<40} {:>16.4}  {}{ops}", m.name, v, m.unit);
        }
    }
    if let Some(traced) = &res.traced {
        println!(
            "  {:<40} {:>16}  unit",
            "self time by span (traced run)", "value"
        );
        for (name, self_s) in traced.kv.iter().filter(|(k, _)| k.starts_with("self.")) {
            println!("  {:<40} {:>16.4}  s", &name["self.".len()..], self_s);
        }
    }
    for e in &res.errors {
        println!("  CHECK FAILED: {e}");
    }
}

/// Where run artefacts go: `benchmark/out` from the repository root,
/// `out` from inside the package.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// `results.json`: everything `all` printed, for scripts.
pub fn results_json(seed: u64, seconds: f64, results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"repeats\": {},\n  \"workloads\": {{",
        num(seconds),
        spec::REPEATS
    );
    for (i, r) in results.iter().enumerate() {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .zip(r.end_to_end())
            .map(|(m, (_, s))| {
                format!(
                    "\"{}\": {{\"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(s.value),
                    num(s.min),
                    num(s.max),
                    s.n,
                    m.unit
                )
            })
            .collect();
        let layers = metrics_json(
            PER_LAYER
                .iter()
                .zip(&r.per_layer)
                .map(|(m, (_, v))| (m.name, *v, m.unit)),
        );
        let _ = write!(
            out,
            "    \"{}\": {{\n      \"correct\": {},\n      \"payload_digest\": \"{}\",\n      \
             \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": {{{}}},\n      \
             \"per_layer\": {layers}\n    }}{}",
            r.workload,
            r.correct(),
            r.digest(),
            r.attempted(),
            r.failed(),
            e2e.join(", "),
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A/A: two complete sets of the same commit, the second in reverse
/// workload order. Prints each metric's spread; returns the pairings of
/// set B that are worse than set A by more than the metric's own bound.
pub fn aa(seed: u64, seconds: f64) -> Result<Vec<String>, String> {
    let names: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let run_set = |order: &[&'static str]| -> Result<Vec<WorkloadResult>, String> {
        order
            .iter()
            .map(|w| {
                eprintln!("aa: {w}");
                run_workload(w, seed, seconds, spec::REPEATS, false)
            })
            .collect()
    };
    let a = run_set(&names)?;
    let reversed: Vec<&'static str> = names.iter().rev().copied().collect();
    let mut b = run_set(&reversed)?;
    b.reverse();

    let mut failures = Vec::new();
    println!(
        "{:<20} {:<16} {:>11} {:>11} {:>8} {:>6}   whole-repeat values of both sets: min / q1 / median / q3 / max",
        "workload", "metric", "set A", "set B", "B worse", "bound"
    );
    for (ra, rb) in a.iter().zip(&b) {
        for r in [ra, rb] {
            for e in &r.errors {
                failures.push(format!("{}: {e}", r.workload));
            }
        }
        if ra.digest() != rb.digest() {
            failures.push(format!(
                "{}: payload_digest {} in set A, {} in set B",
                ra.workload,
                ra.digest(),
                rb.digest()
            ));
        }
        for (m, ((_, sa), (_, sb))) in END_TO_END
            .iter()
            .zip(ra.end_to_end().into_iter().zip(rb.end_to_end()))
        {
            let (ma, mb) = (sa.value, sb.value);
            let worse = worse_by(m.better, ma, mb);
            let pooled: Vec<f64> = e2e_raw(&ra.untraced, m.name)
                .into_iter()
                .chain(e2e_raw(&rb.untraced, m.name))
                .collect();
            let (lo, hi) = stats::min_max(&pooled);
            let (q1, q2, q3) = stats::quartiles(&pooled);
            println!(
                "{:<20} {:<16} {:>11.4} {:>11.4} {:>7.2}% {:>5.0}%   {:.4} / {:.4} / {:.4} / {:.4} / {:.4}  (IQR {:.2}% of median)",
                ra.workload,
                m.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * m.bound,
                lo,
                q1,
                q2,
                q3,
                hi,
                100.0 * stats::iqr_share(&pooled),
            );
            if worse > m.bound {
                failures.push(format!(
                    "{} {}: set B is {:.2}% worse than set A (bound {:.0}%)",
                    ra.workload,
                    m.name,
                    100.0 * worse,
                    100.0 * m.bound
                ));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_needs_its_done_line() {
        let text = "kv setup_s 0.5\nkv work 10\ndigest abc\nviolation lost 3 packets\n";
        assert!(Child::parse(text).is_none());
        let child = Child::parse(&format!("{text}done\n")).expect("complete");
        assert_eq!(child.get("setup_s"), 0.5);
        assert_eq!(child.get("absent"), 0.0);
        assert_eq!(child.digest, "abc");
        assert_eq!(child.violations, vec!["lost 3 packets"]);
        assert!(Child::parse("kv broken\ndone\n").is_none());
    }

    #[test]
    fn timings_are_per_lap_medians_summed() {
        let repeat = |laps: &[u64]| Child {
            laps: laps.to_vec(),
            setup_laps: 2,
            digest: "d".to_string(),
            ..Child::default()
        };
        // One repeat stalls in the first run lap, another in the second:
        // no whole-repeat total is clean, every per-lap median is.
        let children = vec![
            repeat(&[10, 20, 100, 100, 100]),
            repeat(&[10, 20, 900, 100, 100]),
            repeat(&[10, 25, 100, 800, 100]),
        ];
        let res = WorkloadResult::new("crr_local", children, None);
        assert!(res.correct());
        assert!((res.setup_s - 30e-9).abs() < 1e-15 && (res.run_wall_s - 300e-9).abs() < 1e-15);
        // A stall in the same lap of every repeat is the program's: kept.
        let stalled = (0..3).map(|_| repeat(&[10, 20, 100, 700, 100])).collect();
        let res = WorkloadResult::new("crr_local", stalled, None);
        assert!((res.run_wall_s - 900e-9).abs() < 1e-15);
        assert_eq!(trace_overhead(&res, &repeat(&[10, 20, 110, 770, 105])), 1.1);
        assert_eq!(trace_overhead(&res, &repeat(&[10, 20, 110])), 0.0);
        // Repeats that differ in shape are an error, not a silent median.
        let ragged = vec![repeat(&[10, 20, 100]), repeat(&[10, 20, 100, 100])];
        assert_eq!(
            WorkloadResult::new("crr_local", ragged, None).errors.len(),
            1
        );
    }

    #[test]
    fn digests_must_agree_and_violations_are_errors() {
        let mut bad = child(0.3, 2.0, 100.0, "e");
        bad.violations.push("lost 3 packets".to_string());
        let res = WorkloadResult::new("crr_local", vec![child(0.3, 2.0, 100.0, "d"), bad], None);
        assert_eq!(res.errors.len(), 2);
        assert!(!res.correct());
        assert!(result_line(&res, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 10.0, 9.0) < 0.0);
    }

    fn child(setup: f64, wall: f64, work: f64, digest: &str) -> Child {
        let mut c = Child {
            digest: digest.to_string(),
            laps: vec![(setup * 1e9) as u64, (wall * 1e9) as u64],
            setup_laps: 1,
            ..Child::default()
        };
        for (k, v) in [
            ("setup_s", setup),
            ("run_wall_s", wall),
            ("work", work),
            ("attempted", work),
            ("failed", 0.0),
            ("peak_rss_mb", 100.0),
        ] {
            c.kv.insert(k.to_string(), v);
        }
        c
    }

    #[test]
    fn result_line_reports_medians_under_the_spec_names() {
        let res = WorkloadResult::new(
            "crr_local",
            vec![
                child(0.3, 2.0, 100.0, "d"),
                child(0.5, 4.0, 100.0, "d"),
                child(0.4, 2.5, 100.0, "d"),
            ],
            None,
        );
        assert!(res.correct());
        let line = result_line(&res, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.4, \"unit\": \"s\"}"));
        assert!(line.contains("\"run_wall_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"work_per_wall_s\": {\"value\": 40, \"unit\": \"1/s\"}"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{", m.name)), "{}", m.name);
        }
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }
}
