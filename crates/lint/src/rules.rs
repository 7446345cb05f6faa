//! The token-pattern determinism & panic-safety rules (D1, D3–D5), plus the
//! shared rule registry and allow-directive machinery used by the graph
//! rules (D8–D11, see `graph_rules`).
//!
//! They are token-pattern matches over the lexed stream with a
//! path-based scope. Test items (`#[test]` fns, `#[cfg(test)]` mods) are
//! stripped before matching: the rules guard simulation-visible and
//! control-plane behaviour, not assertions about it.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::{lex, AllowDirective, SpannedTok, Tok};

/// Diagnostic severity. Errors always fail the run; warnings fail it
/// only under `--deny-warnings`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the run by default.
    Warning,
    /// Fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D1`..`D11`, or `stale-allow`).
    pub rule: &'static str,
    /// Severity after allow-list processing.
    pub severity: Severity,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// Registry entry for one rule — drives `--help`, the README table, and
/// the meta-test that keeps every rule exercised by fixtures.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule id (`D1`..`D11`).
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary of what the rule forbids.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in id order. Ids are stable: D2, D6,
/// D7 and D12 were retired once the compiler or a closed type made their
/// violations unrepresentable, and are not reused.
pub const ALL_RULES: [RuleInfo; 8] = [
    RuleInfo {
        id: "D1",
        severity: Severity::Error,
        summary: "Instant::now / SystemTime::now in sim-visible crates",
    },
    RuleInfo {
        id: "D3",
        severity: Severity::Error,
        summary: "iteration over HashMap/HashSet bindings in sim-visible crates",
    },
    RuleInfo {
        id: "D4",
        severity: Severity::Error,
        summary: "unwrap/expect/panic!/todo! written directly in control-plane modules",
    },
    RuleInfo {
        id: "D5",
        severity: Severity::Warning,
        summary: "MetricsRegistry handle acquisition outside a startup path",
    },
    RuleInfo {
        id: "D8",
        severity: Severity::Error,
        summary: "panic site transitively reachable from a control-plane entry point",
    },
    RuleInfo {
        id: "D9",
        severity: Severity::Error,
        summary: "SimRng seeded outside derive_seed, or a stream name reused across modules",
    },
    RuleInfo {
        id: "D10",
        severity: Severity::Error,
        summary: "heap allocation / format! / heap clone on a hot path (ladder drain, \
                  DenseMap probe, NSH codec, datapath handlers)",
    },
    RuleInfo {
        id: "D11",
        severity: Severity::Error,
        summary: "static mut, non-const statics, thread_local!, Rc/RefCell in sim-visible \
                  shard-candidate code",
    },
];

/// Which rules apply to a given workspace-relative path.
#[derive(Clone, Copy, Debug)]
struct Scope {
    d1: bool,
    d3: bool,
    d4: bool,
    d5: bool,
}

/// Crates whose code runs inside the simulation and therefore must be
/// bit-deterministic under a fixed seed.
pub(crate) const SIM_VISIBLE: [&str; 6] = [
    "crates/sim/src/",
    "crates/core/src/",
    "crates/vswitch/src/",
    "crates/types/src/",
    "crates/workloads/src/",
    "crates/baselines/src/",
];

/// Control-plane modules where `NezhaResult` must be used instead of
/// panicking (rule D4).
pub(crate) const CONTROL_PLANE_FILES: [&str; 5] = [
    "cluster.rs",
    "controller.rs",
    "monitor.rs",
    "gateway.rs",
    "migration.rs",
];

/// Exact paths carved out of the old `cluster.rs` monolith that inherit
/// its D4 (no-panic) obligation. Listed by full path so that same-named
/// files in other crates (e.g. `crates/vswitch/src/config.rs`) keep
/// their existing scope.
pub(crate) const CONTROL_PLANE_PATHS: [&str; 3] = [
    "crates/core/src/config.rs",
    "crates/core/src/telemetry.rs",
    "crates/core/src/driver.rs",
];

/// Methods whose call on a `HashMap`/`HashSet` binding observes the
/// (randomised) iteration order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// `MetricsRegistry` methods that register (or string-look-up) a handle.
const REGISTRY_METHODS: [&str; 5] = ["counter", "gauge", "histogram", "series", "log_histogram"];

const HINT_D1: &str = "take time from the simulated clock (nezha-sim SimTime / engine now())";
const HINT_D3: &str =
    "use BTreeMap/BTreeSet (or sort keys first), or allow-list with a justification";
const HINT_D4: &str = "return a typed NezhaResult error instead of panicking in the control plane";
const HINT_D5: &str =
    "pre-register the handle in new()/register()/attach_metrics() and store it; registry \
     lookups are string-keyed and do not belong on the simulation path";

fn scope_for(path: &str) -> Scope {
    // Fixture files exercise every rule regardless of where they live.
    if path.contains("fixtures") {
        return Scope {
            d1: true,
            d3: true,
            d4: true,
            d5: true,
        };
    }
    let sim_visible = SIM_VISIBLE.iter().any(|p| path.starts_with(p));
    let file_name = path.rsplit('/').next().unwrap_or(path);
    let datapath = path.starts_with("crates/core/src/datapath/");
    let control_plane =
        CONTROL_PLANE_FILES.contains(&file_name) || CONTROL_PLANE_PATHS.contains(&path);
    Scope {
        d1: sim_visible || path.starts_with("crates/bench/src/"),
        d3: sim_visible,
        d4: sim_visible && (control_plane || datapath),
        // metrics.rs implements the registry itself; the obs layer reads
        // closed `WindowRecord`s through same-named accessors, not the
        // string-keyed registry.
        d5: sim_visible
            && path != "crates/sim/src/metrics.rs"
            && !path.starts_with("crates/sim/src/obs/"),
    }
}

/// Runs the token-pattern rules (D1, D3–D5) over one file, applying allow
/// directives. The graph rules (D8–D11) need the whole workspace index —
/// use `analyze` in the crate root for the full two-pass run.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = strip_tests(&lexed.toks);
    let raw = token_rules(rel_path, &toks);
    let mut used = BTreeSet::new();
    apply_allows_tracked(raw, &lexed.allows, &mut used)
}

/// The token-pattern pass (D1, D3–D5): raw violations, before allow directives.
pub(crate) fn token_rules(rel_path: &str, toks: &[SpannedTok]) -> Vec<Violation> {
    let scope = scope_for(rel_path);
    let hash_names = if scope.d3 {
        crate::symbols::collect_typed_names(toks, &["HashMap", "HashSet"])
    } else {
        BTreeSet::new()
    };

    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |line: u32, rule: &'static str, severity: Severity, message: String, hint| {
        raw.push(Violation {
            file: rel_path.to_string(),
            line,
            rule,
            severity,
            message,
            hint,
        });
    };

    // Function-name tracking for D5: (name, brace depth of the body).
    let mut fn_stack: Vec<(String, u32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut depth: u32 = 0;

    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Punct('{') => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((name, depth));
                }
            }
            Tok::Punct('}') => {
                if let Some((_, d)) = fn_stack.last() {
                    if *d == depth {
                        fn_stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            Tok::Punct(';') => {
                // Trait method declarations have no body.
                pending_fn = None;
            }
            Tok::Ident(id) => {
                if id == "fn" {
                    if let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) {
                        pending_fn = Some(name.to_string());
                    }
                    continue;
                }

                // D1: wall-clock reads.
                if scope.d1
                    && (id == "Instant" || id == "SystemTime")
                    && tok_is(toks, i + 1, ':')
                    && tok_is(toks, i + 2, ':')
                    && ident_at(toks, i + 3) == Some("now")
                {
                    push(
                        t.line,
                        "D1",
                        Severity::Error,
                        format!("wall-clock read `{id}::now()` in sim-visible code"),
                        HINT_D1,
                    );
                }

                // D3: order-visible iteration over a hash collection.
                if scope.d3 && hash_names.contains(id.as_str()) && tok_is(toks, i + 1, '.') {
                    if let Some(m) = ident_at(toks, i + 2) {
                        if ITER_METHODS.contains(&m) && tok_is(toks, i + 3, '(') {
                            push(
                                t.line,
                                "D3",
                                Severity::Error,
                                format!("iteration `{id}.{m}()` over a HashMap/HashSet binding"),
                                HINT_D3,
                            );
                        }
                    }
                }
                if scope.d3 && id == "in" {
                    if let Some((name, line)) = for_loop_hash_target(toks, i, &hash_names) {
                        push(
                            line,
                            "D3",
                            Severity::Error,
                            format!("`for … in` over HashMap/HashSet binding `{name}`"),
                            HINT_D3,
                        );
                    }
                }

                // D4: panics in the control plane.
                if scope.d4 {
                    if (id == "unwrap" || id == "expect")
                        && tok_is(toks, i.wrapping_sub(1), '.')
                        && i >= 1
                        && tok_is(toks, i + 1, '(')
                    {
                        push(
                            t.line,
                            "D4",
                            Severity::Error,
                            format!("`.{id}()` in control-plane code"),
                            HINT_D4,
                        );
                    }
                    if (id == "panic" || id == "todo") && tok_is(toks, i + 1, '!') {
                        push(
                            t.line,
                            "D4",
                            Severity::Error,
                            format!("`{id}!` in control-plane code"),
                            HINT_D4,
                        );
                    }
                }

                // D5: registry handle acquisition outside a startup path.
                if scope.d5
                    && REGISTRY_METHODS.contains(&id.as_str())
                    && i >= 1
                    && tok_is(toks, i - 1, '.')
                    && tok_is(toks, i + 1, '(')
                {
                    let in_startup = fn_stack
                        .last()
                        .map(|(f, _)| is_startup_fn(f))
                        .unwrap_or(false);
                    if !in_startup {
                        let fname = fn_stack
                            .last()
                            .map(|(f, _)| f.as_str())
                            .unwrap_or("<top level>");
                        push(
                            t.line,
                            "D5",
                            Severity::Warning,
                            format!(
                                "metrics handle `.{id}(..)` acquired in `{fname}`, not a \
                                 startup path"
                            ),
                            HINT_D5,
                        );
                    }
                }
            }
            _ => {}
        }
    }

    raw
}

/// True when `name` is a recognised construction/registration function in
/// which registry-handle acquisition is sanctioned.
fn is_startup_fn(name: &str) -> bool {
    name == "new"
        || name.starts_with("new_")
        || name.starts_with("with_")
        || name.contains("register")
        || name == "attach_metrics"
        || name == "default"
}

fn tok_is(toks: &[SpannedTok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is(c))
}

fn ident_at(toks: &[SpannedTok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

/// Matches `for … in [&][mut] [recv.]*NAME {` where NAME is a known hash
/// binding (`recv` covers `self.`, `s.state.` etc.); returns the binding
/// name and line.
fn for_loop_hash_target(
    toks: &[SpannedTok],
    in_idx: usize,
    names: &BTreeSet<String>,
) -> Option<(String, u32)> {
    let mut j = in_idx + 1;
    while tok_is(toks, j, '&') || ident_at(toks, j) == Some("mut") {
        j += 1;
    }
    while ident_at(toks, j).is_some() && tok_is(toks, j + 1, '.') {
        j += 2;
    }
    let name = ident_at(toks, j)?;
    if names.contains(name) && tok_is(toks, j + 1, '{') {
        return Some((name.to_string(), toks[j].line));
    }
    None
}

/// Removes `#[test]` / `#[cfg(test)]` items (attribute + body) from the
/// token stream. `#[cfg(not(test))]` is kept.
pub(crate) fn strip_tests(toks: &[SpannedTok]) -> Vec<SpannedTok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    let n = toks.len();
    while i < n {
        if toks[i].tok.is('#') && tok_is(toks, i + 1, '[') {
            // Scan the balanced attribute, noting `test` / `not` idents.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut has_test = false;
            let mut has_not = false;
            while j < n && depth > 0 {
                match &toks[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => depth -= 1,
                    Tok::Ident(s) if s == "test" => has_test = true,
                    Tok::Ident(s) if s == "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                i = skip_item_after_attr(toks, j);
                continue;
            }
            out.extend_from_slice(&toks[i..j]);
            i = j;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// After a test attribute ends at `j`, skips the annotated item: through
/// a `;` (bodyless item) or the item's balanced `{ … }` body.
fn skip_item_after_attr(toks: &[SpannedTok], mut j: usize) -> usize {
    let n = toks.len();
    let mut bracket_depth = 0i32;
    while j < n {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => bracket_depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => bracket_depth -= 1,
            Tok::Punct(';') if bracket_depth == 0 => return j + 1,
            Tok::Punct('{') if bracket_depth == 0 => {
                let mut bd = 1u32;
                j += 1;
                while j < n && bd > 0 {
                    match &toks[j].tok {
                        Tok::Punct('{') => bd += 1,
                        Tok::Punct('}') => bd -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Applies `// nezha-lint: allow(..)` directives: a directive on line L
/// suppresses matching violations on lines L and L+1. An allow without a
/// justification downgrades nothing — it is itself reported as an error.
///
/// Every directive that matched a violation (justified or not) is
/// recorded in `used` as `(directive line, index on that line)`;
/// directives absent from `used` after the run are stale
/// (`--stale-allows`).
pub(crate) fn apply_allows_tracked(
    raw: Vec<Violation>,
    allows: &std::collections::BTreeMap<u32, Vec<AllowDirective>>,
    used: &mut BTreeSet<(u32, usize)>,
) -> Vec<Violation> {
    let mut out = Vec::with_capacity(raw.len());
    for mut v in raw {
        let mut directive: Option<&AllowDirective> = None;
        for line in [v.line.saturating_sub(1), v.line] {
            if let Some(ds) = allows.get(&line) {
                if let Some((idx, d)) = ds
                    .iter()
                    .enumerate()
                    .find(|(_, d)| d.rules.iter().any(|r| r == v.rule))
                {
                    directive = Some(d);
                    used.insert((line, idx));
                }
            }
        }
        match directive {
            Some(d) if d.justified => {} // suppressed
            Some(_) => {
                v.severity = Severity::Error;
                v.message = format!(
                    "allow({}) directive is missing a justification (use \
                     `// nezha-lint: allow({}): <reason>`); underlying: {}",
                    v.rule, v.rule, v.message
                );
                out.push(v);
            }
            None => out.push(v),
        }
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_found(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(path, src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn d1_flags_wall_clock_in_sim_visible_only() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_found("crates/core/src/x.rs", src), vec![("D1", 1)]);
        assert!(rules_found("crates/lint/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_flags_hash_iteration_but_not_btree() {
        let src = "struct S { m: HashMap<u32, u32>, b: BTreeMap<u32, u32> }\n\
                   fn f(s: &S) {\n\
                       for x in &s.b { use_it(x); }\n\
                       let _: Vec<_> = s.m.keys().collect();\n\
                   }\n";
        // NB: `s.m.keys()` — the binding scanned is `m`.
        assert_eq!(rules_found("crates/core/src/x.rs", src), vec![("D3", 4)]);
    }

    #[test]
    fn d3_flags_for_loop_over_map() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   impl S { fn f(&self) { for (k, v) in &self.m { touch(k, v); } } }\n";
        assert_eq!(rules_found("crates/core/src/x.rs", src), vec![("D3", 2)]);
    }

    #[test]
    fn d4_flags_control_plane_panics_only_in_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_found("crates/core/src/cluster.rs", src),
            vec![("D4", 1)]
        );
        assert!(rules_found("crates/core/src/be.rs", src).is_empty());
    }

    #[test]
    fn d5_allows_startup_paths() {
        let ok = "impl T { fn register(&mut self, reg: &mut R) { self.h = reg.counter(NAME); } }\n";
        let bad = "impl T { fn tick(&mut self, reg: &mut R) { reg.counter(NAME).inc(); } }\n";
        assert!(rules_found("crates/core/src/x.rs", ok).is_empty());
        assert_eq!(rules_found("crates/core/src/x.rs", bad), vec![("D5", 1)]);
    }

    #[test]
    fn d4_covers_datapath_and_split_out_control_plane_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        for path in [
            "crates/core/src/datapath/dispatch.rs",
            "crates/core/src/config.rs",
            "crates/core/src/telemetry.rs",
            "crates/core/src/driver.rs",
        ] {
            assert_eq!(rules_found(path, src), vec![("D4", 1)], "{path}");
        }
        // Same-named files in other crates keep their old (exempt) scope.
        assert!(rules_found("crates/vswitch/src/config.rs", src).is_empty());
    }

    #[test]
    fn test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\n";
        assert!(rules_found("crates/core/src/x.rs", src).is_empty());
        let src2 = "#[test]\nfn t() { x.unwrap(); }\n";
        assert!(rules_found("crates/core/src/cluster.rs", src2).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        let src = "#[cfg(not(test))]\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_found("crates/core/src/x.rs", src), vec![("D1", 2)]);
    }

    #[test]
    fn fault_module_is_sim_visible_for_determinism_rules() {
        // The chaos engine lives in the sim crate, so a wall-clock read
        // inside it would silently break seed-for-seed fault replay — D1
        // must cover it with no allow-list entry.
        let clock = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_found("crates/sim/src/fault.rs", clock),
            vec![("D1", 1)]
        );
    }

    #[test]
    fn justified_allow_suppresses_unjustified_is_error() {
        let good = "fn f() { // nezha-lint: allow(D1): replay tooling needs real time\n\
                    let t = Instant::now(); }\n";
        assert!(rules_found("crates/core/src/x.rs", good).is_empty());
        let bad = "fn f() { // nezha-lint: allow(D1)\nlet t = Instant::now(); }\n";
        let vs = check_file("crates/core/src/x.rs", bad);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("missing a justification"));
    }
}
