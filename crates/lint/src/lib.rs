//! `nezha-lint` — a workspace determinism & panic-safety static-analysis
//! pass for the Nezha reproduction.
//!
//! Every paper figure depends on the simulator being bit-deterministic
//! under a fixed seed. These rules make that a statically enforced
//! invariant instead of a convention:
//!
//! | rule | severity | what it forbids |
//! |------|----------|-----------------|
//! | D1   | error    | `Instant::now` / `SystemTime::now` in sim-visible crates |
//! | D3   | error    | iteration over `HashMap`/`HashSet` bindings in sim-visible crates |
//! | D4   | error    | `unwrap`/`expect`/`panic!`/`todo!` in control-plane modules |
//! | D5   | warning  | `MetricsRegistry` handle acquisition outside a startup path |
//! | D8   | error    | panic site transitively reachable from a control-plane entry point |
//! | D9   | error    | `SimRng` seeded outside `derive_seed`, or a stream name reused across modules |
//! | D10  | error    | heap allocation on a hot path (ladder drain, DenseMap probe, NSH codec, datapath handlers) |
//! | D11  | error    | `static mut` / statics / `thread_local!` / `Rc` / `RefCell` in shard-candidate code |
//!
//! Escape hatch: `// nezha-lint: allow(D3): <justification>` on the
//! violating line or the line above. The justification is mandatory —
//! a bare `allow` is itself an error, and an allow whose finding has
//! disappeared is reported by `--stale-allows`.
//!
//! The workspace builds fully offline, so there is no `syn`: the analyzer
//! is a hand-rolled lexer feeding two passes. Pass 1 (`symbols`,
//! `callgraph`) builds a workspace-wide symbol index and a conservative
//! intra-crate call graph from the token streams; pass 2 runs the
//! D1/D3–D5 token-pattern rules (`rules`) and the D8–D11
//! call-graph/dataflow rules (`graph_rules`). See DESIGN.md §9c for the
//! architecture and the false-negative envelope.

pub mod callgraph;
pub mod graph_rules;
pub mod lexer;
pub mod rules;
pub mod symbols;

pub use rules::{check_file, Severity, Violation, ALL_RULES};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into during a workspace scan.
/// `fixtures` holds intentionally-violating linter test inputs.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "node_modules"];

/// Top-level directories scanned in `--workspace` mode.
const WORKSPACE_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Collects every lintable `.rs` file under the workspace root, in
/// deterministic (sorted) order.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in WORKSPACE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
pub fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The result of a two-pass [`analyze`] run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Rule violations in the target files, after allow processing.
    pub violations: Vec<Violation>,
    /// Allow directives in the target files that suppressed nothing
    /// (`stale-allow` warnings; reported under `--stale-allows`).
    pub stale_allows: Vec<Violation>,
}

/// Two-pass analysis: pass 1 builds the workspace-wide symbol index and
/// call graph over *every* workspace file plus the targets (so D8–D11
/// can resolve cross-file calls); pass 2 runs the D1/D3–D5 token rules and
/// D8–D11 graph rules, reporting only violations in `targets`.
pub fn analyze(root: &Path, targets: &[PathBuf]) -> io::Result<Analysis> {
    // Index set = workspace ∪ targets, deduped by workspace-relative path.
    let mut index: Vec<PathBuf> = collect_workspace_files(root).unwrap_or_default();
    index.extend(targets.iter().cloned());
    let mut seen_rel: BTreeSet<String> = BTreeSet::new();
    let target_rels: BTreeSet<String> = targets.iter().map(|p| rel_path(root, p)).collect();

    // Per-file lexed state, in deterministic order.
    let mut rels: Vec<String> = Vec::new();
    let mut allows: Vec<BTreeMap<u32, Vec<lexer::AllowDirective>>> = Vec::new();
    let mut stripped: Vec<(String, Vec<lexer::SpannedTok>)> = Vec::new();
    index.sort();
    for f in &index {
        let rel = rel_path(root, f);
        if !seen_rel.insert(rel.clone()) {
            continue;
        }
        let src = std::fs::read_to_string(f)?;
        let lexed = lexer::lex(&src);
        allows.push(lexed.allows);
        stripped.push((rel.clone(), rules::strip_tests(&lexed.toks)));
        rels.push(rel);
    }

    // Pass 1: symbol index + call graph over everything.
    let ws = symbols::Workspace::build(&stripped);
    let graph = callgraph::build(&ws);

    // Pass 2: graph rules (workspace-wide), grouped by file.
    let mut graph_by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in graph_rules::check_workspace(&ws, &graph) {
        graph_by_file.entry(v.file.clone()).or_default().push(v);
    }

    // Token rules + allow processing per target file.
    let mut out = Analysis::default();
    for (i, rel) in rels.iter().enumerate() {
        if !target_rels.contains(rel) {
            continue;
        }
        let mut raw = rules::token_rules(rel, &stripped[i].1);
        raw.extend(graph_by_file.remove(rel).unwrap_or_default());
        let mut used: BTreeSet<(u32, usize)> = BTreeSet::new();
        out.violations
            .extend(rules::apply_allows_tracked(raw, &allows[i], &mut used));
        for (line, ds) in &allows[i] {
            for (idx, d) in ds.iter().enumerate() {
                if used.contains(&(*line, idx)) {
                    continue;
                }
                out.stale_allows.push(Violation {
                    file: rel.clone(),
                    line: *line,
                    rule: "stale-allow",
                    severity: Severity::Warning,
                    message: format!(
                        "stale `allow({})` — no matching violation on this or the next line",
                        d.rules.join(", ")
                    ),
                    hint: "the suppressed finding is gone; delete the allow comment",
                });
            }
        }
    }
    let key = |v: &Violation| (v.file.clone(), v.line, v.rule);
    out.violations.sort_by_key(key);
    out.stale_allows.sort_by_key(key);
    Ok(out)
}

/// Lints the given files, reporting paths relative to `root`.
pub fn scan_files(root: &Path, files: &[PathBuf]) -> io::Result<Vec<Violation>> {
    Ok(analyze(root, files)?.violations)
}

/// Workspace-relative path with forward slashes (falls back to the full
/// path when `file` is not under `root`).
pub fn rel_path(root: &Path, file: &Path) -> String {
    let p = file.strip_prefix(root).unwrap_or(file);
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Human-readable diagnostics, one block per violation.
pub fn render_human(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        s.push_str(&format!(
            "{}: [{}] {}:{}: {}\n    fix: {}\n",
            v.severity, v.rule, v.file, v.line, v.message, v.hint
        ));
    }
    s
}

/// Machine-readable JSON: `{"violations": [...], "errors": N, "warnings": N}`.
/// Hand-rolled — the lint crate deliberately has zero dependencies.
pub fn render_json(violations: &[Violation]) -> String {
    let mut items = Vec::with_capacity(violations.len());
    for v in violations {
        items.push(format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"severity\":\"{}\",\
             \"message\":\"{}\",\"hint\":\"{}\"}}",
            json_escape(&v.file),
            v.line,
            v.rule,
            v.severity,
            json_escape(&v.message),
            json_escape(v.hint)
        ));
    }
    let errors = violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .count();
    let warnings = violations.len() - errors;
    format!(
        "{{\"violations\":[{}],\"errors\":{},\"warnings\":{}}}\n",
        items.join(","),
        errors,
        warnings
    )
}

/// GitHub Actions workflow-command annotations: one `::error`/`::warning`
/// line per violation, surfaced inline on the PR diff by the runner.
pub fn render_github(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        let level = match v.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        s.push_str(&format!(
            "::{level} file={},line={},title=nezha-lint {}::{} (fix: {})\n",
            v.file,
            v.line,
            v.rule,
            gh_escape(&v.message),
            gh_escape(v.hint)
        ));
    }
    s
}

/// Workflow-command data escaping per the Actions toolkit: `%`, CR and LF
/// must be percent-encoded or the runner truncates the message.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rel_path_normalises() {
        let root = Path::new("/w");
        assert_eq!(
            rel_path(root, Path::new("/w/crates/core/src/a.rs")),
            "crates/core/src/a.rs"
        );
    }
}
