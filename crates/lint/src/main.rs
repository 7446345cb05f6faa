//! CLI for `nezha-lint`.
//!
//! ```text
//! cargo run -p nezha-lint -- --workspace [--json] [--deny-warnings]
//! cargo run -p nezha-lint -- [--root DIR] PATH...
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use nezha_lint::{
    analyze, collect_workspace_files, render_github, render_human, render_json, walk, Severity,
};

const USAGE: &str = "\
nezha-lint: workspace determinism & panic-safety checks (rules D1, D3-D5, D8-D11)

Two-pass analyzer: pass 1 indexes symbols and builds a conservative
intra-crate call graph across the whole workspace; pass 2 runs the
token-pattern rules (D1, D3-D5) and the
call-graph/dataflow rules (D8 panic reachability, D9 RNG-stream
lineage, D10 hot-path allocation, D11 shard safety).

USAGE:
    nezha-lint --workspace [OPTIONS]
    nezha-lint [OPTIONS] PATH...

OPTIONS:
    --workspace        lint every .rs file in the workspace (src/, crates/,
                       tests/, examples/; vendor/, target/ and fixtures skipped)
    --json             machine-readable JSON on stdout
    --github           GitHub Actions ::error/::warning annotations on stdout
    --deny-warnings    treat warnings (D5/stale allows) as failures
    --stale-allows     also report allow() directives that suppress nothing
    --root DIR         workspace root for relative paths / --workspace
                       (default: the repo containing this crate)
    -h, --help         this text

Suppress a finding with a justified allow comment on the line or the line
above:  // nezha-lint: allow(D3): keys are collected and sorted below
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nezha-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> std::io::Result<ExitCode> {
    let mut workspace = false;
    let mut json = false;
    let mut github = false;
    let mut deny_warnings = false;
    let mut stale_allows = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--github" => github = true,
            "--deny-warnings" => deny_warnings = true,
            "--stale-allows" => stale_allows = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => {
                    eprintln!("nezha-lint: --root requires a directory argument");
                    return Ok(ExitCode::from(2));
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with('-') => {
                eprintln!("nezha-lint: unknown flag `{flag}`\n\n{USAGE}");
                return Ok(ExitCode::from(2));
            }
            p => paths.push(PathBuf::from(p)),
        }
    }

    if !workspace && paths.is_empty() {
        eprintln!("nezha-lint: nothing to lint (pass --workspace or file paths)\n\n{USAGE}");
        return Ok(ExitCode::from(2));
    }

    // The binary lives in <root>/crates/lint, so the default workspace
    // root is two levels up from the manifest.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let mut files: Vec<PathBuf> = Vec::new();
    if workspace {
        files.extend(collect_workspace_files(&root)?);
    }
    for p in &paths {
        if p.is_dir() {
            walk(p, &mut files)?;
        } else if p.is_file() {
            files.push(p.clone());
        } else {
            eprintln!("nezha-lint: no such file: {}", p.display());
            return Ok(ExitCode::from(2));
        }
    }
    files.sort();
    files.dedup();

    let analysis = analyze(&root, &files)?;
    let mut violations = analysis.violations;
    if stale_allows {
        violations.extend(analysis.stale_allows);
        violations.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
    }
    let errors = violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .count();
    let warnings = violations.len() - errors;

    if json {
        print!("{}", render_json(&violations));
    } else if github {
        print!("{}", render_github(&violations));
    } else {
        print!("{}", render_human(&violations));
        if violations.is_empty() {
            println!("nezha-lint: {} files checked, no violations", files.len());
        } else {
            println!(
                "nezha-lint: {} files checked: {errors} error(s), {warnings} warning(s)",
                files.len()
            );
        }
    }

    if errors > 0 || (deny_warnings && warnings > 0) {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
