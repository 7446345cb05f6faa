//! End-to-end tests for the `nezha-lint` binary: exact rule ids, line
//! numbers, and exit codes on the fixture files.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the binary on the given args; returns (exit code, stdout).
fn lint(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nezha-lint"))
        .args(args)
        .output()
        .expect("spawn nezha-lint");
    let code = out.status.code().expect("exit code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

fn lint_fixture(name: &str, extra: &[&str]) -> (i32, String) {
    let path = fixture(name);
    let mut args: Vec<&str> = extra.to_vec();
    let p = path.to_str().expect("utf8 path").to_string();
    let leaked: &str = Box::leak(p.into_boxed_str());
    args.push(leaked);
    lint(&args)
}

#[test]
fn d1_violation_reports_both_sites_with_lines() {
    let (code, out) = lint_fixture("d1_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D1]"), "output: {out}");
    assert!(out.contains("d1_violation.rs:5"), "output: {out}");
    assert!(out.contains("d1_violation.rs:6"), "output: {out}");
    assert!(out.contains("2 error(s)"), "output: {out}");
}

#[test]
fn d3_violation_reports_methods_and_for_loop() {
    let (code, out) = lint_fixture("d3_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D3]"), "output: {out}");
    assert!(out.contains("d3_violation.rs:10"), "output: {out}");
    assert!(out.contains("d3_violation.rs:11"), "output: {out}");
    assert!(out.contains("d3_violation.rs:14"), "output: {out}");
    assert!(out.contains("3 error(s)"), "output: {out}");
}

#[test]
fn d4_violation_reports_all_four_panics() {
    let (code, out) = lint_fixture("d4_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    for line in [5, 8, 10, 13] {
        assert!(
            out.contains(&format!("d4_violation.rs:{line}")),
            "output: {out}"
        );
    }
    assert!(out.contains("4 error(s)"), "output: {out}");
}

#[test]
fn d5_violation_is_a_warning_unless_denied() {
    let (code, out) = lint_fixture("d5_violation.rs", &[]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("[D5]"), "output: {out}");
    assert!(out.contains("d5_violation.rs:6"), "output: {out}");
    assert!(out.contains("1 warning(s)"), "output: {out}");

    let (code, _) = lint_fixture("d5_violation.rs", &["--deny-warnings"]);
    assert_eq!(code, 1);
}

#[test]
fn d8_violation_reports_panic_reachable_from_entry() {
    // The fixture is a directory: entry.rs holds the control-plane entry,
    // util.rs the panic site one call away.
    let (code, out) = lint_fixture("d8_violation", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D8]"), "output: {out}");
    assert!(out.contains("util.rs:4"), "output: {out}");
    assert!(
        out.contains("reachable from control-plane entry `route_update`"),
        "output: {out}"
    );
    assert!(
        out.contains("route_update -> lookup_or_die"),
        "output: {out}"
    );
    // The textual D4 rule also fires on the same unwrap (fixture scope).
    assert!(out.contains("[D4]"), "output: {out}");
    assert!(out.contains("2 error(s)"), "output: {out}");
}

#[test]
fn d9_violation_reports_adhoc_seed() {
    let (code, out) = lint_fixture("d9_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D9]"), "output: {out}");
    assert!(out.contains("d9_violation.rs:4"), "output: {out}");
    assert!(out.contains("ad-hoc seed"), "output: {out}");
    assert!(out.contains("1 error(s)"), "output: {out}");
}

#[test]
fn d9_stream_reuse_across_files_is_flagged_in_the_second_file() {
    let (code, out) = lint_fixture("d9_reuse", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D9]"), "output: {out}");
    assert!(out.contains("b.rs:4"), "output: {out}");
    assert!(out.contains("also derived in"), "output: {out}");
    assert!(out.contains("1 error(s)"), "output: {out}");
}

#[test]
fn d10_violation_reports_direct_and_transitive_allocations() {
    let (code, out) = lint_fixture("d10_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D10]"), "output: {out}");
    assert!(out.contains("d10_violation.rs:4"), "output: {out}");
    assert!(out.contains("d10_violation.rs:9"), "output: {out}");
    assert!(
        out.contains("reachable from hot-path fn `hot_drain`"),
        "output: {out}"
    );
    assert!(out.contains("2 error(s)"), "output: {out}");
}

#[test]
fn d10_obs_violation_flags_allocating_histogram_record_path() {
    let (code, out) = lint_fixture("d10_obs_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D10]"), "output: {out}");
    assert!(out.contains("d10_obs_violation.rs:6"), "output: {out}");
    assert!(out.contains("d10_obs_violation.rs:12"), "output: {out}");
    assert!(
        out.contains("reachable from hot-path fn `hot_record`"),
        "output: {out}"
    );
    assert!(out.contains("2 error(s)"), "output: {out}");
}

#[test]
fn d11_violation_reports_static_mut_and_refcell() {
    let (code, out) = lint_fixture("d11_violation.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D11]"), "output: {out}");
    assert!(out.contains("d11_violation.rs:3"), "output: {out}");
    assert!(out.contains("d11_violation.rs:6"), "output: {out}");
    assert!(out.contains("2 error(s)"), "output: {out}");
}

#[test]
fn d8_clean_tree_passes() {
    let (code, out) = lint_fixture("d8_clean", &["--deny-warnings"]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("no violations"), "output: {out}");
}

#[test]
fn stale_allow_is_silent_by_default_and_a_warning_when_asked() {
    let (code, out) = lint_fixture("stale_allow.rs", &[]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("no violations"), "output: {out}");

    let (code, out) = lint_fixture("stale_allow.rs", &["--stale-allows"]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("[stale-allow]"), "output: {out}");
    assert!(out.contains("stale_allow.rs:4"), "output: {out}");
    assert!(out.contains("1 warning(s)"), "output: {out}");

    let (code, _) = lint_fixture("stale_allow.rs", &["--stale-allows", "--deny-warnings"]);
    assert_eq!(code, 1);
}

#[test]
fn github_output_emits_workflow_commands() {
    let (code, out) = lint_fixture("d1_violation.rs", &["--github"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.starts_with("::error file="), "output: {out}");
    assert!(out.contains(",line=5,"), "output: {out}");
    assert!(out.contains("title=nezha-lint D1"), "output: {out}");
}

#[test]
fn clean_fixtures_pass() {
    for f in [
        "d1_clean.rs",
        "d3_clean.rs",
        "d4_clean.rs",
        "d5_clean.rs",
        "d9_clean.rs",
        "d10_clean.rs",
        "d10_obs_clean.rs",
        "d11_clean.rs",
        "test_code_clean.rs",
        "allow_justified.rs",
    ] {
        let (code, out) = lint_fixture(f, &["--deny-warnings"]);
        assert_eq!(code, 0, "{f} should be clean; output: {out}");
        assert!(out.contains("no violations"), "{f} output: {out}");
    }
}

#[test]
fn unjustified_allow_is_an_error() {
    let (code, out) = lint_fixture("allow_unjustified.rs", &[]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[D4]"), "output: {out}");
    assert!(out.contains("allow_unjustified.rs:6"), "output: {out}");
    assert!(out.contains("missing a justification"), "output: {out}");
}

#[test]
fn json_output_is_machine_readable() {
    let (code, out) = lint_fixture("d1_violation.rs", &["--json"]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.starts_with("{\"violations\":["), "output: {out}");
    assert!(out.contains("\"rule\":\"D1\""), "output: {out}");
    assert!(out.contains("\"line\":5"), "output: {out}");
    assert!(out.contains("\"severity\":\"error\""), "output: {out}");
    assert!(out.contains("\"errors\":2"), "output: {out}");
}

#[test]
fn usage_errors_exit_2() {
    let (code, _) = lint(&[]);
    assert_eq!(code, 2);
    let (code, _) = lint(&["--no-such-flag"]);
    assert_eq!(code, 2);
    let (code, _) = lint(&["/definitely/not/a/file.rs"]);
    assert_eq!(code, 2);
}

#[test]
fn workspace_scan_is_clean() {
    let (code, out) = lint(&["--workspace", "--stale-allows", "--deny-warnings"]);
    assert_eq!(code, 0, "workspace must stay lint-clean; output: {out}");
}
