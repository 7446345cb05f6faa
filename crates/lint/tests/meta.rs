//! Meta-test: the rule catalogue, the fixture tree, and the CLI test
//! suite must stay in lock-step. Every surviving rule needs a violation
//! fixture (a file or a directory tree), a clean fixture, and a CLI test
//! that asserts its id — otherwise a rule can silently rot.

use nezha_lint::ALL_RULES;
use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Ids are never renumbered: D2 (no entropy source exists in the
/// vendored `rand`), D6 (stages are a closed enum) and D7 (one
/// `Telemetry` type owns the plumbing) were retired, not reused.
#[test]
fn the_catalogue_is_exactly_the_surviving_ids() {
    let ids: Vec<&str> = ALL_RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids, ["D1", "D3", "D4", "D5", "D8", "D9", "D10", "D11"]);
}

#[test]
fn every_rule_has_a_violation_and_a_clean_fixture() {
    for r in &ALL_RULES {
        let id = r.id.to_ascii_lowercase();
        for kind in ["violation", "clean"] {
            let file = fixtures().join(format!("{id}_{kind}.rs"));
            let tree = fixtures().join(format!("{id}_{kind}"));
            assert!(
                file.is_file() || tree.is_dir(),
                "rule {} has no {kind} fixture ({id}_{kind}.rs or {id}_{kind}/)",
                r.id
            );
        }
    }
}

#[test]
fn every_rule_is_asserted_by_a_cli_test() {
    let cli =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/cli.rs"))
            .expect("read tests/cli.rs");
    for r in &ALL_RULES {
        assert!(
            cli.contains(&format!("[{}]", r.id)),
            "tests/cli.rs never asserts rule {} output",
            r.id
        );
    }
}
