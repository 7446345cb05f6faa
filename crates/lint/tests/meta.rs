//! Meta-test: the rule catalogue, the fixture tree, and the CLI test
//! suite must stay in lock-step. Every rule D1–D11 needs a violation
//! fixture (a file or a directory tree), a clean fixture, and a CLI test
//! that asserts its id — otherwise a rule can silently rot.

use nezha_lint::ALL_RULES;
use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn the_catalogue_covers_d1_through_d11_exactly_once() {
    let ids: Vec<&str> = ALL_RULES.iter().map(|r| r.id).collect();
    let expect: Vec<String> = (1..=11).map(|i| format!("D{i}")).collect();
    assert_eq!(ids, expect.iter().map(String::as_str).collect::<Vec<_>>());
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
