//! Fixture-corpus tests: the linter's behavior pinned file by file.
//!
//! * `violations.rs` — every rule fires; the full JSON report is compared
//!   byte-for-byte against the golden `expected_violations.json` (so a
//!   rule that drifts — new line numbers, reworded message, lost finding —
//!   fails loudly with a diffable artifact).
//! * `clean.rs` — tricky negatives; zero findings.
//! * `pragmas.rs` — suppressions hold, and the meta rules flag the one
//!   malformed and the one stale pragma.

use std::fs;
use std::path::PathBuf;

use mmb_analyze::{analyze_source, FileClass, Report, RULE_NAMES};

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    (format!("crates/analyze/fixtures/{name}"), src)
}

fn scan(name: &str) -> Report {
    let (path, src) = fixture(name);
    analyze_source(&path, &src, FileClass::Lib)
}

#[test]
fn violations_match_golden_json() {
    let report = scan("violations.rs");
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/expected_violations.json");
    let golden = fs::read_to_string(&golden_path).expect("golden file present");
    assert_eq!(
        report.to_json(),
        golden,
        "violations.rs findings drifted from the golden file; if the change \
         is intentional, regenerate fixtures/expected_violations.json from \
         Report::to_json()"
    );
}

#[test]
fn every_rule_fires_on_the_seeded_fixtures() {
    let mut fired: Vec<&str> = Vec::new();
    for name in ["violations.rs", "pragmas.rs"] {
        for f in scan(name).findings {
            if !fired.contains(&f.rule) {
                fired.push(f.rule);
            }
        }
    }
    for rule in RULE_NAMES {
        assert!(
            fired.contains(rule),
            "rule `{rule}` never fired on the fixture corpus"
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    let report = scan("clean.rs");
    assert!(
        report.is_clean(),
        "false positives on clean.rs:\n{}",
        report.render_table()
    );
}

#[test]
fn pragmas_suppress_and_meta_rules_fire() {
    let report = scan("pragmas.rs");
    // The three real violations are pragma'd away…
    assert_eq!(
        report.suppressed, 4,
        "hash-order + float-eq ×2 + nondeterminism suppressed"
    );
    // …leaving exactly the two meta findings.
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        ["bad-pragma", "unused-pragma"],
        "{}",
        report.render_table()
    );
    let bad = &report.findings[0];
    assert!(
        bad.message.contains("reason"),
        "bad-pragma names the defect: {}",
        bad.message
    );
}

#[test]
fn test_regions_relax_panics_but_not_comparators() {
    let report = scan("violations.rs");
    // The #[cfg(test)] mod at the bottom unwraps and float-compares
    // freely — but its partial_cmp comparator is still caught.
    let in_test_mod: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.line >= 74)
        .map(|f| f.rule)
        .collect();
    assert_eq!(in_test_mod, ["nan-unsafe-cmp"], "{}", report.render_table());
}
