//! Fixture tests: every rule fires on its deliberate violation, the
//! clean fixture is accepted, and the real workspace is lint-clean.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use h2p_lint::{find_workspace_root, lint_fixture_dir, lint_workspace, RuleId};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Rules firing on one fixture file, by file-name substring.
fn rules_for(file_hint: &str) -> Vec<RuleId> {
    let diags = lint_fixture_dir(&fixtures_dir().join("violations")).unwrap();
    diags
        .iter()
        .filter(|d| d.file.to_string_lossy().contains(file_hint))
        .map(|d| d.rule)
        .collect()
}

#[test]
fn l1_fires_on_raw_quantity_fixture() {
    let rules = rules_for("l1_raw_quantity");
    assert_eq!(rules, vec![RuleId::L1, RuleId::L1], "{rules:?}");
}

#[test]
fn l2_fires_on_panic_fixture() {
    let rules = rules_for("l2_panics");
    assert_eq!(rules, vec![RuleId::L2; 3], "{rules:?}");
}

#[test]
fn l3_fires_on_cast_fixture() {
    let rules = rules_for("l3_casts");
    assert_eq!(rules, vec![RuleId::L3, RuleId::L3], "{rules:?}");
}

#[test]
fn l4_fires_on_missing_forbid_fixture() {
    let rules = rules_for("l4_missing_forbid");
    assert_eq!(rules, vec![RuleId::L4], "{rules:?}");
}

#[test]
fn l5_fires_on_float_eq_fixture() {
    let rules = rules_for("l5_float_eq");
    assert_eq!(rules, vec![RuleId::L5, RuleId::L5], "{rules:?}");
}

#[test]
fn l6_fires_on_wall_clock_fixture() {
    let rules = rules_for("l6_instant");
    assert_eq!(rules, vec![RuleId::L6, RuleId::L6], "{rules:?}");
}

#[test]
fn l7_fires_on_unbounded_queue_fixture_and_respects_the_waiver() {
    // Two unbounded constructions plus the spawn-per-connection
    // accept loop; the waived `with_capacity` and the scoped worker
    // pool stay clean.
    let rules = rules_for("l7_unbounded_queue");
    assert_eq!(rules, vec![RuleId::L7; 3], "{rules:?}");
}

#[test]
fn l8_fires_on_hash_iteration_fixture_and_respects_the_waiver() {
    // Three classic folds plus a forced-event queue held in a
    // HashMap.
    let rules = rules_for("l8_hash_iteration");
    assert_eq!(rules, vec![RuleId::L8; 4], "{rules:?}");
}

#[test]
fn l9_fires_on_ambient_nondeterminism_fixture_and_respects_the_waiver() {
    let rules = rules_for("l9_ambient_nondeterminism");
    assert_eq!(rules, vec![RuleId::L9; 4], "{rules:?}");
}

#[test]
fn l10_fires_on_unordered_locks_fixture() {
    let diags = lint_fixture_dir(&fixtures_dir().join("violations")).unwrap();
    let l10: Vec<_> = diags
        .iter()
        .filter(|d| d.file.to_string_lossy().contains("l10_unordered_locks"))
        .collect();
    assert_eq!(l10.len(), 2, "{l10:?}");
    assert!(l10[0].message.contains("manifest order"), "{l10:?}");
    assert!(
        l10[1]
            .message
            .contains("not in the crate's lock-order manifest"),
        "{l10:?}"
    );
}

#[test]
fn l11_fires_on_partial_cmp_scores_fixture() {
    let rules = rules_for("l11_partial_cmp_scores");
    assert_eq!(rules, vec![RuleId::L11, RuleId::L11], "{rules:?}");
}

#[test]
fn diagnostics_carry_file_line_and_column() {
    let diags = lint_fixture_dir(&fixtures_dir().join("violations")).unwrap();
    for d in &diags {
        assert!(d.line >= 1, "{d}");
        assert!(d.col >= 1, "{d}");
        let text = d.to_string();
        assert!(text.contains(&format!("{}:", d.file.display())), "{text}");
        assert!(text.contains(&format!(":{}:{}:", d.line, d.col)), "{text}");
    }
}

#[test]
fn clean_fixture_is_accepted() {
    let diags = lint_fixture_dir(&fixtures_dir().join("clean")).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let diags = lint_workspace(&root).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_h2p-lint");
    let bad = Command::new(bin)
        .args(["--fixtures"])
        .arg(fixtures_dir().join("violations"))
        .output()
        .expect("run h2p-lint on violations");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");

    let good = Command::new(bin)
        .args(["--fixtures"])
        .arg(fixtures_dir().join("clean"))
        .output()
        .expect("run h2p-lint on clean fixtures");
    assert_eq!(good.status.code(), Some(0), "{good:?}");
}

#[test]
fn json_mode_emits_one_parseable_object_per_finding_and_exits_nonzero() {
    let bin = env!("CARGO_BIN_EXE_h2p-lint");
    let out = Command::new(bin)
        .args(["--json", "--fixtures"])
        .arg(fixtures_dir().join("violations"))
        .output()
        .expect("run h2p-lint --json on violations");
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let expected = lint_fixture_dir(&fixtures_dir().join("violations")).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (line, diag) in lines.iter().zip(&expected) {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(
            line.contains(&format!("\"rule\":\"{}\"", diag.rule)),
            "{line}"
        );
        assert!(line.contains("\"file\":\""), "{line}");
        assert!(
            line.contains(&format!("\"line\":{},\"col\":{},", diag.line, diag.col)),
            "{line}"
        );
        assert!(line.contains("\"message\":\""), "{line}");
        // The free text is the only field that can carry quotes or
        // backslashes; everything up to it must parse as-is.
        assert!(!line.contains("\n"), "{line}");
    }

    // JSON mode on a clean tree: silent success.
    let good = Command::new(bin)
        .args(["--json", "--fixtures"])
        .arg(fixtures_dir().join("clean"))
        .output()
        .expect("run h2p-lint --json on clean fixtures");
    assert_eq!(good.status.code(), Some(0), "{good:?}");
    assert!(good.stdout.is_empty(), "{good:?}");
}
