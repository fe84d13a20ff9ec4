//! End-to-end lint runs over the fixture corpus and the real workspace.
//!
//! The fixture trees under `fixtures/` mirror the workspace layout
//! (`crates/<name>/src/...`) so the rules' path-based scoping applies to
//! them exactly as it does to real code. They are data, not members of the
//! workspace: cargo never compiles them, and `scan_root` skips any
//! directory named `fixtures` when scanning the workspace itself.

use abd_lint::{scan_root, Finding};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn scan(name: &str) -> Vec<Finding> {
    scan_root(&fixture_root(name)).expect("fixture tree readable")
}

fn rules_in<'a>(findings: &'a [Finding], file_part: &str) -> Vec<&'a str> {
    findings
        .iter()
        .filter(|f| f.file.contains(file_part))
        .map(|f| f.rule)
        .collect()
}

#[test]
fn hash_collections_positive_and_negative() {
    let f = scan("violations");
    let hash: Vec<&Finding> = f.iter().filter(|f| f.rule == "hash-collections").collect();
    // Lines 3 (use), 6 (field), 9 and 10 (return type + constructor) —
    // but never the HashMaps inside #[cfg(test)].
    assert_eq!(hash.len(), 4, "{hash:?}");
    assert!(hash.iter().all(|f| f.file == "crates/core/src/hash.rs"));
    assert!(
        hash.iter().all(|f| f.line < 13),
        "test-module use leaked: {hash:?}"
    );
    assert_eq!(hash[0].line, 3);
}

#[test]
fn wall_clock_positive_includes_test_code() {
    let f = scan("violations");
    let wc: Vec<&Finding> = f.iter().filter(|f| f.rule == "wall-clock").collect();
    assert_eq!(wc.len(), 5, "{wc:?}"); // 2× Instant in code, 3× SystemTime in tests
    assert!(wc.iter().all(|f| f.file == "crates/simnet/src/clock.rs"));
    assert!(
        wc.iter().any(|f| f.line > 9),
        "test-module SystemTime must be flagged"
    );
}

#[test]
fn panic_in_handler_positive_and_negative() {
    let f = scan("violations");
    let ph: Vec<&Finding> = f.iter().filter(|f| f.rule == "panic-in-handler").collect();
    // unwrap, expect, panic! in on_message; unreachable!, unimplemented!,
    // todo! in on_timer; expect in the host's fire_due.
    assert_eq!(ph.len(), 7, "{ph:?}");
    assert!(ph.iter().all(|f| f.file == "crates/runtime/src/handler.rs"));
    let lines: Vec<usize> = ph.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![4, 5, 7, 14, 15, 16, 22],
        "only the three handler bodies may be flagged: {ph:?}"
    );
}

#[test]
fn wildcard_msg_match_positive_ignores_nested() {
    let f = scan("violations");
    let wm: Vec<&Finding> = f
        .iter()
        .filter(|f| f.rule == "wildcard-msg-match")
        .collect();
    assert!(wm.iter().all(|f| f.file == "crates/kv/src/wildcard.rs"));
    // `_ =>`, the `_` of `Msg::Relay { .. } | _` and `other =>` — never the
    // nested `_` on line 10, nor the guarded `Msg::Query { uid } if ..`.
    let lines: Vec<usize> = wm.iter().map(|f| f.line).collect();
    assert_eq!(lines, [14, 24, 33], "{wm:?}");
}

#[test]
fn raw_quorum_arith_positive_and_negative() {
    let f = scan("violations");
    let qa: Vec<&Finding> = f.iter().filter(|f| f.rule == "raw-quorum-arith").collect();
    assert_eq!(qa.len(), 2, "{qa:?}"); // `/ 2` and `div_ceil(2)`, not `/ 16` or `/ 20`
    assert!(qa
        .iter()
        .all(|f| f.file == "crates/core/src/quorum_arith.rs"));
    assert_eq!(qa[0].line, 4);
    assert_eq!(qa[1].line, 8);
}

#[test]
fn phase_graph_reports_both_diff_directions_and_missing_specs() {
    let f = scan("violations");
    let pg: Vec<&Finding> = f.iter().filter(|f| f.rule == "phase-graph").collect();
    let drop: Vec<&&Finding> = pg
        .iter()
        .filter(|f| f.file == "crates/core/src/phase_drop.rs")
        .collect();
    // One undeclared edge (Query -> Done) plus two promised-but-lost edges.
    assert_eq!(drop.len(), 3, "{drop:?}");
    assert!(drop.iter().any(|f| f.message.contains("`Query -> Done`")));
    assert!(drop
        .iter()
        .any(|f| f.message.contains("`Query -> WriteBack`")));
    // A REQUIRED_SPECS path with no declaration is flagged on line 1.
    let missing: Vec<&&Finding> = pg
        .iter()
        .filter(|f| f.file == "crates/core/src/register.rs")
        .collect();
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert_eq!(missing[0].line, 1);
    assert!(missing[0].message.contains("phase-spec(register)"));
}

#[test]
fn clean_fixture_has_no_findings() {
    let f = scan("clean");
    assert!(f.is_empty(), "clean fixture must pass every rule: {f:?}");
}

#[test]
fn justified_allows_suppress_everything() {
    let f = scan("allowed");
    let allowed = rules_in(&f, "allowed.rs");
    assert!(
        allowed.is_empty(),
        "justified allows must suppress: {allowed:?}"
    );
}

#[test]
fn malformed_allows_report_and_do_not_suppress() {
    let f = scan("allowed");
    let bad = rules_in(&f, "bad_allow.rs");
    assert!(
        bad.contains(&"hash-collections"),
        "unjustified allow must not suppress: {bad:?}"
    );
    assert!(
        bad.contains(&"wall-clock"),
        "unknown-rule allow must not suppress: {bad:?}"
    );
    assert_eq!(
        bad.iter().filter(|r| **r == "bad-allow").count(),
        2,
        "{bad:?}"
    );
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let f = scan_root(&root).expect("workspace readable");
    assert!(
        f.is_empty(),
        "the workspace must satisfy its own lint gate: {f:#?}"
    );
}

#[test]
fn cli_exits_nonzero_on_violations_and_zero_on_clean() {
    let bin = env!("CARGO_BIN_EXE_abd-lint");
    let bad = Command::new(bin)
        .arg(fixture_root("violations"))
        .output()
        .expect("run abd-lint");
    assert!(!bad.status.success(), "violations must fail the gate");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/core/src/hash.rs:3: [hash-collections]"),
        "diagnostics must be file:line formatted:\n{stdout}"
    );
    let good = Command::new(bin)
        .arg(fixture_root("clean"))
        .output()
        .expect("run abd-lint");
    assert!(good.status.success(), "clean tree must pass the gate");
}

#[test]
fn cli_json_report_is_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_abd-lint");
    let out = Command::new(bin)
        .arg("--json")
        .arg(fixture_root("violations"))
        .output()
        .expect("run abd-lint");
    assert!(!out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.trim_start().starts_with('{'), "not JSON:\n{json}");
    assert!(
        json.contains("\"schema_version\": 2"),
        "consumers key on the schema version:\n{json}"
    );
    assert!(json.contains("\"rule\": \"wildcard-msg-match\""));
    assert!(json.contains("\"file\": \"crates/kv/src/wildcard.rs\""));
    assert!(json.contains("\"count\": "));
}

#[test]
fn cli_dot_dir_writes_extracted_phase_graphs() {
    let bin = env!("CARGO_BIN_EXE_abd-lint");
    let dir = std::env::temp_dir().join(format!("abd-lint-dot-{}", std::process::id()));
    let out = Command::new(bin)
        .arg("--dot-dir")
        .arg(&dir)
        .arg(fixture_root("clean"))
        .output()
        .expect("run abd-lint");
    assert!(out.status.success(), "clean tree must pass the gate");
    let dot =
        std::fs::read_to_string(dir.join("semantic-good.dot")).expect("semantic-good.dot written");
    assert!(dot.starts_with("digraph semantic_good {"), "{dot}");
    assert!(dot.contains("\"Invoke\" -> \"Write\""), "{dot}");
    assert!(dot.contains("\"Write\" -> \"Done\""), "{dot}");
    std::fs::remove_dir_all(&dir).ok();
}
