//! Directory walking and per-file orchestration.
//!
//! Each file is linted on its own. Extracted phase graphs ride along in
//! [`ScanOutcome`] so the CLI can render them as DOT.

use crate::allow::Allows;
use crate::flow::PhaseGraph;
use crate::report::Finding;
use crate::rules::check_file;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored stubs,
/// lint fixtures (which are violations *on purpose*), and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Everything a workspace scan produces.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Surviving findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Phase graphs by spec name, from files declaring `phase-spec(...)`.
    pub graphs: BTreeMap<String, PhaseGraph>,
}

/// Lints every `.rs` file under `root` and returns the surviving findings,
/// sorted by `(file, line, rule)`. Allow directives with a justification
/// suppress their findings; malformed directives are reported as
/// `bad-allow`.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(scan_workspace(root)?.findings)
}

/// Full scan: findings plus extracted phase graphs.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanOutcome> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut out = ScanOutcome::default();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(path)?;
        let (findings, graph) = lint_file(&SourceFile::new(rel, &text));
        out.findings.extend(findings);
        if let Some((name, graph)) = graph {
            out.graphs.entry(name).or_insert(graph);
        }
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

/// Lints one file's text under its workspace-relative path. Exposed so
/// tests can lint in-memory sources without touching the filesystem.
pub fn lint_source(rel: String, text: &str) -> Vec<Finding> {
    lint_file(&SourceFile::new(rel, text)).0
}

/// Applies rules then allows to one parsed file.
fn lint_file(file: &SourceFile) -> (Vec<Finding>, Option<(String, PhaseGraph)>) {
    let allows = Allows::collect(file);
    let outcome = check_file(file);
    let mut findings: Vec<Finding> = outcome
        .findings
        .into_iter()
        .filter(|f| !allows.suppresses(f.rule, f.line))
        .collect();
    findings.extend(allows.problems);
    (findings, outcome.graph)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "// abd-lint: allow(hash-collections): deterministic seed, test-only cache.\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/a.rs".into(), src).is_empty());
    }

    #[test]
    fn allow_without_justification_reports_and_keeps_finding() {
        let src = "use std::collections::HashMap; // abd-lint: allow(hash-collections)\n";
        let f = lint_source("crates/core/src/a.rs".into(), src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        assert!(
            rules.contains(&"hash-collections"),
            "original finding must survive: {rules:?}"
        );
        assert!(
            rules.contains(&"bad-allow"),
            "malformed allow must be reported: {rules:?}"
        );
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "use std::collections::HashMap; // abd-lint: allow(wall-clock): wrong rule\n";
        let f = lint_source("crates/core/src/a.rs".into(), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash-collections");
    }

    #[test]
    fn allow_suppresses_new_semantic_rules_too() {
        let head = "// abd-lint: phase-spec(t): Invoke -> Write\nfn on_invoke(&mut self) {\n    self.pending = Some(Pending::Write { op });\n";
        let allow = "    // abd-lint: allow(phase-graph): answers at once, on purpose.\n";
        let shortcut = "    fx.respond(op, ());\n}\n";
        let flagged = lint_source("crates/core/src/a.rs".into(), &format!("{head}{shortcut}"));
        let found: Vec<_> = flagged.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(found, [("phase-graph", 4)], "`Write -> Done`");
        let allowed = format!("{head}{allow}{shortcut}");
        assert!(lint_source("crates/core/src/a.rs".into(), &allowed).is_empty());
    }
}
