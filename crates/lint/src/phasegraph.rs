//! Phase-graph specs: declaration parsing, diffing, DOT goldens.
//!
//! A protocol file declares its expected handler→phase transition graph in
//! a comment directive near the top:
//!
//! ```text
//! // abd-lint: phase-spec(register):
//! //   Invoke -> ReadQuery, Invoke -> WriteUpdate,
//! //   ReadQuery -> ReadWriteBack, ReadQuery -> Done
//! ```
//!
//! The spec is a comma-separated edge list `A -> B`; it may continue over
//! following `//` comment lines as long as each continuation line contains
//! an `->` edge. The `phase-graph` rule extracts the *actual* graph from
//! the file's handler bodies (see [`crate::flow::PhaseWalk`]) and reports
//! the symmetric difference: an edge in the code but not the spec means an
//! undeclared transition (a skipped or invented phase); an edge in the
//! spec but not the code means the protocol lost a transition the spec
//! still promises.

use crate::flow::PhaseGraph;
use std::collections::BTreeSet;

/// A declared phase-transition spec.
#[derive(Debug)]
pub struct PhaseSpec {
    /// Graph name from `phase-spec(<name>)` — also the DOT file stem.
    pub name: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// Declared edges.
    pub edges: BTreeSet<(String, String)>,
    /// Parse problems (malformed edge text), reported under `phase-graph`.
    pub problems: Vec<(usize, String)>,
}

/// Protocol files that **must** declare a spec, and the name each must use.
/// `phase-graph` reports a missing or misnamed declaration in these files.
pub const REQUIRED_SPECS: &[(&str, &str)] = &[
    ("crates/core/src/engine.rs", "engine"),
    ("crates/core/src/register.rs", "register"),
];

/// Parses the first `phase-spec` directive in `raw` lines, if any.
pub fn parse_spec(raw: &[String]) -> Option<PhaseSpec> {
    let marker = "abd-lint:";
    for (i, line) in raw.iter().enumerate() {
        let Some(pos) = line.find(marker) else {
            continue;
        };
        let rest = line[pos + marker.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("phase-spec(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let name = rest[..close].trim().to_string();
        let mut spec = PhaseSpec {
            name,
            line: i + 1,
            edges: BTreeSet::new(),
            problems: Vec::new(),
        };
        let tail = rest[close + 1..].trim_start();
        let first = tail.strip_prefix(':').unwrap_or(tail).trim();
        if !first.is_empty() {
            let p = parse_edges(first, i + 1, &mut spec.edges);
            spec.problems.extend(p);
        }
        // Continuation: following `//` comment lines that contain `->`.
        for (j, cont) in raw.iter().enumerate().skip(i + 1) {
            let t = cont.trim_start();
            if !t.starts_with("//") {
                break;
            }
            let body = t.trim_start_matches('/').trim();
            if !body.contains("->") {
                break;
            }
            let p = parse_edges(body, j + 1, &mut spec.edges);
            spec.problems.extend(p);
        }
        return Some(spec);
    }
    None
}

/// Parses a comma-separated `A -> B` list into `edges`; returns problems.
fn parse_edges(
    s: &str,
    line: usize,
    edges: &mut BTreeSet<(String, String)>,
) -> Vec<(usize, String)> {
    let mut problems = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let mut halves = part.splitn(2, "->");
        let a = halves.next().unwrap_or("").trim();
        let b = halves.next().unwrap_or("").trim();
        if a.is_empty() || b.is_empty() || !is_phase_name(a) || !is_phase_name(b) {
            problems.push((line, format!("malformed phase-spec edge `{part}`")));
            continue;
        }
        edges.insert((a.to_string(), b.to_string()));
    }
    problems
}

fn is_phase_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One discrepancy between the declared spec and the extracted graph.
#[derive(Debug)]
pub struct SpecDiff {
    /// The edge in question.
    pub edge: (String, String),
    /// True if the edge is in the code but not the spec.
    pub undeclared: bool,
    /// Byte offset to anchor the finding (0 for spec-only edges).
    pub offset: usize,
}

/// Symmetric difference between spec and extracted graph.
pub fn diff(spec: &PhaseSpec, graph: &PhaseGraph) -> Vec<SpecDiff> {
    let mut out = Vec::new();
    for ((a, b), off) in graph {
        if !spec.edges.contains(&(a.clone(), b.clone())) {
            out.push(SpecDiff {
                edge: (a.clone(), b.clone()),
                undeclared: true,
                offset: *off,
            });
        }
    }
    for (a, b) in &spec.edges {
        if !graph.contains_key(&(a.clone(), b.clone())) {
            out.push(SpecDiff {
                edge: (a.clone(), b.clone()),
                undeclared: false,
                offset: 0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<String> {
        src.lines().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_line_spec_parses() {
        let raw =
            lines("// abd-lint: phase-spec(swmr): Invoke -> Query, Query -> Done\nfn f() {}\n");
        let spec = parse_spec(&raw).unwrap();
        assert_eq!(spec.name, "swmr");
        assert!(spec.problems.is_empty());
        assert_eq!(spec.edges.len(), 2);
        assert!(spec.edges.contains(&("Invoke".into(), "Query".into())));
    }

    #[test]
    fn continuation_lines_extend_the_edge_list() {
        let raw = lines(
            "// abd-lint: phase-spec(mwmr):\n//   Invoke -> Query,\n//   Query -> Write\n// unrelated comment\nfn f() {}\n",
        );
        let spec = parse_spec(&raw).unwrap();
        assert_eq!(spec.edges.len(), 2);
        assert!(spec.edges.contains(&("Query".into(), "Write".into())));
    }

    #[test]
    fn malformed_edges_are_problems_not_edges() {
        let raw = lines("// abd-lint: phase-spec(x): Invoke -> , A => B\n");
        let spec = parse_spec(&raw).unwrap();
        assert!(spec.edges.is_empty());
        assert_eq!(spec.problems.len(), 2);
    }

    #[test]
    fn diff_finds_both_directions() {
        let raw = lines("// abd-lint: phase-spec(x): A -> B, C -> D\n");
        let spec = parse_spec(&raw).unwrap();
        let mut graph = PhaseGraph::new();
        graph.insert(("A".into(), "B".into()), 10);
        graph.insert(("E".into(), "F".into()), 20);
        let d = diff(&spec, &graph);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|x| x.undeclared && x.edge.0 == "E"));
        assert!(d.iter().any(|x| !x.undeclared && x.edge.0 == "C"));
    }
}
