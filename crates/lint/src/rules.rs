//! The six protocol-invariant rules.
//!
//! | id | invariant |
//! |----|-----------|
//! | `hash-collections`   | no `HashMap`/`HashSet` in protocol or simulator code (iteration order would leak nondeterminism into executions) |
//! | `wall-clock`         | no `Instant`/`SystemTime` in protocol, simulator, runtime or shmem crates — time flows through `abd_core::clock::Clock` |
//! | `panic-in-handler`   | no `.unwrap()`/`.expect(…)`/`panic!`/`unreachable!`/`unimplemented!`/`todo!` inside message-path handlers — a malformed or stale message must never take a replica down |
//! | `wildcard-msg-match` | every top-level arm of the `match` on `msg` in `on_message` names its variants: no `_`, no binding catch-all, not even as one alternative of an or-pattern — so rustc's exhaustiveness check makes adding a message kind a compile-time event |
//! | `raw-quorum-arith`   | no open-coded `/ 2` or `div_ceil(2)` majorities outside `crates/core/src/quorum.rs` — quorum sizes come from the checked constructors |
//! | `phase-graph`        | each protocol file declares its handler→phase transition graph (`abd-lint: phase-spec(...)`); the graph extracted from the handler bodies must match it exactly |
//!
//! All but `phase-graph` are line-anchored token/AST checks; `phase-graph`
//! diffs the graph [`crate::flow::PhaseWalk`] extracts. All operate on the
//! cleaned source view (see [`crate::source`]), so comments and string
//! literals never trigger them.

use crate::ast::{Ast, FnDef, MatchStmt, Span, Stmt};
use crate::flow::{calls_in, PhaseGraph, PhaseWalk, Toks};
use crate::phasegraph::{diff, parse_spec, REQUIRED_SPECS};
use crate::report::Finding;
use crate::source::SourceFile;

/// Static description of one rule, for `--help`-style listings and for
/// validating `allow(...)` directives.
#[derive(Debug)]
pub struct RuleInfo {
    /// Identifier used in findings and allow directives.
    pub id: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// Every enforced rule.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-collections",
        summary: "no HashMap/HashSet in abd-core or abd-simnet non-test code",
    },
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant/SystemTime in core/simnet/runtime/shmem; use abd_core::clock::Clock",
    },
    RuleInfo {
        id: "panic-in-handler",
        summary: "no unwrap/expect/panic!/unreachable!/unimplemented!/todo! inside protocol message handlers",
    },
    RuleInfo {
        id: "wildcard-msg-match",
        summary: "every arm of on_message's `match msg` names its variants: no `_`, \
                  no binding catch-all",
    },
    RuleInfo {
        id: "raw-quorum-arith",
        summary: "no open-coded `/ 2` or `div_ceil(2)` outside crates/core/src/quorum.rs",
    },
    RuleInfo {
        id: "phase-graph",
        summary: "extracted handler→phase transition graph must match the file's \
                  declared `phase-spec(...)`",
    },
];

/// Handler functions whose bodies form the protocol message path: the
/// protocol callbacks, the runtime's node thread, and the `NodeHost`
/// methods that run callbacks under a name no other function in core,
/// runtime or kv has (`invoke`, `fire` and `restart` share theirs).
pub const HANDLER_FNS: &[&str] = &[
    "on_start",
    "on_invoke",
    "on_message",
    "on_timer",
    "on_restart",
    "node_main",
    "start",
    "deliver",
    "fire_due",
    "call",
];

/// Everything one file's check produces: findings, plus the extracted
/// phase graph when the file declares a `phase-spec` (for DOT emission).
#[derive(Debug)]
pub struct FileOutcome {
    /// Rule findings, pre-allow-filtering.
    pub findings: Vec<Finding>,
    /// `(spec name, graph)` when the file declares a phase spec.
    pub graph: Option<(String, PhaseGraph)>,
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile) -> FileOutcome {
    let ast = Ast::parse(file);
    let tk = Toks::new(&file.clean, &ast);
    let mut out = Vec::new();
    hash_collections(file, &tk, &mut out);
    wall_clock(file, &tk, &mut out);
    panic_in_handler(file, &ast, &tk, &mut out);
    wildcard_msg_match(file, &ast, &tk, &mut out);
    raw_quorum_arith(file, &tk, &mut out);
    let graph = phase_graph(file, &ast, &mut out);
    FileOutcome {
        findings: out,
        graph,
    }
}

/// Whether any rule applies to `rel` at all. Allow directives are only
/// parsed (and mis-parses only reported) inside this scope, so prose *about*
/// directives — in this crate's own docs, for instance — is not linted.
pub fn in_lint_scope(rel: &str) -> bool {
    in_crates(rel, &["core", "simnet", "runtime", "shmem", "kv"])
}

/// Whether `rel` lives in one of the named workspace crates.
fn in_crates(rel: &str, names: &[&str]) -> bool {
    names.iter().any(|n| {
        rel.strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(n))
            .is_some_and(|r| r.starts_with('/'))
    })
}

fn finding(file: &SourceFile, rule: &'static str, offset: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel.clone(),
        line: file.line_of(offset),
        message,
    }
}

/// `hash-collections`: unordered maps/sets in deterministic code.
fn hash_collections(file: &SourceFile, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "simnet"]) {
        return;
    }
    for i in 0..tk.toks.len() {
        let word = tk.t(i);
        if !matches!(word, "HashMap" | "HashSet") || file.in_test_code(tk.off(i)) {
            continue;
        }
        out.push(finding(
            file,
            "hash-collections",
            tk.off(i),
            format!(
                "`{word}` iterates in arbitrary order, which leaks nondeterminism into \
                 protocol executions; use `BTree{}` instead",
                &word[4..]
            ),
        ));
    }
}

/// `wall-clock`: raw OS time sources. Applies to test code too — tests that
/// read real time flake; they should drive a `ManualClock`.
fn wall_clock(file: &SourceFile, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "simnet", "runtime", "shmem"]) {
        return;
    }
    for i in 0..tk.toks.len() {
        let word = tk.t(i);
        if !matches!(word, "Instant" | "SystemTime") || !tk.is_ident(i) {
            continue;
        }
        out.push(finding(
            file,
            "wall-clock",
            tk.off(i),
            format!(
                "`{word}` is a nondeterministic time source; inject an \
                 `abd_core::clock::Clock` (ManualClock/TickClock in tests, \
                 MonotonicClock at the runtime edge) instead"
            ),
        ));
    }
}

/// Non-test handler-function bodies, via the AST.
fn handler_fns<'a>(file: &SourceFile, ast: &'a Ast) -> Vec<&'a FnDef> {
    ast.all_fns()
        .into_iter()
        .filter(|f| {
            HANDLER_FNS.contains(&f.name.as_str())
                && f.body.is_some()
                && !file.in_test_code(f.offset)
        })
        .collect()
}

/// `panic-in-handler`: aborts on the message path.
fn panic_in_handler(file: &SourceFile, ast: &Ast, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "runtime", "kv"]) {
        return;
    }
    for f in handler_fns(file, ast) {
        let body = f.body.as_ref().expect("handler_fns filters bodies");
        let name = &f.name;
        for c in calls_in(tk, body.open, body.close + 1) {
            let dotted = c.tok > 0 && tk.t(c.tok - 1) == ".";
            if dotted && matches!(c.name, "unwrap" | "expect") {
                out.push(finding(
                    file,
                    "panic-in-handler",
                    tk.off(c.tok),
                    format!(
                        "`.{}(…)` inside `{name}` can take a replica down on a \
                         malformed or stale message; return early or propagate an error",
                        c.name
                    ),
                ));
            }
        }
        for i in body.open..body.close.min(tk.toks.len()) {
            let mac = tk.t(i);
            let aborts = matches!(mac, "panic" | "unreachable" | "unimplemented" | "todo");
            if aborts && tk.is_ident(i) && tk.t(i + 1) == "!" {
                out.push(finding(
                    file,
                    "panic-in-handler",
                    tk.off(i),
                    format!(
                        "`{mac}!` inside `{name}` turns a protocol-level surprise into a \
                         crash; handle the case or drop the message"
                    ),
                ));
            }
        }
    }
}

/// The top-level `match` statements of a handler whose scrutinee mentions
/// the `msg` binding.
fn msg_matches<'a>(tk: &'a Toks, f: &'a FnDef) -> impl Iterator<Item = &'a MatchStmt> {
    let stmts = f.body.as_ref().map_or(&[][..], |b| &b.stmts[..]);
    stmts.iter().filter_map(|s| match s {
        Stmt::Match(m)
            if (m.scrutinee.lo..m.scrutinee.hi).any(|i| tk.is_ident(i) && tk.t(i) == "msg") =>
        {
            Some(m)
        }
        _ => None,
    })
}

/// The top-level `|`-alternatives of an arm pattern, its guard left out
/// (a guard covers nothing), a leading `|` skipped.
fn alternatives(tk: &Toks, pat: Span) -> Vec<Span> {
    let mut alts = Vec::new();
    let (mut lo, mut hi, mut depth) = (pat.lo, pat.hi, 0usize);
    for i in pat.lo..pat.hi {
        match tk.t(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "|" if depth == 0 => {
                alts.push(Span { lo, hi: i });
                lo = i + 1;
            }
            "if" if depth == 0 => {
                hi = i;
                break;
            }
            _ => {}
        }
    }
    alts.push(Span { lo, hi });
    alts.retain(|a| !a.is_empty());
    alts
}

/// `wildcard-msg-match`: a top-level arm alternative of `match msg` that
/// names no `Path::Variant` — `_`, a binding catch-all (`other =>`), or
/// either inside an or-pattern (`Msg::A | _`) — makes the match exhaustive
/// for any enum, so rustc stays silent when a message kind is added.
fn wildcard_msg_match(file: &SourceFile, ast: &Ast, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "runtime", "kv", "simnet"]) {
        return;
    }
    let names_variant = |a: &Span| {
        (a.lo..a.hi.saturating_sub(2))
            .any(|i| tk.is_ident(i) && tk.t(i + 1) == "::" && tk.is_ident(i + 2))
    };
    for f in handler_fns(file, ast) {
        if f.name != "on_message" {
            continue;
        }
        for m in msg_matches(tk, f) {
            for a in m.arms.iter().flat_map(|a| alternatives(tk, a.pat)) {
                if names_variant(&a) {
                    continue;
                }
                let text = &tk.clean[tk.off(a.lo)..tk.toks[a.hi - 1].end];
                out.push(finding(
                    file,
                    "wildcard-msg-match",
                    tk.off(a.lo),
                    format!(
                        "`{text}` in the top-level `match msg` of `on_message` names no \
                         variant and swallows message variants silently; enumerate every \
                         variant so new messages fail to compile until handled"
                    ),
                ));
            }
        }
    }
}

/// `raw-quorum-arith`: open-coded majority arithmetic.
fn raw_quorum_arith(file: &SourceFile, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "kv"]) || file.rel == "crates/core/src/quorum.rs" {
        return;
    }
    const MSG: &str = "open-coded majority arithmetic; use \
                       `abd_core::quorum::majority_threshold` or `masking_threshold` \
                       (crates/core/src/quorum.rs) so the threshold is checked once";
    for i in 0..tk.toks.len() {
        if tk.t(i) == "/" && tk.t(i + 1) == "2" && !file.in_test_code(tk.off(i)) {
            out.push(finding(
                file,
                "raw-quorum-arith",
                tk.off(i),
                format!("`/ 2`: {MSG}"),
            ));
        }
    }
    for c in calls_in(tk, 0, tk.toks.len()) {
        if c.name == "div_ceil"
            && c.args_close == c.args_open + 2
            && tk.t(c.args_open + 1) == "2"
            && !file.in_test_code(tk.off(c.tok))
        {
            out.push(finding(
                file,
                "raw-quorum-arith",
                tk.off(c.tok),
                format!("`div_ceil(2)`: {MSG}"),
            ));
        }
    }
}

/// `phase-graph`: extract the handler→phase transition graph and check it
/// against the file's declared `phase-spec(...)`. Files listed in
/// [`REQUIRED_SPECS`] must declare one; any other in-scope file that
/// declares one is checked too.
fn phase_graph(
    file: &SourceFile,
    ast: &Ast,
    out: &mut Vec<Finding>,
) -> Option<(String, PhaseGraph)> {
    if !in_lint_scope(&file.rel) {
        return None;
    }
    let required = REQUIRED_SPECS
        .iter()
        .find(|(rel, _)| *rel == file.rel)
        .map(|(_, name)| *name);
    let spec = parse_spec(&file.raw);
    let Some(spec) = spec else {
        if let Some(name) = required {
            out.push(Finding {
                rule: "phase-graph",
                file: file.rel.clone(),
                line: 1,
                message: format!(
                    "protocol file must declare its phase transitions: \
                     `// abd-lint: phase-spec({name}): A -> B, ...`"
                ),
            });
        }
        return None;
    };
    if let Some(name) = required {
        if spec.name != name {
            out.push(Finding {
                rule: "phase-graph",
                file: file.rel.clone(),
                line: spec.line,
                message: format!(
                    "phase-spec is named `{}` but this file's graph must be named `{name}`",
                    spec.name
                ),
            });
        }
    }
    for (line, msg) in &spec.problems {
        out.push(Finding {
            rule: "phase-graph",
            file: file.rel.clone(),
            line: *line,
            message: msg.clone(),
        });
    }
    let walk = PhaseWalk::extract(&file.clean, ast, &|off| !file.in_test_code(off));
    for d in diff(&spec, &walk.graph) {
        let (a, b) = &d.edge;
        if d.undeclared {
            out.push(finding(
                file,
                "phase-graph",
                d.offset,
                format!(
                    "handler code produces phase transition `{a} -> {b}`, which \
                     phase-spec({}) does not declare; fix the handler or extend the spec",
                    spec.name
                ),
            ));
        } else {
            out.push(Finding {
                rule: "phase-graph",
                file: file.rel.clone(),
                line: spec.line,
                message: format!(
                    "phase-spec({}) declares `{a} -> {b}` but no handler path \
                     produces it; the protocol lost a transition the spec promises",
                    spec.name
                ),
            });
        }
    }
    Some((spec.name.clone(), walk.graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::new(rel.into(), src)).findings
    }

    #[test]
    fn scope_is_path_prefix_exact() {
        assert!(in_crates("crates/core/src/a.rs", &["core"]));
        assert!(!in_crates("crates/core2/src/a.rs", &["core"]));
        assert!(!in_crates("crates/lincheck/src/a.rs", &["core"]));
    }

    #[test]
    fn hash_in_core_flagged_but_not_in_tests_or_elsewhere() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests { use std::collections::HashSet; fn t() {} }\n";
        let f = check("crates/core/src/a.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "hash-collections").count(), 1);
        assert_eq!(f[0].line, 1);
        assert!(check("crates/lincheck/src/a.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_applies_to_tests_too() {
        let src = "#[cfg(test)]\nmod tests { use std::time::Instant; }\n";
        let f = check("crates/runtime/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn unwrap_in_handler_flagged_outside_not() {
        let src =
            "fn on_message(&mut self) { self.x.unwrap(); }\nfn helper() { self.x.unwrap(); }\n";
        let f = check("crates/core/src/a.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "panic-in-handler").count(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn every_aborting_macro_in_a_handler_is_flagged() {
        for mac in ["panic", "unreachable", "unimplemented", "todo"] {
            let src =
                format!("fn on_message(&mut self) {{ {mac}!() }}\nfn helper() {{ {mac}!() }}\n");
            let f = check("crates/kv/src/a.rs", &src);
            assert_eq!(f.len(), 1, "{mac}: {f:?}");
            assert_eq!((f[0].rule, f[0].line), ("panic-in-handler", 1));
        }
        // The bare identifier is not the macro.
        let src = "fn on_timer(&mut self) { let unreachable = self.todo; }\n";
        assert!(check("crates/kv/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_and_expect_err_do_not_count() {
        let src = "fn on_timer(&mut self) { let a = x.unwrap_or(0); let b = y.expect_err(z); }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn trait_declaration_has_no_body_to_flag() {
        let src = "trait P { fn on_message(&mut self); }\nfn f() { x.unwrap(); }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn wildcard_top_level_flagged_nested_allowed() {
        let flagged = "fn on_message(&mut self, msg: M) { match msg { M::A => {} _ => {} } }\n";
        let f = check("crates/core/src/a.rs", flagged);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wildcard-msg-match");
        let nested = "fn on_message(&mut self, msg: M) { match msg { M::A => { match p { Some(x) => x, _ => 0 }; } M::B => {} } }\n";
        assert!(check("crates/core/src/a.rs", nested).is_empty());
    }

    #[test]
    fn tuple_wildcards_are_not_bare_arms() {
        let src =
            "fn on_message(&mut self, msg: M) { match msg { M::A(_, x) => {} M::B(_) => {} } }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn match_on_other_scrutinee_is_ignored() {
        let src = "fn on_message(&mut self, msg: M) { match self.mode { Mode::X => {} _ => {} } match msg { M::A => {} } }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn binding_catch_alls_and_wildcard_alternatives_are_flagged() {
        let src = "fn on_message(&mut self, msg: M) { match msg {\n| M::A | M::B => {}\nM::C | _ => {}\nm if m.stale() => {}\nother => {}\n} }\n";
        let f = check("crates/core/src/a.rs", src);
        let lines: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        let rule = "wildcard-msg-match";
        assert_eq!(lines, [(rule, 3), (rule, 4), (rule, 5)], "{f:?}");
        assert!(f[1].message.contains("`m`"), "the guard is not the pattern");
    }

    #[test]
    fn a_guarded_path_arm_is_not_flagged() {
        let src = "fn on_message(&mut self, msg: M) { match msg { M::Q { .. } if x => {} M::Q { .. } => {} } }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn quorum_arith_flagged_except_in_quorum_rs() {
        let src =
            "fn q(n: usize) -> usize { n / 2 + 1 }\nfn c(n: usize) -> usize { n.div_ceil(2) }\n";
        let f = check("crates/kv/src/a.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "raw-quorum-arith").count(), 2);
        assert!(check("crates/core/src/quorum.rs", src).is_empty());
    }

    #[test]
    fn division_by_larger_literals_is_fine() {
        let src = "fn f(n: usize) -> usize { n / 20 + n / 256 }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// quorums are ceil((n+1) / 2)\nfn f() { let s = \"HashMap Instant / 2\"; }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn phase_graph_spec_mismatch_flagged() {
        let src = "// abd-lint: phase-spec(t): Invoke -> Query\nimpl N { fn on_invoke(&mut self) { self.pending = Some(Pending::Write { op }); } }\n";
        let f = check("crates/core/src/a.rs", src);
        let pg: Vec<_> = f.iter().filter(|f| f.rule == "phase-graph").collect();
        // One undeclared (Invoke -> Write) and one unproduced (Invoke -> Query).
        assert_eq!(pg.len(), 2);
        let matching = "// abd-lint: phase-spec(t): Invoke -> Write\nimpl N { fn on_invoke(&mut self) { self.pending = Some(Pending::Write { op }); } }\n";
        assert!(check("crates/core/src/a.rs", matching).is_empty());
    }

    #[test]
    fn required_files_must_declare_a_spec() {
        let src = "fn on_invoke(&mut self) {}\n";
        let f = check("crates/core/src/register.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "phase-graph").count(), 1);
        assert!(f[0].message.contains("phase-spec(register)"));
    }
}
