//! The nine protocol-invariant rules.
//!
//! | id | invariant |
//! |----|-----------|
//! | `hash-collections`   | no `HashMap`/`HashSet` in protocol or simulator code (iteration order would leak nondeterminism into executions) |
//! | `wall-clock`         | no `Instant`/`SystemTime` in protocol, simulator, runtime or shmem crates — time flows through `abd_core::clock::Clock` |
//! | `panic-in-handler`   | no `.unwrap()`/`.expect(…)`/`panic!`/`unreachable!`/`unimplemented!`/`todo!` inside message-path handlers — a malformed or stale message must never take a replica down |
//! | `wildcard-msg-match` | the top-level `match` on `msg` in every `on_message` enumerates variants without `_ =>`, so adding a message kind is a compile-time event |
//! | `raw-quorum-arith`   | no open-coded `/ 2` or `div_ceil(2)` majorities outside `crates/core/src/quorum.rs` — quorum sizes come from the checked constructors |
//! | `persist-before-ack` | inside a handler, an ack/reply send must not precede the persistent-state write it acknowledges — a crash after the ack would forget acknowledged state (PAPER.md §3: a replica answers only for state it will still hold) |
//! | `tag-monotonicity`   | stored tag/label fields are only assigned under a comparison (or via `max`/`cmp`) against the incoming value — labels must never move backwards |
//! | `phase-graph`        | each protocol file declares its handler→phase transition graph (`abd-lint: phase-spec(...)`); the graph extracted from the handler bodies must match it exactly |
//! | `exhaustive-msg-handling` | the top-level `match msg` in `on_message` covers every variant of the message enum it matches on |
//!
//! Rules 1–5 are line-anchored token/AST checks; rules 6–9 are semantic
//! checks over flow facts (see [`crate::flow`]). All operate on the
//! cleaned source view (see [`crate::source`]), so comments and string
//! literals never trigger them.

use crate::ast::{Ast, Stmt};
use crate::flow::{
    ack_events, assignments_with_guards, calls_in, handler_groups, AckEvent, PhaseGraph, PhaseWalk,
    Toks,
};
use crate::phasegraph::{diff, parse_spec, REQUIRED_SPECS};
use crate::report::Finding;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

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
        summary: "on_message must match every Msg variant without a `_ =>` arm",
    },
    RuleInfo {
        id: "raw-quorum-arith",
        summary: "no open-coded `/ 2` or `div_ceil(2)` outside crates/core/src/quorum.rs",
    },
    RuleInfo {
        id: "persist-before-ack",
        summary: "inside a handler, acks/replies must follow the persistent-state \
                  write they acknowledge",
    },
    RuleInfo {
        id: "tag-monotonicity",
        summary: "stored tag/label fields are assigned only under a compare/max \
                  guard against the incoming value",
    },
    RuleInfo {
        id: "phase-graph",
        summary: "extracted handler→phase transition graph must match the file's \
                  declared `phase-spec(...)`",
    },
    RuleInfo {
        id: "exhaustive-msg-handling",
        summary: "the `match msg` in on_message covers every variant of its \
                  message enum",
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

/// Stored tag/label fields whose assignments rule 7 audits.
pub const TAG_FIELDS: &[&str] = &[
    "tag",
    "label",
    "max_label",
    "stored_label",
    "best_label",
    "best_tag",
    "seq",
];

/// Cross-file facts the per-file rules need: every enum declared anywhere
/// in the workspace, by name. Built in a first pass over all files (see
/// [`crate::scan::scan_root`]); file-local enums take precedence over the
/// registry when a rule resolves a name.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Enum name → variant names, first declaration wins.
    pub enums: BTreeMap<String, Vec<String>>,
}

impl Workspace {
    /// Registers every enum declared in `file`.
    pub fn add_file(&mut self, file: &SourceFile) {
        let ast = Ast::parse(file);
        for e in ast.all_enums() {
            self.enums
                .entry(e.name.clone())
                .or_insert_with(|| e.variants.iter().map(|(v, _)| v.clone()).collect());
        }
    }
}

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
pub fn check_file(file: &SourceFile, ws: &Workspace) -> FileOutcome {
    let ast = Ast::parse(file);
    let tk = Toks::new(&file.clean, &ast);
    let mut out = Vec::new();
    hash_collections(file, &tk, &mut out);
    wall_clock(file, &tk, &mut out);
    panic_in_handler(file, &ast, &tk, &mut out);
    wildcard_and_exhaustive(file, &ast, &tk, ws, &mut out);
    raw_quorum_arith(file, &tk, &mut out);
    persist_before_ack(file, &ast, &tk, &mut out);
    tag_monotonicity(file, &ast, &tk, &mut out);
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
fn handler_fns<'a>(file: &SourceFile, ast: &'a Ast) -> Vec<&'a crate::ast::FnDef> {
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

/// The top-level `match` statements of `on_message` whose scrutinee
/// mentions the `msg` binding.
fn msg_matches<'a>(
    ast: &'a Ast,
    tk: &Toks,
    f: &'a crate::ast::FnDef,
) -> Vec<&'a crate::ast::MatchStmt> {
    let _ = ast;
    let Some(body) = f.body.as_ref() else {
        return Vec::new();
    };
    body.stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Match(m)
                if (m.scrutinee.lo..m.scrutinee.hi).any(|i| tk.is_ident(i) && tk.t(i) == "msg") =>
            {
                Some(m)
            }
            _ => None,
        })
        .collect()
}

/// `wildcard-msg-match` + `exhaustive-msg-handling`, which share the
/// top-level-`match msg` discovery.
fn wildcard_and_exhaustive(
    file: &SourceFile,
    ast: &Ast,
    tk: &Toks,
    ws: &Workspace,
    out: &mut Vec<Finding>,
) {
    if !in_crates(&file.rel, &["core", "runtime", "kv", "simnet"]) {
        return;
    }
    let local: BTreeMap<&str, Vec<String>> = ast
        .all_enums()
        .iter()
        .map(|e| {
            (
                e.name.as_str(),
                e.variants.iter().map(|(v, _)| v.clone()).collect(),
            )
        })
        .collect();
    for f in handler_fns(file, ast) {
        if f.name != "on_message" {
            continue;
        }
        for m in msg_matches(ast, tk, f) {
            // Wildcard arms: a pattern that is exactly `_`.
            let mut has_wildcard = false;
            for a in &m.arms {
                if a.pat.hi == a.pat.lo + 1 && tk.t(a.pat.lo) == "_" {
                    has_wildcard = true;
                    out.push(finding(
                        file,
                        "wildcard-msg-match",
                        tk.off(a.pat.lo),
                        "`_ =>` in the top-level `match msg` of `on_message` swallows \
                         message variants silently; enumerate every variant so new \
                         messages fail to compile until handled"
                            .to_string(),
                    ));
                }
            }
            if has_wildcard {
                continue; // dynamically exhaustive; rule 9 would double-report
            }
            // Exhaustiveness: collect `Enum::Variant` paths from the arm
            // patterns, resolve the enum (file-local first, then the
            // workspace registry), and require every variant covered.
            let mut by_enum: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for a in &m.arms {
                for i in a.pat.lo..a.pat.hi.min(tk.toks.len()).saturating_sub(2) {
                    if tk.is_ident(i) && tk.t(i + 1) == "::" && tk.is_ident(i + 2) {
                        by_enum.entry(tk.t(i)).or_default().insert(tk.t(i + 2));
                    }
                }
            }
            let resolved = by_enum
                .iter()
                .filter_map(|(name, covered)| {
                    local
                        .get(name)
                        .or_else(|| ws.enums.get(*name))
                        .map(|vars| (*name, covered, vars))
                })
                .max_by_key(|(_, covered, _)| covered.len());
            let Some((enum_name, covered, variants)) = resolved else {
                continue; // enum not declared anywhere we can see — skip
            };
            let missing: Vec<&str> = variants
                .iter()
                .map(String::as_str)
                .filter(|v| !covered.contains(v))
                .collect();
            if !missing.is_empty() {
                out.push(finding(
                    file,
                    "exhaustive-msg-handling",
                    tk.off(m.scrutinee.lo),
                    format!(
                        "`match msg` in `on_message` covers {}/{} variants of \
                         `{enum_name}`; missing: {}. Handle them (even if only to \
                         ignore explicitly) or add a justified allow",
                        covered.len(),
                        variants.len(),
                        missing.join(", ")
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

/// `persist-before-ack`: within each linear group of a handler body (a
/// top-level match arm, or a run of statements between matches), an
/// ack/reply send must not precede the group's first persistent-state
/// write. Groups with no persist at all are reply-only paths (serving a
/// query) and are fine.
fn persist_before_ack(file: &SourceFile, ast: &Ast, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "kv"]) {
        return;
    }
    for f in handler_fns(file, ast) {
        let body = f.body.as_ref().expect("handler_fns filters bodies");
        for (lo, hi) in handler_groups(body) {
            let events = ack_events(tk, lo, hi);
            let first_persist = events.iter().find_map(|e| match e {
                AckEvent::Persist(i) => Some(*i),
                AckEvent::AckSend(_) => None,
            });
            let Some(persist_tok) = first_persist else {
                continue;
            };
            for e in &events {
                if let AckEvent::AckSend(i) = e {
                    if *i < persist_tok {
                        out.push(finding(
                            file,
                            "persist-before-ack",
                            tk.off(*i),
                            format!(
                                "ack/reply sent in `{}` before the persistent state it \
                                 covers is written (first persist is on line {}); a crash \
                                 between the two forgets acknowledged state — persist \
                                 first, then ack",
                                f.name,
                                file.line_of(tk.off(persist_tok)),
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// `tag-monotonicity`: assignments to stored tag/label fields must be
/// guarded by a comparison against the incoming value (or compute via
/// `max`/`cmp` on the right-hand side). An unguarded overwrite can move a
/// label backwards, which breaks atomicity across crashes and retries.
fn tag_monotonicity(file: &SourceFile, ast: &Ast, tk: &Toks, out: &mut Vec<Finding>) {
    if !in_crates(&file.rel, &["core", "kv", "simnet"]) {
        return;
    }
    const GUARD_MARKS: &[&str] = &[">", "<", "cmp", "max", "newer", "comparable"];
    for f in ast.all_fns() {
        let Some(body) = f.body.as_ref() else {
            continue;
        };
        if file.in_test_code(f.offset) {
            continue;
        }
        for a in assignments_with_guards(tk, body) {
            if !a.is_place {
                continue;
            }
            let Some(field) = a.lhs_idents.last() else {
                continue;
            };
            if !TAG_FIELDS.contains(&field.as_str()) {
                continue;
            }
            let rhs_guarded = (a.rhs.0..a.rhs.1.min(tk.toks.len()))
                .any(|i| tk.is_ident(i) && matches!(tk.t(i), "max" | "cmp"));
            let ctx_guarded = a
                .guards
                .iter()
                .any(|g| GUARD_MARKS.iter().any(|m| g.contains(m)));
            if rhs_guarded || ctx_guarded {
                continue;
            }
            out.push(finding(
                file,
                "tag-monotonicity",
                tk.off(a.eq_tok),
                format!(
                    "assignment to tag field `{field}` has no compare/max guard against \
                     the incoming value; an unconditional overwrite can move the label \
                     backwards — guard with `if incoming > stored` or use `max`",
                ),
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
        check_file(&SourceFile::new(rel.into(), src), &Workspace::default()).findings
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
    fn ack_before_persist_flagged_persist_first_clean() {
        let bad = "fn on_message(&mut self, fx: &mut F) { match msg { Msg::Update { uid, label, value } => { fx.send(from, Msg::UpdateAck { uid }); self.replica.adopt(label, value); } } }\n";
        let f = check("crates/core/src/a.rs", bad);
        assert_eq!(
            f.iter().filter(|f| f.rule == "persist-before-ack").count(),
            1
        );
        let good = "fn on_message(&mut self, fx: &mut F) { match msg { Msg::Update { uid, label, value } => { self.replica.adopt(label, value); fx.send(from, Msg::UpdateAck { uid }); } } }\n";
        assert!(check("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn reply_only_paths_and_sibling_arms_do_not_interact() {
        // A query reply with no persist in its own arm is fine even though
        // a sibling arm persists.
        let src = "fn on_message(&mut self, fx: &mut F) { match msg { Msg::Query { uid } => { fx.send(from, Msg::QueryReply { uid }); } Msg::Update { uid, label, value } => { self.replica.adopt(label, value); fx.send(from, Msg::UpdateAck { uid }); } } }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn unguarded_tag_overwrite_flagged_guarded_clean() {
        let bad = "fn adopt(&mut self, label: u64) { self.label = label; }\n";
        let f = check("crates/core/src/a.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "tag-monotonicity").count(), 1);
        let guarded =
            "fn adopt(&mut self, label: u64) { if label > self.label { self.label = label; } }\n";
        assert!(check("crates/core/src/a.rs", guarded).is_empty());
        let via_max = "fn adopt(&mut self, label: u64) { self.label = self.label.max(label); }\n";
        assert!(check("crates/core/src/a.rs", via_max).is_empty());
    }

    #[test]
    fn let_bindings_and_compound_assigns_are_not_tag_overwrites() {
        let src = "fn f(&mut self) { let label = 3; self.count += 1; }\n";
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

    #[test]
    fn missing_enum_variant_flagged_full_coverage_clean() {
        let bad = "enum Msg { A, B, C }\nimpl N { fn on_message(&mut self, msg: Msg) { match msg { Msg::A => {} Msg::B => {} } } }\n";
        let f = check("crates/core/src/a.rs", bad);
        let ex: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "exhaustive-msg-handling")
            .collect();
        assert_eq!(ex.len(), 1);
        assert!(ex[0].message.contains("missing: C"));
        let good = "enum Msg { A, B }\nimpl N { fn on_message(&mut self, msg: Msg) { match msg { Msg::A => {} Msg::B => {} } } }\n";
        assert!(check("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn enum_resolution_uses_workspace_registry() {
        let mut ws = Workspace::default();
        ws.add_file(&SourceFile::new(
            "crates/core/src/msg.rs".into(),
            "pub enum RegisterMsg { Query, QueryReply, Update, UpdateAck }\n",
        ));
        let src = "fn on_message(&mut self, msg: M) { match msg { RegisterMsg::Query { .. } => {} RegisterMsg::Update { .. } => {} } }\n";
        let out = check_file(&SourceFile::new("crates/core/src/a.rs".into(), src), &ws);
        let ex: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == "exhaustive-msg-handling")
            .collect();
        assert_eq!(ex.len(), 1);
        assert!(ex[0].message.contains("QueryReply"));
        assert!(ex[0].message.contains("UpdateAck"));
    }

    #[test]
    fn unresolvable_enums_are_skipped() {
        let src = "fn on_message(&mut self, msg: M) { match msg { M::A => {} } }\n";
        assert!(check("crates/core/src/a.rs", src).is_empty());
    }
}
