//! Flow facts over the AST: calls and phase events.
//!
//! Two kinds of fact:
//!
//! * **Call sites** ([`calls_in`]) — every call inside one token range.
//!   Used by `panic-in-handler` and `raw-quorum-arith`.
//! * **The phase walk** ([`PhaseWalk`]) — a path-sensitive traversal that
//!   turns `Pending::X` patterns/constructions and `fx.respond` calls into
//!   a handler→phase transition graph, expanding same-file helper calls
//!   (`self.begin(..)`, `self.finish(..)`) inline. Calls under a condition
//!   that mentions the operation `queue` are **not** expanded: draining the
//!   queue starts the *next* operation, so its phase entries are not
//!   transitions of the current one. Used by `phase-graph`.

use crate::ast::{ArmBody, Ast, Block, FnDef, Span, Stmt};
use crate::lex::{text, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// A convenience view over one parsed file for token-range scanning.
pub struct Toks<'a> {
    /// Cleaned text.
    pub clean: &'a str,
    /// Token stream.
    pub toks: &'a [Token],
}

impl<'a> Toks<'a> {
    /// Builds the view.
    pub fn new(clean: &'a str, ast: &'a Ast) -> Toks<'a> {
        Toks {
            clean,
            toks: &ast.toks,
        }
    }

    /// Text of token `i` (empty past the end).
    pub fn t(&self, i: usize) -> &'a str {
        match self.toks.get(i) {
            Some(t) => text(self.clean, t),
            None => "",
        }
    }

    /// Byte offset of token `i`.
    pub fn off(&self, i: usize) -> usize {
        self.toks.get(i).map(|t| t.start).unwrap_or(0)
    }

    /// Whether token `i` is an identifier.
    pub fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).map(|t| t.kind) == Some(TokKind::Ident)
    }

    /// Token index of the closer matching the opener at `open`, or `hi` if
    /// unbalanced.
    pub fn matching(&self, open: usize, hi: usize) -> usize {
        let (o, c) = match self.t(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return open,
        };
        let mut depth = 0usize;
        for i in open..hi.min(self.toks.len()) {
            let t = self.t(i);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        hi
    }

    /// The receiver chain of a call whose name token is at `i`: the
    /// `.`-separated identifiers before it, outermost first. Empty for a
    /// free function call or a chained call off a non-identifier.
    pub fn chain_before(&self, i: usize) -> Vec<&'a str> {
        let mut chain = Vec::new();
        let mut j = i;
        while j >= 2 && self.t(j - 1) == "." && self.is_ident(j - 2) {
            chain.push(self.t(j - 2));
            j -= 2;
        }
        chain.reverse();
        chain
    }
}

/// One call site found by [`calls_in`].
#[derive(Debug)]
pub struct CallSite<'a> {
    /// Called name (method or function).
    pub name: &'a str,
    /// Token index of the name.
    pub tok: usize,
    /// Token index of the opening `(`.
    pub args_open: usize,
    /// Token index of the matching `)`.
    pub args_close: usize,
}

/// All call sites in the token range `[lo, hi)`: an identifier directly
/// followed by `(`. Definitions (`fn name(`) are excluded.
pub fn calls_in<'a>(tk: &Toks<'a>, lo: usize, hi: usize) -> Vec<CallSite<'a>> {
    let mut out = Vec::new();
    let hi = hi.min(tk.toks.len());
    for i in lo..hi {
        if !tk.is_ident(i) || i + 1 >= hi || tk.t(i + 1) != "(" {
            continue;
        }
        if i > 0 && tk.t(i - 1) == "fn" {
            continue;
        }
        let args_open = i + 1;
        let args_close = tk.matching(args_open, hi);
        out.push(CallSite {
            name: tk.t(i),
            tok: i,
            args_open,
            args_close,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Phase-graph extraction
// ---------------------------------------------------------------------------

/// Sources the walk currently attributes control to.
type Sources = BTreeSet<String>;

/// A directed phase transition graph: `(from, to) → byte offset of the
/// event that first created the edge`.
pub type PhaseGraph = BTreeMap<(String, String), usize>;

/// Pseudo-sources that never emit edges: they mark "some delivery/timer
/// context" rather than a protocol phase the operation passed through.
const PSEUDO: &[&str] = &["Deliver", "Timer", "Start"];

/// Result of walking a region: where control ends up on fall-through (if
/// the region can fall through) and the union of sources at `return`s.
struct Exit {
    fall: Option<Sources>,
    ret: Sources,
}

/// Path-sensitive phase-transition extractor for one file.
pub struct PhaseWalk<'a> {
    tk: Toks<'a>,
    fns: BTreeMap<&'a str, &'a FnDef>,
    /// Extracted transition graph.
    pub graph: PhaseGraph,
}

impl<'a> PhaseWalk<'a> {
    /// Runs extraction over every handler function of the file whose byte
    /// offset is accepted by `include` (use it to exclude test code).
    pub fn extract(clean: &'a str, ast: &'a Ast, include: &dyn Fn(usize) -> bool) -> PhaseWalk<'a> {
        let tk = Toks::new(clean, ast);
        let mut fns = BTreeMap::new();
        for f in ast.all_fns() {
            if f.body.is_some() && include(f.offset) {
                fns.entry(f.name.as_str()).or_insert(f);
            }
        }
        let mut w = PhaseWalk {
            tk,
            fns,
            graph: BTreeMap::new(),
        };
        for (handler, source) in [
            ("on_invoke", "Invoke"),
            ("on_restart", "Restart"),
            ("on_message", "Deliver"),
            ("on_timer", "Timer"),
            ("on_start", "Start"),
        ] {
            if let Some(f) = w.fns.get(handler).copied() {
                let mut sources = Sources::new();
                sources.insert(source.to_string());
                let mut stack = vec![handler.to_string()];
                if let Some(b) = &f.body {
                    w.walk_block(b, sources, &mut stack, false);
                }
            }
        }
        w
    }

    fn emit(&mut self, sources: &Sources, to: &str, off: usize) {
        for s in sources {
            if PSEUDO.contains(&s.as_str()) || s == to {
                continue;
            }
            self.graph.entry((s.clone(), to.to_string())).or_insert(off);
        }
    }

    fn walk_block(
        &mut self,
        b: &Block,
        mut sources: Sources,
        stack: &mut Vec<String>,
        cut: bool,
    ) -> Exit {
        let mut ret = Sources::new();
        for s in &b.stmts {
            let exit = self.walk_stmt(s, sources, stack, cut);
            ret.extend(exit.ret);
            match exit.fall {
                Some(next) => sources = next,
                None => return Exit { fall: None, ret },
            }
        }
        Exit {
            fall: Some(sources),
            ret,
        }
    }

    fn walk_stmt(
        &mut self,
        s: &Stmt,
        mut sources: Sources,
        stack: &mut Vec<String>,
        cut: bool,
    ) -> Exit {
        match s {
            Stmt::Expr(sp) => {
                self.apply_span(*sp, Ctx::Expr, &mut sources, stack, cut);
                Exit {
                    fall: Some(sources),
                    ret: Sources::new(),
                }
            }
            Stmt::Return(sp) => {
                self.apply_span(*sp, Ctx::Expr, &mut sources, stack, cut);
                Exit {
                    fall: None,
                    ret: sources,
                }
            }
            Stmt::Let(l) => {
                let mut ret = Sources::new();
                self.apply_span(l.init, Ctx::Expr, &mut sources, stack, cut);
                if let Some(e) = &l.else_ {
                    // let-else: the else block sees pre-pattern sources and
                    // must diverge, so only its returns matter.
                    let exit = self.walk_block(e, sources.clone(), stack, cut);
                    ret.extend(exit.ret);
                }
                self.apply_span(l.pat, Ctx::Pattern, &mut sources, stack, cut);
                Exit {
                    fall: Some(sources),
                    ret,
                }
            }
            Stmt::If(i) => {
                let cond_cut = cut || self.mentions_queue(i.cond);
                let then_sources = self.apply_cond(i.cond, &mut sources, stack, cut);
                let then_exit = self.walk_block(&i.then, then_sources, stack, cond_cut);
                let mut ret = then_exit.ret;
                let else_exit = match &i.else_ {
                    Some(e) => self.walk_stmt(e, sources, stack, cond_cut),
                    None => Exit {
                        fall: Some(sources),
                        ret: Sources::new(),
                    },
                };
                ret.extend(else_exit.ret);
                let fall = match (then_exit.fall, else_exit.fall) {
                    (Some(mut a), Some(b)) => {
                        a.extend(b);
                        Some(a)
                    }
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (None, None) => None,
                };
                Exit { fall, ret }
            }
            Stmt::Match(m) => {
                let arm_cut = cut || self.mentions_queue(m.scrutinee);
                self.apply_span(m.scrutinee, Ctx::Expr, &mut sources, stack, cut);
                let mut ret = Sources::new();
                let mut fall: Option<Sources> = None;
                for a in &m.arms {
                    let mut s_arm = sources.clone();
                    self.apply_span(a.pat, Ctx::Pattern, &mut s_arm, stack, arm_cut);
                    let exit = match &a.body {
                        ArmBody::Block(b) => self.walk_block(b, s_arm, stack, arm_cut),
                        ArmBody::Stmt(st) => self.walk_stmt(st, s_arm, stack, arm_cut),
                        ArmBody::Expr(sp) => {
                            if sp.lo < sp.hi && self.tk.t(sp.lo) == "return" {
                                Exit {
                                    fall: None,
                                    ret: s_arm,
                                }
                            } else {
                                self.apply_span(*sp, Ctx::Expr, &mut s_arm, stack, arm_cut);
                                Exit {
                                    fall: Some(s_arm),
                                    ret: Sources::new(),
                                }
                            }
                        }
                    };
                    ret.extend(exit.ret);
                    if let Some(f) = exit.fall {
                        match &mut fall {
                            Some(acc) => acc.extend(f),
                            None => fall = Some(f),
                        }
                    }
                }
                if m.arms.is_empty() {
                    fall = Some(sources);
                }
                Exit { fall, ret }
            }
            Stmt::While { cond, body } => {
                let body_cut = cut || self.mentions_queue(*cond);
                let body_sources = self.apply_cond(*cond, &mut sources, stack, cut);
                let exit = self.walk_block(body, body_sources, stack, body_cut);
                let mut fall = sources;
                if let Some(f) = exit.fall {
                    fall.extend(f);
                }
                Exit {
                    fall: Some(fall),
                    ret: exit.ret,
                }
            }
            Stmt::Loop { head, body } => {
                let body_cut = cut || self.mentions_queue(*head);
                let exit = self.walk_block(body, sources.clone(), stack, body_cut);
                let mut fall = sources;
                if let Some(f) = exit.fall {
                    fall.extend(f);
                }
                Exit {
                    fall: Some(fall),
                    ret: exit.ret,
                }
            }
            Stmt::Block(b) => self.walk_block(b, sources, stack, cut),
            Stmt::ItemFn(_) => Exit {
                fall: Some(sources),
                ret: Sources::new(),
            },
        }
    }

    fn mentions_queue(&self, sp: Span) -> bool {
        (sp.lo..sp.hi.min(self.tk.toks.len()))
            .any(|i| matches!(self.tk.t(i), "queue" | "pop_front"))
    }

    /// Applies an `if`/`while` condition: expression events to `sources`,
    /// which both branches continue from; `let`-pattern consumes to the
    /// taken branch alone, whose sources it returns.
    fn apply_cond(
        &mut self,
        cond: Span,
        sources: &mut Sources,
        stack: &mut Vec<String>,
        cut: bool,
    ) -> Sources {
        let (mut expr, mut pat) = (cond, None);
        if cond.lo < cond.hi && self.tk.t(cond.lo) == "let" {
            // `let PAT = EXPR`: split at the `=` at depth 0.
            let mut depth = 0usize;
            for i in cond.lo..cond.hi {
                match self.tk.t(i) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "=" if depth == 0 => {
                        expr.lo = i + 1;
                        pat = Some(Span {
                            lo: cond.lo + 1,
                            hi: i,
                        });
                        break;
                    }
                    _ => {}
                }
            }
        }
        self.apply_span(expr, Ctx::Expr, sources, stack, cut);
        let mut taken = sources.clone();
        if let Some(pat) = pat {
            self.apply_span(pat, Ctx::Pattern, &mut taken, stack, cut);
        }
        taken
    }

    /// Scans one flat token span for phase events and applies them to
    /// `sources` in order. Call arguments are scanned inline (so
    /// `Some(Pending::X { .. })` establishes are seen); local helper
    /// callees are additionally expanded body-first at the call token.
    fn apply_span(
        &mut self,
        sp: Span,
        ctx: Ctx,
        sources: &mut Sources,
        stack: &mut Vec<String>,
        cut: bool,
    ) {
        let hi = sp.hi.min(self.tk.toks.len());
        let pattern = ctx == Ctx::Pattern;
        let mut i = sp.lo;
        while i < hi {
            let t = self.tk.t(i);
            // `Pending::X` — consume in patterns, establish in expressions.
            if t == "Pending" && i + 2 < hi && self.tk.t(i + 1) == "::" && self.tk.is_ident(i + 2) {
                let phase = self.tk.t(i + 2).to_string();
                let off = self.tk.off(i + 2);
                if !pattern {
                    self.emit(sources, &phase, off);
                }
                *sources = Sources::from([phase]);
                i += 3;
                continue;
            }
            if !pattern && self.tk.is_ident(i) && i + 1 < hi && self.tk.t(i + 1) == "(" {
                let name = self.tk.t(i);
                if name == "respond" {
                    self.emit(sources, "Done", self.tk.off(i));
                } else if !cut && !stack.iter().any(|s| s == name) {
                    let chain = self.tk.chain_before(i);
                    if chain.is_empty() || chain == ["self"] {
                        if let Some(f) = self.fns.get(name).copied() {
                            if let Some(b) = &f.body {
                                stack.push(name.to_string());
                                let exit = self.walk_block(b, sources.clone(), stack, false);
                                stack.pop();
                                let mut next = exit.ret;
                                if let Some(f) = exit.fall {
                                    next.extend(f);
                                }
                                if !next.is_empty() {
                                    *sources = next;
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

/// Where a span being scanned sits, for [`PhaseWalk::apply_span`].
#[derive(Clone, Copy, PartialEq)]
enum Ctx {
    /// Ordinary expression position.
    Expr,
    /// Pattern position: `Pending::X` consumes instead of establishing.
    Pattern,
}

/// Renders a phase graph as deterministic DOT (nodes and edges sorted).
pub fn render_dot(name: &str, graph: &PhaseGraph) -> String {
    let mut s = String::new();
    s.push_str(&format!("digraph {} {{\n", name.replace('-', "_")));
    s.push_str("  rankdir=LR;\n");
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b) in graph.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    for n in &nodes {
        s.push_str(&format!("  \"{n}\";\n"));
    }
    for (a, b) in graph.keys() {
        s.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn walk(src: &str) -> Vec<String> {
        let file = SourceFile::new("crates/core/src/t.rs".into(), src);
        let ast = Ast::parse(&file);
        let w = PhaseWalk::extract(&file.clean, &ast, &|_| true);
        w.graph.keys().map(|(a, b)| format!("{a}->{b}")).collect()
    }

    #[test]
    fn invoke_establishes_phase() {
        let src =
            "impl N { fn on_invoke(&mut self) { self.pending = Some(Pending::Query { op }); } }";
        assert_eq!(walk(src), vec!["Invoke->Query"]);
    }

    #[test]
    fn consume_then_establish_links_phases() {
        let src = r#"
impl N {
    fn on_message(&mut self) {
        if let Some(Pending::Query { op, .. }) = self.pending.take() {
            self.pending = Some(Pending::WriteBack { op });
        }
    }
}"#;
        assert_eq!(walk(src), vec!["Query->WriteBack"]);
    }

    #[test]
    fn respond_is_done_and_queue_guarded_helpers_are_cut() {
        let src = r#"
impl N {
    fn finish(&mut self, fx: &mut F) {
        self.pending = None;
        fx.respond(op, resp);
        if let Some(next) = self.queue.pop_front() { self.begin(next); }
    }
    fn begin(&mut self, fx: &mut F) {
        self.pending = Some(Pending::Query { op });
    }
    fn on_message(&mut self, fx: &mut F) {
        if let Some(Pending::Query { op, .. }) = self.pending.take() {
            self.finish(fx);
        }
    }
}"#;
        // The queue-guarded begin starts the *next* operation; no
        // Query->Query self edge may appear.
        assert_eq!(walk(src), vec!["Query->Done"]);
    }

    #[test]
    fn early_return_branch_does_not_leak_sources() {
        // The instant-quorum branch responds and returns; the establish on
        // the fall-through path must still source from Invoke.
        let src = r#"
impl N {
    fn on_invoke(&mut self, fx: &mut F) {
        if self.cfg.quorum.is_write_quorum(ph.responders()) {
            fx.respond(op, resp);
            return;
        }
        self.pending = Some(Pending::Write { op });
    }
}"#;
        assert_eq!(walk(src), vec!["Invoke->Done", "Invoke->Write"]);
    }

    #[test]
    fn establish_inside_some_call_args_is_seen() {
        let src = "impl N { fn on_invoke(&mut self) { self.pending = Some(Pending::Write { op: make(op) }); } }";
        assert_eq!(walk(src), vec!["Invoke->Write"]);
    }
}
