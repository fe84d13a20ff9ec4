//! Flow facts over the AST: calls, assignments, phase events.
//!
//! Three consumers, three kinds of fact:
//!
//! * **Linear scans** ([`calls_in`], [`ack_events`]) — ordered call sites,
//!   ack-payload sends and persistent-field writes inside one token range.
//!   Used by `persist-before-ack` (rule 6) and the call-site rules
//!   (`panic-in-handler`, `raw-quorum-arith`).
//! * **Guarded assignments** ([`assignments_with_guards`]) — every field
//!   write paired with the text of the conditions enclosing it. Used by
//!   `tag-monotonicity` (rule 7).
//! * **The phase walk** ([`PhaseWalk`]) — a path-sensitive traversal that
//!   turns `Pending::X` patterns/constructions and `fx.respond` calls into
//!   a handler→phase transition graph, expanding same-file helper calls
//!   (`self.begin(..)`, `self.finish(..)`) inline. Calls under a condition
//!   that mentions the operation `queue` are **not** expanded: draining the
//!   queue starts the *next* operation, so its phase entries are not
//!   transitions of the current one. Used by `phase-graph` (rule 8).

use crate::ast::{Arm, ArmBody, Ast, Block, FnDef, Span, Stmt};
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
    /// Receiver chain (`self`, `fx`, ...), empty for free calls.
    pub chain: Vec<&'a str>,
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
            chain: tk.chain_before(i),
            args_open,
            args_close,
        });
    }
    out
}

/// The token range `(lo, hi)` covered by a statement subtree.
fn stmt_tok_range(s: &Stmt) -> Option<(usize, usize)> {
    match s {
        Stmt::Expr(sp) | Stmt::Return(sp) => Some((sp.lo, sp.hi)),
        Stmt::If(i) => {
            let end = i
                .else_
                .as_deref()
                .and_then(stmt_tok_range)
                .map(|(_, h)| h)
                .unwrap_or(i.then.close + 1);
            Some((i.cond.lo, end))
        }
        Stmt::Match(m) => {
            let end = m.arms.last().and_then(arm_range).map(|(_, h)| h);
            Some((m.scrutinee.lo, end.unwrap_or(m.scrutinee.hi)))
        }
        Stmt::While { cond, body } => Some((cond.lo, body.close + 1)),
        Stmt::Loop { head, body } => Some((head.lo, body.close + 1)),
        Stmt::Let(l) => {
            let end = l
                .else_
                .as_ref()
                .map(|b| b.close + 1)
                .unwrap_or(l.init.hi.max(l.pat.hi));
            Some((l.pat.lo, end))
        }
        Stmt::Block(b) => Some((b.open, b.close + 1)),
        Stmt::ItemFn(_) => None,
    }
}

fn arm_range(a: &Arm) -> Option<(usize, usize)> {
    match &a.body {
        ArmBody::Block(b) => Some((a.pat.lo, b.close + 1)),
        ArmBody::Stmt(s) => stmt_tok_range(s).map(|(_, h)| (a.pat.lo, h)),
        ArmBody::Expr(sp) => Some((a.pat.lo, sp.hi)),
    }
}

/// Linear groups of a handler body for rule 7. Each **top-level arm** of a
/// statement-level `match` is one group (nested matches stay inside their
/// outer arm's group — a liar branch and its honest sibling belong to the
/// same delivery). Runs of plain statements between matches form their own
/// groups, so arms of unrelated deliveries never interleave.
pub fn handler_groups(body: &Block) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut run: Option<(usize, usize)> = None;
    for s in &body.stmts {
        if let Stmt::Match(m) = s {
            if let Some(r) = run.take() {
                groups.push(r);
            }
            for a in &m.arms {
                if let Some(r) = arm_range(a) {
                    groups.push(r);
                }
            }
        } else if let Some((lo, hi)) = stmt_tok_range(s) {
            run = Some(match run {
                Some((l, _)) => (l, hi),
                None => (lo, hi),
            });
        }
    }
    if let Some(r) = run {
        groups.push(r);
    }
    groups
}

/// Persistent-state fields: writing one of these (or calling `adopt(..)`,
/// or `insert`ing into a `store`) is what "persist" means to rule 7.
pub const PERSIST_FIELDS: &[&str] = &[
    "replica",
    "store",
    "stored_label",
    "stored_value",
    "label",
    "value",
    "seq",
    "fenced",
    "config",
];

/// An ordered persist/ack event inside one handler group.
#[derive(Debug, PartialEq)]
pub enum AckEvent {
    /// `send(.., ..Ack/..Reply ..)` — the name token's index.
    AckSend(usize),
    /// A persistent-field mutation or `adopt(..)` call — the token index.
    Persist(usize),
}

/// Extracts rule 6's event stream from a token range, in token order.
pub fn ack_events(tk: &Toks, lo: usize, hi: usize) -> Vec<AckEvent> {
    let mut out = Vec::new();
    let hi = hi.min(tk.toks.len());
    for c in calls_in(tk, lo, hi) {
        match c.name {
            "send" => {
                // Ack-shaped payload: any identifier in the argument list
                // ending in `Ack` or `Reply` (message variant names).
                let acky = (c.args_open..=c.args_close.min(hi.saturating_sub(1)))
                    .filter(|&i| tk.is_ident(i))
                    .any(|i| {
                        let t = tk.t(i);
                        t.ends_with("Ack") || t.ends_with("Reply")
                    });
                if acky {
                    out.push(AckEvent::AckSend(c.tok));
                }
            }
            "adopt" => out.push(AckEvent::Persist(c.tok)),
            "insert" if c.chain.contains(&"store") => out.push(AckEvent::Persist(c.tok)),
            _ => {}
        }
    }
    // Field writes: a lone `=` whose left-hand side ends with a field
    // access on a persistent field.
    for i in lo..hi {
        if tk.t(i) != "=" || i < 2 {
            continue;
        }
        if tk.is_ident(i - 1) && tk.t(i - 2) == "." && PERSIST_FIELDS.contains(&tk.t(i - 1)) {
            out.push(AckEvent::Persist(i - 1));
        }
    }
    out.sort_by_key(|e| match e {
        AckEvent::AckSend(i) | AckEvent::Persist(i) => *i,
    });
    out
}

/// One field assignment with its guard context, for rule 8.
#[derive(Debug)]
pub struct GuardedAssign {
    /// Token index of the `=`.
    pub eq_tok: usize,
    /// Identifiers on the left-hand side, in order.
    pub lhs_idents: Vec<String>,
    /// Whether the LHS is a place expression (field access or deref).
    pub is_place: bool,
    /// Right-hand-side token range.
    pub rhs: (usize, usize),
    /// Text of every enclosing `if`/`while` condition, `match` scrutinee
    /// and arm pattern, outermost first.
    pub guards: Vec<String>,
}

/// Collects every plain `=` assignment in a function body together with
/// its enclosing guard text. Compound assignments (`+=`, ...) lex as fused
/// tokens and are never collected; `let` bindings introduce fresh names
/// and are skipped too.
pub fn assignments_with_guards(tk: &Toks, body: &Block) -> Vec<GuardedAssign> {
    let mut out = Vec::new();
    let mut guards = Vec::new();
    walk_assigns(tk, body, &mut guards, &mut out);
    out
}

fn span_text(tk: &Toks, sp: Span) -> String {
    let mut s = String::new();
    for i in sp.lo..sp.hi.min(tk.toks.len()) {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(tk.t(i));
    }
    s
}

fn walk_assigns(tk: &Toks, b: &Block, guards: &mut Vec<String>, out: &mut Vec<GuardedAssign>) {
    for s in &b.stmts {
        walk_assigns_stmt(tk, s, guards, out);
    }
}

fn walk_assigns_stmt(tk: &Toks, s: &Stmt, guards: &mut Vec<String>, out: &mut Vec<GuardedAssign>) {
    match s {
        Stmt::Expr(sp) => assigns_in_span(tk, *sp, guards, out),
        Stmt::Return(_) | Stmt::ItemFn(_) => {}
        Stmt::Let(l) => {
            if let Some(e) = &l.else_ {
                walk_assigns(tk, e, guards, out);
            }
        }
        Stmt::If(i) => {
            guards.push(span_text(tk, i.cond));
            walk_assigns(tk, &i.then, guards, out);
            if let Some(e) = &i.else_ {
                walk_assigns_stmt(tk, e, guards, out);
            }
            guards.pop();
        }
        Stmt::Match(m) => {
            guards.push(span_text(tk, m.scrutinee));
            for a in &m.arms {
                guards.push(span_text(tk, a.pat));
                match &a.body {
                    ArmBody::Block(b) => walk_assigns(tk, b, guards, out),
                    ArmBody::Stmt(s) => walk_assigns_stmt(tk, s, guards, out),
                    ArmBody::Expr(sp) => assigns_in_span(tk, *sp, guards, out),
                }
                guards.pop();
            }
            guards.pop();
        }
        Stmt::While { cond, body } => {
            guards.push(span_text(tk, *cond));
            walk_assigns(tk, body, guards, out);
            guards.pop();
        }
        Stmt::Loop { body, .. } => walk_assigns(tk, body, guards, out),
        Stmt::Block(b) => walk_assigns(tk, b, guards, out),
    }
}

fn assigns_in_span(tk: &Toks, sp: Span, guards: &[String], out: &mut Vec<GuardedAssign>) {
    let hi = sp.hi.min(tk.toks.len());
    let mut depth = 0usize;
    for i in sp.lo..hi {
        match tk.t(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "=" if depth == 0 => {
                let mut lhs_idents = Vec::new();
                let mut is_place = false;
                for j in sp.lo..i {
                    if tk.is_ident(j) {
                        lhs_idents.push(tk.t(j).to_string());
                    }
                    if tk.t(j) == "." {
                        is_place = true;
                    }
                }
                if tk.t(sp.lo) == "*" {
                    is_place = true;
                }
                out.push(GuardedAssign {
                    eq_tok: i,
                    lhs_idents,
                    is_place,
                    rhs: (i + 1, hi),
                    guards: guards.to_vec(),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Phase-graph extraction (rule 8)
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

    #[test]
    fn ack_events_order_and_grouping() {
        let src = r#"
fn on_message(&mut self, fx: &mut F) {
    match msg {
        Msg::Query { uid } => {
            fx.send(from, Msg::QueryReply { uid });
        }
        Msg::Update { uid, label, value } => {
            self.replica.adopt(label, value);
            fx.send(from, Msg::UpdateAck { uid });
        }
    }
}"#;
        let file = SourceFile::new("crates/core/src/t.rs".into(), src);
        let ast = Ast::parse(&file);
        let tk = Toks::new(&file.clean, &ast);
        let f = &ast.all_fns()[0];
        let groups = handler_groups(f.body.as_ref().unwrap());
        // One group per top-level arm; the Query arm's reply must not see
        // the Update arm's persist.
        assert_eq!(groups.len(), 2);
        let per_group: Vec<Vec<&str>> = groups
            .iter()
            .map(|&(lo, hi)| {
                ack_events(&tk, lo, hi)
                    .iter()
                    .map(|e| match e {
                        AckEvent::Persist(_) => "persist",
                        AckEvent::AckSend(_) => "ack",
                    })
                    .collect()
            })
            .collect();
        assert_eq!(per_group, vec![vec!["ack"], vec!["persist", "ack"]]);
    }

    #[test]
    fn guarded_assignment_records_guards() {
        let src =
            "fn adopt(&mut self, label: u64) { if label > self.label { self.label = label; } }";
        let file = SourceFile::new("crates/core/src/t.rs".into(), src);
        let ast = Ast::parse(&file);
        let tk = Toks::new(&file.clean, &ast);
        let f = &ast.all_fns()[0];
        let assigns = assignments_with_guards(&tk, f.body.as_ref().unwrap());
        assert_eq!(assigns.len(), 1);
        assert!(assigns[0].is_place);
        assert_eq!(assigns[0].lhs_idents, vec!["self", "label"]);
        assert!(assigns[0].guards.iter().any(|g| g.contains('>')));
    }
}
