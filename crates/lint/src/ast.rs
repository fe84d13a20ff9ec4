//! A small, forgiving item/block parser for the rules.
//!
//! This is **not** a Rust parser. It recovers exactly the structure the
//! rules in [`crate::rules`] need — functions and their bodies, `impl` and
//! `mod` nesting, and inside bodies the `if` / `match` / `let` skeleton
//! with everything else left as flat token spans — and it does so with
//! zero dependencies over the token stream of [`crate::lex`]. Anything it
//! cannot shape (macro bodies, exotic items) degrades to an opaque
//! expression span rather than an error: a linter must never refuse to
//! look at a file.
//!
//! Known approximations, acceptable for this workspace's style:
//!
//! * a `{` at bracket-depth 0 in an `if`/`while`/`match` header is taken
//!   to start the body **unless** it directly follows a `::`-qualified
//!   path segment (a struct pattern/literal like `Pending::Write { .. }`),
//!   which is balanced-skipped;
//! * generic angle brackets are not matched (they never contain braces);
//! * statement spans absorb closures and parenthesised sub-expressions
//!   whole.
//!
//! Spans are pairs of indices into the token vector, which itself carries
//! byte offsets into the cleaned text — so every node can be mapped to a
//! line for diagnostics.

use crate::lex::{lex, TokKind, Token};
use crate::source::SourceFile;

/// Half-open range of token indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub lo: usize,
    /// One past the last token index.
    pub hi: usize,
}

impl Span {
    /// The empty span at `at`.
    pub fn empty(at: usize) -> Span {
        Span { lo: at, hi: at }
    }
    /// Whether the span contains no tokens.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// A parsed file: the token stream plus the item tree over it.
#[derive(Debug)]
pub struct Ast {
    /// Every token of the cleaned text.
    pub toks: Vec<Token>,
    /// Top-level items.
    pub items: Vec<Item>,
}

/// One top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function with (optionally) a body.
    Fn(FnDef),
    /// An `impl` or `trait` block: a named container of functions.
    Impl(ImplDef),
    /// A `mod name { ... }` with nested items.
    Mod(ModDef),
}

/// A function definition (or bodyless trait method).
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Byte offset of the name token (for diagnostics).
    pub offset: usize,
    /// Token span of the signature between name and body/semicolon.
    pub sig: Span,
    /// The body, absent for trait method declarations.
    pub body: Option<Block>,
}

/// An `impl` (or `trait`) block.
#[derive(Debug)]
pub struct ImplDef {
    /// The implemented type (or trait) name, best-effort.
    pub type_name: String,
    /// Byte offset of the `impl`/`trait` keyword.
    pub offset: usize,
    /// Items inside the block (functions, mostly).
    pub items: Vec<Item>,
}

/// An inline module.
#[derive(Debug)]
pub struct ModDef {
    /// Module name.
    pub name: String,
    /// Byte offset of the name token.
    pub offset: usize,
    /// Nested items.
    pub items: Vec<Item>,
}

/// A `{ ... }` block of statements.
#[derive(Debug)]
pub struct Block {
    /// Token index of the opening brace.
    pub open: usize,
    /// Token index of the closing brace.
    pub close: usize,
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement (or statement-position construct).
#[derive(Debug)]
pub enum Stmt {
    /// `if cond { .. } [else ..]` — also `if let`.
    If(IfStmt),
    /// `match scrutinee { arms }`.
    Match(MatchStmt),
    /// `while cond { .. }` — also `while let`.
    While {
        /// Condition token span.
        cond: Span,
        /// Loop body.
        body: Block,
    },
    /// `for pat in iter { .. }` (header kept flat) and bare `loop`.
    Loop {
        /// Header span (`pat in iter`, empty for `loop`).
        head: Span,
        /// Loop body.
        body: Block,
    },
    /// `let pat [= init] [else { .. }];` — a structured init (`match`/`if`)
    /// is emitted as the *following sibling* statement.
    Let(LetStmt),
    /// `return [expr];`
    Return(Span),
    /// A bare `{ .. }` (or `unsafe { .. }`) block.
    Block(Block),
    /// A nested `fn` item.
    ItemFn(FnDef),
    /// Anything else: a flat token span ending at `;` or the block edge.
    Expr(Span),
}

/// An `if` with its condition, then-branch and optional else.
#[derive(Debug)]
pub struct IfStmt {
    /// Condition span (`let pat = expr` for if-let, pattern included).
    pub cond: Span,
    /// Then-branch.
    pub then: Block,
    /// `else` branch: a [`Stmt::Block`] or a chained [`Stmt::If`].
    pub else_: Option<Box<Stmt>>,
}

/// A `match` with its arms.
#[derive(Debug)]
pub struct MatchStmt {
    /// Scrutinee span.
    pub scrutinee: Span,
    /// Arms in order.
    pub arms: Vec<Arm>,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Pattern span (alternatives and guards included).
    pub pat: Span,
    /// Arm body.
    pub body: ArmBody,
}

/// The body of a match arm.
#[derive(Debug)]
pub enum ArmBody {
    /// `=> { ... }`
    Block(Block),
    /// `=> match/if ...` parsed structurally.
    Stmt(Box<Stmt>),
    /// `=> expr`
    Expr(Span),
}

/// A `let` statement head.
#[derive(Debug)]
pub struct LetStmt {
    /// Pattern span (between `let` and `=`, or the whole head if no `=`).
    pub pat: Span,
    /// Initializer span (after `=`; empty if none or if structured).
    pub init: Span,
    /// `else { .. }` block of a let-else.
    pub else_: Option<Block>,
}

impl Ast {
    /// Lexes and parses one prepared source file.
    pub fn parse(file: &SourceFile) -> Ast {
        let toks = lex(&file.clean);
        let mut p = Parser {
            toks: &toks,
            clean: &file.clean,
            cur: 0,
        };
        let items = p.items_until(usize::MAX);
        Ast { toks, items }
    }

    /// Token text helper.
    pub fn text<'a>(&self, clean: &'a str, i: usize) -> &'a str {
        crate::lex::text(clean, &self.toks[i])
    }

    /// Every function in the file, with nesting flattened.
    pub fn all_fns(&self) -> Vec<&FnDef> {
        let mut out = Vec::new();
        collect_fns(&self.items, &mut out);
        out
    }
}

fn collect_fns<'a>(items: &'a [Item], out: &mut Vec<&'a FnDef>) {
    for it in items {
        match it {
            Item::Fn(f) => {
                out.push(f);
                if let Some(b) = &f.body {
                    collect_block_fns(b, out);
                }
            }
            Item::Impl(i) => collect_fns(&i.items, out),
            Item::Mod(m) => collect_fns(&m.items, out),
        }
    }
}

fn collect_block_fns<'a>(b: &'a Block, out: &mut Vec<&'a FnDef>) {
    for s in &b.stmts {
        if let Stmt::ItemFn(f) = s {
            out.push(f);
            if let Some(body) = &f.body {
                collect_block_fns(body, out);
            }
        }
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    clean: &'a str,
    cur: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self, end: usize) -> bool {
        self.cur >= self.toks.len() || self.cur >= end
    }

    fn txt(&self, i: usize) -> &'a str {
        crate::lex::text(self.clean, &self.toks[i])
    }

    fn is(&self, i: usize, s: &str) -> bool {
        i < self.toks.len() && self.txt(i) == s
    }

    /// Skips one balanced `(..)`, `[..]` or `{..}` group starting at `cur`.
    fn skip_balanced(&mut self) {
        let close = match self.txt(self.cur) {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.cur += 1;
                return;
            }
        };
        let open = self.txt(self.cur);
        let mut depth = 0usize;
        while self.cur < self.toks.len() {
            let t = self.txt(self.cur);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.cur += 1;
                    return;
                }
            }
            self.cur += 1;
        }
    }

    /// Parses items until token index `end` (exclusive) or a `}` at this
    /// nesting level.
    fn items_until(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.at_end(end) {
            let t = self.txt(self.cur);
            match t {
                "}" => break,
                "#" => {
                    // Attribute: `#` `[..]` (or `#![..]`).
                    self.cur += 1;
                    if self.is(self.cur, "!") {
                        self.cur += 1;
                    }
                    if self.is(self.cur, "[") {
                        self.skip_balanced();
                    }
                }
                "pub" => {
                    self.cur += 1;
                    if self.is(self.cur, "(") {
                        self.skip_balanced();
                    }
                }
                "unsafe" | "extern" | "async" | "const" if self.is_fn_modifier() => {
                    self.cur += 1;
                }
                "fn" => {
                    let f = self.parse_fn();
                    items.push(Item::Fn(f));
                }
                "impl" | "trait" => {
                    let i = self.parse_impl();
                    items.push(Item::Impl(i));
                }
                "mod" => {
                    if let Some(m) = self.parse_mod() {
                        items.push(Item::Mod(m));
                    }
                }
                "struct" | "union" | "enum" => self.skip_struct(),
                "use" | "type" | "static" => self.skip_to_semi(),
                "const" => self.skip_to_semi(),
                "macro_rules" => {
                    self.cur += 1; // name, `!`, body — skip it all
                    while !self.at_end(end) && !matches!(self.txt(self.cur), "{" | "(" | "[") {
                        self.cur += 1;
                    }
                    if !self.at_end(end) {
                        self.skip_balanced();
                    }
                }
                _ => self.cur += 1, // stray token; keep going
            }
        }
        items
    }

    /// Whether the `unsafe`/`extern`/`async`/`const` at `cur` prefixes an
    /// item (as opposed to being an item keyword itself, like `const X`).
    fn is_fn_modifier(&self) -> bool {
        let mut j = self.cur + 1;
        if self.is(j, "(") || self.toks.get(j).map(|t| t.kind) == Some(TokKind::Ident) {
            // `extern "C" fn`, `const fn`, `const NAME: ...`, ...
            // A following `fn`/`impl`/`trait` keyword (possibly after one
            // string-blanked token) marks a modifier.
            for _ in 0..3 {
                if matches!(self.txt_or(j), "fn" | "impl" | "trait" | "unsafe") {
                    return true;
                }
                j += 1;
                if j >= self.toks.len() {
                    return false;
                }
            }
        }
        false
    }

    fn txt_or(&self, i: usize) -> &'a str {
        if i < self.toks.len() {
            self.txt(i)
        } else {
            ""
        }
    }

    fn parse_fn(&mut self) -> FnDef {
        self.cur += 1; // `fn`
        let (name, offset) = if self.cur < self.toks.len() {
            (self.txt(self.cur).to_string(), self.toks[self.cur].start)
        } else {
            (String::new(), 0)
        };
        self.cur += 1;
        let sig_lo = self.cur;
        // Scan to the body `{` or a `;` at paren/bracket depth 0.
        let mut depth = 0usize;
        while self.cur < self.toks.len() {
            match self.txt(self.cur) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    let sig = Span {
                        lo: sig_lo,
                        hi: self.cur,
                    };
                    let body = self.parse_block();
                    return FnDef {
                        name,
                        offset,
                        sig,
                        body: Some(body),
                    };
                }
                ";" if depth == 0 => {
                    let sig = Span {
                        lo: sig_lo,
                        hi: self.cur,
                    };
                    self.cur += 1;
                    return FnDef {
                        name,
                        offset,
                        sig,
                        body: None,
                    };
                }
                _ => {}
            }
            self.cur += 1;
        }
        FnDef {
            name,
            offset,
            sig: Span::empty(sig_lo),
            body: None,
        }
    }

    fn parse_impl(&mut self) -> ImplDef {
        let offset = self.toks[self.cur].start;
        self.cur += 1; // `impl` | `trait`
        let mut type_name = String::new();
        let mut after_for = false;
        // Everything up to the `{` at depth 0 is the header; the type name
        // is the last path head before it (after `for`, if present).
        let mut depth = 0usize;
        let mut angle = 0usize;
        while self.cur < self.toks.len() {
            let t = self.txt(self.cur);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "{" if depth == 0 => break,
                "for" if depth == 0 && angle == 0 => {
                    after_for = true;
                    type_name.clear();
                }
                _ if depth == 0 && angle == 0 && self.toks[self.cur].kind == TokKind::Ident => {
                    let keyword = matches!(t, "where" | "dyn" | "impl");
                    if !keyword && (type_name.is_empty() || !after_for) {
                        // Keep overwriting before `for`; keep the first after.
                        if !after_for || type_name.is_empty() {
                            type_name = t.to_string();
                        }
                    }
                }
                _ => {}
            }
            self.cur += 1;
        }
        let items = if self.is(self.cur, "{") {
            self.cur += 1;
            let items = self.items_until(usize::MAX);
            if self.is(self.cur, "}") {
                self.cur += 1;
            }
            items
        } else {
            Vec::new()
        };
        ImplDef {
            type_name,
            offset,
            items,
        }
    }

    fn parse_mod(&mut self) -> Option<ModDef> {
        self.cur += 1; // `mod`
        let name = self.txt_or(self.cur).to_string();
        let offset = self.toks.get(self.cur).map_or(0, |t| t.start);
        self.cur += 1;
        if self.is(self.cur, ";") {
            self.cur += 1;
            return None;
        }
        if !self.is(self.cur, "{") {
            return None;
        }
        self.cur += 1;
        let items = self.items_until(usize::MAX);
        if self.is(self.cur, "}") {
            self.cur += 1;
        }
        Some(ModDef {
            name,
            offset,
            items,
        })
    }

    fn skip_struct(&mut self) {
        self.cur += 1; // keyword
        while self.cur < self.toks.len() {
            match self.txt(self.cur) {
                ";" => {
                    self.cur += 1;
                    return;
                }
                "{" => {
                    self.skip_balanced();
                    return;
                }
                "(" => {
                    self.skip_balanced(); // tuple struct; `;` follows
                }
                _ => self.cur += 1,
            }
        }
    }

    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while self.cur < self.toks.len() {
            match self.txt(self.cur) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    self.cur += 1;
                    return;
                }
                _ => {}
            }
            self.cur += 1;
        }
    }

    // ---- blocks and statements ----

    fn parse_block(&mut self) -> Block {
        let open = self.cur; // `{`
        self.cur += 1;
        let mut stmts = Vec::new();
        while self.cur < self.toks.len() && !self.is(self.cur, "}") {
            let before = self.cur;
            if let Some(s) = self.parse_stmt() {
                stmts.push(s);
            }
            if self.cur == before {
                self.cur += 1; // never stall
            }
        }
        let close = self.cur.min(self.toks.len().saturating_sub(1));
        if self.is(self.cur, "}") {
            self.cur += 1;
        }
        Block { open, close, stmts }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        match self.txt(self.cur) {
            ";" => {
                self.cur += 1;
                None
            }
            "if" => Some(self.parse_if()),
            "match" => Some(self.parse_match()),
            "while" => {
                self.cur += 1;
                let cond = self.scan_header();
                let body = if self.is(self.cur, "{") {
                    self.parse_block()
                } else {
                    Block {
                        open: self.cur,
                        close: self.cur,
                        stmts: vec![],
                    }
                };
                Some(Stmt::While { cond, body })
            }
            "for" => {
                self.cur += 1;
                let head = self.scan_header();
                let body = if self.is(self.cur, "{") {
                    self.parse_block()
                } else {
                    Block {
                        open: self.cur,
                        close: self.cur,
                        stmts: vec![],
                    }
                };
                Some(Stmt::Loop { head, body })
            }
            "loop" => {
                self.cur += 1;
                let body = if self.is(self.cur, "{") {
                    self.parse_block()
                } else {
                    Block {
                        open: self.cur,
                        close: self.cur,
                        stmts: vec![],
                    }
                };
                Some(Stmt::Loop {
                    head: Span::empty(self.cur),
                    body,
                })
            }
            "unsafe" if self.is(self.cur + 1, "{") => {
                self.cur += 1;
                Some(Stmt::Block(self.parse_block()))
            }
            "let" => Some(self.parse_let()),
            "return" => {
                self.cur += 1;
                let lo = self.cur;
                let hi = self.scan_expr_end();
                Some(Stmt::Return(Span { lo, hi }))
            }
            "{" => Some(Stmt::Block(self.parse_block())),
            "fn" => Some(Stmt::ItemFn(self.parse_fn())),
            "#" => {
                // Statement attribute.
                self.cur += 1;
                if self.is(self.cur, "[") {
                    self.skip_balanced();
                }
                None
            }
            _ => {
                let lo = self.cur;
                let hi = self.scan_expr_end();
                if lo == hi {
                    None
                } else {
                    Some(Stmt::Expr(Span { lo, hi }))
                }
            }
        }
    }

    /// Advances over one flat expression statement; returns its end token
    /// index (exclusive). Stops *before* a `match`/`if` at depth 0 so the
    /// caller's loop parses it structurally, and consumes a terminating
    /// `;`. Braced sub-expressions (closure bodies, struct literals inside
    /// calls) are inside parens/brackets and thus absorbed by depth.
    fn scan_expr_end(&mut self) -> usize {
        let mut depth = 0usize;
        let start = self.cur;
        while self.cur < self.toks.len() {
            let t = self.txt(self.cur);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return self.cur; // stray close: give up here
                    }
                    depth -= 1;
                }
                "{" if depth == 0 => {
                    // Struct literal after a path (`Foo::Bar { .. }`) is
                    // absorbed; anything else ends the expression.
                    if self.prev_is_path_segment(self.cur) {
                        self.skip_balanced();
                        continue;
                    }
                    return self.cur;
                }
                "}" if depth == 0 => return self.cur,
                ";" if depth == 0 => {
                    let end = self.cur;
                    self.cur += 1;
                    return end;
                }
                "match" | "if" if depth == 0 && self.cur != start => return self.cur,
                _ => {}
            }
            self.cur += 1;
        }
        self.cur
    }

    /// Whether the token before `i` ends a `::` path segment (making a
    /// following `{` a struct pattern/literal brace).
    fn prev_is_path_segment(&self, i: usize) -> bool {
        i >= 2 && self.toks[i - 1].kind == TokKind::Ident && self.txt(i - 2) == "::"
    }

    /// Scans an `if`/`while`/`for`/`match` header up to the body `{`.
    ///
    /// A depth-0 `Path::Seg {` is a struct *pattern* brace only on the
    /// pattern side of a `let` header (before the depth-0 `=`); Rust
    /// forbids struct literals in header expression position, so
    /// everywhere else the brace opens the body.
    fn scan_header(&mut self) -> Span {
        let lo = self.cur;
        let is_let = self.txt(self.cur) == "let";
        let mut in_pattern = is_let;
        let mut depth = 0usize;
        while self.cur < self.toks.len() {
            match self.txt(self.cur) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "=" if depth == 0 => in_pattern = false,
                "{" if depth == 0 => {
                    if in_pattern && self.prev_is_path_segment(self.cur) {
                        self.skip_balanced();
                        continue;
                    }
                    return Span { lo, hi: self.cur };
                }
                _ => {}
            }
            self.cur += 1;
        }
        Span { lo, hi: self.cur }
    }

    fn parse_if(&mut self) -> Stmt {
        self.cur += 1; // `if`
        let cond = self.scan_header();
        let then = if self.is(self.cur, "{") {
            self.parse_block()
        } else {
            Block {
                open: self.cur,
                close: self.cur,
                stmts: vec![],
            }
        };
        let else_ = if self.is(self.cur, "else") {
            self.cur += 1;
            if self.is(self.cur, "if") {
                Some(Box::new(self.parse_if()))
            } else if self.is(self.cur, "{") {
                Some(Box::new(Stmt::Block(self.parse_block())))
            } else {
                None
            }
        } else {
            None
        };
        Stmt::If(IfStmt { cond, then, else_ })
    }

    fn parse_match(&mut self) -> Stmt {
        self.cur += 1; // `match`
        let scrutinee = self.scan_header();
        let mut arms = Vec::new();
        if self.is(self.cur, "{") {
            self.cur += 1;
            while self.cur < self.toks.len() && !self.is(self.cur, "}") {
                // Pattern: everything to `=>` at full bracket depth 0
                // (struct patterns' braces are balanced within).
                let pat_lo = self.cur;
                let mut depth = 0usize;
                while self.cur < self.toks.len() {
                    match self.txt(self.cur) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break; // malformed; bail to match close
                            }
                            depth -= 1;
                        }
                        "=>" if depth == 0 => break,
                        _ => {}
                    }
                    self.cur += 1;
                }
                let pat = Span {
                    lo: pat_lo,
                    hi: self.cur,
                };
                if !self.is(self.cur, "=>") {
                    break;
                }
                self.cur += 1; // `=>`
                let body = if self.is(self.cur, "{") {
                    ArmBody::Block(self.parse_block())
                } else if self.is(self.cur, "match") || self.is(self.cur, "if") {
                    let s = if self.is(self.cur, "match") {
                        self.parse_match()
                    } else {
                        self.parse_if()
                    };
                    ArmBody::Stmt(Box::new(s))
                } else {
                    // Expression arm: to `,` at depth 0 or the match `}`.
                    let lo = self.cur;
                    let mut depth = 0usize;
                    while self.cur < self.toks.len() {
                        match self.txt(self.cur) {
                            "(" | "[" => depth += 1,
                            "{" => {
                                if depth == 0 && self.prev_is_path_segment(self.cur) {
                                    self.skip_balanced();
                                    continue;
                                }
                                depth += 1;
                            }
                            ")" | "]" => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            "}" => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            "," if depth == 0 => break,
                            _ => {}
                        }
                        self.cur += 1;
                    }
                    ArmBody::Expr(Span { lo, hi: self.cur })
                };
                if self.is(self.cur, ",") {
                    self.cur += 1;
                }
                arms.push(Arm { pat, body });
            }
            if self.is(self.cur, "}") {
                self.cur += 1;
            }
        }
        Stmt::Match(MatchStmt { scrutinee, arms })
    }

    fn parse_let(&mut self) -> Stmt {
        self.cur += 1; // `let`
        let pat_lo = self.cur;
        let mut pat_hi = None;
        let mut init_lo = None;
        let mut depth = 0usize;
        loop {
            if self.cur >= self.toks.len() {
                break;
            }
            let t = self.txt(self.cur);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "{" if depth == 0 => {
                    if self.prev_is_path_segment(self.cur) {
                        self.skip_balanced();
                        continue;
                    }
                    break; // struct-literal-less `{`: malformed, stop
                }
                "}" if depth == 0 => break,
                "=" if depth == 0 && pat_hi.is_none() => {
                    pat_hi = Some(self.cur);
                    init_lo = Some(self.cur + 1);
                }
                ";" if depth == 0 => {
                    let end = self.cur;
                    self.cur += 1;
                    let pat = Span {
                        lo: pat_lo,
                        hi: pat_hi.unwrap_or(end),
                    };
                    let init = init_lo.map_or(Span::empty(end), |lo| Span { lo, hi: end });
                    return Stmt::Let(LetStmt {
                        pat,
                        init,
                        else_: None,
                    });
                }
                "else" if depth == 0 => {
                    // let-else.
                    let pat = Span {
                        lo: pat_lo,
                        hi: pat_hi.unwrap_or(self.cur),
                    };
                    let init =
                        init_lo.map_or(Span::empty(self.cur), |lo| Span { lo, hi: self.cur });
                    self.cur += 1;
                    let else_ = if self.is(self.cur, "{") {
                        Some(self.parse_block())
                    } else {
                        None
                    };
                    if self.is(self.cur, ";") {
                        self.cur += 1;
                    }
                    return Stmt::Let(LetStmt { pat, init, else_ });
                }
                "match" | "if" if depth == 0 && init_lo == Some(self.cur) => {
                    // `let x = match ... { ... };` — emit the head now; the
                    // caller's statement loop parses the match/if next and
                    // the trailing `;` is skipped as an empty statement.
                    let pat = Span {
                        lo: pat_lo,
                        hi: pat_hi.unwrap_or(self.cur),
                    };
                    return Stmt::Let(LetStmt {
                        pat,
                        init: Span::empty(self.cur),
                        else_: None,
                    });
                }
                _ => {}
            }
            self.cur += 1;
        }
        Stmt::Let(LetStmt {
            pat: Span {
                lo: pat_lo,
                hi: self.cur,
            },
            init: Span::empty(self.cur),
            else_: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Ast {
        Ast::parse(&SourceFile::new("crates/core/src/t.rs".into(), src))
    }

    fn only_fn(ast: &Ast) -> &FnDef {
        match &ast.items[0] {
            Item::Fn(f) => f,
            other => panic!("expected fn, got {other:?}"),
        }
    }

    #[test]
    fn fn_names_and_bodies() {
        let ast = parse("pub fn a() { let x = 1; }\nfn b();\n");
        let fns = ast.all_fns();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert!(fns[0].body.is_some());
        assert_eq!(fns[1].name, "b");
        assert!(fns[1].body.is_none());
    }

    #[test]
    fn impl_and_mod_nesting() {
        let src = "impl<V: Clone> Node<V> { fn on_message(&mut self) {} }\nmod util { pub fn helper() {} }\n";
        let ast = parse(src);
        let fns = ast.all_fns();
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["on_message", "helper"]);
        match &ast.items[0] {
            Item::Impl(i) => assert_eq!(i.type_name, "Node"),
            other => panic!("expected impl, got {other:?}"),
        }
    }

    #[test]
    fn trait_with_default_bodies() {
        let src = "trait Protocol { fn id(&self) -> u32; fn on_restart(&mut self) {} }\n";
        let ast = parse(src);
        let fns = ast.all_fns();
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn if_match_let_skeleton() {
        let src = r#"
fn f(&mut self) {
    if self.pending.is_some() {
        self.queue.push_back(1);
    } else {
        self.begin();
    }
    match msg {
        Msg::A { x } => { self.go(x); }
        Msg::B(_) => self.stop(),
    }
    let Some(ph) = self.recovering.as_mut() else { return };
    let n = match k { 0 => 1, _ => 2 };
}
"#;
        let ast = parse(src);
        let f = only_fn(&ast);
        let b = f.body.as_ref().unwrap();
        assert!(matches!(b.stmts[0], Stmt::If(_)));
        let Stmt::Match(m) = &b.stmts[1] else {
            panic!("expected match: {:?}", b.stmts[1]);
        };
        assert_eq!(m.arms.len(), 2);
        let Stmt::Let(l) = &b.stmts[2] else {
            panic!("expected let-else: {:?}", b.stmts[2]);
        };
        assert!(l.else_.is_some());
        // `let n = match ...` splits into a Let head + sibling Match.
        assert!(matches!(b.stmts[3], Stmt::Let(_)));
        assert!(matches!(b.stmts[4], Stmt::Match(_)));
    }

    #[test]
    fn struct_pattern_in_if_let_cond_does_not_end_header() {
        let src = "fn f(&mut self) { if let Some(Pending::Query { op, .. }) = self.pending.take() { self.done(op); } }\n";
        let ast = parse(src);
        let f = only_fn(&ast);
        let b = f.body.as_ref().unwrap();
        let Stmt::If(i) = &b.stmts[0] else {
            panic!("expected if: {:?}", b.stmts[0]);
        };
        assert_eq!(i.then.stmts.len(), 1, "{:?}", i.then.stmts);
    }

    #[test]
    fn struct_literal_in_expr_is_absorbed() {
        let src =
            "fn f(&mut self) { self.pending = Some(Pending::Write { ph, value }); self.x = 1; }\n";
        let ast = parse(src);
        let f = only_fn(&ast);
        let b = f.body.as_ref().unwrap();
        assert_eq!(b.stmts.len(), 2, "{:?}", b.stmts);
        assert!(matches!(b.stmts[0], Stmt::Expr(_)));
    }

    #[test]
    fn arm_alternatives_and_nested_match_bodies() {
        let src = r#"
fn on_timer(&mut self) {
    let ph = match self.pending.as_mut() {
        Some(Pending::Write { ph, .. }) | Some(Pending::Query { ph, .. }) => ph,
        None => return,
    };
    ph.fire();
}
"#;
        let ast = parse(src);
        let f = only_fn(&ast);
        let b = f.body.as_ref().unwrap();
        assert!(matches!(b.stmts[0], Stmt::Let(_)));
        let Stmt::Match(m) = &b.stmts[1] else {
            panic!("expected match: {:?}", b.stmts[1]);
        };
        assert_eq!(m.arms.len(), 2);
    }

    #[test]
    fn const_with_struct_literals_is_skipped() {
        let src = "pub const RULES: &[RuleInfo] = &[RuleInfo { id: \"x\", summary: \"y\" }];\nfn after() {}\n";
        let ast = parse(src);
        assert_eq!(ast.all_fns().len(), 1);
    }
}
