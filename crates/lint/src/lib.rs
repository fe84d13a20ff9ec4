//! `abd-lint` — workspace-local static analysis for the ABD emulation.
//!
//! The protocol crates promise things the type system cannot state:
//! executions are **deterministic** (same seed, same history), message
//! handlers are **total** (no input takes a replica down), a new message
//! kind fails to compile until handled, and every operation walks its
//! quorum phases in order. This crate enforces code-level proxies of those
//! promises with six rules — see [`rules::RULES`] — over a small
//! structural analysis of every workspace `.rs` file: comment/string
//! blanking ([`source`]), a tokenizer ([`lex`]), an item/block parser
//! ([`ast`]), call sites and phase-graph extraction ([`flow`]), and
//! declared phase specs ([`phasegraph`]). Two ABD invariants have no rule:
//! a label only grows because each stored label is a private field whose
//! one mutator compares first, and a send's order inside a callback cannot
//! matter because the node host routes sends only after the callback
//! returns; planted mutants convict both bugs (DESIGN.md §9).
//!
//! Run it as a binary from the workspace root:
//!
//! ```text
//! cargo run -p abd-lint            # human-readable file:line diagnostics
//! cargo run -p abd-lint -- --json  # machine-readable report on stdout
//! ```
//!
//! The process exits non-zero iff findings remain after applying
//! `// abd-lint: allow(<rule>): <justification>` directives (see
//! [`allow`]).
//!
//! The analyzer is deliberately dependency-free (no `syn`): the rules only
//! need item structure, call sites and match arms — a small
//! recursive-descent parser covers that, and the linter must build in the
//! same offline environment as the workspace.

#![warn(missing_docs)]

pub mod allow;
pub mod ast;
pub mod flow;
pub mod lex;
pub mod phasegraph;
pub mod report;
pub mod rules;
pub mod scan;
pub mod source;

pub use report::Finding;
pub use scan::{lint_source, scan_root, scan_workspace, ScanOutcome};
