//! Golden tests pinning the structural analyzer against real protocol
//! sources.
//!
//! The unit tests in `ast`/`flow` use synthetic snippets; these parse the
//! actual `crates/core` files the rules run over, so a parser regression
//! that silently drops handler bodies (and would therefore make the rules
//! vacuously pass) fails loudly here.

use abd_lint::ast::Ast;
use abd_lint::flow::PhaseWalk;
use abd_lint::source::SourceFile;
use std::path::Path;

fn load(rel: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    SourceFile::new(rel.to_string(), &text)
}

#[test]
fn engine_and_register_handlers_parse_with_bodies() {
    for rel in ["crates/core/src/engine.rs", "crates/core/src/register.rs"] {
        let file = load(rel);
        let ast = Ast::parse(&file);
        let fns = ast.all_fns();
        for handler in ["on_invoke", "on_message", "on_timer", "on_restart"] {
            let def = fns
                .iter()
                .find(|f| f.name == handler)
                .unwrap_or_else(|| panic!("{rel}: parser lost fn {handler}"));
            let body = def
                .body
                .as_ref()
                .unwrap_or_else(|| panic!("{rel}: parser lost the body of {handler}"));
            assert!(
                !body.stmts.is_empty(),
                "{rel}: {handler} parsed to an empty body — the rules would see nothing"
            );
        }
    }
}

/// The edges the walk extracts from `rel`, as `A -> B` strings in order.
fn extracted_edges(rel: &str) -> Vec<String> {
    let file = load(rel);
    let ast = Ast::parse(&file);
    let include = |off: usize| !file.in_test_code(off);
    let walk = PhaseWalk::extract(&file.clean, &ast, &include);
    walk.graph
        .keys()
        .map(|(a, b)| format!("{a} -> {b}"))
        .collect()
}

#[test]
fn engine_and_register_phase_graph_extraction_matches_golden_edges() {
    // Each list must match the `phase-spec(..)` header in the file itself —
    // `phase-graph` diffs the two, so these goldens pin the extraction side. The
    // thirteen edges of a client operation are the engine's; the register
    // shell keeps the `NotWriter` rejection and the roll-forward of an
    // interrupted write (its catch-up is a read of the engine's).
    let engine = extracted_edges("crates/core/src/engine.rs");
    assert_eq!(
        engine,
        vec![
            "Invoke -> Done",
            "Invoke -> ReadQuery",
            "Invoke -> ReadWriteBack",
            "Invoke -> RelayRead",
            "Invoke -> WriteQuery",
            "Invoke -> WriteUpdate",
            "ReadQuery -> Done",
            "ReadQuery -> ReadWriteBack",
            "ReadWriteBack -> Done",
            "RelayRead -> Done",
            "WriteQuery -> Done",
            "WriteQuery -> WriteUpdate",
            "WriteUpdate -> Done",
        ]
    );
    let register = extracted_edges("crates/core/src/register.rs");
    assert_eq!(register, vec!["Invoke -> Done", "Restart -> WriteUpdate",]);
}
