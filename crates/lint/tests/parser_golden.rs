//! Golden tests pinning the structural analyzer against real protocol
//! sources.
//!
//! The unit tests in `ast`/`flow` use synthetic snippets; these parse the
//! actual `crates/core` files the semantic rules run over, so a parser
//! regression that silently drops handler bodies or enum variants (and
//! would therefore make the rules vacuously pass) fails loudly here.

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
fn register_handlers_parse_with_bodies() {
    let file = load("crates/core/src/register.rs");
    let ast = Ast::parse(&file);
    let fns = ast.all_fns();
    for handler in ["on_invoke", "on_message", "on_timer", "on_restart"] {
        let def = fns
            .iter()
            .find(|f| f.name == handler)
            .unwrap_or_else(|| panic!("parser lost fn {handler}"));
        let body = def
            .body
            .as_ref()
            .unwrap_or_else(|| panic!("parser lost the body of {handler}"));
        assert!(
            !body.stmts.is_empty(),
            "{handler} parsed to an empty body — the rules would see nothing"
        );
    }
}

#[test]
fn register_msg_enum_variants_are_complete() {
    let file = load("crates/core/src/msg.rs");
    let ast = Ast::parse(&file);
    let wire = ast
        .all_enums()
        .into_iter()
        .find(|e| e.name == "RegisterMsg")
        .expect("parser lost enum RegisterMsg");
    let variants: Vec<&str> = wire.variants.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        variants,
        vec![
            "Query",
            "QueryReply",
            "Update",
            "UpdateAck",
            "RelayQuery",
            "RelayFwd",
            "RelayReply"
        ],
        "rule 10's coverage check keys on this exact variant list"
    );
}

#[test]
fn register_phase_graph_extraction_matches_golden_edges() {
    let file = load("crates/core/src/register.rs");
    let ast = Ast::parse(&file);
    let include = |off: usize| !file.in_test_code(off);
    let walk = PhaseWalk::extract(&file.clean, &ast, &include);
    let edges: Vec<String> = walk
        .graph
        .keys()
        .map(|(a, b)| format!("{a} -> {b}"))
        .collect();
    // Must match the `phase-spec(register)` header in the file itself — rule 9
    // diffs the two, so this golden pins the extraction side.
    assert_eq!(
        edges,
        vec![
            "Idle -> WriteUpdate",
            "Invoke -> Done",
            "Invoke -> ReadQuery",
            "Invoke -> ReadWriteBack",
            "Invoke -> RelayRead",
            "Invoke -> WriteQuery",
            "Invoke -> WriteUpdate",
            "ReadQuery -> Done",
            "ReadQuery -> ReadWriteBack",
            "ReadWriteBack -> Done",
            "Recovery -> Idle",
            "RelayRead -> Done",
            "Restart -> Recovery",
            "Restart -> WriteUpdate",
            "WriteQuery -> Done",
            "WriteQuery -> WriteUpdate",
            "WriteUpdate -> Done",
        ]
    );
}
