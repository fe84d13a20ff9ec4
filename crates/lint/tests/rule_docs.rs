//! The rule tables in DESIGN.md §9 and README.md list exactly the rules
//! `abd-lint` runs, in `RULES` order.

use abd_lint::rules::RULES;
use std::path::Path;

/// The first backticked word of each row of the first `| rule | ...` table
/// after `heading` in the repo-root document `doc`.
fn table_ids(doc: &str, heading: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(doc);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{doc}: {e}"));
    let (_, section) = text
        .split_once(heading)
        .unwrap_or_else(|| panic!("{doc} has no heading `{heading}`"));
    section
        .lines()
        .skip_while(|l| !l.starts_with("| rule |"))
        .skip(2) // the header and its separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.split('`').nth(1).unwrap_or_default().to_string())
        .collect()
}

#[test]
fn design_and_readme_tables_name_every_rule_in_order() {
    let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
    for (doc, heading) in [
        ("DESIGN.md", "## 9. Static analysis"),
        ("README.md", "## Static analysis"),
    ] {
        assert_eq!(table_ids(doc, heading), ids, "{doc}'s rule table");
    }
}
