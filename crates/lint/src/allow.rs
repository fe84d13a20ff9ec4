//! `abd-lint: allow(<rule>): <justification>` directive parsing.
//!
//! A directive suppresses findings of the named rule on one line:
//!
//! * written as a trailing comment, it covers **its own line**;
//! * written in a block of `//` comment lines, it covers **the first
//!   non-comment line after the block** (the flagged construct).
//!
//! The justification after the second colon is mandatory: a bare
//! `allow(rule)` suppresses nothing and is itself reported under the
//! `bad-allow` rule, as is an unknown rule name.

use crate::report::Finding;
use crate::rules::RULES;
use crate::source::SourceFile;

/// A parsed directive.
#[derive(Debug)]
struct Directive {
    /// 1-based line the directive text sits on.
    line: usize,
    /// Rule name inside `allow(...)`, as written.
    rule: String,
    /// Justification text after the closing `):`, trimmed.
    justification: String,
}

/// The allow directives of one file, resolved to the lines they cover.
#[derive(Debug, Default)]
pub struct Allows {
    /// `(rule, covered_line)` pairs from well-formed directives.
    covered: Vec<(String, usize)>,
    /// Findings for malformed directives.
    pub problems: Vec<Finding>,
}

impl Allows {
    /// Parses every directive in `file`. Files outside every rule's scope
    /// (see [`crate::rules::in_lint_scope`]) have nothing to suppress, so
    /// their directives — usually prose or test fixtures mentioning the
    /// syntax — are ignored.
    pub fn collect(file: &SourceFile) -> Allows {
        let mut allows = Allows::default();
        if !crate::rules::in_lint_scope(&file.rel) {
            return allows;
        }
        let mut directives = Vec::new();
        for (i, line) in file.raw.iter().enumerate() {
            if let Some(pos) = line.find("abd-lint:") {
                // `phase-spec(...)` directives belong to `phase-graph` and are
                // parsed by `crate::phasegraph`, not here.
                if line[pos + "abd-lint:".len()..]
                    .trim_start()
                    .starts_with("phase-spec(")
                {
                    continue;
                }
                match parse_directive(&line[pos..]) {
                    Ok((rule, justification)) => directives.push(Directive {
                        line: i + 1,
                        rule,
                        justification,
                    }),
                    Err(msg) => allows.problems.push(Finding {
                        rule: "bad-allow",
                        file: file.rel.clone(),
                        line: i + 1,
                        message: msg,
                    }),
                }
            }
        }
        for d in directives {
            if !RULES.iter().any(|r| r.id == d.rule) {
                allows.problems.push(Finding {
                    rule: "bad-allow",
                    file: file.rel.clone(),
                    line: d.line,
                    message: format!(
                        "allow names unknown rule `{}` (known: {})",
                        d.rule,
                        RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                    ),
                });
                continue;
            }
            if d.justification.is_empty() {
                allows.problems.push(Finding {
                    rule: "bad-allow",
                    file: file.rel.clone(),
                    line: d.line,
                    message: format!(
                        "allow({}) needs a justification: `// abd-lint: allow({}): <why>`",
                        d.rule, d.rule
                    ),
                });
                continue;
            }
            allows.covered.push((d.rule.clone(), d.line));
            // A directive inside a pure-comment block also covers the first
            // non-comment line below the block.
            let is_comment = |l: usize| {
                file.raw
                    .get(l)
                    .map(|s| s.trim_start().starts_with("//"))
                    .unwrap_or(false)
            };
            if is_comment(d.line - 1) {
                let mut l = d.line; // 0-based index of the line after the directive
                while is_comment(l) {
                    l += 1;
                }
                allows.covered.push((d.rule, l + 1));
            }
        }
        allows
    }

    /// Whether a finding of `rule` on 1-based `line` is suppressed.
    pub fn suppresses(&self, rule: &str, line: usize) -> bool {
        self.covered.iter().any(|(r, l)| r == rule && *l == line)
    }
}

/// Parses `abd-lint: allow(rule)[: justification]` from the start of `s`.
fn parse_directive(s: &str) -> Result<(String, String), String> {
    let rest = s
        .strip_prefix("abd-lint:")
        .expect("caller found the prefix")
        .trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err(
            "malformed abd-lint directive: expected `abd-lint: allow(<rule>): <why>`".into(),
        );
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed abd-lint directive: unclosed `allow(`".into());
    };
    let rule = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    let justification = tail
        .strip_prefix(':')
        .map(|t| t.trim().to_string())
        .unwrap_or_default();
    Ok((rule, justification))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/core/src/x.rs".into(), src)
    }

    #[test]
    fn trailing_directive_covers_its_line() {
        let f = file("let x = 1; // abd-lint: allow(wall-clock): test reason\n");
        let a = Allows::collect(&f);
        assert!(a.problems.is_empty());
        assert!(a.suppresses("wall-clock", 1));
        assert!(!a.suppresses("wall-clock", 2));
        assert!(!a.suppresses("hash-collections", 1));
    }

    #[test]
    fn block_directive_covers_next_code_line() {
        let f = file("// abd-lint: allow(raw-quorum-arith): sizing a window,\n// not a quorum.\nlet w = m / 2;\n");
        let a = Allows::collect(&f);
        assert!(a.problems.is_empty());
        assert!(a.suppresses("raw-quorum-arith", 3));
    }

    #[test]
    fn missing_justification_is_a_finding_and_does_not_suppress() {
        let f = file("let x = 1; // abd-lint: allow(wall-clock)\n");
        let a = Allows::collect(&f);
        assert_eq!(a.problems.len(), 1);
        assert_eq!(a.problems[0].rule, "bad-allow");
        assert!(!a.suppresses("wall-clock", 1));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let f = file("// abd-lint: allow(no-such-rule): because\nlet x = 1;\n");
        let a = Allows::collect(&f);
        assert_eq!(a.problems.len(), 1);
        assert!(a.problems[0].message.contains("no-such-rule"));
    }
}
