//! Per-file analysis context: file classification, `#[cfg(test)]` region
//! tracking, and the pragma grammar for audited exceptions.

use crate::lexer::{lex, Token, TokenKind};

/// How a file participates in the build — decides which rules apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src`). Full rule set.
    Lib,
    /// Test, bench, example or experiment-harness code (`tests/`,
    /// `benches/`, `examples/`, and the `mmb-bench` harness crate).
    /// Panic/float-eq/nondeterminism rules do not apply: asserting exact
    /// values, unwrapping fresh fixtures and reading wall clocks are what
    /// harness code is *for*. The NaN-comparator, hash-order and unsafe
    /// rules still apply — a nondeterministic comparator is as unsound in
    /// a differential test as in the library.
    Harness,
}

/// A parsed `// lint: allow(<rule>) — <reason>` pragma.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// Rules this pragma allows (comma-separated in the source).
    pub rules: Vec<String>,
    /// The mandatory audit reason (text after the dash separator).
    pub reason: String,
    /// Line the pragma comment sits on.
    pub line: u32,
    /// First following line that carries code (the pragma also covers its
    /// own line, for trailing-comment placement).
    pub covers_line: u32,
}

/// A malformed pragma — itself reported as a finding by the engine.
#[derive(Clone, Debug)]
pub struct BadPragma {
    /// Line of the malformed comment.
    pub line: u32,
    /// What is wrong with it.
    pub why: String,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path (used in findings).
    pub path: String,
    /// Library or harness code.
    pub class: FileClass,
    /// Code tokens only (comments stripped), in source order.
    pub code: Vec<Token>,
    /// `in_test[i]` ⇔ `code[i]` lies inside a `#[cfg(test)]` / `#[test]`
    /// item (attribute through matching close brace).
    pub in_test: Vec<bool>,
    /// Well-formed pragmas.
    pub pragmas: Vec<Pragma>,
    /// Malformed pragmas.
    pub bad_pragmas: Vec<BadPragma>,
    /// Raw source lines, for finding snippets (index = line − 1).
    pub lines: Vec<String>,
}

impl FileContext {
    /// Lex and annotate one source file.
    pub fn new(path: &str, src: &str, class: FileClass) -> Self {
        let all = lex(src);
        let code: Vec<Token> = all.iter().filter(|t| !t.is_trivia()).cloned().collect();
        let in_test = mark_test_regions(&code);
        let (pragmas, bad_pragmas) = extract_pragmas(&all, &code);
        FileContext {
            path: path.to_string(),
            class,
            code,
            in_test,
            pragmas,
            bad_pragmas,
            lines: src.lines().map(|l| l.to_string()).collect(),
        }
    }

    /// The trimmed source text of a 1-based line (empty if out of range).
    pub fn snippet(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("")
    }

    /// Does some pragma allow `rule` on `line`?
    pub fn allowed(&self, rule: &str, line: u32) -> Option<usize> {
        self.pragmas.iter().position(|p| {
            (p.line == line || p.covers_line == line) && p.rules.iter().any(|r| r == rule)
        })
    }
}

/// Mark code-token indices that belong to test-only items.
///
/// An item is test-only when introduced by `#[cfg(test)]` (or any
/// `#[cfg(…)]` whose predicate mentions `test` — `all(test, …)` is
/// test-only, and treating `any(test, …)` the same way merely relaxes the
/// lint) or by `#[test]`. The region runs from the attribute through the
/// item's body: the brace block that opens before any top-level `;`, or
/// the `;` itself for item declarations. Nested `#[cfg(test)]` inside an
/// already-marked region is harmless re-marking.
fn mark_test_regions(code: &[Token]) -> Vec<bool> {
    let n = code.len();
    let mut marked = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if !code[i].is_punct("#") {
            i += 1;
            continue;
        }
        // `#[…]` or `#![…]`.
        let mut j = i + 1;
        if j < n && code[j].is_punct("!") {
            j += 1;
        }
        if j >= n || !code[j].is_punct("[") {
            i += 1;
            continue;
        }
        // Scan the attribute body for `test` under `cfg`, or bare `test`.
        let attr_open = j;
        let mut depth = 0i32;
        let mut saw_cfg = false;
        let mut saw_test = false;
        let mut k = attr_open;
        while k < n {
            let t = &code[k];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("cfg") || t.is_ident("cfg_attr") {
                saw_cfg = true;
            } else if t.is_ident("test") {
                saw_test = true;
            }
            k += 1;
        }
        let attr_close = k; // index of `]` (or n)
        let is_test_attr = saw_test && (saw_cfg || attr_close == attr_open + 2);
        // (`#[test]` is exactly `# [ test ]` ⇒ close == open + 2.)
        if !is_test_attr {
            i = attr_close + 1;
            continue;
        }
        // Find the item body: first `{` before a top-level `;`.
        let mut m = attr_close + 1;
        let mut body_start = None;
        while m < n {
            let t = &code[m];
            if t.is_punct(";") {
                break; // declaration-only item: region = attr..=`;`
            }
            if t.is_punct("{") {
                body_start = Some(m);
                break;
            }
            if t.is_punct("#") {
                // Another attribute: skip it wholesale.
                let mut d = 0i32;
                let mut p = m + 1;
                if p < n && code[p].is_punct("!") {
                    p += 1;
                }
                while p < n {
                    if code[p].is_punct("[") {
                        d += 1;
                    } else if code[p].is_punct("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    p += 1;
                }
                m = p;
            }
            m += 1;
        }
        let end = match body_start {
            Some(open) => {
                let mut d = 0i32;
                let mut p = open;
                while p < n {
                    if code[p].is_punct("{") {
                        d += 1;
                    } else if code[p].is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    p += 1;
                }
                p
            }
            None => m,
        };
        for flag in marked.iter_mut().take((end + 1).min(n)).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    marked
}

/// Extract pragmas from the trivia stream.
///
/// Grammar (one line comment):
///
/// ```text
/// // lint: allow(<rule>[, <rule>…]) — <non-empty reason>
/// ```
///
/// The dash may be an em dash (`—`), `--`, or `-`. A pragma covers its own
/// line (trailing-comment placement) and the next line that carries code.
/// Comments that *look* like pragmas (`lint:` prefix) but do not parse are
/// returned separately so the engine can flag them — a silently ignored
/// suppression is worse than a missing one.
fn extract_pragmas(all: &[Token], code: &[Token]) -> (Vec<Pragma>, Vec<BadPragma>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for t in all {
        if t.kind != TokenKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        match parse_allow(rest) {
            Ok((rules, reason)) => {
                let covers_line = code
                    .iter()
                    .map(|c| c.line)
                    .find(|&l| l > t.line)
                    .unwrap_or(t.line);
                pragmas.push(Pragma {
                    rules,
                    reason,
                    line: t.line,
                    covers_line,
                });
            }
            Err(why) => bad.push(BadPragma { line: t.line, why }),
        }
    }
    (pragmas, bad)
}

fn parse_allow(rest: &str) -> Result<(Vec<String>, String), String> {
    let Some(args) = rest.strip_prefix("allow") else {
        return Err("expected `allow(<rule>) — <reason>` after `lint:`".into());
    };
    let args = args.trim_start();
    let Some(open) = args.strip_prefix('(') else {
        return Err("expected `(` after `allow`".into());
    };
    let Some(close) = open.find(')') else {
        return Err("unclosed `(` in pragma".into());
    };
    let rules: Vec<String> = open[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("pragma allows no rules".into());
    }
    let tail = open[close + 1..].trim_start();
    let reason = ["—", "--", "-"]
        .iter()
        .find_map(|d| tail.strip_prefix(d))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err("pragma is missing its mandatory reason (`— <why this is sound>`)".into());
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new("test.rs", src, FileClass::Lib)
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let c = ctx("fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() { z.unwrap(); }\n");
        let flags: Vec<(String, bool)> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(t, &f)| (t.text.clone(), f))
            .collect();
        assert_eq!(flags.len(), 3);
        assert!(!flags[0].1, "lib unwrap must not be test-marked");
        assert!(
            flags[1].1,
            "unwrap inside #[cfg(test)] mod must be test-marked"
        );
        assert!(
            !flags[2].1,
            "code after the test mod must not be test-marked"
        );
    }

    #[test]
    fn cfg_test_on_single_fn_and_nesting() {
        let c = ctx("#[cfg(test)]\nfn helper() { a.unwrap() }\nfn lib() { b.unwrap() }\n#[cfg(all(test, feature = \"x\"))]\nfn h2() { d.unwrap() }\n");
        let flags: Vec<bool> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &f)| f)
            .collect();
        assert_eq!(flags, [true, false, true]);
    }

    #[test]
    fn test_attr_is_marked_and_cfg_not_test_is_not() {
        let c = ctx("#[test]\nfn t() { a.unwrap() }\n#[cfg(feature = \"testing\")]\nfn f() { b.unwrap() }\n");
        let flags: Vec<bool> = c
            .code
            .iter()
            .zip(&c.in_test)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &f)| f)
            .collect();
        // `feature = "testing"` is a *string*, not the `test` ident.
        assert_eq!(flags, [true, false]);
    }

    #[test]
    fn pragma_parses_with_all_dash_styles() {
        for d in ["—", "--", "-"] {
            let c = ctx(&format!(
                "// lint: allow(float-eq) {d} exact dispatch constant\nlet x = p == 1.0;\n"
            ));
            assert_eq!(c.pragmas.len(), 1, "dash {d:?}");
            assert_eq!(c.pragmas[0].rules, ["float-eq"]);
            assert_eq!(c.pragmas[0].reason, "exact dispatch constant");
            assert_eq!(c.pragmas[0].covers_line, 2);
            assert!(c.allowed("float-eq", 2).is_some());
            assert!(c.allowed("nan-unsafe-cmp", 2).is_none());
        }
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let c = ctx("let x = p == 1.0; // lint: allow(float-eq) — exact constant\n");
        assert!(c.allowed("float-eq", 1).is_some());
    }

    #[test]
    fn pragma_without_reason_is_bad() {
        let c = ctx("// lint: allow(float-eq)\nlet x = p == 1.0;\n");
        assert!(c.pragmas.is_empty());
        assert_eq!(c.bad_pragmas.len(), 1);
        assert!(c.bad_pragmas[0].why.contains("reason"));
    }

    #[test]
    fn pragma_with_multiple_rules() {
        let c =
            ctx("// lint: allow(hash-order-leak, nan-unsafe-cmp) — min under a total order\nx;\n");
        assert_eq!(c.pragmas[0].rules.len(), 2);
    }

    #[test]
    fn non_pragma_lint_mention_is_ignored() {
        let c = ctx("// the linter would flag this\nx;\n");
        assert!(c.pragmas.is_empty() && c.bad_pragmas.is_empty());
    }
}
