//! The soundness-rule catalog.
//!
//! Every rule here maps to a bug class this repository has actually
//! shipped and fixed (see `DESIGN.md` §11 for the full history):
//!
//! | rule | bug class | precedent |
//! |------|-----------|-----------|
//! | `nan-unsafe-cmp` | `partial_cmp().unwrap()` comparators panic on NaN and order ±0.0 inconsistently | PR 5 fixed four in `strict.rs`; this PR fixed ten more |
//! | `hash-order-leak` | `HashMap`/`HashSet` iteration order reaching output | PR 2 fixed `GridSplitter`; this PR fixed `random_blob` |
//! | `panic-in-lib` | `unwrap`/`panic!` in library code turning bad input into aborts | PR 2 moved baselines to `Result` |
//! | `float-eq` | bare `==` on computed floats | tolerance bugs the strict gates exist to prevent |
//! | `nondeterminism` | wall clocks / env reads inside deterministic algorithm code | bit-identical replay is a certificate-soundness requirement |
//! | `unsafe-forbidden` | any `unsafe` at all | all crates `#![forbid(unsafe_code)]` |
//! | `catch-unwind` | unaudited unwind boundaries masking bugs or observing broken state | PR 8's resilient ladder confines `catch_unwind` to justified isolation boundaries |
//!
//! Rules are lexical by design: no type information, no build. That makes
//! the pass instant, dependency-free and robust — and means each rule is a
//! *heuristic* whose false positives are handled by the pragma grammar
//! (`// lint: allow(<rule>) — <reason>`), never by silent special cases.

use crate::context::{FileClass, FileContext};
use crate::lexer::TokenKind;

/// Names of every rule the engine can fire, in catalog order.
pub const RULE_NAMES: &[&str] = &[
    "nan-unsafe-cmp",
    "hash-order-leak",
    "panic-in-lib",
    "float-eq",
    "nondeterminism",
    "unsafe-forbidden",
    "catch-unwind",
    "bad-pragma",
    "unused-pragma",
];

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation of this occurrence.
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
}

/// Run every rule over one file, then apply its pragmas.
///
/// Returns `(findings, suppressed_count)`; suppressed findings are counted
/// but dropped, and pragmas that suppressed nothing become `unused-pragma`
/// findings so stale exceptions cannot linger after the code they excused
/// is gone.
pub fn check_file(ctx: &FileContext) -> (Vec<Finding>, usize) {
    let mut raw = Vec::new();
    nan_unsafe_cmp(ctx, &mut raw);
    hash_order_leak(ctx, &mut raw);
    if ctx.class == FileClass::Lib {
        panic_in_lib(ctx, &mut raw);
        float_eq(ctx, &mut raw);
        nondeterminism(ctx, &mut raw);
        catch_unwind_boundary(ctx, &mut raw);
    }
    unsafe_forbidden(ctx, &mut raw);

    // Pragma application.
    let mut used = vec![false; ctx.pragmas.len()];
    let mut suppressed = 0usize;
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        match ctx.allowed(f.rule, f.line) {
            Some(p) => {
                used[p] = true;
                suppressed += 1;
            }
            None => out.push(f),
        }
    }
    for bp in &ctx.bad_pragmas {
        out.push(Finding {
            rule: "bad-pragma",
            file: ctx.path.clone(),
            line: bp.line,
            message: format!("malformed lint pragma: {}", bp.why),
            snippet: ctx.snippet(bp.line).to_string(),
        });
    }
    for (p, was_used) in ctx.pragmas.iter().zip(&used) {
        for r in &p.rules {
            if !RULE_NAMES.contains(&r.as_str()) {
                out.push(Finding {
                    rule: "bad-pragma",
                    file: ctx.path.clone(),
                    line: p.line,
                    message: format!("pragma names unknown rule `{r}`"),
                    snippet: ctx.snippet(p.line).to_string(),
                });
            }
        }
        if !*was_used && p.rules.iter().all(|r| RULE_NAMES.contains(&r.as_str())) {
            out.push(Finding {
                rule: "unused-pragma",
                file: ctx.path.clone(),
                line: p.line,
                message: format!(
                    "pragma allow({}) suppressed nothing — remove it or move it next to \
                     the line it excuses",
                    p.rules.join(", ")
                ),
                snippet: ctx.snippet(p.line).to_string(),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (out, suppressed)
}

fn finding(ctx: &FileContext, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: ctx.path.clone(),
        line,
        message,
        snippet: ctx.snippet(line).to_string(),
    }
}

/// `nan-unsafe-cmp`: any use of `partial_cmp`.
///
/// In Rust the only way to order floats in a `sort_by`/`min_by`/`max_by`
/// comparator is through `PartialOrd` (`f64` is not `Ord`, so `sort`,
/// `max_by_key` etc. on float keys do not compile) — which makes
/// `partial_cmp` occurrences *exactly* the NaN-unsafe comparator surface.
/// The repository convention is `f64::total_cmp`: total on every bit
/// pattern, panic-free, and deterministic on ±0.0. Applies everywhere,
/// tests included — a NaN-panicking comparator in a differential suite is
/// still a flaky suite.
fn nan_unsafe_cmp(ctx: &FileContext, out: &mut Vec<Finding>) {
    for t in &ctx.code {
        if t.is_ident("partial_cmp") {
            out.push(finding(
                ctx,
                "nan-unsafe-cmp",
                t.line,
                "`partial_cmp` comparator: panics (`.unwrap()`) or silently mis-orders \
                 (`unwrap_or`) on NaN — use `f64::total_cmp`, with an explicit index \
                 tie-break where the order reaches output"
                    .to_string(),
            ));
        }
    }
}

/// Iterator-yielding methods whose order is the hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// How many code tokens after a hash iteration we search for a `sort*`
/// call before concluding the order escapes unsorted. Covers the
/// collect-then-sort idiom (`let mut v: Vec<_> = map.into_iter()
/// .collect(); v.sort_unstable();`) with room for a long collect
/// expression, while staying local enough that an unrelated sort three
/// functions later does not discharge a real leak.
const SORT_DISCHARGE_WINDOW: usize = 100;

/// `hash-order-leak`: iteration over a `HashMap`/`HashSet` binding with no
/// nearby sort.
///
/// Two lexical passes: first collect every identifier bound with a
/// `HashMap`/`HashSet` type or constructor (lets, params, struct fields);
/// then flag `for … in name` and `name.iter()`-family uses unless a
/// `sort*` call appears within [`SORT_DISCHARGE_WINDOW`] tokens. Sound
/// order-insensitive consumptions (folds into a unique min, say) are
/// pragma territory, with the reason spelling out *why* order cannot
/// reach the output.
fn hash_order_leak(ctx: &FileContext, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    let n = code.len();
    // Pass 1: names bound to hash collections.
    let mut names: Vec<&str> = Vec::new();
    for i in 0..n {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back over path/type syntax to the binding position.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 8 {
            let p = &code[j - 1];
            let through = p.is_punct("::")
                || p.is_punct("&")
                || p.is_punct("<")
                || p.is_ident("mut")
                || p.is_ident("std")
                || p.is_ident("collections");
            if !through {
                break;
            }
            j -= 1;
            steps += 1;
        }
        if j == 0 {
            continue;
        }
        let before = &code[j - 1];
        if before.is_punct(":") || before.is_punct("=") {
            if j >= 2 && code[j - 2].kind == TokenKind::Ident {
                names.push(code[j - 2].text.as_str());
            } else if j >= 3 && code[j - 3].kind == TokenKind::Ident && code[j - 2].is_ident("mut")
            {
                names.push(code[j - 3].text.as_str());
            }
        }
    }
    if names.is_empty() {
        return;
    }
    // Pass 2: iterations over those names.
    for i in 0..n {
        if code[i].kind != TokenKind::Ident || !names.contains(&code[i].text.as_str()) {
            continue;
        }
        let method_iter = i + 2 < n
            && code[i + 1].is_punct(".")
            && HASH_ITER_METHODS.contains(&code[i + 2].text.as_str());
        let for_iter = {
            let mut j = i;
            while j > 0 && (code[j - 1].is_punct("&") || code[j - 1].is_ident("mut")) {
                j -= 1;
            }
            j > 0 && code[j - 1].is_ident("in")
        };
        if !(method_iter || for_iter) {
            continue;
        }
        let discharged = code[i..n.min(i + SORT_DISCHARGE_WINDOW)]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text.starts_with("sort"));
        if !discharged {
            out.push(finding(
                ctx,
                "hash-order-leak",
                code[i].line,
                format!(
                    "iteration over hash collection `{}` with no nearby sort: hash order \
                     can leak into the output — collect and sort, use a BTree collection, \
                     or pragma with the order-insensitivity argument",
                    code[i].text
                ),
            ));
        }
    }
}

/// `panic-in-lib`: aborting constructs in non-test library code.
///
/// Bare `.unwrap()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
/// `.expect(…)` is not flagged: its message documents the invariant, like
/// a pragma's reason. Index expressions are not flagged either: dense
/// numeric kernels index arrays pervasively, and a lexical rule cannot see
/// bounds proofs.
fn panic_in_lib(ctx: &FileContext, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    let n = code.len();
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        let next_is = |s: &str| i + 1 < n && code[i + 1].is_punct(s);
        if t.is_ident("unwrap") && next_is("(") {
            out.push(finding(
                ctx,
                "panic-in-lib",
                t.line,
                "bare `.unwrap()` in library code: return a typed error, prove the \
                 invariant with `.expect(\"why this cannot fail\")`, or restructure"
                    .to_string(),
            ));
        } else if next_is("!")
            && (t.is_ident("panic")
                || t.is_ident("unreachable")
                || t.is_ident("todo")
                || t.is_ident("unimplemented"))
        {
            out.push(finding(
                ctx,
                "panic-in-lib",
                t.line,
                format!(
                    "`{}!` in library code: return a typed error instead",
                    t.text
                ),
            ));
        }
    }
}

/// Is this float literal exactly zero (`0.0`, `-0.0` via the unary minus,
/// `0e0`, `0.0f64`, …)?
fn is_zero_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned.trim_end_matches("f64").trim_end_matches("f32");
    cleaned.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

/// `float-eq`: `==`/`!=` with a float-literal operand in non-test library
/// code.
///
/// Exact equality on computed floats is almost always a tolerance bug.
/// Comparisons against zero are exempt (exactly representable, and `0.0`
/// is this codebase's "untouched" sentinel);
/// other literals (`p == 1.0` dispatch constants) need a pragma arguing
/// exact representability. Purely lexical: only literal operands are
/// visible — `a == b` on two float *variables* is type information a
/// lexer does not have, which is why the strict gates double-check
/// determinism dynamically.
fn float_eq(ctx: &FileContext, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    let n = code.len();
    for i in 0..n {
        if ctx.in_test[i] || !(code[i].is_punct("==") || code[i].is_punct("!=")) {
            continue;
        }
        // Operand after the op (skipping a unary minus); operand before.
        let mut rhs = i + 1;
        if rhs < n && code[rhs].is_punct("-") {
            rhs += 1;
        }
        let lit = if rhs < n && code[rhs].kind == TokenKind::Float {
            Some(&code[rhs].text)
        } else if i > 0 && code[i - 1].kind == TokenKind::Float {
            Some(&code[i - 1].text)
        } else {
            None
        };
        let Some(lit) = lit else { continue };
        if is_zero_literal(lit) {
            continue;
        }
        out.push(finding(
            ctx,
            "float-eq",
            code[i].line,
            format!(
                "exact float comparison against `{lit}`: use a tolerance, or pragma with \
                 the exact-representability argument"
            ),
        ));
    }
}

/// `nondeterminism`: wall clocks and environment reads in non-test
/// library code.
///
/// `Instant`/`SystemTime`/`RandomState`/`thread_rng` and `env::var*` make
/// output depend on when/where the process runs — poison for bit-identical
/// replay, which the certificate machinery (DESIGN.md §9) relies on.
/// `env!` (compile-time) is deliberately not flagged: it is a build-time
/// constant, not a runtime read. The `mmb-bench` harness is classified
/// [`FileClass::Harness`] and exempt — measuring wall time is its job.
fn nondeterminism(ctx: &FileContext, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    let n = code.len();
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        let named = t.is_ident("Instant")
            || t.is_ident("SystemTime")
            || t.is_ident("RandomState")
            || t.is_ident("thread_rng");
        let env_read = t.is_ident("env")
            && i + 2 < n
            && code[i + 1].is_punct("::")
            && (code[i + 2].is_ident("var")
                || code[i + 2].is_ident("var_os")
                || code[i + 2].is_ident("vars"));
        if named || env_read {
            out.push(finding(
                ctx,
                "nondeterminism",
                t.line,
                format!(
                    "`{}` in deterministic library code: output must not depend on \
                     wall clock or environment — thread the value in from the caller, \
                     or pragma with the proof it never reaches algorithm output",
                    if env_read {
                        "env::var"
                    } else {
                        t.text.as_str()
                    }
                ),
            ));
        }
    }
}

/// `catch-unwind`: `catch_unwind(…)` call sites in non-test library code.
///
/// An unwind boundary silently converts bugs into recoverable values, and
/// `AssertUnwindSafe` is a claim the compiler cannot check. The workspace
/// allows `catch_unwind` only at audited isolation boundaries (the
/// resilient ladder's rung boundary, the service request boundary); each
/// site needs a pragma whose reason argues why state observed after the
/// unwind is sound — typically that everything the closure touches is
/// rebuilt per call or rolled back on `Drop`. Fires on call sites only
/// (`use` imports are not boundaries).
fn catch_unwind_boundary(ctx: &FileContext, out: &mut Vec<Finding>) {
    let code = &ctx.code;
    let n = code.len();
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        if t.is_ident("catch_unwind") && i + 1 < n && code[i + 1].is_punct("(") {
            out.push(finding(
                ctx,
                "catch-unwind",
                t.line,
                "`catch_unwind` in library code: an unaudited unwind boundary can mask \
                 bugs and observe broken invariants — pragma with the argument for why \
                 post-unwind state is sound (what is rebuilt or rolled back)"
                    .to_string(),
            ));
        }
    }
}

/// `unsafe-forbidden`: any `unsafe` token, anywhere.
///
/// Every workspace crate is `#![forbid(unsafe_code)]`; this rule is the
/// linter-side mirror so the gate catches an attribute deletion *and* the
/// new unsafe block in the same run.
fn unsafe_forbidden(ctx: &FileContext, out: &mut Vec<Finding>) {
    for t in &ctx.code {
        if t.is_ident("unsafe") {
            out.push(finding(
                ctx,
                "unsafe-forbidden",
                t.line,
                "`unsafe` is forbidden workspace-wide (no crate needs it; the \
                 `#![forbid(unsafe_code)]` attributes lock that in)"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileClass, FileContext};

    fn run(src: &str, class: FileClass) -> Vec<Finding> {
        let ctx = FileContext::new("t.rs", src, class);
        check_file(&ctx).0
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn partial_cmp_fires_everywhere_even_tests() {
        let src =
            "#[cfg(test)]\nmod tests { fn t() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); } }\n";
        let f = run(src, FileClass::Lib);
        assert!(rules_of(&f).contains(&"nan-unsafe-cmp"));
        // … but the unwrap inside cfg(test) is not a panic-in-lib finding.
        assert!(!rules_of(&f).contains(&"panic-in-lib"));
    }

    #[test]
    fn total_cmp_is_clean() {
        let f = run(
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }\n",
            FileClass::Lib,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn hash_iteration_without_sort_fires() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); for (k, v) in &m { emit(k, v); } }\n";
        let f = run(src, FileClass::Lib);
        assert_eq!(rules_of(&f), ["hash-order-leak"]);
    }

    #[test]
    fn collect_then_sort_discharges() {
        let src = "fn f(m: std::collections::HashMap<u32, f64>) -> Vec<(u32, f64)> {\n  let mut v: Vec<_> = m.into_iter().collect();\n  v.sort_unstable_by(|a, b| a.0.cmp(&b.0));\n  v\n}\n";
        let f = run(src, FileClass::Lib);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_in_lib_fires_but_expect_does_not() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() + y.expect(\"set\") }\n";
        let f = run(src, FileClass::Lib);
        assert_eq!(rules_of(&f), ["panic-in-lib"], "only the bare unwrap");
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let f = run(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
            FileClass::Lib,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn harness_files_may_unwrap() {
        let f = run(
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            FileClass::Harness,
        );
        assert!(f.is_empty());
    }

    #[test]
    fn float_eq_zero_is_exempt() {
        let src = "fn f(p: f64) -> bool { p == 0.0 || p == -0.0 }\n";
        assert!(run(src, FileClass::Lib).is_empty());
        let src = "fn f(p: f64) -> bool { p == 1.0 }\n";
        assert_eq!(rules_of(&run(src, FileClass::Lib)), ["float-eq"]);
    }

    #[test]
    fn nondeterminism_fires_on_clocks_not_env_macro() {
        let src = "fn f() { let t = std::time::Instant::now(); let p = env!(\"CARGO_MANIFEST_DIR\"); let v = std::env::var(\"X\"); }\n";
        let f = run(src, FileClass::Lib);
        assert_eq!(f.iter().filter(|x| x.rule == "nondeterminism").count(), 2);
    }

    #[test]
    fn pragma_suppresses_and_unused_pragma_fires() {
        let src = "// lint: allow(float-eq) — 1.0 is exactly representable\nfn f(p: f64) -> bool { p == 1.0 }\n// lint: allow(unsafe-forbidden) — stale excuse\nfn g() {}\n";
        let ctx = FileContext::new("t.rs", src, FileClass::Lib);
        let (f, suppressed) = check_file(&ctx);
        assert_eq!(suppressed, 1);
        assert_eq!(rules_of(&f), ["unused-pragma"]);
    }

    #[test]
    fn unknown_rule_in_pragma_is_bad() {
        let src = "// lint: allow(no-such-rule) — whatever\nfn g() {}\n";
        let f = run(src, FileClass::Lib);
        assert_eq!(rules_of(&f), ["bad-pragma"]);
    }

    #[test]
    fn indexing_is_not_flagged() {
        let src = "fn f(a: &[f64], i: usize) -> f64 { a[i] }\n";
        assert!(run(src, FileClass::Lib).is_empty());
    }

    #[test]
    fn catch_unwind_fires_in_lib_but_not_tests_imports_or_harness() {
        let src = "fn f() { let r = std::panic::catch_unwind(|| g()); }\n";
        assert_eq!(rules_of(&run(src, FileClass::Lib)), ["catch-unwind"]);
        assert!(run(src, FileClass::Harness).is_empty());
        // The import is not a boundary; the cfg(test) call site is exempt.
        let src = "use std::panic::catch_unwind;\n#[cfg(test)]\nmod tests { fn t() { let _ = catch_unwind(|| 1); } }\n";
        assert!(run(src, FileClass::Lib).is_empty());
        // A pragma with the soundness argument suppresses it.
        let src = "// lint: allow(catch-unwind) — state is rebuilt per call\nfn f() { let r = std::panic::catch_unwind(|| g()); }\n";
        let ctx = FileContext::new("t.rs", src, FileClass::Lib);
        let (f, suppressed) = check_file(&ctx);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unsafe_fires_everywhere() {
        let src = "#[cfg(test)]\nmod tests { fn t() { unsafe { std::hint::unreachable_unchecked() } } }\n";
        let f = run(src, FileClass::Harness);
        assert_eq!(rules_of(&f), ["unsafe-forbidden"]);
    }
}
