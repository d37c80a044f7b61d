//! Tricky-negative fixture: everything in here *looks* like a violation
//! to a naive scanner but is clean. Zero findings
//! expected — each block documents the lexer or rule subtlety it guards.

use std::collections::HashMap;

// Strings are not code: `partial_cmp`, `unwrap`, `unsafe` in literals.
fn strings() -> Vec<String> {
    vec![
        "a.partial_cmp(b).unwrap()".to_string(),
        r"raw \ string with unsafe { } and panic!()".to_string(),
        r#"raw-hash "quoted" partial_cmp"#.to_string(),
        "multi-line with a continuation \
         still one string: x.partial_cmp(y)"
            .to_string(),
    ]
}

// A `'"'` char literal must not open a string (which would swallow the
// rest of the file and hide the tokens after it from the rules).
fn quote_char(c: char) -> bool {
    c == '"' || c == '\''
}

/* Nested /* block comments */ hide `partial_cmp` and unsafe { } too. */

// Hash iteration discharged by an adjacent sort (the collect-then-sort
// idiom the rule's discharge window exists for).
fn sorted_hash(m: &HashMap<u32, f64>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

// total_cmp with an index tie-break: the sanctioned comparator shape.
fn total(xs: &mut [(usize, f64)]) {
    xs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
}

// `env!` reads the environment at *compile* time — deterministic.
fn compile_time_env() -> &'static str {
    env!("CARGO_MANIFEST_DIR")
}

// Floats compared through an explicit tolerance, and integer `==`.
fn tolerant(a: f64, b: f64, n: u32) -> bool {
    (a - b).abs() < 1e-12 && n == 3
}

// A lifetime is not a char literal; `1..=k` is not a float.
fn lifetimes<'a>(xs: &'a [u64], k: usize) -> &'a [u64] {
    let _ = (1..=k).count();
    xs.split_at(0).0
}

// `unwrap_or` / `unwrap_or_else` / `unwrap_or_default` are total.
fn total_unwraps(o: Option<f64>) -> f64 {
    o.unwrap_or(0.0).max(o.unwrap_or_else(|| 1.0)) + Option::<f64>::None.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    // Everything the Lib class forbids is fine in tests (except the
    // comparator/hash/unsafe rules, none of which appear here).
    #[test]
    fn exact_assertions_are_test_idiom() {
        let v = vec![1.0f64, 2.0];
        assert!(v[0] == 1.0);
        assert_eq!(v.first().copied().unwrap(), 1.0);
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_secs() < 3600);
    }
}
