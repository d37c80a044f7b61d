//! Seeded-violation fixture: every rule must fire at least once on this
//! file. Scanned as `FileClass::Lib`; excluded
//! from the real workspace walk (see `scan::SKIP_PREFIXES`) and from
//! compilation (not under `src/`). Each block is labeled with the rule it
//! is there to trigger.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

// nan-unsafe-cmp (+ panic-in-lib for the bare unwrap).
fn nan_unsafe(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

// nan-unsafe-cmp: `unwrap_or` silently mis-orders instead of panicking —
// still the same bug class.
fn nan_unsafe_silent(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

// hash-order-leak: iteration with no sort anywhere near.
fn hash_leak(m: &HashMap<u32, f64>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, _) in m.iter() {
        out.push(*k);
    }
    out
}

// hash-order-leak: `for … in &set` form.
fn hash_leak_for(set: &HashSet<u32>) -> u32 {
    let mut acc = 0;
    for v in set {
        acc ^= acc.rotate_left(1) ^ *v;
    }
    acc
}

// panic-in-lib: aborting macros.
fn panics(flag: bool) {
    if flag {
        panic!("boom");
    }
    unreachable!();
}

// float-eq.
fn float_eqs(a: f64) -> bool {
    let exact = a == 1.5;
    let ne = a != 2.25;
    exact || ne
}

// nondeterminism: wall clock and environment reads.
fn nondet() -> bool {
    let t = Instant::now();
    let e = std::env::var("HOME").is_ok();
    e && t.elapsed().as_nanos() > 0
}

// unsafe-forbidden.
fn unholy(p: *const f64) -> f64 {
    unsafe { *p }
}

// catch-unwind: an unaudited unwind boundary swallowing bugs.
fn swallow(f: impl FnOnce() -> f64 + std::panic::UnwindSafe) -> f64 {
    std::panic::catch_unwind(f).unwrap_or(0.0)
}

// Inside #[cfg(test)], panic/float-eq/nondeterminism rules are off — but
// the NaN-comparator rule still applies (a nondeterministic comparator is
// as unsound in a test as in the library).
#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap_and_compare() {
        let v = vec![1.0f64];
        assert!(v[0] == 1.0);
        v.first().unwrap();
        let mut w = vec![2.0f64, 1.0];
        w.sort_by(|a, b| a.partial_cmp(b).unwrap()); // still flagged
    }
}
