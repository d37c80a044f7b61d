//! # mmb-analyze
//!
//! A repo-aware, dependency-free static-analysis pass over the workspace
//! sources — the machine that keeps the NaN-comparator and hash-order bug
//! classes from coming back.
//!
//! ## Why a bespoke linter
//!
//! The certified-gap machinery (`mmb_core::lower_bounds`, DESIGN.md §9) is
//! only as sound as the floating-point comparators and deterministic
//! iteration orders underneath it: a certificate that replays differently
//! run-to-run, or a comparator that panics on an adversarial weight
//! vector, voids the guarantee. Both bug classes have shipped here before
//! (PR 2 fixed a `HashMap`-order leak in `GridSplitter`; PR 5 fixed four
//! NaN-panicking comparators in `strict.rs`) and both keep being easy to
//! reintroduce. Clippy cannot express "this repository orders floats with
//! `total_cmp`, full stop" — so this crate does, in ~1k lines of plain
//! `std`.
//!
//! ## Architecture
//!
//! * [`lexer`] — a small Rust lexer, correct on raw strings, char
//!   literals (`'"'`), nested block comments and numeric-literal
//!   classification; comments stay in the stream as trivia.
//! * [`context`] — per-file annotation: `#[cfg(test)]`/`#[test]` region
//!   tracking, file classification (library vs harness), and the pragma
//!   grammar `// lint: allow(<rule>) — <mandatory reason>`.
//! * [`rules`] — the catalog: `nan-unsafe-cmp`, `hash-order-leak`,
//!   `panic-in-lib`, `float-eq`, `nondeterminism`, `unsafe-forbidden`,
//!   plus the meta rules `bad-pragma` and `unused-pragma` that keep the
//!   exception list itself audited.
//! * [`scan`] — workspace walking (`vendor/` and the fixture corpus
//!   excluded) and [`report`] — JSON (`mmb-analyze-1`) and human output.
//!
//! ## Usage
//!
//! The CI gate is `reproduce lint` (exit 1 on any unpragma'd finding):
//!
//! ```text
//! cargo run -p mmb-bench --bin reproduce --release -- lint
//! ```
//!
//! Library use:
//!
//! ```
//! use mmb_analyze::{scan_workspace, workspace_root};
//!
//! let report = scan_workspace(&workspace_root()).expect("workspace sources readable");
//! assert!(report.is_clean(), "{}", report.render_table());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use context::{FileClass, FileContext};
pub use report::Report;
pub use rules::{check_file, Finding, RULE_NAMES};
pub use scan::{classify, scan_workspace};

use std::path::PathBuf;

/// The workspace root, located relative to this crate's manifest
/// (`crates/analyze` → two levels up). Compile-time constant, so the
/// linter finds its sources no matter the invocation directory.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Analyze a single in-memory source file — the entry point the fixture
/// tests drive.
pub fn analyze_source(path: &str, src: &str, class: FileClass) -> Report {
    let ctx = FileContext::new(path, src, class);
    let (findings, suppressed) = check_file(&ctx);
    let mut report = Report {
        findings,
        files_scanned: 1,
        suppressed,
    };
    report.sort();
    report
}
