//! Workspace walking: which files are scanned, and as what class.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::context::{FileClass, FileContext};
use crate::report::Report;
use crate::rules::check_file;

/// Directory names never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Workspace-relative path prefixes excluded from the scan:
///
/// * `vendor/` — offline shims mimicking external crates; they are not
///   this repository's algorithm code and keep the idioms of the crates
///   they stand in for.
/// * `crates/analyze/fixtures/` — the linter's own test corpus, which
///   exists precisely to contain violations.
const SKIP_PREFIXES: &[&str] = &["vendor/", "crates/analyze/fixtures/"];

/// Classify a workspace-relative path.
///
/// `tests/`, `benches/`, `examples/` directories (any crate) and the
/// `mmb-bench` harness crate are [`FileClass::Harness`]; everything else
/// is [`FileClass::Lib`]. See [`FileClass`] for which rules each class
/// gets.
pub fn classify(rel: &str) -> FileClass {
    let harness = rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.starts_with("crates/bench/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    if harness {
        FileClass::Harness
    } else {
        FileClass::Lib
    }
}

/// Scan the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    // Deterministic order regardless of directory-entry order.
    files.sort();
    let mut report = Report {
        findings: Vec::new(),
        files_scanned: 0,
        suppressed: 0,
    };
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let ctx = FileContext::new(&rel_str, &src, classify(&rel_str));
        let (findings, suppressed) = check_file(&ctx);
        report.findings.extend(findings);
        report.suppressed += suppressed;
        report.files_scanned += 1;
    }
    report.sort();
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel == p.trim_end_matches('/') || rel.starts_with(p))
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/strict.rs"), FileClass::Lib);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(classify("crates/analyze/src/rules.rs"), FileClass::Lib);
        assert_eq!(classify("tests/api.rs"), FileClass::Harness);
        assert_eq!(classify("examples/walkthrough.rs"), FileClass::Harness);
        assert_eq!(classify("crates/bench/src/perf.rs"), FileClass::Harness);
        assert_eq!(
            classify("crates/bench/benches/splitters.rs"),
            FileClass::Harness
        );
        assert_eq!(
            classify("crates/graph/tests/generators.rs"),
            FileClass::Harness
        );
    }
}
