//! The corpus gap table of `BENCH_6.json` and its regression gate, the
//! `gap-gate` subcommand of the `reproduce` binary.
//!
//! `BENCH_6.json` (schema `"mmb-bench-6"`) holds the **corpus gap
//! table** (`"corpus_gaps"`): for every quick- and medium-corpus entry,
//! the best certified lower bound from the full stack — including the
//! anytime branch-and-bound certifier — against the pipeline's achieved
//! cost, with a `proven` flag marking rows certified by an exhaustive
//! search (the `"bnb"` certifier). Time and memory are measured by
//! `perfbench/`; this module only reads the file:
//! `reproduce gap-gate <path>` ([`gap_regression_check`]) recomputes the
//! gap table ([`compute_corpus_gaps`] — timing-free and deterministic)
//! and fails if any entry's certified ratio got *worse* than the
//! committed one.
//!
//! The unit tests run the gate on the committed file, so tier-1 guards it
//! too.

use mmb_core::api::{Partitioner, Theorem4Pipeline};
use mmb_core::lower_bounds::{best_lower_bound, CertifiedGap};
use mmb_instances::corpus::Corpus;

/// One row of the corpus gap table (`"corpus_gaps"`): the certified
/// optimality gap of the pipeline on one quick/medium corpus entry.
#[derive(Clone, Debug)]
pub struct GapRow {
    /// Corpus entry name (unique within the table).
    pub name: String,
    /// `|V|`.
    pub n: usize,
    /// Number of classes.
    pub k: usize,
    /// Best certified lower bound from the full stack.
    pub lower: f64,
    /// The pipeline's achieved max boundary cost.
    pub upper: f64,
    /// `upper / lower`.
    pub ratio: f64,
    /// Winning certifier name.
    pub certifier: String,
    /// Whether the bound is an exhaustive-search optimum (`"bnb"` won) —
    /// i.e. the gap is exact, not just certified.
    pub proven: bool,
}

/// Compute the corpus gap table: quick + medium corpora (both
/// mode-independent and timing-free, so the rows are exactly
/// reproducible), pipeline cost vs the full certifier stack.
pub fn compute_corpus_gaps() -> Vec<GapRow> {
    let pipeline = Theorem4Pipeline::default();
    let mut rows = Vec::new();
    for corpus in [Corpus::quick(), Corpus::medium()] {
        for entry in &corpus {
            let inst = &entry.instance;
            let report = best_lower_bound(inst, entry.k);
            let upper = pipeline
                .partition(inst, entry.k)
                .expect("pipeline runs on every corpus entry")
                .max_boundary_cost(inst.graph(), inst.costs());
            let gap = CertifiedGap::new(report.value(), upper, report.winner());
            let proven = report.winner() == "bnb";
            rows.push(GapRow {
                name: entry.name.clone(),
                n: inst.num_vertices(),
                k: entry.k,
                lower: gap.lower,
                upper: gap.upper,
                ratio: gap.ratio,
                certifier: gap.certifier,
                proven,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (the gap table only — no serde in the offline
// build).

/// A parsed JSON value (just enough structure for the gap table).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String literal (escapes decoded naively).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as key/value pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parse a JSON document (strict enough for the committed baseline and
/// ordinary hand edits; not a general-purpose parser).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(kv));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err(format!("object key must be a string at byte {}", *pos));
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                kv.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(out)),
                    b'\\' => {
                        let Some(&esc) = b.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        out.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => other as char,
                        });
                    }
                    other => out.push(other as char),
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
        }
    }
}

/// Parse and sanity-check the `"corpus_gaps"` table of a parsed BENCH
/// document.
fn parse_gap_rows(doc: &Json) -> Result<Vec<GapRow>, String> {
    let rows = doc
        .get("corpus_gaps")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"corpus_gaps\"")?;
    if rows.is_empty() {
        return Err("\"corpus_gaps\" must not be empty".into());
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let name = match row.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("corpus_gaps[{i}].name must be a non-empty string")),
        };
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("corpus_gaps[{i}].{key} must be a finite number"))
        };
        let (n, k) = (num("n")? as usize, num("k")? as usize);
        let (lower, upper, ratio) = (num("lower")?, num("upper")?, num("ratio")?);
        if lower <= 0.0 {
            return Err(format!(
                "corpus_gaps[{i}].lower must be positive, got {lower}"
            ));
        }
        let certifier = match row.get("certifier") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("corpus_gaps[{i}].certifier must be a string")),
        };
        let proven = match row.get("proven") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("corpus_gaps[{i}].proven must be a bool")),
        };
        out.push(GapRow {
            name,
            n,
            k,
            lower,
            upper,
            ratio,
            certifier,
            proven,
        });
    }
    Ok(out)
}

/// The gap regression gate (`reproduce gap-gate <path>`): recompute the
/// corpus gap table and compare it against the committed baseline. Fails
/// if any baseline entry is missing from the fresh run, or its certified
/// ratio regressed (got worse than the committed one, beyond fp noise).
/// Fresh entries *absent* from the baseline are allowed — adding corpus
/// entries must not require regenerating the committed file in the same
/// change. Returns a human-readable summary on success.
pub fn gap_regression_check(baseline_text: &str) -> Result<String, String> {
    let doc = parse_json(baseline_text)?;
    let baseline = parse_gap_rows(&doc)?;
    let fresh = compute_corpus_gaps();
    let mut checked = 0usize;
    let mut improved = 0usize;
    for base in &baseline {
        let Some(now) = fresh.iter().find(|r| r.name == base.name && r.k == base.k) else {
            return Err(format!(
                "baseline entry `{}` (k = {}) missing from the fresh corpus gap table",
                base.name, base.k
            ));
        };
        checked += 1;
        if now.ratio > base.ratio * (1.0 + 1e-6) + 1e-9 {
            return Err(format!(
                "certified gap regressed on `{}`: ratio {} (was {})",
                base.name, now.ratio, base.ratio
            ));
        }
        if now.ratio < base.ratio * (1.0 - 1e-6) {
            improved += 1;
        }
        if base.proven && !now.proven {
            return Err(format!(
                "`{}` was proven optimal in the baseline but is no longer",
                base.name
            ));
        }
    }
    Ok(format!(
        "gap gate: {checked} baseline entr{} checked, none regressed, {improved} improved",
        if checked == 1 { "y" } else { "ies" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline, read at compile time.
    const BENCH_6: &str = include_str!("../../../BENCH_6.json");

    /// `BENCH_6` with `from` — which must occur exactly once — replaced.
    fn doctored(from: &str, to: &str) -> String {
        assert_eq!(
            BENCH_6.matches(from).count(),
            1,
            "`{from}` must occur exactly once in BENCH_6.json"
        );
        BENCH_6.replacen(from, to, 1)
    }

    #[test]
    fn corpus_gap_table_is_deterministic_and_self_gating() {
        let rows = compute_corpus_gaps();
        assert!(!rows.is_empty());
        // Names are unique (the regression gate matches by name).
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "duplicate gap-table names");
        // Every row certifies a positive bound with a sane ratio, and at
        // least one past-the-cap entry is proven optimal.
        for r in &rows {
            assert!(r.lower > 0.0, "{}: trivial bound", r.name);
            assert!(
                r.ratio.is_finite() && r.ratio >= 1.0 - 1e-9,
                "{}: ratio {}",
                r.name,
                r.ratio
            );
            if r.proven {
                assert_eq!(r.certifier, "bnb", "{}", r.name);
            }
        }
        assert!(
            rows.iter().any(|r| r.proven && r.n > 16),
            "no past-the-cap entry proven optimal"
        );
        // The committed baseline passes the regression gate exactly
        // (ratios are bit-reproducible), and the gate catches a doctored
        // regression.
        let msg = gap_regression_check(BENCH_6).expect("gap gate must pass on BENCH_6.json");
        assert!(msg.contains("none regressed, 0 improved"), "{msg}");
        let first = &parse_gap_rows(&parse_json(BENCH_6).unwrap()).unwrap()[0];
        let doctored = doctored(
            &format!("\"ratio\": {}, \"certifier\"", first.ratio),
            &format!("\"ratio\": {}, \"certifier\"", first.ratio / 16.0),
        );
        let err = gap_regression_check(&doctored).unwrap_err();
        assert!(err.contains("regressed"), "unexpected error: {err}");
    }

    #[test]
    fn gap_gate_accepts_previous_schema_documents() {
        // The regression gate matches corpus_gaps rows only — a committed
        // baseline from before the mmb-bench-6 rename (old schema tag)
        // must still gate, so the rename cannot lose the recorded gap
        // history in the changeover commit.
        let old_schema = doctored("\"schema\": \"mmb-bench-6\"", "\"schema\": \"mmb-bench-5\"");
        let msg = gap_regression_check(&old_schema).expect("gate must accept old documents");
        assert!(msg.contains("none regressed"), "{msg}");
    }

    #[test]
    fn json_parser_handles_basics() {
        let doc = parse_json("{\"a\": [1, 2.5, true, null], \"b\": \"x\\ny\"}").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(doc.get("b"), Some(&Json::Str("x\ny".into())));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }
}
