//! The committed perf baseline `BENCH_6.json`: the `bench-verify` and
//! `gap-gate` subcommands of the `reproduce` binary.
//!
//! `BENCH_6.json` (schema `"mmb-bench-6"`) is a frozen record: the
//! scaling, large-`n` and batch rows of a retired timing harness, plus
//! the **corpus gap table** (`"corpus_gaps"`): for every quick- and
//! medium-corpus entry, the best certified lower bound from the full
//! stack — including the anytime branch-and-bound certifier — against the
//! pipeline's achieved cost, with a `proven` flag marking rows certified
//! by an exhaustive search (the `"bnb"` certifier). Time and memory are
//! measured by `perfbench/`; this module only reads the file:
//!
//! * `reproduce bench-verify <path>` ([`validate_bench_json`]) re-parses
//!   it with the minimal JSON reader in this module and fails (non-zero
//!   exit) if it is missing, malformed, lacks a required field, or carries
//!   a large row outside its [`large_budget`];
//! * `reproduce gap-gate <path>` ([`gap_regression_check`]) recomputes the
//!   gap table ([`compute_corpus_gaps`] — timing-free and deterministic)
//!   and fails if any entry's certified ratio got *worse* than the
//!   committed one.
//!
//! The unit tests run both on the committed file, so tier-1 guards it too.

use mmb_core::api::{Partitioner, Theorem4Pipeline};
use mmb_core::lower_bounds::{best_lower_bound, CertifiedGap};
use mmb_instances::corpus::Corpus;

/// The per-row budgets `(wall_clock_ms, peak_bytes)` of a large-`n` row,
/// as a function of `n`: enforced by the validator on every committed
/// row and by `tests/coarsen_cascade.rs` on a fresh `n ≈ 10^5` solve.
///
/// Single source of truth — the validator recomputes the budget from the
/// row's own `n`, so a committed baseline cannot quietly carry a budget
/// the code no longer endorses. The byte budget is linear in `n` (CSR +
/// arenas + pooled scratch are all `O(n + m)` with `m ≈ 2n` on grids);
/// the wall-clock budget is linear with a generous constant for slow CI
/// hosts. The per-vertex wall-clock constant is calibrated against the
/// measured `n = 10^7` run, where the working set no longer fits in
/// cache — per-vertex cost there is ~10× the in-cache `n = 10^5` figure,
/// so small-`n` rows pass with slack while the largest row keeps ~1.7×
/// headroom.
pub fn large_budget(n: usize) -> (f64, u64) {
    let ms = 10_000.0 + n as f64 * 0.04;
    let bytes = 128 * 1024 * 1024 + 700 * n as u64;
    (ms, bytes)
}

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
// Minimal JSON reader (validation only — no serde in the offline build).

/// A parsed JSON value (just enough structure for schema validation).
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
/// ordinary hand edits; not a general-purpose validator).
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

/// Validate a `BENCH_6.json` document: parses, checks the schema tag and
/// every field the downstream tooling (CI, EXPERIMENTS.md tables) reads —
/// including the per-row certified gap introduced with `mmb-bench-4`, the
/// corpus gap table introduced with `mmb-bench-5` (which must carry at
/// least one entry proven optimal past `n = 16`), and the
/// large-`n` suite introduced with `mmb-bench-6`: every row within the
/// [`large_budget`] wall-clock and peak-bytes budgets for its size, and —
/// on full-mode documents — at least one row at `n ≥ 10^6`.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").ok_or("missing \"schema\"")?;
    if schema != &Json::Str("mmb-bench-6".into()) {
        return Err(format!("unexpected schema tag: {schema:?}"));
    }
    for key in ["mode", "host", "batch_instances", "colorings_bit_identical"] {
        doc.get(key).ok_or_else(|| format!("missing \"{key}\""))?;
    }
    let scaling = doc
        .get("scaling")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"scaling\"")?;
    if scaling.is_empty() {
        return Err("\"scaling\" must not be empty".into());
    }
    for (i, row) in scaling.iter().enumerate() {
        for key in ["side", "n", "k", "workspace"] {
            row.get(key)
                .ok_or_else(|| format!("scaling[{i}] missing \"{key}\""))?;
        }
        // The timing must be an actual number — a non-finite value
        // serializes as `null`, which the guard must reject.
        row.get("workspace_ms")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("scaling[{i}].workspace_ms must be a finite number"))?;
        // The certified gap: a lower bound of 0 would serialize ratio ∞
        // as null, which the guard refuses — the committed baseline must
        // carry a non-trivial certificate.
        let certified = row
            .get("certified")
            .ok_or_else(|| format!("scaling[{i}] missing \"certified\""))?;
        for key in ["lower", "ratio"] {
            certified
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("scaling[{i}].certified.{key} must be a finite number"))?;
        }
        // A zero lower bound is a trivial certificate even when the
        // ratio field happens to be finite — refuse it outright.
        let lower = certified.get("lower").and_then(Json::as_num).unwrap_or(0.0);
        if lower <= 0.0 {
            return Err(format!(
                "scaling[{i}].certified.lower must be positive, got {lower}"
            ));
        }
    }
    let large = doc
        .get("large")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"large\"")?;
    if large.is_empty() {
        return Err("\"large\" must not be empty".into());
    }
    for (i, row) in large.iter().enumerate() {
        let num = |key: &str| {
            row.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("large[{i}].{key} must be a finite number"))
        };
        let n = num("n")? as usize;
        for key in ["side", "m", "k"] {
            num(key)?;
        }
        let (ingest_ms, solve_ms) = (num("ingest_ms")?, num("solve_ms")?);
        let peak_bytes = num("peak_bytes")? as u64;
        num("max_boundary")?;
        if row.get("strictly_balanced") != Some(&Json::Bool(true)) {
            return Err(format!("large[{i}].strictly_balanced must be true"));
        }
        let (budget_ms, budget_bytes) = large_budget(n);
        if ingest_ms + solve_ms > budget_ms {
            return Err(format!(
                "large[{i}] (n = {n}) over wall-clock budget: \
                 {ingest_ms:.0} + {solve_ms:.0} > {budget_ms:.0} ms"
            ));
        }
        if peak_bytes > budget_bytes {
            return Err(format!(
                "large[{i}] (n = {n}) over memory budget: \
                 {peak_bytes} > {budget_bytes} bytes"
            ));
        }
    }
    if doc.get("mode") == Some(&Json::Str("full".into()))
        && !large
            .iter()
            .any(|r| r.get("n").and_then(Json::as_num).unwrap_or(0.0) >= 1e6)
    {
        return Err("full-mode document must carry a large row with n >= 10^6".into());
    }
    let batch = doc
        .get("batch")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"batch\"")?;
    if batch.is_empty() {
        return Err("\"batch\" must not be empty".into());
    }
    for (i, row) in batch.iter().enumerate() {
        for key in ["threads", "ms"] {
            row.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("batch[{i}].{key} must be a finite number"))?;
        }
    }
    let gaps = parse_gap_rows(&doc)?;
    if !gaps.iter().any(|r| r.proven && r.n > 16) {
        return Err(
            "corpus_gaps must contain at least one entry proven optimal past n = 16".into(),
        );
    }
    if doc.get("colorings_bit_identical") != Some(&Json::Bool(true)) {
        return Err("\"colorings_bit_identical\" must be true".into());
    }
    Ok(())
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
    fn committed_baseline_passes_the_validator() {
        validate_bench_json(BENCH_6).expect("the committed BENCH_6.json must validate");
    }

    #[test]
    fn validator_rejects_trivial_certificates() {
        // A zero lower bound makes the ratio ∞ → serialized as null →
        // the guard must refuse the document.
        let certified = "\"certified\": { \"lower\": 2.000, \"ratio\": 43.000 }";
        let null_ratio = doctored(
            certified,
            "\"certified\": { \"lower\": 0.000, \"ratio\": null }",
        );
        let err = validate_bench_json(&null_ratio).unwrap_err();
        assert!(err.contains("certified"), "unexpected error: {err}");
        // And a zero lower bound with a *finite* ratio (hand-edited or a
        // future CertifiedGap regression) must be refused just as hard.
        let finite_ratio = doctored(
            certified,
            "\"certified\": { \"lower\": 0.000, \"ratio\": 1.000 }",
        );
        let err = validate_bench_json(&finite_ratio).unwrap_err();
        assert!(err.contains("must be positive"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_bench_json("").is_err());
        assert!(validate_bench_json("{").is_err());
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("{\"schema\": \"wrong\"}").is_err());
        let truncated = "{ \"schema\": \"mmb-bench-3\", \"scaling\": [";
        assert!(validate_bench_json(truncated).is_err());
    }

    #[test]
    fn validator_rejects_null_timings() {
        // A non-finite timing serializes as `null`; the guard must refuse
        // it rather than treating key presence as validity.
        let json = doctored("\"workspace_ms\": 2.687", "\"workspace_ms\": null");
        let err = validate_bench_json(&json).unwrap_err();
        assert!(err.contains("workspace_ms"), "unexpected error: {err}");
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
        // least one past-the-cap entry is proven optimal (the acceptance
        // criterion the validator enforces on committed baselines).
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
    fn validator_enforces_large_budgets() {
        let doc = parse_json(BENCH_6).unwrap();
        let row = &doc.get("large").and_then(Json::as_arr).unwrap()[0];
        let num = |key: &str| row.get(key).and_then(Json::as_num).unwrap();
        let (budget_ms, budget_bytes) = large_budget(num("n") as usize);
        let over_time = doctored(
            &format!("\"solve_ms\": {:.3}", num("solve_ms")),
            &format!("\"solve_ms\": {:.3}", budget_ms + 1.0),
        );
        let err = validate_bench_json(&over_time).unwrap_err();
        assert!(err.contains("wall-clock budget"), "unexpected error: {err}");
        let over_mem = doctored(
            &format!("\"peak_bytes\": {},", num("peak_bytes")),
            &format!("\"peak_bytes\": {},", budget_bytes + 1),
        );
        let err = validate_bench_json(&over_mem).unwrap_err();
        assert!(err.contains("memory budget"), "unexpected error: {err}");
    }

    #[test]
    fn gap_gate_accepts_previous_schema_documents() {
        // The regression gate matches corpus_gaps rows only — a committed
        // baseline from before the mmb-bench-6 rename (no "large" array,
        // old schema tag) must still gate, so the rename cannot lose the
        // recorded gap history in the changeover commit.
        let old_schema = doctored("\"schema\": \"mmb-bench-6\"", "\"schema\": \"mmb-bench-5\"");
        assert!(
            validate_bench_json(&old_schema).is_err(),
            "bench-verify must reject the old tag"
        );
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
