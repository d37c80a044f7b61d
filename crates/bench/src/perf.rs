//! Recorded perf baselines: the `bench` / `bench-verify` subcommands of
//! the `reproduce` binary.
//!
//! `reproduce bench` runs the micro-suites and emits a machine-readable
//! `BENCH_6.json` (schema `"mmb-bench-6"`, hand-rolled writer — no serde
//! in the offline environment):
//!
//! * **scaling** — the `decompose_scaling` configurations, each solved
//!   on a prebuilt `Solver`, with wall-clock and the workspace's
//!   allocation counters (the peak-RSS proxy);
//! * **batch** — `solve_many` over a stream of instances at 1, 2 and 4
//!   worker threads (the shim honors `RAYON_NUM_THREADS`-style overrides).
//!
//! Every measured solve is also checked for **bit-identical colorings**
//! (repeated solves, batch vs one-at-a-time); the run aborts if any
//! diverge, so a committed baseline file doubles as an equivalence
//! certificate. The committed `BENCH_6.json` also carries `alloc_ms`,
//! `speedup` and `stage_ms` scaling columns from an earlier writer; the
//! validator ignores them. Since PR 5 each scaling row additionally
//! records the **certified optimality gap** of the measured solve — the best
//! `mmb_core::lower_bounds` certificate and the achieved-cost/lower
//! ratio — so the perf trajectory carries a quality floor alongside the
//! wall-clock numbers (schema bump `mmb-bench-3` → `mmb-bench-4`).
//!
//! Since PR 6 the report also carries a **corpus gap table**
//! (`"corpus_gaps"`, schema bump `mmb-bench-4` → `mmb-bench-5`,
//! `BENCH_5.json`): for every quick- and medium-corpus entry, the best
//! certified lower bound from the full stack — including the anytime
//! branch-and-bound certifier — against the pipeline's achieved cost,
//! with a `proven` flag marking rows certified by an exhaustive search
//! (the `"bnb"` certifier). These rows are timing-free and fully
//! deterministic, so a committed baseline supports exact regression
//! gating: [`gap_regression_check`] recomputes the table and fails if
//! any entry's certified ratio got *worse* than the committed one — the
//! `reproduce gap-gate` CI guard.
//!
//! Since PR 9 the report carries a **large-`n` suite** (`"large"`, schema
//! bump `mmb-bench-5` → `mmb-bench-6`, `BENCH_6.json`): grid instances at
//! `n ≈ 10^5/10^6/10^7` (quick mode runs only the `10^5` row) go through
//! the full scale path — METIS serialization, streaming re-ingestion
//! ([`mmb_graph::io::parse_metis_reader`]), and a coarsening-cascade
//! solve ([`mmb_core::pipeline::CoarsenConfig`]). Each row records
//! ingest/solve wall-clock and the workspace's `peak_total_bytes` (pool
//! scratch + ingestion/coarsening arenas — the peak-RSS proxy), and the
//! validator enforces the per-size budgets of [`large_budget`] on every
//! committed row, plus an `n ≥ 10^6` row in full mode.
//!
//! `reproduce bench-verify <path>` re-parses a committed file with the
//! minimal JSON reader in this module and fails (non-zero exit) if it is
//! missing, malformed, or lacks the required fields — the CI guard.

use std::time::Instant;

use mmb_core::api::{solve_many, Instance, Partitioner, Solver, Theorem4Pipeline};
use mmb_core::lower_bounds::{best_lower_bound, CertifiedGap};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::io::{parse_metis, write_metis};
use mmb_graph::Workspace;
use mmb_instances::corpus::Corpus;

/// One row of the scaling suite.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Grid side length (instance is `side × side`).
    pub side: usize,
    /// `|V|`.
    pub n: usize,
    /// Number of classes.
    pub k: usize,
    /// Best-of-repeats wall-clock of a solve.
    pub workspace_ms: f64,
    /// Scratch-buffer checkouts during one solve.
    pub ws_acquires: u64,
    /// Checkouts that had to allocate (pool misses).
    pub ws_fresh_allocs: u64,
    /// Entries written and re-zeroed (`O(vol(W))` work actually done).
    pub ws_cells_touched: u64,
    /// Entries the allocating path would have zeroed (`O(n)` per buffer).
    pub ws_cells_dense: u64,
    /// High-water of concurrently live scratch buffers.
    pub ws_peak_live: usize,
    /// Peak scratch bytes pinned (`peak_live × n × 12`).
    pub ws_peak_bytes: u64,
    /// Best certified lower bound on the optimum for this configuration
    /// (`mmb_core::lower_bounds`; the exhaustive `bnb` certifier never
    /// fires at these sizes, so this is the cheap combinatorial stack).
    pub lower: f64,
    /// Certified gap ratio of the measured solve: `max ∂ / lower`.
    pub certified_ratio: f64,
}

/// One row of the large-`n` suite (`"large"`): the full scale path —
/// METIS round-trip ingestion plus a coarsening-cascade solve — at grid
/// sizes from `10^5` up.
#[derive(Clone, Debug)]
pub struct LargeRow {
    /// Grid side length (instance is `side × side`).
    pub side: usize,
    /// `|V|`.
    pub n: usize,
    /// `|E|`.
    pub m: usize,
    /// Number of classes.
    pub k: usize,
    /// Wall-clock of the streaming METIS parse (document → CSR).
    pub ingest_ms: f64,
    /// Wall-clock of solver build + cascade solve.
    pub solve_ms: f64,
    /// Workspace `peak_total_bytes` across ingest + solve: pooled scratch
    /// high-water plus the ingestion/coarsening arena high-water — the
    /// allocation-based peak-RSS proxy.
    pub peak_bytes: u64,
    /// The achieved max boundary cost (trajectory data, not gated).
    pub max_boundary: f64,
    /// Whether the projected coloring satisfies eq. (1) exactly (always
    /// true for an emitted report; the run aborts otherwise).
    pub strictly_balanced: bool,
}

/// The per-row budgets the validator enforces on committed large rows:
/// `(wall_clock_ms, peak_bytes)` as a function of `n`.
///
/// Single source of truth — the runner records measurements, the
/// validator recomputes the budget from the row's own `n`, so a committed
/// baseline cannot quietly carry a budget the code no longer endorses.
/// The byte budget is linear in `n` (CSR + arenas + pooled scratch are
/// all `O(n + m)` with `m ≈ 2n` on grids); the wall-clock budget is
/// linear with a generous constant for slow CI hosts. The per-vertex
/// wall-clock constant is calibrated against the measured `n = 10^7`
/// run, where the working set no longer fits in cache — per-vertex cost
/// there is ~10× the in-cache `n = 10^5` figure, so small-`n` rows pass
/// with slack while the largest row keeps ~1.7× headroom.
pub fn large_budget(n: usize) -> (f64, u64) {
    let ms = 10_000.0 + n as f64 * 0.04;
    let bytes = 128 * 1024 * 1024 + 700 * n as u64;
    (ms, bytes)
}

/// One row of the batch (`solve_many`) suite.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Worker threads the shim was pinned to.
    pub threads: usize,
    /// Wall-clock for the whole batch, best of repeats.
    pub ms: f64,
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

/// The full perf report serialized into `BENCH_6.json`.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `"quick"` (CI smoke) or `"full"`.
    pub mode: String,
    /// Hardware threads visible to this process.
    pub threads_available: usize,
    /// Scaling suite rows, smallest instance first.
    pub scaling: Vec<ScalingRow>,
    /// Large-`n` suite rows, smallest instance first (quick mode runs
    /// only the `10^5` row).
    pub large: Vec<LargeRow>,
    /// Batch-suite instance count.
    pub batch_instances: usize,
    /// Batch suite rows, by thread count.
    pub batch: Vec<BatchRow>,
    /// Corpus gap table (quick + medium corpora; mode-independent —
    /// see [`compute_corpus_gaps`]).
    pub corpus_gaps: Vec<GapRow>,
    /// Whether every measured pair produced bit-identical colorings
    /// (always true for an emitted report; the run aborts otherwise).
    pub colorings_bit_identical: bool,
}

fn det_weights(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|v| 1.0 + ((seed >> (v % 53)) & 7) as f64)
        .collect()
}

fn grid_instance(side: usize, seed: u64) -> Instance {
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let weights = det_weights(n, seed);
    Instance::from_grid(grid, costs, weights).expect("valid instance")
}

/// Uniform-weight grid: `‖w‖∞ = 1` keeps the Proposition 11 recursion far
/// from its base case, so the shrink stage descends many levels — the
/// configuration where per-level `O(n)` scratch allocation dominated the
/// old hot path.
fn uniform_grid_instance(side: usize) -> Instance {
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    Instance::from_grid(grid, costs, vec![1.0; n]).expect("valid instance")
}

/// Run `f` `repeats` times; return the result **of the fastest
/// iteration** together with its wall-clock.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let r = f();
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        if elapsed < best {
            best = elapsed;
            out = Some(r);
        }
    }
    (out.expect("at least one repeat"), best)
}

/// Run the perf suites. `quick` shrinks sizes for the CI smoke run.
///
/// # Panics
/// Panics if any measured configuration produces diverging colorings —
/// an emitted report certifies equivalence.
pub fn run(quick: bool) -> PerfReport {
    let repeats = if quick { 1 } else { 3 };
    // The shrink-dominated configuration: uniform-ish weights drive the
    // Proposition 11 recursion deep, and k = 16 classes mean many
    // per-class boundary measures per level.
    let sides: &[usize] = if quick { &[12, 16] } else { &[24, 40, 64] };
    let k = 16;
    let mut scaling = Vec::new();
    for &side in sides {
        let inst = uniform_grid_instance(side);
        let n = inst.num_vertices();
        let solver = Solver::for_instance(&inst)
            .classes(k)
            .build()
            .expect("valid");
        // Warm the thread-local pool so the measured solves see
        // steady-state reuse, then reset counters and measure.
        let warm = solver.solve();
        Workspace::with_local(|ws| ws.reset_stats());
        let (report, workspace_ms) = best_of(repeats, || solver.solve());
        let stats = Workspace::with_local(|ws| ws.stats());
        let solves = repeats.max(1) as u64;
        assert_eq!(
            warm.coloring, report.coloring,
            "solve() is not deterministic"
        );
        let gap = CertifiedGap::new(best_lower_bound(&inst, k).value(), report.max_boundary, "");
        scaling.push(ScalingRow {
            side,
            n,
            k,
            workspace_ms,
            ws_acquires: stats.acquires / solves,
            ws_fresh_allocs: stats.fresh_allocs,
            ws_cells_touched: stats.cells_touched / solves,
            ws_cells_dense: stats.cells_dense / solves,
            ws_peak_live: stats.peak_live,
            ws_peak_bytes: stats.peak_bytes(n),
            lower: gap.lower,
            certified_ratio: gap.ratio,
        });
    }

    // Large-n suite: serialize a grid to METIS, re-ingest it through the
    // streaming parser, and solve with the coarsening cascade — the
    // million-vertex scale path, measured end to end. Runs on a fresh
    // thread so the workspace counters see exactly this suite's arenas.
    let large_sides: &[usize] = if quick { &[320] } else { &[320, 1000, 3163] };
    let large_k = 8;
    let mut large = Vec::new();
    for &side in large_sides {
        let row = std::thread::spawn(move || {
            let grid = GridGraph::lattice(&[side, side]);
            let n = grid.graph.num_vertices();
            let m = grid.graph.num_edges();
            let weights = det_weights(n, 17);
            let costs = vec![1.0; m];
            let doc = write_metis(&grid.graph, &weights, &costs);
            drop((grid, weights, costs));
            Workspace::with_local(|ws| ws.reset_stats());
            let t = Instant::now();
            let mg = parse_metis(&doc).expect("self-written METIS parses");
            let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(doc);
            let inst = Instance::new(mg.graph, mg.costs, mg.weights).expect("round-trip is valid");
            let cfg = PipelineConfig {
                coarsen: Some(CoarsenConfig::default()),
                ..PipelineConfig::default()
            };
            let t = Instant::now();
            let solver = Solver::for_instance(&inst)
                .classes(large_k)
                .config(cfg)
                .build()
                .expect("valid");
            let report = solver.solve();
            let solve_ms = t.elapsed().as_secs_f64() * 1e3;
            let stats = Workspace::with_local(|ws| ws.stats());
            assert!(
                report.is_strictly_balanced(),
                "cascade solve not strictly balanced at side {side}"
            );
            LargeRow {
                side,
                n,
                m,
                k: large_k,
                ingest_ms,
                solve_ms,
                peak_bytes: stats.peak_total_bytes(n),
                max_boundary: report.max_boundary,
                strictly_balanced: true,
            }
        })
        .join()
        .expect("large-n row must not panic");
        let (budget_ms, budget_bytes) = large_budget(row.n);
        assert!(
            row.ingest_ms + row.solve_ms <= budget_ms,
            "large-n row side {side} over wall-clock budget: {:.0} + {:.0} > {budget_ms:.0} ms",
            row.ingest_ms,
            row.solve_ms
        );
        assert!(
            row.peak_bytes <= budget_bytes,
            "large-n row side {side} over memory budget: {} > {budget_bytes} bytes",
            row.peak_bytes
        );
        large.push(row);
    }

    // Batch suite: a stream of distinct instances through solve_many.
    let batch_sides: &[usize] = if quick {
        &[8, 10, 12, 14]
    } else {
        &[16, 20, 24, 28]
    };
    let copies = if quick { 2 } else { 4 };
    let instances: Vec<Instance> = (0..copies)
        .flat_map(|c| {
            batch_sides
                .iter()
                .map(move |&s| grid_instance(s, 11 + c as u64))
        })
        .collect();
    let batch_k = 8;
    let cfg = PipelineConfig::default();
    // Reference: one-at-a-time solves on this thread.
    let reference: Vec<_> = instances
        .iter()
        .map(|inst| {
            Solver::for_instance(inst)
                .classes(batch_k)
                .build()
                .expect("valid")
                .solve()
                .coloring
        })
        .collect();
    let mut batch = Vec::new();
    let mut all_identical = true;
    for threads in [1usize, 2, 4] {
        let (reports, ms) = best_of(repeats, || {
            rayon::with_num_threads(threads, || solve_many(&instances, batch_k, &cfg))
        });
        for (r, reference) in reports.iter().zip(&reference) {
            let r = r.as_ref().expect("batch instances are valid");
            all_identical &= r.coloring == *reference;
        }
        batch.push(BatchRow { threads, ms });
    }
    assert!(
        all_identical,
        "solve_many diverged from one-at-a-time solves"
    );

    PerfReport {
        mode: if quick { "quick" } else { "full" }.into(),
        threads_available: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        scaling,
        large,
        batch_instances: instances.len(),
        batch,
        corpus_gaps: compute_corpus_gaps(),
        colorings_bit_identical: all_identical,
    }
}

fn fnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

/// Full round-trip serialization for gap-table floats: the regression
/// gate re-parses these and compares against freshly computed values, so
/// rounding to 3 decimals would manufacture spurious "regressions".
fn fnum_exact(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

impl PerfReport {
    /// Serialize to the `BENCH_6.json` schema (`"mmb-bench-6"`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mmb-bench-6\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!(
            "  \"host\": {{ \"threads_available\": {} }},\n",
            self.threads_available
        ));
        s.push_str("  \"scaling\": [\n");
        for (i, r) in self.scaling.iter().enumerate() {
            s.push_str(&format!(
                concat!(
                    "    {{ \"side\": {}, \"n\": {}, \"k\": {}, \"workspace_ms\": {}, ",
                    "\"certified\": {{ \"lower\": {}, \"ratio\": {} }}, ",
                    "\"workspace\": {{ \"acquires\": {}, \"fresh_allocs\": {}, ",
                    "\"cells_touched\": {}, \"cells_dense\": {}, ",
                    "\"peak_live\": {}, \"peak_bytes\": {} }} }}{}\n"
                ),
                r.side,
                r.n,
                r.k,
                fnum(r.workspace_ms),
                fnum(r.lower),
                fnum(r.certified_ratio),
                r.ws_acquires,
                r.ws_fresh_allocs,
                r.ws_cells_touched,
                r.ws_cells_dense,
                r.ws_peak_live,
                r.ws_peak_bytes,
                if i + 1 < self.scaling.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"large\": [\n");
        for (i, r) in self.large.iter().enumerate() {
            s.push_str(&format!(
                concat!(
                    "    {{ \"side\": {}, \"n\": {}, \"m\": {}, \"k\": {}, ",
                    "\"ingest_ms\": {}, \"solve_ms\": {}, \"peak_bytes\": {}, ",
                    "\"max_boundary\": {}, \"strictly_balanced\": {} }}{}\n"
                ),
                r.side,
                r.n,
                r.m,
                r.k,
                fnum(r.ingest_ms),
                fnum(r.solve_ms),
                r.peak_bytes,
                fnum(r.max_boundary),
                r.strictly_balanced,
                if i + 1 < self.large.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"batch_instances\": {},\n",
            self.batch_instances
        ));
        s.push_str("  \"batch\": [\n");
        for (i, r) in self.batch.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"threads\": {}, \"ms\": {} }}{}\n",
                r.threads,
                fnum(r.ms),
                if i + 1 < self.batch.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"corpus_gaps\": [\n");
        for (i, r) in self.corpus_gaps.iter().enumerate() {
            s.push_str(&format!(
                concat!(
                    "    {{ \"name\": \"{}\", \"n\": {}, \"k\": {}, ",
                    "\"lower\": {}, \"upper\": {}, \"ratio\": {}, ",
                    "\"certifier\": \"{}\", \"proven\": {} }}{}\n"
                ),
                r.name,
                r.n,
                r.k,
                fnum_exact(r.lower),
                fnum_exact(r.upper),
                fnum_exact(r.ratio),
                r.certifier,
                r.proven,
                if i + 1 < self.corpus_gaps.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"colorings_bit_identical\": {}\n",
            self.colorings_bit_identical
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary printed alongside the JSON.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str("# perf baselines (BENCH_6)\n");
        s.push_str("| n | k | solve ms | lower | gap |\n");
        s.push_str("|---|---|----------|-------|-----|\n");
        for r in &self.scaling {
            s.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {:.2}x |\n",
                r.n, r.k, r.workspace_ms, r.lower, r.certified_ratio
            ));
        }
        for r in &self.large {
            let (budget_ms, budget_bytes) = large_budget(r.n);
            s.push_str(&format!(
                "large: n = {} (k = {}) — ingest {:.0} ms, solve {:.0} ms, \
                 peak {:.1} MiB (budgets: {:.0} ms, {:.1} MiB)\n",
                r.n,
                r.k,
                r.ingest_ms,
                r.solve_ms,
                r.peak_bytes as f64 / (1024.0 * 1024.0),
                budget_ms,
                budget_bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        s.push_str(&format!(
            "batch: {} instances — {}\n",
            self.batch_instances,
            self.batch
                .iter()
                .map(|b| format!("{} thread(s): {:.2} ms", b.threads, b.ms))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let proven = self.corpus_gaps.iter().filter(|r| r.proven).count();
        let proven_past_cap = self
            .corpus_gaps
            .iter()
            .filter(|r| r.proven && r.n > 16)
            .count();
        s.push_str(&format!(
            "corpus gaps: {} entries, {} proven optimal ({} past n = 16)\n",
            self.corpus_gaps.len(),
            proven,
            proven_past_cap
        ));
        s.push_str(&format!(
            "host threads: {}; colorings bit-identical: {}\n",
            self.threads_available, self.colorings_bit_identical
        ));
        s
    }
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

/// Parse a JSON document (strict enough for our own writer's output and
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
        // The timing must be an actual number — the writer serializes
        // non-finite values as `null`, which the guard must reject.
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

    #[test]
    fn quick_run_roundtrips_through_the_validator() {
        let report = run(true);
        let json = report.to_json();
        validate_bench_json(&json).expect("self-emitted JSON must validate");
        assert!(report.colorings_bit_identical);
        assert_eq!(report.scaling.len(), 2);
        assert_eq!(report.batch.len(), 3);
        // Quick mode runs exactly the 10^5 large row, within budget (the
        // validator re-enforced this from the serialized document too).
        assert_eq!(report.large.len(), 1);
        let lr = &report.large[0];
        assert!(lr.n >= 100_000 && lr.strictly_balanced);
        assert!(lr.peak_bytes > 0, "arena counters never charged");
        // The workspace path must reuse buffers: far fewer fresh
        // allocations than checkouts.
        for row in &report.scaling {
            assert!(row.ws_acquires > 0);
            assert!(
                row.ws_fresh_allocs <= row.ws_peak_live as u64,
                "pool misses ({}) exceed peak concurrency ({})",
                row.ws_fresh_allocs,
                row.ws_peak_live
            );
            // Every measured configuration certifies a non-trivial gap.
            assert!(row.lower > 0.0, "trivial lower bound on side {}", row.side);
            assert!(
                row.certified_ratio.is_finite() && row.certified_ratio >= 1.0,
                "bad certified ratio {} on side {}",
                row.certified_ratio,
                row.side
            );
        }
    }

    #[test]
    fn validator_rejects_trivial_certificates() {
        // A zero lower bound makes the ratio ∞ → serialized as null →
        // the guard must refuse the document.
        let mut report = run(true);
        report.scaling[0].lower = 0.0;
        report.scaling[0].certified_ratio = f64::INFINITY;
        let err = validate_bench_json(&report.to_json()).unwrap_err();
        assert!(err.contains("certified"), "unexpected error: {err}");
        // And a zero lower bound with a *finite* ratio (hand-edited or a
        // future CertifiedGap regression) must be refused just as hard.
        report.scaling[0].certified_ratio = 1.0;
        let err = validate_bench_json(&report.to_json()).unwrap_err();
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
        let mut report = run(true);
        report.scaling[0].workspace_ms = f64::NAN;
        let json = report.to_json();
        assert!(json.contains("null"), "NaN must serialize as null");
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
        // A self-emitted report passes its own regression gate (ratios
        // are bit-reproducible), and the gate catches a doctored
        // regression.
        let report = run(true);
        let json = report.to_json();
        let msg = gap_regression_check(&json).expect("self-gate must pass");
        assert!(msg.contains("none regressed"), "{msg}");
        let doctored = json.replace(
            &format!(
                "\"ratio\": {}",
                super::fnum_exact(report.corpus_gaps[0].ratio)
            ),
            &format!(
                "\"ratio\": {}",
                super::fnum_exact(report.corpus_gaps[0].ratio / 16.0)
            ),
        );
        assert_ne!(doctored, json, "test setup failed to doctor the baseline");
        let err = gap_regression_check(&doctored).unwrap_err();
        assert!(err.contains("regressed"), "unexpected error: {err}");
    }

    #[test]
    fn validator_enforces_large_budgets() {
        let report = run(true);
        let mut over_time = report.clone();
        over_time.large[0].solve_ms = large_budget(over_time.large[0].n).0 + 1.0;
        let err = validate_bench_json(&over_time.to_json()).unwrap_err();
        assert!(err.contains("wall-clock budget"), "unexpected error: {err}");
        let mut over_mem = report;
        over_mem.large[0].peak_bytes = large_budget(over_mem.large[0].n).1 + 1;
        let err = validate_bench_json(&over_mem.to_json()).unwrap_err();
        assert!(err.contains("memory budget"), "unexpected error: {err}");
    }

    #[test]
    fn gap_gate_accepts_previous_schema_documents() {
        // The regression gate matches corpus_gaps rows only — a committed
        // baseline from before the mmb-bench-6 rename (no "large" array,
        // old schema tag) must still gate, so the rename cannot lose the
        // recorded gap history in the changeover commit.
        let report = run(true);
        let old_schema = report
            .to_json()
            .replace("\"schema\": \"mmb-bench-6\"", "\"schema\": \"mmb-bench-5\"");
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
