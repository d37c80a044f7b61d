//! End-to-end coarsening-cascade tests at `n = 10^5`.
//!
//! The cascade (contract → solve coarse → project with per-level KL →
//! host `BinPack2`) is the scale path for million-vertex instances, so it
//! must preserve the two properties the direct pipeline guarantees:
//! *validity* (a total, strictly balanced `k`-coloring of the host) and
//! *determinism* (same instance + same config ⇒ bit-identical coloring —
//! the matching RNG is seeded, contraction is sort-ordered, and KL is
//! sweep-ordered, so nothing may depend on allocation or hash order).
//!
//! The last test replays the `n ≈ 10^5` row of the committed
//! `BENCH_6.json` through the full scale path — METIS serialization,
//! streaming re-ingestion, cascade solve — and holds it to that row's
//! max boundary and to the [`large_budget`] wall-clock and peak-bytes
//! budgets.

use std::time::Instant;

use mmb_bench::perf::large_budget;
use mmb_core::api::{Report, Solver};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::Instance;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::io::{parse_metis, write_metis};
use mmb_graph::Workspace;

const K: usize = 8;

fn hundred_k_instance() -> Instance {
    let grid = GridGraph::lattice(&[320, 320]);
    let n = grid.graph.num_vertices();
    let m = grid.graph.num_edges();
    assert!(n >= 100_000);
    // Deterministic non-uniform weights so strict balance is non-trivial.
    let weights: Vec<f64> = (0..n)
        .map(|v| 1.0 + ((v * 17 + 3) % 7) as f64 * 0.25)
        .collect();
    Instance::new(grid.graph, vec![1.0; m], weights).expect("grid instance is valid")
}

fn cascade_solve(inst: &Instance) -> Report {
    let cfg = PipelineConfig {
        coarsen: Some(CoarsenConfig::default()),
        ..PipelineConfig::default()
    };
    Solver::for_instance(inst)
        .classes(K)
        .config(cfg)
        .build()
        .expect("valid k")
        .solve()
}

#[test]
fn cascade_at_1e5_is_valid() {
    let inst = hundred_k_instance();
    let report = cascade_solve(&inst);
    let n = inst.num_vertices();
    assert!(
        report.coloring.is_total(),
        "cascade left vertices uncolored"
    );
    assert!(
        report.is_strictly_balanced(),
        "cascade coloring not strictly balanced (slack {})",
        report.strict_slack
    );
    let classes = report.coloring.classes();
    assert_eq!(classes.len(), K);
    assert!(
        classes.iter().all(|c| !c.is_empty()),
        "empty class at n = {n}"
    );
    assert!(report.max_boundary.is_finite() && report.max_boundary > 0.0);
}

#[test]
fn cascade_at_1e5_is_deterministic() {
    let inst = hundred_k_instance();
    let a = cascade_solve(&inst);
    let b = cascade_solve(&inst);
    assert!(
        a.coloring == b.coloring,
        "cascade coloring is run-dependent"
    );
    assert_eq!(a.max_boundary, b.max_boundary);
    assert_eq!(a.class_weights, b.class_weights);
}

/// One large-`n` row: the scale path measured end to end.
struct LargeRow {
    n: usize,
    ingest_ms: f64,
    solve_ms: f64,
    /// Workspace `peak_total_bytes` across ingest + solve: pooled scratch
    /// plus ingestion/coarsening arenas (the peak-RSS proxy).
    peak_bytes: u64,
    report: Report,
}

/// BENCH_6's large-`n` instance at `side × side` — unit costs, weights
/// `1 + ((17 >> (v mod 53)) & 7)` — written as METIS text, re-ingested
/// by the streaming parser and solved by the cascade at `k = K`. Runs on
/// a fresh thread so the workspace counters see only this row. Sides
/// 320, 1000 and 3163 are BENCH_6's `10^5`, `10^6` and `10^7` rows.
fn metis_round_trip_row(side: usize) -> LargeRow {
    std::thread::spawn(move || {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let weights: Vec<f64> = (0..n)
            .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
            .collect();
        let costs = vec![1.0; grid.graph.num_edges()];
        let doc = write_metis(&grid.graph, &weights, &costs);
        drop((grid, weights, costs));
        Workspace::with_local(|ws| ws.reset_stats());
        let t = Instant::now();
        let mg = parse_metis(&doc).expect("self-written METIS parses");
        let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(doc);
        let inst = Instance::new(mg.graph, mg.costs, mg.weights).expect("round-trip is valid");
        let t = Instant::now();
        let report = cascade_solve(&inst);
        let solve_ms = t.elapsed().as_secs_f64() * 1e3;
        let peak_bytes = Workspace::with_local(|ws| ws.stats()).peak_total_bytes(n);
        LargeRow {
            n,
            ingest_ms,
            solve_ms,
            peak_bytes,
            report,
        }
    })
    .join()
    .expect("large-n row must not panic")
}

#[test]
fn metis_round_trip_at_1e5_matches_bench_6_within_budget() {
    let row = metis_round_trip_row(320);
    assert!(
        row.report.is_strictly_balanced(),
        "cascade solve not strictly balanced (slack {})",
        row.report.strict_slack
    );
    // BENCH_6.json's large[0].max_boundary: the cascade's coloring is
    // bit-reproducible, so any change here is a behaviour change.
    assert_eq!(row.report.max_boundary, 2011.0);
    let (budget_ms, budget_bytes) = large_budget(row.n);
    assert!(
        row.ingest_ms + row.solve_ms <= budget_ms,
        "over wall-clock budget: {:.0} + {:.0} > {budget_ms:.0} ms",
        row.ingest_ms,
        row.solve_ms
    );
    assert!(row.peak_bytes > 0, "arena counters never charged");
    assert!(
        row.peak_bytes <= budget_bytes,
        "over memory budget: {} > {budget_bytes} bytes",
        row.peak_bytes
    );
}
