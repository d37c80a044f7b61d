//! End-to-end coarsening-cascade tests at `n = 10^5`.
//!
//! The cascade (contract → solve coarse → project with per-level KL →
//! host `BinPack2`) is the scale path for million-vertex instances, so it
//! must preserve the two properties the direct pipeline guarantees:
//! *validity* (a total, strictly balanced `k`-coloring of the host) and
//! *determinism* (same instance + same config ⇒ bit-identical coloring —
//! the matching RNG is seeded, contraction sums every coarse edge's costs
//! in ascending edge-id order, and KL is sweep-ordered, so nothing may
//! depend on allocation or hash order).
//!
//! The round-trip tests replay the large-`n` instances BENCH_6 recorded,
//! whose values are pinned in the test, through the full scale path —
//! METIS serialization, streaming re-ingestion, cascade solve. The
//! `n ≈ 10^5` row is held to its pinned max boundary, to a digest of its
//! coloring, and to the [`large_budget`] wall-clock and peak-bytes
//! budgets. The `10^6` and `10^7` rows are
//! `#[ignore]`d. CI runs the `10^6` row in release by name; the `10^7`
//! row runs by hand, alone on the host. Each prints the process's
//! `VmHWM` next to the workspace proxy, so run one row per process:
//!
//! ```text
//! cargo test --release --test coarsen_cascade -- --ignored --nocapture \
//!     metis_round_trip_at_1e6_matches_bench_6
//! ```
//!
//! The scaling gate times the host `BinPack2` alone at two sizes and
//! bounds its growth, so a return to per-piece `O(n)` work fails on any
//! host.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mmb_core::api::Instance;
use mmb_core::api::{Report, Solver};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::strict::binpack2;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::io::{parse_metis, write_metis};
use mmb_graph::{Coloring, VertexSet, Workspace};
use mmb_splitters::grid::GridSplitter;

const K: usize = 8;

/// The budgets `(wall_clock_ms, peak_bytes)` of a large-`n` row, linear
/// in `n`. The byte budget covers CSR + arenas + pooled scratch, all
/// `O(n + m)` with `m ≈ 2n` on grids; the wall-clock budget carries a
/// generous constant for slow CI hosts. Its per-vertex constant is
/// calibrated against the measured `n = 10^7` run, where the working set
/// no longer fits in cache — per-vertex cost there is ~10× the in-cache
/// `n = 10^5` figure.
fn large_budget(n: usize) -> (f64, u64) {
    let ms = 10_000.0 + n as f64 * 0.04;
    let bytes = 128 * 1024 * 1024 + 700 * n as u64;
    (ms, bytes)
}

/// The tests of this file take turns: two of them time wall clock (the
/// 10^5 row's budget and the scaling gate), which the others, run in
/// parallel, would skew on a small host.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _turn = take_turn();
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
    let _turn = take_turn();
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

/// BENCH_6's large-`n` weights, `1 + ((17 >> (v mod 53)) & 7)`.
fn bench_6_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
        .collect()
}

/// FNV-1a-64 over the per-vertex colors: pins a whole coloring in one
/// number.
fn coloring_digest(coloring: &Coloring) -> u64 {
    (0..coloring.num_vertices() as u32).fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ coloring.raw(v) as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// BENCH_6's large-`n` instance at `side × side` — unit costs,
/// [`bench_6_weights`] — written as METIS text, re-ingested
/// by the streaming parser and solved by the cascade at `k = K`. Runs on
/// a fresh thread so the workspace counters see only this row. Sides
/// 320, 1000 and 3163 are BENCH_6's `10^5`, `10^6` and `10^7` rows.
fn metis_round_trip_row(side: usize) -> LargeRow {
    std::thread::spawn(move || {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let weights = bench_6_weights(n);
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
    let _turn = take_turn();
    let row = metis_round_trip_row(320);
    assert!(
        row.report.is_strictly_balanced(),
        "cascade solve not strictly balanced (slack {})",
        row.report.strict_slack
    );
    // The max boundary BENCH_6 recorded at 10^5: the cascade's coloring is
    // bit-reproducible, so any change here is a behaviour change. The
    // digest pins the coloring itself, not only its max boundary.
    assert_eq!(row.report.max_boundary, 2011.0);
    assert_eq!(coloring_digest(&row.report.coloring), 0xacd8_9528_e41e_9577);
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

/// The process's resident-set high-water mark, `VmHWM` in
/// `/proc/self/status` (Linux), or `"n/a"` where that file does not exist.
/// Unlike the workspace proxy it sees every allocation, the solver's own
/// included.
fn vm_hwm() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| Some(l.strip_prefix("VmHWM:")?.trim().to_owned()))
        })
        .unwrap_or_else(|| "n/a".to_owned())
}

/// Print a by-hand row: what EXPERIMENTS.md records for it.
fn print_row(row: &LargeRow) {
    println!(
        "n = {}: ingest {:.0} ms, solve {:.0} ms, peak {} bytes, VmHWM {}, max boundary {}, \
         digest {:016x}",
        row.n,
        row.ingest_ms,
        row.solve_ms,
        row.peak_bytes,
        vm_hwm(),
        row.report.max_boundary,
        coloring_digest(&row.report.coloring)
    );
}

#[test]
#[ignore = "n = 10^6: run by hand in release"]
fn metis_round_trip_at_1e6_matches_bench_6() {
    let _turn = take_turn();
    let row = metis_round_trip_row(1000);
    print_row(&row);
    assert!(row.report.is_strictly_balanced());
    assert_eq!(row.report.max_boundary, 13028.0);
    assert_eq!(coloring_digest(&row.report.coloring), 0x7ce5_4b41_325b_4f72);
}

#[test]
#[ignore = "n = 10^7: run by hand in release, alone on the host"]
fn metis_round_trip_at_1e7_matches_bench_6() {
    let _turn = take_turn();
    let row = metis_round_trip_row(3163);
    print_row(&row);
    assert!(row.report.is_strictly_balanced());
    assert_eq!(row.report.max_boundary, 92831.0);
    assert_eq!(coloring_digest(&row.report.coloring), 0x6f2e_8ead_4235_a354);
}

/// Host `BinPack2` input on a `side × side` unit-cost grid with
/// [`bench_6_weights`] at `k = K`: stripes whose widths alternate 3% above
/// and below `side/K`, so every other class starts overweight and sheds
/// single heavy vertices — the work that used to cost `O(n)` per piece.
struct SkewedStripes {
    grid: GridGraph,
    weights: Vec<f64>,
    stripes: Coloring,
}

impl SkewedStripes {
    fn new(side: usize) -> Self {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let bound = |c: usize| (c as f64 + 0.03 * (c % 2) as f64) * side as f64 / K as f64;
        let stripes = Coloring::from_fn(n, K, |v| {
            let x = grid.coord(v)[0] as f64;
            (1..K).take_while(|&c| bound(c) <= x).count() as u32
        });
        let weights = bench_6_weights(n);
        Self {
            grid,
            weights,
            stripes,
        }
    }

    /// Wall-clock ms of one host `BinPack2` run; the output must be
    /// strictly balanced and must have recolored vertices.
    fn binpack2_ms(&self, splitter: &GridSplitter) -> f64 {
        let n = self.grid.graph.num_vertices();
        let domain = VertexSet::full(n);
        let t = Instant::now();
        let out = binpack2(
            &self.grid.graph,
            splitter,
            &self.stripes,
            &domain,
            &self.weights,
        );
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(out.is_strictly_balanced(&self.weights), "n = {n}");
        let recolored = (0..n as u32)
            .filter(|&v| out.raw(v) != self.stripes.raw(v))
            .count();
        assert!(recolored >= n / 512, "n = {n}: {recolored} recolored");
        ms
    }
}

#[test]
fn host_binpack2_scales_linearly() {
    let _turn = take_turn();
    // The per-layer complexity gate, t(4n)/t(n) ≤ 5, on the minimum of
    // three interleaved runs per size. A linear BinPack2 reads about 4
    // (cache effects included); the quadratic one read 15–21 on a 2-vCPU
    // VM.
    let (small, large) = (SkewedStripes::new(256), SkewedStripes::new(512));
    let unit = |grid: &GridGraph| vec![1.0; grid.graph.num_edges()];
    let small_splitter = GridSplitter::new(&small.grid, &unit(&small.grid));
    let large_splitter = GridSplitter::new(&large.grid, &unit(&large.grid));
    let (mut t_small, mut t_large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        t_small = t_small.min(small.binpack2_ms(&small_splitter));
        t_large = t_large.min(large.binpack2_ms(&large_splitter));
    }
    assert!(
        t_large / t_small <= 5.0,
        "host BinPack2 grew {:.1}× for 4× n ({t_small:.1} → {t_large:.1} ms)",
        t_large / t_small
    );
}
