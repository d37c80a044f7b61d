//! Quickstart: decompose a weighted grid into k strictly balanced parts
//! with small maximum boundary cost — via the `Instance`/`Solver` API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mmb_core::api::{Instance, Solver};
use mmb_graph::gen::grid::GridGraph;

fn main() {
    // 1. An instance: a 32×32 grid ("mesh cells"), per-vertex work, and
    //    per-edge communication costs. Validation happens once, here.
    let grid = GridGraph::lattice(&[32, 32]);
    let n = grid.graph.num_vertices();
    let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 37) % 7) as f64).collect();
    let costs: Vec<f64> = (0..grid.graph.num_edges())
        .map(|e| 1.0 + (e % 3) as f64)
        .collect();
    let inst = Instance::from_grid(grid, costs, weights).expect("valid instance");

    // 2. A reusable solver for k = 8 parts. The splitter is auto-selected
    //    from the instance's structure — grids get GridSplit (Theorem 19)
    //    — and constructed once; p = d/(d−1) = 2 for 2-dimensional grids.
    let solver = Solver::for_instance(&inst)
        .classes(8)
        .p(2.0)
        .build()
        .expect("valid configuration");
    println!(
        "auto-selected splitter: {} (family: {})",
        solver.splitter_name(),
        solver.family()
    );

    // 3. Solve (Theorem 4 pipeline). Call `solve()` as often as you like —
    //    splitter and caches are reused across calls.
    let report = solver.solve();

    // 4. Inspect the guarantees, straight from the report.
    println!(
        "strictly balanced partition into {} parts of a {n}-vertex grid",
        report.k
    );
    println!(
        "  class weights:   {:?}",
        report
            .class_weights
            .iter()
            .map(|w| *w as i64)
            .collect::<Vec<_>>()
    );
    println!(
        "  balance slack:   ±{:.2} allowed (eq. 1), worst deviation {:.2}",
        report.strict_slack,
        report.strict_slack + report.strict_defect
    );
    println!(
        "  boundary costs:  max {:.1}, avg {:.1}",
        report.max_boundary, report.avg_boundary
    );
    println!(
        "  Theorem 5 bound: {:.1} (measured/bound = {:.2})",
        report.bound, report.bound_ratio
    );
    assert!(
        report.is_strictly_balanced(),
        "the pipeline guarantees eq. (1) by construction"
    );
    println!("  eq. (1) holds:   yes");
}
