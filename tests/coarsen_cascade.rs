//! End-to-end coarsening-cascade tests at `n = 10^5`.
//!
//! The cascade (contract → solve coarse → project with per-level KL →
//! host `BinPack2`) is the scale path for million-vertex instances, so it
//! must preserve the two properties the direct pipeline guarantees:
//! *validity* (a total, strictly balanced `k`-coloring of the host) and
//! *determinism* (same instance + same config ⇒ bit-identical coloring —
//! the matching RNG is seeded, contraction is sort-ordered, and KL is
//! sweep-ordered, so nothing may depend on allocation or hash order).

use mmb_core::api::Solver;
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::Instance;
use mmb_graph::gen::grid::GridGraph;

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

fn cascade_solve(inst: &Instance) -> mmb_core::api::Report {
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
