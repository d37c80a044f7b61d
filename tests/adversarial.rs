//! Adversarial-weights regression suite across every comparator path this
//! PR converted to `total_cmp`.
//!
//! The weight vector mixes exact zeros, negative zeros, subnormals, huge
//! magnitudes and ties — the inputs on which `partial_cmp(..).unwrap()`
//! comparators either panic (NaN) or silently depend on tie order. Each
//! entry point must (a) not panic, (b) be bit-deterministic across two
//! identical calls, and (c) reject NaN at validation instead of reaching
//! any comparator. Extends the pattern introduced for `strict.rs` (see
//! `adversarial_finite_weights_are_deterministic_and_panic_free` there) to
//! the baselines, separator grouping and the full pipeline.

mod common;

use common::solve_with;
use mmb_baselines::greedy::{first_fit, lpt};
use mmb_baselines::multilevel::{multilevel, MultilevelParams};
use mmb_core::prelude::*;
use mmb_core::refine::{refine, KlParams};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::VertexSet;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::separator::{SeparatorSplitter, TreeCentroidSeparator};
use mmb_splitters::Splitter;

/// Subnormals, ±0.0, ties, and a 1e300 spike — all finite, all nasty.
fn adversarial_weights(n: usize) -> Vec<f64> {
    (0..n)
        .map(|v| match v % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0, // subnormal
            3 => f64::MIN_POSITIVE,
            4 => 1e300,
            _ => 1.0,
        })
        .collect()
}

fn poisoned_weights(n: usize) -> Vec<f64> {
    let mut w = adversarial_weights(n);
    w[n / 2] = f64::NAN;
    w
}

#[test]
fn greedy_baselines_deterministic_and_strict() {
    let n = 96;
    let weights = adversarial_weights(n);
    for k in [2usize, 5, 17] {
        let a = lpt(n, k, &weights).unwrap();
        let b = lpt(n, k, &weights).unwrap();
        assert_eq!(a, b, "lpt nondeterministic at k={k}");
        assert!(a.is_strictly_balanced(&weights), "lpt k={k}");
        let a = first_fit(n, k, &weights).unwrap();
        let b = first_fit(n, k, &weights).unwrap();
        assert_eq!(a, b, "first_fit nondeterministic at k={k}");
        assert!(a.is_strictly_balanced(&weights), "first_fit k={k}");
    }
}

#[test]
fn kl_refine_survives_adversarial_weights() {
    let grid = GridGraph::lattice(&[8, 8]);
    let g = &grid.graph;
    let n = g.num_vertices();
    let weights = adversarial_weights(n);
    let costs = vec![1.0; g.num_edges()];
    let start = first_fit(n, 4, &weights).unwrap();
    let a = refine(g, &costs, &weights, &start, &KlParams::default()).unwrap();
    let b = refine(g, &costs, &weights, &start, &KlParams::default()).unwrap();
    assert_eq!(a, b, "kl::refine nondeterministic");
    assert!(a.is_total());
    // Refinement never worsens the total cut.
    let total = |chi: &mmb_graph::Coloring| chi.boundary_costs(g, &costs).iter().sum::<f64>();
    assert!(total(&a) <= total(&start) + 1e-9);
}

#[test]
fn multilevel_survives_adversarial_weights_and_cost_ties() {
    let grid = GridGraph::lattice(&[8, 8]);
    let g = &grid.graph;
    let n = g.num_vertices();
    let weights = adversarial_weights(n);
    // All-equal costs force the heavy-edge matching into its tie-break on
    // every single decision.
    let costs = vec![1.0; g.num_edges()];
    let params = MultilevelParams::default();
    let a = multilevel(g, &costs, &weights, 4, &params).unwrap();
    let b = multilevel(g, &costs, &weights, 4, &params).unwrap();
    assert_eq!(a, b, "multilevel nondeterministic under full cost ties");
    assert!(a.is_total());
}

#[test]
fn separator_splitter_grouping_handles_ties_and_extremes() {
    // A path graph routes through TreeCentroidSeparator and the
    // Lipton–Tarjan two-thirds grouping (the sort this PR re-keyed).
    let grid = GridGraph::path(64);
    let g = &grid.graph;
    let n = g.num_vertices();
    let weights = adversarial_weights(n);
    let costs = vec![1.0; g.num_edges()];
    let total: f64 = weights.iter().sum();
    let sp = SeparatorSplitter::new(g, &costs, TreeCentroidSeparator::new(g), 1.0);
    let domain = VertexSet::full(n);
    let a = sp.split(&domain, &weights, total / 2.0);
    let b = sp.split(&domain, &weights, total / 2.0);
    assert_eq!(
        a.iter().collect::<Vec<_>>(),
        b.iter().collect::<Vec<_>>(),
        "separator split nondeterministic"
    );
    assert!(!a.is_empty() && a.len() < n, "split must be proper");
}

#[test]
fn full_pipeline_deterministic_on_adversarial_weights() {
    let grid = GridGraph::lattice(&[8, 8]);
    let g = &grid.graph;
    let n = g.num_vertices();
    let weights = adversarial_weights(n);
    let costs = vec![1.0; g.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let run = || solve_with(g, &costs, &weights, 4, &sp);
    let a = run();
    let b = run();
    assert_eq!(a.coloring, b.coloring, "pipeline nondeterministic");
    assert!(a.coloring.is_strictly_balanced(&weights));
}

#[test]
fn nan_is_rejected_at_validation_everywhere() {
    let grid = GridGraph::lattice(&[6, 6]);
    let g = &grid.graph;
    let n = g.num_vertices();
    let w = poisoned_weights(n);
    let costs = vec![1.0; g.num_edges()];
    let nan_err = |e: &SolveError| matches!(e, SolveError::Instance(InstanceError::NotFinite { what }) if *what == "weights");
    assert!(nan_err(&lpt(n, 4, &w).unwrap_err()));
    assert!(nan_err(&first_fit(n, 4, &w).unwrap_err()));
    let start = first_fit(n, 4, &vec![1.0; n]).unwrap();
    assert!(nan_err(
        &refine(g, &costs, &w, &start, &KlParams::default()).unwrap_err()
    ));
    assert!(nan_err(
        &multilevel(g, &costs, &w, 4, &MultilevelParams::default()).unwrap_err()
    ));
}
