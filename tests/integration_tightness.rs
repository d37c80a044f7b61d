//! Integration of the tightness machinery (Theorem 5 / Lemma 40): no
//! algorithm beats the certified lower bound; our upper bound sandwiches it.

mod common;

use common::solve_with;
use mmb_baselines::greedy::{first_fit, lpt};
use mmb_baselines::multilevel::{multilevel, MultilevelParams};
use mmb_baselines::recursive_bisection::recursive_bisection;
use mmb_core::bounds;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::measure::total_edge_norm_p;
use mmb_instances::tight::{min_balanced_separation_cost, TightInstance};
use mmb_splitters::grid::GridSplitter;

fn grid_twin(side: usize, k: usize) -> GridGraph {
    GridGraph::disjoint_copies(&GridGraph::lattice(&[side, side]), k / 4)
}

#[test]
fn nobody_beats_the_certificate() {
    let side = 8;
    let k = 16;
    let tight = TightInstance::grid(side, k);
    let twin = grid_twin(side, k);
    let g = &tight.union.graph;
    assert_eq!(twin.graph.num_vertices(), g.num_vertices());
    assert_eq!(twin.graph.num_edges(), g.num_edges());
    let sp = GridSplitter::new(&twin, &tight.union.costs);

    let ours = solve_with(g, &tight.union.costs, &tight.weights, k, &sp).coloring;
    let candidates = [
        ("ours", ours),
        ("lpt", lpt(g.num_vertices(), k, &tight.weights).unwrap()),
        (
            "first_fit",
            first_fit(g.num_vertices(), k, &tight.weights).unwrap(),
        ),
        (
            "rb",
            recursive_bisection(g, &sp, &tight.weights, k).unwrap(),
        ),
        (
            "multilevel",
            multilevel(
                g,
                &tight.union.costs,
                &tight.weights,
                k,
                &MultilevelParams::default(),
            )
            .unwrap(),
        ),
    ];
    for (name, chi) in &candidates {
        let (avg, lb, rough) = tight.check(chi);
        if rough {
            assert!(
                avg >= lb - 1e-9,
                "{name}: avg boundary {avg} beats the certified lower bound {lb}"
            );
        }
    }
}

#[test]
fn upper_and_lower_sandwich() {
    // Our max boundary stays within a constant of Theorem 5's upper bound
    // while the certified lower bound stays below the measured average —
    // the sandwich that makes the bound tight.
    let side = 8;
    for k in [8usize, 16] {
        let tight = TightInstance::grid(side, k);
        let twin = grid_twin(side, k);
        let g = &tight.union.graph;
        let sp = GridSplitter::new(&twin, &tight.union.costs);
        let d = solve_with(g, &tight.union.costs, &tight.weights, k, &sp);
        let (avg, lb, rough) = tight.check(&d.coloring);
        assert!(rough, "strictly balanced is roughly balanced here");
        assert!(avg >= lb - 1e-9);
        let upper = bounds::theorem5(2.0, k, total_edge_norm_p(g, &tight.union.costs, 2.0), 1.0);
        assert!(
            d.max_boundary <= 10.0 * upper,
            "k={k}: measured {} far above Theorem 5 bound {upper}",
            d.max_boundary
        );
    }
}

#[test]
fn exhaustive_certificates_on_named_graphs() {
    use mmb_graph::gen::misc::{complete, cycle, path};
    // Known-by-hand optima (see unit tests for the arguments).
    let cases: [(&str, mmb_graph::Graph, f64); 3] = [
        ("path9", path(9), 2.0),
        ("cycle9", cycle(9), 4.0),
        ("k6", complete(6), 10.0),
    ];
    for (name, g, expect) in cases {
        let costs = vec![1.0; g.num_edges()];
        let w = vec![1.0; g.num_vertices()];
        let b = min_balanced_separation_cost(&g, &costs, &w);
        assert!(
            (b - expect).abs() < 1e-9,
            "{name}: got {b}, expected {expect}"
        );
    }
}

#[test]
fn small_tight_instance_from_exhaustive_base() {
    // Build G̃ from an exhaustively certified 3×3 grid base and check the
    // full Lemma 40 chain end to end.
    let base = GridGraph::lattice(&[3, 3]);
    let costs = vec![1.0; base.graph.num_edges()];
    let weights = vec![1.0; 9];
    let k = 8;
    let tight = TightInstance::exhaustive(&base.graph, &costs, &weights, k);
    assert!(tight.base_separation_cost > 0.0);
    let twin = grid_twin(3, k);
    let g = &tight.union.graph;
    let sp = GridSplitter::new(&twin, &tight.union.costs);
    let d = solve_with(g, &tight.union.costs, &tight.weights, k, &sp);
    let (avg, lb, rough) = tight.check(&d.coloring);
    assert!(rough);
    assert!(avg >= lb - 1e-9, "avg {avg} < lb {lb}");
}
