//! The core algorithms are splitter-generic: every stage must deliver its
//! contract when driven by a *different* splitter family than the grid one
//! used in the module unit tests. This suite runs the machinery over
//! forests (TreeSplitter), the Lemma-37 reduction, and mixed subsets.

use mmb_core::conquer::binpack1;
use mmb_core::multibalance::{heavy_factor, multibalance_minmax_with_pi_ws, multibalance_ws};
use mmb_core::pi::splitting_cost_measure_within;
use mmb_core::rebalance::rebalance_ws;
use mmb_core::shrink::{extract_lean, extract_rich, iterative_partition, ShrinkParams};
use mmb_core::two_color::two_color;
use mmb_graph::gen::tree::{complete_binary_tree, random_tree};
use mmb_graph::measure::{norm_1, norm_inf, set_sum};
use mmb_graph::{Coloring, VertexSet, Workspace};
use mmb_splitters::separator::{SeparatorSplitter, TreeCentroidSeparator};
use mmb_splitters::tree::TreeSplitter;

#[test]
fn heavy_factor_matches_paper() {
    assert_eq!(heavy_factor(1), 2.0);
    assert_eq!(heavy_factor(3), 8.0);
    // Capped to keep thresholds meaningful.
    assert_eq!(heavy_factor(40), heavy_factor(16));
}

#[test]
fn two_color_on_trees() {
    let g = complete_binary_tree(8); // 255 vertices
    let n = g.num_vertices();
    let sp = TreeSplitter::new(&g);
    let w = VertexSet::full(n);
    let m1: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
    let m2: Vec<f64> = (0..n).map(|v| if v < 10 { 20.0 } else { 0.5 }).collect();
    let chi = two_color(&sp, &w, &[&m1, &m2]);
    assert!(chi.class1.is_disjoint(&chi.class2));
    assert_eq!(chi.class1.union(&chi.class2), w);
    // Lemma 8 guarantee for the first measure: ½(total + 2^{r−1}·max).
    let bound = 0.5 * (norm_1(&m1) + 2.0 * norm_inf(&m1));
    let (c1, c2) = chi.class_measures(&m1);
    assert!(c1 <= bound + 1e-9 && c2 <= bound + 1e-9);
}

#[test]
fn rebalance_on_trees_with_two_measures() {
    let g = random_tree(300, 3, 17);
    let n = g.num_vertices();
    let sp = TreeSplitter::new(&g);
    let domain = VertexSet::full(n);
    let k = 6;
    let chi = Coloring::monochromatic(n, k);
    let psi: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
    let phi: Vec<f64> = (0..n).map(|v| ((v * 13) % 7) as f64).collect();
    let ws = Workspace::new();
    let (out, stats) = rebalance_ws(&sp, &chi, &domain, &[&psi, &phi], 4.0, None, &ws);
    assert!(out.is_total());
    assert!(stats.moves >= 1);
    let avg = norm_1(&psi) / k as f64;
    let cm = out.class_measures(&psi);
    for &c in &cm {
        assert!(c < 3.0 * avg + 4.0 * norm_inf(&psi) + 1e-9);
    }
    // Forest depth obeys Claim 5: ≤ log₂(initial max class / avg) + O(1);
    // here the monochromatic start gives ≤ log₂ k + 1.
    assert!(stats.forest_depth as usize <= (k.ilog2() + 2) as usize);
}

#[test]
fn multibalance_via_split_reduction() {
    // Drive Lemma 6 through the Lemma-37 reduction instead of a native
    // splitter — the composition the paper's framework promises.
    let g = complete_binary_tree(9); // 511 vertices
    let n = g.num_vertices();
    let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 2) as f64).collect();
    let sp = SeparatorSplitter::new(&g, &costs, TreeCentroidSeparator::new(&g), 2.0);
    let domain = VertexSet::full(n);
    let k = 5;
    let m: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
    let chi = multibalance_ws(&sp, k, &domain, &[&m], &Workspace::new());
    assert!(chi.is_total());
    let avg = norm_1(&m) / k as f64;
    assert!(norm_inf(&chi.class_measures(&m)) <= 3.0 * avg + 2.0 * norm_inf(&m) + 1e-9);
}

#[test]
fn minmax_prop7_on_trees() {
    let g = random_tree(400, 3, 23);
    let n = g.num_vertices();
    let costs: Vec<f64> = (0..g.num_edges()).map(|e| 0.5 + (e % 4) as f64).collect();
    let sp = TreeSplitter::new(&g);
    let domain = VertexSet::full(n);
    let w = vec![1.0; n];
    let pi = splitting_cost_measure_within(&g, &costs, 2.0, 1.0, &domain);
    let ws = Workspace::new();
    let out = multibalance_minmax_with_pi_ws(&g, &costs, &sp, 8, &domain, &[&w], &pi, &ws);
    assert!(out.coloring.is_total());
    // Boundary should not be concentrated on one class.
    let bc = out.coloring.boundary_costs(&g, &costs);
    let bmax = norm_inf(&bc);
    let bavg = norm_1(&bc) / 8.0;
    assert!(bmax <= 8.0 * bavg + 1e-9, "max {bmax} vs avg {bavg}");
}

#[test]
fn shrink_primitives_on_trees() {
    let g = complete_binary_tree(8);
    let n = g.num_vertices();
    let sp = TreeSplitter::new(&g);
    let u = VertexSet::full(n);
    let psi = vec![1.0; n];
    // iterative_partition covers U disjointly.
    let parts = iterative_partition(&sp, &u, &psi, 40.0);
    let mut seen = VertexSet::empty(n);
    for p in &parts {
        assert!(p.is_disjoint(&seen));
        seen.union_with(p);
    }
    assert_eq!(seen, u);
    // extract_lean avoids a hot protected measure.
    let hot: Vec<f64> = (0..n).map(|v| if v < 8 { 50.0 } else { 0.0 }).collect();
    let protected: [&[f64]; 1] = [&hot];
    let lean = extract_lean(&sp, &u, &psi, &protected, 30.0);
    assert!(set_sum(&hot, &lean) <= 0.5 * set_sum(&hot, &u));
    // extract_rich grabs its share of the hot measure.
    let rich = extract_rich(&sp, &u, &psi, &protected, 0.3);
    assert!(set_sum(&hot, &rich) >= 0.3 / 3.0 * set_sum(&hot, &u) - 1e-9);
}

#[test]
fn binpack1_with_tree_splitter() {
    let g = random_tree(200, 3, 31);
    let n = g.num_vertices();
    let sp = TreeSplitter::new(&g);
    let w0 = VertexSet::full(n);
    let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 4) as f64).collect();
    let k = 4;
    // Very skewed start.
    let chi0 = Coloring::from_fn(n, k, |v| if v < 150 { 0 } else { 1 + v % 3 });
    let w1 = vec![0.0; k];
    let wmax = norm_inf(&weights);
    let out = binpack1(&sp, &chi0, &w0, &weights, &w1, wmax);
    assert!(out.is_total_on(&w0));
    let cm = out.class_measures(&weights);
    let avg = norm_1(&weights) / k as f64;
    for (i, &c) in cm.iter().enumerate() {
        assert!(
            (c - avg).abs() <= 2.0 * wmax + 1e-9,
            "class {i} = {c} not almost strict around {avg}"
        );
    }
}

#[test]
fn shrink_params_default_sane() {
    let p = ShrinkParams::default();
    assert!(p.epsilon > 0.0 && p.epsilon < 1.0);
    assert!(p.weak_factor >= 4.0);
    assert!(p.max_depth >= 64);
}
