//! Differential suite for the host `BinPack2` (`mmb_core::strict::binpack2`).
//!
//! [`reference`] keeps the quadratic `BinPack2` that preceded the linear
//! one, verbatim: it re-sums a class on every loop test and every
//! placement, rescans a class from its first vertex for each heavy
//! vertex, and holds every piece as a universe-sized bitset. The linear
//! version must return the **same coloring** on every case below:
//!
//! * hosts: `GridSplitter` on a 48 × 48 grid (past the size at which the
//!   oracle carves on the thread pool; the library always carves on the
//!   calling thread) and `OrderSplitter` on a 30 × 20 grid (below it);
//! * k ∈ {2, 3, 5, 8, 16};
//! * weights: the `cold-1m` formula `1 + ((17 >> (v mod 53)) & 7)`,
//!   seeded uniform floats in `[0.5, 1.5)`, spikes (a few weight-25
//!   vertices among unit weights, so most pieces are splitting sets), and
//!   extremes (zeros of both signs, subnormals, `1e300`);
//! * starts: stripes skewed by 3% (the almost-strict input the pipeline
//!   hands over), a hashed pseudo-random coloring, and a monochromatic
//!   one;
//! * the degenerate regime `w* < ‖w‖∞/2` (the greedy fallback).
//!
//! Both outputs must also be strictly balanced.

use mmb_core::strict::binpack2;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::{Coloring, VertexSet};
use mmb_instances::weights::WeightFamily;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::order::OrderSplitter;
use mmb_splitters::Splitter;

/// The `BinPack2` that preceded the linear one, kept verbatim as the
/// oracle (with `carve_classes`, the pool fan-out the library has since
/// replaced by a loop on the calling thread).
mod reference {
    use mmb_core::strict::greedy_strict;
    use mmb_graph::measure::{set_max, set_sum};
    use mmb_graph::{Coloring, Graph, VertexSet};
    use mmb_splitters::Splitter;
    use rayon::prelude::*;

    const PAR_CARVE_MIN_VERTICES: usize = 2048;

    fn carve_classes<T, F>(
        items: impl IntoIterator<Item = T>,
        working_set_len: usize,
        shed: F,
    ) -> (Vec<VertexSet>, Vec<VertexSet>)
    where
        T: Send,
        F: Fn(T) -> (VertexSet, Vec<VertexSet>) + Sync,
    {
        let carved: Vec<(VertexSet, Vec<VertexSet>)> = if working_set_len >= PAR_CARVE_MIN_VERTICES
        {
            items.into_par_iter().map(shed).collect()
        } else {
            items.into_iter().map(shed).collect()
        };
        let mut classes = Vec::with_capacity(carved.len());
        let mut buffer = Vec::new();
        for (class, pieces) in carved {
            classes.push(class);
            buffer.extend(pieces);
        }
        (classes, buffer)
    }

    pub fn binpack2<S: Splitter + ?Sized>(
        g: &Graph,
        splitter: &S,
        chi: &Coloring,
        domain: &VertexSet,
        weights: &[f64],
    ) -> Coloring {
        let n = g.num_vertices();
        let k = chi.k();
        if k == 1 {
            return chi.restrict_to(domain);
        }
        let wmax = set_max(weights, domain);
        let total = set_sum(weights, domain);
        let w_star = total / k as f64;
        if wmax <= 0.0 {
            return chi.restrict_to(domain);
        }
        if w_star < wmax / 2.0 {
            // Degenerate regime: see module docs.
            return greedy_strict(n, k, domain, weights);
        }

        let cw = |c: &VertexSet| set_sum(weights, c);

        // Step 2: cut every class down to ≤ w*. Classes are carved
        // independently (the buffer only collects), so [`carve_classes`] fans
        // the cut-down out per class.
        let (mut classes, mut buffer) = carve_classes(
            chi.class_sets_within(domain),
            domain.len(),
            |mut class: VertexSet| {
                let mut pieces = Vec::new();
                while cw(&class) > w_star + 1e-12 * total && !class.is_empty() {
                    let x = carve_piece(g, splitter, &class, weights, wmax);
                    debug_assert!(!x.is_empty());
                    class.difference_with(&x);
                    pieces.push(x);
                }
                (class, pieces)
            },
        );

        // Step 3: refill classes below the strict lower envelope. The
        // averaging argument (see module docs) guarantees the buffer cannot be
        // empty while such a class exists.
        let lower = w_star - (1.0 - 1.0 / k as f64) * wmax;
        while let Some(i) = (0..k).find(|&i| cw(&classes[i]) < lower - 1e-12 * (1.0 + total)) {
            let Some(x) = buffer.pop() else {
                debug_assert!(
                    false,
                    "BinPack2 invariant violated: empty buffer with light class"
                );
                break;
            };
            classes[i].union_with(&x);
        }

        // Step 4: leftovers onto the lightest classes.
        while let Some(x) = buffer.pop() {
            let i = (0..k)
                .min_by(|&a, &b| cw(&classes[a]).total_cmp(&cw(&classes[b])))
                .expect("k >= 1 classes");
            classes[i].union_with(&x);
        }

        let mut out = Coloring::new_uncolored(n, k);
        for (i, class) in classes.iter().enumerate() {
            for v in class.iter() {
                out.set(v, i as u32);
            }
        }
        out
    }

    /// Claim 4: a piece `X ⊆ class` with `w(X) ∈ [‖w‖∞/2, ‖w‖∞]` — a single
    /// heavy vertex if one exists, else a splitting set (all vertices are then
    /// lighter than `‖w‖∞/2`, so the contract slack stays within the window).
    fn carve_piece<S: Splitter + ?Sized>(
        g: &Graph,
        splitter: &S,
        class: &VertexSet,
        weights: &[f64],
        wmax: f64,
    ) -> VertexSet {
        let n = g.num_vertices();
        if let Some(v) = class.iter().find(|&v| weights[v as usize] >= wmax / 2.0) {
            return VertexSet::from_iter(n, [v]);
        }
        let class_weight = set_sum(weights, class);
        let target = (0.75 * wmax).min(class_weight);
        let x = splitter.split(class, weights, target);
        if x.is_empty() || set_sum(weights, &x) <= 0.0 {
            // Defensive: all-zero piece; peel the heaviest vertex to guarantee
            // progress.
            let heaviest = class
                .iter()
                .max_by(|&a, &b| weights[a as usize].total_cmp(&weights[b as usize]))
                .expect("class is non-empty");
            return VertexSet::from_iter(n, [heaviest]);
        }
        x
    }
}

const KS: [usize; 5] = [2, 3, 5, 8, 16];

fn weight_families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let cold = (0..n)
        .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
        .collect();
    let uniform = WeightFamily::Uniform
        .generate(n, 7)
        .into_iter()
        .map(|w| w - 0.5)
        .collect();
    let spikes = (0..n)
        .map(|v| if v % 37 == 5 { 25.0 } else { 1.0 })
        .collect();
    let extremes = (0..n)
        .map(|v| match v % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 2.0,
            3 => f64::MIN_POSITIVE,
            4 => 1e300,
            _ => 1.0,
        })
        .collect();
    vec![
        ("cold-1m", cold),
        ("uniform", uniform),
        ("spikes", spikes),
        ("extremes", extremes),
    ]
}

/// Stripes along axis 0 whose widths alternate 3% above and below
/// `side/k`, so every other class starts overweight.
fn skewed_stripes(grid: &GridGraph, side: usize, k: usize) -> Coloring {
    let bound = |c: usize| (c as f64 + 0.03 * (c % 2) as f64) * side as f64 / k as f64;
    Coloring::from_fn(grid.graph.num_vertices(), k, |v| {
        let x = grid.coord(v)[0] as f64;
        (1..k).take_while(|&c| bound(c) <= x).count() as u32
    })
}

fn starts(grid: &GridGraph, side: usize, k: usize) -> Vec<(&'static str, Coloring)> {
    let n = grid.graph.num_vertices();
    let hashed = |v: u32| ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % k as u64;
    vec![
        ("stripes", skewed_stripes(grid, side, k)),
        ("hashed", Coloring::from_fn(n, k, |v| hashed(v) as u32)),
        ("monochromatic", Coloring::monochromatic(n, k)),
    ]
}

/// Run both `BinPack2`s on every weight family, start and `k`; return how
/// many cases ran.
fn differential<S: Splitter>(grid: &GridGraph, side: usize, splitter: &S) -> usize {
    let n = grid.graph.num_vertices();
    let domain = VertexSet::full(n);
    let mut cases = 0;
    for (family, weights) in weight_families(n) {
        for k in KS {
            for (start, chi) in starts(grid, side, k) {
                let case = format!("{} / {family} / {start} / k = {k}", splitter.name());
                let want = reference::binpack2(&grid.graph, splitter, &chi, &domain, &weights);
                let got = binpack2(&grid.graph, splitter, &chi, &domain, &weights);
                assert!(want.is_strictly_balanced(&weights), "{case}: reference");
                assert!(got.is_strictly_balanced(&weights), "{case}: linear");
                assert!(want == got, "{case}: colorings differ");
                cases += 1;
            }
        }
    }
    cases
}

#[test]
fn grid_splitter_host_matches_the_reference() {
    let side = 48;
    let grid = GridGraph::lattice(&[side, side]);
    let costs = vec![1.0; grid.graph.num_edges()];
    let splitter = GridSplitter::new(&grid, &costs);
    assert_eq!(differential(&grid, side, &splitter), 60);
}

#[test]
fn order_splitter_host_matches_the_reference() {
    let side = 30;
    let grid = GridGraph::lattice(&[side, 20]);
    let splitter = OrderSplitter::by_axis(&grid, 1);
    assert_eq!(differential(&grid, side, &splitter), 60);
}

#[test]
fn degenerate_regime_matches_the_reference() {
    // One vertex outweighs 2·w*: both fall back to the greedy assignment.
    // (At k = 2 the regime is empty: w* = ‖w‖₁/2 ≥ ‖w‖∞/2.)
    let grid = GridGraph::lattice(&[12, 12]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let splitter = GridSplitter::new(&grid, &costs);
    let domain = VertexSet::full(n);
    let mut weights = vec![0.25; n];
    weights[77] = 500.0;
    for k in KS.into_iter().filter(|&k| k > 2) {
        let total: f64 = weights.iter().sum();
        assert!(total / (k as f64) < 250.0, "k = {k} is not degenerate");
        for (start, chi) in starts(&grid, 12, k) {
            let want = reference::binpack2(&grid.graph, &splitter, &chi, &domain, &weights);
            let got = binpack2(&grid.graph, &splitter, &chi, &domain, &weights);
            assert!(got.is_strictly_balanced(&weights), "{start} / k = {k}");
            assert!(want == got, "{start} / k = {k}: colorings differ");
        }
    }
}
