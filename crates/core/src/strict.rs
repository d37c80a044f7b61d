//! `BinPack2` (Proposition 12): almost strict → **strictly** balanced.
//!
//! Turns any almost strictly balanced coloring into one satisfying
//! Definition 1's eq. (1) *exactly*:
//!
//! ```text
//! max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞
//! ```
//!
//! Overweight classes shed pieces of weight `∈ [‖w‖∞/2, ‖w‖∞]` (a single
//! heavy vertex, or a splitting set over the light vertices — Claim 4 of
//! the appendix); pieces refill classes below the lower envelope and the
//! remainder goes to the lightest classes. The averaging invariants make
//! the loop provably safe: while some class sits below
//! `w* − (1−1/k)‖w‖∞`, uncolored pieces must exist.
//!
//! **Degenerate regime.** The paper assumes `w* ≥ ‖w‖∞/2` and notes the
//! other case is "handled similarly". When `w* < ‖w‖∞/2` (more colors than
//! heavy vertices can fill), splitting sets of the required size do not
//! exist; we fall back to [`greedy_strict`], the classical largest-first
//! greedy assignment, which *always* achieves eq. (1) — at unbounded
//! boundary cost, which is acceptable because in this regime classes are
//! dominated by single vertices anyway.

use mmb_graph::measure::{set_max, set_sum};
use mmb_graph::{Coloring, Graph, VertexId, VertexSet};
use mmb_splitters::Splitter;
use rayon::prelude::*;

/// Below this working-set size the per-class carving of `BinPack1/2` runs
/// inline: thread-spawn overhead would exceed the carve work itself on the
/// small sets deep in the shrink recursion.
pub(crate) const PAR_CARVE_MIN_VERTICES: usize = 2048;

/// Shared fan-out of the `BinPack1/2` cut-down step: run `shed` over every
/// carving work item — on the thread pool when the working set is large
/// enough to amortize worker spawn, inline otherwise — and re-assemble the
/// surviving classes and carved pieces in class order, which makes the
/// result bit-identical to the sequential loop for any thread count.
pub(crate) fn carve_classes<T, F>(
    items: impl IntoIterator<Item = T>,
    working_set_len: usize,
    shed: F,
) -> (Vec<VertexSet>, Vec<VertexSet>)
where
    T: Send,
    F: Fn(T) -> (VertexSet, Vec<VertexSet>) + Sync,
{
    let carved: Vec<(VertexSet, Vec<VertexSet>)> = if working_set_len >= PAR_CARVE_MIN_VERTICES {
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

/// Largest-first greedy assignment: vertices in decreasing weight order,
/// each to the currently lightest class. Satisfies eq. (1) for every input
/// (the pairwise class gap never exceeds `‖w‖∞`).
pub fn greedy_strict(n: usize, k: usize, domain: &VertexSet, weights: &[f64]) -> Coloring {
    let mut order: Vec<VertexId> = domain.iter().collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: instance validation
    // rejects NaN today, but this baseline is also called directly on raw
    // weight vectors and must stay deterministic and panic-free on every
    // finite input (subnormals, negative zeros) — and on any future path
    // that forgets to validate.
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut out = Coloring::new_uncolored(n, k);
    let mut load = vec![0.0f64; k];
    for v in order {
        let i = (0..k)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("k >= 1 classes");
        out.set(v, i as u32);
        load[i] += weights[v as usize];
    }
    out
}

/// `BinPack2` (Proposition 12): enforce strict balance exactly.
///
/// `chi` must be total on `domain`. The output satisfies eq. (1) up to
/// floating-point tolerance; the boundary cost grows by at most
/// `O(‖∂χ⁻¹‖∞ + ‖πχ⁻¹‖∞^{1/p} + Δ_c)` when the input is almost strict.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_splitters::grid::GridSplitter;

    #[test]
    fn greedy_is_always_strict() {
        for (k, seed) in [(2usize, 1u64), (3, 2), (7, 3), (16, 4)] {
            let n = 50;
            let weights: Vec<f64> = (0..n)
                .map(|v| 1.0 + ((v as u64 * seed * 2654435761) % 97) as f64)
                .collect();
            let domain = VertexSet::full(n);
            let chi = greedy_strict(n, k, &domain, &weights);
            assert!(chi.is_total());
            assert!(chi.is_strictly_balanced(&weights), "k={k} seed={seed}");
        }
    }

    #[test]
    fn binpack2_enforces_eq1_on_grid() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = 256;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let k = 5;
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        // Almost strict-ish but not strict start: stripes.
        let chi = Coloring::from_fn(n, k, |v| ((grid.coord(v)[0] as usize * k) / 16) as u32);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_total_on(&domain));
        assert!(
            out.is_strictly_balanced(&weights),
            "defect {}",
            out.strict_balance_defect(&weights)
        );
    }

    #[test]
    fn binpack2_handles_badly_unbalanced_input() {
        // Even a monochromatic input must come out strictly balanced
        // (Proposition 12 only needs almost-strictness for the *cost*
        // guarantee, not for correctness).
        let grid = GridGraph::lattice(&[10, 10]);
        let n = 100;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 13) % 7) as f64).collect();
        let chi = Coloring::monochromatic(n, 8);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn degenerate_heavy_vertex_regime() {
        // One vertex carries almost all the weight and k is large: the
        // greedy fallback must fire and still satisfy eq. (1).
        let grid = GridGraph::lattice(&[4, 4]);
        let n = 16;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![0.01; n];
        weights[5] = 100.0;
        let k = 8; // w* ≈ 12.5 < 50 = wmax/2 → degenerate
        let chi = Coloring::monochromatic(n, k);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn k1_and_zero_weights() {
        let grid = GridGraph::lattice(&[3, 3]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(9);
        let chi1 = Coloring::monochromatic(9, 1);
        let out1 = binpack2(&grid.graph, &sp, &chi1, &domain, &[1.0; 9]);
        assert!(out1.is_strictly_balanced(&[1.0; 9]));
        let chi2 = Coloring::from_fn(9, 3, |v| v % 3);
        let out2 = binpack2(&grid.graph, &sp, &chi2, &domain, &[0.0; 9]);
        assert!(out2.is_strictly_balanced(&[0.0; 9]));
    }

    #[test]
    fn adversarial_finite_weights_are_deterministic_and_panic_free() {
        // Regression for the four `partial_cmp(..).unwrap()` comparators
        // this module used to carry: a weight vector mixing subnormals,
        // negative zeros, exact ties and huge magnitudes must neither
        // panic nor produce run-to-run differences. (`total_cmp` orders
        // −0.0 < +0.0 < subnormal < …, a total order on all finite
        // floats.)
        let grid = GridGraph::lattice(&[6, 6]);
        let n = 36;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n)
            .map(|v| match v % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 2.0, // subnormal
                3 => f64::MIN_POSITIVE,
                4 => 1e300,
                _ => 1.0,
            })
            .collect();
        for k in [2usize, 3, 5] {
            let greedy_a = greedy_strict(n, k, &domain, &weights);
            let greedy_b = greedy_strict(n, k, &domain, &weights);
            assert_eq!(
                greedy_a, greedy_b,
                "greedy_strict nondeterministic at k={k}"
            );
            assert!(greedy_a.is_strictly_balanced(&weights), "k={k}");
            let chi = Coloring::monochromatic(n, k);
            let out_a = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            let out_b = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert_eq!(out_a, out_b, "binpack2 nondeterministic at k={k}");
            assert!(out_a.is_total_on(&domain), "k={k}");
            assert!(
                out_a.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out_a.strict_balance_defect(&weights)
            );
        }
    }

    #[test]
    fn strictness_with_spike_weights() {
        // A few heavy spikes among light vertices.
        let grid = GridGraph::lattice(&[12, 12]);
        let n = 144;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![1.0; n];
        for v in [3usize, 40, 77, 100] {
            weights[v] = 25.0;
        }
        for k in [2usize, 3, 4, 6] {
            let chi = Coloring::from_fn(n, k, |v| (v as usize % k) as u32);
            let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert!(
                out.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out.strict_balance_defect(&weights)
            );
        }
    }
}
