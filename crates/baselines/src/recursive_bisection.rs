//! Recursive bisection (Simon–Teng \[8\]) and a two-measure
//! Kiwi–Spielman–Teng-style variant \[4\].
//!
//! Plain recursive bisection splits the vertex set by weight into
//! `⌊k/2⌋ : ⌈k/2⌉` proportions, recursing on both halves with their color
//! ranges. With a quality splitter it achieves small *total/average*
//! boundary cost, but per-part weights only balance up to constant factors
//! and no single part's boundary is controlled — the two gaps Theorem 4
//! closes.
//!
//! The KST-style variant biases each bisection with the cost-degree
//! measure `τ(v) = c(δ(v))`, approximating their idea of separators that
//! divide evenly with respect to both weight and boundary mass (their
//! approach handles at most two measures — see the paper's §1 discussion).
//!
//! [`RecursiveBisection`] is the [`Partitioner`] adapter; it drives the
//! bisection with the instance's automatically selected splitter
//! ([`mmb_core::api::auto_splitter`]).

use mmb_core::api::{
    auto_splitter, validate_costs, validate_weights, Instance, Partitioner, SolveError,
};
use mmb_graph::measure::{cost_degree_measure, norm_1, set_sum};
use mmb_graph::{Coloring, Graph, VertexSet};
use mmb_splitters::Splitter;

fn validate(g: &Graph, weights: &[f64], k: usize) -> Result<(), SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    validate_weights(g.num_vertices(), weights)?;
    Ok(())
}

/// Simon–Teng recursive bisection by vertex weight.
pub fn recursive_bisection<S: Splitter + ?Sized>(
    g: &Graph,
    splitter: &S,
    weights: &[f64],
    k: usize,
) -> Result<Coloring, SolveError> {
    validate(g, weights, k)?;
    let mut chi = Coloring::new_uncolored(g.num_vertices(), k);
    for (color, part) in bisect(splitter, VertexSet::full(g.num_vertices()), weights, 0, k) {
        for v in part.iter() {
            chi.set(v, color as u32);
        }
    }
    Ok(chi)
}

/// KST-style bisection: each split balances `w + η·τ` where
/// `η = ‖w‖₁ / ‖τ‖₁` equalizes the two measures' scales.
pub fn recursive_bisection_kst<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    splitter: &S,
    weights: &[f64],
    k: usize,
) -> Result<Coloring, SolveError> {
    validate(g, weights, k)?;
    validate_costs(g.num_edges(), costs)?;
    let tau = cost_degree_measure(g, costs);
    let tau_total = norm_1(&tau);
    let eta = if tau_total > 0.0 {
        norm_1(weights) / tau_total
    } else {
        0.0
    };
    let mixed: Vec<f64> = weights.iter().zip(&tau).map(|(w, t)| w + eta * t).collect();
    let mut chi = Coloring::new_uncolored(g.num_vertices(), k);
    for (color, part) in bisect(splitter, VertexSet::full(g.num_vertices()), &mixed, 0, k) {
        for v in part.iter() {
            chi.set(v, color as u32);
        }
    }
    Ok(chi)
}

/// Recursively bisect `set`, returning the `(color, part)` leaves.
///
/// The two halves of a bisection are independent, so they run through
/// [`rayon::join`]; the leaf list is assembled left-before-right, making
/// the result identical to the sequential recursion for any thread count.
fn bisect<S: Splitter + ?Sized>(
    splitter: &S,
    set: VertexSet,
    weights: &[f64],
    color_lo: usize,
    colors: usize,
) -> Vec<(usize, VertexSet)> {
    if colors == 1 {
        return vec![(color_lo, set)];
    }
    let k1 = colors / 2;
    let total = set_sum(weights, &set);
    let target = total * k1 as f64 / colors as f64;
    let u = splitter.split(&set, weights, target);
    let rest = set.difference(&u);
    let (mut left, right) = rayon::join(
        || bisect(splitter, u, weights, color_lo, k1),
        || bisect(splitter, rest, weights, color_lo + k1, colors - k1),
    );
    left.extend(right);
    left
}

/// Recursive bisection as a [`Partitioner`], driven by the instance's
/// auto-selected splitter; `kst` switches on the two-measure variant.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecursiveBisection {
    /// Fold the cost-degree `τ` into the bisection weights (KST-style).
    pub kst: bool,
}

impl Partitioner for RecursiveBisection {
    fn name(&self) -> &str {
        if self.kst {
            "RB + KST measure"
        } else {
            "rec. bisection"
        }
    }

    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        let (splitter, _) = auto_splitter(inst);
        if self.kst {
            recursive_bisection_kst(inst.graph(), inst.costs(), &splitter, inst.weights(), k)
        } else {
            recursive_bisection(inst.graph(), &splitter, inst.weights(), k)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_core::api::InstanceError;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::norm_inf;
    use mmb_splitters::grid::GridSplitter;

    #[test]
    fn produces_total_rough_partition() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        for k in [2usize, 3, 5, 8] {
            let chi = recursive_bisection(&grid.graph, &sp, &weights, k).unwrap();
            assert!(chi.is_total(), "k={k}");
            // Roughly balanced: every class ≤ 2× average.
            let cm = chi.class_measures(&weights);
            let avg = norm_1(&weights) / k as f64;
            assert!(
                norm_inf(&cm) <= 2.0 * avg + norm_inf(&weights),
                "k={k}: classes {cm:?}"
            );
        }
    }

    #[test]
    fn boundary_is_geometric_not_catastrophic() {
        // On a 32×32 unit grid with k = 4, RB's total cut should be within
        // a small multiple of the optimal ~3·32 (three straight cuts).
        let grid = GridGraph::lattice(&[32, 32]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let weights = vec![1.0; n];
        let chi = recursive_bisection(&grid.graph, &sp, &weights, 4).unwrap();
        let total_cut: f64 = chi.boundary_costs(&grid.graph, &costs).iter().sum::<f64>() / 2.0;
        assert!(
            total_cut <= 8.0 * 32.0,
            "RB total cut {total_cut} too large"
        );
    }

    #[test]
    fn kst_variant_also_partitions() {
        let grid = GridGraph::lattice(&[12, 12]);
        let n = grid.graph.num_vertices();
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + (e % 5) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let weights = vec![1.0; n];
        let chi = recursive_bisection_kst(&grid.graph, &costs, &sp, &weights, 6).unwrap();
        assert!(chi.is_total());
        // Still roughly weight balanced (mixed measure contains w).
        let cm = chi.class_measures(&weights);
        let avg = norm_1(&weights) / 6.0;
        assert!(norm_inf(&cm) <= 3.0 * avg, "classes {cm:?}");
    }

    #[test]
    fn odd_k_splits_proportionally() {
        let grid = GridGraph::lattice(&[9, 9]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let weights = vec![1.0; n];
        let chi = recursive_bisection(&grid.graph, &sp, &weights, 3).unwrap();
        let cm = chi.class_measures(&weights);
        for c in &cm {
            assert!((c - 27.0).abs() <= 5.0, "classes {cm:?}");
        }
    }

    #[test]
    fn partitioner_adapter_uses_auto_splitter() {
        let grid = GridGraph::lattice(&[12, 12]);
        let n = grid.graph.num_vertices();
        let m = grid.graph.num_edges();
        let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
        let chi = RecursiveBisection::default().partition(&inst, 4).unwrap();
        assert!(chi.is_total());
        assert_eq!(
            RecursiveBisection::default()
                .partition(&inst, 0)
                .unwrap_err(),
            SolveError::ZeroColors
        );
    }

    #[test]
    fn malformed_input_is_an_error() {
        let grid = GridGraph::lattice(&[4, 4]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        assert!(matches!(
            recursive_bisection(&grid.graph, &sp, &[1.0; 3], 2).unwrap_err(),
            SolveError::Instance(InstanceError::WeightLength { .. })
        ));
        assert!(matches!(
            recursive_bisection_kst(&grid.graph, &[1.0; 2], &sp, &[1.0; 16], 2).unwrap_err(),
            SolveError::Instance(InstanceError::CostLength { .. })
        ));
    }
}
