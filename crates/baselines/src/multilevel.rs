//! METIS-lite multilevel partitioner.
//!
//! The workhorse of practical graph partitioning, built here as the
//! strongest engineering baseline:
//!
//! 1. **Coarsening** — heavy-edge matching: repeatedly contract a matching
//!    that prefers expensive edges (so they become internal and can never
//!    be cut), until the graph is small.
//! 2. **Initial partition** — recursive bisection on the coarsest graph
//!    with a BFS splitter.
//! 3. **Uncoarsening** — project the coloring through the contraction maps,
//!    running Kernighan–Lin refinement at every level.
//!
//! The coarsening machinery (matching, contraction, projection) is the
//! shared [`mmb_core::coarsen`] module — this baseline was its original
//! home, and `tests/multilevel_golden.rs` pins the partitioner to its
//! historical colorings bit-for-bit across the move. The same machinery
//! now also drives the pipeline's large-`n` cascade
//! ([`mmb_core::pipeline::CoarsenConfig`]).
//!
//! Compared to the Theorem 4 pipeline it optimizes *total* edge cut with a
//! loose balance envelope; it has no strict-balance and no per-class
//! boundary guarantee (experiment E7 quantifies both gaps).

use mmb_core::api::{validate_costs, validate_weights, Instance, Partitioner, SolveError};
use mmb_core::coarsen::{CoarsenParams, CoarseningFront};
use mmb_core::refine::{refine, KlParams};
use mmb_graph::{Coloring, Graph};
use mmb_splitters::bfs::BfsSplitter;

use crate::recursive_bisection::recursive_bisection;

/// Multilevel parameters.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelParams {
    /// Stop coarsening when the graph has at most `coarsest_factor · k`
    /// vertices.
    pub coarsest_factor: usize,
    /// Maximum number of coarsening levels.
    pub max_levels: usize,
    /// Refinement settings applied per level.
    pub kl: KlParams,
    /// Seed for the matching order.
    pub seed: u64,
}

impl Default for MultilevelParams {
    fn default() -> Self {
        Self {
            coarsest_factor: 8,
            max_levels: 20,
            kl: KlParams::default(),
            seed: 1,
        }
    }
}

/// Partition `(g, costs, weights)` into `k` parts.
pub fn multilevel(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    params: &MultilevelParams,
) -> Result<Coloring, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    validate_weights(g.num_vertices(), weights)?;
    validate_costs(g.num_edges(), costs)?;

    // Coarsening phase, via the shared cascade.
    let coarsen = CoarsenParams {
        target_vertices: params.coarsest_factor * k,
        max_levels: params.max_levels,
        seed: params.seed,
    };
    let front = CoarseningFront::build(g, costs, weights, &coarsen);
    let (cg, cc, cw) = front.coarsest((g, costs, weights));

    // Initial partition on the coarsest graph. The inner calls only see
    // already-validated, internally consistent data, so errors cannot
    // occur here.
    let bfs = BfsSplitter::new(cg);
    let mut chi = recursive_bisection(cg, &bfs, cw, k)?;
    chi = refine(cg, cc, cw, &chi, &params.kl)?;

    // Uncoarsening with per-level refinement.
    front.project_to_host((g, costs, weights), chi, |fg, fc, fw, fine| {
        refine(fg, fc, fw, fine, &params.kl)
    })
}

/// [`multilevel`] as a [`Partitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Multilevel {
    /// Coarsening/refinement parameters applied to every call.
    pub params: MultilevelParams,
}

impl Partitioner for Multilevel {
    fn name(&self) -> &str {
        "multilevel"
    }

    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        multilevel(inst.graph(), inst.costs(), inst.weights(), k, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::{norm_1, norm_inf};

    #[test]
    fn partitions_grid_reasonably() {
        let grid = GridGraph::lattice(&[24, 24]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; n];
        let k = 4;
        let chi = multilevel(
            &grid.graph,
            &costs,
            &weights,
            k,
            &MultilevelParams::default(),
        )
        .unwrap();
        assert!(chi.is_total());
        // Loose balance.
        let cm = chi.class_measures(&weights);
        let avg = norm_1(&weights) / k as f64;
        assert!(norm_inf(&cm) <= 2.0 * avg, "classes {cm:?}");
        // Sane cut: far below cutting everything.
        let total_cut: f64 = chi.boundary_costs(&grid.graph, &costs).iter().sum::<f64>() / 2.0;
        assert!(
            total_cut < grid.graph.num_edges() as f64 / 4.0,
            "cut {total_cut}"
        );
    }

    #[test]
    fn heavy_edges_survive_coarsening() {
        // A grid where one column of edges is enormously expensive: the
        // matching should contract those first, and the final cut should
        // avoid them.
        let grid = GridGraph::lattice(&[16, 16]);
        let mut costs = vec![1.0; grid.graph.num_edges()];
        for (e, &(a, b)) in grid.graph.edge_list().iter().enumerate() {
            let (ca, cb) = (grid.coord(a), grid.coord(b));
            if ca[0] != cb[0] && ca[0].min(cb[0]) == 7 {
                costs[e] = 500.0;
            }
        }
        let n = grid.graph.num_vertices();
        let weights = vec![1.0; n];
        let chi = multilevel(
            &grid.graph,
            &costs,
            &weights,
            2,
            &MultilevelParams::default(),
        )
        .unwrap();
        let cut: f64 = chi.boundary_costs(&grid.graph, &costs).iter().sum::<f64>() / 2.0;
        assert!(
            cut < 500.0,
            "multilevel cut through the expensive column: {cut}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let grid = GridGraph::lattice(&[10, 10]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; 100];
        let p = MultilevelParams {
            seed: 7,
            ..Default::default()
        };
        let a = multilevel(&grid.graph, &costs, &weights, 3, &p).unwrap();
        let b = multilevel(&grid.graph, &costs, &weights, 3, &p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_graph_short_circuit() {
        let grid = GridGraph::lattice(&[2, 2]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; 4];
        let chi = multilevel(
            &grid.graph,
            &costs,
            &weights,
            2,
            &MultilevelParams::default(),
        )
        .unwrap();
        assert!(chi.is_total());
    }
}
