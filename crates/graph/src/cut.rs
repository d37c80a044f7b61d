//! Cuts and boundary costs.
//!
//! For `U ⊆ V` the paper writes `δ(U) = {e ∈ E : |e ∩ U| = 1}` for the cut
//! induced by `U` and `∂U = c(δ(U))` for its boundary cost. The algorithms
//! also need the *relative* boundary `∂_W U` of `U` inside an induced
//! subgraph `G[W]` (edges of `E(W)` with exactly one endpoint in `U`).

use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use crate::workspace::{ScratchMeasure, Workspace};

/// Boundary cost `∂U = c(δ(U))` of `U` in the host graph.
///
/// `O(vol(U))`: scans the adjacency of each member once.
pub fn boundary_cost(g: &Graph, costs: &[f64], u_set: &VertexSet) -> f64 {
    let mut s = 0.0;
    for v in u_set.iter() {
        for &(nb, e) in g.neighbors(v) {
            if !u_set.contains(nb) {
                s += costs[e as usize];
            }
        }
    }
    s
}

/// Relative boundary cost `∂_W U` of `U` inside the induced subgraph `G[W]`:
/// total cost of edges with one endpoint in `U` and the other in `W \ U`.
///
/// `U` need not be a subset of `W`; only its members inside `W` contribute.
pub fn boundary_cost_within(g: &Graph, costs: &[f64], w_set: &VertexSet, u_set: &VertexSet) -> f64 {
    let mut s = 0.0;
    for v in u_set.iter() {
        if !w_set.contains(v) {
            continue;
        }
        for &(nb, e) in g.neighbors(v) {
            if w_set.contains(nb) && !u_set.contains(nb) {
                s += costs[e as usize];
            }
        }
    }
    s
}

/// Number of edges in the relative cut `δ_{G[W]}(U)`.
pub fn cut_size_within(g: &Graph, w_set: &VertexSet, u_set: &VertexSet) -> usize {
    let mut s = 0;
    for v in u_set.iter() {
        if !w_set.contains(v) {
            continue;
        }
        for &(nb, _) in g.neighbors(v) {
            if w_set.contains(nb) && !u_set.contains(nb) {
                s += 1;
            }
        }
    }
    s
}

/// Per-vertex boundary measure of a set `U`: `v ↦ c(δ(v) ∩ δ(U))`.
///
/// The paper repeatedly "models the boundary cost function as a vertex
/// measure" (Section 5, Appendix A.1: the choice `Φ^{(r)}(v) = c(δ(v)∩δ(U))`);
/// this helper materializes that measure in a reusable [`Workspace`]
/// buffer, accumulating only over `vol(U)` with zero allocation. Each cut
/// edge contributes its cost to **both** endpoints, so
/// `Σ_v measure(v) = 2·∂U`.
pub fn boundary_measure_ws<'ws>(
    g: &Graph,
    costs: &[f64],
    u_set: &VertexSet,
    ws: &'ws Workspace,
) -> ScratchMeasure<'ws> {
    let mut out = ws.measure(g.num_vertices());
    for v in u_set.iter() {
        for &(nb, e) in g.neighbors(v) {
            if !u_set.contains(nb) {
                out.add(v, costs[e as usize]);
                out.add(nb, costs[e as usize]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn path_boundaries() {
        // 0 -1- 1 -2- 2 -3- 3
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 3.0];
        let u = VertexSet::from_iter(4, [0u32, 1]);
        assert!(close(boundary_cost(&g, &costs, &u), 2.0));
        let empty = VertexSet::empty(4);
        assert_eq!(boundary_cost(&g, &costs, &empty), 0.0);
        let full = VertexSet::full(4);
        assert_eq!(boundary_cost(&g, &costs, &full), 0.0);
    }

    #[test]
    fn relative_boundary_ignores_outside_edges() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 3.0];
        // W = {1,2,3}; U = {1}. Edge 0-1 leaves W so it must not count.
        let w = VertexSet::from_iter(4, [1u32, 2, 3]);
        let u = VertexSet::from_iter(4, [1u32]);
        assert!(close(boundary_cost_within(&g, &costs, &w, &u), 2.0));
        assert!(close(boundary_cost(&g, &costs, &u), 3.0));
        assert_eq!(cut_size_within(&g, &w, &u), 1);
    }

    #[test]
    fn boundary_measure_sums_to_twice_cut() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let costs = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let u = VertexSet::from_iter(5, [0u32, 1]);
        let ws = Workspace::new();
        let m = boundary_measure_ws(&g, &costs, &u, &ws);
        let cut = boundary_cost(&g, &costs, &u);
        assert!(close(m.as_slice().iter().sum::<f64>(), 2.0 * cut));
        // Edge ids are canonical-sorted: (0,1)=1, (0,4)=2, (1,2)=3, ….
        // Vertex 2 touches only edge (1,2), which carries cost 3.
        assert!(close(m.as_slice()[2], 3.0));
    }

    #[test]
    fn workspace_boundary_measure_is_bit_identical() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let costs: Vec<f64> = (0..7).map(|e| 0.1 + (e as f64) * 1.7).collect();
        let ws = Workspace::new();
        for mask in 0u32..64 {
            let u = VertexSet::from_iter(6, (0..6u32).filter(|v| mask >> v & 1 == 1));
            // Reference: each member's cut edges, charged to both ends in
            // adjacency order — the accumulation order of the scratch pass.
            let mut want = [0.0; 6];
            for v in u.iter() {
                for &(nb, e) in g.neighbors(v) {
                    if !u.contains(nb) {
                        want[v as usize] += costs[e as usize];
                        want[nb as usize] += costs[e as usize];
                    }
                }
            }
            let scratch = boundary_measure_ws(&g, &costs, &u, &ws);
            for (a, b) in want.iter().zip(scratch.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "mask {mask}");
            }
        }
        // Every checkout after the first reuses the pooled buffer.
        assert_eq!(ws.stats().fresh_allocs, 1);
    }

    #[test]
    fn star_cut() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let costs = vec![1.0; 4];
        let center = VertexSet::from_iter(5, [0u32]);
        assert!(close(boundary_cost(&g, &costs, &center), 4.0));
        let leaf = VertexSet::from_iter(5, [1u32]);
        assert!(close(boundary_cost(&g, &costs, &leaf), 1.0));
    }
}
