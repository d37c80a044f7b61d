//! Instance statistics: the "well-behavedness" quantities of the paper.
//!
//! An instance `(G, c)` is *well-behaved* (Section 2) if the maximum degree
//! `Δ(G)` is bounded and the local fluctuation
//! `φ_ℓ(c) = max_{u ∈ e} τ(u)/c(e)` (with `τ(u) = c(δ(u))`) is bounded.
//! The tightness results and the separator↔splitter equivalence
//! (Lemma 37) are stated for well-behaved instances, so the harness reports
//! these quantities for every instance it runs.

use crate::graph::Graph;
use crate::measure::cost_degree_measure;

/// Summary statistics of an instance `(G, c)`.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// `|V|`.
    pub n: usize,
    /// `|E|`.
    pub m: usize,
    /// Maximum degree `Δ(G)`.
    pub max_degree: usize,
    /// Maximum cost-weighted degree `Δ_c = max_v c(δ(v))`.
    pub max_cost_degree: f64,
    /// Local fluctuation `φ_ℓ(c) = max_v max_{e ∋ v} c(δ(v))/c(e)`
    /// (`∞` if some positive-degree vertex has a zero-cost edge).
    pub local_fluctuation: f64,
    /// Global fluctuation `φ = max_e c_e / min_e c_e`
    /// (1 for edgeless graphs; `∞` if some edge has zero cost).
    pub fluctuation: f64,
    /// Minimum positive edge cost (`∞` if there is none).
    pub min_cost: f64,
    /// Maximum edge cost.
    pub max_cost: f64,
}

impl InstanceStats {
    /// Compute all statistics in `O(n + m)`.
    pub fn compute(g: &Graph, costs: &[f64]) -> Self {
        assert_eq!(costs.len(), g.num_edges(), "cost vector length mismatch");
        let tau = cost_degree_measure(g, costs);
        let mut local_fluct = 0.0f64;
        for v in g.vertices() {
            for &(_, e) in g.neighbors(v) {
                let c = costs[e as usize];
                let ratio = if c > 0.0 {
                    tau[v as usize] / c
                } else if tau[v as usize] > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                local_fluct = local_fluct.max(ratio);
            }
        }
        let max_cost = costs.iter().copied().fold(0.0, f64::max);
        let min_cost = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let fluctuation = if costs.is_empty() {
            1.0
        } else if min_cost > 0.0 {
            max_cost / min_cost
        } else if max_cost > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        InstanceStats {
            n: g.num_vertices(),
            m: g.num_edges(),
            max_degree: g.max_degree(),
            max_cost_degree: tau.iter().copied().fold(0.0, f64::max),
            local_fluctuation: local_fluct,
            fluctuation,
            min_cost: if costs.is_empty() {
                f64::INFINITY
            } else {
                min_cost
            },
            max_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn path_stats() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 2.0, 4.0];
        let s = InstanceStats::compute(&g, &costs);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 3);
        assert_eq!(s.max_degree, 2);
        assert!(close(s.max_cost_degree, 6.0)); // vertex 2: 2 + 4
        assert!(close(s.fluctuation, 4.0));
        // Vertex 2 has τ = 6 and cheapest incident edge 2 → local ratio 3.
        assert!(close(s.local_fluctuation, 3.0));
    }

    #[test]
    fn unit_costs_local_fluctuation_is_degree() {
        // With c ≡ 1 the local fluctuation equals the max degree (paper
        // remark after Lemma 37).
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let costs = vec![1.0; 4];
        let s = InstanceStats::compute(&g, &costs);
        assert!(close(s.local_fluctuation, s.max_degree as f64));
    }

    #[test]
    fn zero_cost_edge_blows_up_fluctuation() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![0.0, 1.0];
        let s = InstanceStats::compute(&g, &costs);
        assert!(s.fluctuation.is_infinite());
        assert!(s.local_fluctuation.is_infinite());
    }

    #[test]
    fn edgeless_graph() {
        let g = graph_from_edges(3, &[]);
        let s = InstanceStats::compute(&g, &[]);
        assert_eq!(s.fluctuation, 1.0);
        assert_eq!(s.local_fluctuation, 0.0);
        assert_eq!(s.max_cost_degree, 0.0);
    }
}
