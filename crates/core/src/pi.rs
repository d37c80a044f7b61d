//! The splitting cost measure `π` (Definition 10).
//!
//! `π(v) := σ_p^p · Σ_{e ∈ δ(v)} c_e^p / 2`. For every vertex set `W` one
//! has `σ_p·‖c|_W‖_p ≤ π(W)^{1/p}`, so classes of a `π`-balanced coloring
//! can always be split at cost `O(B′)` with
//! `B′ = σ_p·(q·k^{−1/p}·‖c‖_p + Δ_c)` (eq. (10)) — the key to Proposition 7.
//!
//! The `σ_p^p` prefactor is a global constant: it scales the measure
//! uniformly and therefore changes neither which colorings are `π`-balanced
//! nor which sets the algorithms select. We expose it as an optional
//! parameter defaulting to 1 (callers that want paper-exact values pass an
//! estimate of `σ_p`).

use mmb_graph::measure::pow_p;
use mmb_graph::workspace::{ScratchMeasure, Workspace};
use mmb_graph::{Graph, VertexSet};

/// The splitting cost measure `π(v) = sigma^p · Σ_{e∈δ(v)∩E(W)} c_e^p / 2`,
/// restricted to edges inside `domain` (vertices outside get 0).
pub fn splitting_cost_measure_within(
    g: &Graph,
    costs: &[f64],
    p: f64,
    sigma: f64,
    domain: &VertexSet,
) -> Vec<f64> {
    Workspace::with_local(|ws| {
        splitting_cost_measure_within_ws(g, costs, p, sigma, domain, ws).to_measure()
    })
}

/// [`splitting_cost_measure_within`] into a reusable [`Workspace`] buffer:
/// `O(vol(domain))` accumulation with zero allocation; the dense view is
/// bit-identical to the allocating variant's vector.
pub fn splitting_cost_measure_within_ws<'ws>(
    g: &Graph,
    costs: &[f64],
    p: f64,
    sigma: f64,
    domain: &VertexSet,
    ws: &'ws Workspace,
) -> ScratchMeasure<'ws> {
    assert!(p >= 1.0, "p must be at least 1");
    assert!(sigma > 0.0, "sigma must be positive");
    let factor = pow_p(sigma, p) / 2.0;
    let mut pi = ws.measure(g.num_vertices());
    for v in domain.iter() {
        let s: f64 = g
            .neighbors(v)
            .iter()
            .filter(|&&(nb, _)| domain.contains(nb))
            .map(|&(_, e)| pow_p(costs[e as usize], p))
            .sum();
        pi.set(v, factor * s);
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::graph::graph_from_edges;
    use mmb_graph::measure::{edge_norm_p, set_sum};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn pi_totals_match_cost_norm() {
        // ‖π‖₁ = σ^p·‖c‖_p^p (each edge counted at both endpoints, halved).
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let costs = vec![1.0, 2.0, 3.0, 4.0];
        let p = 2.0;
        let pi = splitting_cost_measure_within(&g, &costs, p, 1.0, &VertexSet::full(4));
        let total: f64 = pi.iter().sum();
        let norm = edge_norm_p(&g, &costs, &VertexSet::full(4), p);
        assert!(close(total, norm.powf(p)));
    }

    #[test]
    fn splitting_cost_dominates_subset_norm() {
        // σ_p‖c|_W‖_p ≤ π(W)^{1/p} for every W (Definition 10's remark),
        // with σ = 1 here.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let costs = vec![1.0, 5.0, 2.0, 0.5, 3.0];
        let p = 1.5;
        let pi = splitting_cost_measure_within(&g, &costs, p, 1.0, &VertexSet::full(5));
        for mask in 1u32..32 {
            let w = VertexSet::from_iter(5, (0..5u32).filter(|v| mask >> v & 1 == 1));
            let lhs = edge_norm_p(&g, &costs, &w, p);
            let rhs = set_sum(&pi, &w).powf(1.0 / p);
            assert!(lhs <= rhs + 1e-9, "violated for mask {mask}: {lhs} > {rhs}");
        }
    }

    #[test]
    fn sigma_scales_uniformly() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![2.0, 3.0];
        let all = VertexSet::full(3);
        let base = splitting_cost_measure_within(&g, &costs, 2.0, 1.0, &all);
        let scaled = splitting_cost_measure_within(&g, &costs, 2.0, 3.0, &all);
        for (b, s) in base.iter().zip(&scaled) {
            assert!(close(*s, 9.0 * b));
        }
    }

    #[test]
    fn domain_restriction_ignores_outside_edges() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![2.0, 3.0];
        let dom = VertexSet::from_iter(3, [0u32, 1]);
        let pi = splitting_cost_measure_within(&g, &costs, 2.0, 1.0, &dom);
        assert!(close(pi[0], 2.0)); // edge (0,1): 4/2
        assert!(close(pi[1], 2.0)); // edge (1,2) excluded
        assert_eq!(pi[2], 0.0);
    }
}
