//! Kernighan–Lin-style k-way local refinement.
//!
//! Greedy vertex moves between classes that reduce the total cut cost,
//! subject to a weight-balance envelope. This is the standard engineering
//! post-pass (FM/KL family); it has no worst-case guarantee on either
//! balance tightness or per-class boundary — which is exactly what the E7
//! comparison demonstrates against the Theorem 4 pipeline.
//!
//! The multilevel baseline (`mmb_baselines::multilevel`) and the
//! coarsening cascade ([`crate::coarsen`]) both run it once per level
//! while uncoarsening.

use mmb_graph::{Coloring, Graph};

use crate::api::{validate_costs, validate_weights, SolveError};

/// Refinement parameters.
#[derive(Clone, Copy, Debug)]
pub struct KlParams {
    /// Maximum number of full passes over the boundary vertices.
    pub max_passes: usize,
    /// A class may grow to at most `balance_factor × average weight`.
    pub balance_factor: f64,
}

impl Default for KlParams {
    fn default() -> Self {
        Self {
            max_passes: 8,
            balance_factor: 1.1,
        }
    }
}

/// Refine `chi` by greedy gain moves; returns the improved coloring.
pub fn refine(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    chi: &Coloring,
    params: &KlParams,
) -> Result<Coloring, SolveError> {
    let order: Vec<u32> = (0..g.num_vertices() as u32).collect();
    refine_over(g, costs, weights, chi, &order, params)
}

/// [`refine`], restricted to a *region*: only `region`'s vertices and
/// their direct neighbors are candidates for moves. The warm-path repair
/// primitive — after an [`InstanceDelta`](crate::api::InstanceDelta)
/// perturbs a few weights or edges, only the touched closure needs KL
/// attention; the rest of the coloring is already converged.
///
/// The balance envelope stays **global** (computed over all colored
/// vertices), so regional moves cannot silently unbalance far-away
/// classes. Vertex ids in `region` must be in range for `g`.
pub fn refine_region(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    chi: &Coloring,
    region: &[u32],
    params: &KlParams,
) -> Result<Coloring, SolveError> {
    let mut order: Vec<u32> = Vec::with_capacity(region.len() * 4);
    for &v in region {
        order.push(v);
        for &(nb, _) in g.neighbors(v) {
            order.push(nb);
        }
    }
    order.sort_unstable();
    order.dedup();
    refine_over(g, costs, weights, chi, &order, params)
}

/// The shared pass: greedy gain moves over `order`'s vertices, repeated
/// until a pass moves nothing or `max_passes` is hit. `refine` passes
/// `0..n` (the historical full sweep, bit-identical); `refine_region`
/// passes the touched closure.
fn refine_over(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    chi: &Coloring,
    order: &[u32],
    params: &KlParams,
) -> Result<Coloring, SolveError> {
    let n = g.num_vertices();
    let k = chi.k();
    validate_weights(n, weights)?;
    validate_costs(g.num_edges(), costs)?;
    let mut out = chi.clone();
    if k <= 1 {
        return Ok(out);
    }
    let total_w: f64 = (0..n)
        .filter(|&v| out.get(v as u32).is_some())
        .map(|v| weights[v])
        .sum();
    let cap = params.balance_factor * total_w / k as f64;
    let mut load = out.class_measures(weights);

    for _pass in 0..params.max_passes {
        let mut improved = false;
        for &v in order {
            let Some(c) = out.get(v) else { continue };
            // Gains per adjacent class.
            let mut internal = 0.0;
            let mut external: Vec<(u32, f64)> = Vec::new();
            for &(nb, e) in g.neighbors(v) {
                let Some(d) = out.get(nb) else { continue };
                let w = costs[e as usize];
                if d == c {
                    internal += w;
                } else if let Some(entry) = external.iter_mut().find(|(x, _)| *x == d) {
                    entry.1 += w;
                } else {
                    external.push((d, w));
                }
            }
            // total_cmp + class-id tie-break: ties between equally-attractive
            // target classes must not depend on neighbor-list order.
            let Some(&(best_d, best_ext)) = external
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                continue;
            };
            let gain = best_ext - internal;
            let wv = weights[v as usize];
            if gain > 1e-12 && load[best_d as usize] + wv <= cap && load[c as usize] - wv >= 0.0 {
                out.set(v, best_d);
                load[c as usize] -= wv;
                load[best_d as usize] += wv;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::gen::misc::path;

    fn total_cut(g: &Graph, costs: &[f64], chi: &Coloring) -> f64 {
        chi.boundary_costs(g, costs).iter().sum::<f64>() / 2.0
    }

    #[test]
    fn improves_interleaved_path() {
        let g = path(40);
        let costs = vec![1.0; 39];
        let weights = vec![1.0; 40];
        // Worst possible start: alternating colors.
        let bad = Coloring::from_fn(40, 2, |v| v % 2);
        let refined = refine(&g, &costs, &weights, &bad, &KlParams::default()).unwrap();
        assert!(refined.is_total());
        let before = total_cut(&g, &costs, &bad);
        let after = total_cut(&g, &costs, &refined);
        assert!(after < before, "KL failed to improve: {before} -> {after}");
    }

    #[test]
    fn respects_balance_envelope() {
        let grid = GridGraph::lattice(&[8, 8]);
        let n = 64;
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; n];
        let start = Coloring::from_fn(n, 4, |v| v % 4);
        let params = KlParams {
            max_passes: 20,
            balance_factor: 1.25,
        };
        let refined = refine(&grid.graph, &costs, &weights, &start, &params).unwrap();
        let cap = 1.25 * n as f64 / 4.0;
        for c in refined.class_measures(&weights) {
            assert!(c <= cap + 1e-9, "class exceeds envelope: {c} > {cap}");
        }
    }

    #[test]
    fn never_worsens() {
        let grid = GridGraph::lattice(&[10, 10]);
        let n = 100;
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + (e % 3) as f64)
            .collect();
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
        let start = Coloring::from_fn(n, 5, |v| (v / 20) % 5);
        let refined = refine(&grid.graph, &costs, &weights, &start, &KlParams::default()).unwrap();
        assert!(
            total_cut(&grid.graph, &costs, &refined)
                <= total_cut(&grid.graph, &costs, &start) + 1e-9
        );
    }

    #[test]
    fn full_region_matches_full_refine() {
        let grid = GridGraph::lattice(&[8, 8]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; 64];
        let start = Coloring::from_fn(64, 4, |v| v % 4);
        let all: Vec<u32> = (0..64).collect();
        let full = refine(&grid.graph, &costs, &weights, &start, &KlParams::default()).unwrap();
        let regional = refine_region(
            &grid.graph,
            &costs,
            &weights,
            &start,
            &all,
            &KlParams::default(),
        )
        .unwrap();
        assert_eq!(full, regional);
    }

    #[test]
    fn empty_region_is_a_noop() {
        let g = path(10);
        let start = Coloring::from_fn(10, 2, |v| v % 2);
        let out =
            refine_region(&g, &[1.0; 9], &[1.0; 10], &start, &[], &KlParams::default()).unwrap();
        assert_eq!(out, start);
    }

    #[test]
    fn regional_moves_stay_near_the_region() {
        // Alternating colors on a path; repair only around vertex 2.
        // Vertices beyond the region's neighbor closure keep their colors.
        let g = path(20);
        let start = Coloring::from_fn(20, 2, |v| v % 2);
        let out = refine_region(
            &g,
            &[1.0; 19],
            &[1.0; 20],
            &start,
            &[2],
            &KlParams::default(),
        )
        .unwrap();
        for v in 5..20u32 {
            assert_eq!(out.get(v), start.get(v), "vertex {v} moved outside region");
        }
    }

    #[test]
    fn k1_noop() {
        let g = path(5);
        let chi = Coloring::monochromatic(5, 1);
        let refined = refine(&g, &[1.0; 4], &[1.0; 5], &chi, &KlParams::default()).unwrap();
        assert_eq!(refined, chi);
    }
}
