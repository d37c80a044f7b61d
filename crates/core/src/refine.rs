//! Kernighan–Lin-style k-way local refinement.
//!
//! Greedy vertex moves between classes that reduce the total cut cost,
//! subject to a weight-balance envelope. This is the standard engineering
//! post-pass (FM/KL family); it has no worst-case guarantee on either
//! balance tightness or per-class boundary — which is exactly what the E7
//! comparison demonstrates against the Theorem 4 pipeline.
//!
//! A pass visits only *candidates*: the colored vertices of its region
//! with a colored neighbor in another class, since no other vertex has a
//! move to make. They sit in a bitset visited in ascending id, the order
//! of a full sweep, so the moves are exactly a full sweep's. A visit that
//! finds its vertex interior drops it; a move re-arms the mover's
//! neighbors in the class it left, the only vertices it can turn into
//! candidates, and a re-armed id above the mover's joins the running
//! pass. The set-up (copying the coloring, the class loads, the first
//! candidate scan) is `O(n + m)`; after it each pass costs `O(n/64)`
//! plus the degrees of the candidates it visits, not `O(n + m)`.
//!
//! The multilevel baseline (`mmb_baselines::multilevel`) and the
//! coarsening cascade ([`crate::coarsen`]) both run it once per level
//! while uncoarsening; [`crate::api::Solver::resolve_delta`] runs it to
//! repair a mutated instance.

use mmb_graph::{Coloring, Graph};

use crate::api::{validate_costs, validate_weights, SolveError};

/// Refinement parameters.
#[derive(Clone, Copy, Debug)]
pub struct KlParams {
    /// Maximum number of passes over the candidates (the boundary
    /// vertices of the region); refinement stops early after a pass that
    /// moves nothing.
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
    refine_over(g, costs, weights, chi, None, params)
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
    let mut closure = vec![0u64; g.num_vertices().div_ceil(64)];
    for &v in region {
        arm(&mut closure, v);
        for &(nb, _) in g.neighbors(v) {
            arm(&mut closure, nb);
        }
    }
    refine_over(g, costs, weights, chi, Some(&closure), params)
}

#[inline]
fn arm(bits: &mut [u64], v: u32) {
    bits[v as usize / 64] |= 1 << (v % 64);
}

#[inline]
fn armed(bits: &[u64], v: u32) -> bool {
    bits[v as usize / 64] >> (v % 64) & 1 == 1
}

/// Whether colored vertex `v` (of class `c`) has a colored neighbor in
/// another class.
fn has_foreign_neighbor(g: &Graph, chi: &Coloring, v: u32, c: u32) -> bool {
    g.neighbors(v)
        .iter()
        .any(|&(nb, _)| chi.get(nb).is_some_and(|d| d != c))
}

/// The shared pass: greedy gain moves over the candidates of `region`
/// (every vertex when `None`, else the armed bits), visited in ascending
/// id and repeated until a pass moves nothing or `max_passes` is hit.
fn refine_over(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    chi: &Coloring,
    region: Option<&[u64]>,
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

    let in_region = |v: u32| region.is_none_or(|r| armed(r, v));
    let mut candidates = vec![0u64; n.div_ceil(64)];
    for v in (0..n as u32).filter(|&v| in_region(v)) {
        if let Some(c) = out.get(v) {
            if has_foreign_neighbor(g, &out, v, c) {
                arm(&mut candidates, v);
            }
        }
    }

    let mut external: Vec<(u32, f64)> = Vec::new();
    for _pass in 0..params.max_passes {
        let mut improved = false;
        for i in 0..candidates.len() {
            let mut word = candidates[i];
            while word != 0 {
                let bit = word.trailing_zeros();
                let v = (i * 64) as u32 + bit;
                // Only colored vertices are ever armed.
                let c = out.raw(v);
                // Gains per adjacent class.
                let mut internal = 0.0;
                external.clear();
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
                let best = external
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
                if let Some(&(best_d, best_ext)) = best {
                    let gain = best_ext - internal;
                    let wv = weights[v as usize];
                    if gain > 1e-12
                        && load[best_d as usize] + wv <= cap
                        && load[c as usize] - wv >= 0.0
                    {
                        out.set(v, best_d);
                        load[c as usize] -= wv;
                        load[best_d as usize] += wv;
                        improved = true;
                        // Only neighbors left behind in `c` gain a foreign
                        // neighbor; every other colored one already had `v`
                        // as one, so it is armed if it is in the region.
                        for &(nb, _) in g.neighbors(v) {
                            if out.get(nb) == Some(c) && in_region(nb) {
                                arm(&mut candidates, nb);
                            }
                        }
                    }
                } else {
                    // Interior: out of the set until a neighbor's move re-arms it.
                    candidates[i] &= !(1 << bit);
                }
                // Re-read the word: a move may have armed a higher id in
                // it, which this pass must still reach.
                word = candidates[i] & (u64::MAX << bit << 1);
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
