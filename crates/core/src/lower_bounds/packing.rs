//! Boundary-degree packing and weight-based cut bounds.
//!
//! **Packing bound** (Träff–Wimmer style, arXiv:1410.0462). Fix a
//! strictly balanced `k`-coloring `χ` and a vertex `v`. The neighbors
//! that share `v`'s class have total weight at most `hi − w(v)` (the
//! class itself is capped at the upper envelope `hi`), so the incident
//! cost `χ` can *retain* (not cut) at `v` is at most the optimum of the
//! fractional knapsack
//!
//! ```text
//! max Σ c_e·x_e   s.t.  Σ w(u_e)·x_e ≤ hi − w(v),  0 ≤ x_e ≤ 1
//! ```
//!
//! over `v`'s incident edges `e = {v, u_e}` — solved exactly by the
//! greedy over costs sorted by `c_e / w(u_e)` (zero-weight neighbors are
//! free and always retained). Everything else is certified cut:
//! `Σ_v cut_v(χ) = 2·c(F)` and `‖∂χ⁻¹‖_∞ ≥ (2/k)·c(F)`, so
//!
//! ```text
//! OPT ≥ (1/k) · Σ_v max(0, τ(v) − knap_v)
//! ```
//!
//! with `τ(v) = c(δ(v))` the cost degree. The bound is vacuous when every
//! neighborhood fits under the envelope (sparse hosts at small `k`) and
//! kicks in exactly when weights crowd the window — the regime the
//! averaging bound cannot see.
//!
//! **Edge-packing refinement** ([`EdgePackingBound`]). A class retains
//! *whole edges*, never fractions of them, so the true per-vertex cap is
//! the 0/1 knapsack over the same items — always ≤ the fractional
//! optimum. [`EdgePackingBound`] solves that integral knapsack exactly
//! (budgeted branch-and-bound over the ratio-sorted items, with the
//! fractional relaxation as the pruning bound) and retains
//! `min(frac, int)` per vertex, so its masses dominate the fractional
//! ones *by construction* — pointwise and, summed in the same order,
//! in exact floating point. When a per-vertex node budget runs out the
//! vertex falls back to the fractional optimum: a truncated
//! *maximization* incumbent would under-state what a class can retain
//! and over-state the certified cut, which is the unsound direction.
//!
//! **Min-cut bound** (the classical weight-based cut bound; cf. the
//! Gutin–Yeo survey, arXiv:2104.05536). On a connected host with at
//! least two occupied classes, every occupied class is a proper
//! non-empty vertex set, so its boundary is a global edge cut:
//! `OPT ≥ λ(G, c)`. Computed by Stoer–Wagner (deterministic `O(n³)`,
//! size-capped), keeping one side of a minimum cut as the replayable
//! witness.

use mmb_graph::VertexId;

use crate::api::instance::Instance;
use crate::lower_bounds::{Certificate, Derivation, LowerBound, Window};

/// The per-vertex fractional-knapsack packing bound (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default)]
pub struct PackingBound;

/// Default per-vertex node budget of the integral knapsack searches
/// (edge-packing certifier and the B&B engine's suffix bound).
pub(crate) const PACK_VERTEX_BUDGET: u64 = 50_000;

/// Exact 0/1 knapsack over ratio-sorted `(cost, weight)` items: the
/// maximum cost retainable within `cap`. Returns `None` when the node
/// budget runs out before the search is exhausted.
fn integral_retained(items: &[(f64, f64)], cap: f64, budget: &mut u64) -> Option<f64> {
    fn dfs(
        items: &[(f64, f64)],
        idx: usize,
        room: f64,
        value: f64,
        best: &mut f64,
        budget: &mut u64,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        // Fractional completion bound: items are ratio-sorted, so the
        // greedy prefix over the remaining items relaxes the 0/1 optimum.
        let mut bound = value;
        let mut r = room;
        for &(c, w) in &items[idx..] {
            if w == 0.0 || w <= r {
                bound += c;
                r -= w;
            } else {
                if r > 0.0 {
                    bound += c * (r / w);
                }
                break;
            }
        }
        if bound <= *best {
            return true;
        }
        if idx == items.len() {
            *best = value; // bound == value > best at a leaf
            return true;
        }
        let (c, w) = items[idx];
        if w <= room && !dfs(items, idx + 1, room - w, value + c, best, budget) {
            return false;
        }
        dfs(items, idx + 1, room, value, best, budget)
    }
    let mut best = 0.0;
    dfs(items, 0, cap, 0.0, &mut best, budget).then_some(best)
}

/// Per-vertex certified doubled-cut masses `max(0, τ(v) − knap_v − slack)`,
/// indexed by vertex id.
///
/// `knap_v` is the fractional knapsack optimum; with
/// `integral_budget = Some(b)` each vertex additionally solves the exact
/// 0/1 knapsack (≤ `b` search nodes) and retains `min(frac, int)` — so
/// the integral masses dominate the fractional ones pointwise by
/// construction, with the identical slack term (see the
/// [module docs](self) for the soundness of the exhaustion fallback).
pub(crate) fn vertex_masses(inst: &Instance, k: usize, integral_budget: Option<u64>) -> Vec<f64> {
    let win = Window::new(inst, k);
    let g = inst.graph();
    let (costs, weights) = (inst.costs(), inst.weights());
    let mut incident: Vec<(f64, f64)> = Vec::new();
    let mut masses = vec![0.0; inst.num_vertices()];
    for v in g.vertices() {
        let cap = win.hi - weights[v as usize];
        if cap < 0.0 {
            // A vertex heavier than the envelope cannot occur (hi ≥ ‖w‖∞
            // always); treat defensively as "everything retained".
            continue;
        }
        incident.clear();
        let mut tau = 0.0;
        for &(nb, e) in g.neighbors(v) {
            let c = costs[e as usize];
            tau += c;
            incident.push((c, weights[nb as usize]));
        }
        // Greedy fractional knapsack: free (zero-weight) neighbors first,
        // then best cost-per-weight. `total_cmp` keeps the order total on
        // any finite input.
        incident.sort_unstable_by(|a, b| {
            let ra = if a.1 == 0.0 { f64::INFINITY } else { a.0 / a.1 };
            let rb = if b.1 == 0.0 { f64::INFINITY } else { b.0 / b.1 };
            rb.total_cmp(&ra)
        });
        let mut room = cap;
        let mut retained = 0.0;
        for &(c, w) in &incident {
            if w == 0.0 || w <= room {
                retained += c;
                room -= w;
            } else if room > 0.0 {
                retained += c * (room / w);
                room = 0.0;
            } else {
                break;
            }
        }
        if let Some(per_vertex) = integral_budget {
            let mut budget = per_vertex;
            if let Some(int) = integral_retained(&incident, cap, &mut budget) {
                retained = int.min(retained);
            }
        }
        // Relative slack in the sound direction: the knapsack optimum is
        // only trusted up to fp rounding.
        let slack = 1e-9 * (1.0 + tau);
        masses[v as usize] = (tau - retained - slack).max(0.0);
    }
    masses
}

/// `Σ_v max(0, τ(v) − knap_v)` — the certified doubled cut mass.
fn packing_total(inst: &Instance, k: usize) -> f64 {
    vertex_masses(inst, k, None).iter().sum()
}

/// The integral-packing total with a per-vertex budget (the edge-packing
/// certifier's doubled cut mass; same summation order as
/// [`packing_total`], so dominance survives fp addition).
fn edge_packing_total(inst: &Instance, k: usize, vertex_budget: u64) -> f64 {
    vertex_masses(inst, k, Some(vertex_budget)).iter().sum()
}

impl LowerBound for PackingBound {
    fn name(&self) -> &'static str {
        "packing"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        if k == 0 || inst.num_edges() == 0 {
            return None;
        }
        let total = packing_total(inst, k);
        Some(Certificate {
            certifier: self.name(),
            value: total / k as f64,
            derivation: Derivation::Packing {
                per_vertex_total: total,
            },
        })
    }
}

/// Replay a [`Derivation::Packing`]: recompute the per-vertex knapsacks
/// and cross-check the stored sum.
pub(crate) fn replay_packing(
    inst: &Instance,
    k: usize,
    per_vertex_total: f64,
) -> Result<f64, String> {
    if k == 0 || inst.num_edges() == 0 {
        return Err("packing bound does not apply (k = 0 or edgeless host)".into());
    }
    let fresh = packing_total(inst, k);
    if (fresh - per_vertex_total).abs() > 1e-9 * (1.0 + per_vertex_total.abs()) {
        return Err(format!(
            "per-vertex total drifted: {per_vertex_total} vs {fresh}"
        ));
    }
    Ok(fresh / k as f64)
}

/// The whole-edge (0/1 knapsack) refinement of [`PackingBound`] — see
/// the [module docs](self). Dominates the fractional bound by
/// construction.
#[derive(Clone, Copy, Debug)]
pub struct EdgePackingBound {
    /// Node budget of each per-vertex integral knapsack search; on
    /// exhaustion that vertex falls back to its fractional optimum
    /// (sound, merely weaker).
    pub vertex_budget: u64,
}

impl Default for EdgePackingBound {
    fn default() -> Self {
        EdgePackingBound {
            vertex_budget: PACK_VERTEX_BUDGET,
        }
    }
}

impl LowerBound for EdgePackingBound {
    fn name(&self) -> &'static str {
        "edge-packing"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        if k == 0 || inst.num_edges() == 0 {
            return None;
        }
        let total = edge_packing_total(inst, k, self.vertex_budget);
        Some(Certificate {
            certifier: self.name(),
            value: total / k as f64,
            derivation: Derivation::EdgePacking {
                per_vertex_total: total,
                vertex_budget: self.vertex_budget,
            },
        })
    }
}

/// Replay a [`Derivation::EdgePacking`]: recompute the per-vertex
/// integral knapsacks with the stored budget and cross-check the sum.
pub(crate) fn replay_edge_packing(
    inst: &Instance,
    k: usize,
    per_vertex_total: f64,
    vertex_budget: u64,
) -> Result<f64, String> {
    if k == 0 || inst.num_edges() == 0 {
        return Err("edge-packing bound does not apply (k = 0 or edgeless host)".into());
    }
    let fresh = edge_packing_total(inst, k, vertex_budget);
    if (fresh - per_vertex_total).abs() > 1e-9 * (1.0 + per_vertex_total.abs()) {
        return Err(format!(
            "per-vertex total drifted: {per_vertex_total} vs {fresh}"
        ));
    }
    Ok(fresh / k as f64)
}

/// The global min-cut bound `OPT ≥ λ(G, c)` (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
pub struct MinCutBound {
    /// Refuse hosts with more vertices than this (Stoer–Wagner is cubic).
    pub max_vertices: usize,
}

impl Default for MinCutBound {
    fn default() -> Self {
        MinCutBound { max_vertices: 512 }
    }
}

/// Deterministic Stoer–Wagner on a dense cost matrix: the weighted
/// global minimum cut and one side attaining it. Requires `n ≥ 2`.
fn stoer_wagner(inst: &Instance) -> (f64, Vec<VertexId>) {
    let n = inst.num_vertices();
    let mut w = vec![vec![0.0f64; n]; n];
    for (e, &(u, v)) in inst.graph().edge_list().iter().enumerate() {
        w[u as usize][v as usize] += inst.costs()[e];
        w[v as usize][u as usize] += inst.costs()[e];
    }
    let mut groups: Vec<Vec<VertexId>> = (0..n).map(|v| vec![v as VertexId]).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    let mut best_side: Vec<VertexId> = Vec::new();
    while active.len() > 1 {
        // One "minimum cut phase": grow A from the first active vertex by
        // most-tightly-connected selection (ties → smallest id, so the
        // whole computation is deterministic).
        let mut in_a = vec![false; n];
        let mut wsum = vec![0.0f64; n];
        let first = active[0];
        in_a[first] = true;
        for &v in &active {
            if v != first {
                wsum[v] = w[first][v];
            }
        }
        let mut prev = first;
        let mut last = first;
        for _ in 1..active.len() {
            let mut sel = usize::MAX;
            for &v in &active {
                if !in_a[v] && (sel == usize::MAX || wsum[v] > wsum[sel]) {
                    sel = v;
                }
            }
            prev = last;
            last = sel;
            in_a[sel] = true;
            for &v in &active {
                if !in_a[v] {
                    wsum[v] += w[sel][v];
                }
            }
        }
        // The cut of the phase separates `last`'s merged group from the
        // rest.
        if wsum[last] < best {
            best = wsum[last];
            best_side = groups[last].clone();
        }
        // Merge `last` into `prev`.
        for &v in &active {
            if v != last && v != prev {
                w[prev][v] += w[last][v];
                w[v][prev] = w[prev][v];
            }
        }
        let moved = std::mem::take(&mut groups[last]);
        groups[prev].extend(moved);
        active.retain(|&v| v != last);
    }
    best_side.sort_unstable();
    (best, best_side)
}

impl LowerBound for MinCutBound {
    fn name(&self) -> &'static str {
        "min-cut"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        let n = inst.num_vertices();
        if k < 2 || n < 2 || n > self.max_vertices || inst.num_edges() == 0 {
            return None;
        }
        if !inst.graph().is_connected() {
            return None; // λ = 0 proves nothing
        }
        // The argument needs ≥ 2 occupied classes (each then proper).
        if Window::new(inst, k).min_occupied_classes(k) < 2 {
            return None;
        }
        let (cut_cost, side) = stoer_wagner(inst);
        Some(Certificate {
            certifier: self.name(),
            value: cut_cost,
            derivation: Derivation::MinCut { cut_cost, side },
        })
    }
}

/// Price the boundary of `side` directly from the edge list (shared with
/// the cut-pair certifier).
pub(crate) fn price_side(inst: &Instance, side: &[VertexId]) -> f64 {
    let mut inside = vec![false; inst.num_vertices()];
    for &v in side {
        inside[v as usize] = true;
    }
    let mut cut = 0.0;
    for (e, &(u, v)) in inst.graph().edge_list().iter().enumerate() {
        if inside[u as usize] != inside[v as usize] {
            cut += inst.costs()[e];
        }
    }
    cut
}

/// Replay a [`Derivation::MinCut`]: check the witness side is a proper
/// non-empty vertex set whose priced boundary matches, and that the
/// argument's preconditions hold.
pub(crate) fn replay_min_cut(
    inst: &Instance,
    k: usize,
    cut_cost: f64,
    side: &[VertexId],
) -> Result<f64, String> {
    let n = inst.num_vertices();
    if side.is_empty() || side.len() >= n {
        return Err(format!("witness side of size {} is not proper", side.len()));
    }
    if !inst.graph().is_connected() {
        return Err("min-cut bound requires a connected host".into());
    }
    if Window::new(inst, k).min_occupied_classes(k) < 2 {
        return Err("min-cut bound requires ≥ 2 occupied classes".into());
    }
    let priced = price_side(inst, side);
    if (priced - cut_cost).abs() > 1e-9 * (1.0 + cut_cost.abs()) {
        return Err(format!(
            "witness prices at {priced}, certificate says {cut_cost}"
        ));
    }
    // The witness only proves λ ≤ cut_cost; re-run the exact computation
    // so the replayed value is the bound itself.
    let (fresh, _) = stoer_wagner(inst);
    if (fresh - cut_cost).abs() > 1e-9 * (1.0 + cut_cost.abs()) {
        return Err(format!("min cut drifted: {cut_cost} vs {fresh}"));
    }
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{self, BnbConfig};
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::gen::misc::{complete, cycle, path};
    use mmb_graph::graph::graph_from_edges;

    fn unit(g: mmb_graph::Graph) -> Instance {
        let (n, m) = (g.num_vertices(), g.num_edges());
        Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap()
    }

    #[test]
    fn min_cut_of_a_cycle_is_two_cheapest_edges() {
        let g = cycle(6);
        let costs = vec![3.0, 1.0, 4.0, 1.5, 9.0, 2.0];
        let inst = Instance::new(g, costs, vec![1.0; 6]).unwrap();
        let cert = MinCutBound::default().certify(&inst, 2).unwrap();
        assert_eq!(cert.value, 2.5); // 1.0 + 1.5 (any two edges split a cycle)
        let replayed = cert.derivation.replay(&inst, 2).unwrap();
        assert_eq!(replayed, 2.5);
    }

    #[test]
    fn min_cut_of_a_path_is_the_cheapest_edge() {
        let inst =
            Instance::new(path(7), vec![2.0, 5.0, 0.5, 3.0, 1.0, 4.0], vec![1.0; 7]).unwrap();
        let cert = MinCutBound::default().certify(&inst, 2).unwrap();
        assert_eq!(cert.value, 0.5);
    }

    #[test]
    fn min_cut_of_a_grid_isolates_a_corner() {
        // Unit 4×4 lattice: the global min cut isolates one corner (2
        // edges) — weaker than the bisection width, but certified.
        let inst = unit(GridGraph::lattice(&[4, 4]).graph);
        let cert = MinCutBound::default().certify(&inst, 2).unwrap();
        assert_eq!(cert.value, 2.0);
        match &cert.derivation {
            Derivation::MinCut { side, .. } => {
                assert!(!side.is_empty() && side.len() < 16);
            }
            d => panic!("wrong derivation {d:?}"),
        }
    }

    #[test]
    fn min_cut_declines_when_it_must() {
        // Disconnected host.
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert!(MinCutBound::default().certify(&unit(g), 2).is_none());
        // k = 1 (the single class is everything: no proper subset).
        assert!(MinCutBound::default().certify(&unit(cycle(5)), 1).is_none());
        // Size cap.
        let capped = MinCutBound { max_vertices: 4 };
        assert!(capped.certify(&unit(cycle(6)), 2).is_none());
    }

    #[test]
    fn packing_fires_when_neighborhoods_crowd_the_window() {
        // K₄ with unit weights at k = 4: hi = 1 + 3/4, so a class holds
        // at most one extra ~unit of neighbor weight — each vertex must
        // cut ≥ 2 of its 3 incident edges (fractionally ≥ 2.25… the
        // knapsack retains 0.75 of one edge). Certified:
        // Σ_v (3 − 0.75)/4 = 4·2.25/4 = 2.25.
        let inst = unit(complete(4));
        let cert = PackingBound.certify(&inst, 4).unwrap();
        assert!(cert.value > 2.0, "value = {}", cert.value);
        // Sound against the exact optimum.
        let opt = bnb::solve(&inst, 4, &BnbConfig::exhaustive()).unwrap();
        assert!(cert.value <= opt.max_boundary + 1e-9);
        let replayed = cert.derivation.replay(&inst, 4).unwrap();
        assert!((replayed - cert.value).abs() < 1e-12);
    }

    #[test]
    fn packing_is_vacuous_on_roomy_windows() {
        // Unit path at k = 2: every neighborhood fits under the envelope.
        let cert = PackingBound.certify(&unit(path(8)), 2).unwrap();
        assert_eq!(cert.value, 0.0);
    }

    #[test]
    fn edge_packing_refines_the_fractional_bound_on_k4() {
        // K₄ unit at k = 4: cap = 0.75 per vertex, so a class retains
        // *no* whole unit-weight edge — the integral knapsack certifies
        // the full cost degree 3 per vertex (the fractional bound only
        // 2.25), i.e. the exact optimum 3 (each singleton class has
        // boundary 3).
        let inst = unit(complete(4));
        let frac = PackingBound.certify(&inst, 4).unwrap();
        let edge = EdgePackingBound::default().certify(&inst, 4).unwrap();
        assert!(edge.value > frac.value, "{} vs {}", edge.value, frac.value);
        assert!((edge.value - 3.0).abs() < 1e-6, "value = {}", edge.value);
        let opt = bnb::solve(&inst, 4, &BnbConfig::exhaustive()).unwrap();
        assert!(edge.value <= opt.max_boundary + 1e-9);
        let replayed = edge.derivation.replay(&inst, 4).unwrap();
        assert!((replayed - edge.value).abs() < 1e-12);
    }

    #[test]
    fn edge_packing_dominates_pointwise_and_in_total() {
        // The per-vertex masses must dominate the fractional ones *by
        // construction* (min(frac, int) retained, identical slack), on a
        // weighted instance with mixed degrees.
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (2, 5)]);
        let costs = vec![2.0, 1.0, 3.0, 0.5, 1.5, 2.5, 1.0];
        let weights = vec![3.0, 1.0, 2.0, 1.0, 2.0, 3.0];
        let inst = Instance::new(g, costs, weights).unwrap();
        for k in [2usize, 3, 4] {
            let frac = vertex_masses(&inst, k, None);
            let int = vertex_masses(&inst, k, Some(PACK_VERTEX_BUDGET));
            for (v, (f, i)) in frac.iter().zip(&int).enumerate() {
                assert!(i >= f, "vertex {v} at k={k}: {i} < {f}");
            }
            let (tf, ti): (f64, f64) = (frac.iter().sum(), int.iter().sum());
            assert!(ti >= tf, "k={k}: total {ti} < {tf}");
        }
    }

    #[test]
    fn integral_knapsack_budget_exhaustion_falls_back_fractionally() {
        // A one-node budget cannot finish any search: every vertex falls
        // back to its fractional optimum and the two bounds coincide
        // bit-for-bit.
        let inst = unit(complete(4));
        let frac = PackingBound.certify(&inst, 4).unwrap();
        let starved = EdgePackingBound { vertex_budget: 1 }
            .certify(&inst, 4)
            .unwrap();
        assert_eq!(starved.value.to_bits(), frac.value.to_bits());
    }

    #[test]
    fn witness_tampering_is_caught() {
        let inst = unit(cycle(6));
        let cert = MinCutBound::default().certify(&inst, 2).unwrap();
        let Derivation::MinCut { cut_cost, .. } = cert.derivation else {
            panic!("wrong derivation");
        };
        assert_eq!(cut_cost, 2.0);
        // Swap in a side whose boundary prices at 4, not 2: caught.
        let tampered = Derivation::MinCut {
            cut_cost,
            side: vec![0, 2],
        };
        assert!(tampered.replay(&inst, 2).is_err());
        // An empty (non-proper) witness is caught too.
        let empty = Derivation::MinCut {
            cut_cost,
            side: vec![],
        };
        assert!(empty.replay(&inst, 2).is_err());
    }
}
