//! Balanced separations and the separator → splitter reduction.
//!
//! Appendix A.3 of the paper relates the splitting-set framework to the
//! classical notion of balanced separators:
//!
//! * A **separation** of `G[W]` is a pair `(A, B)` with `A ∪ B = W` and no
//!   edge joining `A \ B` and `B \ A`; it is *balanced* w.r.t. weights `w`
//!   when `max{w(A\B), w(B\A)} ≤ ⅔·w(W)` (Definition 34).
//! * The **`Split` procedure** (Lemma 37, part 2) converts any provider of
//!   balanced separations into a [`Splitter`]: recursively separate with
//!   respect to the separating-cost measure `π(v) = τ(v)^p`
//!   (`τ(v) = c(δ(v) ∩ E(W))`), descend into the side containing the
//!   splitting value, and finish by taking a prefix of the collected
//!   separator vertices.
//!
//! Two providers are included: a centroid-based one for forests and a
//! median-slab one for grid graphs; both satisfy the ⅔-balance contract for
//! every weight function.

use mmb_graph::gen::grid::GridGraph;
use mmb_graph::measure::set_sum;
use mmb_graph::{Graph, VertexId, VertexSet};

use crate::{prefix_split, Splitter};

/// A separation `(A, B)` of a vertex set, stored as the three disjoint
/// blocks `A\B`, `A∩B`, `B\A`.
#[derive(Clone, Debug)]
pub struct Separation {
    /// `A \ B`.
    pub a_only: Vec<VertexId>,
    /// The separator `A ∩ B`.
    pub sep: Vec<VertexId>,
    /// `B \ A`.
    pub b_only: Vec<VertexId>,
}

impl Separation {
    /// Verify the structural contract on `G[W]`: the three blocks partition
    /// `W` and no inner edge joins `a_only` to `b_only`. Balance is checked
    /// against `balance` weights. Intended for tests/debug assertions.
    pub fn check(&self, g: &Graph, w_set: &VertexSet, balance: &[f64]) -> bool {
        let n = g.num_vertices();
        let a = VertexSet::from_iter(n, self.a_only.iter().copied());
        let s = VertexSet::from_iter(n, self.sep.iter().copied());
        let b = VertexSet::from_iter(n, self.b_only.iter().copied());
        if a.len() + s.len() + b.len() != w_set.len() {
            return false;
        }
        let union = a.union(&s).union(&b);
        if union != *w_set || !a.is_disjoint(&s) || !a.is_disjoint(&b) || !s.is_disjoint(&b) {
            return false;
        }
        for v in a.iter() {
            for &(nb, _) in g.neighbors(v) {
                if b.contains(nb) {
                    return false;
                }
            }
        }
        let total = set_sum(balance, w_set);
        let tol = 1e-9 * (1.0 + total);
        set_sum(balance, &a) <= 2.0 / 3.0 * total + tol
            && set_sum(balance, &b) <= 2.0 / 3.0 * total + tol
    }
}

/// A provider of weight-balanced separations on induced subgraphs.
pub trait SeparatorProvider: Sync {
    /// Produce a separation of `G[w_set]` balanced w.r.t. `balance`.
    fn separate(&self, w_set: &VertexSet, balance: &[f64]) -> Separation;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "separator"
    }
}

/// Group pieces (given as `(piece, weight)` with every weight ≤ ½·total)
/// into two sides, both of weight ≤ ⅔·total (the classic Lipton–Tarjan
/// grouping). Returns a boolean side assignment per piece.
fn two_thirds_grouping(weights: &[f64]) -> Vec<bool> {
    let total: f64 = weights.iter().sum();
    let mut side = vec![false; weights.len()];
    if weights.is_empty() || total <= 0.0 {
        return side;
    }
    let mut idx: Vec<usize> = (0..weights.len()).collect();
    // total_cmp + index tie-break: the grouping walks `idx` in order, so
    // ties between equal-weight pieces must break deterministically.
    idx.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let largest = idx[0];
    if weights[largest] >= total / 3.0 {
        // Largest piece alone on side A; everything else on side B.
        side[largest] = true;
    } else {
        // All pieces < total/3: fill side A until it reaches total/3.
        let mut acc = 0.0;
        for &i in &idx {
            if acc >= total / 3.0 {
                break;
            }
            side[i] = true;
            acc += weights[i];
        }
    }
    side
}

/// Centroid-based balanced separations for forests.
pub struct TreeCentroidSeparator<'g> {
    graph: &'g Graph,
}

impl<'g> TreeCentroidSeparator<'g> {
    /// Bind to a forest.
    ///
    /// # Panics
    /// Panics if `graph` contains a cycle.
    pub fn new(graph: &'g Graph) -> Self {
        let (_, components) = graph.components();
        assert_eq!(
            graph.num_edges() + components,
            graph.num_vertices(),
            "TreeCentroidSeparator requires a forest"
        );
        Self { graph }
    }

    /// Connected components of `G[w_set]` as vertex lists.
    fn induced_components(&self, w_set: &VertexSet) -> Vec<Vec<VertexId>> {
        let n = self.graph.num_vertices();
        let mut seen = VertexSet::empty(n);
        let mut comps = Vec::new();
        for seed in w_set.iter() {
            if seen.contains(seed) {
                continue;
            }
            let mut comp = vec![seed];
            seen.insert(seed);
            let mut stack = vec![seed];
            while let Some(v) = stack.pop() {
                for &(nb, _) in self.graph.neighbors(v) {
                    if w_set.contains(nb) && seen.insert(nb) {
                        comp.push(nb);
                        stack.push(nb);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// Weighted centroid of a tree component: a vertex whose removal leaves
    /// pieces of weight ≤ half the component weight.
    fn centroid(&self, comp: &[VertexId], w_set: &VertexSet, balance: &[f64]) -> VertexId {
        let n = self.graph.num_vertices();
        let in_comp = VertexSet::from_iter(n, comp.iter().copied());
        let total: f64 = comp.iter().map(|&v| balance[v as usize]).sum();
        let root = comp[0];
        // Subtree weights by iterative post-order.
        let mut sub = vec![0.0f64; n];
        let mut stack = vec![(root, root, false)];
        let mut order = Vec::with_capacity(comp.len());
        while let Some((v, parent, expanded)) = stack.pop() {
            if expanded {
                let mut s = balance[v as usize];
                for &(nb, _) in self.graph.neighbors(v) {
                    if nb != parent && in_comp.contains(nb) && w_set.contains(nb) {
                        s += sub[nb as usize];
                    }
                }
                sub[v as usize] = s;
                order.push((v, parent));
            } else {
                stack.push((v, parent, true));
                for &(nb, _) in self.graph.neighbors(v) {
                    if nb != parent && in_comp.contains(nb) {
                        stack.push((nb, v, false));
                    }
                }
            }
        }
        // The centroid minimizes the heaviest piece after removal.
        let mut best = (f64::INFINITY, root);
        for &(v, parent) in &order {
            let mut heaviest = total - sub[v as usize]; // the "upward" piece
            for &(nb, _) in self.graph.neighbors(v) {
                if nb != parent && in_comp.contains(nb) {
                    heaviest = heaviest.max(sub[nb as usize]);
                }
            }
            if heaviest < best.0 {
                best = (heaviest, v);
            }
        }
        best.1
    }
}

impl SeparatorProvider for TreeCentroidSeparator<'_> {
    fn separate(&self, w_set: &VertexSet, balance: &[f64]) -> Separation {
        let n = self.graph.num_vertices();
        let total = set_sum(balance, w_set);
        let comps = self.induced_components(w_set);
        if comps.is_empty() {
            return Separation {
                a_only: vec![],
                sep: vec![],
                b_only: vec![],
            };
        }

        // If every component already weighs ≤ ½·total we can group them
        // with an empty separator; otherwise split the heavy component at
        // its centroid first.
        let comp_weight = |c: &Vec<VertexId>| c.iter().map(|&v| balance[v as usize]).sum::<f64>();
        let heavy = comps
            .iter()
            .position(|c| comp_weight(c) > total / 2.0 && c.len() > 1);

        let mut pieces: Vec<Vec<VertexId>> = Vec::new();
        let mut sep: Vec<VertexId> = Vec::new();
        for (i, comp) in comps.into_iter().enumerate() {
            if Some(i) == heavy {
                let c = self.centroid(&comp, w_set, balance);
                sep.push(c);
                // Pieces = components of comp − c.
                let mut sub = w_set.clone();
                sub.intersect_with(&VertexSet::from_iter(n, comp.iter().copied()));
                sub.remove(c);
                let sub_comps = self.induced_components(&sub);
                pieces.extend(sub_comps);
            } else {
                pieces.push(comp);
            }
        }
        let piece_weights: Vec<f64> = pieces.iter().map(comp_weight).collect();
        let sides = two_thirds_grouping(&piece_weights);
        let mut a_only = Vec::new();
        let mut b_only = Vec::new();
        for (piece, &is_a) in pieces.iter().zip(&sides) {
            if is_a {
                a_only.extend_from_slice(piece);
            } else {
                b_only.extend_from_slice(piece);
            }
        }
        Separation {
            a_only,
            sep,
            b_only,
        }
    }

    fn name(&self) -> &str {
        "tree-centroid"
    }
}

/// Median-slab separations for grid graphs: cut perpendicular to the widest
/// axis at the weighted median coordinate.
pub struct GridSlabSeparator<'g> {
    grid: &'g GridGraph,
}

impl<'g> GridSlabSeparator<'g> {
    /// Bind to a grid graph.
    pub fn new(grid: &'g GridGraph) -> Self {
        Self { grid }
    }
}

impl SeparatorProvider for GridSlabSeparator<'_> {
    fn separate(&self, w_set: &VertexSet, balance: &[f64]) -> Separation {
        let members: Vec<VertexId> = w_set.iter().collect();
        if members.is_empty() {
            return Separation {
                a_only: vec![],
                sep: vec![],
                b_only: vec![],
            };
        }
        // Pick the axis with the widest extent.
        let d = self.grid.dim;
        let mut best_axis = 0;
        let mut best_extent = i64::MIN;
        for axis in 0..d {
            let (lo, hi) = members.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| {
                let x = self.grid.coord(v)[axis];
                (lo.min(x), hi.max(x))
            });
            if hi - lo > best_extent {
                best_extent = hi - lo;
                best_axis = axis;
            }
        }
        // Weighted median coordinate along that axis.
        let mut by_coord: Vec<(i64, VertexId)> = members
            .iter()
            .map(|&v| (self.grid.coord(v)[best_axis], v))
            .collect();
        by_coord.sort_unstable();
        let total: f64 = members.iter().map(|&v| balance[v as usize]).sum();
        let mut acc = 0.0;
        let mut median = by_coord[0].0;
        for &(x, v) in &by_coord {
            acc += balance[v as usize];
            if acc >= total / 2.0 {
                median = x;
                break;
            }
        }
        let mut a_only = Vec::new();
        let mut sep = Vec::new();
        let mut b_only = Vec::new();
        for &(x, v) in &by_coord {
            match x.cmp(&median) {
                std::cmp::Ordering::Less => a_only.push(v),
                std::cmp::Ordering::Equal => sep.push(v),
                std::cmp::Ordering::Greater => b_only.push(v),
            }
        }
        Separation {
            a_only,
            sep,
            b_only,
        }
    }

    fn name(&self) -> &str {
        "grid-slab"
    }
}

/// The `Split` procedure of Lemma 37: a [`Splitter`] built from any
/// [`SeparatorProvider`].
pub struct SeparatorSplitter<'g, P> {
    graph: &'g Graph,
    costs: &'g [f64],
    provider: P,
    /// The `p` of the separating-cost measure `π(v) = τ(v)^p`.
    pub p: f64,
}

impl<'g, P: SeparatorProvider> SeparatorSplitter<'g, P> {
    /// Bind the reduction to an instance and a provider.
    pub fn new(graph: &'g Graph, costs: &'g [f64], provider: P, p: f64) -> Self {
        assert_eq!(
            costs.len(),
            graph.num_edges(),
            "cost vector length mismatch"
        );
        assert!(p >= 1.0, "p must be at least 1");
        Self {
            graph,
            costs,
            provider,
            p,
        }
    }

    /// `τ_W(v) = c(δ(v) ∩ E(W))` for every `v ∈ W` (0 outside).
    fn tau_within(&self, w_set: &VertexSet) -> Vec<f64> {
        let mut tau = vec![0.0; self.graph.num_vertices()];
        for v in w_set.iter() {
            tau[v as usize] = self
                .graph
                .neighbors(v)
                .iter()
                .filter(|&&(nb, _)| w_set.contains(nb))
                .map(|&(_, e)| self.costs[e as usize])
                .sum();
        }
        tau
    }

    /// The `Split` procedure: returns `(core, ordered separator vertices)`
    /// such that `w(core) ≤ target − w_max/2 ≤ w(core) + w(sep)` whenever
    /// reachable, and `∂_W(core + any sep prefix)` only involves edges
    /// incident to collected separator vertices.
    ///
    /// The descent is a linear chain (each level recurses into exactly one
    /// side), so it runs as a loop with two LIFO accumulators instead of
    /// call-stack recursion — a path graph at `n = 10^6` would otherwise
    /// blow the stack long before the ⅔-balance contract stops helping.
    /// Popping the accumulators reassembles the exact innermost-first
    /// concatenation order of the recursive formulation.
    fn split_rec(
        &self,
        w_set: &VertexSet,
        weights: &[f64],
        target: f64,
        wmax: f64,
    ) -> (Vec<VertexId>, Vec<VertexId>) {
        let n = self.graph.num_vertices();
        let mut w_set = w_set.clone();
        let mut target = target;
        // Case-3 levels prepend `a_only ++ sep` to the core *after* the
        // inner result; case-1 levels append `sep` after the inner
        // separator. Pushed outermost-first, popped innermost-first.
        let mut core_tail: Vec<Vec<VertexId>> = Vec::new();
        let mut sep_tail: Vec<Vec<VertexId>> = Vec::new();
        let mut depth = 0usize;
        let (base_core, base_sep) = loop {
            // Trivial case: no costly inner structure, or the descent got
            // stuck — every vertex may serve as separator at zero relative
            // cost.
            let tau = self.tau_within(&w_set);
            let pi_total: f64 = w_set.iter().map(|v| tau[v as usize].powf(self.p)).sum();
            if pi_total <= 0.0 || depth > 64 + 2 * n {
                break (Vec::new(), w_set.iter().collect());
            }
            let pi: Vec<f64> = tau.iter().map(|&t| t.powf(self.p)).collect();
            let separation = self.provider.separate(&w_set, &pi);
            let Separation {
                a_only,
                sep,
                b_only,
            } = separation;
            if a_only.len() + sep.len() < w_set.len() && a_only.is_empty() && sep.is_empty() {
                // Degenerate provider output; bail out to the trivial case.
                break (Vec::new(), w_set.iter().collect());
            }
            let w_of = |vs: &[VertexId]| vs.iter().map(|&v| weights[v as usize]).sum::<f64>();
            let wa_only = w_of(&a_only);
            let wa = wa_only + w_of(&sep);

            if target - wmax / 2.0 < wa_only {
                // Descend into A \ B, same target.
                sep_tail.push(sep);
                w_set = VertexSet::from_iter(n, a_only.iter().copied());
            } else if target - wmax / 2.0 <= wa {
                // The splitting value lands inside the separator.
                break (a_only, sep);
            } else {
                // Take all of A, descend into B \ A with the residual target.
                let mut piece = a_only;
                piece.extend(sep);
                core_tail.push(piece);
                w_set = VertexSet::from_iter(n, b_only.iter().copied());
                target -= wa;
            }
            depth += 1;
        };
        let mut core = base_core;
        while let Some(piece) = core_tail.pop() {
            core.extend(piece);
        }
        let mut sep = base_sep;
        while let Some(s) = sep_tail.pop() {
            sep.extend(s);
        }
        (core, sep)
    }
}

impl<P: SeparatorProvider> Splitter for SeparatorSplitter<'_, P> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        let total = set_sum(weights, w_set);
        let target = target.clamp(0.0, total);
        let wmax = mmb_graph::measure::set_max(weights, w_set);
        let (core, sep) = self.split_rec(w_set, weights, target, wmax);
        // w(core) < target (invariant), so the best prefix of core ++ sep
        // never stops inside core; prefix_split gives the exact contract.
        let mut order = core;
        order.extend(sep);
        prefix_split(self.graph.num_vertices(), &order, weights, target)
    }

    fn name(&self) -> &str {
        "separator-split"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::check_split;
    use mmb_graph::cut::boundary_cost_within;
    use mmb_graph::gen::tree::{complete_binary_tree, random_tree};

    #[test]
    fn grouping_respects_two_thirds() {
        // Precondition of the grouping lemma: every piece ≤ ½ · total.
        for weights in [
            vec![1.0, 1.0, 1.0],
            vec![5.0, 3.0, 2.0, 1.0],
            vec![0.5, 0.5],
            vec![4.0, 4.0, 4.0],
            vec![3.0, 3.0, 1.0, 1.0, 1.0, 1.0],
        ] {
            let total: f64 = weights.iter().sum();
            let sides = two_thirds_grouping(&weights);
            let a: f64 = weights
                .iter()
                .zip(&sides)
                .filter(|(_, &s)| s)
                .map(|(w, _)| w)
                .sum();
            let b = total - a;
            assert!(a <= 2.0 / 3.0 * total + 1e-9, "{weights:?}");
            assert!(b <= 2.0 / 3.0 * total + 1e-9, "{weights:?}");
        }
    }

    #[test]
    fn centroid_separation_is_balanced() {
        let g = complete_binary_tree(7); // 127 vertices
        let n = g.num_vertices();
        let sepp = TreeCentroidSeparator::new(&g);
        let w = VertexSet::full(n);
        for skew in [0u64, 1, 2] {
            let balance: Vec<f64> = (0..n)
                .map(|v| 1.0 + ((v as u64 + skew) % 5) as f64)
                .collect();
            let s = sepp.separate(&w, &balance);
            assert!(s.check(&g, &w, &balance), "separation contract violated");
        }
    }

    #[test]
    fn centroid_handles_point_masses() {
        // All weight on one vertex: that vertex must end up in the
        // separator or alone on a side — balance still holds because the
        // other side has zero weight… 2/3 of total requires the heavy
        // vertex to be the centroid.
        let g = complete_binary_tree(5);
        let n = g.num_vertices();
        let sepp = TreeCentroidSeparator::new(&g);
        let w = VertexSet::full(n);
        let mut balance = vec![0.0; n];
        balance[13] = 100.0;
        let s = sepp.separate(&w, &balance);
        assert!(s.check(&g, &w, &balance));
    }

    #[test]
    fn grid_slab_separation_is_balanced() {
        let grid = GridGraph::lattice(&[9, 5]);
        let n = grid.graph.num_vertices();
        let sepp = GridSlabSeparator::new(&grid);
        let w = VertexSet::full(n);
        let balance: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        let s = sepp.separate(&w, &balance);
        assert!(s.check(&grid.graph, &w, &balance));
        assert!(!s.sep.is_empty());
    }

    #[test]
    fn separator_splitter_contract_on_trees() {
        let g = random_tree(150, 3, 21);
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 4) as f64).collect();
        let sp = SeparatorSplitter::new(&g, &costs, TreeCentroidSeparator::new(&g), 2.0);
        let w = VertexSet::full(n);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 6) as f64).collect();
        let total: f64 = weights.iter().sum();
        for frac in [0.1, 0.3, 0.5, 0.7, 0.95] {
            let target = frac * total;
            let u = sp.split(&w, &weights, target);
            assert!(check_split(&w, &u, &weights, target).holds(), "frac {frac}");
        }
    }

    #[test]
    fn separator_splitter_cost_tracks_separators() {
        // On a complete binary tree the Split reduction should produce cuts
        // of logarithmic cost, like the direct tree splitter.
        let g = complete_binary_tree(10); // 1023 vertices
        let n = g.num_vertices();
        let costs = vec![1.0; g.num_edges()];
        let sp = SeparatorSplitter::new(&g, &costs, TreeCentroidSeparator::new(&g), 2.0);
        let w = VertexSet::full(n);
        let weights = vec![1.0; n];
        let u = sp.split(&w, &weights, n as f64 / 2.0);
        assert!(check_split(&w, &u, &weights, n as f64 / 2.0).holds());
        let cut = boundary_cost_within(&g, &costs, &w, &u);
        assert!(cut <= 60.0, "Split-reduction cut {cut} too expensive");
    }

    #[test]
    fn separator_splitter_on_grid_slabs() {
        let grid = GridGraph::lattice(&[12, 12]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = SeparatorSplitter::new(&grid.graph, &costs, GridSlabSeparator::new(&grid), 2.0);
        let w = VertexSet::full(n);
        let weights = vec![1.0; n];
        let u = sp.split(&w, &weights, 72.0);
        assert!(check_split(&w, &u, &weights, 72.0).holds());
        let cut = boundary_cost_within(&grid.graph, &costs, &w, &u);
        // Slab-based cuts should be O(side) on a square grid.
        assert!(cut <= 4.0 * 12.0, "slab cut {cut} too expensive");
    }
}
