//! `k`-colorings `χ : V → [k]` and their quality functionals.
//!
//! The paper formulates partitions as colorings (Section 2). A [`Coloring`]
//! may be *partial* (vertices can be uncolored while an algorithm is mid
//! flight); the final outputs of the pipeline are total colorings of the
//! instance's vertex set.
//!
//! Quality functionals implemented here:
//!
//! * class measures `Φχ⁻¹(i)` and the vector thereof,
//! * boundary-cost vector `∂χ⁻¹` (cost of `δ(χ⁻¹(i))` per class), its max
//!   `‖∂χ⁻¹‖_∞` and average `‖∂χ⁻¹‖_avg`,
//! * strict balance per Definition 1, eq. (1):
//!   `max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞`.

use crate::graph::{Graph, VertexId};
use crate::measure::{norm_1, norm_inf};
use crate::vertex_set::VertexSet;

/// Sentinel for "not yet colored".
pub const UNCOLORED: u32 = u32::MAX;

/// A (possibly partial) `k`-coloring of the vertices `0..n`.
#[derive(Clone, PartialEq)]
pub struct Coloring {
    k: usize,
    color: Vec<u32>,
}

impl std::fmt::Debug for Coloring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Coloring(k={}, n={}, colored={})",
            self.k,
            self.color.len(),
            self.num_colored()
        )
    }
}

impl Coloring {
    /// All-uncolored coloring over `n` vertices with `k` colors.
    pub fn new_uncolored(n: usize, k: usize) -> Self {
        assert!(k >= 1, "need at least one color");
        assert!(k <= u32::MAX as usize, "k exceeds u32 range");
        Self {
            k,
            color: vec![UNCOLORED; n],
        }
    }

    /// Coloring that puts every vertex in class 0 (the trivial coloring used
    /// as the induction base of Lemma 6).
    pub fn monochromatic(n: usize, k: usize) -> Self {
        assert!(k >= 1, "need at least one color");
        Self {
            k,
            color: vec![0; n],
        }
    }

    /// Build from an explicit color vector (`UNCOLORED` allowed).
    ///
    /// # Panics
    /// Panics if any assigned color is `≥ k`.
    pub fn from_vec(k: usize, color: Vec<u32>) -> Self {
        assert!(k >= 1, "need at least one color");
        for (v, &c) in color.iter().enumerate() {
            assert!(
                c == UNCOLORED || (c as usize) < k,
                "vertex {v} has color {c} >= k = {k}"
            );
        }
        Self { k, color }
    }

    /// Build by evaluating `f` on each vertex id.
    pub fn from_fn(n: usize, k: usize, f: impl FnMut(VertexId) -> u32) -> Self {
        Self::from_vec(k, (0..n as u32).map(f).collect())
    }

    /// Number of colors `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices in the underlying universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.color.len()
    }

    /// Color of `v`, or `None` if uncolored.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        let c = self.color[v as usize];
        (c != UNCOLORED).then_some(c)
    }

    /// Raw color of `v` (`UNCOLORED` sentinel possible).
    #[inline]
    pub fn raw(&self, v: VertexId) -> u32 {
        self.color[v as usize]
    }

    /// Assign color `c` to vertex `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, c: u32) {
        debug_assert!((c as usize) < self.k, "color {c} out of range");
        self.color[v as usize] = c;
    }

    /// Number of currently colored vertices.
    pub fn num_colored(&self) -> usize {
        self.color.iter().filter(|&&c| c != UNCOLORED).count()
    }

    /// Whether every vertex of `set` is colored.
    pub fn is_total_on(&self, set: &VertexSet) -> bool {
        set.iter().all(|v| self.color[v as usize] != UNCOLORED)
    }

    /// Whether every vertex `0..n` is colored.
    pub fn is_total(&self) -> bool {
        self.color.iter().all(|&c| c != UNCOLORED)
    }

    /// All classes restricted to `domain` as [`VertexSet`]s, indexed by
    /// color — a single pass over the domain, `O(|domain| + k·n/64)`
    /// instead of one pass over all `n` vertices per class in the
    /// pipeline hot path.
    pub fn class_sets_within(&self, domain: &VertexSet) -> Vec<VertexSet> {
        let n = self.color.len();
        let mut out = vec![VertexSet::empty(n); self.k];
        for v in domain.iter() {
            let c = self.color[v as usize];
            if c != UNCOLORED {
                out[c as usize].insert(v);
            }
        }
        out
    }

    /// All classes as vectors, indexed by color.
    pub fn classes(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.k];
        for (v, &c) in self.color.iter().enumerate() {
            if c != UNCOLORED {
                out[c as usize].push(v as VertexId);
            }
        }
        out
    }

    /// Class measure vector `Φχ⁻¹ : [k] → R+`, i.e. `Φ`-weight per class.
    pub fn class_measures(&self, phi: &[f64]) -> Vec<f64> {
        assert_eq!(phi.len(), self.color.len(), "measure length mismatch");
        let mut out = vec![0.0; self.k];
        for (v, &c) in self.color.iter().enumerate() {
            if c != UNCOLORED {
                out[c as usize] += phi[v];
            }
        }
        out
    }

    /// Boundary-cost vector `∂χ⁻¹ : [k] → R+`.
    ///
    /// Each edge whose endpoints are colored differently (or exactly one of
    /// them is colored) contributes its cost to the boundary of each colored
    /// endpoint's class. `O(m)`.
    pub fn boundary_costs(&self, g: &Graph, costs: &[f64]) -> Vec<f64> {
        assert_eq!(
            g.num_vertices(),
            self.color.len(),
            "graph/coloring mismatch"
        );
        assert_eq!(g.num_edges(), costs.len(), "cost vector length mismatch");
        let mut out = vec![0.0; self.k];
        for (e, &(u, v)) in g.edge_list().iter().enumerate() {
            let cu = self.color[u as usize];
            let cv = self.color[v as usize];
            if cu == cv {
                continue;
            }
            if cu != UNCOLORED {
                out[cu as usize] += costs[e];
            }
            if cv != UNCOLORED {
                out[cv as usize] += costs[e];
            }
        }
        out
    }

    /// Maximum boundary cost `‖∂χ⁻¹‖_∞` (Definition 1).
    pub fn max_boundary_cost(&self, g: &Graph, costs: &[f64]) -> f64 {
        norm_inf(&self.boundary_costs(g, costs))
    }

    /// Average boundary cost `‖∂χ⁻¹‖_avg = ‖∂χ⁻¹‖₁ / k`.
    pub fn avg_boundary_cost(&self, g: &Graph, costs: &[f64]) -> f64 {
        norm_1(&self.boundary_costs(g, costs)) / self.k as f64
    }

    /// Strict-balance defect: `max_i |w(χ⁻¹(i)) − ‖w‖₁/k|` minus the allowed
    /// slack `(1 − 1/k)·‖w‖∞`, restricted to the colored vertices.
    ///
    /// `≤ 0` (up to rounding) means the coloring is *strictly balanced* in
    /// the sense of Definition 1, eq. (1).
    pub fn strict_balance_defect(&self, weights: &[f64]) -> f64 {
        let cm = self.class_measures(weights);
        let total: f64 = cm.iter().sum();
        let avg = total / self.k as f64;
        let wmax = self
            .color
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != UNCOLORED)
            .map(|(v, _)| weights[v])
            .fold(0.0, f64::max);
        let dev = cm.iter().map(|&x| (x - avg).abs()).fold(0.0, f64::max);
        dev - (1.0 - 1.0 / self.k as f64) * wmax
    }

    /// Whether the coloring satisfies eq. (1) up to a relative tolerance.
    pub fn is_strictly_balanced(&self, weights: &[f64]) -> bool {
        let scale = norm_inf(weights).max(1e-300);
        self.strict_balance_defect(weights) <= 1e-9 * scale
    }

    /// Direct sum: overlay `other`'s colored vertices onto `self`
    /// (the `χ₀ ⊕ χ₁` of the paper; domains must be disjoint).
    ///
    /// # Panics
    /// Panics if a vertex is colored in both.
    pub fn direct_sum(&self, other: &Coloring) -> Coloring {
        assert_eq!(self.k, other.k, "color count mismatch");
        assert_eq!(self.color.len(), other.color.len(), "universe mismatch");
        let mut out = self.clone();
        for (v, &c) in other.color.iter().enumerate() {
            if c != UNCOLORED {
                assert_eq!(
                    out.color[v], UNCOLORED,
                    "direct sum requires disjoint domains (vertex {v} colored twice)"
                );
                out.color[v] = c;
            }
        }
        out
    }

    /// Restrict to `set`: vertices outside become uncolored.
    pub fn restrict_to(&self, set: &VertexSet) -> Coloring {
        let mut out = Coloring::new_uncolored(self.color.len(), self.k);
        for v in set.iter() {
            out.color[v as usize] = self.color[v as usize];
        }
        out
    }

    /// The set of colored vertices.
    pub fn domain(&self) -> VertexSet {
        VertexSet::from_iter(
            self.color.len(),
            self.color
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != UNCOLORED)
                .map(|(v, _)| v as VertexId),
        )
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
    fn construction_and_access() {
        let mut c = Coloring::new_uncolored(4, 2);
        assert_eq!(c.get(0), None);
        assert!(!c.is_total());
        c.set(0, 1);
        assert_eq!(c.get(0), Some(1));
        assert_eq!(c.num_colored(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)] // `set` checks colors with debug_assert only
    fn set_rejects_bad_color() {
        let mut c = Coloring::new_uncolored(2, 2);
        c.set(0, 2);
    }

    #[test]
    fn class_measures_and_boundaries() {
        // Path 0-1-2-3, colors [0,0,1,1].
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costs = vec![1.0, 5.0, 1.0];
        let chi = Coloring::from_vec(2, vec![0, 0, 1, 1]);
        let w = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(chi.class_measures(&w), vec![3.0, 7.0]);
        let bc = chi.boundary_costs(&g, &costs);
        assert!(close(bc[0], 5.0));
        assert!(close(bc[1], 5.0));
        assert!(close(chi.max_boundary_cost(&g, &costs), 5.0));
        assert!(close(chi.avg_boundary_cost(&g, &costs), 5.0));
    }

    #[test]
    fn boundary_with_uncolored_vertices() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![1.0, 1.0];
        let chi = Coloring::from_vec(2, vec![0, UNCOLORED, 1]);
        let bc = chi.boundary_costs(&g, &costs);
        // Edge 0-1 counts only for class 0; edge 1-2 only for class 1.
        assert!(close(bc[0], 1.0));
        assert!(close(bc[1], 1.0));
    }

    #[test]
    fn strict_balance_judgement() {
        // k = 2, weights summing to 10, ‖w‖∞ = 4, slack = 0.5·4 = 2.
        let w = vec![4.0, 1.0, 2.0, 3.0];
        // Classes {4,1}=5, {2,3}=5 — perfectly balanced.
        let chi = Coloring::from_vec(2, vec![0, 0, 1, 1]);
        assert!(chi.is_strictly_balanced(&w));
        // Classes {4,3}=7, {1,2}=3 — deviation 2 = slack, still balanced.
        let chi2 = Coloring::from_vec(2, vec![0, 1, 1, 0]);
        assert!(chi2.is_strictly_balanced(&w));
        assert!(close(chi2.strict_balance_defect(&w), 0.0));
        // Classes {4,3,2}=9, {1}=1 — deviation 4 > 2.
        let chi3 = Coloring::from_vec(2, vec![0, 1, 0, 0]);
        assert!(!chi3.is_strictly_balanced(&w));
    }

    #[test]
    fn direct_sum_combines_disjoint() {
        let a = Coloring::from_vec(2, vec![0, UNCOLORED, UNCOLORED]);
        let b = Coloring::from_vec(2, vec![UNCOLORED, 1, UNCOLORED]);
        let s = a.direct_sum(&b);
        assert_eq!(s.get(0), Some(0));
        assert_eq!(s.get(1), Some(1));
        assert_eq!(s.get(2), None);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn direct_sum_rejects_overlap() {
        let a = Coloring::from_vec(2, vec![0]);
        let b = Coloring::from_vec(2, vec![1]);
        let _ = a.direct_sum(&b);
    }

    #[test]
    fn restrict_and_domain() {
        let chi = Coloring::from_vec(2, vec![0, 1, 0, 1]);
        let s = VertexSet::from_iter(4, [1u32, 2]);
        let r = chi.restrict_to(&s);
        assert_eq!(r.num_colored(), 2);
        assert_eq!(r.domain().to_vec(), vec![1, 2]);
        assert_eq!(r.get(0), None);
        assert_eq!(r.get(1), Some(1));
    }

    #[test]
    fn class_sets_within_matches_per_class_intersection() {
        let chi = Coloring::from_vec(3, vec![0, 1, 2, 0, UNCOLORED, 1, 2, 0]);
        let domain = VertexSet::from_iter(8, [0u32, 1, 3, 4, 6, 7]);
        let fast = chi.class_sets_within(&domain);
        for (i, set) in fast.iter().enumerate() {
            let class = (0..8u32).filter(|&v| chi.get(v) == Some(i as u32));
            let slow = VertexSet::from_iter(8, class).intersection(&domain);
            assert_eq!(set, &slow, "class {i}");
        }
    }

    #[test]
    fn monochromatic_base() {
        let chi = Coloring::monochromatic(5, 3);
        assert!(chi.is_total());
        let w = vec![1.0; 5];
        assert_eq!(chi.class_measures(&w), vec![5.0, 0.0, 0.0]);
    }
}
