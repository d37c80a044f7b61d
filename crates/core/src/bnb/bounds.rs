//! Incremental bound maintenance for the branch-and-bound engine — the
//! push/pop `update`/`reset` discipline.
//!
//! [`IncrementalBounds`] owns the mutable state of a partial
//! restricted-growth assignment and keeps three certified quantities
//! current under `update`/`reset` instead of recomputing certificates
//! from scratch at every node:
//!
//! * **per-class weights** — feed the balance-cap and deficit prunes;
//! * **per-class boundary costs** — boundary costs are monotone in the
//!   partial assignment, so `‖∂(partial)‖_∞` is itself a lower bound on
//!   every completion;
//! * **the packing-aware node bound**
//!   `max(‖∂(partial)‖_∞, (cut₂ + packₛ) / k)` — `cut₂` is the doubled
//!   cost of edges already cut *between assigned vertices* and `packₛ`
//!   the summed edge-packing residual of the unassigned suffix.
//!
//! Soundness of the packing term: for any strictly balanced completion
//! `χ`, the doubled total cut satisfies `2·c(F) = Σ_v cut_v(χ)`. Split
//! the sum: assigned vertices jointly contribute at least `cut₂`
//! (cut edges between assigned pairs are final, counted once per
//! endpoint), and each unassigned `v` contributes
//! `cut_v(χ) = τ(v) − retained_v ≥ mass_v` by the knapsack argument of
//! [`crate::lower_bounds::packing`] — the masses are computed against
//! the *wider* `Window` envelope, so they under-state the cut of the
//! engine's tighter window and stay sound. Since
//! `‖∂χ⁻¹‖_∞ ≥ (Σ_c ∂_c)/k = 2·c(F)/k`, any completion costs at least
//! `(cut₂ + packₛ)/k`.
//!
//! The contract: `update(inst, v, c)` assigns the next vertex of the
//! engine's fixed order and returns the certified child bound;
//! `reset(inst)` undoes exactly one `update` (reverse arithmetic with
//! the same neighbor guard).

use mmb_graph::coloring::UNCOLORED;
use mmb_graph::measure::norm_inf;
use mmb_graph::VertexId;

use crate::api::instance::Instance;
use crate::lower_bounds::packing::{vertex_masses, PACK_VERTEX_BUDGET};

/// Incrementally maintained bound state of a partial restricted-growth
/// assignment (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct IncrementalBounds {
    k: usize,
    color: Vec<u32>,
    class_w: Vec<f64>,
    class_b: Vec<f64>,
    /// Doubled cost of edges cut between assigned vertices.
    cut2: f64,
    /// `pack_suffix[i]` = Σ of edge-packing masses of `order[i..]`.
    pack_suffix: Vec<f64>,
    /// Assignment trail for [`IncrementalBounds::reset`].
    trail: Vec<(VertexId, u32)>,
}

impl IncrementalBounds {
    /// Fresh bounds for the empty assignment; `order` is the engine's
    /// branching order, along which the packing suffix is accumulated.
    pub fn new(inst: &Instance, k: usize, order: &[VertexId]) -> Self {
        let n = inst.num_vertices();
        let masses = vertex_masses(inst, k, PACK_VERTEX_BUDGET);
        let mut pack_suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            pack_suffix[i] = pack_suffix[i + 1] + masses[order[i] as usize];
        }
        IncrementalBounds {
            k,
            color: vec![UNCOLORED; n],
            class_w: vec![0.0; k],
            class_b: vec![0.0; k],
            cut2: 0.0,
            pack_suffix,
            trail: Vec::with_capacity(n),
        }
    }

    /// Assign `v` — the next vertex in the engine's order — to class `c`
    /// and return a certified lower bound on the cost of any strictly
    /// balanced completion of the resulting partial assignment.
    pub fn update(&mut self, inst: &Instance, v: VertexId, c: u32) -> f64 {
        let wv = inst.weights()[v as usize];
        self.color[v as usize] = c;
        self.class_w[c as usize] += wv;
        for &(nb, e) in inst.graph().neighbors(v) {
            let cn = self.color[nb as usize];
            if cn != UNCOLORED && cn != c {
                let cost = inst.costs()[e as usize];
                self.class_b[c as usize] += cost;
                self.class_b[cn as usize] += cost;
                self.cut2 += 2.0 * cost;
            }
        }
        self.trail.push((v, c));
        let packed = (self.cut2 + self.pack_suffix[self.trail.len()]) / self.k as f64;
        norm_inf(&self.class_b).max(packed)
    }

    /// Undo the most recent [`IncrementalBounds::update`].
    pub fn reset(&mut self, inst: &Instance) {
        let (v, c) = self.trail.pop().expect("reset without a matching update");
        for &(nb, e) in inst.graph().neighbors(v) {
            let cn = self.color[nb as usize];
            if cn != UNCOLORED && cn != c {
                let cost = inst.costs()[e as usize];
                self.class_b[c as usize] -= cost;
                self.class_b[cn as usize] -= cost;
                self.cut2 -= 2.0 * cost;
            }
        }
        self.class_w[c as usize] -= inst.weights()[v as usize];
        self.color[v as usize] = UNCOLORED;
    }

    /// Number of assigned vertices.
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// Current weight of class `c`.
    pub fn class_weight(&self, c: usize) -> f64 {
        self.class_w[c]
    }

    /// `Σ_c max(0, lo − w(c))` — the weight still needed to lift every
    /// class to the lower envelope (deficit prune).
    pub fn lower_deficit(&self, lo: f64) -> f64 {
        self.class_w.iter().map(|&w| (lo - w).max(0.0)).sum()
    }

    /// Whether every class meets the lower envelope (leaf feasibility).
    pub fn meets_lower(&self, lo: f64) -> bool {
        self.class_w.iter().all(|&w| w >= lo)
    }

    /// `‖∂(partial)‖_∞` of the current assignment.
    pub fn current_max_boundary(&self) -> f64 {
        norm_inf(&self.class_b)
    }

    /// The current (partial) color vector, `UNCOLORED` where unassigned.
    pub fn colors(&self) -> &[u32] {
        &self.color
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::{cycle, path};

    fn unit(g: mmb_graph::Graph) -> Instance {
        let (n, m) = (g.num_vertices(), g.num_edges());
        Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap()
    }

    #[test]
    fn update_reset_roundtrips_the_state() {
        let inst = unit(cycle(6));
        let order: Vec<VertexId> = (0..6).collect();
        let mut b = IncrementalBounds::new(&inst, 2, &order);
        let baseline = b.clone();
        b.update(&inst, 0, 0);
        b.update(&inst, 1, 0);
        b.update(&inst, 2, 1);
        assert_eq!(b.depth(), 3);
        assert_eq!(b.class_weight(0), 2.0);
        assert_eq!(b.current_max_boundary(), 1.0); // edge (1,2) is cut
        b.reset(&inst);
        b.reset(&inst);
        b.reset(&inst);
        assert_eq!(b.depth(), 0);
        assert_eq!(b.colors(), baseline.colors());
        assert_eq!(b.class_weight(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(b.current_max_boundary().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn node_bound_sees_the_cut_mass() {
        // Assign the two ends of a 3-path to different classes: the
        // middle vertex is unassigned, but both its edges are already
        // forced toward a cut ≥ the packing floor; the partial boundary
        // alone is still 0.
        let inst = unit(path(3));
        let order: Vec<VertexId> = vec![0, 2, 1];
        let mut b = IncrementalBounds::new(&inst, 2, &order);
        let b0 = b.update(&inst, 0, 0);
        assert!(b0 >= 0.0);
        let b1 = b.update(&inst, 2, 1);
        // No assigned-assigned edge yet: the bound comes only from the
        // (possibly zero) packing suffix — never negative, never above
        // the eventual optimum 1.
        assert!((0.0..=1.0).contains(&b1), "bound = {b1}");
        let b2 = b.update(&inst, 1, 0);
        // Edge (1,2) is now cut: ‖∂‖∞ = 1 and cut₂/k = 1.
        assert!((b2 - 1.0).abs() < 1e-12, "bound = {b2}");
    }

    #[test]
    #[should_panic(expected = "reset without a matching update")]
    fn reset_on_empty_trail_panics() {
        let inst = unit(path(3));
        let order: Vec<VertexId> = (0..3).collect();
        let mut b = IncrementalBounds::new(&inst, 2, &order);
        b.reset(&inst);
    }
}
