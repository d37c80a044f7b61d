//! Typed instance mutations with incremental re-validation.
//!
//! An [`InstanceDelta`] describes a small edit to an existing
//! [`Instance`] — the churn a serving workload generates: weights drift
//! as load moves, link costs get remeasured, the occasional vertex or
//! edge joins the topology. [`InstanceDelta::apply`] materializes the
//! mutated instance **without re-running the `O(n + m)` validation sweep
//! on untouched entries**: only the values the delta introduces are
//! checked (finiteness, non-negativity, index ranges, self-loops,
//! duplicate edges), everything else was validated when the base instance
//! was admitted. The cached aggregates (`‖w‖_∞`, `‖w‖₁`, `‖c‖_∞`) are
//! recomputed over every entry, since each depends on all of them.
//! [`Solver::resolve_delta`](crate::api::Solver::resolve_delta) applies
//! the delta and repairs the previous coloring on the result instead of
//! solving from scratch.
//!
//! A *value-only* delta (weight and cost overwrites, no vertex or edge
//! added or removed) keeps the base topology, so `apply` copies the base
//! CSR as it is and writes the overrides into a copy of the costs; only a
//! structural delta re-sorts the edge list and rebuilds the CSR. Both
//! give the same instance: every [`Graph`] is assembled canonically, by
//! [`Graph::from_sorted_edges`], so a rebuild of an unchanged edge list
//! reproduces the base graph.
//!
//! ## Edge-id canonicalization
//!
//! [`Graph`] stores edges canonically (`u < v`, sorted), so adding or
//! removing an edge renumbers the ids of later edges. Deltas therefore
//! reference edges by the **base** instance's edge ids; the mutated
//! instance re-canonicalizes, and chained deltas must be expressed
//! against the instance returned by the previous `apply`.

use mmb_graph::graph::graph_from_edges;
use mmb_graph::{EdgeId, Graph, VertexId};

use crate::api::error::InstanceError;
use crate::api::instance::Instance;

/// A typed batch of mutations against one base [`Instance`].
///
/// Build one with the chainable constructors, then run
/// [`InstanceDelta::apply`] (or hand it to
/// [`Solver::resolve_delta`](crate::api::Solver::resolve_delta) for the
/// warm re-solve). Empty deltas are valid and produce an identical
/// instance.
#[derive(Clone, Debug, Default)]
pub struct InstanceDelta {
    /// Weights of appended vertices; the `i`-th gets id `n + i`.
    new_vertices: Vec<f64>,
    /// Added edges (may reference appended vertices) with their costs.
    new_edges: Vec<(VertexId, VertexId, f64)>,
    /// Removed edges, by base-instance edge id.
    removed_edges: Vec<EdgeId>,
    /// Weight overwrites `(vertex, new weight)` on existing vertices.
    weight_updates: Vec<(VertexId, f64)>,
    /// Cost overwrites `(edge, new cost)` by base-instance edge id.
    cost_updates: Vec<(EdgeId, f64)>,
}

impl InstanceDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a vertex with the given weight. Its id in the mutated
    /// instance is `n + (number of vertices appended before it)`.
    pub fn add_vertex(mut self, weight: f64) -> Self {
        self.new_vertices.push(weight);
        self
    }

    /// Add edge `{u, v}` with the given cost. Endpoints may name
    /// appended vertices.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, cost: f64) -> Self {
        self.new_edges.push((u, v, cost));
        self
    }

    /// Remove the edge with base-instance id `e`.
    pub fn remove_edge(mut self, e: EdgeId) -> Self {
        self.removed_edges.push(e);
        self
    }

    /// Overwrite vertex `v`'s weight.
    pub fn set_weight(mut self, v: VertexId, weight: f64) -> Self {
        self.weight_updates.push((v, weight));
        self
    }

    /// Overwrite the cost of the edge with base-instance id `e`.
    pub fn set_cost(mut self, e: EdgeId, cost: f64) -> Self {
        self.cost_updates.push((e, cost));
        self
    }

    /// Apply the delta to `base`, validating **only the entries it
    /// introduces**, and return the mutated instance.
    ///
    /// Extra balance measures carry over; appended vertices contribute 0
    /// to every extra measure. A value-only delta reuses the base CSR
    /// (copied, not rebuilt); see the [module docs](self).
    pub fn apply(&self, base: &Instance) -> Result<Instance, InstanceError> {
        let g = base.graph();
        let n = g.num_vertices();
        let m = g.num_edges();
        let n2 = n + self.new_vertices.len();

        // --- incremental validation: exactly the entries the delta touches.
        for &w in &self.new_vertices {
            if !w.is_finite() || w < 0.0 {
                return Err(InstanceError::NotFinite { what: "weights" });
            }
        }
        for &(v, w) in &self.weight_updates {
            if (v as usize) >= n {
                return Err(InstanceError::VertexOutOfRange { got: v, n });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(InstanceError::NotFinite { what: "weights" });
            }
        }
        for &(e, c) in &self.cost_updates {
            if (e as usize) >= m {
                return Err(InstanceError::EdgeOutOfRange { got: e, m });
            }
            if !c.is_finite() || c < 0.0 {
                return Err(InstanceError::NotFinite { what: "costs" });
            }
        }
        for &e in &self.removed_edges {
            if (e as usize) >= m {
                return Err(InstanceError::EdgeOutOfRange { got: e, m });
            }
        }
        for &(u, v, c) in &self.new_edges {
            if (u as usize) >= n2 {
                return Err(InstanceError::VertexOutOfRange { got: u, n: n2 });
            }
            if (v as usize) >= n2 {
                return Err(InstanceError::VertexOutOfRange { got: v, n: n2 });
            }
            if u == v {
                return Err(InstanceError::SelfLoop { v });
            }
            if !c.is_finite() || c < 0.0 {
                return Err(InstanceError::NotFinite { what: "costs" });
            }
        }

        // --- weights: overwrite in place, append the new tail.
        let mut weights = base.weights().to_vec();
        for &(v, w) in &self.weight_updates {
            weights[v as usize] = w;
        }
        weights.extend_from_slice(&self.new_vertices);

        // --- edges: a value-only delta keeps the base topology, and every
        // `Graph` is assembled canonically, so the base CSR is the one a
        // rebuild would produce; only the cost overrides need writing.
        let (graph, costs) = if self.is_value_only() {
            let mut costs = base.costs().to_vec();
            for &(e, c) in &self.cost_updates {
                costs[e as usize] = c;
            }
            (g.clone(), costs)
        } else {
            self.rebuild_edges(base, n2)?
        };

        // --- extras carry over; appended vertices contribute nothing.
        let extras: Vec<Vec<f64>> = base
            .extra_measures()
            .iter()
            .map(|ex| {
                let mut ex = ex.clone();
                ex.resize(n2, 0.0);
                ex
            })
            .collect();

        Ok(Instance::from_validated_parts(
            graph, costs, weights, extras,
        ))
    }

    /// Whether the delta only overwrites values: it adds or removes no
    /// vertex and no edge.
    fn is_value_only(&self) -> bool {
        self.new_vertices.is_empty() && self.new_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// The mutated graph and costs of a structural delta whose entries
    /// [`InstanceDelta::apply`] validated: cost overwrites key by *base*
    /// edge id, so apply them on the base-indexed view first, then drop
    /// removed edges and append additions, and re-sort into the canonical
    /// CSR order so edge ids and the cost vector line up in the mutated
    /// instance.
    fn rebuild_edges(
        &self,
        base: &Instance,
        n2: usize,
    ) -> Result<(Graph, Vec<f64>), InstanceError> {
        let g = base.graph();
        let mut removed = vec![false; g.num_edges()];
        for &e in &self.removed_edges {
            removed[e as usize] = true;
        }
        let mut base_view: Vec<(VertexId, VertexId, f64)> = g
            .edge_list()
            .iter()
            .zip(base.costs())
            .map(|(&(u, v), &c)| (u, v, c))
            .collect();
        for &(e, c) in &self.cost_updates {
            base_view[e as usize].2 = c;
        }
        let mut edges: Vec<(VertexId, VertexId, f64)> =
            Vec::with_capacity(base_view.len() + self.new_edges.len());
        edges.extend(
            base_view
                .into_iter()
                .enumerate()
                .filter(|(e, _)| !removed[*e])
                .map(|(_, t)| t),
        );
        edges.extend(
            self.new_edges
                .iter()
                .map(|&(u, v, c)| (u.min(v), u.max(v), c)),
        );
        edges.sort_by_key(|e| (e.0, e.1));
        for w in edges.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                return Err(InstanceError::DuplicateEdge {
                    u: w[0].0,
                    v: w[0].1,
                });
            }
        }
        let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let costs: Vec<f64> = edges.iter().map(|&(_, _, c)| c).collect();
        let graph: Graph = graph_from_edges(n2, &pairs);
        debug_assert_eq!(graph.edge_list(), pairs.as_slice());
        Ok((graph, costs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::gen::misc::path;

    fn base() -> Instance {
        // path 0-1-2-3, unit costs, weights 1..4
        Instance::new(path(4), vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0, 4.0]).expect("valid base")
    }

    #[test]
    fn empty_delta_is_identity() {
        let b = base();
        let out = InstanceDelta::new().apply(&b).expect("empty delta applies");
        assert_eq!(out.graph().edge_list(), b.graph().edge_list());
        assert_eq!(out.costs(), b.costs());
        assert_eq!(out.weights(), b.weights());
        assert_eq!(out.fingerprint(), b.fingerprint());
    }

    #[test]
    fn weight_and_cost_updates_touch_the_right_vertices() {
        let b = base();
        let out = InstanceDelta::new()
            .set_weight(2, 9.0)
            .set_cost(0, 5.5)
            .apply(&b)
            .expect("update applies");
        assert_eq!(out.weights(), &[1.0, 2.0, 9.0, 4.0]);
        assert_eq!(out.costs(), &[5.5, 2.0, 3.0]);
        // Aggregates track the mutation.
        assert_eq!(out.max_weight(), 9.0);
        assert_eq!(out.max_cost(), 5.5);
        // Structure unchanged ⇒ structure digest unchanged.
        assert_eq!(out.fingerprint().structure, b.fingerprint().structure);
        assert_ne!(out.fingerprint().weights, b.fingerprint().weights);
    }

    #[test]
    fn vertex_and_edge_additions_renumber_canonically() {
        let b = base();
        let out = InstanceDelta::new()
            .add_vertex(7.0)
            .add_edge(4, 0, 0.5) // appended vertex, reversed endpoints
            .apply(&b)
            .expect("growth applies");
        assert_eq!(out.num_vertices(), 5);
        assert_eq!(out.num_edges(), 4);
        assert_eq!(out.weights()[4], 7.0);
        // Canonical edge order: (0,1), (0,4), (1,2), (2,3).
        assert_eq!(out.graph().edge_list(), &[(0, 1), (0, 4), (1, 2), (2, 3)]);
        assert_eq!(out.costs(), &[1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn edge_removal_compacts_costs() {
        let b = base();
        let out = InstanceDelta::new()
            .remove_edge(1)
            .apply(&b)
            .expect("removal applies");
        assert_eq!(out.graph().edge_list(), &[(0, 1), (2, 3)]);
        assert_eq!(out.costs(), &[1.0, 3.0]);
    }

    #[test]
    fn every_touched_entry_validation_fires() {
        let b = base();
        assert_eq!(
            InstanceDelta::new()
                .set_weight(9, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::VertexOutOfRange { got: 9, n: 4 }
        );
        assert_eq!(
            InstanceDelta::new().set_cost(3, 1.0).apply(&b).unwrap_err(),
            InstanceError::EdgeOutOfRange { got: 3, m: 3 }
        );
        assert_eq!(
            InstanceDelta::new().remove_edge(7).apply(&b).unwrap_err(),
            InstanceError::EdgeOutOfRange { got: 7, m: 3 }
        );
        assert_eq!(
            InstanceDelta::new()
                .set_weight(0, f64::NAN)
                .apply(&b)
                .unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            InstanceDelta::new().add_vertex(-1.0).apply(&b).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 2, -3.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::NotFinite { what: "costs" }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(1, 1, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::SelfLoop { v: 1 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 9, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::VertexOutOfRange { got: 9, n: 4 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(1, 0, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::DuplicateEdge { u: 0, v: 1 }
        );
        assert_eq!(
            InstanceDelta::new()
                .add_edge(0, 2, 1.0)
                .add_edge(2, 0, 1.0)
                .apply(&b)
                .unwrap_err(),
            InstanceError::DuplicateEdge { u: 0, v: 2 }
        );
    }

    #[test]
    fn untrusted_entries_are_not_revalidated_but_aggregates_refresh() {
        // A grid with a heavy corner: mutate one far-away weight and
        // check the max tracks correctly both up and down.
        let grid = GridGraph::lattice(&[3, 3]);
        let m = grid.graph.num_edges();
        let mut w = vec![1.0; 9];
        w[0] = 10.0;
        let b = Instance::new(grid.graph, vec![1.0; m], w).expect("valid");
        let up = InstanceDelta::new()
            .set_weight(8, 20.0)
            .apply(&b)
            .expect("up");
        assert_eq!(up.max_weight(), 20.0);
        let down = InstanceDelta::new()
            .set_weight(0, 0.5)
            .apply(&b)
            .expect("down");
        assert_eq!(down.max_weight(), 1.0);
    }

    #[test]
    fn extras_carry_over_and_pad_new_vertices() {
        let b = base()
            .with_extra_measure(vec![1.0, 1.0, 1.0, 1.0])
            .expect("measure fits");
        let out = InstanceDelta::new()
            .add_vertex(1.0)
            .apply(&b)
            .expect("applies");
        assert_eq!(out.extra_measures().len(), 1);
        assert_eq!(out.extra_measures()[0], vec![1.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn removing_then_adding_the_same_edge_reprices_it() {
        let b = base();
        let out = InstanceDelta::new()
            .remove_edge(0)
            .add_edge(0, 1, 9.0)
            .apply(&b)
            .expect("replace applies");
        assert_eq!(out.graph().edge_list(), b.graph().edge_list());
        assert_eq!(out.costs(), &[9.0, 2.0, 3.0]);
    }
}
