//! Disjoint unions of instances — the `G̃ = G^{(1)} ∪̇ … ∪̇ G^{(⌊k/4⌋)}`
//! construction behind the tightness results (Theorem 5, Lemma 40).
//!
//! Vertices of copy `i` occupy the contiguous id block
//! `[i·n₀, (i+1)·n₀)`; edge costs and vertex weights are replicated with
//! [`replicate_measure`].

use crate::graph::{Graph, GraphBuilder, VertexId};

/// Result of a disjoint union of `copies` copies of a base instance.
pub struct DisjointUnion {
    /// The union graph `G̃`.
    pub graph: Graph,
    /// Replicated edge costs `c̃`, aligned with `graph`'s edge ids.
    pub costs: Vec<f64>,
    /// Number of copies.
    pub copies: usize,
    /// Vertices per copy (the base graph's `n`).
    pub base_n: usize,
}

impl DisjointUnion {
    /// The copy index of a union vertex.
    pub fn copy_of(&self, v: VertexId) -> usize {
        v as usize / self.base_n
    }

    /// The base-graph vertex a union vertex corresponds to.
    pub fn base_vertex(&self, v: VertexId) -> VertexId {
        (v as usize % self.base_n) as VertexId
    }
}

/// Build `copies` disjoint copies of `(base, base_costs)`.
pub fn disjoint_copies(base: &Graph, base_costs: &[f64], copies: usize) -> DisjointUnion {
    assert!(copies >= 1, "need at least one copy");
    assert_eq!(
        base_costs.len(),
        base.num_edges(),
        "cost vector length mismatch"
    );
    let n0 = base.num_vertices();
    let mut builder = GraphBuilder::new(n0 * copies);
    // Costs keyed by canonical endpoints so they survive the builder's
    // sort+dedup (the base graph has no duplicates, so neither does the
    // union).
    let mut keyed: Vec<((u32, u32), f64)> = Vec::with_capacity(base.num_edges() * copies);
    for i in 0..copies {
        let off = (i * n0) as u32;
        for (e, &(u, v)) in base.edge_list().iter().enumerate() {
            builder.add_edge(u + off, v + off);
            keyed.push(((u + off, v + off), base_costs[e]));
        }
    }
    keyed.sort_unstable_by_key(|&(k, _)| k);
    let graph = builder.build();
    debug_assert_eq!(graph.num_edges(), keyed.len());
    debug_assert!(graph
        .edge_list()
        .iter()
        .zip(&keyed)
        .all(|(&ab, &(k, _))| ab == k));
    let costs = keyed.into_iter().map(|(_, c)| c).collect();
    DisjointUnion {
        graph,
        costs,
        copies,
        base_n: n0,
    }
}

/// Replicate a per-vertex measure (e.g. weights `w`) of the base graph
/// across all copies: `w̃(v^{(i)}) = w(v)`.
pub fn replicate_measure(base_measure: &[f64], copies: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(base_measure.len() * copies);
    for _ in 0..copies {
        out.extend_from_slice(base_measure);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    #[test]
    fn copies_structure() {
        let base = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![1.0, 2.0];
        let u = disjoint_copies(&base, &costs, 3);
        assert_eq!(u.graph.num_vertices(), 9);
        assert_eq!(u.graph.num_edges(), 6);
        assert_eq!(u.graph.components().1, 3);
        assert_eq!(u.copy_of(7), 2);
        assert_eq!(u.base_vertex(7), 1);
    }

    #[test]
    fn costs_replicated_correctly() {
        let base = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let costs = vec![1.5, 2.5];
        let u = disjoint_copies(&base, &costs, 2);
        // Every edge of the union must carry the cost of its base edge.
        for (e, &(a, b)) in u.graph.edge_list().iter().enumerate() {
            let (ba, bb) = (u.base_vertex(a), u.base_vertex(b));
            let base_cost = if (ba, bb) == (0, 1) || (ba, bb) == (1, 0) {
                1.5
            } else {
                2.5
            };
            assert_eq!(u.costs[e], base_cost);
        }
    }

    #[test]
    fn measures_replicated() {
        let w = vec![1.0, 2.0, 3.0];
        let r = replicate_measure(&w, 2);
        assert_eq!(r, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}
