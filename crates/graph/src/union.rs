//! Disjoint unions of instances — the `G̃ = G^{(1)} ∪̇ … ∪̇ G^{(⌊k/4⌋)}`
//! construction behind the tightness results (Theorem 5, Lemma 40).
//!
//! Vertices of copy `i` occupy the contiguous id block
//! `[i·n₀, (i+1)·n₀)`; edge costs and vertex weights are replicated with
//! [`replicate_measure`].

use crate::graph::{Graph, VertexId};

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
    assert_eq!(
        base_costs.len(),
        base.num_edges(),
        "cost vector length mismatch"
    );
    DisjointUnion {
        graph: copies_graph(base, copies),
        costs: replicate_measure(base_costs, copies),
        copies,
        base_n: base.num_vertices(),
    }
}

/// The graph of `copies` disjoint copies of `base`, copy `i` on the ids
/// `[i·n₀, (i+1)·n₀)`. Copy `i`'s edges all precede copy `i + 1`'s, so the
/// base's canonical edge list repeated with offsets is canonical, and the
/// union's edge `i·m₀ + e` is copy `i`'s edge `e`.
pub(crate) fn copies_graph(base: &Graph, copies: usize) -> Graph {
    assert!(copies >= 1, "need at least one copy");
    let n0 = base.num_vertices();
    let n = n0 * copies;
    assert!(n < u32::MAX as usize, "vertex count exceeds u32 id space");
    let mut edges = Vec::with_capacity(base.num_edges() * copies);
    for i in 0..copies {
        let off = (i * n0) as u32;
        edges.extend(base.edge_list().iter().map(|&(u, v)| (u + off, v + off)));
    }
    Graph::from_sorted_edges(n, edges).expect("edge count exceeds the u32 CSR id space")
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
