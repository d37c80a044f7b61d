//! Immutable CSR graph representation.
//!
//! All graphs in this library are finite, undirected, without self-loops or
//! parallel edges (the paper's standing assumption, Section 1 "Notation").
//! Vertices are dense `u32` ids `0..n`; edges are dense `u32` ids `0..m`
//! with canonical endpoints `u < v`.

use std::fmt;

/// Dense vertex identifier (`0..n`).
pub type VertexId = u32;
/// Dense edge identifier (`0..m`).
pub type EdgeId = u32;

/// The declared graph shape does not fit the dense `u32` id space the CSR
/// representation uses.
///
/// The CSR offsets, adjacency cursors, and edge ids are all `u32`: a graph
/// with `n ≥ u32::MAX` vertices or `2m > u32::MAX` adjacency entries would
/// silently wrap those counters and build a corrupt adjacency. The check
/// is pure arithmetic on the declared counts, so callers (the METIS
/// parser, ingestion fronts) can refuse an oversized instance *before*
/// allocating anything sized by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphCapacityError {
    /// `n ≥ u32::MAX` — vertex ids would not be dense `u32`s.
    TooManyVertices {
        /// The declared vertex count.
        n: usize,
    },
    /// `2m > u32::MAX` — CSR offsets/cursors or edge ids would wrap.
    TooManyEdges {
        /// The declared (deduplicated) edge count.
        m: usize,
    },
}

impl fmt::Display for GraphCapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphCapacityError::TooManyVertices { n } => write!(
                f,
                "{n} vertices exceed the dense u32 id space (max {})",
                u32::MAX - 1
            ),
            GraphCapacityError::TooManyEdges { m } => write!(
                f,
                "{m} edges need {} adjacency entries, exceeding the u32 CSR \
                 offset space (max {})",
                2 * m,
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for GraphCapacityError {}

/// Check that a graph with `n` vertices and `m` (deduplicated) edges fits
/// the `u32` CSR id space — see [`GraphCapacityError`].
///
/// `O(1)`: validates the declared counts directly, without allocating, so
/// a guard against a 4-billion-edge input costs nothing.
pub fn csr_capacity_check(n: usize, m: usize) -> Result<(), GraphCapacityError> {
    if n >= u32::MAX as usize {
        return Err(GraphCapacityError::TooManyVertices { n });
    }
    // 2m adjacency entries are indexed by u32 cursors; m edge ids must
    // also fit (implied by the stronger 2m bound).
    if m.checked_mul(2).is_none_or(|d| d > u32::MAX as usize) {
        return Err(GraphCapacityError::TooManyEdges { m });
    }
    Ok(())
}

/// An immutable undirected graph in CSR form.
///
/// The size of the graph in the paper's sense is `|G| = |V| + |E|`
/// (`num_vertices() + num_edges()`); the running-time statements of Theorem 4 are linear
/// functions of this size.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    /// CSR offsets into `adj`, length `n + 1`.
    adj_off: Vec<u32>,
    /// Flattened adjacency: `(neighbor, edge id)` pairs, length `2m`.
    adj: Vec<(VertexId, EdgeId)>,
    /// Edge endpoint list with `u < v`, length `m`.
    edges: Vec<(VertexId, VertexId)>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.num_edges())
            .finish()
    }
}

impl Graph {
    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n as u32).map(|v| v as VertexId)
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// All edges as `(u, v)` pairs with `u < v`, indexed by edge id.
    #[inline]
    pub fn edge_list(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Adjacency of vertex `v`: `(neighbor, edge id)` pairs, sorted by
    /// neighbor id (each neighbor appears once, so the order is strict).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let lo = self.adj_off[v as usize] as usize;
        let hi = self.adj_off[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.adj_off[v as usize + 1] - self.adj_off[v as usize]) as usize
    }

    /// Maximum degree `Δ(G)`.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|v| self.degree(v as u32))
            .max()
            .unwrap_or(0)
    }

    /// Whether an edge joins `u` and `v`: binary search of the shorter
    /// adjacency list (`O(log Δ)`; adjacency is sorted by neighbor id).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a)
            .binary_search_by_key(&b, |&(nb, _)| nb)
            .is_ok()
    }

    /// Connected components; returns a component id per vertex and the
    /// number of components.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let mut comp = vec![u32::MAX; self.n];
        let mut stack = Vec::new();
        let mut next = 0u32;
        for s in 0..self.n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = next;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &(nb, _) in self.neighbors(v) {
                    if comp[nb as usize] == u32::MAX {
                        comp[nb as usize] = next;
                        stack.push(nb);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.components().1 == 1
    }
}

/// Incremental builder for [`Graph`].
///
/// Rejects self-loops and silently deduplicates parallel edges (keeping the
/// first occurrence), matching the paper's graph model.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Builder for a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count exceeds u32 id space");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices configured so far.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Add an undirected edge `{u, v}`. Nothing is returned: edge ids are
    /// assigned by [`GraphBuilder::build`], in sorted `(u, v)` order after
    /// deduplication, so an edge's id is known only once the graph is built.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loop {u}-{v} rejected");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge {u}-{v} out of range (n = {})",
            self.n
        );
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Finalize into an immutable CSR [`Graph`].
    ///
    /// Edge ids are assigned in sorted `(u, v)` order after deduplication,
    /// and each adjacency list is sorted by neighbor id, so two builds from
    /// the same edge multiset yield identical graphs with identical
    /// iteration order everywhere.
    ///
    /// # Panics
    /// Panics if the deduplicated edge count overflows the `u32` CSR id
    /// space (`2m > u32::MAX`) — use [`GraphBuilder::try_build`] to get
    /// the typed [`GraphCapacityError`] instead. Silent wraparound of the
    /// `u32` degree counters is never possible.
    pub fn build(self) -> Graph {
        match self.try_build() {
            Ok(g) => g,
            // lint: allow(panic-in-lib) — documented contract: `build` is
            // the infallible convenience over `try_build`, and capacity
            // overflow is a caller bug (same policy as `add_edge`'s
            // asserts). The typed path exists and is one call away.
            Err(e) => panic!("GraphBuilder::build: {e}"),
        }
    }

    /// [`GraphBuilder::build`], returning a typed error instead of
    /// panicking when the graph exceeds the `u32` CSR id space.
    pub fn try_build(mut self) -> Result<Graph, GraphCapacityError> {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_sorted_edges(self.n, self.edges)
    }
}

impl Graph {
    /// Assemble a [`Graph`] from a canonical edge list: `(u, v)` pairs with
    /// `u < v < n`, in strictly ascending order (so without duplicates).
    /// Edge ids are positions in `edges`.
    ///
    /// This is the one CSR assembly: [`GraphBuilder`], the streaming METIS
    /// reader and coarsening's contraction all end here. It takes `O(n + m)`
    /// time: filling the adjacency in canonical edge order leaves every
    /// list sorted by neighbor id, because the edges `(u, v)` that give `v`
    /// its lower neighbors all precede the edges `(v, w)` that give it its
    /// higher ones.
    ///
    /// # Errors
    /// [`GraphCapacityError`] when `n` or `m` exceeds the `u32` CSR id space
    /// (see [`csr_capacity_check`]). It is checked before anything is
    /// allocated; the `u32` degree counters, offsets and fill cursors below
    /// would otherwise wrap silently and build a corrupt adjacency.
    ///
    /// # Panics
    /// Panics if `edges` is not canonical: a self-loop, `u > v`, an
    /// endpoint `≥ n`, a duplicate, or a pair out of order. That is a
    /// caller bug, under the same policy as [`GraphBuilder::add_edge`]'s
    /// asserts; the check is one `O(m)` pass.
    pub fn from_sorted_edges(
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
    ) -> Result<Graph, GraphCapacityError> {
        let m = edges.len();
        csr_capacity_check(n, m)?;
        let mut adj_off = vec![0u32; n + 1];
        let mut prev: Option<(VertexId, VertexId)> = None;
        for &(u, v) in &edges {
            assert_ne!(u, v, "self-loop {u}-{v} rejected");
            assert!(u < v, "edge {u}-{v} is not canonical (need u < v)");
            assert!((v as usize) < n, "edge {u}-{v} out of range (n = {n})");
            if let Some(p) = prev {
                assert_ne!(p, (u, v), "duplicate edge {u}-{v}");
                assert!(p < (u, v), "edges not sorted: {p:?} before ({u}, {v})");
            }
            prev = Some((u, v));
            adj_off[u as usize + 1] += 1;
            adj_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![(0u32, 0u32); 2 * m];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let e = e as EdgeId;
            adj[cursor[u as usize] as usize] = (v, e);
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = (u, e);
            cursor[v as usize] += 1;
        }
        Ok(Graph {
            n,
            adj_off,
            adj,
            edges,
        })
    }
}

/// Convenience constructor from an edge list (used pervasively in tests).
pub fn graph_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.components().1, 5);
        assert!(!g.is_connected());
    }

    #[test]
    fn triangle_basics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert!(g.is_connected());
    }

    #[test]
    fn dedup_parallel_edges() {
        let g = graph_from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.endpoints(0), (0, 1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn edge_ids_are_canonical() {
        // Identical edge multisets in different orders build identical graphs.
        let g1 = graph_from_edges(4, &[(2, 3), (0, 1), (1, 2)]);
        let g2 = graph_from_edges(4, &[(1, 2), (2, 3), (0, 1)]);
        assert_eq!(g1.edge_list(), g2.edge_list());
    }

    #[test]
    fn adjacency_and_edge_ids_stay_canonical() {
        // A denser graph, inserted in two scrambled orders: edge ids follow
        // sorted (u, v) order and every adjacency list is sorted by
        // neighbor id — identical iteration order for both builds.
        let edges = [
            (0u32, 3u32),
            (1, 4),
            (0, 1),
            (2, 3),
            (3, 4),
            (0, 4),
            (1, 2),
            (0, 2),
        ];
        let mut rev = edges;
        rev.reverse();
        let g1 = graph_from_edges(5, &edges);
        let g2 = graph_from_edges(5, &rev);
        assert_eq!(g1.edge_list(), g2.edge_list());
        // Edge ids enumerate the sorted canonical endpoint list.
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        for (e, &(u, v)) in sorted.iter().enumerate() {
            assert_eq!(g1.endpoints(e as u32), (u, v));
        }
        for v in g1.vertices() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
            let ids: Vec<u32> = g1.neighbors(v).iter().map(|&(nb, _)| nb).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "adjacency of {v} not sorted: {ids:?}"
            );
            // The stored edge ids agree with the canonical endpoint list.
            for &(nb, e) in g1.neighbors(v) {
                let (a, b) = g1.endpoints(e);
                assert_eq!((a.min(b), a.max(b)), (v.min(nb), v.max(nb)));
            }
        }
        // Binary-search membership agrees with the edge list in both
        // directions, and rejects non-edges.
        for u in 0..5u32 {
            for v in 0..5u32 {
                let expect = u != v && sorted.contains(&(u.min(v), u.max(v)));
                assert_eq!(g1.has_edge(u, v), expect, "has_edge({u}, {v})");
            }
        }
    }

    #[test]
    fn degrees_on_a_disconnected_graph() {
        // Two components and two isolated vertices: degree and max_degree
        // must not assume connectivity.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (0, 2), (4, 5)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.degree(6), 0);
        assert_eq!(g.max_degree(), 2);
        assert!(!g.is_connected());
        assert_eq!(g.components().1, 4);
        // The all-isolated graph has max degree 0.
        assert_eq!(GraphBuilder::new(3).build().max_degree(), 0);
    }

    #[test]
    fn capacity_guard_fires_without_allocating() {
        // The guard validates declared counts directly — no 4-billion-edge
        // allocation needed to prove the wraparound is refused.
        assert_eq!(
            csr_capacity_check(u32::MAX as usize, 0),
            Err(GraphCapacityError::TooManyVertices {
                n: u32::MAX as usize
            })
        );
        // 2m > u32::MAX: the old u32 degree/cursor arithmetic wrapped here.
        let m_over = (u32::MAX as usize / 2) + 1;
        assert_eq!(
            csr_capacity_check(10, m_over),
            Err(GraphCapacityError::TooManyEdges { m: m_over })
        );
        // usize overflow of 2m itself is also caught, not wrapped.
        assert_eq!(
            csr_capacity_check(10, usize::MAX),
            Err(GraphCapacityError::TooManyEdges { m: usize::MAX })
        );
        // Boundary: exactly 2m == u32::MAX entries fit.
        assert_eq!(csr_capacity_check(10, u32::MAX as usize / 2), Ok(()));
        assert_eq!(csr_capacity_check(0, 0), Ok(()));
        // The error renders the offending count.
        let msg = csr_capacity_check(3, m_over).unwrap_err().to_string();
        assert!(msg.contains("adjacency entries"), "{msg}");
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.clone().try_build().unwrap();
        let g2 = b.build();
        assert_eq!(g.edge_list(), g2.edge_list());
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn from_sorted_edges_matches_the_builder_on_random_edge_lists() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..50usize);
            let mut builder = GraphBuilder::new(n);
            let mut canon = Vec::new();
            for i in 0..rng.random_range(0..4 * n) {
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                if u == v {
                    continue;
                }
                builder.add_edge(u, v);
                if i % 3 == 0 {
                    builder.add_edge(v, u); // a duplicate, reversed
                }
                canon.push((u.min(v), u.max(v)));
            }
            canon.sort_unstable();
            canon.dedup();
            let g = Graph::from_sorted_edges(n, canon.clone()).unwrap();
            let built = builder.build();
            assert_eq!(g.edge_list(), built.edge_list(), "seed {seed}");
            for v in g.vertices() {
                assert_eq!(g.neighbors(v), built.neighbors(v), "seed {seed}");
                // Without the builder: `v`'s edges, sorted by neighbor.
                let mut want: Vec<(VertexId, EdgeId)> = Vec::new();
                for (e, &(a, b)) in canon.iter().enumerate() {
                    if a == v {
                        want.push((b, e as EdgeId));
                    } else if b == v {
                        want.push((a, e as EdgeId));
                    }
                }
                want.sort_unstable();
                assert_eq!(g.neighbors(v), want.as_slice(), "seed {seed}, vertex {v}");
            }
        }
        // Capacity is checked first, without allocating for `n`.
        assert!(matches!(
            Graph::from_sorted_edges(u32::MAX as usize, Vec::new()),
            Err(GraphCapacityError::TooManyVertices { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "edges not sorted")]
    fn from_sorted_edges_rejects_unsorted_edges() {
        let _ = Graph::from_sorted_edges(3, vec![(1, 2), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge 0-1")]
    fn from_sorted_edges_rejects_duplicates() {
        let _ = Graph::from_sorted_edges(3, vec![(0, 1), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_sorted_edges_rejects_self_loops() {
        let _ = Graph::from_sorted_edges(3, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "not canonical")]
    fn from_sorted_edges_rejects_reversed_endpoints() {
        let _ = Graph::from_sorted_edges(3, vec![(2, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sorted_edges_rejects_out_of_range_endpoints() {
        let _ = Graph::from_sorted_edges(2, vec![(0, 2)]);
    }

    #[test]
    fn components_of_two_triangles() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let (comp, count) = g.components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }
}
