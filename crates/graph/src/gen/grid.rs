//! `d`-dimensional grid graphs.
//!
//! A *grid graph* in `d`-dimensional space (Section 6) is a graph
//! `G = (V, E)` with `V ⊆ Z^d` and `‖x − y‖₁ = 1` for every edge
//! `{x, y} ∈ E`. The class is closed under taking subgraphs, which is what
//! makes the splittability bound of Theorem 19 subgraph-monotone.
//!
//! [`GridGraph`] couples a [`Graph`] with the integer coordinates of its
//! vertices; the GridSplit algorithm (in `mmb-splitters`) needs them for
//! the coarsening maps `ϕ_α^{(ℓ)}`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{Graph, GraphBuilder, VertexId};
use crate::union::copies_graph;
use crate::vertex_set::VertexSet;

/// A grid graph: a [`Graph`] together with a `d`-dimensional integer
/// coordinate per vertex.
#[derive(Clone, Debug)]
pub struct GridGraph {
    /// The underlying graph.
    pub graph: Graph,
    /// Spatial dimension `d ≥ 1`.
    pub dim: usize,
    /// Flattened coordinates, `dim` entries per vertex.
    coords: Vec<i64>,
}

impl GridGraph {
    /// Coordinates of vertex `v` as a slice of length `dim`.
    #[inline]
    pub fn coord(&self, v: VertexId) -> &[i64] {
        let d = self.dim;
        &self.coords[v as usize * d..v as usize * d + d]
    }

    /// All coordinates, flattened (`dim` entries per vertex).
    pub fn coords(&self) -> &[i64] {
        &self.coords
    }

    /// Couple an existing [`Graph`] with explicit integer coordinates,
    /// keeping the graph's vertex ids (unlike [`GridGraph::from_points`],
    /// which re-indexes). Used by structure detection
    /// ([`crate::recognize`]) to hand a reconstructed embedding to
    /// GridSplit without relabeling the instance.
    ///
    /// # Panics
    /// Panics if `coords` does not hold `dim` entries per vertex or some
    /// edge joins points whose `L1` distance is not exactly 1 (the grid
    /// graph defining property, Section 6).
    pub fn from_graph_coords(graph: Graph, dim: usize, coords: Vec<i64>) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert_eq!(
            coords.len(),
            graph.num_vertices() * dim,
            "coordinate length mismatch"
        );
        let grid = GridGraph { graph, dim, coords };
        for &(u, v) in grid.graph.edge_list() {
            let dist: i64 = grid
                .coord(u)
                .iter()
                .zip(grid.coord(v))
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert_eq!(dist, 1, "edge {u}-{v} does not join L1-adjacent points");
        }
        grid
    }

    /// Build a grid graph from a set of integer points: vertices are the
    /// (deduplicated) points, edges join points at `L1` distance exactly 1.
    ///
    /// `O(n·d)` expected time via hashing.
    pub fn from_points(dim: usize, points: Vec<Vec<i64>>) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        for p in &points {
            assert_eq!(p.len(), dim, "point dimension mismatch");
        }
        let mut index: HashMap<&[i64], u32> = HashMap::with_capacity(points.len());
        let mut unique: Vec<&Vec<i64>> = Vec::with_capacity(points.len());
        for p in &points {
            index.entry(p.as_slice()).or_insert_with(|| {
                unique.push(p);
                (unique.len() - 1) as u32
            });
        }
        let n = unique.len();
        let mut builder = GraphBuilder::new(n);
        let mut probe = vec![0i64; dim];
        for (v, p) in unique.iter().enumerate() {
            probe.copy_from_slice(p);
            for axis in 0..dim {
                // Only look in the +1 direction; the −1 neighbor adds the
                // edge from its own scan. A point at `i64::MAX` on this
                // axis has no +1 neighbor.
                let Some(up) = p[axis].checked_add(1) else {
                    continue;
                };
                probe[axis] = up;
                if let Some(&u) = index.get(probe.as_slice()) {
                    builder.add_edge(v as u32, u);
                }
                probe[axis] = p[axis];
            }
        }
        let coords = unique.iter().flat_map(|p| p.iter().copied()).collect();
        GridGraph {
            graph: builder.build(),
            dim,
            coords,
        }
    }

    /// The full lattice `[0, dims[0]) × … × [0, dims[d−1])`.
    ///
    /// Vertex ids follow the odometer, axis 0 fastest, so `v = Σ x_a ·
    /// stride_a`; the edges `(v, v + stride_a)` come out in canonical
    /// order straight from index arithmetic. The result equals
    /// [`GridGraph::from_points`] over the same points.
    ///
    /// # Panics
    /// Panics on no dimensions, a zero extent, or a lattice that exceeds
    /// the `u32` id space.
    pub fn lattice(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "each extent must be >= 1");
        let n = dims
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(e))
            .filter(|&n| n < u32::MAX as usize)
            .expect("vertex count exceeds u32 id space");
        let d = dims.len();
        let strides: Vec<usize> = dims
            .iter()
            .scan(1, |stride, &e| {
                let s = *stride;
                *stride *= e;
                Some(s)
            })
            .collect();
        let mut coords = Vec::with_capacity(n * d);
        let mut edges = Vec::with_capacity(dims.iter().map(|&e| n - n / e).sum());
        let mut cur = vec![0usize; d];
        for v in 0..n {
            coords.extend(cur.iter().map(|&x| x as i64));
            // Ascending axis order is ascending `v + stride`: an axis of
            // extent 1 adds no edge, and any other stride exceeds every
            // lower one.
            for axis in 0..d {
                if cur[axis] + 1 < dims[axis] {
                    edges.push((v as u32, (v + strides[axis]) as u32));
                }
            }
            // Odometer increment.
            for axis in 0..d {
                cur[axis] += 1;
                if cur[axis] < dims[axis] {
                    break;
                }
                cur[axis] = 0;
            }
        }
        let graph = Graph::from_sorted_edges(n, edges)
            .expect("a lattice within the u32 id space fits the CSR");
        GridGraph {
            graph,
            dim: d,
            coords,
        }
    }

    /// A path with `n` vertices (the 1-dimensional lattice).
    pub fn path(n: usize) -> Self {
        GridGraph::lattice(&[n])
    }

    /// Site-percolation subset of a lattice: keep each lattice point
    /// independently with probability `keep`, then retain only the largest
    /// connected component (so tests get one usable piece).
    pub fn percolation(dims: &[usize], keep: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&keep), "keep probability out of range");
        let full = GridGraph::lattice(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let kept: Vec<VertexId> = full
            .graph
            .vertices()
            .filter(|_| rng.random::<f64>() < keep)
            .collect();
        if kept.is_empty() {
            return GridGraph::from_points(dims.len(), vec![vec![0; dims.len()]]);
        }
        // Build the subset grid, then keep its largest component.
        let pts: Vec<Vec<i64>> = kept.iter().map(|&v| full.coord(v).to_vec()).collect();
        let sub = GridGraph::from_points(dims.len(), pts);
        let (comp, count) = sub.graph.components();
        if count <= 1 {
            return sub;
        }
        let mut sizes = vec![0usize; count];
        for &c in &comp {
            sizes[c as usize] += 1;
        }
        let best = (0..count)
            .max_by_key(|&i| sizes[i])
            .expect("count >= 2 components in this branch") as u32;
        let pts: Vec<Vec<i64>> = sub
            .graph
            .vertices()
            .filter(|&v| comp[v as usize] == best)
            .map(|v| sub.coord(v).to_vec())
            .collect();
        GridGraph::from_points(dims.len(), pts)
    }

    /// `copies` disjoint translated copies of `base`, separated by a gap of
    /// 2 along axis 0 so cells never straddle copies. This is the `G̃`
    /// construction of Lemma 40 at the grid level; its graph, ids and edge
    /// ids are [`crate::union::disjoint_copies`]'s, and costs/weights are
    /// replicated by [`crate::union::replicate_measure`].
    pub fn disjoint_copies(base: &GridGraph, copies: usize) -> Self {
        let graph = copies_graph(&base.graph, copies);
        let span = base
            .graph
            .vertices()
            .map(|v| base.coord(v)[0])
            .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
        let width = if base.graph.num_vertices() == 0 {
            0
        } else {
            span.1 - span.0 + 1
        };
        let stride = width + 2;
        let mut coords = Vec::with_capacity(base.coords.len() * copies);
        for i in 0..copies {
            let shift = stride * i as i64;
            for p in base.coords.chunks_exact(base.dim) {
                coords.push(p[0] + shift);
                coords.extend_from_slice(&p[1..]);
            }
        }
        GridGraph::from_graph_coords(graph, base.dim, coords)
    }

    /// Random connected "blob": a lattice-random-walk-grown region of `n`
    /// points in `d` dimensions (useful as an irregular mesh stand-in).
    pub fn random_blob(dim: usize, n: usize, seed: u64) -> Self {
        assert!(dim >= 1 && n >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        // Membership is hashed, but the returned point list is the
        // insertion-order `points` Vec: vertex ids depend only on the seed,
        // never on `HashMap` iteration order (which varies run-to-run).
        let mut seen: HashMap<Vec<i64>, ()> = HashMap::new();
        let mut points: Vec<Vec<i64>> = vec![vec![0; dim]];
        let mut frontier: Vec<Vec<i64>> = vec![vec![0; dim]];
        seen.insert(vec![0; dim], ());
        while points.len() < n && !frontier.is_empty() {
            let idx = rng.random_range(0..frontier.len());
            let base = frontier[idx].clone();
            let axis = rng.random_range(0..dim);
            let dir = if rng.random::<bool>() { 1 } else { -1 };
            let mut p = base;
            p[axis] += dir;
            if seen.insert(p.clone(), ()).is_none() {
                points.push(p.clone());
                frontier.push(p);
            }
        }
        GridGraph::from_points(dim, points)
    }
}

/// Whether points fill their bounding box exactly once, and where each
/// one sits in it.
///
/// `coords` holds `dim` coordinates per point, laid out as
/// [`GridGraph::coords`]. When the points fill `Π_a [min_a, max_a]` with
/// every cell taken once, returns the box's extents `max_a − min_a + 1`
/// and each point's mixed-radix index in the box (axis 0 most
/// significant), which is its rank in the lexicographic coordinate
/// order. `None` when some cell is empty or taken twice, and for no
/// points at all.
///
/// `O(n·d)` with no hashing. Offsets are `abs_diff`s and the volume is a
/// `checked_mul`, so no `i64` coordinate can overflow it; a mixed-radix
/// index stays below the volume, which is the point count.
///
/// # Panics
/// Panics if `dim` is 0.
pub fn box_lex_ranks(dim: usize, coords: &[i64]) -> Option<(Vec<usize>, Vec<u32>)> {
    assert!(dim >= 1, "dimension must be at least 1");
    let n = coords.len() / dim;
    let mut mins = vec![i64::MAX; dim];
    let mut maxs = vec![i64::MIN; dim];
    for p in coords.chunks_exact(dim) {
        for (a, &x) in p.iter().enumerate() {
            mins[a] = mins[a].min(x);
            maxs[a] = maxs[a].max(x);
        }
    }
    // With no points `mins > maxs`, and `abs_diff + 1` overflows to `None`.
    let extents: Vec<usize> = mins
        .iter()
        .zip(&maxs)
        .map(|(&lo, &hi)| usize::try_from(hi.abs_diff(lo)).ok()?.checked_add(1))
        .collect::<Option<_>>()?;
    let volume = extents
        .iter()
        .try_fold(1usize, |acc, &e| acc.checked_mul(e));
    if volume != Some(n) {
        return None;
    }
    let mut filled = VertexSet::empty(n);
    let mut ranks = Vec::with_capacity(n);
    for p in coords.chunks_exact(dim) {
        let rank = (0..dim).fold(0, |acc, a| {
            acc * extents[a] + p[a].abs_diff(mins[a]) as usize
        });
        if !filled.insert(rank as VertexId) {
            return None;
        }
        ranks.push(rank as u32);
    }
    Some((extents, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lattice's points in odometer order, through `from_points`.
    fn lattice_from_points(dims: &[usize]) -> GridGraph {
        let mut points = Vec::new();
        let mut cur = vec![0i64; dims.len()];
        'odometer: loop {
            points.push(cur.clone());
            for axis in 0..dims.len() {
                cur[axis] += 1;
                if (cur[axis] as usize) < dims[axis] {
                    continue 'odometer;
                }
                cur[axis] = 0;
            }
            return GridGraph::from_points(dims.len(), points);
        }
    }

    #[test]
    fn lattice_equals_from_points() {
        for dims in [
            &[1][..],
            &[5],
            &[1, 1],
            &[3, 1],
            &[1, 4],
            &[64, 48],
            &[2, 3, 4],
            &[7, 1, 5],
        ] {
            let (got, want) = (GridGraph::lattice(dims), lattice_from_points(dims));
            assert_eq!(got.dim, want.dim, "{dims:?}");
            assert_eq!(
                got.graph.num_vertices(),
                want.graph.num_vertices(),
                "{dims:?}"
            );
            assert_eq!(got.graph.edge_list(), want.graph.edge_list(), "{dims:?}");
            for v in want.graph.vertices() {
                assert_eq!(
                    got.graph.neighbors(v),
                    want.graph.neighbors(v),
                    "{dims:?}: {v}"
                );
            }
            assert_eq!(got.coords(), want.coords(), "{dims:?}");
        }
    }

    #[test]
    fn lattice_counts() {
        let g = GridGraph::lattice(&[3, 4]);
        assert_eq!(g.graph.num_vertices(), 12);
        // Edges: 2*4 (horizontal per row… careful) = (3-1)*4 + 3*(4-1) = 8 + 9 = 17.
        assert_eq!(g.graph.num_edges(), 17);
        assert!(g.graph.is_connected());
        assert_eq!(g.dim, 2);
    }

    #[test]
    fn lattice_3d_counts() {
        let g = GridGraph::lattice(&[2, 2, 2]);
        assert_eq!(g.graph.num_vertices(), 8);
        assert_eq!(g.graph.num_edges(), 12); // cube
        assert_eq!(g.graph.max_degree(), 3);
    }

    #[test]
    fn path_is_one_dimensional_lattice() {
        let g = GridGraph::path(5);
        assert_eq!(g.graph.num_vertices(), 5);
        assert_eq!(g.graph.num_edges(), 4);
        assert_eq!(g.graph.max_degree(), 2);
    }

    #[test]
    fn from_points_edges_need_l1_distance_one() {
        let pts = vec![vec![0, 0], vec![1, 0], vec![1, 1], vec![3, 3]];
        let g = GridGraph::from_points(2, pts);
        assert_eq!(g.graph.num_vertices(), 4);
        assert_eq!(g.graph.num_edges(), 2); // (0,0)-(1,0), (1,0)-(1,1)
                                            // The +1 probe must not wrap at the top of the coordinate range.
        let g = GridGraph::from_points(1, vec![vec![i64::MAX], vec![i64::MIN]]);
        assert_eq!(g.graph.num_edges(), 0);
        let g = GridGraph::from_points(1, vec![vec![i64::MAX - 1], vec![i64::MAX]]);
        assert_eq!(g.graph.num_edges(), 1);
    }

    #[test]
    fn from_points_dedupes() {
        let pts = vec![vec![0, 0], vec![0, 0], vec![1, 0]];
        let g = GridGraph::from_points(2, pts);
        assert_eq!(g.graph.num_vertices(), 2);
        assert_eq!(g.graph.num_edges(), 1);
    }

    #[test]
    fn disjoint_copies_do_not_touch() {
        let base = GridGraph::lattice(&[3, 3]);
        let three = GridGraph::disjoint_copies(&base, 3);
        assert_eq!(three.graph.num_vertices(), 27);
        assert_eq!(three.graph.num_edges(), 3 * base.graph.num_edges());
        assert_eq!(three.graph.components().1, 3);
        // On a lattice base it is the grid graph of the shifted points.
        let mut points = Vec::new();
        for i in 0..3 {
            for v in base.graph.vertices() {
                let mut p = base.coord(v).to_vec();
                p[0] += 5 * i;
                points.push(p);
            }
        }
        let from_points = GridGraph::from_points(2, points);
        assert_eq!(three.graph.edge_list(), from_points.graph.edge_list());
        assert_eq!(three.coords(), from_points.coords());
    }

    #[test]
    fn percolation_is_connected_and_deterministic() {
        let a = GridGraph::percolation(&[10, 10], 0.7, 42);
        let b = GridGraph::percolation(&[10, 10], 0.7, 42);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        assert!(a.graph.is_connected());
        assert!(a.graph.num_vertices() <= 100);
    }

    #[test]
    fn random_blob_grows_connected() {
        let g = GridGraph::random_blob(3, 200, 7);
        assert_eq!(g.graph.num_vertices(), 200);
        assert!(g.graph.is_connected());
        assert!(g.graph.max_degree() <= 6);
    }

    #[test]
    fn random_blob_is_seed_deterministic() {
        // Regression: vertex ids used to come from `HashMap::into_keys`,
        // whose order differs between two maps even in one process — so the
        // same seed produced different numberings. Ids must now be a pure
        // function of the seed: identical coords AND identical edge lists.
        let a = GridGraph::random_blob(2, 150, 42);
        let b = GridGraph::random_blob(2, 150, 42);
        assert_eq!(a.graph.num_vertices(), b.graph.num_vertices());
        for v in a.graph.vertices() {
            assert_eq!(a.coord(v), b.coord(v), "coords diverge at v={v}");
            assert_eq!(
                a.graph.neighbors(v),
                b.graph.neighbors(v),
                "adjacency diverges at v={v}"
            );
        }
        // And a different seed actually produces a different blob.
        let c = GridGraph::random_blob(2, 150, 43);
        let same = a.graph.vertices().all(|v| a.coord(v) == c.coord(v));
        assert!(!same, "seeds 42 and 43 produced identical blobs");
    }

    /// Each point's rank in the lexicographic order of its coordinates.
    fn sorted_ranks(dim: usize, coords: &[i64]) -> Vec<u32> {
        let n = coords.len() / dim;
        let point = |v: usize| &coords[v * dim..v * dim + dim];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| point(a).cmp(point(b)));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r as u32;
        }
        rank
    }

    /// The points of the box `Π_a [origin_a, origin_a + dims_a)`, flat,
    /// in reverse odometer order (axis 0 fastest), so not lexicographic.
    fn box_points(dims: &[usize], origin: &[i64]) -> Vec<i64> {
        let lattice = GridGraph::lattice(dims);
        let mut coords = Vec::new();
        for v in (0..lattice.graph.num_vertices() as VertexId).rev() {
            coords.extend(lattice.coord(v).iter().zip(origin).map(|(&x, &o)| o + x));
        }
        coords
    }

    #[test]
    fn box_lex_ranks_match_the_coordinate_sort() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        // Full boxes in one to four dimensions, at the origin, shifted,
        // negative and against both ends of the `i64` range.
        for (dims, origin) in [
            (vec![9usize], vec![0i64]),
            (vec![8], vec![-3]),
            (vec![5], vec![hi - 4]),
            (vec![13, 11], vec![0, 0]),
            (vec![3, 4], vec![-5, 7]),
            (vec![1, 1], vec![lo, hi]),
            (vec![4, 1], vec![lo, -2]),
            (vec![5, 4, 3], vec![0, 0, 0]),
            (vec![2, 3, 4], vec![-1, 1_000_000_007, -40]),
            (vec![2, 3, 2, 3], vec![0, 0, 0, 0]),
            (vec![3, 2, 2, 2], vec![lo, 7, -1, hi - 1]),
        ] {
            let coords = box_points(&dims, &origin);
            let (extents, ranks) = box_lex_ranks(dims.len(), &coords)
                .unwrap_or_else(|| panic!("box {dims:?} at {origin:?} refused"));
            assert_eq!(extents, dims, "origin {origin:?}");
            assert_eq!(
                ranks,
                sorted_ranks(dims.len(), &coords),
                "{dims:?} at {origin:?}"
            );
        }
        // The generators' own full boxes, in their own vertex order.
        for grid in [GridGraph::lattice(&[6, 5]), GridGraph::path(9)] {
            let (_, ranks) = box_lex_ranks(grid.dim, grid.coords()).expect("a lattice");
            assert_eq!(ranks, sorted_ranks(grid.dim, grid.coords()));
        }
        // Point sets that leave a cell empty or take one twice: a missing
        // corner, a repeated point on a box's volume, a percolation
        // subset, no points, and sparse sets whose span or volume leaves
        // `u64`, among them GridSplit's `i64`-extreme dominoes.
        let e = 4_000_000_000_000_000_000;
        let percolation = GridGraph::percolation(&[12, 12], 0.75, 11);
        assert!(percolation.graph.num_vertices() < 144);
        for (dim, coords) in [
            (2, [[0, 0], [1, 0], [1, 1]].concat()),
            (2, [[0, 0], [1, 0], [1, 0], [0, 1]].concat()),
            (2, percolation.coords().to_vec()),
            (3, vec![]),
            (2, [[lo, 0], [lo + 1, 0], [hi, 0]].concat()),
            (2, [[0, 0], [1, 0], [e, e], [e + 1, e]].concat()),
            (
                2,
                [
                    [lo, lo],
                    [lo + 1, lo],
                    [lo, lo + 1],
                    [hi, hi],
                    [hi - 1, hi],
                    [hi, hi - 1],
                    [lo, hi],
                    [hi, lo],
                ]
                .concat(),
            ),
            (2, [[0, 0], [1, 0], [1 << 33, 1 << 33]].concat()),
        ] {
            assert_eq!(box_lex_ranks(dim, &coords), None, "{coords:?}");
        }
    }
}
