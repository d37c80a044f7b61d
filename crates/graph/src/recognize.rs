//! Structure detection: which graph family is this?
//!
//! The paper's splitting-set theorems are *per family* — grids get
//! GridSplit (Theorem 19), forests get the smallest-subtree-first DFS
//! splitter, paths get prefix splitting with `σ_p ≤ 2` — so an automatic
//! splitter choice needs to know which family an anonymous [`Graph`]
//! belongs to. [`recognize`] classifies a graph as (in order of
//! preference) a disjoint union of paths, a forest, a full rectangular
//! lattice (with the integer embedding reconstructed, so GridSplit can run
//! on it), or arbitrary.
//!
//! Lattice recognition accepts exactly the full axis-aligned boxes
//! `[0,n₁)×…×[0,n_d)`, in any dimension and under any vertex labeling;
//! every accepted embedding is verified to fill its box and to match the
//! edges (edges ⟺ `L1` distance 1), so a false positive is impossible. An
//! irregular grid subset, even one that embeds, falls through to
//! [`Structure::Arbitrary`]. Callers that *know* their geometry
//! (percolation subsets, blobs) should carry a [`GridGraph`] instead of a
//! bare [`Graph`] and skip detection.

use std::sync::Arc;

use crate::gen::grid::{box_lex_ranks, GridGraph};
use crate::graph::{Graph, VertexId};

/// The graph family detected by [`recognize`].
#[derive(Clone, Debug)]
pub enum Structure {
    /// A disjoint union of simple paths (isolated vertices allowed).
    /// `positions[v]` orders the vertices along their paths: sorting by it
    /// walks each path end to end, one path after another.
    Path {
        /// Linear position key per vertex (paths concatenated).
        positions: Vec<i64>,
    },
    /// An acyclic graph that is not a union of paths.
    Forest,
    /// A full rectangular lattice; carries the reconstructed embedding
    /// (vertex ids identical to the input graph's), shared so that cloning
    /// a verdict never copies the graph and its coordinates.
    Grid(Arc<GridGraph>),
    /// None of the above.
    Arbitrary,
}

impl Structure {
    /// Short family name, for reports and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Structure::Path { .. } => "path",
            Structure::Forest => "forest",
            Structure::Grid(_) => "grid",
            Structure::Arbitrary => "arbitrary",
        }
    }
}

thread_local! {
    /// Per-thread count of [`recognize`] invocations — a deterministic
    /// observability counter (monotone, never reset) for the
    /// construction-cost regression tests: an explicit splitter choice
    /// must not pay the recognition pass, and the warm artifact path must
    /// not re-run it on a cache hit.
    static RECOGNITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`recognize`] has run on this thread. Subtract two
/// snapshots around a region to count the recognitions it performed;
/// see `tests/api.rs` (workspace root) for the regression pattern.
pub fn recognition_count() -> u64 {
    RECOGNITIONS.with(|c| c.get())
}

/// Classify `g` into a [`Structure`].
///
/// Runs in `O((n + m)·d)` with no hashing: one component count, then the
/// lattice attempt over flat arrays, which dominates and bails out early
/// on non-lattices.
pub fn recognize(g: &Graph) -> Structure {
    RECOGNITIONS.with(|c| c.set(c.get() + 1));
    let n = g.num_vertices();
    let (_, components) = g.components();
    let is_forest = g.num_edges() + components == n;
    if is_forest && g.max_degree() <= 2 {
        return Structure::Path {
            positions: path_positions(g),
        };
    }
    if is_forest {
        return Structure::Forest;
    }
    match try_lattice_embedding(g) {
        Some(grid) => Structure::Grid(Arc::new(grid)),
        None => Structure::Arbitrary,
    }
}

/// Linear positions for a disjoint union of simple paths: walk each
/// component from one of its endpoints, numbering vertices consecutively
/// with a global counter.
///
/// # Panics
/// Panics if `g` is not a union of paths (some vertex has degree > 2 or a
/// component is a cycle).
pub fn path_positions(g: &Graph) -> Vec<i64> {
    let n = g.num_vertices();
    assert!(
        g.max_degree() <= 2,
        "path_positions requires max degree <= 2"
    );
    let mut pos = vec![0i64; n];
    let mut seen = vec![false; n];
    let mut next = 0i64;
    // Endpoints first (degree <= 1); a leftover unseen vertex would mean a
    // cycle component.
    for start in (0..n as u32).filter(|&v| g.degree(v) <= 1) {
        if seen[start as usize] {
            continue;
        }
        let mut prev: Option<VertexId> = None;
        let mut cur = start;
        loop {
            seen[cur as usize] = true;
            pos[cur as usize] = next;
            next += 1;
            let step = g
                .neighbors(cur)
                .iter()
                .map(|&(nb, _)| nb)
                .find(|&nb| Some(nb) != prev && !seen[nb as usize]);
            match step {
                Some(nb) => {
                    prev = Some(cur);
                    cur = nb;
                }
                None => break,
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "path_positions requires acyclic components"
    );
    pos
}

/// Try to reconstruct an integer lattice embedding of `g`.
///
/// Succeeds exactly on graphs isomorphic to a full rectangular lattice
/// `[0,n₁)×…×[0,n_d)` with every extent ≥ 2 (lower-dimensional boxes are
/// recognized at their effective dimension), whatever their vertex
/// labels. The embedding is anchored at a minimum-degree vertex (a lattice
/// corner) and grown in BFS order: a vertex with one already-placed
/// neighbor continues that neighbor's ray; a vertex with several takes
/// their componentwise maximum. Every ray is a unit vector `+e_a`, so a
/// vertex stores only its axis `a`. The candidate is then verified: its
/// points must fill the box of its extents exactly once (the shared
/// [`box_lex_ranks`] check), and every edge must join points at `L1`
/// distance 1. With `n` points filling the box and `m` distinct edges,
/// each an adjacent pair, `m` equal to the box's number of adjacent
/// pairs means every adjacent pair is an edge, so the function never
/// returns a wrong embedding. No hashing; `O((n + m)·d)` time in one
/// flat `n·d` coordinate array.
pub fn try_lattice_embedding(g: &Graph) -> Option<GridGraph> {
    let n = g.num_vertices();
    let v0 = (0..n as u32).min_by_key(|&v| g.degree(v))?;
    let dim = g.degree(v0);
    if dim == 0 || g.max_degree() > 2 * dim {
        return None;
    }

    // `rank[v]` is v's BFS position (`u32::MAX` until discovered); BFS
    // places vertices in rank order, so a neighbor is placed before `v`
    // exactly when its rank is lower.
    let mut rank = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut coords = vec![0i64; n * dim];
    let mut ray_axis = vec![0usize; n];
    let mut placed = Vec::with_capacity(2 * dim);
    let mut next_axis = 0usize;
    rank[v0 as usize] = 0;
    order.push(v0);
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &(nb, _) in g.neighbors(v) {
            if rank[nb as usize] == u32::MAX {
                rank[nb as usize] = order.len() as u32;
                order.push(nb);
            }
        }
        if v == v0 {
            continue;
        }
        placed.clear();
        placed.extend(
            g.neighbors(v)
                .iter()
                .map(|&(nb, _)| nb as usize)
                .filter(|&nb| rank[nb] < rank[v as usize]),
        );
        let v = v as usize;
        match *placed.as_slice() {
            [] => return None, // BFS order guarantees a placed neighbor
            [p] if p == v0 as usize => {
                // A fresh axis out of the corner.
                if next_axis >= dim {
                    return None;
                }
                coords[v * dim + next_axis] = 1;
                ray_axis[v] = next_axis;
                next_axis += 1;
            }
            [p] => {
                // Continue the ray that placed `p`.
                coords.copy_within(p * dim..p * dim + dim, v * dim);
                coords[v * dim + ray_axis[p]] += 1;
                ray_axis[v] = ray_axis[p];
            }
            [p, ..] => {
                // Componentwise max of the placed neighbors; each must end
                // up at L1 distance 1 from it, `p` along the ray's axis.
                for &q in &placed {
                    for a in 0..dim {
                        coords[v * dim + a] = coords[v * dim + a].max(coords[q * dim + a]);
                    }
                }
                if placed.iter().any(|&q| l1(&coords, dim, v, q) != 1) {
                    return None;
                }
                let axis = (0..dim).find(|&a| coords[v * dim + a] != coords[p * dim + a]);
                ray_axis[v] = axis.expect("L1 distance 1 differs on one axis");
            }
        }
    }
    if order.len() < n {
        return None; // disconnected
    }

    // Verification. Coordinates are ≥ 0 with the corner at the origin, so
    // the box is `[0, e_a)` per axis.
    let (extents, _) = box_lex_ranks(dim, &coords)?;
    if g.edge_list()
        .iter()
        .any(|&(u, v)| l1(&coords, dim, u as usize, v as usize) != 1)
    {
        return None;
    }
    let adjacent_pairs: usize = extents.iter().map(|&e| n / e * (e - 1)).sum();
    if g.num_edges() != adjacent_pairs {
        return None;
    }
    Some(GridGraph::from_graph_coords(g.clone(), dim, coords))
}

/// `L1` distance between the points of `u` and `v` in a flat coordinate
/// array with `dim` entries per vertex.
fn l1(coords: &[i64], dim: usize, u: usize, v: usize) -> i64 {
    let (cu, cv) = (
        &coords[u * dim..u * dim + dim],
        &coords[v * dim..v * dim + dim],
    );
    cu.iter().zip(cv).map(|(x, y)| (x - y).abs()).sum()
}

/// Try to identify `g` as a torus lattice `Z_{e₁} × … × Z_{e_d}` in the
/// odometer vertex layout of [`crate::gen::lattice::torus`] (axis 0
/// fastest).
///
/// Sound but deliberately layout-sensitive: candidate extent vectors are
/// enumerated from the factorizations of `n` (pruned by the regular
/// degree a torus must have) and each candidate is **verified by exact
/// edge-set comparison** against the generator, so a `Some` answer is
/// always a true torus — a relabeled torus simply falls through to
/// `None`, which downstream consumers (the structure-aware lower bounds
/// in `mmb-core`) treat as "no structural certificate". Extents of 1 are
/// never reported (they contribute no edges); the all-2 torus is the
/// hypercube and is reported here too if the layout matches.
///
/// The enumeration is capped (dimension ≤ 6, ≤ 512 candidate
/// verifications) so the hook stays cheap on highly composite `n`.
pub fn try_torus_dims(g: &Graph) -> Option<Vec<usize>> {
    let n = g.num_vertices();
    if n < 2 || g.num_edges() == 0 || !g.is_connected() {
        return None;
    }
    // A torus is regular; the degree pins down the extent profile:
    // each extent ≥ 3 contributes 2 to the degree, each extent of 2
    // contributes 1.
    let deg = g.degree(0);
    if (1..n as u32).any(|v| g.degree(v) != deg) {
        return None;
    }
    let mut budget = 512usize;
    let mut dims = Vec::new();
    try_torus_rec(g, n, deg, &mut dims, &mut budget)
}

/// DFS over ordered factorizations of `remaining` into extents ≥ 2 whose
/// degree contributions can still reach `deg_left`. Ordered (not sorted)
/// enumeration matters: the odometer layout is not symmetric under axis
/// permutation, so `[4, 5]` and `[5, 4]` are distinct candidates.
fn try_torus_rec(
    g: &Graph,
    remaining: usize,
    deg_left: usize,
    dims: &mut Vec<usize>,
    budget: &mut usize,
) -> Option<Vec<usize>> {
    if remaining == 1 {
        if deg_left != 0 || dims.is_empty() {
            return None;
        }
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        // The odometer layout fixes vertex ids, so equality of edge lists
        // is a complete (and sound) isomorphism check for this layout.
        let candidate = crate::gen::lattice::torus(dims);
        if candidate.edge_list() == g.edge_list() {
            return Some(dims.clone());
        }
        return None;
    }
    if dims.len() >= 6 || *budget == 0 {
        return None;
    }
    let mut e = 2usize;
    while e <= remaining {
        if remaining.is_multiple_of(e) {
            let contrib = if e >= 3 { 2 } else { 1 };
            if deg_left >= contrib {
                dims.push(e);
                if let Some(found) =
                    try_torus_rec(g, remaining / e, deg_left - contrib, dims, budget)
                {
                    return Some(found);
                }
                dims.pop();
            }
        }
        e += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid::GridGraph;
    use crate::gen::misc::{complete, cycle, ladder, path, star};
    use crate::gen::tree::{caterpillar, complete_binary_tree, random_tree};
    use crate::graph::graph_from_edges;

    #[test]
    fn recognizes_paths_and_orders_them() {
        let g = path(7);
        match recognize(&g) {
            Structure::Path { positions } => {
                // Ids are positions for gen::misc::path; the walk must be
                // monotone along the path (either direction).
                let mut order: Vec<u32> = (0..7).collect();
                order.sort_by_key(|&v| positions[v as usize]);
                let fwd: Vec<u32> = (0..7).collect();
                let bwd: Vec<u32> = (0..7).rev().collect();
                assert!(order == fwd || order == bwd, "bad walk {order:?}");
            }
            s => panic!("path classified as {}", s.name()),
        }
    }

    #[test]
    fn recognizes_path_unions_and_isolated_vertices() {
        // Two disjoint segments plus an isolated vertex.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (4, 5), (5, 6)]);
        match recognize(&g) {
            Structure::Path { positions } => {
                // Consecutive positions inside each segment.
                assert_eq!((positions[0] - positions[1]).abs(), 1);
                assert_eq!((positions[4] - positions[5]).abs(), 1);
            }
            s => panic!("union of paths classified as {}", s.name()),
        }
    }

    #[test]
    fn recognizes_forests() {
        for g in [
            complete_binary_tree(5),
            random_tree(60, 4, 3),
            caterpillar(10, 2),
            star(5),
        ] {
            assert_eq!(recognize(&g).name(), "forest");
        }
    }

    #[test]
    fn recognizes_lattices_in_all_dimensions() {
        for dims in [
            vec![5usize, 4],
            vec![2, 2],
            vec![3, 3, 3],
            vec![2, 3, 4],
            vec![2, 2, 2, 2],
        ] {
            let grid = GridGraph::lattice(&dims);
            // The same lattice under scrambled labels (11 is coprime to
            // every n here): recognition must not depend on them.
            let n = grid.graph.num_vertices() as u32;
            let mut b = crate::graph::GraphBuilder::new(n as usize);
            for &(u, v) in grid.graph.edge_list() {
                b.add_edge((u * 11 + 3) % n, (v * 11 + 3) % n);
            }
            for g in [grid.graph, b.build()] {
                match recognize(&g) {
                    Structure::Grid(found) => {
                        assert_eq!(found.graph.num_edges(), g.num_edges());
                        // The reconstructed embedding is a valid grid
                        // embedding of the same graph under the *same*
                        // vertex ids.
                        for &(u, v) in g.edge_list() {
                            assert_eq!(
                                l1(found.coords(), found.dim, u as usize, v as usize),
                                1,
                                "{dims:?}"
                            );
                        }
                    }
                    s => panic!("lattice {dims:?} classified as {}", s.name()),
                }
            }
        }
    }

    #[test]
    fn cycle4_is_the_2x2_lattice() {
        assert_eq!(recognize(&cycle(4)).name(), "grid");
    }

    #[test]
    fn arbitrary_graphs_fall_through() {
        for (label, g) in [
            ("cycle5", cycle(5)),
            ("k5", complete(5)),
            ("ladder", ladder(6)), // a 2×6 lattice! — see below
        ] {
            let s = recognize(&g);
            if label == "ladder" {
                assert_eq!(s.name(), "grid", "ladder is a 2×n lattice");
            } else {
                assert_eq!(s.name(), "arbitrary", "{label}");
            }
        }
        // A grid with one chord is no longer a lattice.
        let grid = GridGraph::lattice(&[4, 4]);
        let mut b = crate::graph::GraphBuilder::new(16);
        for &(u, v) in grid.graph.edge_list() {
            b.add_edge(u, v);
        }
        b.add_edge(0, 15);
        assert_eq!(recognize(&b.build()).name(), "arbitrary");
    }

    #[test]
    fn percolation_subsets_are_not_misrecognized() {
        // Only a full box is accepted, with a *verified* embedding.
        // percolation keeps only a connected blob, which is almost never
        // a full box.
        let grid = GridGraph::percolation(&[8, 8], 0.7, 5);
        // Rejection is the expected outcome; acceptance must be verified.
        if let Structure::Grid(found) = recognize(&grid.graph) {
            for &(u, v) in grid.graph.edge_list() {
                assert_eq!(l1(found.coords(), found.dim, u as usize, v as usize), 1);
            }
        }
    }

    #[test]
    fn grid_subsets_are_arbitrary_whatever_their_labels() {
        // A box minus some of its points embeds in the lattice but does
        // not fill a box, so it is not a lattice. The four corner removals
        // of one box are the same graph under four labelings; each must
        // get the same verdict.
        let minus = |side: i64, holes: &[(i64, i64)]| {
            let points = (0..side * side)
                .map(|i| (i / side, i % side))
                .filter(|p| !holes.contains(p))
                .map(|(x, y)| vec![x, y])
                .collect();
            GridGraph::from_points(2, points).graph
        };
        for side in [3i64, 4] {
            let far = side - 1;
            for corner in [(0, 0), (0, far), (far, 0), (far, far)] {
                let g = minus(side, &[corner]);
                assert_eq!(
                    recognize(&g).name(),
                    "arbitrary",
                    "{side}² minus {corner:?}"
                );
            }
        }
        let g = minus(4, &[(3, 3), (0, 3)]);
        assert_eq!(recognize(&g).name(), "arbitrary", "4² minus two corners");
        let g = minus(6, &[(4, 4), (4, 5), (5, 4), (5, 5)]);
        assert_eq!(recognize(&g).name(), "arbitrary", "L-shape");
    }

    #[test]
    fn single_vertex_and_empty_graph_are_paths() {
        assert_eq!(recognize(&graph_from_edges(1, &[])).name(), "path");
        assert_eq!(recognize(&graph_from_edges(0, &[])).name(), "path");
    }

    #[test]
    fn torus_hook_identifies_generator_layouts() {
        use crate::gen::lattice::torus;
        for dims in [
            vec![4usize, 5],
            vec![3, 3],
            vec![10, 10],
            vec![3, 3, 3],
            vec![6],
        ] {
            let g = torus(&dims);
            let found = try_torus_dims(&g).unwrap_or_else(|| panic!("torus {dims:?} missed"));
            // The reported extents must reproduce the graph exactly (the
            // verification the hook itself performs — re-checked here).
            assert_eq!(
                torus(&found).edge_list(),
                g.edge_list(),
                "{dims:?} → {found:?}"
            );
        }
        // A cycle is the 1-dimensional torus.
        assert_eq!(try_torus_dims(&cycle(7)), Some(vec![7]));
    }

    #[test]
    fn torus_hook_refuses_non_tori() {
        use crate::gen::lattice::torus;
        // Grids are not tori (missing wrap edges), stars are irregular,
        // complete graphs are regular but wrong.
        assert_eq!(try_torus_dims(&GridGraph::lattice(&[4, 4]).graph), None);
        assert_eq!(try_torus_dims(&star(6)), None);
        assert_eq!(try_torus_dims(&complete(6)), None);
        // A torus with one extra chord is refused (edge lists differ).
        let t = torus(&[4, 4]);
        let mut b = crate::graph::GraphBuilder::new(16);
        for &(u, v) in t.edge_list() {
            b.add_edge(u, v);
        }
        b.add_edge(0, 10);
        assert_eq!(try_torus_dims(&b.build()), None);
        // A relabeled torus falls through — sound, not complete.
        let mut b = crate::graph::GraphBuilder::new(9);
        let relabel = |v: u32| (v + 4) % 9;
        for &(u, v) in torus(&[3, 3]).edge_list() {
            b.add_edge(relabel(u), relabel(v));
        }
        assert_eq!(try_torus_dims(&b.build()), None);
    }
}
