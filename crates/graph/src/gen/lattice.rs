//! Hypercubes and torus lattices.
//!
//! Two deterministic lattice-like families that stress structure
//! detection from opposite sides:
//!
//! * the `d`-dimensional **hypercube** `Q_d` *is* the full `[0,2)^d`
//!   lattice, so [`crate::recognize`] must accept it (and reconstruct a
//!   valid embedding);
//! * a **torus** with any extent ≥ 3 has wrap-around cycles no axis-aligned
//!   box embedding can realize, so recognition must *refuse* it — a torus
//!   misclassified as a grid would hand GridSplit a broken geometry.

use crate::graph::{Graph, GraphBuilder};

/// The `d`-dimensional hypercube `Q_d`: `2^d` vertices indexed by their
/// binary code, an edge between every pair of codes at Hamming distance 1.
/// (`Q_d` is exactly the `[0,2)^d` grid lattice, and it is built as the
/// [`torus`] with every extent 2.)
///
/// # Panics
/// Panics unless `1 ≤ d ≤ 20`.
pub fn hypercube(d: usize) -> Graph {
    assert!((1..=20).contains(&d), "hypercube dimension out of range");
    torus(&vec![2; d])
}

/// Torus lattice `Z_{dims[0]} × … × Z_{dims[d−1]}`: the grid with
/// wrap-around edges along every axis. Along an axis of extent 2 the
/// wrap-around edge coincides with the lattice edge (a single edge — the
/// graph model has no parallel edges), and an axis of extent 1
/// contributes no edges; so `torus(&[2, …, 2])` *is* the hypercube and
/// genuinely embeds as a grid, while any extent ≥ 3 introduces
/// non-embeddable wrap cycles.
///
/// Vertex ids are odometer order (axis 0 fastest), matching
/// [`crate::gen::grid::GridGraph::lattice`].
///
/// # Panics
/// Panics if `dims` is empty or any extent is 0.
pub fn torus(dims: &[usize]) -> Graph {
    assert!(!dims.is_empty(), "need at least one dimension");
    assert!(dims.iter().all(|&e| e >= 1), "each extent must be >= 1");
    let n: usize = dims.iter().product();
    let d = dims.len();
    // Strides of the odometer layout: vertex id = Σ coord[a] · stride[a].
    let mut stride = vec![1usize; d];
    for a in 1..d {
        stride[a] = stride[a - 1] * dims[a - 1];
    }
    let mut b = GraphBuilder::new(n);
    let mut coord = vec![0usize; d];
    for v in 0..n {
        for a in 0..d {
            if dims[a] < 2 {
                continue;
            }
            let next = if coord[a] + 1 == dims[a] {
                v - coord[a] * stride[a] // wrap back to coordinate 0
            } else {
                v + stride[a]
            };
            if v != next {
                b.add_edge(v as u32, next as u32);
            }
        }
        // Odometer increment.
        for c in coord.iter_mut().zip(dims) {
            *c.0 += 1;
            if *c.0 < *c.1 {
                break;
            }
            *c.0 = 0;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_counts() {
        for d in 1..=6usize {
            let g = hypercube(d);
            assert_eq!(g.num_vertices(), 1 << d);
            // |E(Q_d)| = d · 2^{d−1}; Q_d is d-regular and connected.
            assert_eq!(g.num_edges(), d * (1 << (d - 1)));
            assert!(g.vertices().all(|v| g.degree(v) == d));
            assert!(g.is_connected());
            // With that count, the edges are exactly the code pairs at
            // Hamming distance 1.
            assert!(g
                .edge_list()
                .iter()
                .all(|&(u, v)| (u ^ v).count_ones() == 1));
        }
    }

    #[test]
    fn torus_counts_and_regularity() {
        // All extents ≥ 3: the torus is 2d-regular with d·n edges.
        let g = torus(&[4, 5]);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 40);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
        let g3 = torus(&[3, 3, 3]);
        assert_eq!(g3.num_edges(), 81);
        assert!(g3.is_connected());
    }

    #[test]
    fn extent_two_collapses_to_the_lattice_edge() {
        // torus([2, 2]) = the 4-cycle = the 2×2 grid.
        let g = torus(&[2, 2]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        // torus([2]^d) is the hypercube.
        let t = torus(&[2, 2, 2]);
        let q = hypercube(3);
        assert_eq!(t.edge_list(), q.edge_list());
    }

    #[test]
    fn degenerate_extents() {
        assert_eq!(torus(&[1]).num_edges(), 0);
        assert_eq!(torus(&[1, 5]).num_edges(), 5); // a 5-cycle
        assert_eq!(torus(&[5]).num_edges(), 5);
        assert_eq!(torus(&[2]).num_edges(), 1);
    }

    #[test]
    fn torus_wraps() {
        // In a 4×4 torus, vertex 0 (coords (0,0)) neighbors 3 (coords
        // (3,0), the axis-0 wrap) and 12 (coords (0,3), the axis-1 wrap).
        let g = torus(&[4, 4]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(0, 12));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 4));
        assert_eq!(g.degree(0), 4);
    }
}
