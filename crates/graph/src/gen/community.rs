//! Planted-partition (stochastic block model) graphs.
//!
//! `n` vertices in `groups` equal-size communities; each within-community
//! pair is an edge with probability `p_in`, each cross-community pair with
//! probability `p_out < p_in`. The planted communities are returned
//! alongside the graph, so experiments can compare a partitioner's cut
//! against the ground-truth community cut — the corpus family with a
//! *known-good* `k`-coloring.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::coloring::Coloring;
use crate::graph::{Graph, GraphBuilder};

/// A planted-partition graph with its ground-truth community structure.
#[derive(Clone, Debug)]
pub struct PlantedPartition {
    /// The sampled graph.
    pub graph: Graph,
    /// Ground-truth community of each vertex (`0..groups`).
    pub communities: Vec<u32>,
    /// Number of planted communities.
    pub groups: usize,
}

impl PlantedPartition {
    /// The planted communities as a total `groups`-coloring — the
    /// known-good partition the generator hid in the graph.
    pub fn ground_truth(&self) -> Coloring {
        Coloring::from_vec(self.groups, self.communities.clone())
    }
}

/// Sample a planted-partition graph: communities are contiguous id blocks
/// (vertex `v` belongs to community `v · groups / n`, sizes differing by
/// at most one). Deterministic given `seed`; `O(n²)` sampling.
///
/// # Panics
/// Panics unless `1 ≤ groups ≤ n` and both probabilities lie in `[0, 1]`.
pub fn planted_partition(
    n: usize,
    groups: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> PlantedPartition {
    assert!(groups >= 1 && groups <= n, "need 1 ≤ groups ≤ n");
    assert!((0.0..=1.0).contains(&p_in), "p_in out of range");
    assert!((0.0..=1.0).contains(&p_out), "p_out out of range");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7037ED1A0B428DB);
    let communities: Vec<u32> = (0..n).map(|v| (v * groups / n) as u32).collect();
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in u + 1..n {
            let p = if communities[u] == communities[v] {
                p_in
            } else {
                p_out
            };
            if rng.random::<f64>() < p {
                b.add_edge(u as u32, v as u32);
            }
        }
    }
    PlantedPartition {
        graph: b.build(),
        communities,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Edges crossing between different planted communities.
    fn cross_edges(pp: &PlantedPartition) -> usize {
        let c = &pp.communities;
        let edges = pp.graph.edge_list().iter();
        edges
            .filter(|&&(u, v)| c[u as usize] != c[v as usize])
            .count()
    }

    #[test]
    fn community_sizes_are_balanced() {
        let pp = planted_partition(50, 4, 0.5, 0.05, 1);
        let mut sizes = vec![0usize; 4];
        for &c in &pp.communities {
            sizes[c as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 12 || s == 13), "{sizes:?}");
        let gt = pp.ground_truth();
        assert!(gt.is_total());
        assert_eq!(gt.k(), 4);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = planted_partition(60, 3, 0.4, 0.05, 7);
        let b = planted_partition(60, 3, 0.4, 0.05, 7);
        assert_eq!(a.graph.edge_list(), b.graph.edge_list());
        let c = planted_partition(60, 3, 0.4, 0.05, 8);
        assert_ne!(a.graph.edge_list(), c.graph.edge_list());
    }

    #[test]
    fn planted_structure_is_visible() {
        // Within-community density must clearly exceed cross density.
        let pp = planted_partition(120, 4, 0.4, 0.02, 3);
        let cross = cross_edges(&pp);
        let within = pp.graph.num_edges() - cross;
        // Expected within ≈ 0.4 · 4 · C(30,2) = 696; cross ≈ 0.02 · 4050 = 81.
        assert!(within > 4 * cross, "within {within} vs cross {cross}");
    }

    #[test]
    fn extreme_probabilities() {
        let empty = planted_partition(20, 2, 0.0, 0.0, 5);
        assert_eq!(empty.graph.num_edges(), 0);
        let full = planted_partition(12, 3, 1.0, 1.0, 5);
        assert_eq!(full.graph.num_edges(), 12 * 11 / 2);
        // p_out = 0 disconnects the communities from each other.
        let iso = planted_partition(40, 4, 1.0, 0.0, 5);
        assert_eq!(iso.graph.components().1, 4);
        assert_eq!(cross_edges(&iso), 0);
    }
}
