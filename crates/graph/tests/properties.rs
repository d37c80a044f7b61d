//! Property-based tests for the graph substrate.

use mmb_graph::cut::{boundary_cost, boundary_cost_within, boundary_measure_ws};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::graph::{graph_from_edges, GraphBuilder};
use mmb_graph::measure::{edge_norm_p, edge_norm_p_pow, norm_1, norm_inf, norm_p, pow_p, set_sum};
use mmb_graph::union::{disjoint_copies, replicate_measure};
use mmb_graph::{Coloring, VertexSet, Workspace};
use proptest::prelude::*;

/// Strategy: a random graph on `n ≤ 24` vertices as an edge probability mask.
fn arb_graph() -> impl Strategy<Value = mmb_graph::Graph> {
    (2usize..24, any::<u64>()).prop_map(|(n, seed)| {
        let mut b = GraphBuilder::new(n);
        // Cheap deterministic pseudo-random edge selection.
        let mut state = seed | 1;
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 33 & 3 == 0 {
                    b.add_edge(u, v);
                }
            }
        }
        b.build()
    })
}

proptest! {
    #[test]
    fn boundary_of_complement_matches(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (seed.wrapping_add(e as u64) % 7) as f64).collect();
        let members = (0..n as u32).filter(|v| (seed >> (v % 63)) & 1 == 1);
        let u: VertexSet = VertexSet::from_iter(n, members);
        let mut comp = VertexSet::full(n);
        comp.difference_with(&u);
        // δ(U) = δ(V \ U).
        prop_assert!((boundary_cost(&g, &costs, &u) - boundary_cost(&g, &costs, &comp)).abs() < 1e-9);
    }

    #[test]
    fn boundary_within_never_exceeds_host_boundary(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let costs: Vec<f64> = vec![1.0; g.num_edges()];
        let u = VertexSet::from_iter(n, (0..n as u32).filter(|v| (seed >> (v % 61)) & 1 == 1));
        let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| (seed >> (v % 53)) & 1 == 1 || u.contains(*v)));
        prop_assert!(boundary_cost_within(&g, &costs, &w, &u) <= boundary_cost(&g, &costs, &u) + 1e-9);
    }

    #[test]
    fn boundary_measure_total_is_twice_boundary(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 0.5 + (e as f64 % 5.0)).collect();
        let u = VertexSet::from_iter(n, (0..n as u32).filter(|v| (seed >> (v % 59)) & 1 == 1));
        let total: f64 = Workspace::with_local(|ws| {
            boundary_measure_ws(&g, &costs, &u, ws).as_slice().iter().sum()
        });
        prop_assert!((total - 2.0 * boundary_cost(&g, &costs, &u)).abs() < 1e-9);
    }

    #[test]
    fn class_boundaries_sum_to_twice_cut_cost(g in arb_graph(), k in 2usize..5, seed in any::<u64>()) {
        let n = g.num_vertices();
        let costs: Vec<f64> = vec![1.0; g.num_edges()];
        let chi = Coloring::from_fn(n, k, |v| ((seed >> (v % 31)) % k as u64) as u32);
        let per_class = chi.boundary_costs(&g, &costs);
        let bichromatic: f64 = g.edge_list().iter().enumerate()
            .filter(|(_, (a, b))| chi.get(*a) != chi.get(*b))
            .map(|(e, _)| costs[e])
            .sum();
        prop_assert!((norm_1(&per_class) - 2.0 * bichromatic).abs() < 1e-9);
    }

    #[test]
    fn p_norm_bounds(v in proptest::collection::vec(0.0f64..50.0, 0..20), p in 1.0f64..6.0) {
        let np = norm_p(&v, p);
        prop_assert!(np <= norm_1(&v) + 1e-9);
        prop_assert!(np >= norm_inf(&v) - 1e-9);
    }

    #[test]
    fn pow_p_fast_paths_agree_with_powf(x in 0.0f64..1e6, pi in 1usize..7) {
        // The fast paths (identity, x·x, powi) must agree with the plain
        // powf reference to 1e-12 relative error on every exponent class.
        for p in [1.0, 2.0, 3.0, 7.0, 32.0, 1.5, 2.5, pi as f64, pi as f64 + 0.25] {
            let fast = pow_p(x, p);
            let reference = x.powf(p);
            let scale = reference.abs().max(1.0);
            prop_assert!(
                (fast - reference).abs() <= 1e-12 * scale,
                "x={x}, p={p}: fast {fast} vs powf {reference}"
            );
        }
    }

    #[test]
    fn norm_p_fast_paths_agree_with_powf_path(
        v in proptest::collection::vec(0.0f64..1e4, 0..24),
    ) {
        // norm_p routes element powers through pow_p; compare against an
        // explicit powf-only evaluation (same max-scaling) on the fast-path
        // exponents.
        for p in [1.0f64, 2.0, 3.0, 5.0] {
            let fast = norm_p(&v, p);
            let m = norm_inf(&v);
            let reference = if m == 0.0 {
                0.0
            } else {
                m * v.iter().map(|&x| (x / m).powf(p)).sum::<f64>().powf(1.0 / p)
            };
            let scale = reference.abs().max(1.0);
            prop_assert!(
                (fast - reference).abs() <= 1e-12 * scale,
                "p={p}: fast {fast} vs powf {reference}"
            );
        }
    }

    #[test]
    fn edge_norm_p_pow_fast_paths_agree_with_powf_path(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges())
            .map(|e| 0.25 + ((seed.wrapping_add(e as u64 * 77)) % 13) as f64)
            .collect();
        let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| (seed >> (v % 43)) & 1 == 1));
        for p in [1.0f64, 2.0, 4.0] {
            let fast = edge_norm_p_pow(&g, &costs, &w, p);
            let mut reference = 0.0f64;
            for v in w.iter() {
                for &(nb, e) in g.neighbors(v) {
                    if nb > v && w.contains(nb) {
                        reference += costs[e as usize].powf(p);
                    }
                }
            }
            let scale = reference.abs().max(1.0);
            prop_assert!(
                (fast - reference).abs() <= 1e-12 * scale,
                "p={p}: fast {fast} vs powf {reference}"
            );
        }
    }

    #[test]
    fn edge_norm_is_monotone_in_subset(g in arb_graph(), seed in any::<u64>(), p in 1.0f64..4.0) {
        let n = g.num_vertices();
        let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 3) as f64).collect();
        let small = VertexSet::from_iter(n, (0..n as u32).filter(|v| (seed >> (v % 47)) & 1 == 1));
        let big = VertexSet::full(n);
        prop_assert!(edge_norm_p(&g, &costs, &small, p) <= edge_norm_p(&g, &costs, &big, p) + 1e-9);
    }

    #[test]
    fn vertex_set_roundtrip(ids in proptest::collection::btree_set(0u32..200, 0..100)) {
        let s = VertexSet::from_iter(200, ids.iter().copied());
        prop_assert_eq!(s.len(), ids.len());
        let back: Vec<u32> = s.iter().collect();
        let expect: Vec<u32> = ids.into_iter().collect();
        prop_assert_eq!(back, expect);
    }

    #[test]
    fn disjoint_union_preserves_norms(copies in 1usize..5) {
        let base = graph_from_edges(4, &[(0,1),(1,2),(2,3),(0,3)]);
        let costs = vec![1.0, 2.0, 3.0, 4.0];
        let u = disjoint_copies(&base, &costs, copies);
        // ‖c̃‖_p^p = copies · ‖c‖_p^p.
        let p = 2.0;
        let base_pow: f64 = costs.iter().map(|c| c.powf(p)).sum();
        let union_pow: f64 = u.costs.iter().map(|c| c.powf(p)).sum();
        prop_assert!((union_pow - copies as f64 * base_pow).abs() < 1e-9);
        let w = vec![1.0, 5.0, 2.0, 7.0];
        let wt = replicate_measure(&w, copies);
        prop_assert!((norm_1(&wt) - copies as f64 * norm_1(&w)).abs() < 1e-9);
        prop_assert_eq!(norm_inf(&wt), norm_inf(&w));
    }

    #[test]
    fn grid_from_points_degree_bound(n in 1usize..60, seed in any::<u64>()) {
        let g = GridGraph::random_blob(2, n, seed);
        // 2D grid graphs have maximum degree ≤ 2d = 4.
        prop_assert!(g.graph.max_degree() <= 4);
        prop_assert!(g.graph.is_connected());
    }

    #[test]
    fn strict_balance_defect_scale_invariant(scale in 0.001f64..1000.0) {
        let w = vec![4.0, 1.0, 2.0, 3.0, 5.0, 5.0];
        let ws: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let chi = Coloring::from_vec(3, vec![0, 0, 1, 1, 2, 2]);
        let b1 = chi.is_strictly_balanced(&w);
        let b2 = chi.is_strictly_balanced(&ws);
        prop_assert_eq!(b1, b2);
    }

    #[test]
    fn set_sum_splits_additively(seed in any::<u64>()) {
        let phi: Vec<f64> = (0..50).map(|i| (i % 7) as f64 + 0.5).collect();
        let a = VertexSet::from_iter(50, (0..50u32).filter(|v| (seed >> (v % 41)) & 1 == 1));
        let full = VertexSet::full(50);
        let b = full.difference(&a);
        prop_assert!((set_sum(&phi, &a) + set_sum(&phi, &b) - norm_1(&phi)).abs() < 1e-9);
    }
}
