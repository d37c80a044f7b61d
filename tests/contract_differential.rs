//! Differential suite for coarsening's matching and contraction
//! (`mmb_core::coarsen::{heavy_edge_matching, contract}`).
//!
//! [`reference`] keeps two oracles verbatim:
//!
//! * the sort-based contraction that preceded the gather pass: it sorts
//!   every crossing arc `(cu, cv, e)` of the whole graph, sums each run of
//!   equal `(cu, cv)` in that order, and feeds the result through
//!   `GraphBuilder`. The gather pass must return the **same level**: equal
//!   edge lists, equal `(neighbor, edge id)` lists at every vertex, and
//!   costs and weights equal bit for bit (`to_bits`, so `0.0` and `-0.0`
//!   differ);
//! * the heavy-edge matching that scanned every free vertex's adjacency.
//!   The matching that first takes each vertex's precomputed heaviest
//!   neighbor must return the same map and coarse vertex count, under one
//!   thread and under two.
//!
//! Inputs:
//!
//! * maps: heavy-edge matchings at seeds 1–3, and, because `contract`
//!   takes any map, the block map `v ↦ v / 4` and a seeded random
//!   surjection with shuffled groups of up to five vertices;
//! * graphs: a 64 × 64 grid, a torus, a random geometric graph, a random
//!   tree, preferential attachment, Watts–Strogatz, and a star and a
//!   complete graph, whose gather buffers are large and whose matchings
//!   fall back to the adjacency scan most often;
//! * costs and weights: unit, seeded uniform `[0.5, 1.5)`, zeros of both
//!   signs, and an order-sensitive family drawn from `{1e16, 1, 3}`, where
//!   a sum depends on the order of its terms;
//! * whole fronts: every level of `CoarseningFront::build` at n ≈ 10^5,
//!   under one thread and under two, against a front built from both
//!   oracles.

use mmb_core::coarsen::{contract, heavy_edge_matching, CoarsenParams, CoarseningFront};
use mmb_graph::gen::attachment::preferential_attachment;
use mmb_graph::gen::geometric::random_geometric;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::lattice::torus;
use mmb_graph::gen::misc::{complete, path, star};
use mmb_graph::gen::smallworld::watts_strogatz;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::{Graph, GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// The contraction that preceded the gather pass and the matching that
/// preceded the heaviest-neighbor pass, kept verbatim as the oracles.
mod reference {
    use mmb_graph::{Graph, GraphBuilder, VertexId};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;

    pub fn heavy_edge_matching(
        g: &Graph,
        costs: &[f64],
        rng: &mut StdRng,
    ) -> (Vec<VertexId>, usize) {
        let n = g.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut mate = vec![u32::MAX; n];
        for &v in &order {
            if mate[v as usize] != u32::MAX {
                continue;
            }
            let heaviest = g
                .neighbors(v)
                .iter()
                .filter(|&&(nb, _)| mate[nb as usize] == u32::MAX && nb != v)
                // total_cmp + neighbor-id tie-break: matching must not depend
                // on adjacency-list order when edge costs tie.
                .max_by(|a, b| {
                    costs[a.1 as usize]
                        .total_cmp(&costs[b.1 as usize])
                        .then(b.0.cmp(&a.0))
                });
            match heaviest {
                Some(&(nb, _)) => {
                    mate[v as usize] = nb;
                    mate[nb as usize] = v;
                }
                None => mate[v as usize] = v, // singleton
            }
        }
        // Assign coarse ids.
        let mut map = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            if map[v as usize] != u32::MAX {
                continue;
            }
            map[v as usize] = next;
            let m = mate[v as usize];
            if m != u32::MAX && m != v {
                map[m as usize] = next;
            }
            next += 1;
        }
        (map, next as usize)
    }

    pub fn contract(
        g: &Graph,
        costs: &[f64],
        weights: &[f64],
        map: &[VertexId],
        coarse_n: usize,
    ) -> (Graph, Vec<f64>, Vec<f64>) {
        let mut coarse_weights = vec![0.0; coarse_n];
        for v in 0..g.num_vertices() {
            coarse_weights[map[v] as usize] += weights[v];
        }
        let mut arcs: Vec<(u32, u32, u32)> = Vec::new();
        for (e, &(u, v)) in g.edge_list().iter().enumerate() {
            let (cu, cv) = (map[u as usize], map[v as usize]);
            if cu == cv {
                continue;
            }
            let key = if cu < cv { (cu, cv) } else { (cv, cu) };
            arcs.push((key.0, key.1, e as u32));
        }
        arcs.sort_unstable();
        let mut builder = GraphBuilder::new(coarse_n);
        let mut coarse_costs: Vec<f64> = Vec::new();
        let mut i = 0;
        while i < arcs.len() {
            let (u, v, _) = arcs[i];
            let mut c = 0.0;
            while i < arcs.len() && arcs[i].0 == u && arcs[i].1 == v {
                c += costs[arcs[i].2 as usize];
                i += 1;
            }
            builder.add_edge(u, v);
            coarse_costs.push(c);
        }
        (builder.build(), coarse_costs, coarse_weights)
    }
}

fn assert_same_bits(label: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: {what} count");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{label}: {what} {i} is {} (oracle {})", got[i], want[i]);
    }
}

fn assert_same_level(label: &str, got: (&Graph, &[f64], &[f64]), want: (&Graph, &[f64], &[f64])) {
    let ((g, c, w), (rg, rc, rw)) = (got, want);
    assert_eq!(g.num_vertices(), rg.num_vertices(), "{label}: n");
    assert_eq!(g.edge_list(), rg.edge_list(), "{label}: edge list");
    for v in rg.vertices() {
        assert_eq!(g.neighbors(v), rg.neighbors(v), "{label}: adjacency of {v}");
    }
    assert_same_bits(label, "cost", c, rc);
    assert_same_bits(label, "weight", w, rw);
}

fn check(
    label: &str,
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    map: &[VertexId],
    coarse_n: usize,
) {
    let (cg, cc, cw) = contract(g, costs, weights, map, coarse_n);
    let (rg, rc, rw) = reference::contract(g, costs, weights, map, coarse_n);
    assert_same_level(label, (&cg, &cc, &cw), (&rg, &rc, &rw));
}

#[derive(Clone, Copy, Debug)]
enum Values {
    Unit,
    Uniform,
    /// `+0.0` and `-0.0`, alternating.
    Zeros,
    /// Drawn from `{1e16, 1, 3}`: `1e16 + 1 + 1 ≠ 1 + 1 + 1e16`.
    OrderSensitive,
}

const VALUES: [Values; 4] = [
    Values::Unit,
    Values::Uniform,
    Values::Zeros,
    Values::OrderSensitive,
];

fn values(family: Values, len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| match family {
            Values::Unit => 1.0,
            Values::Uniform => 0.5 + rng.random::<f64>(),
            Values::Zeros if i % 2 == 0 => 0.0,
            Values::Zeros => -0.0,
            Values::OrderSensitive => [1e16, 1.0, 3.0][rng.random_range(0..3usize)],
        })
        .collect()
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid 64x64", GridGraph::lattice(&[64, 64]).graph),
        ("torus 24x20", torus(&[24, 20])),
        ("rgg 600", random_geometric(600, 0.08, 7).graph),
        ("random tree 1000", random_tree(1000, 4, 7)),
        ("preferential 800", preferential_attachment(800, 3, 7)),
        ("watts-strogatz 800", watts_strogatz(800, 3, 0.2, 7)),
        ("star 400", star(400)),
        ("complete 36", complete(36)),
    ]
}

/// A seeded random surjection: shuffle the vertices, cut the shuffle into
/// groups of 1–5, and number the groups in shuffle order, so coarse ids
/// follow neither fine ids nor the groups' smallest members.
fn random_surjection(n: usize, seed: u64) -> (Vec<VertexId>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(&mut rng);
    let mut map = vec![0; n];
    let mut groups = 0;
    let mut rest = &order[..];
    while !rest.is_empty() {
        let size = rng.random_range(1..=5usize).min(rest.len());
        for &v in &rest[..size] {
            map[v as usize] = groups as VertexId;
        }
        rest = &rest[size..];
        groups += 1;
    }
    (map, groups)
}

fn maps(g: &Graph, costs: &[f64]) -> Vec<(String, Vec<VertexId>, usize)> {
    let n = g.num_vertices();
    let mut out = Vec::new();
    for seed in 1..=3 {
        let (map, coarse_n) = heavy_edge_matching(g, costs, &mut StdRng::seed_from_u64(seed));
        out.push((format!("matching seed {seed}"), map, coarse_n));
    }
    let block: Vec<VertexId> = (0..n as VertexId).map(|v| v / 4).collect();
    out.push(("block v/4".to_string(), block, n.div_ceil(4)));
    let (map, coarse_n) = random_surjection(n, n as u64);
    out.push(("random surjection".to_string(), map, coarse_n));
    out
}

/// Coarse edges of `map` that aggregate at least three fine edges whose
/// sum in ascending edge-id order differs from the sum in descending
/// order.
fn order_sensitive_edges(g: &Graph, costs: &[f64], map: &[VertexId]) -> usize {
    let mut arcs: Vec<(VertexId, VertexId, usize)> = Vec::new();
    for (e, &(u, v)) in g.edge_list().iter().enumerate() {
        let (cu, cv) = (map[u as usize], map[v as usize]);
        if cu != cv {
            arcs.push((cu.min(cv), cu.max(cv), e));
        }
    }
    arcs.sort_unstable();
    arcs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
        .filter(|run| {
            let up = run.iter().fold(0.0, |c, &(_, _, e)| c + costs[e]);
            let down = run.iter().rev().fold(0.0, |c, &(_, _, e)| c + costs[e]);
            run.len() >= 3 && up.to_bits() != down.to_bits()
        })
        .count()
}

#[test]
fn gather_pass_matches_the_sort_based_contraction() {
    let mut sensitive = 0;
    for (name, g) in graphs() {
        for (i, family) in VALUES.into_iter().enumerate() {
            let costs = values(family, g.num_edges(), 11 + i as u64);
            let weights = values(family, g.num_vertices(), 23 + i as u64);
            for (map_name, map, coarse_n) in maps(&g, &costs) {
                let label = format!("{name} / {family:?} / {map_name}");
                check(&label, &g, &costs, &weights, &map, coarse_n);
                if matches!(family, Values::OrderSensitive) {
                    sensitive += order_sensitive_edges(&g, &costs, &map);
                }
            }
        }
    }
    // Without such edges, summing in any other order would pass too.
    assert!(
        sensitive > 0,
        "no coarse edge's sum depends on the order of its terms"
    );
}

#[test]
fn contraction_corner_cases() {
    // No edges at all; every vertex in one class; and a map that leaves
    // coarse vertices 2 and 4 without a preimage (`contract` takes any
    // map, and such vertices stay isolated).
    let g = GraphBuilder::new(5).build();
    check("edgeless", &g, &[], &[1.0; 5], &[0, 1, 1, 2, 0], 3);
    let g = complete(6);
    let costs = values(Values::Uniform, g.num_edges(), 5);
    check("one class", &g, &costs, &[1.0; 6], &[0; 6], 1);
    let g = path(5);
    check(
        "not onto",
        &g,
        &[1.0, 2.0, 3.0, 4.0],
        &[1.0; 5],
        &[0, 3, 3, 1, 0],
        5,
    );
}

#[test]
fn heaviest_neighbor_matching_matches_the_scanning_loop() {
    for (name, g) in graphs() {
        for (i, family) in VALUES.into_iter().enumerate() {
            let costs = values(family, g.num_edges(), 11 + i as u64);
            for seed in 1..=3 {
                let want =
                    reference::heavy_edge_matching(&g, &costs, &mut StdRng::seed_from_u64(seed));
                for threads in [1, 2] {
                    let got = rayon::with_num_threads(threads, || {
                        heavy_edge_matching(&g, &costs, &mut StdRng::seed_from_u64(seed))
                    });
                    assert!(
                        got == want,
                        "{name} / {family:?} / seed {seed} / {threads} threads: map or coarse n differs"
                    );
                }
            }
        }
    }
}

#[test]
fn front_at_1e5_matches_an_oracle_front() {
    let g = GridGraph::lattice(&[320, 320]).graph;
    let n = g.num_vertices();
    assert!(n >= 100_000);
    let weights: Vec<f64> = (0..n)
        .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
        .collect();
    for family in [Values::Unit, Values::Uniform] {
        let costs = values(family, g.num_edges(), 3);
        let params = CoarsenParams::default();
        let fronts = [1, 2].map(|threads| {
            rayon::with_num_threads(threads, || {
                CoarseningFront::build(&g, &costs, &weights, &params)
            })
        });

        // `CoarseningFront::build`'s loop, with both oracles.
        let mut rng = StdRng::seed_from_u64(params.seed);
        let (mut fg, mut fc, mut fw) = (g.clone(), costs.clone(), weights.clone());
        let mut levels = 0;
        while fg.num_vertices() > params.target_vertices && levels < params.max_levels {
            let (map, coarse_n) = reference::heavy_edge_matching(&fg, &fc, &mut rng);
            if coarse_n == fg.num_vertices() {
                break;
            }
            let (cg, cc, cw) = reference::contract(&fg, &fc, &fw, &map, coarse_n);
            for (front, threads) in fronts.iter().zip([1, 2]) {
                let label = format!("{family:?}, {threads} threads: level {levels}");
                let level = &front.levels()[levels];
                assert!(level.map == map, "{label} map");
                assert_same_level(
                    &label,
                    (&level.graph, &level.costs, &level.weights),
                    (&cg, &cc, &cw),
                );
            }
            (fg, fc, fw) = (cg, cc, cw);
            levels += 1;
        }
        assert!(levels >= 3, "{family:?}: only {levels} levels");
        for front in &fronts {
            assert_eq!(front.num_levels(), levels, "{family:?}: level count");
        }
    }
}
