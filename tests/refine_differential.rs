//! Differential suite for boundary-only KL refinement
//! (`mmb_core::refine`) and value-only `InstanceDelta::apply`.
//!
//! [`reference`] keeps the sweep that preceded candidate tracking: every
//! pass visits every vertex, in `0..n`. The boundary-only pass must
//! return the **same coloring** on every case:
//!
//! * hosts: a 64 × 64 grid, a torus, a random geometric graph, a random
//!   tree, preferential attachment, Watts–Strogatz, a star and a path;
//! * starts: random, striped by id, monochromatic, LPT (`greedy_strict`)
//!   and random with a fifth of the vertices uncolored;
//! * k ∈ {1, 2, 3, 8, 16}; unit, uniform `[1, 2)` and zero costs;
//!   uniform, tied, `±0` and spike weights; balance factor 1.0, 1.1 and
//!   1.25; `max_passes` 1, 8 and 30.
//!
//! `apply` is checked against an instance rebuilt independently through
//! `graph_from_edges` for value-only deltas on a bare and a grid-hosted
//! base, both carrying an extra measure, and for one structural delta,
//! which must still rebuild.

use mmb_core::api::{Instance, InstanceDelta};
use mmb_core::refine::{refine, KlParams};
use mmb_core::strict::greedy_strict;
use mmb_graph::gen::attachment::preferential_attachment;
use mmb_graph::gen::geometric::random_geometric;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::lattice::torus;
use mmb_graph::gen::misc::{path, star};
use mmb_graph::gen::smallworld::watts_strogatz;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::graph::graph_from_edges;
use mmb_graph::{Coloring, Graph, VertexId, VertexSet};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The KL sweep that preceded candidate tracking, kept as the oracle.
mod reference {
    use mmb_core::api::{validate_costs, validate_weights, SolveError};
    use mmb_core::refine::KlParams;
    use mmb_graph::{Coloring, Graph};

    /// Refine `chi` by greedy gain moves over every vertex in `0..n`;
    /// returns the improved coloring.
    pub fn refine(
        g: &Graph,
        costs: &[f64],
        weights: &[f64],
        chi: &Coloring,
        params: &KlParams,
    ) -> Result<Coloring, SolveError> {
        let n = g.num_vertices();
        let k = chi.k();
        validate_weights(n, weights)?;
        validate_costs(g.num_edges(), costs)?;
        let mut out = chi.clone();
        if k <= 1 {
            return Ok(out);
        }
        let total_w: f64 = (0..n)
            .filter(|&v| out.get(v as u32).is_some())
            .map(|v| weights[v])
            .sum();
        let cap = params.balance_factor * total_w / k as f64;
        let mut load = out.class_measures(weights);

        for _pass in 0..params.max_passes {
            let mut improved = false;
            for v in 0..n as u32 {
                let Some(c) = out.get(v) else { continue };
                // Gains per adjacent class.
                let mut internal = 0.0;
                let mut external: Vec<(u32, f64)> = Vec::new();
                for &(nb, e) in g.neighbors(v) {
                    let Some(d) = out.get(nb) else { continue };
                    let w = costs[e as usize];
                    if d == c {
                        internal += w;
                    } else if let Some(entry) = external.iter_mut().find(|(x, _)| *x == d) {
                        entry.1 += w;
                    } else {
                        external.push((d, w));
                    }
                }
                // total_cmp + class-id tie-break: ties between equally-attractive
                // target classes must not depend on neighbor-list order.
                let Some(&(best_d, best_ext)) = external
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                else {
                    continue;
                };
                let gain = best_ext - internal;
                let wv = weights[v as usize];
                if gain > 1e-12 && load[best_d as usize] + wv <= cap && load[c as usize] - wv >= 0.0
                {
                    out.set(v, best_d);
                    load[c as usize] -= wv;
                    load[best_d as usize] += wv;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        Ok(out)
    }
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
        ("path 500", path(500)),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Start {
    Random,
    Striped,
    Monochromatic,
    Lpt,
    PartlyUncolored,
}

#[derive(Clone, Copy, Debug)]
enum Costs {
    Unit,
    Uniform,
    Zero,
}

#[derive(Clone, Copy, Debug)]
enum Weights {
    Uniform,
    Tied,
    SignedZeros,
    Spike,
}

const STARTS: [Start; 5] = [
    Start::Random,
    Start::Striped,
    Start::Monochromatic,
    Start::Lpt,
    Start::PartlyUncolored,
];
const KS: [usize; 5] = [1, 2, 3, 8, 16];
const COSTS: [Costs; 3] = [Costs::Unit, Costs::Uniform, Costs::Zero];
const WEIGHTS: [Weights; 4] = [
    Weights::Uniform,
    Weights::Tied,
    Weights::SignedZeros,
    Weights::Spike,
];
const BALANCE: [f64; 3] = [1.0, 1.1, 1.25];
const PASSES: [usize; 3] = [1, 8, 30];

fn costs(family: Costs, m: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..m)
        .map(|_| match family {
            Costs::Unit => 1.0,
            Costs::Uniform => 1.0 + rng.random::<f64>(),
            Costs::Zero => 0.0,
        })
        .collect()
}

fn weights(family: Weights, n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|v| match family {
            Weights::Uniform => 0.5 + rng.random::<f64>(),
            Weights::Tied => 1.0,
            Weights::SignedZeros => [0.0, -0.0, 1.0][v % 3],
            Weights::Spike if v % 97 == 13 => 40.0,
            Weights::Spike => 1.0,
        })
        .collect()
}

fn start(kind: Start, n: usize, k: usize, w: &[f64], rng: &mut StdRng) -> Coloring {
    match kind {
        Start::Random => Coloring::from_fn(n, k, |_| rng.random_range(0..k as u32)),
        Start::Striped => Coloring::from_fn(n, k, |v| (v as usize * k / n) as u32),
        Start::Monochromatic => Coloring::monochromatic(n, k),
        Start::Lpt => greedy_strict(n, k, &VertexSet::full(n), w),
        Start::PartlyUncolored => {
            let mut chi = Coloring::new_uncolored(n, k);
            for v in 0..n as VertexId {
                if rng.random_range(0..5u32) != 0 {
                    chi.set(v, rng.random_range(0..k as u32));
                }
            }
            chi
        }
    }
}

/// Every graph × start × k, with the cost, weight, balance and pass
/// families rotated through the cases (each pair of cost and weight
/// families meets).
#[test]
fn boundary_only_passes_match_the_full_sweep() {
    let mut cases = 0usize;
    let mut moved = 0usize;
    for (gi, (name, g)) in graphs().into_iter().enumerate() {
        let (n, m) = (g.num_vertices(), g.num_edges());
        for (si, &kind) in STARTS.iter().enumerate() {
            for (ki, &k) in KS.iter().enumerate() {
                let case = (gi * STARTS.len() + si) * KS.len() + ki;
                let mut rng = StdRng::seed_from_u64(0x6b6c_0000 + case as u64);
                let cost_family = COSTS[case % COSTS.len()];
                let weight_family = WEIGHTS[case % WEIGHTS.len()];
                let params = KlParams {
                    max_passes: PASSES[(case / 3) % PASSES.len()],
                    balance_factor: BALANCE[(case / 9) % BALANCE.len()],
                };
                let c = costs(cost_family, m, &mut rng);
                let w = weights(weight_family, n, &mut rng);
                let chi = start(kind, n, k, &w, &mut rng);
                let label = format!(
                    "{name}, {kind:?} start, k = {k}, {cost_family:?} costs, \
                     {weight_family:?} weights, {params:?}"
                );

                let want = reference::refine(&g, &c, &w, &chi, &params).unwrap();
                let got = refine(&g, &c, &w, &chi, &params).unwrap();
                assert!(got == want, "refine differs: {label}");
                moved += (0..n as VertexId)
                    .filter(|&v| want.get(v) != chi.get(v))
                    .count();
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 8 * 5 * 5);
    assert!(moved > 10_000, "the suite must exercise moves, saw {moved}");
}

/// One mutation of a base instance, kept as plain data so the expected
/// instance is rebuilt from it without `InstanceDelta`.
#[derive(Default)]
struct Edit {
    weights: Vec<(VertexId, f64)>,
    costs: Vec<(u32, f64)>,
    removed: Vec<u32>,
    new_vertices: Vec<f64>,
    new_edges: Vec<(VertexId, VertexId, f64)>,
}

impl Edit {
    fn delta(&self) -> InstanceDelta {
        let mut d = InstanceDelta::new();
        for &(v, x) in &self.weights {
            d = d.set_weight(v, x);
        }
        for &(e, x) in &self.costs {
            d = d.set_cost(e, x);
        }
        for &e in &self.removed {
            d = d.remove_edge(e);
        }
        for &x in &self.new_vertices {
            d = d.add_vertex(x);
        }
        for &(u, v, x) in &self.new_edges {
            d = d.add_edge(u, v, x);
        }
        d
    }

    /// The mutated instance built from scratch through
    /// `graph_from_edges`.
    fn rebuild(&self, base: &Instance) -> Instance {
        let g = base.graph();
        let n = g.num_vertices() + self.new_vertices.len();
        let mut w = base.weights().to_vec();
        let mut c = base.costs().to_vec();
        for &(v, x) in &self.weights {
            w[v as usize] = x;
        }
        for &(e, x) in &self.costs {
            c[e as usize] = x;
        }
        w.extend(&self.new_vertices);
        let mut edges: Vec<(VertexId, VertexId, f64)> = g
            .edge_list()
            .iter()
            .zip(&c)
            .enumerate()
            .filter(|(e, _)| !self.removed.contains(&(*e as u32)))
            .map(|(_, (&(u, v), &x))| (u, v, x))
            .collect();
        for &(u, v, x) in &self.new_edges {
            edges.push((u.min(v), u.max(v), x));
        }
        edges.sort_by_key(|&(u, v, _)| (u, v));
        let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let c = edges.iter().map(|&(_, _, x)| x).collect();
        let mut inst = Instance::new(graph_from_edges(n, &pairs), c, w).unwrap();
        for ex in base.extra_measures() {
            let mut ex = ex.clone();
            ex.resize(n, 0.0);
            inst = inst.with_extra_measure(ex).unwrap();
        }
        inst
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_instance(label: &str, got: &Instance, want: &Instance) {
    let (g, h) = (got.graph(), want.graph());
    assert_eq!(g.num_vertices(), h.num_vertices(), "{label}: n");
    assert_eq!(g.edge_list(), h.edge_list(), "{label}: edge list");
    for v in 0..g.num_vertices() as VertexId {
        assert_eq!(g.neighbors(v), h.neighbors(v), "{label}: adjacency of {v}");
    }
    assert_eq!(bits(got.costs()), bits(want.costs()), "{label}: costs");
    assert_eq!(
        bits(got.weights()),
        bits(want.weights()),
        "{label}: weights"
    );
    assert_eq!(
        got.extra_measures().len(),
        want.extra_measures().len(),
        "{label}: extra measures"
    );
    for (a, b) in got.extra_measures().iter().zip(want.extra_measures()) {
        assert_eq!(bits(a), bits(b), "{label}: extra measure");
    }
    assert_eq!(
        got.fingerprint(),
        want.fingerprint(),
        "{label}: fingerprint"
    );
    let aggregates = |i: &Instance| {
        bits(&[
            i.max_weight(),
            i.total_weight(),
            i.max_cost(),
            i.total_cost(),
            i.max_cost_degree(),
        ])
    };
    assert_eq!(aggregates(got), aggregates(want), "{label}: aggregates");
    assert_eq!(got.grid().is_some(), want.grid().is_some(), "{label}: grid");
}

#[test]
fn value_only_apply_matches_a_rebuild() {
    let mut rng = StdRng::seed_from_u64(0xde17a);
    let grid = GridGraph::lattice(&[12, 10]);
    let ws = watts_strogatz(300, 3, 0.2, 11);
    let bases = [
        ("bare", {
            let (n, m) = (ws.num_vertices(), ws.num_edges());
            let c = costs(Costs::Uniform, m, &mut rng);
            let w = weights(Weights::Uniform, n, &mut rng);
            Instance::new(ws, c, w).unwrap()
        }),
        ("grid-hosted", {
            let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
            let c = costs(Costs::Uniform, m, &mut rng);
            let w = weights(Weights::Spike, n, &mut rng);
            Instance::from_grid(grid, c, w).unwrap()
        }),
    ];
    for (name, base) in bases {
        let extra = (0..base.num_vertices()).map(|v| (v % 7) as f64).collect();
        let base = base.with_extra_measure(extra).unwrap();
        let (n, m) = (base.num_vertices() as u32, base.num_edges() as u32);
        // The same vertex and the same edge twice: the later value wins.
        let v = rng.random_range(0..n);
        let weight_edit = vec![
            (v, 9.0),
            (rng.random_range(0..n), 0.0),
            (v, 2.5),
            (rng.random_range(0..n), -0.0),
        ];
        let e = rng.random_range(0..m);
        let cost_edit = vec![(e, 4.0), (rng.random_range(0..m), 0.0), (e, 0.25)];
        let (v, f) = (rng.random_range(0..n), rng.random_range(0..m));
        let edits = [
            ("empty", Edit::default()),
            (
                "weights",
                Edit {
                    weights: weight_edit.clone(),
                    ..Edit::default()
                },
            ),
            (
                "costs",
                Edit {
                    costs: cost_edit.clone(),
                    ..Edit::default()
                },
            ),
            (
                "weights and costs",
                Edit {
                    weights: weight_edit,
                    costs: cost_edit,
                    ..Edit::default()
                },
            ),
            (
                "values set to themselves",
                Edit {
                    weights: vec![(v, base.weights()[v as usize])],
                    costs: vec![(f, base.costs()[f as usize])],
                    ..Edit::default()
                },
            ),
        ];
        for (edit_name, edit) in edits {
            let label = format!("{name} base, {edit_name}");
            let applied = edit.delta().apply(&base).unwrap();
            assert_same_instance(&label, &applied, &edit.rebuild(&base));
            // Nothing structural changed.
            assert_eq!(
                applied.fingerprint().structure,
                base.fingerprint().structure,
                "{label}"
            );
        }

        // A structural delta still rebuilds: the topology moves.
        let (u, w) = base.graph().endpoints(f);
        let edit = Edit {
            weights: vec![(v, 3.0)],
            costs: vec![(rng.random_range(0..m), 1.5)],
            removed: vec![f],
            new_vertices: vec![2.0],
            new_edges: vec![(n, u, 0.75), (w, n, 1.25)],
        };
        let label = format!("{name} base, structural");
        let applied = edit.delta().apply(&base).unwrap();
        assert_same_instance(&label, &applied, &edit.rebuild(&base));
        assert_ne!(
            applied.graph().edge_list(),
            base.graph().edge_list(),
            "{label}"
        );
    }
}
