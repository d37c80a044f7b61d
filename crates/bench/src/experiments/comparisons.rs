//! Experiments E4, E7–E12: lower bounds, baseline comparisons, ablations.
//!
//! The comparison experiments (E4, E7, E10) iterate algorithms through the
//! [`Partitioner`] interface, so "ours vs baselines" is literally one loop
//! over `&[&dyn Partitioner]` on a shared [`Instance`].

use mmb_baselines::greedy::{FirstFit, Lpt};
use mmb_baselines::multilevel::Multilevel;
use mmb_baselines::recursive_bisection::{recursive_bisection, RecursiveBisection};
use mmb_core::api::{
    auto_splitter, Instance, Partitioner, Report, SolveError, Solver, Theorem4Pipeline,
};
use mmb_core::multibalance::multibalance_minmax_with_pi_ws;
use mmb_core::pi::splitting_cost_measure_within;
use mmb_core::pipeline::PipelineConfig;
use mmb_core::refine::{refine, KlParams};
use mmb_core::shrink::almost_strict_ws;
use mmb_core::strict::binpack2;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::tree::complete_binary_tree;
use mmb_graph::measure::{norm_1, norm_inf, total_edge_norm_p};
use mmb_graph::{Coloring, VertexSet, Workspace};
use mmb_instances::climate::{climate, ClimateParams, ClimateWorkload};
use mmb_instances::costs::CostFamily;
use mmb_instances::tight::TightInstance;
use mmb_splitters::grid::{theorem19_bound, GridSplitter};
use mmb_splitters::separator::{GridSlabSeparator, SeparatorSplitter, TreeCentroidSeparator};
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;
use rayon::prelude::*;

use crate::table::Table;
use crate::{fmt, run_scored};

/// The exponent `p` of the comparison tables' reports: the pipeline's
/// default (no table here prints a Theorem-5 bound that depends on it).
const P: f64 = 2.0;

/// Build the GridGraph twin of a `TightInstance::grid` union so GridSplit
/// can drive our pipeline on it (same ids: copy-major, then base id).
fn tight_grid_twin(side: usize, k: usize) -> GridGraph {
    let base = GridGraph::lattice(&[side, side]);
    GridGraph::disjoint_copies(&base, k / 4)
}

/// The tight instance as an [`Instance`] carrying the twin's geometry.
fn tight_instance(tight: &TightInstance, side: usize, k: usize) -> Instance {
    let twin = tight_grid_twin(side, k);
    assert_eq!(twin.graph.num_vertices(), tight.union.graph.num_vertices());
    assert_eq!(twin.graph.num_edges(), tight.union.graph.num_edges());
    Instance::from_grid(twin, tight.union.costs.clone(), tight.weights.clone())
        .expect("tight instances are well-formed")
}

/// The climate workload as an [`Instance`] (geometry preserved).
fn climate_instance(wl: &ClimateWorkload) -> Instance {
    Instance::from_grid(wl.grid.clone(), wl.costs.clone(), wl.weights.clone())
        .expect("climate workload is well-formed")
}

/// Recursive bisection followed by Kernighan–Lin refinement — the
/// composite engineering baseline, expressed as its own [`Partitioner`].
struct RbKl;

impl Partitioner for RbKl {
    fn name(&self) -> &str {
        "RB + KL refine"
    }

    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        let (splitter, _) = auto_splitter(inst);
        let rb = recursive_bisection(inst.graph(), &splitter, inst.weights(), k)?;
        refine(
            inst.graph(),
            inst.costs(),
            inst.weights(),
            &rb,
            &KlParams::default(),
        )
    }
}

/// E4 — Theorem 5 lower bound (Lemma 40): on `G̃` every roughly balanced
/// coloring pays; nobody beats the certificate, and ours stays within a
/// constant of it while being *strictly* balanced.
pub fn e4(quick: bool) -> Table {
    let mut t = Table::new(
        "E4: Lemma 40 lower bound on G̃ = ⌊k/4⌋ copies — avg boundary ≥ certificate",
        &[
            "k",
            "algorithm",
            "avg ∂",
            "LB",
            "avg/LB",
            "rough-bal",
            "strict",
        ],
    );
    let side = if quick { 8 } else { 12 };
    let ks: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    let algos: [&dyn Partitioner; 5] = [
        &Theorem4Pipeline::default(),
        &Lpt,
        &FirstFit,
        &RecursiveBisection { kst: false },
        &Multilevel::default(),
    ];
    // Per-instance loop on the thread pool: each `k` builds its own tight
    // instance (certificate search included) and scores every algorithm;
    // rows are re-assembled in `k` order, so the table is identical to the
    // sequential loop's for any thread count.
    let row_blocks: Vec<Vec<Vec<String>>> = ks
        .par_iter()
        .map(|&k| {
            let tight = TightInstance::grid(side, k);
            let inst = tight_instance(&tight, side, k);
            let lb = tight.avg_boundary_lower_bound();
            algos
                .iter()
                .map(|&algo| {
                    let (r, _) = run_scored(algo, &inst, k, P).expect("valid instance");
                    let (avg, lower, rough) = tight.check(&r.coloring);
                    vec![
                        k.to_string(),
                        r.splitter,
                        fmt(avg),
                        fmt(lower),
                        fmt(avg / lb.max(1e-300)),
                        if rough { "yes".into() } else { "no*".into() },
                        if r.strict { "yes".into() } else { "no".into() },
                    ]
                })
                .collect()
        })
        .collect();
    for block in row_blocks {
        for row in block {
            t.row(row);
        }
    }
    t.note("LB applies to roughly balanced colorings (‖wχ⁻¹‖∞ ≤ 2·avg); avg/LB ≥ 1 reproduces the bound");
    t.note("* colorings that are not roughly balanced escape the LB's precondition, not the bound");
    t
}

/// E7 — the §1 comparison on the climate workload: greedy balances but
/// pays huge boundaries; bisection-style methods bound boundaries but not
/// strict balance; the Theorem 4 pipeline does both.
pub fn e7(quick: bool) -> Table {
    let mut t = Table::new(
        "E7: climate load balancing — balance AND boundary, no trade-off (§1)",
        &[
            "algorithm",
            "max w / avg w",
            "strict",
            "max ∂",
            "avg ∂",
            "ms",
        ],
    );
    let params = if quick {
        ClimateParams {
            lon: 48,
            lat: 24,
            ..Default::default()
        }
    } else {
        ClimateParams {
            lon: 128,
            lat: 64,
            ..Default::default()
        }
    };
    let wl = climate(&params);
    let inst = climate_instance(&wl);
    let k = 16;
    let algos: [&dyn Partitioner; 7] = [
        &Theorem4Pipeline::default(),
        &Lpt,
        &FirstFit,
        &RecursiveBisection { kst: false },
        &RecursiveBisection { kst: true },
        &RbKl,
        &Multilevel::default(),
    ];
    for algo in algos {
        let (r, millis) = run_scored(algo, &inst, k, P).expect("valid instance");
        let avg_w = norm_1(&r.class_weights) / r.k as f64;
        let max_over_avg = if avg_w > 0.0 {
            norm_inf(&r.class_weights) / avg_w
        } else {
            1.0
        };
        t.row(vec![
            r.splitter,
            fmt(max_over_avg),
            if r.strict { "yes".into() } else { "no".into() },
            fmt(r.max_boundary),
            fmt(r.avg_boundary),
            fmt(millis),
        ]);
    }
    t.note("claim reproduced if ours is the only strict row whose max ∂ is within a small factor of the best");
    t
}

/// E8 — Propositions 11/12 ablation: strictness costs only a constant
/// factor in boundary. The three stages run here one by one on the
/// solver's auto-selected splitter, so each intermediate coloring can be
/// scored; the last one must be exactly what [`Solver::solve`] serves.
pub fn e8(quick: bool) -> Table {
    let mut t = Table::new(
        "E8: no balance/boundary trade-off — boundary across pipeline stages",
        &["stage", "max ∂", "balance defect", "strict"],
    );
    let params = if quick {
        ClimateParams {
            lon: 48,
            lat: 24,
            ..Default::default()
        }
    } else {
        ClimateParams {
            lon: 96,
            lat: 48,
            ..Default::default()
        }
    };
    let wl = climate(&params);
    let inst = climate_instance(&wl);
    let k = 12;
    let cfg = PipelineConfig::default();
    let (g, costs, weights, domain) = (inst.graph(), inst.costs(), inst.weights(), inst.domain());
    let (splitter, _) = auto_splitter(&inst);
    let pi = splitting_cost_measure_within(g, costs, cfg.p, 1.0, domain);
    let ws = Workspace::new();
    let stage1 =
        multibalance_minmax_with_pi_ws(g, costs, &splitter, k, domain, &[weights], &pi, &ws)
            .coloring;
    let stage2 = almost_strict_ws(
        g,
        costs,
        &splitter,
        &stage1,
        domain,
        weights,
        cfg.p,
        &cfg.shrink,
        &ws,
    );
    let stage3 = binpack2(g, &splitter, &stage2, domain, weights);
    let served = Solver::for_instance(&inst)
        .classes(k)
        .config(cfg.clone())
        .build()
        .expect("valid instance")
        .solve();
    assert_eq!(
        stage3, served.coloring,
        "E8's stage-by-stage run diverged from Solver::solve"
    );
    // Ablation: skipping the shrink stage (BinPack2 alone must repair a
    // weakly balanced coloring — more boundary damage).
    let ablated = Solver::for_instance(&inst)
        .classes(k)
        .config(PipelineConfig {
            skip_shrink: true,
            ..PipelineConfig::default()
        })
        .build()
        .expect("valid instance")
        .solve();
    let rows = [
        ("1: Prop 7 (weakly balanced)", stage1),
        ("2: Prop 11 (almost strict)", stage2),
        ("3: Prop 12 (strict)", stage3),
        ("ablation: skip shrink", ablated.coloring),
    ];
    for (name, chi) in rows {
        let r = Report::of(&inst, cfg.p, name, chi);
        t.row(vec![
            r.splitter,
            fmt(r.max_boundary),
            fmt(r.strict_defect),
            if r.strict { "yes".into() } else { "no".into() },
        ]);
    }
    t.note(
        "stage 3 / stage 1 max-∂ ratio bounded by a constant ⇒ strictness is (asymptotically) free",
    );
    t
}

/// Costs with an expensive "wall" of `width` columns centered on the
/// weight median of a 2D grid — the adversarial arrangement where the
/// naive `σ_p(G,1)·φ` generalization actually pays `Θ(φ)`.
pub fn wall_costs(grid: &GridGraph, side: usize, phi: f64, width: usize) -> Vec<f64> {
    let mid = side as i64 / 2 - 1;
    let lo = mid - width as i64 / 2;
    let hi = lo + width as i64 - 1;
    grid.graph
        .edge_list()
        .iter()
        .map(|&(a, b)| {
            let (ca, cb) = (grid.coord(a), grid.coord(b));
            // Only x-direction edges can form the wall.
            if ca[0] != cb[0] && (lo..=hi).contains(&ca[0].min(cb[0])) {
                phi
            } else {
                1.0
            }
        })
        .collect()
}

/// E9 — §6 ablation: cost-aware GridSplit vs the naive unit-cost
/// generalization, sweeping fluctuation φ over two arrangements: iid
/// two-level noise (no structure to exploit) and an expensive wall at the
/// weight median (the adversarial case behind `σ_p(G,1)·φ`).
pub fn e9(quick: bool) -> Table {
    let mut t = Table::new(
        "E9: GridSplit vs unit-cost splitter — log^{1/d}φ vs φ growth",
        &[
            "arrangement",
            "φ",
            "aware cut",
            "blind cut",
            "blind/aware",
            "aware/Thm19",
        ],
    );
    let side = if quick { 32 } else { 64 };
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let w = VertexSet::full(n);
    let weights = vec![1.0; n];
    let phis: &[f64] = if quick {
        &[1.0, 1e3]
    } else {
        &[1.0, 10.0, 1e3, 1e6]
    };
    let run = |costs: &[f64]| -> (f64, f64) {
        let aware = GridSplitter::new(&grid, costs);
        let blind = GridSplitter::unit_cost(&grid);
        let ua = aware.split(&w, &weights, n as f64 / 2.0);
        let ub = blind.split(&w, &weights, n as f64 / 2.0);
        (
            mmb_graph::cut::boundary_cost_within(&grid.graph, costs, &w, &ua),
            mmb_graph::cut::boundary_cost_within(&grid.graph, costs, &w, &ub),
        )
    };
    for &phi in phis {
        // (a) iid two-level noise, averaged over seeds.
        let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4, 5] };
        let (mut aware_sum, mut blind_sum, mut bound_sum) = (0.0, 0.0, 0.0);
        for &seed in seeds {
            let costs = CostFamily::TwoLevel.generate(&grid, phi, seed);
            let (ca, cb) = run(&costs);
            aware_sum += ca;
            blind_sum += cb;
            bound_sum += theorem19_bound(2, phi, total_edge_norm_p(&grid.graph, &costs, 2.0));
        }
        let c = seeds.len() as f64;
        t.row(vec![
            "iid twolevel".into(),
            fmt(phi),
            fmt(aware_sum / c),
            fmt(blind_sum / c),
            fmt(blind_sum / aware_sum),
            fmt(aware_sum / bound_sum),
        ]);
        // (b) expensive wall on the weight median.
        let costs = wall_costs(&grid, side, phi, 2);
        let (ca, cb) = run(&costs);
        let bound = theorem19_bound(2, phi, total_edge_norm_p(&grid.graph, &costs, 2.0));
        t.row(vec![
            "median wall".into(),
            fmt(phi),
            fmt(ca),
            fmt(cb),
            fmt(cb / ca),
            fmt(ca / bound),
        ]);
    }
    t.note(
        "iid noise: parity expected (nothing to exploit; blind's flat plane ≤ aware's staircase)",
    );
    t.note("median wall: blind pays Θ(φ·side) while aware dodges — the §6 motivation");
    t
}

/// E10 — §2 remark: averaging does not help; the average boundary obeys the
/// same Ω(·) bound as the maximum on the tight instances.
pub fn e10(quick: bool) -> Table {
    let mut t = Table::new(
        "E10: avg vs max boundary on tight instances — no free lunch from averaging",
        &[
            "k",
            "avg ∂ (ours)",
            "max ∂ (ours)",
            "LB",
            "avg/LB",
            "max/avg",
        ],
    );
    let side = if quick { 8 } else { 12 };
    let ks: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32] };
    for &k in ks {
        let tight = TightInstance::grid(side, k);
        let inst = tight_instance(&tight, side, k);
        let (r, _) = run_scored(&Theorem4Pipeline::default(), &inst, k, P).expect("valid instance");
        let lb = tight.avg_boundary_lower_bound();
        t.row(vec![
            k.to_string(),
            fmt(r.avg_boundary),
            fmt(r.max_boundary),
            fmt(lb),
            fmt(r.avg_boundary / lb.max(1e-300)),
            fmt(r.max_boundary / r.avg_boundary.max(1e-300)),
        ]);
    }
    t.note("avg/LB ≥ 1 and max/avg = O(1): the average is as lower-bounded as the max");
    t
}

/// E11 — Lemma 37: the separator → splitter reduction performs like the
/// native splitters, in both directions of the equivalence.
pub fn e11(quick: bool) -> Table {
    let mut t = Table::new(
        "E11: Lemma 37 separator ↔ splitter equivalence",
        &[
            "graph",
            "native splitter",
            "native cut",
            "via Split reduction",
            "reduction cut",
            "ratio",
        ],
    );
    // Forest direction.
    let levels = if quick { 10 } else { 13 };
    let tree = complete_binary_tree(levels);
    let nt = tree.num_vertices();
    let tcosts = vec![1.0; tree.num_edges()];
    let wt = vec![1.0; nt];
    let wset = VertexSet::full(nt);
    let native = TreeSplitter::new(&tree);
    let u1 = native.split(&wset, &wt, nt as f64 / 2.0);
    let c1 = mmb_graph::cut::boundary_cost_within(&tree, &tcosts, &wset, &u1);
    let red = SeparatorSplitter::new(&tree, &tcosts, TreeCentroidSeparator::new(&tree), 2.0);
    let u2 = red.split(&wset, &wt, nt as f64 / 2.0);
    let c2 = mmb_graph::cut::boundary_cost_within(&tree, &tcosts, &wset, &u2);
    t.row(vec![
        format!("binary tree 2^{levels}−1"),
        "tree (DFS)".into(),
        fmt(c1),
        "Split(centroid)".into(),
        fmt(c2),
        fmt(c2 / c1.max(1e-300)),
    ]);
    // Grid direction.
    let side = if quick { 24 } else { 48 };
    let grid = GridGraph::lattice(&[side, side]);
    let ng = grid.graph.num_vertices();
    let gcosts = vec![1.0; grid.graph.num_edges()];
    let wg = vec![1.0; ng];
    let gset = VertexSet::full(ng);
    let native = GridSplitter::new(&grid, &gcosts);
    let u1 = native.split(&gset, &wg, ng as f64 / 2.0);
    let c1 = mmb_graph::cut::boundary_cost_within(&grid.graph, &gcosts, &gset, &u1);
    let red = SeparatorSplitter::new(&grid.graph, &gcosts, GridSlabSeparator::new(&grid), 2.0);
    let u2 = red.split(&gset, &wg, ng as f64 / 2.0);
    let c2 = mmb_graph::cut::boundary_cost_within(&grid.graph, &gcosts, &gset, &u2);
    t.row(vec![
        format!("grid {side}²"),
        "GridSplit".into(),
        fmt(c1),
        "Split(slab)".into(),
        fmt(c2),
        fmt(c2 / c1.max(1e-300)),
    ]);
    t.note("bounded ratios in both directions reproduce σ_p = Θ(β_p) for well-behaved instances");
    t
}

/// E12 — conclusion remark: the multi-balanced Theorem 4 — strict in `w`,
/// weakly balanced in arbitrary extra measures, bounded max boundary.
pub fn e12(quick: bool) -> Table {
    let mut t = Table::new(
        "E12: multi-balanced Theorem 4 — strict in w, weak in extra resources",
        &["quantity", "value"],
    );
    let params = if quick {
        ClimateParams {
            lon: 48,
            lat: 24,
            ..Default::default()
        }
    } else {
        ClimateParams {
            lon: 96,
            lat: 48,
            ..Default::default()
        }
    };
    let wl = climate(&params);
    let n = wl.grid.graph.num_vertices();
    let k = 12;
    // Extra resources: memory footprint (∝ activity², heavy tail) and I/O
    // (concentrated on a coastline stripe).
    let mem: Vec<f64> = wl.weights.iter().map(|&w| w * w).collect();
    let io: Vec<f64> = (0..n as u32)
        .map(|v| if wl.grid.coord(v)[1] < 3 { 4.0 } else { 0.1 })
        .collect();
    let inst = climate_instance(&wl)
        .with_extra_measure(mem.clone())
        .and_then(|i| i.with_extra_measure(io.clone()))
        .expect("valid measures");
    let report = Solver::for_instance(&inst)
        .classes(k)
        .build()
        .expect("valid instance")
        .solve();
    t.row(vec![
        "strict in w (eq. 1)".into(),
        if report.is_strictly_balanced() {
            "yes".into()
        } else {
            "NO".into()
        },
    ]);
    for (name, m) in [("mem", &mem), ("io", &io)] {
        let cm = report.coloring.class_measures(m);
        let avg = norm_1(m) / k as f64;
        let factor =
            cm.iter().cloned().fold(0.0, f64::max) / (avg + m.iter().cloned().fold(0.0, f64::max));
        t.row(vec![
            format!("{name}: max class / (avg + max)"),
            fmt(factor),
        ]);
    }
    t.row(vec!["max ∂".into(), fmt(report.max_boundary)]);
    t.row(vec!["Thm 5 bound".into(), fmt(report.bound)]);
    t.note(
        "weak-balance factors O(1) while eq. (1) holds in w ⇒ the conclusion's remark reproduced",
    );
    t
}
