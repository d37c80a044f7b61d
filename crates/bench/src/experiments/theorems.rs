//! Experiments E1–E3, E5, E6: the paper's upper-bound theorems.
//!
//! E1/E2/E6 drive the pipeline through the [`Instance`]/[`Solver`] API;
//! the [`Report`](mmb_core::api::Report) already carries the Theorem-5
//! right-hand side and measured/bound ratio the tables print.

use mmb_core::api::{Instance, Solver};
use mmb_core::bounds;
use mmb_core::multibalance::multibalance_ws;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::measure::{norm_1, norm_inf, total_edge_norm_p};
use mmb_graph::{VertexSet, Workspace};
use mmb_instances::costs::CostFamily;
use mmb_instances::weights::{WeightFamily, ALL_FAMILIES};
use mmb_splitters::grid::{theorem19_bound, GridSplitter};
use mmb_splitters::Splitter;

use crate::table::Table;
use crate::{fmt, timed};

/// E1 — Theorem 4/5 upper bound on the maximum boundary cost of strictly
/// balanced colorings, across grid dimension, size, `k`, and weights.
pub fn e1(quick: bool) -> Table {
    let mut t = Table::new(
        "E1: Theorem 4/5 — max boundary of strictly balanced k-colorings vs ‖c‖_p/k^{1/p} + ‖c‖∞",
        &[
            "graph", "p", "weights", "k", "max ∂", "bound", "ratio", "strict",
        ],
    );
    let sides_2d: &[usize] = if quick { &[24] } else { &[24, 48, 96] };
    let ks: &[usize] = if quick { &[4, 16] } else { &[4, 16, 64] };
    let fams = [WeightFamily::Constant, WeightFamily::PowerLaw];

    for &side in sides_2d {
        let grid = GridGraph::lattice(&[side, side]);
        run_e1_rows(
            &mut t,
            &grid,
            2.0,
            &format!("grid {side}x{side}"),
            ks,
            &fams,
        );
    }
    let sides_3d: &[usize] = if quick { &[8] } else { &[8, 14] };
    for &side in sides_3d {
        let grid = GridGraph::lattice(&[side, side, side]);
        run_e1_rows(&mut t, &grid, 1.5, &format!("grid {side}^3"), ks, &fams);
    }
    t.note("ratio = measured / Theorem-5 RHS with constant 1; bounded & flat across scales ⇒ reproduced");
    t
}

fn run_e1_rows(
    t: &mut Table,
    grid: &GridGraph,
    p: f64,
    label: &str,
    ks: &[usize],
    fams: &[WeightFamily],
) {
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    for fam in fams {
        let weights = fam.generate(n, 11);
        let inst =
            Instance::from_grid(grid.clone(), costs.clone(), weights).expect("valid instance");
        for &k in ks {
            let report = Solver::for_instance(&inst)
                .classes(k)
                .p(p)
                .build()
                .expect("valid instance")
                .solve();
            t.row(vec![
                label.into(),
                fmt(p),
                fam.name().into(),
                k.to_string(),
                fmt(report.max_boundary),
                fmt(report.bound),
                fmt(report.bound_ratio),
                if report.is_strictly_balanced() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
}

/// E2 — Definition 1: eq. (1) holds *exactly* for every output coloring,
/// under every adversarial weight family.
pub fn e2(quick: bool) -> Table {
    let mut t = Table::new(
        "E2: strict balance eq.(1): |w(class) − avg| ≤ (1 − 1/k)·‖w‖∞, all families",
        &["weights", "k", "max |dev|", "slack", "defect", "strict"],
    );
    let side = if quick { 24 } else { 48 };
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let ks: &[usize] = if quick { &[2, 16] } else { &[2, 5, 16, 64] };
    for fam in ALL_FAMILIES {
        let weights = fam.generate(n, 23);
        let inst =
            Instance::from_grid(grid.clone(), costs.clone(), weights).expect("valid instance");
        for &k in ks {
            let report = Solver::for_instance(&inst)
                .classes(k)
                .build()
                .expect("valid instance")
                .solve();
            let avg = norm_1(&report.class_weights) / k as f64;
            let dev = report
                .class_weights
                .iter()
                .map(|&x| (x - avg).abs())
                .fold(0.0, f64::max);
            t.row(vec![
                fam.name().into(),
                k.to_string(),
                fmt(dev),
                fmt(report.strict_slack),
                fmt(report.strict_defect),
                if report.is_strictly_balanced() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    t.note("defect = max|dev| − slack must be ≤ 0 (exact guarantee, not asymptotic)");
    t
}

/// E3 — Lemma 6: multi-balanced colorings for r = 1..4 measures; all class
/// measures stay O(avg + max) while avg boundary tracks B.
pub fn e3(quick: bool) -> Table {
    let mut t = Table::new(
        "E3: Lemma 6 — multi-balanced colorings, r measures at once",
        &[
            "r",
            "k",
            "worst balance factor",
            "avg ∂",
            "B = q·σ‖c‖_p/k^{1/p}",
            "∂/B",
        ],
    );
    let side = if quick { 24 } else { 48 };
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let sp = GridSplitter::new(&grid, &costs);
    let domain = VertexSet::full(n);
    let k = 12;
    // Synthetic measures with very different spatial profiles.
    let measures: Vec<Vec<f64>> = vec![
        (0..n).map(|v| 1.0 + (v % 3) as f64).collect(),
        (0..n as u32)
            .map(|v| {
                if grid.coord(v)[0] < side as i64 / 4 {
                    8.0
                } else {
                    0.2
                }
            })
            .collect(),
        (0..n as u32)
            .map(|v| if grid.coord(v)[1] % 7 == 0 { 5.0 } else { 0.5 })
            .collect(),
        (0..n).map(|v| ((v * 37) % 11) as f64 + 0.1).collect(),
    ];
    let cnorm = total_edge_norm_p(&grid.graph, &costs, 2.0);
    let ws = Workspace::new();
    for r in 1..=4usize {
        let ms: Vec<&[f64]> = measures[..r].iter().map(|m| m.as_slice()).collect();
        let chi = multibalance_ws(&sp, k, &domain, &ms, &ws);
        let worst = ms
            .iter()
            .map(|m| {
                let cm = chi.class_measures(m);
                let avg = norm_1(m) / k as f64;
                norm_inf(&cm) / (avg + norm_inf(m))
            })
            .fold(0.0, f64::max);
        let bc = chi.boundary_costs(&grid.graph, &costs);
        let avg_b = norm_1(&bc) / k as f64;
        let b = bounds::lemma9_b(1.0, 2.0, k, cnorm);
        t.row(vec![
            r.to_string(),
            k.to_string(),
            fmt(worst),
            fmt(avg_b),
            fmt(b),
            fmt(avg_b / b),
        ]);
    }
    t.note("balance factor = max_j ‖Φ⁽ʲ⁾χ⁻¹‖∞ / (‖Φ⁽ʲ⁾‖avg + ‖Φ⁽ʲ⁾‖∞): must stay O_r(1)");
    t
}

/// E5 — Theorem 19: GridSplit cost vs `d·log^{1/d}(φ+1)·‖c‖_{d/(d−1)}`
/// across dimension and fluctuation.
pub fn e5(quick: bool) -> Table {
    let mut t = Table::new(
        "E5: Theorem 19 — GridSplit cost vs d·log^{1/d}(φ+1)·‖c‖_{d/(d−1)}",
        &[
            "grid",
            "d",
            "cost family",
            "φ",
            "cut cost",
            "bound",
            "ratio",
        ],
    );
    let phis: &[f64] = if quick {
        &[1.0, 1e3]
    } else {
        &[1.0, 10.0, 1e3, 1e6]
    };
    let dims: Vec<(Vec<usize>, &str)> = if quick {
        vec![
            (vec![1024], "path 1024"),
            (vec![32, 32], "grid 32²"),
            (vec![10, 10, 10], "grid 10³"),
        ]
    } else {
        vec![
            (vec![4096], "path 4096"),
            (vec![64, 64], "grid 64²"),
            (vec![16, 16, 16], "grid 16³"),
        ]
    };
    for (dims, label) in &dims {
        let d = dims.len();
        let p = if d == 1 {
            2.0
        } else {
            d as f64 / (d as f64 - 1.0)
        };
        let grid = GridGraph::lattice(dims);
        let n = grid.graph.num_vertices();
        let w = VertexSet::full(n);
        let weights = vec![1.0; n];
        for fam in [CostFamily::LogUniform, CostFamily::TwoLevel] {
            for &phi in phis {
                let costs = fam.generate(&grid, phi, 31);
                let sp = GridSplitter::new(&grid, &costs);
                let u = sp.split(&w, &weights, n as f64 / 2.0);
                let cut = mmb_graph::cut::boundary_cost_within(&grid.graph, &costs, &w, &u);
                let cnorm = total_edge_norm_p(&grid.graph, &costs, p);
                let bound = theorem19_bound(d, phi, cnorm);
                t.row(vec![
                    label.to_string(),
                    d.to_string(),
                    fam.name().into(),
                    fmt(phi),
                    fmt(cut),
                    fmt(bound),
                    fmt(cut / bound),
                ]);
            }
        }
    }
    t.note("p = d/(d−1) (p = 2 for the path); ratio must stay bounded as φ sweeps 6 decades");
    t
}

/// E6 — running time: near-linear in |G|, multiplicative in log k
/// (Theorem 4); coarse wall-clock shape (`perfbench/` gives end-to-end
/// and per-layer times). Timed per `solve()` on a prebuilt [`Solver`], so
/// the figure is the marginal serve cost, not the one-time build.
pub fn e6(quick: bool) -> Table {
    let mut t = Table::new(
        "E6: Theorem 4 running time — t(|G|)·log k shape",
        &["side", "n", "k", "ms/solve", "ms / (n·log₂k)"],
    );
    let sides: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    for &side in sides {
        let grid = GridGraph::lattice(&[side, side]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = WeightFamily::Uniform.generate(n, 3);
        let inst = Instance::from_grid(grid, costs, weights).expect("valid instance");
        for k in [4usize, 16, 64] {
            let solver = Solver::for_instance(&inst)
                .classes(k)
                .build()
                .expect("valid instance");
            let (report, ms) = timed(|| solver.solve());
            assert!(report.is_strictly_balanced());
            let denom = n as f64 * (k as f64).log2();
            t.row(vec![
                side.to_string(),
                n.to_string(),
                k.to_string(),
                fmt(ms),
                fmt(ms / denom * 1e3),
            ]);
        }
    }
    t.note("last column in µs; flat across rows ⇒ O(|G|·log k) shape (constants include shrink layers)");
    t
}
