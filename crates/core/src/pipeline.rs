//! Configuration of the Theorem 4 pipeline: Proposition 7 →
//! Proposition 11 → Proposition 12.
//!
//! ```text
//! χ₁ = multibalance_minmax_with_pi_ws(w, π, extra)   // weakly balanced,
//!                                                    // bounded max boundary
//! χ₂ = almost_strict_ws(χ₁)                          // within 2‖w‖∞ of avg
//! χ₃ = binpack2(χ₂)                                  // eq. (1) exactly
//! ```
//!
//! The result is a strictly balanced `k`-coloring with maximum boundary
//! cost `O_p(σ_p·(k^{−1/p}·‖c‖_p + Δ_c))`; the conclusion's multi-balanced
//! variant (weak balance in arbitrary extra measures, strict balance in
//! `w`) falls out of the same run when the
//! [`Instance`](crate::api::Instance) carries extra measures.
//! [`Solver`](crate::api::Solver) runs the stages; this module holds the
//! knobs it reads.

use crate::coarsen::CoarsenParams;
use crate::refine::KlParams;
use crate::shrink::ShrinkParams;

/// The coarsening cascade knob of [`PipelineConfig`]: contract the host
/// graph to roughly [`CoarsenParams::target_vertices`] before the
/// divide-and-conquer runs, then project back with per-level KL
/// refinement and a final host-level `BinPack2` that restores strict
/// balance exactly (projection preserves class *weights* but the host's
/// smaller `‖w‖∞` tightens eq. (1), so a rebalance is mandatory — see
/// DESIGN.md §13).
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// Cascade stops (target size, level cap, matching seed).
    pub params: CoarsenParams,
    /// Per-level KL refinement applied on the way back up. Kept light by
    /// default (2 passes): each level pays an `O(n + m)` set-up, then
    /// each pass visits only that level's boundary vertices.
    pub kl: KlParams,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        Self {
            params: CoarsenParams::default(),
            kl: KlParams {
                max_passes: 2,
                balance_factor: 1.1,
            },
        }
    }
}

/// Configuration of the decomposition pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Norm exponent `p > 1` of the splittability assumption (use
    /// `d/(d−1)` for `d`-dimensional grids, `2` for planar-ish inputs).
    pub p: f64,
    /// Shrink-and-conquer tunables.
    pub shrink: ShrinkParams,
    /// Skip the shrink stage and go straight from Proposition 7 to
    /// BinPack2 (ablation switch for experiment E8).
    pub skip_shrink: bool,
    /// Coarsening cascade for very large hosts: `Some(cfg)` contracts the
    /// graph to `cfg.params.target_vertices` first, runs the three stages
    /// there, and projects back (see [`CoarsenConfig`]). `None` (default)
    /// solves the host directly — the theorem-faithful path. Instances
    /// already at or below the target are solved directly either way.
    pub coarsen: Option<CoarsenConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            p: 2.0,
            shrink: ShrinkParams::default(),
            skip_shrink: false,
            coarsen: None,
        }
    }
}

impl PipelineConfig {
    /// Config with a given `p`.
    pub fn with_p(p: f64) -> Self {
        Self {
            p,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Instance, InstanceError, Report, SolveError, Solver};
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::norm_inf;

    fn solve(inst: &Instance, k: usize, cfg: PipelineConfig) -> Report {
        Solver::for_instance(inst)
            .classes(k)
            .config(cfg)
            .build()
            .unwrap()
            .solve()
    }

    #[test]
    fn end_to_end_on_grid() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 31) % 5) as f64).collect();
        let inst = Instance::from_grid(grid, costs, weights.clone()).unwrap();
        for k in [2usize, 3, 8] {
            let r = solve(&inst, k, PipelineConfig::with_p(2.0));
            assert!(r.coloring.is_total());
            assert!(
                r.coloring.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                r.strict_defect
            );
            assert!(r.max_boundary > 0.0);
        }
    }

    #[test]
    fn input_validation() {
        let grid = GridGraph::lattice(&[3, 3]);
        let g = grid.graph;
        let costs = vec![1.0; g.num_edges()];
        let w9 = vec![1.0; 9];
        let inst = Instance::new(g.clone(), costs.clone(), w9.clone()).unwrap();
        assert_eq!(
            Solver::for_instance(&inst).classes(0).build().unwrap_err(),
            SolveError::ZeroColors
        );
        assert!(matches!(
            Instance::new(g.clone(), costs.clone(), vec![1.0; 5]).unwrap_err(),
            InstanceError::WeightLength { .. }
        ));
        assert!(matches!(
            Instance::new(g.clone(), vec![1.0; 3], w9.clone()).unwrap_err(),
            InstanceError::CostLength { .. }
        ));
        for bad in [f64::NAN, -1.0] {
            let mut w = w9.clone();
            w[0] = bad;
            assert_eq!(
                Instance::new(g.clone(), costs.clone(), w).unwrap_err(),
                InstanceError::NotFinite { what: "weights" }
            );
        }
        assert!(matches!(
            inst.with_extra_measure(vec![1.0; 4]).unwrap_err(),
            InstanceError::MeasureLength { .. }
        ));
    }

    #[test]
    fn k_larger_than_n() {
        let grid = GridGraph::lattice(&[3, 3]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; 9];
        let inst = Instance::from_grid(grid, costs, weights.clone()).unwrap();
        let r = solve(&inst, 20, PipelineConfig::default());
        assert!(r.coloring.is_total());
        assert!(r.coloring.is_strictly_balanced(&weights));
    }

    #[test]
    fn extra_measures_get_weakly_balanced() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights = vec![1.0; n];
        // A second resource concentrated on a corner block.
        let mem: Vec<f64> = (0..n as u32)
            .map(|v| {
                let c = grid.coord(v);
                if c[0] < 4 && c[1] < 4 {
                    8.0
                } else {
                    0.25
                }
            })
            .collect();
        let k = 8;
        let inst = Instance::from_grid(grid, costs, weights.clone())
            .unwrap()
            .with_extra_measure(mem.clone())
            .unwrap();
        let r = solve(&inst, k, PipelineConfig::default());
        assert!(r.coloring.is_strictly_balanced(&weights));
        let mem_classes = r.coloring.class_measures(&mem);
        let mem_avg: f64 = mem.iter().sum::<f64>() / k as f64;
        let mem_max_class = norm_inf(&mem_classes);
        // Weak balance: O(avg + max) with moderate constants.
        assert!(
            mem_max_class <= 12.0 * mem_avg + 64.0 * norm_inf(&mem),
            "extra measure unbalanced: {mem_max_class} vs avg {mem_avg}"
        );
    }

    #[test]
    fn skip_shrink_ablation_still_strict() {
        let grid = GridGraph::lattice(&[12, 12]);
        let n = grid.graph.num_vertices();
        let costs = vec![1.0; grid.graph.num_edges()];
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
        let inst = Instance::from_grid(grid, costs, weights.clone()).unwrap();
        let cfg = PipelineConfig {
            skip_shrink: true,
            ..PipelineConfig::default()
        };
        let r = solve(&inst, 6, cfg);
        assert!(r.coloring.is_strictly_balanced(&weights));
    }
}
