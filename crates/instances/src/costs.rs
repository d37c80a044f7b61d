//! Edge-cost families with prescribed fluctuation `φ = max c / min c`.
//!
//! Theorem 19's bound grows as `log^{1/d}(φ + 1)`, so the E5/E9 experiments
//! sweep `φ` over orders of magnitude while holding the cost *norm* roughly
//! comparable. All families return costs in `[1, φ]`.
//!
//! Two entry points: [`CostFamily::generate`] for [`GridGraph`]s (the
//! `Gradient` family follows the axis-0 coordinate) and
//! [`CostFamily::generate_for_graph`] for bare [`Graph`]s of any family
//! (the corpus path; `Gradient` follows normalized vertex ids instead).

use mmb_graph::gen::grid::GridGraph;
use mmb_graph::Graph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Named cost families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostFamily {
    /// `c ≡ 1` (φ forced to 1).
    Unit,
    /// Log-uniform in `[1, φ]` — every scale equally represented.
    LogUniform,
    /// Two-level: 90% cheap (1), 10% expensive (φ).
    TwoLevel,
    /// Smooth spatial gradient along axis 0 from 1 to φ (needs coordinates).
    Gradient,
}

/// All families, for sweeps.
pub const ALL_COST_FAMILIES: [CostFamily; 4] = [
    CostFamily::Unit,
    CostFamily::LogUniform,
    CostFamily::TwoLevel,
    CostFamily::Gradient,
];

impl CostFamily {
    /// Short name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            CostFamily::Unit => "unit",
            CostFamily::LogUniform => "loguniform",
            CostFamily::TwoLevel => "twolevel",
            CostFamily::Gradient => "gradient",
        }
    }

    /// Generate costs for a grid graph with target fluctuation `phi ≥ 1`.
    /// `Gradient` follows the axis-0 coordinate; every other family is
    /// [`CostFamily::generate_for_graph`] on the grid's graph.
    pub fn generate(self, grid: &GridGraph, phi: f64, seed: u64) -> Vec<f64> {
        if self != CostFamily::Gradient {
            return self.generate_for_graph(&grid.graph, phi, seed);
        }
        assert!(phi >= 1.0, "fluctuation must be at least 1");
        let (lo, hi) = grid
            .graph
            .vertices()
            .map(|v| grid.coord(v)[0])
            .fold((i64::MAX, i64::MIN), |(lo, hi), x| (lo.min(x), hi.max(x)));
        let span = (hi - lo).max(1) as f64;
        grid.graph
            .edge_list()
            .iter()
            .map(|&(u, v)| {
                let x = (grid.coord(u)[0] + grid.coord(v)[0]) as f64 / 2.0;
                let t = (x - lo as f64) / span;
                phi.powf(t)
            })
            .collect()
    }

    /// Generate costs for a *bare* graph with target fluctuation
    /// `phi ≥ 1` — the corpus entry point for families without grid
    /// geometry, and the one source of the i.i.d. families
    /// (`Unit`/`LogUniform`/`TwoLevel`) for [`CostFamily::generate`] too.
    /// `Gradient` ramps along normalized vertex ids — edge `{u, v}` pays
    /// `φ^{(u+v)/(2(n−1))}` — since no coordinates exist.
    pub fn generate_for_graph(self, g: &Graph, phi: f64, seed: u64) -> Vec<f64> {
        assert!(phi >= 1.0, "fluctuation must be at least 1");
        let m = g.num_edges();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA0761D6478BD642F);
        match self {
            CostFamily::Unit => vec![1.0; m],
            CostFamily::LogUniform => (0..m).map(|_| phi.powf(rng.random::<f64>())).collect(),
            CostFamily::TwoLevel => (0..m)
                .map(|_| if rng.random::<f64>() < 0.1 { phi } else { 1.0 })
                .collect(),
            CostFamily::Gradient => {
                let span = (g.num_vertices().saturating_sub(1)).max(1) as f64;
                g.edge_list()
                    .iter()
                    .map(|&(u, v)| {
                        let t = (u as f64 + v as f64) / (2.0 * span);
                        phi.powf(t)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluctuation_within_target() {
        let grid = GridGraph::lattice(&[12, 12]);
        for fam in ALL_COST_FAMILIES {
            for phi in [1.0, 10.0, 1e4] {
                let c = fam.generate(&grid, phi, 5);
                assert_eq!(c.len(), grid.graph.num_edges());
                let cmax = c.iter().cloned().fold(0.0, f64::max);
                let cmin = c.iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(cmin >= 1.0 - 1e-12, "{}: min {cmin}", fam.name());
                assert!(
                    cmax <= phi + 1e-9,
                    "{} phi={phi}: max {cmax} exceeds target",
                    fam.name()
                );
            }
        }
    }

    #[test]
    fn two_level_actually_two_level() {
        let grid = GridGraph::lattice(&[16, 16]);
        let c = CostFamily::TwoLevel.generate(&grid, 100.0, 9);
        assert!(c.iter().all(|&x| x == 1.0 || x == 100.0));
        let expensive = c.iter().filter(|&&x| x == 100.0).count();
        assert!(expensive > 0 && expensive < c.len() / 2);
    }

    #[test]
    fn gradient_monotone_along_axis() {
        let grid = GridGraph::lattice(&[20, 2]);
        let c = CostFamily::Gradient.generate(&grid, 1000.0, 0);
        // The left-most edge must be cheaper than the right-most.
        let mut leftmost = (i64::MAX, 0.0);
        let mut rightmost = (i64::MIN, 0.0);
        for (e, &(u, v)) in grid.graph.edge_list().iter().enumerate() {
            let x = grid.coord(u)[0] + grid.coord(v)[0];
            if x < leftmost.0 {
                leftmost = (x, c[e]);
            }
            if x > rightmost.0 {
                rightmost = (x, c[e]);
            }
        }
        assert!(leftmost.1 < rightmost.1);
    }

    #[test]
    fn deterministic() {
        let grid = GridGraph::lattice(&[8, 8]);
        let a = CostFamily::LogUniform.generate(&grid, 50.0, 3);
        let b = CostFamily::LogUniform.generate(&grid, 50.0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn graph_variant_agrees_with_grid_variant_where_defined() {
        // `generate` hands Unit/LogUniform/TwoLevel to the bare-graph
        // path, so the two must be bit-identical on the grid's own graph.
        let grid = GridGraph::lattice(&[9, 6]);
        for fam in [
            CostFamily::Unit,
            CostFamily::LogUniform,
            CostFamily::TwoLevel,
        ] {
            let a = fam.generate(&grid, 25.0, 11);
            let b = fam.generate_for_graph(&grid.graph, 25.0, 11);
            assert_eq!(a, b, "{}", fam.name());
        }
    }

    #[test]
    fn graph_variant_bounds_and_gradient() {
        let g = mmb_graph::gen::smallworld::watts_strogatz(40, 2, 0.1, 3);
        for fam in ALL_COST_FAMILIES {
            for phi in [1.0, 16.0] {
                let c = fam.generate_for_graph(&g, phi, 7);
                assert_eq!(c.len(), g.num_edges());
                assert!(c.iter().all(|&x| (1.0 - 1e-12..=phi + 1e-9).contains(&x)));
                assert_eq!(c, fam.generate_for_graph(&g, phi, 7), "{}", fam.name());
            }
        }
        // Id-gradient: the lowest-id edge is cheaper than the highest-id
        // edge for phi > 1.
        let c = CostFamily::Gradient.generate_for_graph(&g, 100.0, 0);
        let lo = g.edge_list().iter().position(|&(u, _)| u == 0).unwrap();
        let hi = g
            .edge_list()
            .iter()
            .enumerate()
            .max_by_key(|(_, &(u, v))| u as u64 + v as u64)
            .unwrap()
            .0;
        assert!(c[lo] < c[hi]);
    }
}
