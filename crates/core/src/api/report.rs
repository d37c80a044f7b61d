//! The structured result of a [`Solver::solve`](crate::api::Solver::solve)
//! call.
//!
//! A [`Report`] carries the coloring, the per-class weight/boundary
//! table, strict-balance defect and slack, and the Theorem-4/5 bound
//! right-hand side with the measured/bound ratio.

use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::Coloring;

use crate::bounds;
use crate::lower_bounds::CertifiedGap;

/// One row of the per-class table: `(class, weight, boundary cost)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassRow {
    /// Class index `i ∈ [k]`.
    pub class: usize,
    /// `w(χ⁻¹(i))`.
    pub weight: f64,
    /// `∂χ⁻¹(i)`.
    pub boundary_cost: f64,
}

/// Structured result of one solve: coloring, quality tables, and bound
/// ratio.
#[derive(Clone, Debug)]
pub struct Report {
    /// The strictly balanced `k`-coloring.
    pub coloring: Coloring,
    /// Per-class weights `wχ⁻¹`.
    pub class_weights: Vec<f64>,
    /// Per-class boundary costs `∂χ⁻¹`.
    pub boundary_costs: Vec<f64>,
    /// Strict-balance defect (≤ 0 up to fp noise ⟺ eq. (1) holds).
    pub strict_defect: f64,
    /// Allowed slack `(1 − 1/k)·‖w‖_∞` of eq. (1).
    pub strict_slack: f64,
    /// `‖∂χ⁻¹‖_∞`.
    pub max_boundary: f64,
    /// `‖∂χ⁻¹‖_avg`.
    pub avg_boundary: f64,
    /// Theorem 5's right-hand side `‖c‖_p/k^{1/p} + ‖c‖_∞` (unit
    /// constant).
    pub bound: f64,
    /// `max_boundary / bound` — must stay bounded across instance sweeps
    /// for the theorem to count as reproduced.
    pub bound_ratio: f64,
    /// Name of the splitter that ran the three pipeline stages. On the
    /// coarsening cascade that is the coarse solver's own pick (e.g.
    /// `"bfs"` on a contracted grid), even when the caller passed a
    /// splitter: there the caller's splitter only backs the host
    /// `BinPack2` pass.
    pub splitter: String,
    /// Number of classes.
    pub k: usize,
    /// Norm exponent `p` of the splittability assumption.
    pub p: f64,
    /// Whether eq. (1) holds, judged by the same scale-invariant relative
    /// tolerance as [`Coloring::is_strictly_balanced`].
    pub strict: bool,
    /// Certified optimality gap — the best lower bound from the
    /// [`lower_bounds`](crate::lower_bounds) certifier stack paired with
    /// this solve's achieved cost. `None` from a plain
    /// [`Solver::solve`](crate::api::Solver::solve) (certification is
    /// off the hot path; [`certify`](crate::lower_bounds::certify) pairs
    /// its cost with a gap); filled by
    /// [`Solver::solve_anytime`](crate::api::Solver::solve_anytime) and
    /// [`ResilientSolver::solve`](crate::resilient::ResilientSolver::solve).
    pub certified: Option<CertifiedGap>,
    /// How the degradation ladder served this report: which rung
    /// answered, what happened to the rungs above it, budget spent.
    /// `None` from the plain [`Solver`](crate::api::Solver) entry points;
    /// filled by
    /// [`ResilientSolver::solve`](crate::resilient::ResilientSolver::solve).
    pub resilience: Option<crate::resilient::Resilience>,
}

impl Report {
    #[allow(clippy::too_many_arguments)] // internal assembly of the full report row
    pub(crate) fn assemble(
        g: &mmb_graph::Graph,
        costs: &[f64],
        weights: &[f64],
        w_max: f64,
        c_max: f64,
        c_norm_p: f64,
        k: usize,
        p: f64,
        splitter: String,
        coloring: Coloring,
    ) -> Self {
        let boundary_costs = coloring.boundary_costs(g, costs);
        let class_weights = coloring.class_measures(weights);
        let max_boundary = norm_inf(&boundary_costs);
        let bound = bounds::theorem5(p, k, c_norm_p, c_max);
        Report {
            class_weights,
            strict_defect: coloring.strict_balance_defect(weights),
            strict_slack: bounds::strict_slack(k, w_max),
            max_boundary,
            avg_boundary: norm_1(&boundary_costs) / k as f64,
            bound,
            bound_ratio: max_boundary / bound.max(1e-300),
            splitter,
            k,
            p,
            strict: coloring.is_strictly_balanced(weights),
            boundary_costs,
            coloring,
            certified: None,
            resilience: None,
        }
    }

    /// Whether eq. (1) holds — the cached verdict of
    /// [`Coloring::is_strictly_balanced`] on the final coloring (same
    /// scale-invariant tolerance as everywhere else in the workspace).
    pub fn is_strictly_balanced(&self) -> bool {
        self.strict
    }

    /// The per-class table, one [`ClassRow`] per class.
    pub fn class_table(&self) -> Vec<ClassRow> {
        self.class_weights
            .iter()
            .zip(&self.boundary_costs)
            .enumerate()
            .map(|(class, (&weight, &boundary_cost))| ClassRow {
                class,
                weight,
                boundary_cost,
            })
            .collect()
    }
}
