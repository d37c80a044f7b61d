//! [`Report`]: the one summary of a coloring — what every solver returns
//! and what [`Report::of`] makes of any other coloring.
//!
//! A [`Report`] carries the coloring, the per-class weights and boundary
//! costs, the strict-balance defect, slack and verdict (Definition 1,
//! eq. (1)), and the Theorem-4/5 bound right-hand side with the
//! measured/bound ratio. Its [`splitter`](Report::splitter) field names
//! the splitter that ran the pipeline, the ladder rung that served, or
//! the label passed to [`Report::of`].

use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::Coloring;

use crate::api::instance::Instance;
use crate::bounds;
use crate::lower_bounds::CertifiedGap;

/// Structured summary of one coloring: the coloring, its quality
/// tables, its strict-balance verdict, and its bound ratio.
#[derive(Clone, Debug)]
pub struct Report {
    /// The coloring summarized; strictly balanced whenever a solver
    /// served it.
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
    /// What produced the coloring. From a solver, the splitter that ran
    /// the three pipeline stages; on the coarsening cascade that is the
    /// coarse solver's own pick (e.g. `"bfs"` on a contracted grid), even
    /// when the caller passed a splitter: there the caller's splitter
    /// only backs the host `BinPack2` pass. From the degradation ladder,
    /// the name of the rung that served a bare coloring. From
    /// [`Report::of`], the caller's label.
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
    /// [`Solver::solve`](crate::api::Solver::solve) or [`Report::of`]
    /// (certification is off the hot path;
    /// [`certify`](crate::lower_bounds::certify) pairs its cost with a
    /// gap); filled by
    /// [`Solver::solve_anytime`](crate::api::Solver::solve_anytime) and
    /// [`ResilientSolver::solve`](crate::resilient::ResilientSolver::solve).
    pub certified: Option<CertifiedGap>,
    /// How the degradation ladder served this report: which rung
    /// answered, what happened to the rungs above it, budget spent.
    /// `None` from the plain [`Solver`](crate::api::Solver) entry points
    /// and [`Report::of`]; filled by
    /// [`ResilientSolver::solve`](crate::resilient::ResilientSolver::solve).
    pub resilience: Option<crate::resilient::Resilience>,
}

impl Report {
    /// The report of any `coloring` of `inst` — a baseline's, a stage's,
    /// an exact search's — at exponent `p`, with `k = coloring.k()` and
    /// `label` in [`Report::splitter`]. It reads exactly what a solver's
    /// own report reads, so the two agree bit for bit on the same
    /// coloring. Partial colorings are summarized too: check
    /// [`Coloring::is_total`] alongside [`Report::strict`].
    ///
    /// # Panics
    /// If `coloring` and `inst` disagree on the number of vertices.
    pub fn of(inst: &Instance, p: f64, label: &str, coloring: Coloring) -> Self {
        assert_eq!(
            coloring.num_vertices(),
            inst.num_vertices(),
            "coloring/instance vertex count mismatch"
        );
        Self::assemble(inst, inst.cost_norm(p), p, label.to_owned(), coloring)
    }

    /// [`Report::of`] with `‖c‖_p` already at hand (a solver caches it).
    pub(crate) fn assemble(
        inst: &Instance,
        c_norm_p: f64,
        p: f64,
        splitter: String,
        coloring: Coloring,
    ) -> Self {
        let (weights, k) = (inst.weights(), coloring.k());
        let boundary_costs = coloring.boundary_costs(inst.graph(), inst.costs());
        let max_boundary = norm_inf(&boundary_costs);
        let bound = bounds::theorem5(p, k, c_norm_p, inst.max_cost());
        Report {
            class_weights: coloring.class_measures(weights),
            strict_defect: coloring.strict_balance_defect(weights),
            strict_slack: bounds::strict_slack(k, inst.max_weight()),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::coloring::UNCOLORED;
    use mmb_graph::graph::graph_from_edges;

    fn path4(costs: Vec<f64>, weights: Vec<f64>) -> Instance {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        Instance::new(g, costs, weights).unwrap()
    }

    #[test]
    fn report_on_balanced_path() {
        let inst = path4(vec![1.0, 2.0, 1.0], vec![1.0; 4]);
        let chi = Coloring::from_vec(2, vec![0, 0, 1, 1]);
        let r = Report::of(&inst, 2.0, "path", chi);
        assert!(r.coloring.is_total());
        assert!(r.is_strictly_balanced());
        assert_eq!(r.max_boundary, 2.0);
        assert_eq!(r.avg_boundary, 2.0);
        assert_eq!(r.class_weights, vec![2.0, 2.0]);
    }

    #[test]
    fn detects_partial_and_unbalanced() {
        let inst = path4(vec![1.0; 3], vec![1.0; 4]);
        let valid = |r: &Report| r.coloring.is_total() && r.is_strictly_balanced();
        let partial = Coloring::from_vec(2, vec![0, 0, 1, UNCOLORED]);
        assert!(!valid(&Report::of(&inst, 2.0, "partial", partial)));
        let unbalanced = Coloring::from_vec(2, vec![0, 0, 0, 0]);
        let r = Report::of(&inst, 2.0, "unbalanced", unbalanced.clone());
        assert!(r.coloring.is_total());
        assert!(!valid(&r));
        assert!(r.strict_defect > 0.0);
        // The verdict scales with the weights: at 1e-12 the defect is
        // 1.5e-12, three times the slack, and no absolute floor hides it.
        let tiny = path4(vec![1.0; 3], vec![1e-12; 4]);
        let r = Report::of(&tiny, 2.0, "tiny", unbalanced);
        assert!(r.strict_defect > 2.0 * r.strict_slack);
        assert!(!valid(&r));
    }
}
