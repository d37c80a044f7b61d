//! Helpers shared by the integration suites.

use mmb_core::api::{Instance, Report, Solver};
use mmb_graph::Graph;
use mmb_splitters::Splitter;

/// Solve `(g, costs, weights)` into `k` classes under the default
/// pipeline configuration, with `splitter` driving every stage.
pub fn solve_with<S: Splitter + ?Sized>(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    k: usize,
    splitter: &S,
) -> Report {
    let inst = Instance::new(g.clone(), costs.to_vec(), weights.to_vec()).expect("valid instance");
    let solver = Solver::for_instance(&inst)
        .classes(k)
        .splitter(Box::new(splitter))
        .build()
        .expect("k >= 1");
    solver.solve()
}
