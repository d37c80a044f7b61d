//! One interface over every partitioning algorithm in the workspace.
//!
//! The experiment harness compares the Theorem 4 pipeline against the
//! `mmb-baselines` algorithms on identical footing; [`Partitioner`] is
//! that footing. Implementations take a validated
//! [`crate::api::Instance`] and a class count and return a total
//! [`Coloring`] — or a [`SolveError`], never a panic, on configurations
//! they cannot run.
//!
//! The pipeline's own implementation is [`Theorem4Pipeline`]; the
//! baselines implement the trait in `mmb-baselines` (greedy bin packing,
//! recursive bisection, multilevel), so `mmb-bench` can iterate
//! `&[&dyn Partitioner]` uniformly (experiments E4, E7, E10).

use mmb_graph::Coloring;

use crate::api::error::SolveError;
use crate::api::instance::Instance;
use crate::api::solver::Solver;
use crate::pipeline::PipelineConfig;

/// A `k`-way partitioning algorithm, scored uniformly by the harness.
///
/// `Sync` is a supertrait so the harness can fan per-instance runs out
/// over the thread pool (`&dyn Partitioner` travels into workers); every
/// implementation in the workspace is a stateless adapter.
pub trait Partitioner: Sync {
    /// Short algorithm name for tables and reports.
    fn name(&self) -> &str;

    /// Partition `inst` into `k` classes.
    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError>;
}

/// The Theorem 4 pipeline as a [`Partitioner`]: builds a fresh
/// [`Solver`] with the [`auto_splitter`](crate::api::auto_splitter) per
/// call.
///
/// This is the uniform-iteration adapter for harness loops that sweep
/// `k`; serve-heavy callers that fix `(instance, k)` should build a
/// [`Solver`] once and reuse it instead.
#[derive(Clone, Debug, Default)]
pub struct Theorem4Pipeline {
    /// Pipeline configuration applied to every call.
    pub cfg: PipelineConfig,
}

impl Theorem4Pipeline {
    /// Pipeline with a given `p`.
    pub fn with_p(p: f64) -> Self {
        Self {
            cfg: PipelineConfig::with_p(p),
        }
    }
}

impl Partitioner for Theorem4Pipeline {
    fn name(&self) -> &str {
        "ours (Thm 4)"
    }

    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        let solver = Solver::for_instance(inst)
            .classes(k)
            .config(self.cfg.clone())
            .build()?;
        Ok(solver.solve().coloring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    #[test]
    fn pipeline_partitioner_is_strict() {
        let grid = GridGraph::lattice(&[8, 8]);
        let m = grid.graph.num_edges();
        let weights: Vec<f64> = (0..64).map(|v| 1.0 + (v % 3) as f64).collect();
        let inst = Instance::from_grid(grid, vec![1.0; m], weights.clone()).unwrap();
        let algo = Theorem4Pipeline::default();
        let chi = algo.partition(&inst, 5).unwrap();
        assert!(chi.is_total());
        assert!(chi.is_strictly_balanced(&weights));
        assert_eq!(
            algo.partition(&inst, 0).unwrap_err(),
            SolveError::ZeroColors
        );
    }
}
