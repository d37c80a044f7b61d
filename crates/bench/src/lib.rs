//! # mmb-bench
//!
//! Experiment harness reproducing every theorem of the paper as a measured
//! table (experiment index in `DESIGN.md`; results recorded in
//! `EXPERIMENTS.md`). Run with
//!
//! ```text
//! cargo run -p mmb-bench --bin reproduce --release -- all
//! cargo run -p mmb-bench --bin reproduce --release -- e1 e5 --quick
//! ```
//!
//! Timing-focused measurements live in the criterion benches
//! (`cargo bench -p mmb-bench`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod churn;
pub mod corpus;
pub mod experiments;
pub mod perf;
pub mod table;

use mmb_baselines::greedy::{FirstFit, Lpt, RoundRobin};
use mmb_baselines::multilevel::Multilevel;
use mmb_baselines::recursive_bisection::RecursiveBisection;
use mmb_core::api::{Instance, Partitioner, SolveError};
use mmb_graph::measure::{norm_1, norm_inf};
use mmb_graph::{Coloring, Graph};

/// The standard baseline roster every cross-partitioner sweep scores —
/// one constructor so the corpus table and the exact-optimum differential
/// suite (`tests/oracle_differential.rs`) cannot drift apart when a
/// baseline is added or reconfigured.
pub fn standard_baselines() -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(Lpt),
        Box::new(FirstFit),
        Box::new(RoundRobin),
        Box::new(RecursiveBisection { kst: false }),
        Box::new(Multilevel::default()),
    ]
}

/// Uniform quality score of a coloring on an instance.
#[derive(Clone, Debug)]
pub struct Score {
    /// `‖∂χ⁻¹‖∞`.
    pub max_boundary: f64,
    /// `‖∂χ⁻¹‖_avg`.
    pub avg_boundary: f64,
    /// Strict-balance defect (≤ 0 means eq. (1) holds).
    pub strict_defect: f64,
    /// Max class weight / average class weight (rough-balance factor).
    pub balance_factor: f64,
    /// Wall-clock milliseconds (filled by the caller when relevant).
    pub millis: f64,
}

impl Score {
    /// Whether eq. (1) holds up to fp tolerance.
    pub fn is_strict(&self, weights: &[f64]) -> bool {
        self.strict_defect <= 1e-9 * (1.0 + norm_inf(weights))
    }
}

/// Score a coloring.
pub fn score(g: &Graph, costs: &[f64], weights: &[f64], chi: &Coloring) -> Score {
    let bc = chi.boundary_costs(g, costs);
    let k = chi.k();
    let cm = chi.class_measures(weights);
    let avg_w = norm_1(&cm) / k as f64;
    Score {
        max_boundary: norm_inf(&bc),
        avg_boundary: norm_1(&bc) / k as f64,
        strict_defect: chi.strict_balance_defect(weights),
        balance_factor: if avg_w > 0.0 {
            norm_inf(&cm) / avg_w
        } else {
            1.0
        },
        millis: 0.0,
    }
}

/// Score a coloring of an [`Instance`] (same metrics as [`score`]).
pub fn score_instance(inst: &Instance, chi: &Coloring) -> Score {
    score(inst.graph(), inst.costs(), inst.weights(), chi)
}

/// Run a [`Partitioner`] on an instance, returning the coloring and its
/// timed [`Score`] — the uniform "ours vs baselines" code path of
/// experiments E4, E7 and E10.
pub fn run_scored(
    algo: &dyn Partitioner,
    inst: &Instance,
    k: usize,
) -> Result<(Coloring, Score), SolveError> {
    let (chi, millis) = timed(|| algo.partition(inst, k));
    let chi = chi?;
    let mut s = score_instance(inst, &chi);
    s.millis = millis;
    Ok((chi, s))
}

/// Run `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Format a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}
