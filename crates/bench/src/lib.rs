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
//! Besides the tables, the binary runs the corpus, chaos and soundness-lint
//! gates and the gap gate against the committed `BENCH_6.json` corpus gap
//! table ([`perf`]). Time and memory are measured by the end-to-end
//! benchmark in `perfbench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod corpus;
pub mod experiments;
pub mod perf;
pub mod table;

use mmb_baselines::greedy::{FirstFit, Lpt, RoundRobin};
use mmb_baselines::multilevel::Multilevel;
use mmb_baselines::recursive_bisection::RecursiveBisection;
use mmb_core::api::{Instance, Partitioner, Report, SolveError};

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

/// Run a [`Partitioner`] on an instance and take the [`Report::of`] its
/// coloring at exponent `p`, with the partition's wall-clock
/// milliseconds — the uniform "ours vs baselines" code path of the
/// corpus table and experiments E4, E7 and E10.
pub fn run_scored(
    algo: &dyn Partitioner,
    inst: &Instance,
    k: usize,
    p: f64,
) -> Result<(Report, f64), SolveError> {
    let (chi, millis) = timed(|| algo.partition(inst, k));
    Ok((Report::of(inst, p, algo.name(), chi?), millis))
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
