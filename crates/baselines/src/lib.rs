//! # mmb-baselines
//!
//! Baseline partitioners the paper's introduction compares against:
//!
//! * [`greedy`] — bin-packing heuristics (first-fit, LPT, round-robin):
//!   excellent weight balance (LPT even satisfies eq. (1)), but completely
//!   boundary-blind — the paper's running example of why balance alone is
//!   not enough.
//! * [`recursive_bisection`] — Simon–Teng-style recursive bisection driven
//!   by a [`Splitter`](mmb_splitters::Splitter): good *average* boundary
//!   cost, loose (factor-style) balance, no per-part boundary guarantee. A
//!   two-measure variant folds the cost-degree `τ` into the bisection
//!   weights, approximating the Kiwi–Spielman–Teng recipe of balancing
//!   weight and boundary simultaneously.
//! * [`multilevel`] — a METIS-lite multilevel partitioner: heavy-edge
//!   matching coarsening, recursive bisection on the coarsest graph, and
//!   Kernighan–Lin refinement ([`mod@mmb_core::refine`], shared with the
//!   pipeline's coarsening cascade) during uncoarsening.
//!
//! All baselines produce total [`Coloring`](mmb_graph::Coloring)s so the
//! harness can score everything uniformly.
//!
//! ## The `Partitioner` interface
//!
//! Every baseline also implements
//! [`Partitioner`](mmb_core::api::Partitioner) — the workspace-wide
//! "instance in, coloring out" trait shared with the Theorem 4 pipeline
//! ([`Theorem4Pipeline`](mmb_core::api::Theorem4Pipeline)) — via the
//! adapter types [`greedy::FirstFit`], [`greedy::Lpt`],
//! [`greedy::RoundRobin`], [`recursive_bisection::RecursiveBisection`],
//! and [`multilevel::Multilevel`]. That lets the experiment harness
//! iterate `&[&dyn Partitioner]` over ours-plus-baselines uniformly
//! (experiments E4, E7, E10):
//!
//! ```
//! use mmb_baselines::greedy::Lpt;
//! use mmb_baselines::multilevel::Multilevel;
//! use mmb_core::api::{Instance, Partitioner, Theorem4Pipeline};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
//! let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n])?;
//! let algos: [&dyn Partitioner; 3] =
//!     [&Theorem4Pipeline::default(), &Lpt, &Multilevel::default()];
//! for algo in algos {
//!     let chi = algo.partition(&inst, 4)?;
//!     assert!(chi.is_total());
//! }
//! # Ok::<(), mmb_core::api::SolveError>(())
//! ```
//!
//! All entry points validate their inputs and return
//! `Result<_, `[`SolveError`](mmb_core::api::SolveError)`>` instead of
//! panicking on malformed data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod greedy;
pub mod multilevel;
pub mod recursive_bisection;
