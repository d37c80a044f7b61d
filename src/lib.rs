//! # mmb — min-max boundary decomposition of weighted graphs
//!
//! Facade crate for the workspace reproducing
//!
//! > David Steurer, *Tight bounds on the min-max boundary decomposition
//! > cost of weighted graphs*, SPAA 2006 (arXiv `cs/0606001`).
//!
//! It re-exports the six member crates under one roof so downstream users
//! (and this repo's own `examples/` and `tests/`) can depend on a single
//! package. See `README.md` for the crate map and `DESIGN.md` for the
//! experiment index.
//!
//! The public API is `Instance` + `Solver` (in [`mmb_core::api`], re-exported
//! here): validate the inputs once, build a reusable solver with an
//! auto-selected splitter, and solve as often as you like:
//!
//! ```
//! use mmb::core::api::{Instance, Solver, SplitterChoice};
//! use mmb::graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights)?;
//! let solver = Solver::for_instance(&inst)
//!     .classes(4)
//!     .p(2.0)
//!     .splitter(SplitterChoice::Auto)
//!     .build()?;
//! let report = solver.solve(); // reusable — call again without rebuilding
//! assert!(report.is_strictly_balanced());
//! assert_eq!(solver.family(), "grid"); // GridSplit was auto-selected
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mmb_baselines as baselines;
pub use mmb_bench as bench;
pub use mmb_core as core;
pub use mmb_graph as graph;
pub use mmb_instances as instances;
pub use mmb_splitters as splitters;
