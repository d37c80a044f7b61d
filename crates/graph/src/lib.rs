//! # mmb-graph
//!
//! Weighted-graph substrate for the min-max boundary decomposition library.
//!
//! This crate provides every graph-level primitive the decomposition
//! algorithms of Steurer (SPAA 2006) are built on:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) undirected graph
//!   without self-loops or parallel edges.
//! * [`VertexSet`] — a dense bitset over a graph's vertices; all algorithms
//!   in the paper operate on induced subgraphs `G[W]`, which we represent as
//!   a `(&Graph, &VertexSet)` pair.
//! * [`measure`] — vertex measures `Φ : V → R+` and the `p`-norm machinery
//!   (`‖·‖_p`, `‖·‖_∞`, `‖·‖_avg`) the paper's notation section defines.
//! * [`Coloring`] — `k`-colorings `χ : V → [k]`, class measures `Φχ⁻¹`,
//!   boundary-cost vectors `∂χ⁻¹`, and strict-balance checking
//!   (Definition 1, eq. (1)).
//! * [`cut`] — boundary costs `∂U = c(δ(U))` within the host graph or within
//!   an induced subgraph.
//! * [`stats`] — the "well-behavedness" quantities: maximum degree `Δ`,
//!   maximum cost-weighted degree `Δ_c`, local fluctuation `φ_ℓ`, and global
//!   fluctuation `φ`.
//! * [`gen`] — instance generators: `d`-dimensional grid graphs with integer
//!   coordinates (the object of the paper's Section 6), paths, cycles,
//!   trees, caterpillars, and disjoint unions of copies (the `G̃`
//!   construction of Lemma 40).
//! * [`recognize`] — structure detection (path / forest / full lattice /
//!   arbitrary) with verified lattice-embedding reconstruction, feeding
//!   the automatic splitter choice in `mmb-core`'s `api` module.
//! * [`workspace`] — reusable epoch-stamped scratch buffers for the
//!   decomposition hot path: dense measures accumulated over touched
//!   entries only, zeroed in `O(touched)`, pooled per thread.
//!
//! The crate is dependency-light; parallel execution enters through the
//! `rayon`-shaped shim used by `mmb-core` and `mmb-bench`, with one
//! [`Workspace`] per worker thread.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coloring;
pub mod cut;
pub mod fingerprint;
pub mod gen;
pub mod graph;
pub mod io;
pub mod measure;
pub mod recognize;
pub mod stats;
pub mod union;
pub mod vertex_set;
pub mod workspace;

pub use coloring::Coloring;
pub use fingerprint::Fingerprint;
pub use graph::{csr_capacity_check, EdgeId, Graph, GraphBuilder, GraphCapacityError, VertexId};
pub use vertex_set::VertexSet;
pub use workspace::{ScratchMeasure, Workspace, WorkspaceStats};
