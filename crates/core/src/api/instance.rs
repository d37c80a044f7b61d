//! The validated, cached problem instance.
//!
//! An [`Instance`] bundles everything Theorem 4 takes as given — the host
//! graph, edge costs `c`, vertex weights `w`, and any extra measures for
//! the multi-balanced variant — behind a constructor that validates once
//! (lengths, finiteness, non-negativity) and precomputes the derived
//! quantities the solvers read: `‖w‖_∞`, `‖w‖₁`, `‖c‖_∞` and the
//! full-domain [`VertexSet`]. Construction is `O(n + m)`; each of these
//! is a field read after it. `‖c‖₁` and the maximum cost-weighted degree
//! `Δ_c` are computed when asked for.
//!
//! Geometry travels with the instance: [`Instance::from_grid`] keeps the
//! integer embedding a [`GridGraph`] carries, and [`Instance::new`]
//! lazily runs structure detection ([`mmb_graph::recognize`]) the first
//! time someone asks — which is how
//! [`auto_splitter`](crate::api::auto_splitter) picks GridSplit for
//! lattices, the DFS splitter for forests, prefix splitting for paths,
//! and the BFS fallback for everything else.

use std::sync::{Arc, OnceLock};

use mmb_graph::fingerprint::Fingerprint;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::measure::{cost_degree_measure, norm_1, norm_inf, total_edge_norm_p};
use mmb_graph::recognize::{recognize, Structure};
use mmb_graph::{Graph, VertexSet};

use crate::api::error::{validate_costs, validate_weights, InstanceError};

/// How the instance holds its graph: bare, or with grid geometry (shared
/// with the memoized [`Structure::Grid`] verdict, never copied).
enum Host {
    Plain(Graph),
    Grid(Arc<GridGraph>),
}

/// A validated decomposition instance `(G, c, w[, extra measures])` with
/// cached derived quantities.
///
/// Build one with [`Instance::new`] (bare graph, structure detected
/// lazily) or [`Instance::from_grid`] (geometry preserved), then hand it
/// to [`Solver::for_instance`](crate::api::Solver::for_instance) — or to
/// any [`Partitioner`](crate::api::Partitioner).
pub struct Instance {
    host: Host,
    costs: Vec<f64>,
    weights: Vec<f64>,
    extras: Vec<Vec<f64>>,
    domain: VertexSet,
    w_max: f64,
    w_total: f64,
    c_max: f64,
    detected: OnceLock<Structure>,
    fingerprint: OnceLock<Fingerprint>,
}

impl std::fmt::Debug for Instance {
    /// Prints the family only if it is already known: formatting must not
    /// run structure detection, which is `O((n + m)·d)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let family = match &self.host {
            Host::Grid(_) => "grid",
            Host::Plain(_) => self.detected.get().map_or("undetected", Structure::name),
        };
        f.debug_struct("Instance")
            .field("n", &self.graph().num_vertices())
            .field("m", &self.graph().num_edges())
            .field("extras", &self.extras.len())
            .field("family", &family)
            .finish()
    }
}

fn validate(graph: &Graph, costs: &[f64], weights: &[f64]) -> Result<(), InstanceError> {
    validate_weights(graph.num_vertices(), weights)?;
    validate_costs(graph.num_edges(), costs)
}

impl Instance {
    /// Validate and cache an instance over a bare [`Graph`]. The graph
    /// family (for automatic splitter choice) is detected lazily on first
    /// use.
    pub fn new(graph: Graph, costs: Vec<f64>, weights: Vec<f64>) -> Result<Self, InstanceError> {
        validate(&graph, &costs, &weights)?;
        Ok(Self::build(Host::Plain(graph), costs, weights))
    }

    /// Validate and cache an instance over a [`GridGraph`], preserving its
    /// integer embedding so [`auto_splitter`](crate::api::auto_splitter)
    /// can run GridSplit on *any* grid subset — including irregular ones
    /// structure detection would refuse.
    pub fn from_grid(
        grid: GridGraph,
        costs: Vec<f64>,
        weights: Vec<f64>,
    ) -> Result<Self, InstanceError> {
        validate(&grid.graph, &costs, &weights)?;
        Ok(Self::build(Host::Grid(Arc::new(grid)), costs, weights))
    }

    fn build(host: Host, costs: Vec<f64>, weights: Vec<f64>) -> Self {
        let graph = match &host {
            Host::Plain(g) => g,
            Host::Grid(gg) => &gg.graph,
        };
        let domain = VertexSet::full(graph.num_vertices());
        let (w_max, w_total) = (norm_inf(&weights), norm_1(&weights));
        let c_max = norm_inf(&costs);
        Instance {
            host,
            costs,
            weights,
            extras: Vec::new(),
            domain,
            w_max,
            w_total,
            c_max,
            detected: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Assemble an instance from parts whose touched entries were already
    /// validated by [`InstanceDelta::apply`](crate::api::InstanceDelta) —
    /// the warm-mutation constructor. Skips the `O(n + m)` finiteness
    /// checks (the untouched entries passed them when the base instance
    /// was built); the cached aggregates (`‖w‖_∞`, `‖w‖₁`, `‖c‖_∞`) are
    /// recomputed, since each depends on every entry.
    pub(crate) fn from_validated_parts(
        graph: Graph,
        costs: Vec<f64>,
        weights: Vec<f64>,
        extras: Vec<Vec<f64>>,
    ) -> Self {
        let mut inst = Self::build(Host::Plain(graph), costs, weights);
        inst.extras = extras;
        inst
    }

    /// Seed the memoized structure slot from a cached recognition result
    /// (`SolverArtifacts`), so a warm build never re-runs detection. A
    /// no-op if detection already ran on this instance.
    pub(crate) fn seed_structure(&self, s: Structure) {
        let _ = self.detected.set(s);
    }

    /// Add an extra measure to be weakly balanced alongside the weights
    /// (the conclusion's multi-balanced variant). Validates length and
    /// finiteness; chainable.
    pub fn with_extra_measure(mut self, measure: Vec<f64>) -> Result<Self, InstanceError> {
        let n = self.graph().num_vertices();
        if measure.len() != n {
            return Err(InstanceError::MeasureLength {
                index: self.extras.len(),
                got: measure.len(),
                expected: n,
            });
        }
        if measure.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(InstanceError::NotFinite {
                what: "extra measure",
            });
        }
        self.extras.push(measure);
        Ok(self)
    }

    /// The host graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        match &self.host {
            Host::Plain(g) => g,
            Host::Grid(gg) => &gg.graph,
        }
    }

    /// Grid geometry, if any: the embedding given to
    /// [`Instance::from_grid`], or the one structure detection
    /// reconstructed for a full lattice.
    pub fn grid(&self) -> Option<&GridGraph> {
        match &self.host {
            Host::Grid(gg) => Some(gg),
            Host::Plain(_) => match self.structure() {
                Structure::Grid(gg) => Some(gg),
                _ => None,
            },
        }
    }

    /// Edge costs `c`, indexed by edge id.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Vertex weights `w`, indexed by vertex id.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The extra measures, in insertion order.
    pub fn extra_measures(&self) -> &[Vec<f64>] {
        &self.extras
    }

    /// `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    /// `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph().num_edges()
    }

    /// The full vertex set, cached (the pipeline's working domain).
    #[inline]
    pub fn domain(&self) -> &VertexSet {
        &self.domain
    }

    /// `‖w‖_∞`, cached.
    #[inline]
    pub fn max_weight(&self) -> f64 {
        self.w_max
    }

    /// `‖w‖₁`, cached.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.w_total
    }

    /// `‖c‖_∞`, cached.
    #[inline]
    pub fn max_cost(&self) -> f64 {
        self.c_max
    }

    /// `‖c‖₁` (computed on demand, `O(m)`).
    pub fn total_cost(&self) -> f64 {
        norm_1(&self.costs)
    }

    /// The maximum cost-weighted degree `Δ_c = max_v c(δ(v))` (computed
    /// on demand, `O(n + m)`).
    pub fn max_cost_degree(&self) -> f64 {
        norm_inf(&cost_degree_measure(self.graph(), &self.costs))
    }

    /// `‖c‖_p` (computed on demand, `O(m)`; the [`Solver`] caches it per
    /// configured `p`).
    ///
    /// [`Solver`]: crate::api::Solver
    pub fn cost_norm(&self, p: f64) -> f64 {
        total_edge_norm_p(self.graph(), &self.costs, p)
    }

    /// The detected structure of the host graph (memoized; runs
    /// [`mmb_graph::recognize::recognize`] on first call for bare-graph
    /// instances).
    pub fn structure(&self) -> &Structure {
        self.detected.get_or_init(|| match &self.host {
            Host::Grid(gg) => Structure::Grid(Arc::clone(gg)),
            Host::Plain(g) => recognize(g),
        })
    }

    /// Short family name: `"grid"`, `"forest"`, `"path"`, or
    /// `"arbitrary"`. Grid-hosted instances report `"grid"` without
    /// running detection.
    pub fn family(&self) -> &'static str {
        match &self.host {
            Host::Grid(_) => "grid",
            Host::Plain(_) => self.structure().name(),
        }
    }

    /// The instance's canonical [`Fingerprint`] (structure, cost and
    /// weight digests; see [`mmb_graph::fingerprint`]). Computed on first
    /// use (`O(n + m)`), memoized after — the identity the warm-path
    /// caches key on.
    pub fn fingerprint(&self) -> Fingerprint {
        *self
            .fingerprint
            .get_or_init(|| Fingerprint::of_parts(self.graph(), &self.costs, &self.weights))
    }

    /// The measures the pipeline weakly balances: `w` first, then the
    /// extras (borrowed view).
    pub(crate) fn balance_measures(&self) -> Vec<&[f64]> {
        std::iter::once(self.weights.as_slice())
            .chain(self.extras.iter().map(|m| m.as_slice()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::path;
    use mmb_graph::graph::graph_from_edges;

    #[test]
    fn caches_derived_quantities() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = Instance::new(g, vec![1.0, 2.0, 4.0], vec![1.0, 3.0, 0.5, 2.0]).unwrap();
        assert_eq!(inst.max_weight(), 3.0);
        assert_eq!(inst.total_weight(), 6.5);
        assert_eq!(inst.max_cost(), 4.0);
        assert_eq!(inst.total_cost(), 7.0);
        assert_eq!(inst.max_cost_degree(), 6.0); // vertex 2: 2 + 4
        assert_eq!(inst.domain().len(), 4);
        assert!((inst.cost_norm(2.0) - 21f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn every_validation_error_fires() {
        let g = path(3);
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0; 2]).unwrap_err(),
            InstanceError::WeightLength {
                got: 2,
                expected: 3
            }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 5], vec![1.0; 3]).unwrap_err(),
            InstanceError::CostLength {
                got: 5,
                expected: 2
            }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0, f64::NAN, 1.0]).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0; 2], vec![1.0, -2.0, 1.0]).unwrap_err(),
            InstanceError::NotFinite { what: "weights" }
        );
        assert_eq!(
            Instance::new(g.clone(), vec![1.0, f64::INFINITY], vec![1.0; 3]).unwrap_err(),
            InstanceError::NotFinite { what: "costs" }
        );
        let inst = Instance::new(g.clone(), vec![1.0; 2], vec![1.0; 3]).unwrap();
        assert_eq!(
            inst.with_extra_measure(vec![1.0; 4]).unwrap_err(),
            InstanceError::MeasureLength {
                index: 0,
                got: 4,
                expected: 3
            }
        );
        let inst = Instance::new(g, vec![1.0; 2], vec![1.0; 3]).unwrap();
        assert_eq!(
            inst.with_extra_measure(vec![1.0, -1.0, 0.0]).unwrap_err(),
            InstanceError::NotFinite {
                what: "extra measure"
            }
        );
    }

    #[test]
    fn family_detection_is_lazy_and_memoized() {
        let inst = Instance::new(path(6), vec![1.0; 5], vec![1.0; 6]).unwrap();
        assert_eq!(inst.family(), "path");
        assert_eq!(inst.family(), "path"); // second call hits the memo
    }

    #[test]
    fn grid_host_reports_grid_without_detection() {
        let grid = GridGraph::percolation(&[8, 8], 0.7, 3);
        let n = grid.graph.num_vertices();
        let m = grid.graph.num_edges();
        let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
        assert_eq!(inst.family(), "grid");
        assert!(inst.grid().is_some());
    }

    #[test]
    fn plain_lattice_gets_reconstructed_geometry() {
        let grid = GridGraph::lattice(&[4, 5]);
        let m = grid.graph.num_edges();
        let inst = Instance::new(grid.graph, vec![1.0; m], vec![1.0; 20]).unwrap();
        assert_eq!(inst.family(), "grid");
        assert_eq!(inst.grid().unwrap().dim, 2);
    }
}
