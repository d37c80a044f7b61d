//! The reusable solver: build once, `solve()` many times.
//!
//! [`Solver`] is the serve-heavy entry point of the library. Building one
//! (via the [`SolverBuilder`]) fixes the instance, the class count `k`,
//! the pipeline configuration and `‖c‖_p`. The splitter — GridSplit's
//! cost scaling, the tree splitter's forest check, the path order — and
//! the splitting-cost measure `π` (Definition 10) are built *once, on
//! first use*: the first direct solve builds both, and later
//! [`Solver::solve`] calls on the same instance only pay for the pipeline
//! itself. Above the coarsening target the three stages run on the coarse
//! instance with its own splitter and `π`, so the host's are built only if
//! the host `BinPack2` pass calls its splitter, and `π` never is.
//!
//! ```
//! use mmb_core::api::{Instance, Solver};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights).unwrap();
//! let solver = Solver::for_instance(&inst)
//!     .classes(4)
//!     .p(2.0)
//!     .build()
//!     .unwrap();
//! let report = solver.solve(); // reusable: call again without rebuilding
//! assert!(report.is_strictly_balanced());
//! assert_eq!(solver.family(), "grid");
//! ```

use std::sync::{Arc, OnceLock};

use mmb_graph::recognize::Structure;
use mmb_graph::workspace::Workspace;
use mmb_graph::{Coloring, VertexSet};
use mmb_splitters::bfs::BfsSplitter;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::order::OrderSplitter;
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;

use crate::api::artifacts::SolverArtifacts;
use crate::api::delta::InstanceDelta;
use crate::api::error::SolveError;
use crate::api::instance::Instance;
use crate::api::report::Report;
use crate::multibalance::multibalance_minmax_with_pi_ws;
use crate::pi::splitting_cost_measure_within;
use crate::pipeline::PipelineConfig;
use crate::shrink::almost_strict_ws;
use crate::strict::{assign_lightest, binpack2};

/// The splitter a [`SolverBuilder`] without
/// [`splitter`](SolverBuilder::splitter) drives the pipeline with, picked
/// by `inst`'s structure, together with the family label it matched:
/// grid geometry (given or detected) → GridSplit (Theorem 19), forest →
/// smallest-subtree DFS, union of paths → prefix splitting along the
/// walk, anything else → the BFS fallback.
///
/// Exposed so baselines (recursive bisection) and harness code can drive
/// *their* algorithms with the same automatically selected splitter.
/// Every pick is `Send`, so a [`Solver`] can build it on whichever thread
/// first needs it.
pub fn auto_splitter(inst: &Instance) -> (Box<dyn Splitter + Send + '_>, &'static str) {
    if let Some(grid) = inst.grid() {
        return (Box::new(GridSplitter::new(grid, inst.costs())), "grid");
    }
    match inst.structure() {
        Structure::Path { positions } => (
            Box::new(OrderSplitter::by_key(
                inst.num_vertices(),
                positions.clone(),
                "order/path",
            )),
            "path",
        ),
        Structure::Forest => (Box::new(TreeSplitter::new(inst.graph())), "forest"),
        // `inst.grid()` above already surfaced detected lattices; this arm
        // is unreachable but kept total.
        Structure::Grid(gg) => (Box::new(GridSplitter::new(gg, inst.costs())), "grid"),
        Structure::Arbitrary => (Box::new(BfsSplitter::new(inst.graph())), "arbitrary"),
    }
}

/// Builder for a [`Solver`]; obtained from [`Solver::for_instance`].
pub struct SolverBuilder<'i> {
    inst: &'i Instance,
    k: usize,
    cfg: PipelineConfig,
    splitter: Option<Box<dyn Splitter + 'i>>,
    artifacts: Option<Arc<SolverArtifacts>>,
}

impl<'i> SolverBuilder<'i> {
    /// Number of classes `k` (required; `build` fails with
    /// [`SolveError::ZeroColors`] if unset or 0).
    pub fn classes(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Norm exponent `p > 1` of the splittability assumption (default 2;
    /// use `d/(d−1)` for `d`-dimensional grids).
    pub fn p(mut self, p: f64) -> Self {
        self.cfg.p = p;
        self
    }

    /// Replace the whole pipeline configuration at once.
    pub fn config(mut self, cfg: PipelineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Drive the pipeline with the caller's splitter instead of
    /// [`auto_splitter`]'s: `Box::new(OrderSplitter::by_id(g))`, a
    /// [`SeparatorSplitter`](mmb_splitters::separator::SeparatorSplitter),
    /// an instrumented
    /// [`RecordingSplitter`](mmb_splitters::recording::RecordingSplitter),
    /// or any other [`Splitter`]. No structure recognition runs then. Above
    /// the coarsening target it backs only the host `BinPack2` pass; the
    /// coarse solve picks its own.
    pub fn splitter(mut self, splitter: Box<dyn Splitter + 'i>) -> Self {
        self.splitter = Some(splitter);
        self
    }

    /// Warm-start construction from cached [`SolverArtifacts`] (usually
    /// handed out by a [`SolverCache`](crate::api::SolverCache)). If the
    /// snapshot [`matches`](SolverArtifacts::matches) this builder's
    /// instance and `p` exactly, the solver reuses its recognition verdict,
    /// `π`, and `‖c‖_p` instead of recomputing them; a non-matching
    /// snapshot is silently ignored and construction runs cold, so stale
    /// cache handoffs can never corrupt a solver.
    pub fn artifacts(mut self, artifacts: Arc<SolverArtifacts>) -> Self {
        self.artifacts = Some(artifacts);
        self
    }

    /// Check `k` and `p`, compute `‖c‖_p` (or take it, the recognition
    /// verdict and `π` from matching [`SolverBuilder::artifacts`]), and
    /// return the reusable [`Solver`]. The splitter and, unless the
    /// artifacts supplied it, `π` are left for the first solve that reads
    /// them.
    pub fn build(self) -> Result<Solver<'i>, SolveError> {
        if self.k == 0 {
            return Err(SolveError::ZeroColors);
        }
        // The pipeline's p-norm machinery requires finite p ≥ 1 (the
        // theorems additionally want p > 1); reject here so `solve()`
        // stays infallible.
        if !(self.cfg.p.is_finite() && self.cfg.p >= 1.0) {
            return Err(SolveError::InvalidExponent { p: self.cfg.p });
        }
        let inst = self.inst;
        // Exact-match check before anything downstream consumes the
        // snapshot; the memoized structure slot is seeded before anything
        // can ask for it and trigger detection.
        let (pi, c_norm_p) = match self.artifacts.filter(|a| a.matches(inst, self.cfg.p)) {
            Some(a) => {
                inst.seed_structure(a.structure().clone());
                (OnceLock::from(Arc::clone(a.pi())), a.c_norm_p())
            }
            None => (OnceLock::new(), inst.cost_norm(self.cfg.p)),
        };
        let splitter = match self.splitter {
            Some(splitter) => SplitterSlot::Caller(splitter),
            None => SplitterSlot::Auto(AutoSplitter::new(inst)),
        };
        Ok(Solver {
            inst,
            k: self.k,
            cfg: self.cfg,
            splitter,
            pi,
            c_norm_p,
        })
    }
}

/// Where a [`Solver`]'s splitter comes from.
enum SplitterSlot<'i> {
    /// The caller's [`SolverBuilder::splitter`].
    Caller(Box<dyn Splitter + 'i>),
    /// [`auto_splitter`]'s pick, built on first use.
    Auto(AutoSplitter<'i>),
}

/// [`auto_splitter`]'s pick for one instance and its family label,
/// built on the first call that reads either. A [`Solver`] without a
/// caller's splitter holds one; so does each solver rung of the
/// resilient ladder, behind its failpoint wrapper.
pub(crate) struct AutoSplitter<'i> {
    inst: &'i Instance,
    slot: OnceLock<(Box<dyn Splitter + Send + 'i>, &'static str)>,
}

impl<'i> AutoSplitter<'i> {
    pub(crate) fn new(inst: &'i Instance) -> Self {
        AutoSplitter {
            inst,
            slot: OnceLock::new(),
        }
    }

    /// The splitter and its family label, building them on first use.
    fn resolved(&self) -> (&dyn Splitter, &'static str) {
        let (s, family) = self.slot.get_or_init(|| auto_splitter(self.inst));
        (s.as_ref(), family)
    }
}

impl Splitter for AutoSplitter<'_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        self.resolved().0.split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        self.resolved().0.name()
    }
}

/// A built, reusable solver: the Theorem 4 pipeline bound to one
/// [`Instance`], one `k`, one splitter.
///
/// Input validation and `‖c‖_p` happen at build time. The splitter and
/// the splitting-cost measure `π` are built once, by the first solve that
/// reads them (or by [`Solver::family`] / [`Solver::splitter_name`]), and
/// reused by every later call. See the [module docs](self) for an example.
pub struct Solver<'i> {
    inst: &'i Instance,
    k: usize,
    cfg: PipelineConfig,
    splitter: SplitterSlot<'i>,
    /// Splitting-cost measure `π` (Definition 10) for the configured `p`;
    /// refcounted so a [`SolverCache`](crate::api::SolverCache) snapshot
    /// and any number of warm solvers share one buffer.
    pi: OnceLock<Arc<[f64]>>,
    /// `‖c‖_p` for the Theorem 5 bound in reports.
    c_norm_p: f64,
}

/// A [`Solver`]'s splitter behind a handle that builds it on the first
/// `split` call: the cascade's host `BinPack2` pass usually makes none.
struct OnFirstSplit<'s, 'i>(&'s Solver<'i>);

impl Splitter for OnFirstSplit<'_, '_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        self.0.resolved().0.split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        self.0.resolved().0.name()
    }
}

impl<'i> Solver<'i> {
    /// Start building a solver for `inst`.
    pub fn for_instance(inst: &'i Instance) -> SolverBuilder<'i> {
        SolverBuilder {
            inst,
            k: 0,
            cfg: PipelineConfig::default(),
            splitter: None,
            artifacts: None,
        }
    }

    /// Run the Theorem 4 pipeline (Proposition 7 → 11 → 12) and return a
    /// structured [`Report`]. Infallible: everything that can fail was
    /// checked at build time. Call repeatedly to amortize the build; the
    /// dense scratch buffers come from this thread's pooled
    /// [`Workspace`] and are amortized across calls too.
    pub fn solve(&self) -> Report {
        Workspace::with_local(|ws| self.solve_in(ws))
    }

    /// The splitter and its family label, building [`auto_splitter`]'s
    /// pick on first use.
    fn resolved(&self) -> (&dyn Splitter, &'static str) {
        match &self.splitter {
            SplitterSlot::Caller(s) => (s.as_ref(), "custom"),
            SplitterSlot::Auto(auto) => auto.resolved(),
        }
    }

    fn solve_in(&self, ws: &Workspace) -> Report {
        if let Some(cc) = self.cfg.coarsen {
            if self.inst.num_vertices() > cc.params.target_vertices {
                if let Some(report) = self.solve_coarsened(&cc, ws) {
                    return report;
                }
            }
        }
        let inst = self.inst;
        let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());
        let domain = inst.domain();
        let user = inst.balance_measures();
        let splitter = self.resolved().0;
        let pi = self.pi.get_or_init(|| {
            splitting_cost_measure_within(g, costs, self.cfg.p, 1.0, domain).into()
        });

        crate::failpoint::raise_any("pipeline::multibalance");
        let stage1 =
            multibalance_minmax_with_pi_ws(g, costs, splitter, self.k, domain, &user, pi, ws);
        crate::failpoint::raise_any("pipeline::shrink");
        let stage2 = if self.cfg.skip_shrink {
            stage1.coloring
        } else {
            almost_strict_ws(
                g,
                costs,
                splitter,
                &stage1.coloring,
                domain,
                weights,
                self.cfg.p,
                &self.cfg.shrink,
                ws,
            )
        };
        crate::failpoint::raise_any("pipeline::binpack");
        let stage3 = binpack2(g, splitter, &stage2, domain, weights);
        debug_assert!(stage3.is_total(), "pipeline must color every vertex");
        self.report(splitter.name().to_owned(), stage3)
    }

    /// The [`Report`] of a final coloring of this solver's instance,
    /// naming the splitter that ran the three stages.
    fn report(&self, splitter: String, coloring: Coloring) -> Report {
        let inst = self.inst;
        Report::assemble(
            inst.graph(),
            inst.costs(),
            inst.weights(),
            inst.max_weight(),
            inst.max_cost(),
            self.c_norm_p,
            self.k,
            self.cfg.p,
            splitter,
            coloring,
        )
    }

    /// The large-`n` path (see [`crate::coarsen`] and DESIGN.md §13):
    /// contract the host down to the cascade target, run the three stages
    /// there via a coarse sub-solver, project the result back with
    /// per-level KL refinement, and restore strict balance on the host
    /// with a final `BinPack2` — projection preserves class weights
    /// exactly, but the host's smaller `‖w‖∞` tightens eq. (1), so the
    /// rebalance is mandatory, not defensive. That pass reaches this
    /// solver's splitter through [`OnFirstSplit`], so the host splitter
    /// (and its recognition) is built only if `BinPack2` splits; the report
    /// names the coarse solver's splitter. Returns `None` when no
    /// contraction was possible (edgeless host), in which case the caller
    /// falls through to the direct solve.
    fn solve_coarsened(
        &self,
        cc: &crate::pipeline::CoarsenConfig,
        ws: &Workspace,
    ) -> Option<Report> {
        let inst = self.inst;
        let (g, costs, weights) = (inst.graph(), inst.costs(), inst.weights());

        let front = crate::coarsen::CoarseningFront::build(g, costs, weights, &cc.params);
        if front.num_levels() == 0 {
            return None;
        }
        let (cg, ccosts, cweights) = front.coarsest((g, costs, weights));
        let mut coarse_inst = Instance::new(cg.clone(), ccosts.to_vec(), cweights.to_vec())
            .expect("contraction of a valid instance is valid");
        for m in inst.extra_measures() {
            coarse_inst = coarse_inst
                .with_extra_measure(front.coarsen_measure(m))
                .expect("coarsened measure of a valid measure is valid");
        }
        let coarse_solver = Solver::for_instance(&coarse_inst)
            .classes(self.k)
            .config(PipelineConfig {
                coarsen: None,
                ..self.cfg.clone()
            })
            .build()
            .expect("k and p were validated at the host build");
        let coarse = coarse_solver.solve_in(ws);
        let projected = front
            .project_to_host((g, costs, weights), coarse.coloring, |fg, fc, fw, chi| {
                crate::refine::refine(fg, fc, fw, chi, &cc.kl)
            })
            .expect("level triples are valid by construction");
        let stage3 = binpack2(g, &OnFirstSplit(self), &projected, inst.domain(), weights);
        debug_assert!(stage3.is_total(), "cascade must color every vertex");
        Some(self.report(coarse.splitter, stage3))
    }

    /// [`Solver::solve`], then spend the budgets in `cfg` improving the
    /// pipeline's coloring with the branch-and-bound engine of
    /// [`crate::bnb`], seeded from it. The returned report is **never
    /// worse** than [`Solver::solve`]'s — at node budget 0 it *is* the
    /// pipeline's — and [`Report::certified`] always carries the
    /// engine's gap: ratio exactly 1.0 when the search exhausted (the
    /// coloring is the proven optimum), the root certifier-stack gap
    /// when it was truncated.
    pub fn solve_anytime(&self, cfg: &crate::bnb::BnbConfig) -> Report {
        let mut report = self.solve();
        let sol =
            crate::bnb::solve_seeded(self.inst, self.k, cfg, Some(&report.coloring), &mut |_| {
                false
            })
            .expect("k ≥ 1 was checked at build time");
        if sol.max_boundary < report.max_boundary {
            // The search improved on the pipeline: report its coloring.
            report = self.report(report.splitter, sol.coloring);
        }
        report.certified = Some(sol.gap);
        report
    }

    /// Warm re-solve after an [`InstanceDelta`]: mutate this solver's
    /// instance and repair `previous` (the coloring this solver — or an
    /// earlier `resolve_delta` — served for the pre-mutation instance)
    /// instead of solving from scratch.
    ///
    /// The warm path: project `previous` onto the mutated instance,
    /// greedy-assign any appended vertices to the lightest class,
    /// KL-repair it ([`refine`]), and restore eq. (1) with a `BinPack2`
    /// pass only if the repair left it broken. A second candidate runs the
    /// same repair from the LPT floor. The cheaper candidate that passes
    /// **the same validation gate the resilient ladder serves through**
    /// — total, strictly balanced, no worse than the LPT floor — is
    /// served; if neither passes, a cold [`auto_splitter`] solve of the
    /// mutated instance is, and if that fails the gate too, the floor
    /// itself (`DeltaSolve::warm` reports which path produced the served
    /// coloring). Either way, the returned coloring passed the gate: warm
    /// serving never trades away the strict-balance contract. Being no
    /// worse than a fresh solve of the mutated instance is not part of
    /// the contract: it is what `tests/warm_path.rs` measures.
    ///
    /// Cost: a value-only delta (weights and costs, no vertex or edge
    /// added or removed) copies the base CSR instead of rebuilding it, and
    /// each of the two KL runs (from the incumbent and from the LPT floor)
    /// pays `O(n + m)` to set up and then only for the boundary vertices
    /// it visits. The LPT floor, the gate's validations and the copies of
    /// the instance's vectors stay `O(n)` or `O(n log n)`.
    ///
    /// Errors: [`SolveError::WarmStartMismatch`] when `previous` does not
    /// fit this solver's instance or `k`, or the delta's own typed
    /// [`InstanceError`](crate::api::InstanceError) wrapped in
    /// [`SolveError::Instance`].
    ///
    /// [`refine`]: crate::refine::refine
    pub fn resolve_delta(
        &self,
        delta: &InstanceDelta,
        previous: &Coloring,
    ) -> Result<DeltaSolve, SolveError> {
        if previous.k() != self.k {
            return Err(SolveError::WarmStartMismatch { what: "k" });
        }
        if previous.num_vertices() != self.inst.num_vertices() {
            return Err(SolveError::WarmStartMismatch { what: "n" });
        }
        let inst2 = delta.apply(self.inst)?;
        let (g, costs, weights) = (inst2.graph(), inst2.costs(), inst2.weights());
        let n_old = self.inst.num_vertices();

        // Project the incumbent onto the mutated instance (vertex ids of
        // survivors are stable; only appended vertices are new).
        let mut chi = Coloring::new_uncolored(inst2.num_vertices(), self.k);
        for v in 0..n_old as u32 {
            if let Some(c) = previous.get(v) {
                chi.set(v, c);
            }
        }
        // Appended (and any previously uncolored) vertices go to the
        // lightest class — the same greedy that makes the ladder's floor
        // rungs strict in any order.
        let uncolored: Vec<u32> = (0..inst2.num_vertices() as u32)
            .filter(|&v| chi.get(v).is_none())
            .collect();
        let mut loads = chi.class_measures(weights);
        assign_lightest(&mut chi, &mut loads, uncolored, weights);
        // KL repair: its passes visit only the boundary vertices, the
        // only ones with a move to make, so one run reaches the delta's
        // damage wherever it lies (still far cheaper than a cold solve —
        // no recognition, no Prop 7/11/12 stages).
        let params = crate::refine::KlParams::default();
        let mut chi = crate::refine::refine(g, costs, weights, &chi, &params)?;
        // The mutation (or the repair's balance envelope, which is looser
        // than eq. (1)) may have broken strict balance; restore it with
        // the Proposition 12 pass. `OrderSplitter::by_id` needs no
        // structure recognition and is always available.
        if !chi.is_strictly_balanced(weights) {
            let splitter = OrderSplitter::by_id(g);
            chi = binpack2(g, &splitter, &chi, inst2.domain(), weights);
        }

        // Second warm candidate: a full KL sweep seeded from the LPT
        // rung instead of the incumbent. When a mutation moves the
        // balance landscape enough that the incumbent's basin is no
        // longer the good one, this restart escapes it — still without
        // touching the pipeline.
        let lpt = crate::resilient::ladder::lpt_coloring(&inst2, self.k);
        let floor_cost = lpt.max_boundary_cost(g, costs);
        let mut restart = crate::refine::refine(g, costs, weights, &lpt, &params)?;
        if !restart.is_strictly_balanced(weights) {
            let splitter = OrderSplitter::by_id(g);
            restart = binpack2(g, &splitter, &restart, inst2.domain(), weights);
        }

        // The same gate the resilient ladder serves through; of the
        // candidates that pass it, serve the cheapest.
        let warm_best = [chi, restart]
            .into_iter()
            .filter_map(|cand| {
                crate::resilient::ladder::validate(&inst2, &cand, floor_cost)
                    .ok()
                    .map(|cost| (cand, cost))
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b));
        if let Some((coloring, cost)) = warm_best {
            return Ok(DeltaSolve {
                coloring,
                max_boundary: cost,
                floor_cost,
                warm: true,
                instance: inst2,
            });
        }

        // Cold fallback: a fresh `auto_splitter` solve of the mutated
        // instance, still gate-checked; if even the pipeline's output
        // fails the gate (it can exceed the LPT floor on adversarial
        // costs), serve the floor itself — it passes by construction.
        let report = Solver::for_instance(&inst2)
            .classes(self.k)
            .config(self.cfg.clone())
            .build()?
            .solve();
        let (coloring, max_boundary) =
            match crate::resilient::ladder::validate(&inst2, &report.coloring, floor_cost) {
                Ok(cost) => (report.coloring, cost),
                Err(_) => (lpt, floor_cost),
            };
        Ok(DeltaSolve {
            coloring,
            max_boundary,
            floor_cost,
            warm: false,
            instance: inst2,
        })
    }

    /// The instance this solver is bound to.
    pub fn instance(&self) -> &'i Instance {
        self.inst
    }

    /// Number of classes `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Name of this solver's splitter (e.g. `"gridsplit"`, `"tree"`,
    /// `"order/path"`, `"bfs"`); builds it if no solve has yet.
    pub fn splitter_name(&self) -> &str {
        self.resolved().0.name()
    }

    /// The family label of the splitter: for [`auto_splitter`]'s pick the
    /// detected structure — `"grid"`, `"forest"`, `"path"`, or
    /// `"arbitrary"` (BFS fallback), building the pick if no solve has
    /// yet — and `"custom"` for a caller's [`SolverBuilder::splitter`].
    pub fn family(&self) -> &'static str {
        self.resolved().1
    }
}

/// The outcome of a [`Solver::resolve_delta`] warm re-solve.
///
/// Owns the mutated [`Instance`] (build the next solver — or apply the
/// next delta — against it) and the served coloring, which passed the
/// ladder's validation gate on whichever path (`warm`) produced it.
#[derive(Debug)]
pub struct DeltaSolve {
    /// The mutated instance the coloring is for.
    pub instance: Instance,
    /// The served coloring: total, strictly balanced, within the floor.
    pub coloring: Coloring,
    /// `‖∂χ⁻¹‖_∞` of the served coloring.
    pub max_boundary: f64,
    /// The LPT floor rung's cost on the mutated instance — the gate's
    /// monotonicity bound.
    pub floor_cost: f64,
    /// `true` if a repair candidate (from the incumbent or the LPT
    /// floor) passed the gate; `false` if the result came from the cold
    /// fallback solve or the floor.
    pub warm: bool,
}

impl std::fmt::Debug for Solver<'_> {
    /// Prints the splitter only if it is already built: formatting must
    /// not build it (or run the recognition behind it).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (splitter, family) = match &self.splitter {
            SplitterSlot::Caller(s) => (s.name(), "custom"),
            SplitterSlot::Auto(auto) => auto
                .slot
                .get()
                .map_or(("unresolved", "unresolved"), |(s, family)| {
                    (s.name(), *family)
                }),
        };
        f.debug_struct("Solver")
            .field("k", &self.k)
            .field("p", &self.cfg.p)
            .field("splitter", &splitter)
            .field("family", &family)
            .finish()
    }
}
