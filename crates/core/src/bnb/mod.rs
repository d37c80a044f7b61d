//! Anytime branch-and-bound solver for the strictly balanced min-max
//! boundary problem — the workspace's one exact search.
//!
//! The engine enumerates colorings as *restricted growth strings* over a
//! fixed vertex order (descending degree, ties by id), so each partition
//! is visited once per color-permutation class, and cuts a node on the
//! certified bound maintained incrementally by
//! [`bounds::IncrementalBounds`]: each `update(vertex, class)` returns
//! `max(‖∂(partial)‖_∞, (cut₂ + packₛ)/k)`, folding the edge-packing
//! certifier of [`crate::lower_bounds::packing`] into every branching
//! decision, and `reset()` pops it again in `O(deg)`.
//!
//! Three more ingredients make the solver *anytime*:
//!
//! * **Seeded incumbent** — the search starts from the
//!   [`Theorem4Pipeline`] coloring, so the result is never worse than
//!   the pipeline's even at node budget 0.
//! * **Root gap** — before searching, the polynomial
//!   [`static_lower_bound`] stack prices the root. If the seed already matches it, the search
//!   is skipped entirely (the seed is proven optimal); otherwise the
//!   root bound is the certified `lower` of any truncated run.
//! * **Deterministic interruption** — [`BnbConfig`] carries a node
//!   budget (and optionally a wall-clock deadline); the stop check runs
//!   *before* a node is counted, so the visited sets of two runs with
//!   budgets `b₁ ≤ b₂` are prefixes of one another and the incumbent —
//!   hence the certified gap ratio — is monotone in the budget.
//!
//! When the search exhausts (`proven_optimal`), the incumbent *is* the
//! optimum, and [`BnbBound`] certifies it as a lower bound with a
//! replayable [`Derivation::BnbOptimal`] — this is what lifts certified
//! gap ratios to exactly 1.0. [`BnbConfig::exhaustive`] removes every
//! budget, so `solve(inst, k, &BnbConfig::exhaustive())` is the exact
//! optimum the differential suites score every partitioner against.
//!
//! Entry points: [`solve`] for direct use (its
//! [`BnbConfig::node_budget`] is the deterministic node-count clock the
//! anytime tests truncate with), [`BnbPartitioner`] for the
//! `&[&dyn Partitioner]` harness loops, and
//! [`Solver::solve_anytime`](crate::api::Solver::solve_anytime) for the
//! front-door API.

pub mod bounds;

// lint: allow(nondeterminism) — import only; both call sites carry their
// own audited pragmas (deadline checks affect truncation, not the answer).
use std::time::{Duration, Instant};

use mmb_graph::{Coloring, VertexId};

use crate::api::error::SolveError;
use crate::api::instance::Instance;
use crate::api::partitioner::{Partitioner, Theorem4Pipeline};
use crate::lower_bounds::{static_lower_bound, Certificate, CertifiedGap, Derivation, LowerBound};

use bounds::IncrementalBounds;

/// Default node budget of [`BnbConfig::default`]: generous enough to
/// exhaust every `n ≤ 20` corpus instance, small enough to stay
/// interactive on dense `n ≈ 30` hosts.
pub const DEFAULT_NODE_BUDGET: u64 = 500_000;

/// Default wall-clock polling stride of [`BnbConfig::default`]: the
/// deadline is consulted on the first node and every 1024th after, a
/// balance between hot-loop cleanliness and overshoot (≤ 1023 nodes past
/// the wall).
pub const DEFAULT_DEADLINE_POLL_STRIDE: u64 = 1024;

/// Budget configuration of one branch-and-bound run.
///
/// `None` everywhere means *exhaustive*: the search runs until the space
/// is exhausted and the result is the proven optimum. A node budget is
/// the deterministic (seed-stable) way to truncate; the wall-clock
/// deadline exists for interactive callers and is checked on the first
/// node and then every `deadline_poll_stride` nodes, so overshoot past
/// the wall is bounded by `stride − 1` node expansions (plus the one in
/// flight) — shrink the stride when nodes are expensive and the deadline
/// tight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BnbConfig {
    /// Maximum number of search nodes to visit (`None` = unlimited).
    pub node_budget: Option<u64>,
    /// Wall-clock budget (`None` = unlimited). Prefer node budgets in
    /// tests: deadlines are inherently machine-dependent.
    pub time_budget: Option<Duration>,
    /// How often (in visited nodes) the wall-clock deadline is polled;
    /// node 0 is always polled. Values below 1 behave as 1 (poll every
    /// node). Irrelevant without a `time_budget`.
    pub deadline_poll_stride: u64,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            node_budget: Some(DEFAULT_NODE_BUDGET),
            time_budget: None,
            deadline_poll_stride: DEFAULT_DEADLINE_POLL_STRIDE,
        }
    }
}

impl BnbConfig {
    /// No budgets: run to exhaustion, return the proven optimum.
    pub fn exhaustive() -> Self {
        BnbConfig {
            node_budget: None,
            ..Self::default()
        }
    }

    /// Exhaustive except for a node budget of `nodes`.
    pub fn with_node_budget(nodes: u64) -> Self {
        BnbConfig {
            node_budget: Some(nodes),
            time_budget: None,
            deadline_poll_stride: DEFAULT_DEADLINE_POLL_STRIDE,
        }
    }

    /// Exhaustive except for a wall-clock budget of `deadline`, polled
    /// every `stride` nodes.
    pub fn with_time_budget(deadline: Duration, stride: u64) -> Self {
        BnbConfig {
            node_budget: None,
            time_budget: Some(deadline),
            deadline_poll_stride: stride,
        }
    }
}

/// The result of a branch-and-bound run: the best incumbent, whether it
/// is the proven optimum, and the certified gap either way.
#[derive(Clone, Debug)]
pub struct BnbSolution {
    /// The best strictly balanced coloring found (never worse than the
    /// seeding pipeline's).
    pub coloring: Coloring,
    /// Its maximum boundary cost, recomputed from scratch.
    pub max_boundary: f64,
    /// Search nodes visited (0 when the root bound already proved the
    /// seed optimal).
    pub nodes: u64,
    /// Whether the search exhausted the space — in which case
    /// `max_boundary` *is* `OPT`.
    pub proven_optimal: bool,
    /// The certified gap: `(max_boundary, max_boundary, ratio 1.0)` when
    /// proven, `(root static bound, max_boundary)` when truncated.
    pub gap: CertifiedGap,
}

struct Engine<'a, 'f> {
    inst: &'a Instance,
    k: usize,
    order: Vec<VertexId>,
    /// `suffix_w[i]` = total weight of `order[i..]` (deficit prune).
    suffix_w: Vec<f64>,
    lo: f64,
    hi: f64,
    bounds: IncrementalBounds,
    best_cost: f64,
    best: Option<Vec<u32>>,
    nodes: u64,
    truncated: bool,
    /// Stop predicate over the visited-node count; checked *before* the
    /// node is counted so budgeted runs visit exact prefixes.
    stop: &'f mut dyn FnMut(u64) -> bool,
}

impl Engine<'_, '_> {
    /// DFS over `order[i..]`; `used` = number of colors in use so far
    /// (restricted growth: reuse `0..used` or open color `used`).
    fn dfs(&mut self, i: usize, used: usize) {
        if (self.stop)(self.nodes) {
            self.truncated = true;
            return;
        }
        self.nodes += 1;
        if i == self.order.len() {
            if self.bounds.meets_lower(self.lo) {
                let cost = self.bounds.current_max_boundary();
                if cost < self.best_cost {
                    self.best_cost = cost;
                    self.best = Some(self.bounds.colors().to_vec());
                }
            }
            return;
        }
        if self.bounds.lower_deficit(self.lo) > self.suffix_w[i] {
            return;
        }
        let v = self.order[i];
        let wv = self.inst.weights()[v as usize];
        for c in 0..self.k.min(used + 1) {
            if self.bounds.class_weight(c) + wv > self.hi {
                continue;
            }
            let child_bound = self.bounds.update(self.inst, v, c as u32);
            if child_bound < self.best_cost {
                self.dfs(i + 1, used.max(c + 1));
            }
            self.bounds.reset(self.inst);
            if self.truncated {
                return;
            }
        }
    }
}

/// Run the branch-and-bound solver on `(inst, k)` under `cfg`.
///
/// Deterministic: same instance, same `k`, same config, same solution —
/// bit for bit. With [`BnbConfig::exhaustive`] the result is the proven
/// optimum.
pub fn solve(inst: &Instance, k: usize, cfg: &BnbConfig) -> Result<BnbSolution, SolveError> {
    solve_seeded(inst, k, cfg, None)
}

/// Full-control entry: optionally seed the incumbent with a caller
/// coloring (the solver seeds from [`Theorem4Pipeline`] otherwise).
pub(crate) fn solve_seeded(
    inst: &Instance,
    k: usize,
    cfg: &BnbConfig,
    seed: Option<&Coloring>,
) -> Result<BnbSolution, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    crate::failpoint::raise("bnb::solve")?;
    let n = inst.num_vertices();
    let weights = inst.weights();
    let avg = inst.total_weight() / k as f64;
    let slack = crate::bounds::strict_slack(k, inst.max_weight());
    // Same scale-invariant tolerance as `Coloring::is_strictly_balanced`.
    let tol = 1e-9 * inst.max_weight().max(1e-300);
    let mut order: Vec<VertexId> = (0..n as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(inst.graph().degree(v)), v));
    let mut suffix_w = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix_w[i] = suffix_w[i + 1] + weights[order[i] as usize];
    }

    // Incumbent: caller seed if strictly balanced, else the pipeline's
    // coloring — so the result is never worse than the pipeline's.
    let mut best_cost = f64::INFINITY;
    let mut best: Option<Vec<u32>> = None;
    let install = |chi: &Coloring, best_cost: &mut f64, best: &mut Option<Vec<u32>>| {
        if chi.strict_balance_defect(weights) <= tol {
            let cost = chi.max_boundary_cost(inst.graph(), inst.costs());
            if cost < *best_cost {
                *best_cost = cost;
                *best = Some((0..n as u32).map(|v| chi.raw(v)).collect());
            }
        }
    };
    if let Some(chi) = seed {
        install(chi, &mut best_cost, &mut best);
    }
    if best.is_none() {
        if let Ok(chi) = Theorem4Pipeline::default().partition(inst, k) {
            install(&chi, &mut best_cost, &mut best);
        }
    }

    // Root gap from the polynomial stack (the full stack would recurse —
    // this engine is itself one of its certifiers).
    let root = static_lower_bound(inst, k);
    let root_lower = root.value();
    let root_certifier = root.winner();

    let mut nodes = 0u64;
    let mut truncated = false;
    // Root early-stop: lower ≤ OPT ≤ best_cost, so equality (or an
    // incumbent at/below the bound) proves the seed optimal without
    // visiting a single node.
    if best.is_none() || best_cost > root_lower {
        let budget = cfg.node_budget.unwrap_or(u64::MAX);
        // lint: allow(nondeterminism) — wall-clock deadline is an explicit,
        // caller-opted time budget; expiry sets `truncated` (reported as
        // such) and never changes an exactness claim.
        let deadline = cfg.time_budget.and_then(|d| Instant::now().checked_add(d));
        let stride = cfg.deadline_poll_stride.max(1);
        let mut stop = |visited: u64| {
            crate::failpoint::raise_any("bnb::node");
            visited >= budget
                // lint: allow(nondeterminism) — deadline check, see above.
                // Node 0 always satisfies the stride test, so the very
                // first node is polled and a pre-expired deadline stops
                // the search before any expansion.
                || deadline.is_some_and(|t| visited.is_multiple_of(stride) && Instant::now() >= t)
        };
        let mut engine = Engine {
            inst,
            k,
            bounds: IncrementalBounds::new(inst, k, &order),
            order,
            suffix_w,
            lo: avg - slack - tol,
            hi: avg + slack + tol,
            best_cost,
            best,
            nodes: 0,
            truncated: false,
            stop: &mut stop,
        };
        engine.dfs(0, 0);
        nodes = engine.nodes;
        truncated = engine.truncated;
        best = engine.best;
    }

    let best = best.expect("a strictly balanced coloring always exists (Proposition 12)");
    let coloring = Coloring::from_vec(k, best);
    // Report the cost recomputed from scratch (the incremental search
    // values carry negligible but nonzero fp drift).
    let max_boundary = coloring.max_boundary_cost(inst.graph(), inst.costs());
    let proven_optimal = !truncated;
    let gap = if proven_optimal {
        // Exhausted: the incumbent is OPT, the strongest possible lower
        // bound — ratio exactly 1.0.
        CertifiedGap::new(max_boundary, max_boundary, "bnb")
    } else {
        CertifiedGap::new(root_lower, max_boundary, root_certifier)
    };
    Ok(BnbSolution {
        coloring,
        max_boundary,
        nodes,
        proven_optimal,
        gap,
    })
}

/// The branch-and-bound solver as a [`Partitioner`], so it drops into
/// the harness loops (corpus table, differential suites) next to the
/// pipeline and the baselines.
#[derive(Clone, Copy, Debug, Default)]
pub struct BnbPartitioner {
    /// Budgets for each `partition` call.
    pub cfg: BnbConfig,
}

impl Partitioner for BnbPartitioner {
    fn name(&self) -> &str {
        "bnb (anytime)"
    }

    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        solve(inst, k, &self.cfg).map(|s| s.coloring)
    }
}

/// The branch-and-bound engine as a certifier: when its budgeted search
/// exhausts, the incumbent *is* `OPT` and is certified as the (strongest
/// possible) lower bound. A truncated run proves nothing new — the
/// static certifiers already cover that case — so it declines.
#[derive(Clone, Copy, Debug)]
pub struct BnbBound {
    /// Decline instances larger than this (the search would only
    /// truncate and decline anyway; this keeps the stack cheap).
    pub max_vertices: usize,
    /// Node budget of the certification run.
    pub node_budget: u64,
}

impl Default for BnbBound {
    fn default() -> Self {
        BnbBound {
            max_vertices: 24,
            node_budget: 2_000_000,
        }
    }
}

impl LowerBound for BnbBound {
    fn name(&self) -> &'static str {
        "bnb"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        if k == 0 || inst.num_vertices() > self.max_vertices {
            return None;
        }
        let cfg = BnbConfig::with_node_budget(self.node_budget);
        let s = solve(inst, k, &cfg).ok()?;
        if !s.proven_optimal {
            return None;
        }
        Some(Certificate {
            certifier: self.name(),
            value: s.max_boundary,
            derivation: Derivation::BnbOptimal {
                optimum: s.max_boundary,
                nodes: s.nodes,
                node_budget: self.node_budget,
            },
        })
    }
}

/// Replay a [`Derivation::BnbOptimal`]: re-run the search under the
/// stored node budget and require it to exhaust again at the same
/// optimum.
pub(crate) fn replay_bnb(
    inst: &Instance,
    k: usize,
    optimum: f64,
    node_budget: u64,
) -> Result<f64, String> {
    let cfg = BnbConfig::with_node_budget(node_budget);
    let s = solve(inst, k, &cfg).map_err(|e| e.to_string())?;
    if !s.proven_optimal {
        return Err(format!(
            "bnb replay truncated at budget {node_budget}; certificate claims a proven optimum"
        ));
    }
    if (s.max_boundary - optimum).abs() > 1e-9 * (1.0 + optimum.abs()) {
        return Err(format!(
            "bnb replay proved optimum {}, certificate says {}",
            s.max_boundary, optimum
        ));
    }
    Ok(s.max_boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::lattice::hypercube;
    use mmb_graph::gen::misc::{cycle, path};
    use mmb_graph::graph::graph_from_edges;

    fn unit(g: mmb_graph::Graph) -> Instance {
        let (n, m) = (g.num_vertices(), g.num_edges());
        Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap()
    }

    /// Runs an exhaustive search and checks it proves `opt` with a total,
    /// strictly balanced witness, the tight `bnb` gap, and a node count far
    /// below the raw k^n search space.
    fn assert_proves(inst: &Instance, k: usize, opt: f64) -> BnbSolution {
        let s = solve(inst, k, &BnbConfig::exhaustive()).unwrap();
        assert!(s.proven_optimal);
        assert_eq!(s.max_boundary, opt);
        assert_eq!(s.gap.ratio, 1.0);
        assert_eq!(s.gap.certifier, "bnb");
        assert!(s.coloring.is_total());
        assert!(s.coloring.is_strictly_balanced(inst.weights()));
        assert!(s.nodes < 25_000, "search visited {} nodes", s.nodes);
        s
    }

    #[test]
    fn exhaustive_run_matches_known_optima() {
        for (inst, k, opt) in [
            (unit(path(6)), 2usize, 1.0),
            (unit(path(6)), 3, 2.0),
            (unit(cycle(8)), 2, 2.0),
            (unit(hypercube(3)), 2, 4.0),
        ] {
            assert_proves(&inst, k, opt);
        }
    }

    #[test]
    fn monochromatic_optimum_for_one_class() {
        assert_proves(&unit(cycle(5)), 1, 0.0);
    }

    #[test]
    fn costs_steer_the_optimal_cut() {
        // Path 0-1-2-3 with an expensive middle edge: unit weights force
        // 2+2 classes, and the optimum is the non-contiguous split
        // {0,3}|{1,2} that cuts the two cheap edges (cost 2). Weights
        // (3,1,1,3) make {0}|{1,2,3} feasible, cutting one cheap edge.
        let p4 = || graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let costly_middle = Instance::new(p4(), vec![1.0, 10.0, 1.0], vec![1.0; 4]).unwrap();
        assert_proves(&costly_middle, 2, 2.0);
        let heavy_ends =
            Instance::new(p4(), vec![1.0, 10.0, 1.0], vec![3.0, 1.0, 1.0, 3.0]).unwrap();
        assert_proves(&heavy_ends, 2, 1.0);
    }

    #[test]
    fn respects_strict_balance_feasibility() {
        // A heavy endpoint widens eq. (1)'s window (‖w‖∞ = 4) enough to
        // stand alone: {0}|{1,2,3,4} cuts a single edge, and the witness
        // satisfies eq. (1) exactly.
        let heavy_head =
            Instance::new(path(5), vec![1.0; 4], vec![4.0, 1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_proves(&heavy_head, 2, 1.0);
    }

    #[test]
    fn symmetry_pruning_keeps_node_count_sane() {
        // P₁₀ at k = 3 has S(10,1) + S(10,2) + S(10,3) = 9842
        // restricted-growth leaves; pruning keeps the search far below
        // the raw 3^10 = 59049 nodes.
        assert_proves(&unit(path(10)), 3, 2.0);
    }

    #[test]
    fn default_budget_exhausts_an_eighteen_vertex_path() {
        let inst = unit(path(18));
        let s = solve(&inst, 2, &BnbConfig::default()).unwrap();
        assert!(s.proven_optimal, "truncated after {} nodes", s.nodes);
        assert_eq!(s.max_boundary, 1.0);
    }

    #[test]
    fn budget_zero_returns_the_pipeline_seed() {
        let inst = unit(cycle(12));
        let s = solve(&inst, 2, &BnbConfig::with_node_budget(0)).unwrap();
        let pipe = Theorem4Pipeline::default().partition(&inst, 2).unwrap();
        let pipe_cost = pipe.max_boundary_cost(inst.graph(), inst.costs());
        assert!(s.max_boundary <= pipe_cost);
        assert!(s.coloring.is_strictly_balanced(inst.weights()));
        // Truncated (unless the root bound already proved the seed
        // optimal) — either way the gap is sound.
        assert!(s.gap.lower <= s.max_boundary + 1e-12);
    }

    #[test]
    fn root_bound_skips_the_search_when_the_seed_is_optimal() {
        // Bisecting a path cuts exactly one unit edge, and the pipeline
        // finds that; the static stack certifies ≥ 1 (packing/min-cut),
        // so the root check proves optimality with zero nodes visited.
        let inst = unit(path(12));
        let s = solve(&inst, 2, &BnbConfig::exhaustive()).unwrap();
        assert!(s.proven_optimal);
        assert_eq!(s.max_boundary, 1.0);
        assert_eq!(s.nodes, 0, "root bound should have pruned the search");
    }

    #[test]
    fn node_budget_truncates_deterministically() {
        let inst = unit(cycle(14));
        let run = |budget: u64| solve(&inst, 3, &BnbConfig::with_node_budget(budget)).unwrap();
        let a = run(50);
        let b = run(50);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.max_boundary.to_bits(), b.max_boundary.to_bits());
        assert!(!a.proven_optimal || a.nodes <= 50);
        assert!(a.coloring.is_strictly_balanced(inst.weights()));
    }

    #[test]
    fn certifier_fires_only_on_proven_optima() {
        let inst = unit(path(18));
        let cert = BnbBound::default().certify(&inst, 2).unwrap();
        assert_eq!(cert.value, 1.0);
        assert!(matches!(cert.derivation, Derivation::BnbOptimal { .. }));
        assert!((cert.derivation.replay(&inst, 2).unwrap() - 1.0).abs() < 1e-12);
        // Over the size cap: decline.
        let big = unit(path(30));
        assert!(BnbBound::default().certify(&big, 2).is_none());
        // Starved budget on a hard instance: decline rather than certify
        // an unproven incumbent.
        let hard = unit(hypercube(4));
        let starved = BnbBound {
            max_vertices: 24,
            node_budget: 3,
        };
        assert!(starved.certify(&hard, 2).is_none());
    }

    #[test]
    fn partitioner_name_and_contract() {
        let p = BnbPartitioner::default();
        assert_eq!(p.name(), "bnb (anytime)");
        let inst = unit(cycle(10));
        let chi = p.partition(&inst, 2).unwrap();
        assert!(chi.is_total());
        assert!(chi.is_strictly_balanced(inst.weights()));
        assert!(p.partition(&inst, 0).is_err());
    }
}
