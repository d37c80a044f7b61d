//! Certified lower bounds on the min-max boundary cost — the gap engine.
//!
//! Exhaustive search gives ground truth only on small instances;
//! everywhere else the harness could report a Theorem-5 *upper*-bound
//! ratio but no certified distance to the optimum. This module closes
//! that hole with a stack of cheap combinatorial **certifiers**: each
//! one inspects an [`Instance`] and, when its preconditions hold,
//! returns a [`Certificate`] — a provable lower bound on
//!
//! ```text
//! OPT(G, c, w, k) = min { ‖∂χ⁻¹‖_∞ : χ strictly balanced k-coloring }
//! ```
//!
//! together with a machine-checkable [`Derivation`] that
//! [`Derivation::replay`] can re-derive from first principles. The stack
//! ([`standard_certifiers`]):
//!
//! * [`volume::VolumeBound`] — the averaging bound: any strictly balanced
//!   coloring cuts at least `q − t` edges (`q` = a floor on the number of
//!   occupied classes, `t` = connected components), each boundary cost is
//!   counted twice across classes, so
//!   `OPT ≥ (2/k)·Σ(q − t cheapest edge costs)`. This is the sound form
//!   of the volume term implicit in Theorem 5 — note the *naive* reading
//!   `‖c‖₁/k` is **not** a lower bound (a path already refutes it), which
//!   is exactly why the derivation is carried explicitly.
//! * [`volume::DisconnectedBound`] — on disconnected hosts, proves by
//!   exhaustive (pruned) search that no grouping of whole components is
//!   strictly balanced, hence some component must be split and at least
//!   one edge cut.
//! * [`packing::EdgePackingBound`] — the Träff–Wimmer-style
//!   boundary-degree bound (arXiv:1410.0462): per vertex, a knapsack over
//!   the incident edges upper-bounds the cost a weight-capped class can
//!   retain, and the rest is certified cut. The knapsack packs *whole
//!   edges* — an exact 0/1 problem (budgeted branch-and-bound) whose
//!   masses dominate the fractional relaxation's by construction.
//! * [`packing::MinCutBound`] — the weight-based cut bound (cf. the
//!   Gutin–Yeo survey, arXiv:2104.05536): with ≥ 2 occupied classes on a
//!   connected host every class is a proper non-empty subset, so
//!   `OPT ≥ λ(G, c)`, the global min cut (Stoer–Wagner), with the cut
//!   side kept as the replayable witness.
//! * [`cutpair::CutPairBound`] — the Gutin–Yeo-style forced-separation
//!   bound: two vertices jointly heavier than the class envelope can
//!   never share a class, so `OPT ≥ λ(u, v)` (max-flow, with the cut
//!   side as witness).
//! * [`structure::StructureBound`] — structure-aware bounds routed
//!   through `mmb_graph::recognize`: Harper's exact edge-isoperimetric
//!   inequality on hypercubes, axis-projection bounds on full lattices
//!   and (via [`mmb_graph::recognize::try_torus_dims`]) tori, and the
//!   cheapest-edge bound on connected trees/paths.
//! * [`crate::bnb::BnbBound`] — the anytime branch-and-bound engine as a
//!   certifier: whenever its budgeted search exhausts (`n ≤ 24`), the
//!   incumbent *is* `OPT` and is certified as such — the strongest
//!   possible lower bound.
//!
//! The first six are the [`static_certifiers`] — polynomial-time, no
//! exhaustive search — which double as the B&B engine's root bound (the
//! full stack there would recurse). [`best_lower_bound`] runs the whole
//! [`standard_certifiers`] stack and keeps every certificate;
//! [`certify`] pairs the best one with an achieved cost — a solved
//! [`Report`](crate::api::Report)'s `max_boundary` — into a
//! [`CertifiedGap`] `{ lower, upper, ratio }`, which the corpus table
//! (`reproduce corpus` gains a gap column and gate) and the perf
//! baselines (`BENCH_6.json`) carry.
//!
//! ## Soundness discipline
//!
//! Every certifier bounds the optimum over *strictly balanced* colorings
//! only — an unbalanced coloring may be cheaper than every certificate,
//! which is why the differential suite (`tests/lower_bounds.rs`) compares
//! certificates against partitioner outputs **only when those outputs are
//! strictly balanced** (the same exemption the exact-optimum suite
//! `tests/oracle_differential.rs` uses).
//! Floating-point comparisons are relaxed in the sound direction: balance
//! windows are widened and count conversions slack-rounded, so a
//! certificate can only be weaker than the exact argument, never
//! stronger.

pub mod cutpair;
pub mod packing;
pub mod structure;
pub mod volume;

use mmb_graph::VertexId;

use crate::api::instance::Instance;

/// One certified lower bound: the certifier that produced it, the bound
/// value, and the machine-checkable derivation.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Short certifier name (`"volume"`, `"edge-packing"`, `"min-cut"`,
    /// `"structure"`, `"bnb"`, …).
    pub certifier: &'static str,
    /// The certified lower bound on `OPT` (≥ 0; 0 is a *trivial*
    /// certificate — the certifier ran but proved nothing positive).
    pub value: f64,
    /// The derivation, replayable via [`Derivation::replay`].
    pub derivation: Derivation,
}

/// The machine-checkable derivation carried by a [`Certificate`].
///
/// Each variant stores the intermediates of its argument;
/// [`Derivation::replay`] recomputes the bound from the instance alone
/// and cross-checks the stored data, so a certificate cannot silently
/// drift from the code that justifies it (property-tested in
/// `tests/lower_bounds.rs`).
#[derive(Clone, Debug)]
pub enum Derivation {
    /// Averaging bound: `2/k ×` the sum of the `required_cut_edges`
    /// cheapest edge costs (see [`volume::VolumeBound`]).
    Volume {
        /// Floor on the number of edges any strictly balanced coloring
        /// cuts (`max(q, ⌈‖w‖₁/hi⌉) − t`, clamped at 0).
        required_cut_edges: usize,
        /// Connected components `t` of the host graph.
        components: usize,
        /// The `required_cut_edges` cheapest edge costs, ascending.
        cheapest: Vec<f64>,
    },
    /// Component-split bound: no strictly balanced grouping of whole
    /// components exists, so ≥ 1 edge is cut
    /// (see [`volume::DisconnectedBound`]).
    Disconnected {
        /// Components of the host graph (≥ 2).
        components: usize,
        /// The cheapest edge cost (the certified cut content).
        min_cost: f64,
        /// Node budget of the feasibility search that produced the
        /// certificate; replay re-runs with the same budget, so a
        /// certificate from a generously configured certifier stays
        /// replayable.
        node_budget: u64,
    },
    /// Global min-cut bound with the witnessing side
    /// (see [`packing::MinCutBound`]).
    MinCut {
        /// The Stoer–Wagner minimum cut value `λ(G, c)`.
        cut_cost: f64,
        /// One side of a minimum cut (proper, non-empty) — the witness
        /// replay re-prices.
        side: Vec<VertexId>,
    },
    /// Structure-aware bound (see [`structure::StructureBound`]).
    Structure {
        /// Which structural family fired (`"hypercube"`, `"lattice"`,
        /// `"torus"`, `"tree"`).
        family: &'static str,
        /// Axis extents of the recognized lattice/torus (empty for
        /// trees).
        extents: Vec<usize>,
        /// Feasible vertex-count range of the heaviest class.
        size_range: (usize, usize),
        /// The cheapest edge cost each counted boundary edge is priced
        /// at.
        min_cost: f64,
        /// The certified minimum number of boundary edges.
        boundary_edges: f64,
    },
    /// Whole-edge packing bound (see [`packing::EdgePackingBound`]).
    EdgePacking {
        /// The summed per-vertex certified cut mass with integral
        /// knapsacks, `Σ_v max(0, τ(v) − knap01_v)`.
        per_vertex_total: f64,
        /// Per-vertex node budget of the 0/1 knapsack searches; replay
        /// re-runs with the same budget.
        vertex_budget: u64,
    },
    /// Forced-separation cut bound (see [`cutpair::CutPairBound`]).
    CutPair {
        /// One vertex of the forced pair (`w(u) + w(v) > hi`).
        u: VertexId,
        /// The other vertex of the forced pair.
        v: VertexId,
        /// The certified (slack-discounted) `u`–`v` min-cut value.
        cut_cost: f64,
        /// The source side of a minimum `u`–`v` cut (contains `u`, not
        /// `v`) — the witness replay re-prices.
        side: Vec<VertexId>,
    },
    /// The exact optimum proven by the anytime branch-and-bound engine
    /// running to exhaustion (see [`crate::bnb::BnbBound`]).
    BnbOptimal {
        /// `OPT` as proven by the exhausted search.
        optimum: f64,
        /// Search nodes visited (complexity probe, not re-checked).
        nodes: u64,
        /// Node budget the certifier ran under; replay re-runs with the
        /// same budget, so a certificate from a generously configured
        /// certifier stays replayable.
        node_budget: u64,
    },
}

impl Derivation {
    /// Recompute the bound from `inst`/`k` alone and cross-check the
    /// stored intermediates; returns the re-derived value (which callers
    /// compare against [`Certificate::value`]) or a description of the
    /// first mismatch.
    pub fn replay(&self, inst: &Instance, k: usize) -> Result<f64, String> {
        match self {
            Derivation::Volume {
                required_cut_edges,
                components,
                cheapest,
            } => volume::replay_volume(inst, k, *required_cut_edges, *components, cheapest),
            Derivation::Disconnected {
                components,
                min_cost,
                node_budget,
            } => volume::replay_disconnected(inst, k, *components, *min_cost, *node_budget),
            Derivation::MinCut { cut_cost, side } => {
                packing::replay_min_cut(inst, k, *cut_cost, side)
            }
            Derivation::Structure {
                family,
                extents,
                size_range,
                min_cost,
                boundary_edges,
            } => structure::replay_structure(
                inst,
                k,
                family,
                extents,
                *size_range,
                *min_cost,
                *boundary_edges,
            ),
            Derivation::EdgePacking {
                per_vertex_total,
                vertex_budget,
            } => packing::replay_edge_packing(inst, k, *per_vertex_total, *vertex_budget),
            Derivation::CutPair {
                u,
                v,
                cut_cost,
                side,
            } => cutpair::replay_cut_pair(inst, k, *u, *v, *cut_cost, side),
            Derivation::BnbOptimal {
                optimum,
                node_budget,
                ..
            } => crate::bnb::replay_bnb(inst, k, *optimum, *node_budget),
        }
    }
}

/// A lower-bound certifier: inspects an instance and either produces a
/// [`Certificate`] or declines (`None`) when its preconditions do not
/// hold. Declining is always sound; every returned value must be a true
/// lower bound on the strictly balanced optimum.
pub trait LowerBound: Sync {
    /// Short certifier name for tables and derivations.
    fn name(&self) -> &'static str;

    /// Certify a lower bound for `(inst, k)`, or decline.
    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate>;
}

/// The polynomial-time subset of the certifier stack — every certifier
/// except the exhaustive-search one ([`crate::bnb::BnbBound`]).
///
/// This is the stack the branch-and-bound engine prices its *root* gap
/// with: running the full [`standard_certifiers`] stack inside the
/// engine would recurse (the engine is itself a certifier there).
pub fn static_certifiers() -> Vec<Box<dyn LowerBound>> {
    vec![
        Box::new(volume::VolumeBound),
        Box::new(volume::DisconnectedBound::default()),
        Box::new(packing::EdgePackingBound::default()),
        Box::new(packing::MinCutBound::default()),
        Box::new(cutpair::CutPairBound::default()),
        Box::new(structure::StructureBound),
    ]
}

/// The standard certifier stack, in evaluation order. One constructor so
/// the solver, the corpus table and the differential suite cannot drift
/// apart when a certifier is added. The exhaustive certifier comes last.
pub fn standard_certifiers() -> Vec<Box<dyn LowerBound>> {
    let mut stack = static_certifiers();
    stack.push(Box::new(crate::bnb::BnbBound::default()));
    stack
}

/// Every certificate the stack produced for one `(inst, k)`, with the
/// best one designated.
#[derive(Clone, Debug, Default)]
pub struct LowerBoundReport {
    /// All certificates, in certifier order.
    pub certificates: Vec<Certificate>,
}

impl LowerBoundReport {
    /// The strongest certificate (highest value; first wins ties).
    pub fn best(&self) -> Option<&Certificate> {
        let mut best: Option<&Certificate> = None;
        for cert in &self.certificates {
            if best.is_none_or(|b| cert.value > b.value) {
                best = Some(cert);
            }
        }
        best
    }

    /// The best certified lower bound (0 when no certifier fired).
    pub fn value(&self) -> f64 {
        self.best().map_or(0.0, |c| c.value)
    }

    /// Name of the winning certifier (`"none"` when nothing fired).
    pub fn winner(&self) -> &'static str {
        self.best().map_or("none", |c| c.certifier)
    }
}

/// Run a certifier stack on `(inst, k)`, clamping defensively.
fn run_stack(stack: Vec<Box<dyn LowerBound>>, inst: &Instance, k: usize) -> LowerBoundReport {
    let mut report = LowerBoundReport::default();
    for certifier in stack {
        if let Some(mut cert) = certifier.certify(inst, k) {
            // Defensive clamp: a lower bound is never negative (and a
            // NaN from a buggy certifier must not poison the max).
            if cert.value.is_nan() || cert.value < 0.0 {
                cert.value = 0.0;
            }
            report.certificates.push(cert);
        }
    }
    report
}

/// Run the [`standard_certifiers`] stack on `(inst, k)`.
pub fn best_lower_bound(inst: &Instance, k: usize) -> LowerBoundReport {
    run_stack(standard_certifiers(), inst, k)
}

/// Run the [`static_certifiers`] stack on `(inst, k)` — the
/// exhaustive-search-free bound the B&B engine roots its certified gap
/// in.
pub fn static_lower_bound(inst: &Instance, k: usize) -> LowerBoundReport {
    run_stack(static_certifiers(), inst, k)
}

/// A certified optimality gap: the best lower bound, an achieved upper
/// bound (some partitioner's cost), and their ratio.
#[derive(Clone, Debug, PartialEq)]
pub struct CertifiedGap {
    /// Best certified lower bound on `OPT` (≥ 0).
    pub lower: f64,
    /// The achieved max boundary cost (`≥ OPT ≥ lower` for strictly
    /// balanced colorings).
    pub upper: f64,
    /// `upper / lower`; `1.0` when both are 0 (certified optimal at
    /// cost 0), `∞` when only the trivial bound is available.
    pub ratio: f64,
    /// Name of the winning certifier.
    pub certifier: String,
}

impl CertifiedGap {
    /// Assemble a gap from a lower bound and an achieved cost.
    pub fn new(lower: f64, upper: f64, certifier: impl Into<String>) -> Self {
        let ratio = if lower > 0.0 {
            upper / lower
        } else if upper <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        CertifiedGap {
            lower,
            upper,
            ratio,
            certifier: certifier.into(),
        }
    }
}

/// Run the certifier stack and pair its best bound with an achieved
/// cost.
pub fn certify(inst: &Instance, k: usize, upper: f64) -> CertifiedGap {
    let report = best_lower_bound(inst, k);
    CertifiedGap::new(report.value(), upper, report.winner())
}

/// Shared arithmetic of the strict-balance window of Definition 1,
/// relaxed by the workspace-wide scale-invariant tolerance **in the sound
/// direction** (wider window ⇒ weaker, never wrong, bounds).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Window {
    /// `‖w‖₁`.
    pub w_total: f64,
    /// `‖w‖∞`.
    pub w_max: f64,
    /// Upper class-weight envelope `w̄ + (1 − 1/k)·‖w‖∞ + tol`.
    pub hi: f64,
    /// Lower class-weight envelope `w̄ − (1 − 1/k)·‖w‖∞ − tol`.
    pub lo: f64,
}

impl Window {
    pub fn new(inst: &Instance, k: usize) -> Self {
        let w_total = inst.total_weight();
        let w_max = inst.max_weight();
        let avg = w_total / k as f64;
        let slack = crate::bounds::strict_slack(k, w_max);
        // Relative tolerance on the *totals* scale: class weights are
        // sums, so their fp drift scales with ‖w‖₁, not ‖w‖∞.
        let tol = 1e-9 * (1.0 + w_total);
        Window {
            w_total,
            w_max,
            hi: avg + slack + tol,
            lo: avg - slack - tol,
        }
    }

    /// Floor on the number of occupied (non-empty-weight) classes of any
    /// strictly balanced `k`-coloring: all `k` when the lower envelope is
    /// positive, and never fewer than `⌈‖w‖₁ / hi⌉` (each class holds at
    /// most `hi`).
    pub fn min_occupied_classes(&self, k: usize) -> usize {
        let all = if self.lo > 0.0 { k } else { 0 };
        let by_weight = if self.hi > 0.0 && self.w_total > 0.0 {
            // Slack-rounded downward: soundness over sharpness.
            (self.w_total / self.hi - 1e-6).ceil().max(0.0) as usize
        } else {
            0
        };
        all.max(by_weight).min(k)
    }

    /// Feasible vertex-count range `[m_lo, m_hi]` of the **heaviest**
    /// class: it carries weight ≥ `w̄` (pigeonhole), so at least
    /// `⌈w̄/‖w‖∞⌉` vertices, and the other classes jointly carry
    /// ≥ `‖w‖₁ − hi`, so at least `⌈(‖w‖₁ − hi)/‖w‖∞⌉` vertices stay
    /// outside it. `None` when weights are degenerate (all zero).
    pub fn heaviest_class_sizes(&self, n: usize, k: usize) -> Option<(usize, usize)> {
        if self.w_max <= 0.0 || n == 0 || k == 0 {
            return None;
        }
        let avg = self.w_total / k as f64;
        let m_lo = ((avg / self.w_max - 1e-6).ceil().max(1.0) as usize).min(n);
        let others = ((self.w_total - self.hi) / self.w_max - 1e-6)
            .ceil()
            .max(0.0) as usize;
        let m_hi = n.saturating_sub(others);
        (m_lo <= m_hi).then_some((m_lo, m_hi))
    }
}

/// The cheapest edge cost of the instance (`∞` on edgeless graphs — the
/// callers all decline before pricing anything on those).
pub(crate) fn min_edge_cost(inst: &Instance) -> f64 {
    inst.costs().iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::path;

    fn unit_path(n: usize) -> Instance {
        Instance::new(path(n), vec![1.0; n - 1], vec![1.0; n]).unwrap()
    }

    #[test]
    fn window_counts_are_sound_and_sane() {
        let inst = unit_path(8);
        let win = Window::new(&inst, 2);
        // Uniform weights, k = 2: both classes occupied, heaviest class
        // has 4..=4 vertices (slack < one vertex weight… hi = 4.5 →
        // 3.5/1 others → m_hi = 8 − 4 = 4).
        assert_eq!(win.min_occupied_classes(2), 2);
        assert_eq!(win.heaviest_class_sizes(8, 2), Some((4, 4)));
    }

    #[test]
    fn certified_gap_ratio_conventions() {
        let g = CertifiedGap::new(2.0, 3.0, "volume");
        assert_eq!(g.ratio, 1.5);
        let zero = CertifiedGap::new(0.0, 0.0, "none");
        assert_eq!(zero.ratio, 1.0);
        let trivial = CertifiedGap::new(0.0, 5.0, "none");
        assert!(trivial.ratio.is_infinite());
    }

    #[test]
    fn stack_produces_a_positive_bound_on_a_path() {
        let inst = unit_path(10);
        let report = best_lower_bound(&inst, 2);
        assert!(report.value() >= 1.0 - 1e-12, "best = {}", report.value());
        // Branch and bound exhausts at this size and is exact, so it must
        // win (or tie).
        assert_eq!(report.value(), 1.0);
        // Every certificate replays to its own value.
        for cert in &report.certificates {
            let replayed = cert.derivation.replay(&inst, 2).unwrap();
            assert!(
                (replayed - cert.value).abs() <= 1e-9 * (1.0 + cert.value),
                "{}: {} vs replay {}",
                cert.certifier,
                cert.value,
                replayed
            );
        }
    }
}
