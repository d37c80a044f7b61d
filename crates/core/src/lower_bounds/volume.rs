//! The averaging ("volume") bound and its disconnected-host companion.
//!
//! **Averaging bound.** Fix any strictly balanced `k`-coloring `χ` and
//! let `F` be its cut edge set. Every cut edge contributes its cost to
//! the boundary of *both* endpoint classes, so
//! `Σ_i ∂χ⁻¹(i) = 2·c(F)` and therefore `‖∂χ⁻¹‖_∞ ≥ (2/k)·c(F)`.
//! It remains to bound `|F|` from below:
//!
//! * removing `F` leaves monochromatic components, each of weight at
//!   most the upper envelope `hi`, so at least `⌈‖w‖₁/hi⌉` of them —
//!   and removing one edge creates at most one new component, giving
//!   `|F| ≥ ⌈‖w‖₁/hi⌉ − t` on a host with `t` components;
//! * when the lower envelope is positive every class is non-empty and
//!   the quotient graph (one node per class) has at most `t`
//!   components, so `|F| ≥ k − t`.
//!
//! With `r` = the larger of the two counts, `c(F)` is at least the sum
//! of the `r` cheapest edge costs — the certificate records `r`, `t` and
//! those costs, which is what makes the derivation replayable. This is
//! the sound form of the `‖c‖₁/k` volume term implicit in Theorem 5's
//! right-hand side; the naive reading is *not* a lower bound (on a unit
//! path `‖c‖₁/k = (n−1)/2` while `OPT = 1`).
//!
//! **Disconnected hosts.** When `t ≥ k` the averaging count is zero, but
//! a zero-cut coloring must assign *whole components* to classes. If an
//! exhaustive (pruned, budgeted) search proves no such grouping is
//! strictly balanced, every feasible coloring splits some component and
//! cuts at least one edge: `OPT ≥ (2/k)·min_e c_e`.

use crate::api::instance::Instance;
use crate::lower_bounds::{min_edge_cost, Certificate, Derivation, LowerBound, Window};

/// The averaging bound `OPT ≥ (2/k)·Σ(r cheapest edge costs)` (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default)]
pub struct VolumeBound;

/// The `r` cheapest edge costs of `inst`, ascending.
fn cheapest_costs(inst: &Instance, r: usize) -> Vec<f64> {
    let mut costs = inst.costs().to_vec();
    costs.sort_unstable_by(f64::total_cmp);
    costs.truncate(r);
    costs
}

/// The edge count `r` the averaging argument certifies, together with
/// the host's component count `t`.
fn required_cut_edges(inst: &Instance, k: usize) -> (usize, usize) {
    let (_, t) = inst.graph().components();
    let q = Window::new(inst, k).min_occupied_classes(k);
    (q.saturating_sub(t).min(inst.num_edges()), t)
}

impl LowerBound for VolumeBound {
    fn name(&self) -> &'static str {
        "volume"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        if k == 0 || inst.num_edges() == 0 {
            return None;
        }
        let (r, t) = required_cut_edges(inst, k);
        let cheapest = cheapest_costs(inst, r);
        let value = 2.0 * cheapest.iter().sum::<f64>() / k as f64;
        Some(Certificate {
            certifier: self.name(),
            value,
            derivation: Derivation::Volume {
                required_cut_edges: r,
                components: t,
                cheapest,
            },
        })
    }
}

/// Replay a [`Derivation::Volume`]: recompute `r` and `t`, re-sort the
/// costs, and cross-check the stored intermediates.
pub(crate) fn replay_volume(
    inst: &Instance,
    k: usize,
    required: usize,
    components: usize,
    cheapest: &[f64],
) -> Result<f64, String> {
    if k == 0 || inst.num_edges() == 0 {
        return Err("volume bound does not apply (k = 0 or edgeless host)".into());
    }
    let (r, t) = required_cut_edges(inst, k);
    if r != required {
        return Err(format!(
            "required cut edges: derived {required}, replay found {r}"
        ));
    }
    if t != components {
        return Err(format!(
            "components: derived {components}, replay found {t}"
        ));
    }
    let fresh = cheapest_costs(inst, r);
    if fresh != cheapest {
        return Err(format!("cheapest costs drifted: {cheapest:?} vs {fresh:?}"));
    }
    Ok(2.0 * fresh.iter().sum::<f64>() / k as f64)
}

/// The component-split bound for disconnected hosts (see the
/// [module docs](self)): fires only when a budgeted exhaustive search
/// proves no strictly balanced grouping of whole components exists.
#[derive(Clone, Copy, Debug)]
pub struct DisconnectedBound {
    /// Refuse hosts with more components than this (the feasibility
    /// search is exponential in the component count).
    pub max_components: usize,
    /// Node budget of the feasibility search; exhausting it makes the
    /// certifier decline (conservative — never unsound).
    pub node_budget: u64,
}

impl Default for DisconnectedBound {
    fn default() -> Self {
        DisconnectedBound {
            max_components: 24,
            node_budget: 2_000_000,
        }
    }
}

/// Total weight per component, largest first (the search converges
/// fastest placing heavy items early).
fn component_weights(inst: &Instance) -> Vec<f64> {
    let (comp_id, t) = inst.graph().components();
    let mut cw = vec![0.0; t];
    for (v, &c) in comp_id.iter().enumerate() {
        cw[c as usize] += inst.weights()[v];
    }
    cw.sort_unstable_by(|a, b| b.total_cmp(a));
    cw
}

/// Exhaustive (pruned) search: can the component weights be grouped into
/// `k` classes with every class sum inside `[lo, hi]`? Returns `None`
/// when the node budget runs out (undecided).
///
/// Recursion depth equals the component count, so item count doubles as a
/// depth guard: both callers bound it via `max_components`, and anything
/// past 64 declines as undecided rather than trusting the caller — a
/// replayed certificate claiming thousands of components must not turn
/// into call-stack depth.
fn grouping_feasible(cw: &[f64], k: usize, lo: f64, hi: f64, budget: &mut u64) -> Option<bool> {
    if cw.len() > 64 {
        return None;
    }
    fn rec(
        cw: &[f64],
        i: usize,
        loads: &mut Vec<f64>,
        suffix: &[f64],
        lo: f64,
        hi: f64,
        budget: &mut u64,
    ) -> Option<bool> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        if i == cw.len() {
            return Some(loads.iter().all(|&l| l >= lo));
        }
        // Deficit prune: the remaining weight must be able to lift every
        // light class to the lower envelope.
        let deficit: f64 = loads.iter().map(|&l| (lo - l).max(0.0)).sum();
        if deficit > suffix[i] {
            return Some(false);
        }
        let mut tried_empty = false;
        for j in 0..loads.len() {
            // Symmetry: identical empty classes are interchangeable.
            if loads[j] == 0.0 {
                if tried_empty {
                    continue;
                }
                tried_empty = true;
            }
            if loads[j] + cw[i] > hi {
                continue;
            }
            loads[j] += cw[i];
            match rec(cw, i + 1, loads, suffix, lo, hi, budget) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            loads[j] -= cw[i];
        }
        Some(false)
    }
    let mut suffix = vec![0.0; cw.len() + 1];
    for i in (0..cw.len()).rev() {
        suffix[i] = suffix[i + 1] + cw[i];
    }
    let mut loads = vec![0.0; k];
    rec(cw, 0, &mut loads, &suffix, lo, hi, budget)
}

impl LowerBound for DisconnectedBound {
    fn name(&self) -> &'static str {
        "split"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        if k == 0 || inst.num_edges() == 0 {
            return None;
        }
        let cw = component_weights(inst);
        let t = cw.len();
        // On connected hosts the averaging bound already counts `k − 1`
        // edges; this certifier is the disconnected-host specialist.
        if t < 2 || t > self.max_components {
            return None;
        }
        let win = Window::new(inst, k);
        let mut budget = self.node_budget;
        match grouping_feasible(&cw, k, win.lo, win.hi, &mut budget) {
            Some(false) => {
                // No whole-component grouping is strictly balanced, so
                // every feasible coloring splits a component: ≥ 1 cut
                // edge, priced at the cheapest cost.
                let min_cost = min_edge_cost(inst);
                Some(Certificate {
                    certifier: self.name(),
                    value: 2.0 * min_cost / k as f64,
                    derivation: Derivation::Disconnected {
                        components: t,
                        min_cost,
                        node_budget: self.node_budget,
                    },
                })
            }
            // Feasible grouping (nothing proved) or budget exhausted
            // (undecided): decline.
            Some(true) | None => None,
        }
    }
}

/// Replay a [`Derivation::Disconnected`]: re-run the feasibility search
/// (with the budget the certificate was produced under) and re-derive
/// the priced bound.
pub(crate) fn replay_disconnected(
    inst: &Instance,
    k: usize,
    components: usize,
    min_cost: f64,
    node_budget: u64,
) -> Result<f64, String> {
    let cw = component_weights(inst);
    if cw.len() != components {
        return Err(format!(
            "components: derived {components}, replay found {}",
            cw.len()
        ));
    }
    let fresh_min = min_edge_cost(inst);
    if fresh_min != min_cost {
        return Err(format!("min edge cost drifted: {min_cost} vs {fresh_min}"));
    }
    let win = Window::new(inst, k);
    let mut budget = node_budget;
    match grouping_feasible(&cw, k, win.lo, win.hi, &mut budget) {
        Some(false) => Ok(2.0 * min_cost / k as f64),
        Some(true) => Err("replay found a feasible whole-component grouping".into()),
        None => Err("replay exhausted the search budget".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{self, BnbConfig};
    use mmb_graph::gen::misc::{cycle, path};
    use mmb_graph::graph::graph_from_edges;

    fn unit(g: mmb_graph::Graph) -> Instance {
        let (n, m) = (g.num_vertices(), g.num_edges());
        Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap()
    }

    #[test]
    fn volume_counts_quotient_edges() {
        // Unit path, k = 2: one cut edge, both classes see it → 2·1/2 = 1.
        let cert = VolumeBound.certify(&unit(path(8)), 2).unwrap();
        assert_eq!(cert.value, 1.0);
        // k = 3: two cut edges → 2·2/3.
        let cert = VolumeBound.certify(&unit(path(9)), 3).unwrap();
        assert!((cert.value - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn volume_uses_cheapest_costs() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = Instance::new(g, vec![5.0, 0.25, 9.0], vec![1.0; 4]).unwrap();
        let cert = VolumeBound.certify(&inst, 2).unwrap();
        assert_eq!(cert.value, 0.25); // 2 · 0.25 / 2
        match &cert.derivation {
            Derivation::Volume {
                required_cut_edges,
                components,
                cheapest,
            } => {
                assert_eq!(*required_cut_edges, 1);
                assert_eq!(*components, 1);
                assert_eq!(cheapest, &[0.25]);
            }
            d => panic!("wrong derivation {d:?}"),
        }
    }

    #[test]
    fn volume_respects_components() {
        // Two disjoint 4-cycles, k = 2: the classes can be the components
        // (zero cut), so the count must be 0.
        let mut edges = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            edges.push((u, v));
            edges.push((u + 4, v + 4));
        }
        let cert = VolumeBound
            .certify(&unit(graph_from_edges(8, &edges)), 2)
            .unwrap();
        assert_eq!(cert.value, 0.0);
    }

    #[test]
    fn split_bound_fires_exactly_when_no_grouping_exists() {
        // Components of weight 4 and 4 (two 4-cycles), k = 2: grouping
        // feasible → decline.
        let mut edges = Vec::new();
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            edges.push((u, v));
            edges.push((u + 4, v + 4));
        }
        let balanced = unit(graph_from_edges(8, &edges));
        assert!(DisconnectedBound::default().certify(&balanced, 2).is_none());

        // A triangle (weight 3) plus a 5-cycle (weight 5), k = 2 with
        // unit weights: envelopes are 4 ± 0.5, neither 3|5 nor 8|0 fits →
        // some component must split.
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
        for (u, v) in [(3u32, 4u32), (4, 5), (5, 6), (6, 7), (7, 3)] {
            edges.push((u, v));
        }
        let skewed = unit(graph_from_edges(8, &edges));
        let cert = DisconnectedBound::default().certify(&skewed, 2).unwrap();
        assert_eq!(cert.value, 1.0); // 2 · 1 / 2
        assert!(matches!(
            cert.derivation,
            Derivation::Disconnected { components: 2, .. }
        ));
        // And exhaustive search agrees the optimum is positive here.
        let opt = bnb::solve(&skewed, 2, &BnbConfig::exhaustive()).unwrap();
        assert!(opt.max_boundary >= cert.value - 1e-12);
    }

    #[test]
    fn replays_match() {
        let inst = unit(cycle(9));
        for k in [2usize, 3] {
            let cert = VolumeBound.certify(&inst, k).unwrap();
            let replayed = cert.derivation.replay(&inst, k).unwrap();
            assert_eq!(replayed, cert.value);
        }
    }
}
