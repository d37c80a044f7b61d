//! Forced-separation cut bound (cf. the Gutin–Yeo survey on min-cut-type
//! bounds for balanced partitioning, arXiv:2104.05536).
//!
//! If two vertices `u, v` satisfy `w(u) + w(v) > hi` — the upper
//! class-weight envelope of Definition 1, widened by the workspace fp
//! tolerance, so the test can only be *harder* to pass than the exact
//! one — then no strictly balanced coloring can place them in the same
//! class. The class containing `u` is then a vertex set separating `u`
//! from `v`, and its boundary cost is at least the `u`–`v` minimum cut:
//!
//! ```text
//! OPT ≥ λ(u, v)   whenever   w(u) + w(v) > hi.
//! ```
//!
//! This sees exactly what the global min-cut bound cannot: on hosts
//! dominated by two heavy hubs, `λ(G, c)` isolates some featherweight
//! leaf while `λ(u, v)` must pay for a real separation. The certifier
//! enumerates the candidate pairs heaviest-sum first (deterministic
//! tie-break by vertex id), prices a bounded number of them with a
//! max-flow/min-cut computation (Edmonds–Karp — the augmentation count
//! is `O(V·E)` regardless of the f64 capacities), and keeps the best
//! bound together with the witnessing source side of the cut.

use std::collections::VecDeque;

use mmb_graph::VertexId;

use crate::api::instance::Instance;
use crate::lower_bounds::packing::price_side;
use crate::lower_bounds::{Certificate, Derivation, LowerBound, Window};

/// The forced-separation cut bound (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
pub struct CutPairBound {
    /// Refuse hosts with more vertices than this (each candidate pair
    /// costs a max-flow; the pair scan itself is near-linear).
    pub max_vertices: usize,
    /// Price at most this many candidate pairs (heaviest-sum first).
    pub max_flows: usize,
}

impl Default for CutPairBound {
    fn default() -> Self {
        CutPairBound {
            max_vertices: 256,
            max_flows: 12,
        }
    }
}

/// All pairs with `w(u) + w(v) > hi`, ordered by weight sum descending
/// (ties by vertex ids), each normalized to `u < v`.
fn heavy_pairs(inst: &Instance, k: usize) -> Vec<(VertexId, VertexId)> {
    let win = Window::new(inst, k);
    let w = inst.weights();
    let mut by_weight: Vec<VertexId> = (0..inst.num_vertices() as u32).collect();
    by_weight.sort_unstable_by(|&a, &b| w[b as usize].total_cmp(&w[a as usize]).then(a.cmp(&b)));
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for i in 0..by_weight.len() {
        for j in (i + 1)..by_weight.len() {
            let (a, b) = (by_weight[i], by_weight[j]);
            if w[a as usize] + w[b as usize] > win.hi {
                pairs.push((a.min(b), a.max(b)));
            } else {
                break; // weights descend along j
            }
        }
    }
    pairs.sort_unstable_by(|p, q| {
        let sp = w[p.0 as usize] + w[p.1 as usize];
        let sq = w[q.0 as usize] + w[q.1 as usize];
        sq.total_cmp(&sp).then(p.cmp(q))
    });
    pairs
}

/// Edmonds–Karp max flow between `s` and `t` on the undirected costed
/// host; returns the flow value and the residual-reachable source side
/// (one minimum `s`–`t` cut, sorted by id).
fn max_flow_source_side(inst: &Instance, s: VertexId, t: VertexId) -> (f64, Vec<VertexId>) {
    let n = inst.num_vertices();
    // Arc-pair representation: arc `a` and its reverse `a ^ 1`.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut to: Vec<VertexId> = Vec::with_capacity(2 * inst.num_edges());
    let mut cap: Vec<f64> = Vec::with_capacity(2 * inst.num_edges());
    for (e, &(u, v)) in inst.graph().edge_list().iter().enumerate() {
        let c = inst.costs()[e];
        adj[u as usize].push(to.len());
        to.push(v);
        cap.push(c);
        adj[v as usize].push(to.len());
        to.push(u);
        cap.push(c);
    }
    let mut flow = 0.0;
    let mut pred: Vec<Option<usize>> = vec![None; n];
    loop {
        pred.iter_mut().for_each(|p| *p = None);
        let mut queue = VecDeque::from([s]);
        let mut seen = vec![false; n];
        seen[s as usize] = true;
        while let Some(x) = queue.pop_front() {
            for &a in &adj[x as usize] {
                let y = to[a] as usize;
                if !seen[y] && cap[a] > 0.0 {
                    seen[y] = true;
                    pred[y] = Some(a);
                    queue.push_back(y as VertexId);
                }
            }
        }
        if !seen[t as usize] {
            // Saturated: `seen` is the residual-reachable source side.
            let mut side: Vec<VertexId> = (0..n as u32).filter(|&v| seen[v as usize]).collect();
            side.sort_unstable();
            return (flow, side);
        }
        // Bottleneck along the BFS path, then push it. The bottleneck
        // equals some arc's residual exactly, so that arc saturates to
        // exactly 0.0 — each augmentation kills ≥ 1 arc and Edmonds–Karp
        // terminates in O(V·E) rounds independent of the capacities.
        let mut b = f64::INFINITY;
        let mut x = t as usize;
        while let Some(a) = pred[x] {
            b = b.min(cap[a]);
            x = to[a ^ 1] as usize;
        }
        let mut x = t as usize;
        while let Some(a) = pred[x] {
            cap[a] -= b;
            cap[a ^ 1] += b;
            x = to[a ^ 1] as usize;
        }
        flow += b;
    }
}

impl LowerBound for CutPairBound {
    fn name(&self) -> &'static str {
        "cut-pair"
    }

    fn certify(&self, inst: &Instance, k: usize) -> Option<Certificate> {
        let n = inst.num_vertices();
        if k < 2 || n < 2 || n > self.max_vertices || inst.num_edges() == 0 {
            return None;
        }
        let pairs = heavy_pairs(inst, k);
        let mut best: Option<(f64, VertexId, VertexId, Vec<VertexId>)> = None;
        for &(u, v) in pairs.iter().take(self.max_flows) {
            let (_, side) = max_flow_source_side(inst, u, v);
            let priced = price_side(inst, &side);
            // Relative slack in the sound direction, as everywhere in the
            // stack: the priced cut is only trusted up to fp rounding.
            let value = (priced - 1e-9 * (1.0 + priced)).max(0.0);
            if best.as_ref().is_none_or(|b| value > b.0) {
                best = Some((value, u, v, side));
            }
        }
        let (value, u, v, side) = best?;
        Some(Certificate {
            certifier: self.name(),
            value,
            derivation: Derivation::CutPair {
                u,
                v,
                cut_cost: value,
                side,
            },
        })
    }
}

/// Replay a [`Derivation::CutPair`]: re-check the forcing precondition
/// `w(u) + w(v) > hi`, verify the witness side separates `u` from `v`
/// and prices at a true minimum `u`–`v` cut, and re-derive the
/// slack-discounted value.
pub(crate) fn replay_cut_pair(
    inst: &Instance,
    k: usize,
    u: VertexId,
    v: VertexId,
    cut_cost: f64,
    side: &[VertexId],
) -> Result<f64, String> {
    let n = inst.num_vertices();
    if u as usize >= n || v as usize >= n || u == v {
        return Err(format!(
            "pair ({u}, {v}) is not a pair of distinct vertices"
        ));
    }
    let w = inst.weights();
    let win = Window::new(inst, k);
    if w[u as usize] + w[v as usize] <= win.hi {
        return Err(format!(
            "pair ({u}, {v}) is not forced apart: {} + {} ≤ hi = {}",
            w[u as usize], w[v as usize], win.hi
        ));
    }
    if side.is_empty() || side.len() >= n {
        return Err(format!("witness side of size {} is not proper", side.len()));
    }
    let mut inside = vec![false; n];
    for &x in side {
        if x as usize >= n {
            return Err(format!("witness vertex {x} out of range"));
        }
        inside[x as usize] = true;
    }
    if !inside[u as usize] || inside[v as usize] {
        return Err("witness side does not separate u from v".into());
    }
    let priced = price_side(inst, side);
    let (flow, _) = max_flow_source_side(inst, u, v);
    if (priced - flow).abs() > 1e-9 * (1.0 + flow.abs()) {
        return Err(format!("witness prices at {priced}, but λ(u, v) = {flow}"));
    }
    let value = (priced - 1e-9 * (1.0 + priced)).max(0.0);
    if (value - cut_cost).abs() > 1e-9 * (1.0 + cut_cost.abs()) {
        return Err(format!("cut value drifted: {cut_cost} vs {value}"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{self, BnbConfig};
    use mmb_graph::gen::misc::path;
    use mmb_graph::graph::graph_from_edges;

    /// Unit-cost path with two heavy endpoints: the pair is forced apart
    /// and every u–v cut costs exactly one edge.
    fn heavy_ends_path(n: usize) -> Instance {
        let mut w = vec![1.0; n];
        w[0] = 2.0 * n as f64;
        w[n - 1] = 2.0 * n as f64;
        Instance::new(path(n), vec![1.0; n - 1], w).unwrap()
    }

    #[test]
    fn heavy_pair_forces_a_real_cut() {
        let inst = heavy_ends_path(8);
        let cert = CutPairBound::default()
            .certify(&inst, 2)
            .expect("pair must fire");
        assert!((cert.value - 1.0).abs() < 1e-6, "value = {}", cert.value);
        let replayed = cert.derivation.replay(&inst, 2).unwrap();
        assert!((replayed - cert.value).abs() < 1e-12);
        // Sound against the exact optimum.
        let opt = bnb::solve(&inst, 2, &BnbConfig::exhaustive())
            .unwrap()
            .max_boundary;
        assert!(cert.value <= opt + 1e-9);
    }

    #[test]
    fn parallel_paths_price_the_full_separation() {
        // Two vertex-disjoint u–v paths: λ(u, v) = 2, which the global
        // min cut also sees — but with a heavy third hub the forced pair
        // is what certifies it at k = 2.
        let g = graph_from_edges(6, &[(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4)]);
        let mut w = vec![1.0; 6];
        w[0] = 20.0;
        w[5] = 20.0;
        let inst = Instance::new(g, vec![1.0; 6], w).unwrap();
        let cert = CutPairBound::default().certify(&inst, 2).unwrap();
        assert!((cert.value - 2.0).abs() < 1e-6, "value = {}", cert.value);
    }

    #[test]
    fn declines_without_a_forced_pair() {
        // Uniform weights: no pair exceeds the envelope at any k ≥ 2.
        let inst = Instance::new(path(8), vec![1.0; 7], vec![1.0; 8]).unwrap();
        assert!(CutPairBound::default().certify(&inst, 2).is_none());
        assert!(CutPairBound::default().certify(&inst, 3).is_none());
        // k = 1: hi ≥ total weight, nothing is ever forced apart.
        let heavy = heavy_ends_path(8);
        assert!(CutPairBound::default().certify(&heavy, 1).is_none());
        // Size cap.
        let capped = CutPairBound {
            max_vertices: 4,
            ..CutPairBound::default()
        };
        assert!(capped.certify(&heavy, 2).is_none());
    }

    #[test]
    fn witness_tampering_is_caught() {
        let inst = heavy_ends_path(8);
        let cert = CutPairBound::default().certify(&inst, 2).unwrap();
        let Derivation::CutPair { u, v, cut_cost, .. } = cert.derivation else {
            panic!("wrong derivation");
        };
        // A side that prices above the minimum cut: caught.
        let fat = Derivation::CutPair {
            u,
            v,
            cut_cost,
            side: vec![0, 2, 4],
        };
        assert!(fat.replay(&inst, 2).is_err());
        // A side that fails to separate the pair: caught.
        let wrong = Derivation::CutPair {
            u,
            v,
            cut_cost,
            side: vec![0, 7],
        };
        assert!(wrong.replay(&inst, 2).is_err());
        // An unforced pair: caught.
        let unforced = Derivation::CutPair {
            u: 2,
            v: 3,
            cut_cost,
            side: vec![0, 1, 2],
        };
        assert!(unforced.replay(&inst, 2).is_err());
    }
}
