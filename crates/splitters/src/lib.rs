//! # mmb-splitters
//!
//! Splitting sets and separator theorems — the engine room of the min-max
//! boundary decomposition algorithms.
//!
//! ## The splitting contract (Definition 3)
//!
//! For a splitting value `w*` with `0 ≤ w* ≤ Ψ(W)`, a vertex set `U ⊆ W` is
//! **`w*`-splitting** if `|Ψ(U) − w*| ≤ ‖Ψ|_W‖_∞ / 2`. The
//! *p-splittability* `σ_p(G, c)` is the least number such that every induced
//! subgraph `G[W]`, every weight function and every splitting value admit a
//! splitting set of relative boundary cost `∂_W U ≤ σ_p · ‖c|_W‖_p`.
//!
//! Implementations of [`Splitter`] must always satisfy the balance half of
//! the contract **exactly** (it is machine-checkable and the correctness of
//! every downstream algorithm rests on it); their *quality* is the boundary
//! cost, which differs per family:
//!
//! | splitter | graph family | boundary guarantee |
//! |----------|--------------|--------------------|
//! | [`grid::GridSplitter`] | d-dim grid graphs, arbitrary costs | `O(d·log^{1/d}(φ+1)·‖c|_W‖_{d/(d−1)})` (Theorem 19) |
//! | [`order::OrderSplitter`] | paths / linear arrangements | ≤ 2 cut edges on paths (`σ_p ≤ 2`) |
//! | [`tree::TreeSplitter`] | forests | `O(Δ·log|W|)` cut edges |
//! | [`bfs::BfsSplitter`] | any | none (engineering baseline) |
//! | [`separator::SeparatorSplitter`] | any with a balanced-separator provider | `O_p(τ(sep))` via Lemma 37's `Split` |
//! | [`adversarial::AdversarialSplitter`] | any | *deliberately bad* (failure injection) |
//!
//! All splitters are bound to a `(graph, costs)` pair at construction; the
//! decomposition algorithms call them with varying vertex subsets, measures
//! and targets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod bfs;
pub mod contract;
pub mod grid;
pub mod order;
pub mod recording;
pub mod separator;
pub mod tree;

use mmb_graph::{VertexId, VertexSet};

/// A provider of splitting sets on a fixed instance `(G, c)`.
///
/// `Sync` is a supertrait: recursive bisection splits its two halves on
/// two workers with one splitter, and served batches run on several
/// workers, so a splitter must be safe to call from several workers at
/// once. All splitters in this crate qualify — they hold only shared
/// references and per-call state; the instrumentation wrapper
/// ([`recording::RecordingSplitter`]) uses atomic counters.
pub trait Splitter: Sync {
    /// Compute a `target`-splitting set `U ⊆ w_set` with respect to the
    /// dense vertex measure `weights`.
    ///
    /// Contract (Definition 3): `|Ψ(U) − target| ≤ ‖Ψ|_W‖_∞ / 2`, where the
    /// target is clamped into `[0, Ψ(W)]` first. If `Ψ|_W ≡ 0` every subset
    /// satisfies the contract; implementations then return roughly half of
    /// `W` by vertex count so that callers that carve pieces iteratively
    /// still make progress.
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "splitter"
    }
}

impl<T: Splitter + ?Sized> Splitter for &T {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        (**self).split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: Splitter + ?Sized> Splitter for Box<T> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        (**self).split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: Splitter + Send + ?Sized> Splitter for std::sync::Arc<T> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        (**self).split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Take the best prefix of `order` (which must enumerate exactly the members
/// of the intended `W`) with respect to `weights` and `target`.
///
/// Returns the prefix whose weight is nearest to the (clamped) target; the
/// deviation is at most half the largest weight in the order, which is
/// exactly the Definition-3 contract. If all weights are zero, returns the
/// first `⌈len/2⌉` elements.
pub fn prefix_split(
    universe: usize,
    order: &[VertexId],
    weights: &[f64],
    target: f64,
) -> VertexSet {
    VertexSet::from_iter(
        universe,
        order[..prefix_cut_len(order, weights, target)]
            .iter()
            .copied(),
    )
}

/// The decision rule behind [`prefix_split`]: the length of the best
/// prefix of `order` for the (clamped) `target`. Shared with the grid
/// splitter's allocation-free fast path so the two can never drift.
pub fn prefix_cut_len(order: &[VertexId], weights: &[f64], target: f64) -> usize {
    let total: f64 = order.iter().map(|&v| weights[v as usize]).sum();
    let target = target.clamp(0.0, total);
    if total <= 0.0 {
        return order.len().div_ceil(2);
    }
    // Walk prefixes; stop at the first prefix whose weight reaches the
    // target, then decide whether dropping the last element is closer.
    let mut acc = 0.0;
    let mut cut = order.len();
    for (i, &v) in order.iter().enumerate() {
        let next = acc + weights[v as usize];
        if next >= target {
            // Prefix of length i has weight acc (< target ≤ next).
            cut = if target - acc <= next - target {
                i
            } else {
                i + 1
            };
            break;
        }
        acc = next;
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_split_hits_target_within_half_max() {
        let order: Vec<u32> = (0..6).collect();
        let w = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for target in [0.0, 1.0, 7.5, 10.0, 21.0, 100.0] {
            let u = prefix_split(6, &order, &w, target);
            let got: f64 = u.iter().map(|v| w[v as usize]).sum();
            let clamped = target.clamp(0.0, 21.0);
            assert!(
                (got - clamped).abs() <= 3.0 + 1e-12,
                "target {target}: got {got}"
            );
        }
    }

    #[test]
    fn prefix_split_zero_weights_returns_half() {
        let order: Vec<u32> = (0..5).collect();
        let w = vec![0.0; 5];
        let u = prefix_split(5, &order, &w, 0.0);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn prefix_split_empty_order() {
        let u = prefix_split(4, &[], &[1.0; 4], 0.0);
        assert!(u.is_empty());
    }

    #[test]
    fn prefix_split_prefers_exact() {
        let order: Vec<u32> = (0..4).collect();
        let w = vec![2.0, 2.0, 2.0, 2.0];
        let u = prefix_split(4, &order, &w, 4.0);
        let got: f64 = u.iter().map(|v| w[v as usize]).sum();
        assert_eq!(got, 4.0);
    }
}
