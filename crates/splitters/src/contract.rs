//! Machine-checkable splitting contract (Definition 3).
//!
//! Used as a debug assertion by the decomposition algorithms and as the
//! reference check of the property-test suites.

use mmb_graph::measure::{set_max, set_sum};
use mmb_graph::VertexSet;

/// Result of checking a splitting set against Definition 3.
#[derive(Clone, Debug, PartialEq)]
pub struct ContractReport {
    /// `Ψ(U)`.
    pub got: f64,
    /// The clamped target.
    pub target: f64,
    /// Allowed slack `‖Ψ|_W‖_∞ / 2`.
    pub slack: f64,
    /// Whether `U ⊆ W`.
    pub subset_ok: bool,
}

impl ContractReport {
    /// Whether the contract holds (with a small relative tolerance).
    pub fn holds(&self) -> bool {
        let tol = 1e-9 * (1.0 + self.target.abs() + self.got.abs());
        self.subset_ok && (self.got - self.target).abs() <= self.slack + tol
    }
}

/// Check that `u_set` is a `target`-splitting set of `w_set` under `weights`.
///
/// The degenerate all-zero-weights case is treated as always balanced, as
/// documented on [`crate::Splitter::split`].
pub fn check_split(
    w_set: &VertexSet,
    u_set: &VertexSet,
    weights: &[f64],
    target: f64,
) -> ContractReport {
    let total = set_sum(weights, w_set);
    let target = target.clamp(0.0, total);
    ContractReport {
        got: set_sum(weights, u_set),
        target,
        slack: set_max(weights, w_set) / 2.0,
        subset_ok: u_set.is_subset_of(w_set),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_judgement() {
        let w = vec![1.0, 2.0, 3.0, 4.0];
        let wset = VertexSet::full(4);
        let good = VertexSet::from_iter(4, [0u32, 1]); // Ψ(U) = 3
        assert!(check_split(&wset, &good, &w, 4.0).holds()); // slack 2
        assert!(!check_split(&wset, &good, &w, 6.0).holds());
        // Non-subset fails even if balanced.
        let wsmall = VertexSet::from_iter(4, [0u32, 1, 2]);
        let outside = VertexSet::from_iter(4, [3u32]);
        assert!(!check_split(&wsmall, &outside, &w, 4.0).holds());
    }

    #[test]
    fn target_clamped_to_total() {
        let w = vec![1.0, 1.0];
        let wset = VertexSet::full(2);
        let all = VertexSet::full(2);
        assert!(check_split(&wset, &all, &w, 100.0).holds());
    }
}
