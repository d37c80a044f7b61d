//! Greedy bin-packing baselines — perfect balance, boundary-blind.
//!
//! The paper (Section 1, "Strict weight-balancedness") observes that its
//! balance guarantee `(1 − 1/k)·‖w‖∞` matches what a greedy bin-packing
//! algorithm achieves, "however, in contrast to our methods, such a greedy
//! algorithm will in general create huge boundary costs". These baselines
//! make that comparison concrete (experiment E7).
//!
//! Entry points validate their inputs and return
//! `Result<_, `[`SolveError`]`>` like every other algorithm behind the
//! [`Partitioner`] interface; [`FirstFit`], [`Lpt`] and [`RoundRobin`]
//! are the trait adapters.

use mmb_core::api::{validate_weights, Instance, Partitioner, SolveError};
use mmb_core::strict::{assign_lightest, greedy_strict};
use mmb_graph::{Coloring, VertexSet};

/// First-fit decreasing on vertex id order: each vertex goes to the
/// currently lightest class. Satisfies eq. (1) (the pairwise class gap
/// never exceeds `‖w‖∞`).
pub fn first_fit(n: usize, k: usize, weights: &[f64]) -> Result<Coloring, SolveError> {
    validate(n, k, weights)?;
    let mut chi = Coloring::new_uncolored(n, k);
    assign_lightest(&mut chi, &mut vec![0.0; k], 0..n as u32, weights);
    Ok(chi)
}

/// Largest processing time (LPT): vertices in decreasing weight order,
/// each to the lightest class. The classical makespan heuristic; also
/// satisfies eq. (1).
pub fn lpt(n: usize, k: usize, weights: &[f64]) -> Result<Coloring, SolveError> {
    validate(n, k, weights)?;
    Ok(greedy_strict(n, k, &VertexSet::full(n), weights))
}

/// Round-robin: vertex `v` gets color `v mod k`. Balanced only for flat
/// weights; maximally boundary-hostile on grids (every edge is cut for
/// k ≥ 2 on a path). The "what not to do" baseline.
pub fn round_robin(n: usize, k: usize) -> Result<Coloring, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    Ok(Coloring::from_fn(n, k, |v| v % k as u32))
}

fn validate(n: usize, k: usize, weights: &[f64]) -> Result<(), SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroColors);
    }
    validate_weights(n, weights)?;
    Ok(())
}

/// [`first_fit`] as a [`Partitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstFit;

impl Partitioner for FirstFit {
    fn name(&self) -> &str {
        "greedy FF"
    }
    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        first_fit(inst.num_vertices(), k, inst.weights())
    }
}

/// [`lpt`] as a [`Partitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Lpt;

impl Partitioner for Lpt {
    fn name(&self) -> &str {
        "greedy LPT"
    }
    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        lpt(inst.num_vertices(), k, inst.weights())
    }
}

/// [`round_robin`] as a [`Partitioner`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl Partitioner for RoundRobin {
    fn name(&self) -> &str {
        "round robin"
    }
    fn partition(&self, inst: &Instance, k: usize) -> Result<Coloring, SolveError> {
        round_robin(inst.num_vertices(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_core::api::InstanceError;
    use mmb_graph::gen::misc::path;

    #[test]
    fn lpt_and_first_fit_are_strict() {
        let weights: Vec<f64> = (0..100).map(|v| 1.0 + ((v * 17) % 13) as f64).collect();
        for k in [2usize, 3, 7, 32] {
            assert!(
                lpt(100, k, &weights)
                    .unwrap()
                    .is_strictly_balanced(&weights),
                "lpt k={k}"
            );
            assert!(
                first_fit(100, k, &weights)
                    .unwrap()
                    .is_strictly_balanced(&weights),
                "first_fit k={k}"
            );
        }
    }

    #[test]
    fn round_robin_cuts_everything_on_a_path() {
        let g = path(50);
        let costs = vec![1.0; 49];
        let chi = round_robin(50, 2).unwrap();
        // Every edge joins consecutive ids → different colors.
        assert_eq!(
            chi.boundary_costs(&g, &costs).iter().sum::<f64>(),
            2.0 * 49.0
        );
    }

    #[test]
    fn greedy_ignores_boundaries() {
        // On a path with flat weights, first-fit interleaves colors and
        // cuts nearly every edge — the paper's point.
        let g = path(100);
        let costs = vec![1.0; 99];
        let weights = vec![1.0; 100];
        let chi = first_fit(100, 4, &weights).unwrap();
        let total_cut: f64 = chi.boundary_costs(&g, &costs).iter().sum::<f64>() / 2.0;
        assert!(
            total_cut > 50.0,
            "greedy should cut most edges, cut {total_cut}"
        );
    }

    #[test]
    fn handles_k_one_and_k_ge_n() {
        let weights = vec![1.0; 5];
        let c1 = lpt(5, 1, &weights).unwrap();
        assert!(c1.is_strictly_balanced(&weights));
        let c9 = lpt(5, 9, &weights).unwrap();
        assert!(c9.is_total());
        assert!(c9.is_strictly_balanced(&weights));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert_eq!(lpt(5, 0, &[1.0; 5]).unwrap_err(), SolveError::ZeroColors);
        assert_eq!(round_robin(5, 0).unwrap_err(), SolveError::ZeroColors);
        assert_eq!(
            first_fit(5, 2, &[1.0; 3]).unwrap_err(),
            SolveError::Instance(InstanceError::WeightLength {
                got: 3,
                expected: 5
            })
        );
        assert_eq!(
            lpt(3, 2, &[1.0, f64::NAN, 1.0]).unwrap_err(),
            SolveError::Instance(InstanceError::NotFinite { what: "weights" })
        );
        assert_eq!(
            first_fit(3, 2, &[1.0, -1.0, 1.0]).unwrap_err(),
            SolveError::Instance(InstanceError::NotFinite { what: "weights" })
        );
    }
}
