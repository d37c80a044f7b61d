//! The rungs of the degradation ladder and the validation gate every
//! rung's output must pass before it is served.
//!
//! The two bottom rungs are [`assign_lightest`] in two vertex orders. It
//! is strictly balanced (eq. (1)) in any order, needs no splitter,
//! workspace or recursion, and is pure arithmetic over validated inputs:
//! the code path that still has to work when everything richer has
//! failed.

use mmb_graph::Coloring;

use crate::api::instance::Instance;
use crate::resilient::record::RejectReason;
use crate::strict::{assign_lightest, greedy_strict};

/// The names of the built-in rungs, in ladder order.
pub(crate) const RUNG_CERTIFIED: &str = "certified";
pub(crate) const RUNG_PIPELINE: &str = "pipeline";
pub(crate) const RUNG_FIRST_FIT: &str = "first-fit";
pub(crate) const RUNG_TRIVIAL: &str = "trivial";

/// The trivial floor rung: LPT (longest-processing-time) greedy —
/// vertices in descending weight order, each into the lightest class.
/// Panic-free by construction, and the quality floor every higher rung
/// is validated against.
pub(crate) fn lpt_coloring(inst: &Instance, k: usize) -> Coloring {
    greedy_strict(inst.num_vertices(), k, inst.domain(), inst.weights())
}

/// The cheap strict baseline rung: first-fit greedy in vertex-id order.
/// Same balance guarantee as LPT; id order preserves whatever locality
/// the instance's vertex numbering carries (row-major grids, path walks),
/// so its boundary cost is usually far below the weight-sorted LPT's.
pub(crate) fn first_fit_coloring(inst: &Instance, k: usize) -> Coloring {
    let n = inst.num_vertices();
    let mut chi = Coloring::new_uncolored(n, k);
    assign_lightest(&mut chi, &mut vec![0.0; k], 0..n as u32, inst.weights());
    chi
}

/// The validation gate: a rung's coloring is servable iff it is a
/// `k`-coloring of `inst`'s vertices, total, strictly balanced, and no
/// worse than the floor rung's cost (monotone degradation — a rung must
/// never serve worse than the rung below it). Returns the coloring's max
/// boundary cost on success.
pub(crate) fn validate(
    inst: &Instance,
    k: usize,
    chi: &Coloring,
    floor_cost: f64,
) -> Result<f64, RejectReason> {
    if chi.num_vertices() != inst.num_vertices() || chi.k() != k {
        return Err(RejectReason::WrongShape {
            vertices: chi.num_vertices(),
            classes: chi.k(),
        });
    }
    if !chi.is_total() {
        return Err(RejectReason::NotTotal);
    }
    let weights = inst.weights();
    if !chi.is_strictly_balanced(weights) {
        return Err(RejectReason::NotStrict {
            defect: chi.strict_balance_defect(weights),
        });
    }
    let cost = chi.max_boundary_cost(inst.graph(), inst.costs());
    // Scale-invariant tolerance, same shape as the strict-balance check.
    let tol = 1e-9 * floor_cost.max(1e-300);
    if cost > floor_cost + tol {
        return Err(RejectReason::WorseThanFloor {
            cost,
            floor: floor_cost,
        });
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::misc::path;

    fn inst_with_weights(n: usize, weights: Vec<f64>) -> Instance {
        let g = path(n);
        let m = g.num_edges();
        Instance::new(g, vec![1.0; m], weights).unwrap()
    }

    #[test]
    fn both_greedy_rungs_are_strict_on_adversarial_weights() {
        for weights in [
            vec![1.0; 17],
            vec![0.0; 17],
            (0..17).map(|i| (i as f64).exp()).collect::<Vec<_>>(),
            (0..17).rev().map(|i| i as f64).collect::<Vec<_>>(),
        ] {
            let inst = inst_with_weights(17, weights);
            for k in [1, 2, 3, 5] {
                for chi in [lpt_coloring(&inst, k), first_fit_coloring(&inst, k)] {
                    assert!(chi.is_total());
                    assert!(
                        chi.is_strictly_balanced(inst.weights()),
                        "defect {} at k={k}",
                        chi.strict_balance_defect(inst.weights())
                    );
                }
            }
        }
    }

    #[test]
    fn first_fit_beats_lpt_on_a_path() {
        // Id order on a path is the walk itself: first-fit cuts O(k)
        // edges where weight-sorted LPT shreds the locality.
        let inst = inst_with_weights(32, vec![1.0; 32]);
        let ff = first_fit_coloring(&inst, 4).max_boundary_cost(inst.graph(), inst.costs());
        let lpt = lpt_coloring(&inst, 4).max_boundary_cost(inst.graph(), inst.costs());
        assert!(ff <= lpt, "first-fit {ff} vs lpt {lpt}");
    }

    #[test]
    fn validation_rejects_each_defect_class() {
        let inst = inst_with_weights(8, vec![1.0; 8]);
        let floor = lpt_coloring(&inst, 2);
        let floor_cost = floor.max_boundary_cost(inst.graph(), inst.costs());

        // One vertex too few, and every vertex in a single class.
        for (chi, shape) in [
            (Coloring::from_fn(7, 2, |v| v % 2), (7, 2)),
            (Coloring::from_fn(8, 1, |_| 0), (8, 1)),
        ] {
            assert_eq!(
                validate(&inst, 2, &chi, floor_cost),
                Err(RejectReason::WrongShape {
                    vertices: shape.0,
                    classes: shape.1
                })
            );
        }

        let partial = Coloring::new_uncolored(8, 2);
        assert_eq!(
            validate(&inst, 2, &partial, floor_cost),
            Err(RejectReason::NotTotal)
        );

        // Everything in one class: total but grossly unbalanced.
        let lopsided = Coloring::from_fn(8, 2, |_| 0);
        assert!(matches!(
            validate(&inst, 2, &lopsided, floor_cost),
            Err(RejectReason::NotStrict { defect }) if defect > 0.0
        ));

        // Alternating colors cut every edge; against a floor of cost 1
        // (what a contiguous bisection achieves) that is a monotonicity
        // violation. (The real LPT floor on *unit* weights alternates
        // too — ties break by id — so a synthetic floor is needed to
        // exercise this arm.)
        let shredded = Coloring::from_fn(8, 2, |v| v % 2);
        assert!(matches!(
            validate(&inst, 2, &shredded, 1.0),
            Err(RejectReason::WorseThanFloor { cost, floor })
                if cost > floor
        ));

        // The floor itself always passes.
        assert_eq!(validate(&inst, 2, &floor, floor_cost), Ok(floor_cost));
    }
}
