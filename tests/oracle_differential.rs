//! Differential tests: the exact optimum vs every partitioner, on every
//! small corpus entry. The "oracle" here is exhaustive branch and bound,
//! `bnb::solve(inst, k, &BnbConfig::exhaustive())`.
//!
//! On each `Corpus::small()` entry (n ≤ 10) and k ∈ {2, 3} the suite
//! asserts the full optimality chain:
//!
//! * the oracle's coloring is a *valid* solution (total + eq. (1)), and
//!   its reported cost matches a from-scratch recomputation;
//! * `oracle ≤ pipeline` — no heuristic may beat exhaustive search — and
//!   the pipeline agrees bit-for-bit with itself when run twice;
//! * the Theorem-4/5 bound chain at the corpus exponent (`p = 1`),
//!   against the RHS `‖c‖₁/k + Δ_c` — Theorem 5's form with `‖c‖∞`
//!   sharpened to the max cost degree `Δ_c` (the Theorem-4 shape; at
//!   n ≤ 10 the "well-behaved" reduction `Δ_c = O(‖c‖∞)` is vacuous).
//!   The *oracle* — i.e. the true optimum, which is what the theorems
//!   bound — must satisfy it **with constant 1** on every entry; the
//!   *pipeline* satisfies it within its measured small-n constant
//!   (≤ 1.5 across the whole corpus — the asymptotic statement hides
//!   exactly this constant). The `reproduce corpus` CI gate enforces the
//!   genuine `‖c‖∞` Theorem-5 form at ratio ≤ 1 on the full-size corpus,
//!   where it does hold for the pipeline;
//! * `oracle ≤ baseline` for every baseline whose output is itself
//!   strictly balanced (a non-strict coloring is outside the oracle's
//!   feasible set, so no comparison is implied);
//! * the oracle dropped in as a `&dyn Partitioner` produces the same
//!   coloring as the direct call.

use mmb_bench::standard_baselines;
use mmb_core::api::{Partitioner, Theorem4Pipeline};
use mmb_core::bnb::{self, BnbConfig, BnbPartitioner};
use mmb_core::bounds;
use mmb_core::verify::verify_decomposition;
use mmb_instances::corpus::Corpus;

#[test]
fn oracle_is_feasible_and_self_consistent_on_every_small_entry() {
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let s = bnb::solve(inst, k, &BnbConfig::exhaustive())
                .unwrap_or_else(|e| panic!("{} k={k}: {e}", entry.name));
            assert!(s.coloring.is_total(), "{} k={k}", entry.name);
            let report =
                verify_decomposition(inst.graph(), inst.costs(), inst.weights(), &s.coloring);
            assert!(
                report.is_valid(),
                "{} k={k}: oracle output invalid",
                entry.name
            );
            assert!(
                (report.max_boundary - s.max_boundary).abs() <= 1e-9 * (1.0 + s.max_boundary),
                "{} k={k}: reported {} vs recomputed {}",
                entry.name,
                s.max_boundary,
                report.max_boundary
            );
            // The Partitioner adapter is the same search.
            let exact = BnbPartitioner {
                cfg: BnbConfig::exhaustive(),
            };
            let via_trait = exact.partition(inst, k).unwrap();
            assert_eq!(via_trait, s.coloring, "{} k={k}", entry.name);
        }
    }
}

#[test]
fn oracle_le_pipeline_le_theorem5() {
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let oracle = bnb::solve(inst, k, &BnbConfig::exhaustive()).unwrap();
            let pipeline = Theorem4Pipeline::default().partition(inst, k).unwrap();
            assert_eq!(
                pipeline,
                Theorem4Pipeline::default().partition(inst, k).unwrap(),
                "{} k={k}: pipeline nondeterministic",
                entry.name
            );
            assert!(
                pipeline.is_strictly_balanced(inst.weights()),
                "{} k={k}: pipeline not strict",
                entry.name
            );
            let pipeline_cost = pipeline.max_boundary_cost(inst.graph(), inst.costs());
            assert!(
                oracle.max_boundary <= pipeline_cost + 1e-9 * (1.0 + pipeline_cost),
                "{} k={k}: oracle {} beats pipeline {}",
                entry.name,
                oracle.max_boundary,
                pipeline_cost
            );
            // The Theorem-4/5 RHS at the corpus exponent (p = 1, σ = 1):
            // ‖c‖₁/k + Δ_c (see the module docs). The theorems bound the
            // *optimum*, so the oracle must meet the RHS with constant 1;
            // the pipeline meets it within its small-n constant.
            let bound = bounds::theorem4(
                1.0,
                entry.p,
                k,
                inst.cost_norm(entry.p),
                inst.max_cost_degree(),
            );
            assert!(
                oracle.max_boundary <= bound + 1e-9 * (1.0 + bound),
                "{} k={k}: optimum {} violates the Theorem-4/5 bound {}",
                entry.name,
                oracle.max_boundary,
                bound
            );
            assert!(
                pipeline_cost <= 1.5 * bound + 1e-9 * (1.0 + bound),
                "{} k={k}: pipeline {} exceeds 1.5× Theorem-4/5 bound {}",
                entry.name,
                pipeline_cost,
                bound
            );
        }
    }
}

#[test]
fn oracle_never_beaten_by_any_strictly_balanced_baseline() {
    // The same roster the corpus sweep scores — shared constructor, so a
    // baseline added there automatically gets oracle coverage here.
    let baselines = standard_baselines();
    let mut strict_comparisons = 0usize;
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let oracle = bnb::solve(inst, k, &BnbConfig::exhaustive()).unwrap();
            for algo in &baselines {
                let Ok(chi) = algo.partition(inst, k) else {
                    continue;
                };
                assert!(chi.is_total(), "{} k={k} {}", entry.name, algo.name());
                // Only strictly balanced colorings are in the oracle's
                // feasible set; non-strict baseline output is exempt.
                if !chi.is_strictly_balanced(inst.weights()) {
                    continue;
                }
                strict_comparisons += 1;
                let cost = chi.max_boundary_cost(inst.graph(), inst.costs());
                assert!(
                    oracle.max_boundary <= cost + 1e-9 * (1.0 + cost),
                    "{} k={k}: oracle {} beaten by {} at {}",
                    entry.name,
                    oracle.max_boundary,
                    algo.name(),
                    cost
                );
            }
        }
    }
    // The exemption must not silently swallow the whole comparison:
    // plenty of baseline runs do produce strict colorings on these
    // instances.
    assert!(
        strict_comparisons >= 30,
        "only {strict_comparisons} strict baseline colorings across the small corpus"
    );
}

#[test]
fn oracle_improves_on_the_pipeline_somewhere() {
    // The oracle must not degenerate into "return the incumbent": on at
    // least one small entry the exhaustive search finds a strictly
    // cheaper coloring than the pipeline's.
    let mut improved = 0usize;
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let oracle = bnb::solve(inst, k, &BnbConfig::exhaustive()).unwrap();
            let pipe = Theorem4Pipeline::default().partition(inst, k).unwrap();
            let pipe_cost = pipe.max_boundary_cost(inst.graph(), inst.costs());
            if oracle.max_boundary < pipe_cost - 1e-9 * (1.0 + pipe_cost) {
                improved += 1;
            }
        }
    }
    assert!(improved >= 1, "oracle never improved on the pipeline");
}
