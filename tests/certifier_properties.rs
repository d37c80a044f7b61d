//! Property tests for the PR-6 static certifiers: the whole-edge packing
//! refinement (`EdgePackingBound`) and the forced-separation cut bound
//! (`CutPairBound`).
//!
//! Three properties, each load-bearing for the certified-gap story:
//!
//! * **Soundness.** On randomized instances small enough for exhaustive
//!   search, neither certifier ever claims a value above the exact
//!   optimum — the same chain `certificate ≤ OPT` the corpus-wide suite in
//!   `tests/lower_bounds.rs` enforces, here under proptest's
//!   adversarially varied weights and costs.
//! * **Replayable derivations.** Every certificate's derivation
//!   round-trips through [`Derivation::replay`] to the same value, and a
//!   *doctored* derivation (stored intermediates perturbed) is rejected
//!   — a certificate cannot silently drift from the code justifying it.
//! * **Dominance.** The 0/1-knapsack residual of a vertex is ≥ its
//!   fractional-knapsack residual by construction, so the default
//!   `EdgePackingBound` must certify at least as high as its budget-0
//!   (purely fractional) form — asserted exactly (up to fp noise) on
//!   every corpus entry, small through medium.

use mmb_core::api::Instance;
use mmb_core::bnb::{self, BnbConfig};
use mmb_core::lower_bounds::cutpair::CutPairBound;
use mmb_core::lower_bounds::packing::EdgePackingBound;
use mmb_core::lower_bounds::{Derivation, LowerBound};
use mmb_graph::gen::misc::{cycle, path};
use mmb_graph::gen::tree::random_tree;
use mmb_graph::Graph;
use mmb_instances::corpus::Corpus;
use proptest::prelude::*;

fn tol(x: f64) -> f64 {
    1e-9 * (1.0 + x.abs())
}

/// Deterministic small host graph: tree / cycle / path by shape.
fn host(shape: usize, n: usize, seed: u64) -> Graph {
    match shape % 3 {
        0 => random_tree(n, 3, seed),
        1 => cycle(n),
        _ => path(n),
    }
}

/// Deterministic weight profiles; `wsel = 1` plants a forced pair (the
/// regime `CutPairBound` prices), the others stay near-uniform.
fn weights(wsel: usize, n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| match wsel % 3 {
            0 => 1.0,
            1 => {
                if i == 0 || i + 1 == n {
                    2.0 * n as f64
                } else {
                    1.0
                }
            }
            _ => 1.0 + ((i as u64 * 13 + seed) % 7) as f64 * 0.35,
        })
        .collect()
}

/// Deterministic positive edge costs with some spread.
fn costs(m: usize, seed: u64) -> Vec<f64> {
    (0..m)
        .map(|e| 0.5 + ((e as u64 * 7 + seed) % 5) as f64 * 0.3)
        .collect()
}

fn new_certifiers() -> Vec<Box<dyn LowerBound>> {
    vec![
        Box::new(EdgePackingBound::default()),
        Box::new(CutPairBound::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn new_certifiers_never_exceed_the_oracle_and_replay(
        n in 4usize..=10,
        shape in 0usize..3,
        wsel in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let g = host(shape, n, seed);
        let m = g.num_edges();
        let inst = Instance::new(g, costs(m, seed), weights(wsel, n, seed)).unwrap();
        for k in [2usize, 3] {
            let opt = bnb::solve(&inst, k, &BnbConfig::exhaustive()).unwrap().max_boundary;
            for certifier in new_certifiers() {
                let Some(cert) = certifier.certify(&inst, k) else { continue };
                prop_assert!(
                    cert.value <= opt + tol(opt),
                    "n={n} shape={shape} wsel={wsel} seed={seed} k={k}: `{}` claims {} \
                     above the optimum {opt}",
                    cert.certifier, cert.value
                );
                let replay = cert.derivation.replay(&inst, k);
                prop_assert!(
                    replay.is_ok(),
                    "`{}` replay rejected: {}",
                    cert.certifier,
                    replay.as_ref().unwrap_err()
                );
                let replayed = replay.unwrap();
                prop_assert!(
                    (replayed - cert.value).abs() <= tol(cert.value),
                    "`{}` replay drifted: {} vs {}",
                    cert.certifier, replayed, cert.value
                );
            }
        }
    }
}

#[test]
fn edge_packing_dominates_per_vertex_packing_on_every_corpus_entry() {
    let pack = EdgePackingBound { vertex_budget: 0 };
    let epack = EdgePackingBound::default();
    let mut comparisons = 0usize;
    for corpus in [Corpus::small(), Corpus::quick(), Corpus::medium()] {
        for entry in corpus.entries() {
            let inst = &entry.instance;
            let Some(base) = pack.certify(inst, entry.k) else {
                continue;
            };
            let refined = epack.certify(inst, entry.k).unwrap_or_else(|| {
                panic!(
                    "{}: edge-packing declined where its budget-0 form fired",
                    entry.name
                )
            });
            comparisons += 1;
            // Dominance is by construction: a 0/1 knapsack can only pack
            // less than its fractional relaxation, so the residual cut
            // mass — and with it the bound — can only grow.
            assert!(
                refined.value >= base.value - 1e-12 * (1.0 + base.value),
                "{}: edge-packing {} below the fractional packing bound {}",
                entry.name,
                refined.value,
                base.value
            );
        }
    }
    assert!(
        comparisons >= 10,
        "only {comparisons} fractional/edge-packing comparisons"
    );
}

#[test]
fn cut_pair_fires_on_the_forced_pair_corpus_entry() {
    let small = Corpus::small();
    let entry = small
        .entries()
        .iter()
        .find(|e| e.name.contains("twin"))
        .expect("the small corpus carries a twin-weighted entry");
    let cert = CutPairBound::default()
        .certify(&entry.instance, entry.k)
        .expect("twin weights force a separated pair");
    assert!(
        cert.value > 0.0,
        "cut-pair must certify a positive bound on the twin entry"
    );
    // The derivation names a genuinely heavy pair.
    let Derivation::CutPair { u, v, .. } = &cert.derivation else {
        panic!("cut-pair certificate must carry a CutPair derivation");
    };
    let w = entry.instance.weights();
    let n = entry.instance.num_vertices() as f64;
    assert!(
        w[*u as usize] + w[*v as usize] >= 4.0 * n - 1e-9,
        "not the planted pair"
    );
    let replayed = cert.derivation.replay(&entry.instance, entry.k).unwrap();
    assert!((replayed - cert.value).abs() <= tol(cert.value));
}

#[test]
fn doctored_derivations_are_rejected_on_replay() {
    // A certificate is only as good as its machine check: perturbing the
    // stored intermediates must make `replay` fail loudly.
    let inst = Instance::new(path(8), costs(7, 3), weights(1, 8, 3)).unwrap();
    let k = 2;

    let cert = CutPairBound::default()
        .certify(&inst, k)
        .expect("forced pair present");
    if let Derivation::CutPair {
        u,
        v,
        cut_cost,
        side,
    } = &cert.derivation
    {
        let doctored = Derivation::CutPair {
            u: *u,
            v: *v,
            cut_cost: cut_cost * 2.0 + 1.0,
            side: side.clone(),
        };
        assert!(
            doctored.replay(&inst, k).is_err(),
            "inflated cut-pair value must not replay"
        );
    } else {
        panic!("cut-pair certificate must carry a CutPair derivation");
    }

    let cert = EdgePackingBound::default()
        .certify(&inst, k)
        .expect("positive cut mass");
    if let Derivation::EdgePacking {
        per_vertex_total,
        vertex_budget,
    } = cert.derivation
    {
        let doctored = Derivation::EdgePacking {
            per_vertex_total: per_vertex_total * 2.0 + 1.0,
            vertex_budget,
        };
        assert!(
            doctored.replay(&inst, k).is_err(),
            "inflated edge-packing mass must not replay"
        );
    } else {
        panic!("edge-packing certificate must carry an EdgePacking derivation");
    }
}
