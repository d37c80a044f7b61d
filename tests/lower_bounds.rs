//! Differential tests for the certified lower-bound engine
//! (`mmb_core::lower_bounds`): soundness against the exact optimum and
//! every partitioner, machine-checkable derivations, run-to-run
//! determinism, tightness on recognized families, and the
//! `Solver::solve_certified` threading.
//!
//! The optimality chain being certified, on every instance the suite
//! touches:
//!
//! ```text
//! every certificate ≤ best certificate ≤ OPT ≤ cost of any strictly
//!                                              balanced coloring
//! ```
//!
//! Non-strict colorings are outside the bounds' feasible set and are
//! exempt from the right-hand comparison — the same convention as the
//! exact-optimum differential suite (`tests/oracle_differential.rs`).

use mmb_bench::standard_baselines;
use mmb_core::api::{Instance, Partitioner, Solver, Theorem4Pipeline};
use mmb_core::bnb::{self, BnbConfig};
use mmb_core::lower_bounds::{best_lower_bound, certify, standard_certifiers, CertifiedGap};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_graph::gen::lattice::hypercube;
use mmb_graph::gen::misc::path;
use mmb_instances::corpus::Corpus;

fn tol(x: f64) -> f64 {
    1e-9 * (1.0 + x.abs())
}

#[test]
fn every_certifier_is_below_the_oracle_on_every_small_entry() {
    // The heart of the soundness story: on every small corpus entry,
    // *each individual certificate* — not just the stack max —
    // must sit at or below the exact optimum.
    let certifiers = standard_certifiers();
    let mut fired = vec![0usize; certifiers.len()];
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let opt = bnb::solve(inst, k, &BnbConfig::exhaustive())
                .unwrap()
                .max_boundary;
            for (i, certifier) in certifiers.iter().enumerate() {
                let Some(cert) = certifier.certify(inst, k) else {
                    continue;
                };
                fired[i] += 1;
                assert!(
                    cert.value <= opt + tol(opt),
                    "{} k={k}: certifier `{}` claims {} above the optimum {}",
                    entry.name,
                    cert.certifier,
                    cert.value,
                    opt
                );
            }
        }
    }
    // The suite must actually exercise the stack: volume, packing and
    // branch and bound run everywhere; min-cut and structure on their
    // preconditions.
    for (i, certifier) in certifiers.iter().enumerate() {
        assert!(
            fired[i] > 0,
            "certifier `{}` never fired across the small corpus",
            certifier.name()
        );
    }
}

#[test]
fn lower_bound_never_beaten_corpus_wide() {
    // Stack max vs every partitioner's strictly balanced output, over
    // the whole quick corpus (the full-size regime exhaustive search
    // cannot reach).
    let baselines = standard_baselines();
    let pipeline = Theorem4Pipeline::default();
    let mut comparisons = 0usize;
    for entry in &Corpus::quick() {
        let inst = &entry.instance;
        let lower = best_lower_bound(inst, entry.k).value();
        assert!(lower > 0.0, "{}: trivial lower bound", entry.name);
        let mut algos: Vec<&dyn Partitioner> = vec![&pipeline];
        algos.extend(baselines.iter().map(|b| b.as_ref()));
        for algo in algos {
            let Ok(chi) = algo.partition(inst, entry.k) else {
                continue;
            };
            if !chi.is_strictly_balanced(inst.weights()) {
                continue; // outside the bounds' feasible set
            }
            comparisons += 1;
            let cost = chi.max_boundary_cost(inst.graph(), inst.costs());
            assert!(
                lower <= cost + tol(cost),
                "{}: lower bound {} beats `{}` at {}",
                entry.name,
                lower,
                algo.name(),
                cost
            );
        }
    }
    assert!(
        comparisons >= 32,
        "only {comparisons} strict colorings compared"
    );
}

#[test]
fn derivations_replay_on_every_small_entry() {
    // Machine-checkability: every certificate's stored derivation must
    // re-derive its own value from the instance alone.
    for entry in &Corpus::small() {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            for cert in &best_lower_bound(inst, k).certificates {
                let replayed = cert
                    .derivation
                    .replay(inst, k)
                    .unwrap_or_else(|e| panic!("{} k={k} `{}`: {e}", entry.name, cert.certifier));
                assert!(
                    (replayed - cert.value).abs() <= tol(cert.value),
                    "{} k={k} `{}`: value {} vs replay {}",
                    entry.name,
                    cert.certifier,
                    cert.value,
                    replayed
                );
            }
        }
    }
}

#[test]
fn bounds_are_identical_across_runs() {
    // Certification is a contract on the instance alone: two runs must be
    // bit-identical (a certifier that silently depended on leftover
    // thread state could drift between CI's test run and the bench run).
    for entry in Corpus::small().entries().iter().take(6) {
        let inst = &entry.instance;
        for k in [2usize, 3] {
            let first = best_lower_bound(inst, k);
            let second = best_lower_bound(inst, k);
            assert_eq!(
                first.certificates.len(),
                second.certificates.len(),
                "{} k={k}: certifier sets differ across runs",
                entry.name
            );
            for (a, b) in first.certificates.iter().zip(&second.certificates) {
                assert_eq!(a.certifier, b.certifier, "{} k={k}", entry.name);
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{} k={k} `{}`: {} vs {}",
                    entry.name,
                    a.certifier,
                    a.value,
                    b.value
                );
            }
        }
    }
}

#[test]
fn structure_bounds_are_tight_on_recognized_families() {
    // Hypercubes at k = 2 with uniform weights: Harper's inequality
    // certifies the bisection width exactly, so the certified gap of the
    // *optimal* coloring is 1.
    for d in [3usize, 4] {
        let g = hypercube(d);
        let (n, m) = (g.num_vertices(), g.num_edges());
        let inst = Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap();
        let lower = best_lower_bound(&inst, 2).value();
        assert_eq!(lower, (1usize << (d - 1)) as f64, "Q_{d} bisection width");
        let opt = bnb::solve(&inst, 2, &BnbConfig::exhaustive())
            .unwrap()
            .max_boundary;
        assert_eq!(CertifiedGap::new(lower, opt, "structure").ratio, 1.0);
    }
    // Unit paths at k = 2: one cut edge is both necessary and
    // sufficient.
    let inst = Instance::new(path(12), vec![1.0; 11], vec![1.0; 12]).unwrap();
    let lower = best_lower_bound(&inst, 2).value();
    assert_eq!(lower, 1.0);
    assert_eq!(
        bnb::solve(&inst, 2, &BnbConfig::exhaustive())
            .unwrap()
            .max_boundary,
        1.0
    );
}

#[test]
fn solve_certified_threads_the_gap_into_the_report() {
    for entry in Corpus::quick().entries().iter().take(4) {
        let inst = &entry.instance;
        let solver = Solver::for_instance(inst).classes(entry.k).build().unwrap();
        let plain = solver.solve();
        assert!(plain.certified.is_none(), "plain solve must not certify");
        let report = solver.solve_certified();
        let gap = report
            .certified
            .as_ref()
            .expect("certified solve carries a gap");
        assert_eq!(gap.upper, report.max_boundary, "{}", entry.name);
        assert!(gap.lower > 0.0, "{}: trivial bound", entry.name);
        assert!(gap.lower <= gap.upper + tol(gap.upper), "{}", entry.name);
        assert!(
            gap.ratio.is_finite() && gap.ratio >= 1.0 - 1e-9,
            "{}",
            entry.name
        );
        assert!(
            !gap.certifier.is_empty() && gap.certifier != "none",
            "{}",
            entry.name
        );
        // The free function agrees with the threaded result.
        let direct = certify(inst, entry.k, report.max_boundary);
        assert_eq!(
            direct.lower.to_bits(),
            gap.lower.to_bits(),
            "{}",
            entry.name
        );
        assert_eq!(direct.certifier, gap.certifier, "{}", entry.name);
        // Certification must not perturb the solve itself.
        assert_eq!(plain.coloring, report.coloring, "{}", entry.name);
    }
}

#[test]
fn certified_gap_composes_with_custom_configs() {
    // A solver with a custom config — a coarsening cascade, inert below
    // its target size — certifies the same lower bound and serves the
    // same coloring as the default: the gap engine sits entirely off the
    // solve path.
    let corpus = Corpus::quick();
    let entry = corpus.entries().first().unwrap();
    let inst = &entry.instance;
    let custom_cfg = PipelineConfig {
        coarsen: Some(CoarsenConfig::default()),
        ..PipelineConfig::default()
    };
    let a = Solver::for_instance(inst)
        .classes(entry.k)
        .build()
        .unwrap()
        .solve_certified();
    let b = Solver::for_instance(inst)
        .classes(entry.k)
        .config(custom_cfg)
        .build()
        .unwrap()
        .solve_certified();
    let (ga, gb) = (a.certified.unwrap(), b.certified.unwrap());
    assert_eq!(ga.lower.to_bits(), gb.lower.to_bits());
    assert_eq!(ga.certifier, gb.certifier);
    assert_eq!(a.coloring, b.coloring);
}
