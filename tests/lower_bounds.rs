//! Differential tests for the certified lower-bound engine
//! (`mmb_core::lower_bounds`): soundness against the exact optimum and
//! every partitioner, machine-checkable derivations, run-to-run
//! determinism, tightness on recognized families, and `certify` paired
//! with a solved report.
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
use mmb_core::lower_bounds::structure::StructureBound;
use mmb_core::lower_bounds::{
    best_lower_bound, certify, standard_certifiers, CertifiedGap, LowerBound,
};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_graph::gen::grid::GridGraph;
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

/// Sparse grid instances, unit costs and weights, whose bounding box
/// spans more than `u64` on an axis or holds more than `u64` points: a
/// pair at `i64::MIN` with a point at `i64::MAX`; two dominoes 4·10^18
/// apart; the eight `i64`-extreme points of GridSplit's sparse suite; and
/// a domino with a point at (2^33, 2^33).
fn sparse_extreme_grids() -> Vec<Instance> {
    let (lo, hi, e) = (i64::MIN, i64::MAX, 4_000_000_000_000_000_000);
    [
        vec![[lo, 0], [lo + 1, 0], [hi, 0]],
        vec![[0, 0], [1, 0], [e, e], [e + 1, e]],
        vec![
            [lo, lo],
            [lo + 1, lo],
            [lo, lo + 1],
            [hi, hi],
            [hi - 1, hi],
            [hi, hi - 1],
            [lo, hi],
            [hi, lo],
        ],
        vec![[0, 0], [1, 0], [1 << 33, 1 << 33]],
    ]
    .into_iter()
    .map(|points| {
        let grid = GridGraph::from_points(2, points.iter().map(|p| p.to_vec()).collect());
        let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
        Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap()
    })
    .collect()
}

#[test]
fn structure_declines_on_sparse_grids_at_the_ends_of_the_i64_range() {
    // None of these fills its bounding box, so the lattice argument does
    // not apply; the box check must say so without overflowing.
    for (set, inst) in (1..).zip(sparse_extreme_grids()) {
        assert!(StructureBound.certify(&inst, 2).is_none(), "set {set}");
        let certificates = best_lower_bound(&inst, 2).certificates;
        assert!(
            certificates.iter().all(|c| c.certifier != "structure"),
            "set {set}"
        );
    }
}

#[test]
fn certify_pairs_the_gap_with_the_solved_cost() {
    // The inputs: four quick-corpus entries, plus uniform grids at
    // k = 16 — a size where no search exhausts, so the gap rests on the
    // polynomial certifiers alone.
    let corpus = Corpus::quick();
    let grids: Vec<(String, Instance)> = [12usize, 16]
        .iter()
        .map(|&side| {
            let grid = GridGraph::lattice(&[side, side]);
            let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
            let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
            (format!("uniform-grid-{side}x{side}"), inst)
        })
        .collect();
    let inputs = corpus
        .entries()
        .iter()
        .take(4)
        .map(|e| (e.name.as_str(), &e.instance, e.k))
        .chain(grids.iter().map(|(name, inst)| (name.as_str(), inst, 16)));
    for (name, inst, k) in inputs {
        let solver = Solver::for_instance(inst).classes(k).build().unwrap();
        let report = solver.solve();
        assert!(report.certified.is_none(), "plain solve must not certify");
        let gap = certify(inst, k, report.max_boundary);
        assert_eq!(gap.upper, report.max_boundary, "{name}");
        assert!(gap.lower > 0.0, "{name}: trivial bound");
        assert!(gap.lower <= gap.upper + tol(gap.upper), "{name}");
        assert!(
            gap.ratio.is_finite() && gap.ratio >= 1.0,
            "{name}: ratio {}",
            gap.ratio
        );
        assert!(
            !gap.certifier.is_empty() && gap.certifier != "none",
            "{name}"
        );
        // Certification is deterministic: a second call agrees bit for bit.
        let again = certify(inst, k, report.max_boundary);
        assert_eq!(again.lower.to_bits(), gap.lower.to_bits(), "{name}");
        assert_eq!(again.certifier, gap.certifier, "{name}");
        // Certification must not perturb the solve itself.
        assert_eq!(solver.solve().coloring, report.coloring, "{name}");
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
        .solve();
    let b = Solver::for_instance(inst)
        .classes(entry.k)
        .config(custom_cfg)
        .build()
        .unwrap()
        .solve();
    let ga = certify(inst, entry.k, a.max_boundary);
    let gb = certify(inst, entry.k, b.max_boundary);
    assert_eq!(ga.lower.to_bits(), gb.lower.to_bits());
    assert_eq!(ga.certifier, gb.certifier);
    assert_eq!(a.coloring, b.coloring);
}
