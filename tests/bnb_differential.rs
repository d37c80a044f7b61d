//! Differential tests for the anytime branch-and-bound solver
//! (`mmb_core::bnb`) against the pipeline and itself.
//!
//! The contract under test:
//!
//! * **Exhaustive is exact and reproducible.** At unlimited budget the
//!   engine is the exact solver, so on every small corpus entry and
//!   k ∈ {2, 3} — plus bespoke instances at n = 12–16, past the small
//!   corpus' sizes — the run must exhaust (`proven_optimal`, certified
//!   ratio exactly 1.0, tight gap), and a second run must reproduce the
//!   coloring, the cost (bit for bit) and the node count.
//! * **Never worse than the pipeline.** The incumbent is seeded from
//!   `Theorem4Pipeline`, so at *any* budget — including 0 — the returned
//!   cost is ≤ the pipeline's, corpus-wide.
//! * **Anytime monotonicity.** The stop predicate is checked before a
//!   node is counted, so budgeted runs visit exact prefixes of the
//!   unbudgeted node sequence: growing the budget can only improve the
//!   incumbent, and the certified gap ratio is non-increasing in the
//!   budget.
//! * **Determinism.** Same instance, same budget, same solution — bit
//!   for bit — across repeated solves and repeated runs of the
//!   deterministic interrupt hook (a node-count "clock", no wall time).
//! * **Sound truncation.** A budget- or interrupt-truncated run still
//!   returns a valid strictly balanced coloring and a sound certified
//!   gap (`lower ≤ OPT ≤ upper`, with `upper` the incumbent's
//!   recomputable cost).

use mmb_core::api::{Instance, Partitioner, Solver, Theorem4Pipeline};
use mmb_core::bnb::{self, BnbConfig, BnbPartitioner};
use mmb_core::verify::verify_decomposition;
use mmb_graph::gen::lattice::hypercube;
use mmb_graph::gen::misc::{cycle, path};
use mmb_graph::gen::tree::random_tree;
use mmb_graph::Graph;
use mmb_instances::corpus::Corpus;

/// Wrap a bare graph into an instance with deterministic, slightly
/// non-uniform weights (so strict balance is not a trivial constraint)
/// and unit costs.
fn instance(g: Graph) -> Instance {
    let n = g.num_vertices();
    let m = g.num_edges();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
    Instance::new(g, vec![1.0; m], weights).unwrap()
}

/// Bespoke instances between the small corpus' n ≤ 10 and the medium
/// corpus' n > 16 — the sizes the corpus does not already cover.
fn mid_size_instances() -> Vec<(String, Instance)> {
    vec![
        ("path-12".into(), instance(path(12))),
        ("cycle-13".into(), instance(cycle(13))),
        ("tree-14".into(), instance(random_tree(14, 3, 21))),
        ("cycle-15".into(), instance(cycle(15))),
        ("hypercube-16".into(), instance(hypercube(4))),
    ]
}

#[test]
fn exhaustive_bnb_is_proven_and_bit_reproducible() {
    let small = Corpus::small();
    let bespoke = mid_size_instances();
    let mut cases: Vec<(&str, &Instance)> = small
        .entries()
        .iter()
        .map(|e| (e.name.as_str(), &e.instance))
        .collect();
    cases.extend(bespoke.iter().map(|(name, inst)| (name.as_str(), inst)));
    assert!(
        cases.len() >= 10,
        "differential base too small: {}",
        cases.len()
    );
    for (name, inst) in &cases {
        for k in [2usize, 3] {
            let sol = bnb::solve(inst, k, &BnbConfig::exhaustive())
                .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
            let again = bnb::solve(inst, k, &BnbConfig::exhaustive()).unwrap();
            assert!(
                sol.proven_optimal,
                "{name} k={k}: exhaustive run not proven"
            );
            assert_eq!(
                sol.coloring, again.coloring,
                "{name} k={k}: colorings differ"
            );
            assert_eq!(
                sol.max_boundary.to_bits(),
                again.max_boundary.to_bits(),
                "{name} k={k}: costs differ ({} vs {})",
                sol.max_boundary,
                again.max_boundary
            );
            assert_eq!(sol.nodes, again.nodes, "{name} k={k}: node counts differ");
            assert_eq!(sol.gap.ratio.to_bits(), 1.0f64.to_bits(), "{name} k={k}");
            assert!(
                (sol.gap.lower - sol.gap.upper).abs() == 0.0,
                "{name} k={k}: proven gap must be tight"
            );
        }
    }
}

#[test]
fn incumbent_never_worse_than_the_pipeline_corpus_wide() {
    // A modest budget: enough to search a little everywhere, nowhere
    // near exhaustion on the larger quick-corpus entries.
    let cfg = BnbConfig::with_node_budget(20_000);
    for entry in &Corpus::quick() {
        let inst = &entry.instance;
        let pipe = Theorem4Pipeline::default()
            .partition(inst, entry.k)
            .unwrap();
        let pipe_cost = pipe.max_boundary_cost(inst.graph(), inst.costs());
        let sol = bnb::solve(inst, entry.k, &cfg).unwrap();
        assert!(
            sol.max_boundary <= pipe_cost + 1e-9 * (1.0 + pipe_cost),
            "{}: bnb {} worse than pipeline {}",
            entry.name,
            sol.max_boundary,
            pipe_cost
        );
        // The returned coloring is always a *valid* solution whose cost
        // matches a from-scratch recomputation.
        let report =
            verify_decomposition(inst.graph(), inst.costs(), inst.weights(), &sol.coloring);
        assert!(report.is_valid(), "{}: invalid bnb coloring", entry.name);
        assert!(
            (report.max_boundary - sol.max_boundary).abs() <= 1e-9 * (1.0 + sol.max_boundary),
            "{}: reported {} vs recomputed {}",
            entry.name,
            sol.max_boundary,
            report.max_boundary
        );
        // Sound gap at any budget: lower ≤ upper = achieved cost.
        assert!(
            sol.gap.lower <= sol.gap.upper + 1e-9 * (1.0 + sol.gap.upper),
            "{}: gap lower {} above upper {}",
            entry.name,
            sol.gap.lower,
            sol.gap.upper
        );
        assert_eq!(
            sol.gap.upper.to_bits(),
            sol.max_boundary.to_bits(),
            "{}: gap upper must be the incumbent cost",
            entry.name
        );
    }
}

#[test]
fn certified_gap_is_monotone_non_increasing_in_the_node_budget() {
    // Hard enough that small budgets truncate: the 4-cube at k = 3 with
    // non-uniform weights (the same instance the engine unit tests use
    // for truncation), plus a medium-corpus entry (n > 16).
    let hyper = instance(hypercube(4));
    let med = Corpus::medium();
    let e = &med.entries()[0];
    let cases: Vec<(&str, &Instance, usize)> = vec![
        ("hypercube-16", &hyper, 3),
        (e.name.as_str(), &e.instance, e.k),
    ];
    for (name, inst, k) in &cases {
        let budgets = [0u64, 100, 1_000, 10_000, 100_000];
        let mut prev_ratio = f64::INFINITY;
        let mut prev_cost = f64::INFINITY;
        let mut truncated_runs = 0usize;
        for b in budgets {
            let sol = bnb::solve(inst, *k, &BnbConfig::with_node_budget(b)).unwrap();
            assert!(
                sol.nodes <= b,
                "{name} k={k}: visited {} nodes on budget {b}",
                sol.nodes
            );
            assert!(
                sol.max_boundary <= prev_cost + 1e-12,
                "{name} k={k}: incumbent worsened ({} after {prev_cost}) at budget {b}",
                sol.max_boundary
            );
            assert!(
                sol.gap.ratio <= prev_ratio + 1e-12,
                "{name} k={k}: gap ratio worsened ({} after {prev_ratio}) at budget {b}",
                sol.gap.ratio
            );
            prev_cost = sol.max_boundary;
            prev_ratio = sol.gap.ratio;
            if !sol.proven_optimal {
                truncated_runs += 1;
            }
        }
        // The sweep must actually exercise the truncated regime — if
        // every budget already proves optimality the monotonicity claim
        // was never tested.
        assert!(
            truncated_runs >= 2,
            "{name} k={k}: only {truncated_runs} truncated runs in the budget sweep"
        );
    }
}

#[test]
fn budget_zero_returns_exactly_the_pipeline_coloring() {
    for entry in Corpus::small().entries().iter().take(4) {
        let inst = &entry.instance;
        let sol = bnb::solve(inst, entry.k, &BnbConfig::with_node_budget(0)).unwrap();
        let pipe = Theorem4Pipeline::default()
            .partition(inst, entry.k)
            .unwrap();
        assert_eq!(
            sol.coloring, pipe,
            "{}: budget-0 run must return the seed",
            entry.name
        );
        assert_eq!(sol.nodes, 0, "{}", entry.name);
    }
}

#[test]
fn solve_anytime_is_deterministic_across_runs() {
    let solve = |inst: &Instance, k: usize| {
        let solver = Solver::for_instance(inst).classes(k).build().unwrap();
        solver.solve_anytime(&BnbConfig::with_node_budget(5_000))
    };
    for entry in Corpus::small().entries().iter().take(6) {
        let inst = &entry.instance;
        let first = solve(inst, entry.k);
        let second = solve(inst, entry.k);
        assert_eq!(
            first.coloring, second.coloring,
            "{}: repeated solves disagree",
            entry.name
        );
        assert_eq!(
            first.max_boundary.to_bits(),
            second.max_boundary.to_bits(),
            "{}",
            entry.name
        );
        let (gr, gt) = (first.certified.unwrap(), second.certified.unwrap());
        assert_eq!(gr.lower.to_bits(), gt.lower.to_bits(), "{}", entry.name);
        assert_eq!(gr.upper.to_bits(), gt.upper.to_bits(), "{}", entry.name);
        assert_eq!(gr.certifier, gt.certifier, "{}", entry.name);
        // solve_anytime's report is never worse than the pipeline's.
        let plain = Theorem4Pipeline::default()
            .partition(inst, entry.k)
            .unwrap();
        let plain_cost = plain.max_boundary_cost(inst.graph(), inst.costs());
        assert!(
            first.max_boundary <= plain_cost + 1e-9 * (1.0 + plain_cost),
            "{}: anytime report worse than the pipeline",
            entry.name
        );
    }
}

#[test]
fn interrupt_clock_truncates_deterministically_with_a_sound_gap() {
    // A deterministic "clock": interrupt after exactly 777 visited nodes.
    // No wall time is involved, so two runs must agree bit for bit.
    let inst = instance(hypercube(4));
    let k = 3;
    let run = || {
        let mut clock = |visited: u64| visited >= 777;
        bnb::solve_with_interrupt(&inst, k, &BnbConfig::exhaustive(), &mut clock).unwrap()
    };
    let a = run();
    let b = run();
    assert!(!a.proven_optimal, "the clock must truncate this search");
    assert_eq!(
        a.nodes, 777,
        "stop is checked before counting: exact prefix"
    );
    assert_eq!(
        a.coloring, b.coloring,
        "interrupted runs must be bit-identical"
    );
    assert_eq!(a.max_boundary.to_bits(), b.max_boundary.to_bits());
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.gap.lower.to_bits(), b.gap.lower.to_bits());
    // The truncated result is still a valid strictly balanced coloring…
    assert!(a.coloring.is_total());
    assert!(a.coloring.is_strictly_balanced(inst.weights()));
    let report = verify_decomposition(inst.graph(), inst.costs(), inst.weights(), &a.coloring);
    assert!(report.is_valid());
    // …whose certified gap brackets the true optimum (n = 16: an
    // exhaustive run can still name it).
    let opt = bnb::solve(&inst, k, &BnbConfig::exhaustive())
        .unwrap()
        .max_boundary;
    assert!(
        a.gap.lower <= opt + 1e-9 * (1.0 + opt),
        "truncated lower bound {} above the optimum {opt}",
        a.gap.lower
    );
    assert!(
        opt <= a.gap.upper + 1e-9 * (1.0 + a.gap.upper),
        "optimum {opt} above the truncated upper bound {}",
        a.gap.upper
    );
    assert!(
        !a.gap.certifier.is_empty(),
        "truncated gap must name its certifier"
    );
}

#[test]
fn bnb_partitioner_exposes_the_engine_on_the_trait_surface() {
    let part = BnbPartitioner {
        cfg: BnbConfig::with_node_budget(10_000),
    };
    assert_eq!(part.name(), "bnb (anytime)");
    let inst = instance(path(12));
    let chi = part.partition(&inst, 2).unwrap();
    let direct = bnb::solve(&inst, 2, &part.cfg).unwrap();
    assert_eq!(
        chi, direct.coloring,
        "trait adapter must run the same search"
    );
}
