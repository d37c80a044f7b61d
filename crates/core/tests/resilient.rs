//! Degradation-ladder behavior of [`ResilientSolver`]: rung fall-through
//! under rigged panics and rejected outputs, bounded transient retries,
//! deadline skipping, and the [`Resilience`] record naming every failure
//! truthfully.
//!
//! Faults are injected only through the deterministic
//! [`mmb_core::failpoint`] framework — no randomness, every failure
//! replays.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mmb_core::api::{Instance, Solver};
use mmb_core::bnb::BnbConfig;
use mmb_core::coarsen::CoarsenParams;
use mmb_core::failpoint::{injected, with_faults, FaultAction, FaultSchedule};
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::resilient::{DeadlineBudget, RejectReason, ResilientSolver, RungOutcome, SkipReason};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::misc::{path, star};
use mmb_splitters::order::OrderSplitter;

fn lattice_instance(dims: &[usize]) -> Instance {
    let grid = GridGraph::lattice(dims);
    let m = grid.graph.num_edges();
    let n = grid.graph.num_vertices();
    Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap()
}

fn path_instance(n: usize) -> Instance {
    let g = path(n);
    let m = g.num_edges();
    Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap()
}

/// The ladder over a plain solver of `inst` with `k` classes.
fn ladder(inst: &Instance, k: usize) -> ResilientSolver<'_> {
    ResilientSolver::new(Solver::for_instance(inst).classes(k).build().unwrap())
}

/// A small bnb budget so certified rungs stay fast under test.
fn quick_bnb() -> BnbConfig {
    BnbConfig::with_node_budget(2_000)
}

#[test]
fn healthy_solve_serves_the_certified_rung() {
    let inst = lattice_instance(&[6, 6]);
    let solver = ladder(&inst, 4).bnb(quick_bnb());
    let report = solver.solve();
    assert!(report.is_strictly_balanced());
    let res = report.resilience.as_ref().expect("record always attached");
    assert_eq!(res.served_by, "certified");
    assert_eq!(res.served_index, 0);
    assert!(!res.degraded, "the first rung served: not degraded");
    assert_eq!(res.faults_observed, 0);
    assert_eq!(res.attempts.len(), 1);
    assert_eq!(res.attempts[0].outcome, RungOutcome::Served);
    // The certified rung brings its own gap.
    assert!(report.certified.is_some());
}

#[test]
fn a_sparse_grid_at_the_ends_of_the_i64_range_is_served() {
    // The served report's lower bound runs outside every rung's unwind
    // boundary, so its structure certificate must decline on a point set
    // whose bounding box spans more than `u64`, not overflow.
    let points = vec![vec![i64::MIN, 0], vec![i64::MIN + 1, 0], vec![i64::MAX, 0]];
    let grid = GridGraph::from_points(2, points);
    let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
    let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
    let report = ladder(&inst, 2).solve();
    assert!(report.is_strictly_balanced());
    assert_eq!(report.resilience.as_ref().unwrap().served_by, "certified");
}

#[test]
fn splitter_panics_degrade_to_first_fit_and_are_named() {
    let inst = lattice_instance(&[6, 6]);
    let solver = ladder(&inst, 4).bnb(quick_bnb());
    let schedule = FaultSchedule::new().always("splitter::split", FaultAction::Panic);
    let (report, log) = with_faults(&schedule, || solver.solve());
    assert!(report.is_strictly_balanced());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "first-fit");
    assert!(res.degraded);
    assert!(!log.is_empty());
    assert_eq!(res.faults_observed, log.len() as u64);
    // Both solver rungs are recorded as panicked, naming the failpoint.
    for rung in ["certified", "pipeline"] {
        match &res.attempt_for(rung).unwrap().outcome {
            RungOutcome::Panicked(msg) => {
                assert!(msg.contains("splitter::split"), "{rung}: {msg}")
            }
            other => panic!("{rung}: expected Panicked, got {other:?}"),
        }
    }
    // Monotone degradation: served cost never exceeds the floor's.
    assert!(report.max_boundary <= res.floor_cost * (1.0 + 1e-9));
}

#[test]
fn workspace_survives_unwinds_and_later_solves_are_bit_identical() {
    let inst = lattice_instance(&[6, 6]);
    let fresh = || ladder(&inst, 4).bnb(quick_bnb());
    // A never-faulted reference solve, on a solver of its own.
    let reference = fresh().solve();
    assert_eq!(
        reference.resilience.as_ref().unwrap().served_by,
        "certified"
    );
    // One shared solver: panic through every solver rung before its
    // splitter was ever built (its π is, and pooled workspace buffers are
    // in use when the unwind happens)…
    let solver = fresh();
    let schedule = FaultSchedule::new().always("splitter::split", FaultAction::Panic);
    let (faulted, _) = with_faults(&schedule, || solver.solve());
    assert_eq!(faulted.resilience.as_ref().unwrap().served_by, "first-fit");
    // …then solve cleanly with the same solver on the same thread: the
    // pool must be unpoisoned (no panic, no stale scratch state), the
    // solver's once-cells complete or still empty, and the result
    // bit-identical to the never-faulted run.
    let after = solver.solve();
    assert_eq!(after.resilience.as_ref().unwrap().served_by, "certified");
    assert_eq!(after.coloring, reference.coloring);
    assert_eq!(after.max_boundary, reference.max_boundary);
}

/// Every plain solve reaches the `splitter::split` failpoint: with the
/// automatic pick, with a caller's splitter, and in a cascade's coarse
/// solve.
#[test]
fn every_solve_passes_the_split_failpoint() {
    let grid = lattice_instance(&[8, 8]);
    let lattice = GridGraph::lattice(&[64, 64]);
    let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
    let plain = Instance::new(lattice.graph, vec![1.0; m], vec![1.0; n]).unwrap();
    let cascade = PipelineConfig {
        coarsen: Some(CoarsenConfig {
            params: CoarsenParams {
                target_vertices: 512,
                ..CoarsenParams::default()
            },
            ..CoarsenConfig::default()
        }),
        ..PipelineConfig::default()
    };
    let solvers = [
        Solver::for_instance(&grid).classes(4).build().unwrap(),
        Solver::for_instance(&grid)
            .classes(4)
            .splitter(Box::new(OrderSplitter::by_id(grid.graph())))
            .build()
            .unwrap(),
        Solver::for_instance(&plain)
            .classes(4)
            .config(cascade)
            .build()
            .unwrap(),
    ];
    let schedule = FaultSchedule::new().once("splitter::split", 0, FaultAction::Panic);
    for solver in &solvers {
        let (caught, log) = with_faults(&schedule, || {
            catch_unwind(AssertUnwindSafe(|| solver.solve()))
        });
        let payload = caught.expect_err("the first split unwinds");
        let fault = injected(payload.as_ref()).expect("an injected fault");
        assert_eq!(fault.site, "splitter::split", "{solver:?}");
        assert_eq!(log.len(), 1, "{solver:?}");
    }
}

/// The ladder runs the solver it is given, a caller's splitter included.
#[test]
fn the_ladder_runs_the_callers_splitter() {
    let inst = lattice_instance(&[6, 6]);
    let solver = Solver::for_instance(&inst)
        .classes(4)
        .splitter(Box::new(OrderSplitter::by_id(inst.graph())))
        .build()
        .unwrap();
    let solver = ResilientSolver::new(solver).bnb(quick_bnb());
    let report = solver.solve();
    assert_eq!(report.resilience.as_ref().unwrap().served_by, "certified");
    assert_eq!(report.splitter, "order/id");
    let schedule = FaultSchedule::new().always("splitter::split", FaultAction::Panic);
    let (report, _) = with_faults(&schedule, || solver.solve());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "first-fit");
    for rung in ["certified", "pipeline"] {
        match &res.attempt_for(rung).unwrap().outcome {
            RungOutcome::Panicked(msg) => assert!(msg.contains("splitter::split"), "{rung}: {msg}"),
            other => panic!("{rung}: expected Panicked, got {other:?}"),
        }
    }
}

/// The gate rejects a solver rung that runs clean but serves worse than
/// the LPT floor, and the ladder falls through to the next rung. On this
/// weighted star the pipeline cuts 12, the floor 7; at node budget 0 the
/// certified rung serves the pipeline's coloring.
#[test]
fn a_pipeline_worse_than_the_floor_is_rejected_not_served() {
    let inst = Instance::new(star(4), vec![5.0, 7.0, 2.0, 4.0], vec![1.0; 5]).unwrap();
    let solver = ladder(&inst, 2).bnb(BnbConfig::with_node_budget(0));
    let report = solver.solve();
    let res = report.resilience.as_ref().unwrap();
    for rung in ["certified", "pipeline"] {
        assert_eq!(
            res.attempt_for(rung).unwrap().outcome,
            RungOutcome::Rejected(RejectReason::WorseThanFloor {
                cost: 12.0,
                floor: 7.0
            }),
            "{rung}"
        );
    }
    assert_eq!(res.served_by, "first-fit");
    assert!(res.degraded);
    assert!(report.is_strictly_balanced());
    assert!(report.max_boundary <= res.floor_cost);
}

#[test]
fn transient_faults_are_retried_and_recover() {
    let inst = lattice_instance(&[5, 5]);
    let solver = ladder(&inst, 3).bnb(quick_bnb());
    // Fire exactly once, on the first pipeline entry; the retry passes.
    let schedule = FaultSchedule::new().once("pipeline::multibalance", 0, FaultAction::Transient);
    let (report, log) = with_faults(&schedule, || solver.solve());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "certified");
    assert_eq!(res.attempts[0].tries, 2, "one transient, one clean try");
    assert!(!res.degraded, "a recovered rung is not degradation");
    assert_eq!(log.len(), 1);
}

#[test]
fn a_transient_in_branch_and_bound_is_retried() {
    let inst = lattice_instance(&[6, 6]);
    let solver = ladder(&inst, 4).bnb(quick_bnb());
    let schedule = FaultSchedule::new().once("bnb::solve", 0, FaultAction::Transient);
    let (report, log) = with_faults(&schedule, || solver.solve());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "certified");
    let certified = res.attempt_for("certified").unwrap();
    assert_eq!(certified.tries, 2, "one transient, one clean try");
    assert_eq!(certified.outcome, RungOutcome::Served);
    assert_eq!(log.len(), 1);
}

#[test]
fn exhausted_retries_fall_through_with_the_try_count_recorded() {
    let inst = lattice_instance(&[5, 5]);
    let solver = ladder(&inst, 3).bnb(quick_bnb());
    let schedule = FaultSchedule::new().always("pipeline::multibalance", FaultAction::Transient);
    let (report, _) = with_faults(&schedule, || solver.solve());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "first-fit");
    for rung in ["certified", "pipeline"] {
        let attempt = res.attempt_for(rung).unwrap();
        assert_eq!(attempt.tries, 3, "{rung}: initial try + 2 retries");
        assert!(
            matches!(attempt.outcome, RungOutcome::Panicked(_)),
            "{rung}: transient through infallible code surfaces as a caught unwind"
        );
    }
}

#[test]
fn zero_budget_serves_the_trivial_floor_within_the_overshoot_allowance() {
    let inst = lattice_instance(&[6, 6]);
    let solver = ladder(&inst, 4).budget(DeadlineBudget::with_total(Duration::ZERO));
    let report = solver.solve();
    assert!(report.is_strictly_balanced());
    let res = report.resilience.as_ref().unwrap();
    assert_eq!(res.served_by, "trivial");
    assert_eq!(report.max_boundary, res.floor_cost);
    // Every rung above the floor was skipped for the deadline, not run.
    for rung in ["certified", "pipeline", "first-fit"] {
        assert_eq!(
            res.attempt_for(rung).unwrap().outcome,
            RungOutcome::Skipped(SkipReason::DeadlineExhausted),
            "{rung}"
        );
    }
    // The floor is pure arithmetic: an exhausted deadline still returns
    // promptly (generous CI allowance).
    assert!(
        !res.overshot_by_more_than(250.0),
        "{:?}",
        res.elapsed_millis
    );
    assert!(report.certified.is_some(), "even the floor carries a gap");
}

#[test]
fn solve_is_total_under_a_panicking_ladder_and_a_zero_deadline_combined() {
    let inst = path_instance(16);
    let solver = ladder(&inst, 4).budget(DeadlineBudget::with_total(Duration::ZERO));
    let schedule = FaultSchedule::new()
        .always("splitter::split", FaultAction::Panic)
        .always("pipeline::multibalance", FaultAction::Panic)
        .always("bnb::solve", FaultAction::Panic);
    let (report, _) = with_faults(&schedule, || solver.solve());
    assert!(report.coloring.is_total());
    assert!(report.is_strictly_balanced());
    assert_eq!(report.resilience.as_ref().unwrap().served_by, "trivial");
}

/// The solver rungs build their automatic splitter on first use, as a
/// `Solver` without a caller's splitter does, so a cascade rung reads the
/// coarse graph's structure only. The served report's static certificate
/// still reads the host's (its lattice bound needs it), so with k ≥ 2 the
/// ladder recognizes the host once, after the rung; with one class the
/// certificate declines first and the host stays undetected. Either way
/// the coloring is the one served once the host was recognized.
#[test]
fn cascade_rung_builds_its_host_splitter_on_first_use() {
    use mmb_graph::recognize::recognition_count;

    let lattice = GridGraph::lattice(&[64, 64]);
    let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
    let host = || {
        let costs = (0..m).map(|e| 0.5 + (e % 7) as f64).collect();
        let weights = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
        Instance::new(lattice.graph.clone(), costs, weights).unwrap()
    };
    let cfg = PipelineConfig {
        coarsen: Some(CoarsenConfig {
            params: CoarsenParams {
                target_vertices: 512,
                ..CoarsenParams::default()
            },
            ..CoarsenConfig::default()
        }),
        ..PipelineConfig::default()
    };
    let solve = |inst: &Instance, k: usize| {
        let solver = Solver::for_instance(inst)
            .classes(k)
            .config(cfg.clone())
            .build()
            .unwrap();
        ResilientSolver::new(solver)
            .bnb(BnbConfig::with_node_budget(0))
            .solve()
    };

    for (k, host_recognitions) in [(1, 0), (4, 1)] {
        let (inst, twin) = (host(), host());
        let before = recognition_count();
        let report = solve(&inst, k);
        assert_eq!(
            recognition_count(),
            before + 1 + host_recognitions,
            "k = {k}: the coarse graph, and the host only for the certificate"
        );
        let detected = format!("{inst:?}");
        assert_eq!(
            detected.contains("undetected"),
            host_recognitions == 0,
            "k = {k}: {detected}"
        );
        let res = report.resilience.as_ref().unwrap();
        assert_eq!(res.served_by, "certified");
        assert_eq!(report.splitter, "bfs", "the coarse solver's splitter");

        let _ = twin.structure();
        let eager = solve(&twin, k);
        assert!(eager.coloring == report.coloring, "k = {k}");
    }
}
