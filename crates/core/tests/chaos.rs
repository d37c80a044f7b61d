//! Chaos differential suite: seeded fault schedules × a small corpus,
//! asserting the resilient harness's public contract under injected
//! panics, transients and stalls:
//!
//! 1. no panic ever crosses the public API;
//! 2. every response is a valid strictly balanced coloring — never
//!    garbage (the served-batch flavor, a valid coloring or a typed
//!    error per request, is in `mmb-service`'s chaos suite);
//! 3. degradation is monotone: the served cost never exceeds the trivial
//!    floor rung's;
//! 4. deadline overshoot stays bounded even while sites stall;
//! 5. the outcome replays bit-identically from the seed (stall-free
//!    wall-clock effects excluded by construction: no time budgets).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mmb_core::api::{Instance, Solver};
use mmb_core::bnb::BnbConfig;
use mmb_core::failpoint::{with_faults, FaultSchedule};
use mmb_core::resilient::{DeadlineBudget, ResilientSolver, RungOutcome};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::misc::{cycle, path, star};

/// The CI seeds; `reproduce chaos` sweeps the same set.
const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 0xc0ffee];

fn corpus() -> Vec<(Instance, usize)> {
    let mut out = Vec::new();
    for (g, k) in [(path(12), 2), (cycle(10), 2), (star(9), 3)] {
        let m = g.num_edges();
        let n = g.num_vertices();
        out.push((Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap(), k));
    }
    let grid = GridGraph::lattice(&[4, 4]);
    let (m, n) = (grid.graph.num_edges(), grid.graph.num_vertices());
    out.push((
        Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap(),
        3,
    ));
    out
}

/// One resilient solve under `schedule`; returns what the record and the
/// suite's invariants need.
fn chaos_solve(
    inst: &Instance,
    k: usize,
    schedule: &FaultSchedule,
) -> (mmb_core::api::Report, usize) {
    let solver = ResilientSolver::new(Solver::for_instance(inst).classes(k).build().unwrap())
        .bnb(BnbConfig::with_node_budget(2_000));
    let (outcome, log) = with_faults(schedule, || {
        catch_unwind(AssertUnwindSafe(|| solver.solve()))
    });
    let report = outcome.expect("invariant 1: no panic crosses ResilientSolver::solve");
    (report, log.len())
}

#[test]
fn chaos_resilient_solves_hold_every_invariant() {
    for seed in SEEDS {
        let schedule = FaultSchedule::chaos(seed);
        for (inst, k) in &corpus() {
            let (report, injected) = chaos_solve(inst, *k, &schedule);
            // Invariant 2: a valid strictly balanced coloring, always.
            assert!(report.coloring.is_total(), "seed {seed}");
            assert!(report.is_strictly_balanced(), "seed {seed}");
            let res = report.resilience.as_ref().expect("record attached");
            // Invariant 3: monotone degradation against the floor.
            assert!(
                report.max_boundary <= res.floor_cost * (1.0 + 1e-9),
                "seed {seed}: served {} > floor {}",
                report.max_boundary,
                res.floor_cost
            );
            // The record accounts for itself: the final attempt served,
            // every earlier one explains why it did not.
            let last = res.attempts.last().unwrap();
            assert_eq!(last.outcome, RungOutcome::Served, "seed {seed}");
            assert_eq!(last.rung, res.served_by, "seed {seed}");
            for earlier in &res.attempts[..res.attempts.len() - 1] {
                assert_ne!(earlier.outcome, RungOutcome::Served, "seed {seed}");
            }
            assert_eq!(res.faults_observed, injected as u64, "seed {seed}");
            // A certified gap rides along no matter which rung served.
            assert!(report.certified.is_some(), "seed {seed}");
        }
    }
}

#[test]
fn chaos_outcomes_replay_bit_identically_from_their_seed() {
    // No time budgets anywhere in this test: truncation is node-count
    // driven, so wall-clock noise (stall sleeps, CI jitter) cannot leak
    // into outcomes — only into the `millis` telemetry, which is
    // deliberately excluded from the comparison.
    for seed in SEEDS {
        let schedule = FaultSchedule::chaos(seed);
        for (inst, k) in &corpus() {
            let (a, _) = chaos_solve(inst, *k, &schedule);
            let (b, _) = chaos_solve(inst, *k, &schedule);
            assert_eq!(a.coloring, b.coloring, "seed {seed}");
            assert_eq!(a.max_boundary, b.max_boundary, "seed {seed}");
            let (ra, rb) = (a.resilience.unwrap(), b.resilience.unwrap());
            assert_eq!(ra.served_by, rb.served_by, "seed {seed}");
            assert_eq!(ra.faults_observed, rb.faults_observed, "seed {seed}");
            let outcomes = |r: &mmb_core::resilient::Resilience| {
                r.attempts
                    .iter()
                    .map(|at| (at.rung.clone(), at.tries, format!("{:?}", at.outcome)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(outcomes(&ra), outcomes(&rb), "seed {seed}");
        }
    }
}

#[test]
fn chaos_deadline_overshoot_stays_bounded_while_sites_stall() {
    // Chaos schedules include stalls; a deadline-budgeted solve must
    // still come back near its budget. The allowance is generous (CI
    // machines wheeze) but a harness that ignores the budget — e.g. runs
    // the full certified search anyway — would blow it.
    let budget = Duration::from_millis(100);
    for seed in SEEDS {
        let schedule = FaultSchedule::chaos(seed);
        for (inst, k) in &corpus() {
            let solver =
                ResilientSolver::new(Solver::for_instance(inst).classes(*k).build().unwrap())
                    .budget(DeadlineBudget::with_total(budget));
            let (outcome, _) = with_faults(&schedule, || {
                catch_unwind(AssertUnwindSafe(|| solver.solve()))
            });
            let report = outcome.expect("no panic escapes under a deadline either");
            assert!(report.is_strictly_balanced(), "seed {seed}");
            let res = report.resilience.unwrap();
            assert!(
                !res.overshot_by_more_than(2_000.0),
                "seed {seed}: elapsed {} ms against a {} ms budget",
                res.elapsed_millis,
                budget.as_millis()
            );
        }
    }
}
