//! The resilient solving harness: a degradation ladder that always
//! returns a valid answer within a deadline.
//!
//! [`ResilientSolver::new`] wraps one built [`Solver`] in a ladder of four
//! rungs, best first:
//!
//! 1. **certified** — [`Solver::solve_anytime`]: the Theorem 4 pipeline
//!    plus budgeted branch-and-bound refinement and a certified gap.
//! 2. **pipeline** — plain [`Solver::solve`].
//! 3. **first-fit** — id-order greedy-lightest (strict, locality-aware).
//! 4. **trivial** — LPT greedy-lightest: the panic-free floor.
//!
//! Both solver rungs, every retry and every later solve run that one
//! solver, with whatever splitter it was built with, so its splitter and
//! `π` are built once per ladder.
//!
//! Each rung above the floor runs inside a `catch_unwind` boundary; the
//! certified rung's search is capped at half of the per-call
//! [`DeadlineBudget`], and once the deadline has passed every remaining
//! rung above the floor is skipped. A rung that panics or produces an
//! output that fails validation (not a `k`-coloring of the instance, not
//! total, not strictly balanced, or worse than the floor) is recorded and
//! the ladder falls through to the next rung. An injected transient fault
//! is retried up to twice, after a 1 ms backoff that doubles, before the
//! rung is declared failed. The outcome of every rung — and which one
//! finally served — is attached to the returned [`Report`] as a
//! [`Resilience`] record.
//!
//! [`ResilientSolver::solve`] is **total**: it always returns a strictly
//! balanced coloring, because the floor rung is pure arithmetic that
//! cannot panic and is never skipped. Degradation is **monotone** by
//! construction: no rung's output is served unless it is at least as
//! good as the floor, so falling down the ladder never makes the answer
//! worse than the rung that ultimately serves it.
//!
//! ```
//! use std::time::Duration;
//! use mmb_core::resilient::{DeadlineBudget, ResilientSolver};
//! use mmb_core::api::{Instance, Solver};
//! use mmb_graph::gen::grid::GridGraph;
//!
//! let grid = GridGraph::lattice(&[8, 8]);
//! let costs = vec![1.0; grid.graph.num_edges()];
//! let weights = vec![1.0; grid.graph.num_vertices()];
//! let inst = Instance::from_grid(grid, costs, weights)?;
//! let solver = ResilientSolver::new(Solver::for_instance(&inst).classes(4).build()?)
//!     .budget(DeadlineBudget::with_total(Duration::from_millis(250)));
//! let report = solver.solve(); // infallible: some rung always serves
//! let res = report.resilience.as_ref().unwrap();
//! assert!(report.is_strictly_balanced());
//! assert!(report.max_boundary <= res.floor_cost * (1.0 + 1e-9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod budget;
pub(crate) mod ladder;
mod record;

pub use budget::DeadlineBudget;
pub use record::{RejectReason, Resilience, RungAttempt, RungOutcome, SkipReason};

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::api::report::Report;
use crate::api::solver::Solver;
use crate::bnb::BnbConfig;
use crate::failpoint;

use budget::{BudgetClock, MAX_RETRIES};
use ladder::{RUNG_CERTIFIED, RUNG_FIRST_FIT, RUNG_PIPELINE, RUNG_TRIVIAL};

/// The share of the deadline budget the certified rung's search may
/// spend; the other rungs run until they finish.
const CERTIFIED_SHARE: f64 = 0.5;

/// The degradation-ladder solver: wrap a built [`Solver`] once,
/// [`solve`](Self::solve) many times; every solve returns a valid
/// strictly balanced coloring with a [`Resilience`] record, no matter
/// what fails above the floor. See the [module docs](self).
#[derive(Debug)]
pub struct ResilientSolver<'i> {
    solver: Solver<'i>,
    budget: DeadlineBudget,
    bnb: BnbConfig,
}

impl<'i> ResilientSolver<'i> {
    /// The ladder over `solver`, with no deadline and the default
    /// [`BnbConfig`]. Its instance, `k` and pipeline configuration are
    /// the solver's, and so is its splitter: the solver rungs run it.
    pub fn new(solver: Solver<'i>) -> Self {
        ResilientSolver {
            solver,
            budget: DeadlineBudget::default(),
            bnb: BnbConfig::default(),
        }
    }

    /// The per-call deadline budget.
    pub fn budget(mut self, budget: DeadlineBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Budgets of the certified rung's branch-and-bound search; its
    /// `time_budget` is additionally capped by the rung's deadline slice.
    pub fn bnb(mut self, cfg: BnbConfig) -> Self {
        self.bnb = cfg;
        self
    }

    /// The solver the solver rungs run; it answers the ladder's
    /// [`instance`](Solver::instance), [`k`](Solver::k) and `p`
    /// ([`config`](Solver::config)).
    pub fn solver(&self) -> &Solver<'i> {
        &self.solver
    }

    /// Run one rung above the floor once (inside the caller's unwind
    /// boundary).
    fn run_rung(&self, rung: &str, clock: &BudgetClock) -> Report {
        match rung {
            RUNG_CERTIFIED => {
                let mut bnb = self.bnb;
                if let Some(slice) = clock.slice(CERTIFIED_SHARE) {
                    bnb.time_budget = Some(bnb.time_budget.map_or(slice, |t| t.min(slice)));
                }
                self.solver.solve_anytime(&bnb)
            }
            RUNG_PIPELINE => self.solver.solve(),
            _ => {
                let (inst, k) = (self.solver.instance(), self.solver.k());
                let chi = ladder::first_fit_coloring(inst, k);
                Report::of(inst, self.solver.config().p, RUNG_FIRST_FIT, chi)
            }
        }
    }

    /// Run the degradation ladder. Total: always returns a strictly
    /// balanced coloring with [`Report::resilience`] populated; the
    /// certified gap of the served rung is filled in (the certified
    /// rung's own gap, or the polynomial static stack's for lower rungs).
    pub fn solve(&self) -> Report {
        let clock = BudgetClock::start(self.budget.total);
        let faults_before = failpoint::injection_count();
        let (inst, k) = (self.solver.instance(), self.solver.k());

        // The floor is computed up front: it is the validation reference
        // for every rung and the answer of last resort.
        let floor_chi = ladder::lpt_coloring(inst, k);
        let floor_cost = floor_chi.max_boundary_cost(inst.graph(), inst.costs());

        let mut attempts: Vec<RungAttempt> = Vec::new();
        for rung in [RUNG_CERTIFIED, RUNG_PIPELINE, RUNG_FIRST_FIT] {
            let rung_start = clock.elapsed();
            if clock.expired() {
                attempts.push(RungAttempt {
                    rung: rung.to_owned(),
                    tries: 0,
                    outcome: RungOutcome::Skipped(SkipReason::DeadlineExhausted),
                    millis: 0.0,
                });
                continue;
            }

            let mut tries = 0u32;
            let (outcome, served) = loop {
                tries += 1;
                // lint: allow(catch-unwind) — the rung boundary of the
                // degradation ladder: a panicking rung must degrade the
                // answer, not take down the serve path. Scratch epochs
                // roll back via Drop; the solver's splitter and π are
                // once-cells whose builds host no failpoint, so after
                // an unwind each is complete or still empty; a caller's
                // splitter is reached only through `&self` under its
                // `Sync` bound, so a panic inside it can at worst fail
                // later rungs, and the floor still serves.
                match catch_unwind(AssertUnwindSafe(|| self.run_rung(rung, &clock))) {
                    Ok(report) => match ladder::validate(inst, k, &report.coloring, floor_cost) {
                        Ok(_) => break (RungOutcome::Served, Some(report)),
                        Err(reason) => break (RungOutcome::Rejected(reason), None),
                    },
                    // Injected transient faults unwind through infallible
                    // code; classify and retry them.
                    Err(payload)
                        if tries <= MAX_RETRIES
                            && failpoint::injected(payload.as_ref())
                                .is_some_and(|inj| inj.transient) =>
                    {
                        clock.backoff(tries)
                    }
                    Err(payload) => {
                        let message = failpoint::panic_message(payload.as_ref());
                        break (RungOutcome::Panicked(message), None);
                    }
                }
            };
            attempts.push(RungAttempt {
                rung: rung.to_owned(),
                tries,
                outcome,
                millis: (clock.elapsed() - rung_start).as_secs_f64() * 1e3,
            });
            if let Some(report) = served {
                return self.finish(report, attempts, &clock, floor_cost, faults_before);
            }
        }

        // The floor: precomputed, validated by construction, never skipped.
        attempts.push(RungAttempt {
            rung: RUNG_TRIVIAL.to_owned(),
            tries: 1,
            outcome: RungOutcome::Served,
            millis: 0.0,
        });
        let report = Report::of(inst, self.solver.config().p, RUNG_TRIVIAL, floor_chi);
        self.finish(report, attempts, &clock, floor_cost, faults_before)
    }

    /// Assemble the served report: the serving rung and its index are
    /// the last attempt's. The certified rung brought its own gap; every
    /// lower rung gets the polynomial static stack's bound paired with its
    /// achieved cost.
    fn finish(
        &self,
        mut report: Report,
        attempts: Vec<RungAttempt>,
        clock: &BudgetClock,
        floor_cost: f64,
        faults_before: usize,
    ) -> Report {
        if report.certified.is_none() {
            let lb =
                crate::lower_bounds::static_lower_bound(self.solver.instance(), self.solver.k());
            report.certified = Some(crate::lower_bounds::CertifiedGap::new(
                lb.value(),
                report.max_boundary,
                lb.winner(),
            ));
        }
        report.resilience = Some(Resilience {
            served_by: attempts
                .last()
                .expect("the serving rung is recorded")
                .rung
                .clone(),
            served_index: attempts.len() - 1,
            degraded: attempts.len() > 1,
            attempts,
            budget_millis: self.budget.total.map(|d| d.as_secs_f64() * 1e3),
            elapsed_millis: clock.elapsed().as_secs_f64() * 1e3,
            floor_cost,
            faults_observed: failpoint::injection_count().saturating_sub(faults_before) as u64,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::instance::Instance;
    use crate::coarsen::CoarsenParams;
    use crate::pipeline::{CoarsenConfig, PipelineConfig};
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::recognize::recognition_count;

    /// The ladder's solver builds its splitter on first use: a cascade
    /// solve recognizes the coarse graph only and leaves the host
    /// undetected.
    #[test]
    fn cascade_rung_leaves_the_host_undetected() {
        let lattice = GridGraph::lattice(&[64, 64]);
        let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
        let weights = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
        let inst = Instance::new(lattice.graph, vec![1.0; m], weights).unwrap();
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
        let solver = Solver::for_instance(&inst)
            .classes(4)
            .config(cfg)
            .build()
            .unwrap();
        let ladder = ResilientSolver::new(solver);
        let before = recognition_count();
        let report = ladder.solver().solve();
        assert!(report.is_strictly_balanced());
        assert_eq!(recognition_count(), before + 1, "the coarse graph only");
        assert!(format!("{inst:?}").contains("undetected"), "{inst:?}");
    }
}
