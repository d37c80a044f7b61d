//! The resilient solving harness: a degradation ladder that always
//! returns a valid answer within a deadline.
//!
//! [`ResilientSolver::new`] wraps one built [`Solver`] in a ladder of
//! rungs, best first:
//!
//! 1. **certified** — [`Solver::solve_anytime`]: the Theorem 4 pipeline
//!    plus budgeted branch-and-bound refinement and a certified gap.
//! 2. **pipeline** — plain [`Solver::solve`].
//! 3. *(custom rungs, if registered via [`ResilientSolver::rung`])*
//! 4. **first-fit** — id-order greedy-lightest (strict, locality-aware).
//! 5. **trivial** — LPT greedy-lightest: the panic-free floor.
//!
//! Both solver rungs, every retry and every later solve run that one
//! solver, with whatever splitter it was built with, so its splitter and
//! `π` are built once per ladder.
//!
//! Each rung runs inside a `catch_unwind` boundary with a slice of the
//! per-call [`DeadlineBudget`]; a rung that panics, errors, blows its
//! slice, or produces an output that fails validation (not a `k`-coloring
//! of the instance, not total, not strictly balanced, or worse than the
//! floor) is recorded and the
//! ladder falls through to the next rung. Transient failures
//! ([`SolveError::Transient`]) are retried under the bounded
//! [`RetryPolicy`] before the rung is declared failed. The outcome of
//! every rung — and which one finally served — is attached to the
//! returned [`Report`] as a [`Resilience`] record.
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

pub use budget::{DeadlineBudget, RetryPolicy};
pub use record::{RejectReason, Resilience, RungAttempt, RungOutcome, SkipReason};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use mmb_graph::Coloring;

use crate::api::error::SolveError;
use crate::api::partitioner::Partitioner;
use crate::api::report::Report;
use crate::api::solver::Solver;
use crate::bnb::BnbConfig;
use crate::failpoint;

use budget::BudgetClock;
use ladder::{RUNG_CERTIFIED, RUNG_FIRST_FIT, RUNG_PIPELINE, RUNG_TRIVIAL};

/// The share of the deadline budget the certified rung's search may
/// spend; the other rungs run until they finish.
const CERTIFIED_SHARE: f64 = 0.5;

/// Ladder-level configuration of a [`ResilientSolver`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResilientConfig {
    /// Per-call wall-clock budget, split across rungs by shares.
    pub budget: DeadlineBudget,
    /// Bounded retry-with-backoff for transient rung failures.
    pub retry: RetryPolicy,
    /// Budgets of the certified rung's branch-and-bound search; its
    /// `time_budget` is additionally capped by the rung's deadline slice.
    pub bnb: BnbConfig,
    /// Whether to attempt the certified rung at all (it is the most
    /// expensive rung; serving paths that only want the pipeline's
    /// guarantee start the ladder one rung down).
    pub certified: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            budget: DeadlineBudget::default(),
            retry: RetryPolicy::default(),
            bnb: BnbConfig::default(),
            certified: true,
        }
    }
}

/// What a rung produced on one try, before validation.
enum RungProduct {
    /// A full report (solver rungs).
    Report(Box<Report>),
    /// A bare coloring (custom and greedy rungs); its [`Report::of`] is
    /// taken only if it validates.
    Coloring(Coloring),
}

/// The degradation-ladder solver: wrap a built [`Solver`] once,
/// [`solve`](Self::solve) many times; every solve returns a valid
/// strictly balanced coloring with a [`Resilience`] record, no matter
/// what fails above the floor. See the [module docs](self).
pub struct ResilientSolver<'i> {
    solver: Solver<'i>,
    cfg: ResilientConfig,
    custom: Vec<(String, Box<dyn Partitioner + 'i>)>,
}

impl<'i> ResilientSolver<'i> {
    /// The ladder over `solver`, with the default [`ResilientConfig`] and
    /// no custom rungs. Its instance, `k` and pipeline configuration are
    /// the solver's, and so is its splitter: the solver rungs run it.
    pub fn new(solver: Solver<'i>) -> Self {
        ResilientSolver {
            solver,
            cfg: ResilientConfig::default(),
            custom: Vec::new(),
        }
    }

    /// The per-call deadline budget.
    pub fn budget(mut self, budget: DeadlineBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// The transient-failure retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Budgets for the certified rung's branch-and-bound search.
    pub fn bnb(mut self, cfg: BnbConfig) -> Self {
        self.cfg.bnb = cfg;
        self
    }

    /// Enable or disable the certified rung (default enabled).
    pub fn certified(mut self, on: bool) -> Self {
        self.cfg.certified = on;
        self
    }

    /// Register a custom rung between the pipeline and the greedy floor
    /// rungs. Custom rungs run under the same isolation, retry and
    /// validation machinery as the built-in ones — a panicking or
    /// non-strict partitioner degrades the ladder instead of crashing it.
    pub fn rung(mut self, name: impl Into<String>, p: Box<dyn Partitioner + 'i>) -> Self {
        self.custom.push((name.into(), p));
        self
    }

    /// The solver the solver rungs run; it answers the ladder's
    /// [`instance`](Solver::instance), [`k`](Solver::k) and `p`
    /// ([`config`](Solver::config)).
    pub fn solver(&self) -> &Solver<'i> {
        &self.solver
    }

    /// The ladder configuration.
    pub fn config(&self) -> &ResilientConfig {
        &self.cfg
    }

    /// Run one rung once (inside the caller's unwind boundary).
    fn run_rung(&self, rung: usize, clock: &BudgetClock) -> Result<RungProduct, SolveError> {
        match rung {
            0 => {
                let mut bnb = self.cfg.bnb;
                if let Some(slice) = clock.slice(CERTIFIED_SHARE) {
                    bnb.time_budget = Some(bnb.time_budget.map_or(slice, |t| t.min(slice)));
                }
                Ok(RungProduct::Report(Box::new(
                    self.solver.solve_anytime(&bnb),
                )))
            }
            1 => Ok(RungProduct::Report(Box::new(self.solver.solve()))),
            i => {
                let (_, p) = &self.custom[i - 2];
                let (inst, k) = (self.solver.instance(), self.solver.k());
                Ok(RungProduct::Coloring(p.partition(inst, k)?))
            }
        }
    }

    /// Run the degradation ladder. Total: always returns a strictly
    /// balanced coloring with [`Report::resilience`] populated; the
    /// certified gap of the served rung is filled in (the certified
    /// rung's own gap, or the polynomial static stack's for lower rungs).
    pub fn solve(&self) -> Report {
        let clock = BudgetClock::start(self.cfg.budget.total);
        let faults_before = failpoint::injection_count();
        let (inst, k, p) = (
            self.solver.instance(),
            self.solver.k(),
            self.solver.config().p,
        );

        // The floor is computed up front: it is the validation reference
        // for every rung and the answer of last resort.
        let floor_chi = ladder::lpt_coloring(inst, k);
        let floor_cost = floor_chi.max_boundary_cost(inst.graph(), inst.costs());

        let mut attempts: Vec<RungAttempt> = Vec::new();
        let rung_count = 2 + self.custom.len() + 1; // certified, pipeline, custom…, first-fit
        for rung_idx in 0..rung_count {
            let name: String = match rung_idx {
                0 => RUNG_CERTIFIED.to_owned(),
                1 => RUNG_PIPELINE.to_owned(),
                i if i - 2 < self.custom.len() => self.custom[i - 2].0.clone(),
                _ => RUNG_FIRST_FIT.to_owned(),
            };
            if rung_idx == 0 && !self.cfg.certified {
                attempts.push(RungAttempt {
                    rung: name,
                    tries: 0,
                    outcome: RungOutcome::Skipped(SkipReason::Disabled),
                    millis: 0.0,
                });
                continue;
            }
            let rung_start = clock.elapsed();
            if clock.expired() {
                attempts.push(RungAttempt {
                    rung: name,
                    tries: 0,
                    outcome: RungOutcome::Skipped(SkipReason::DeadlineExhausted),
                    millis: 0.0,
                });
                continue;
            }

            let mut tries = 0u32;
            let outcome = loop {
                tries += 1;
                let is_first_fit = rung_idx == rung_count - 1;
                let product = if is_first_fit {
                    // The greedy rung is pure; run it directly (still
                    // validated like everything else).
                    Ok(Ok(RungProduct::Coloring(ladder::first_fit_coloring(
                        inst, k,
                    ))))
                } else {
                    // lint: allow(catch-unwind) — the rung boundary of the
                    // degradation ladder: a panicking rung must degrade the
                    // answer, not take down the serve path. Scratch epochs
                    // roll back via Drop; the solver's splitter and π are
                    // once-cells whose builds host no failpoint, so after
                    // an unwind each is complete or still empty; a caller's
                    // splitter is reached only through `&self` under its
                    // `Sync` bound, so a panic inside it can at worst fail
                    // later rungs, and the floor still serves.
                    catch_unwind(AssertUnwindSafe(|| self.run_rung(rung_idx, &clock)))
                };
                match product {
                    Ok(Ok(product)) => {
                        let chi = match &product {
                            RungProduct::Report(r) => &r.coloring,
                            RungProduct::Coloring(c) => c,
                        };
                        match ladder::validate(inst, k, chi, floor_cost) {
                            Ok(_cost) => {
                                let report = match product {
                                    RungProduct::Report(r) => *r,
                                    RungProduct::Coloring(c) => Report::of(inst, p, &name, c),
                                };
                                attempts.push(RungAttempt {
                                    rung: name,
                                    tries,
                                    outcome: RungOutcome::Served,
                                    millis: (clock.elapsed() - rung_start).as_secs_f64() * 1e3,
                                });
                                return self.finish(
                                    report,
                                    attempts,
                                    &clock,
                                    floor_cost,
                                    faults_before,
                                );
                            }
                            Err(reason) => break RungOutcome::Rejected(reason),
                        }
                    }
                    Ok(Err(SolveError::Transient { .. }))
                        if tries <= self.cfg.retry.max_retries =>
                    {
                        self.backoff(tries, &clock);
                        continue;
                    }
                    Ok(Err(e)) => break RungOutcome::Failed(e.to_string()),
                    Err(payload) => {
                        // Injected transient faults unwind through
                        // infallible code; classify and retry them like
                        // typed transients.
                        if failpoint::injected(payload.as_ref()).is_some_and(|inj| inj.transient)
                            && tries <= self.cfg.retry.max_retries
                        {
                            self.backoff(tries, &clock);
                            continue;
                        }
                        break RungOutcome::Panicked(failpoint::panic_message(payload.as_ref()));
                    }
                }
            };
            attempts.push(RungAttempt {
                rung: name,
                tries,
                outcome,
                millis: (clock.elapsed() - rung_start).as_secs_f64() * 1e3,
            });
        }

        // The floor: precomputed, validated by construction, never skipped.
        attempts.push(RungAttempt {
            rung: RUNG_TRIVIAL.to_owned(),
            tries: 1,
            outcome: RungOutcome::Served,
            millis: 0.0,
        });
        let report = Report::of(inst, p, RUNG_TRIVIAL, floor_chi);
        self.finish(report, attempts, &clock, floor_cost, faults_before)
    }

    /// Sleep the doubling backoff before retry number `retry`, capped by
    /// the time remaining so retrying can never blow the deadline.
    fn backoff(&self, retry: u32, clock: &BudgetClock) {
        let mut wait = self.cfg.retry.backoff_for(retry);
        if let Some(remaining) = clock.remaining() {
            wait = wait.min(remaining);
        }
        if wait > Duration::ZERO {
            std::thread::sleep(wait);
        }
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
        let degraded = attempts
            .iter()
            .take(attempts.len().saturating_sub(1))
            .any(|a| !matches!(a.outcome, RungOutcome::Skipped(SkipReason::Disabled)));
        report.resilience = Some(Resilience {
            served_by: attempts
                .last()
                .expect("the serving rung is recorded")
                .rung
                .clone(),
            served_index: attempts.len() - 1,
            degraded,
            attempts,
            budget_millis: self.cfg.budget.total.map(|d| d.as_secs_f64() * 1e3),
            elapsed_millis: clock.elapsed().as_secs_f64() * 1e3,
            floor_cost,
            faults_observed: failpoint::injection_count().saturating_sub(faults_before) as u64,
        });
        report
    }
}

impl std::fmt::Debug for ResilientSolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSolver")
            .field("solver", &self.solver)
            .field("budget", &self.cfg.budget)
            .field("certified", &self.cfg.certified)
            .field("custom_rungs", &self.custom.len())
            .finish()
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
