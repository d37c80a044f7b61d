//! The [`Resilience`] record: a machine-readable account of how a
//! resilient solve was served — which rung answered, what happened to
//! every rung above it, and how the deadline budget was spent.
//!
//! The record is evidence, not telemetry: the chaos suite asserts its
//! invariants (the served rung's attempt is marked [`RungOutcome::Served`],
//! every earlier rung explains itself, the floor cost bounds the served
//! cost), and operators read it to answer "why did this request degrade?".

/// Why a rung was skipped without being attempted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The deadline budget was already exhausted when the ladder reached
    /// this rung; only the trivial floor rung runs past the deadline.
    DeadlineExhausted,
}

/// Why a rung's *output* was refused even though it ran to completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// The coloring is not a `k`-coloring of the instance's vertices.
    WrongShape {
        /// The coloring's vertex count.
        vertices: usize,
        /// The coloring's class count.
        classes: usize,
    },
    /// The coloring left vertices uncolored.
    NotTotal,
    /// The coloring violates strict balance (eq. (1)).
    NotStrict {
        /// The strict-balance defect (positive ⟺ violated).
        defect: f64,
    },
    /// The coloring is valid but worse than the trivial floor rung —
    /// serving it would break monotone degradation.
    WorseThanFloor {
        /// The rung's max boundary cost.
        cost: f64,
        /// The floor rung's max boundary cost.
        floor: f64,
    },
}

/// What happened to one rung of the ladder.
#[derive(Clone, Debug, PartialEq)]
pub enum RungOutcome {
    /// This rung's output was validated and served.
    Served,
    /// The rung was not attempted.
    Skipped(SkipReason),
    /// The rung panicked (after exhausting any transient retries) and the
    /// unwind was caught at the rung boundary; the message is the
    /// rendered payload.
    Panicked(String),
    /// The rung completed but its output failed validation.
    Rejected(RejectReason),
}

/// One rung's entry in the [`Resilience`] record.
#[derive(Clone, Debug, PartialEq)]
pub struct RungAttempt {
    /// Rung name: `"certified"`, `"pipeline"`, `"first-fit"`, or
    /// `"trivial"`.
    pub rung: String,
    /// How many times the rung was tried (> 1 only after injected
    /// transient faults were retried).
    pub tries: u32,
    /// The final outcome.
    pub outcome: RungOutcome,
    /// Wall-clock milliseconds this rung consumed (all tries + backoff).
    pub millis: f64,
}

/// How a resilient solve was served, attached to
/// [`Report::resilience`](crate::api::Report::resilience).
#[derive(Clone, Debug, PartialEq)]
pub struct Resilience {
    /// Name of the rung whose output was served.
    pub served_by: String,
    /// Index of that rung in the ladder (0 = certified, 3 = trivial).
    pub served_index: usize,
    /// Whether a rung below the certified one served — `false` exactly
    /// when the certified rung did.
    pub degraded: bool,
    /// Per-rung account, in ladder order, up to and including the rung
    /// that served.
    pub attempts: Vec<RungAttempt>,
    /// The configured deadline budget in milliseconds (`None` = unlimited).
    pub budget_millis: Option<f64>,
    /// Total wall-clock milliseconds of the resilient solve.
    pub elapsed_millis: f64,
    /// The trivial floor rung's max boundary cost — the monotonicity
    /// floor every served answer is validated against.
    pub floor_cost: f64,
    /// Faults injected by an armed [`failpoint`](crate::failpoint)
    /// schedule during this solve (0 in production, where nothing is
    /// ever armed).
    pub faults_observed: u64,
}

impl Resilience {
    /// The attempt entry for `rung`, if the ladder reached it.
    pub fn attempt_for(&self, rung: &str) -> Option<&RungAttempt> {
        self.attempts.iter().find(|a| a.rung == rung)
    }

    /// Whether the serve overshot the deadline budget by more than
    /// `allowance_millis` (always `false` without a budget). The chaos
    /// suite pins overshoot with this.
    pub fn overshot_by_more_than(&self, allowance_millis: f64) -> bool {
        match self.budget_millis {
            Some(budget) => self.elapsed_millis > budget + allowance_millis,
            None => false,
        }
    }
}
