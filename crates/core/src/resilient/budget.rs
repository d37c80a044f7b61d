//! The deadline budget and transient-retry backoff of the resilient
//! ladder.
//!
//! The ladder caps the certified rung's search at half of a
//! [`DeadlineBudget`]'s total; every other rung runs until it finishes.
//! The half is a soft partition of one hard wall: the slice is always
//! capped by the time actually remaining, and once the wall is crossed
//! every remaining non-trivial rung is skipped — only the trivial floor
//! rung, which is O(n log n) and panic-free, runs unconditionally.
//! Overshoot is therefore bounded by the last rung's single-step
//! latency, not by the ladder's length.
//!
//! A rung whose injected transient fault unwinds is retried up to
//! `MAX_RETRIES` times. The backoff before each retry doubles from
//! 1 ms and is capped by the time remaining, so retrying can never be
//! the reason a deadline is blown.

use std::time::Duration;
// lint: allow(nondeterminism) — import only; the one `Instant::now` call
// site below carries its own audited pragma.
use std::time::Instant;

/// Wall-clock budget for one resilient solve. Half of it is offered to
/// the certified (branch-and-bound) rung as its `BnbConfig::time_budget`.
/// The default has no deadline: every rung runs under its own node
/// budgets.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeadlineBudget {
    /// Total wall-clock budget (`None` = unlimited; rungs then run under
    /// their node budgets only, and nothing is ever skipped for time).
    pub total: Option<Duration>,
}

impl DeadlineBudget {
    /// A hard wall-clock budget.
    pub fn with_total(total: Duration) -> Self {
        DeadlineBudget { total: Some(total) }
    }
}

/// Retries per rung after its first try, for injected transient faults.
pub(super) const MAX_RETRIES: u32 = 2;

/// The backoff before retry number `retry` (1-based): 1 ms, doubling,
/// saturating.
fn backoff_for(retry: u32) -> Duration {
    Duration::from_millis(1).saturating_mul(
        1u32.checked_shl(retry.saturating_sub(1))
            .unwrap_or(u32::MAX),
    )
}

/// The running clock of one resilient solve: started once, consulted at
/// every rung boundary.
pub(crate) struct BudgetClock {
    // lint: allow(nondeterminism) — the deadline clock is the caller's
    // explicit wall-clock budget; it gates which rung serves, never the
    // content of any rung's coloring.
    start: Instant,
    total: Option<Duration>,
}

impl BudgetClock {
    pub(crate) fn start(total: Option<Duration>) -> Self {
        BudgetClock {
            // lint: allow(nondeterminism) — the deadline clock is the
            // caller's explicit wall-clock budget; it decides which rung
            // serves (reported in the Resilience record), never the
            // content of any rung's coloring.
            start: Instant::now(),
            total,
        }
    }

    pub(crate) fn elapsed(&self) -> Duration {
        // lint: allow(nondeterminism) — deadline clock, see `start`.
        Instant::now() - self.start
    }

    /// Time left before the wall (`None` = unlimited).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.total.map(|t| t.saturating_sub(self.elapsed()))
    }

    pub(crate) fn expired(&self) -> bool {
        self.remaining().is_some_and(|r| r.is_zero())
    }

    /// Sleep the backoff before retry number `retry`, capped by the time
    /// remaining.
    pub(crate) fn backoff(&self, retry: u32) {
        let mut wait = backoff_for(retry);
        if let Some(remaining) = self.remaining() {
            wait = wait.min(remaining);
        }
        if wait > Duration::ZERO {
            std::thread::sleep(wait);
        }
    }

    /// The slice a rung with budget share `share` may spend now:
    /// `min(total·share, remaining)`. `None` = unlimited.
    pub(crate) fn slice(&self, share: f64) -> Option<Duration> {
        let total = self.total?;
        let share = total.mul_f64(share.clamp(0.0, 1.0));
        Some(share.min(self.remaining().unwrap_or(share)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_capped_by_remaining_time() {
        let clock = BudgetClock::start(Some(Duration::from_secs(10)));
        let slice = clock.slice(0.5).unwrap();
        assert!(slice <= Duration::from_secs(5));
        assert!(
            slice > Duration::from_secs(4),
            "fresh clock: near-full share"
        );
        assert!(!clock.expired());
        assert!(BudgetClock::start(None).slice(0.5).is_none());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let clock = BudgetClock::start(Some(Duration::ZERO));
        assert!(clock.expired());
        assert_eq!(clock.remaining(), Some(Duration::ZERO));
        assert_eq!(clock.slice(0.9), Some(Duration::ZERO));
    }

    #[test]
    fn unlimited_clock_never_expires() {
        let clock = BudgetClock::start(None);
        assert!(!clock.expired());
        assert_eq!(clock.remaining(), None);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_for(1), Duration::from_millis(1));
        assert_eq!(backoff_for(2), Duration::from_millis(2));
        assert_eq!(backoff_for(3), Duration::from_millis(4));
        // Deep retries must not overflow.
        assert!(backoff_for(u32::MAX) >= backoff_for(3));
    }
}
