//! Deadline budgets and retry policy for the resilient ladder.
//!
//! A [`DeadlineBudget`] is split across rungs by *shares*: the certified
//! rung may spend `certified_share` of the total, the pipeline rung
//! `pipeline_share`, and whatever is left belongs to the cheap rungs
//! (which are effectively instant). Shares are soft partitions of one
//! hard wall: a rung's slice is always capped by the time actually
//! remaining, and once the wall is crossed every remaining non-trivial
//! rung is skipped — only the trivial floor rung, which is O(n log n)
//! and panic-free, runs unconditionally. Overshoot is therefore bounded
//! by the last rung's single-step latency, not by the ladder's length.

use std::time::{Duration, Instant};

/// Wall-clock budget for one resilient solve, split across rungs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeadlineBudget {
    /// Total wall-clock budget (`None` = unlimited; rungs then run under
    /// their node budgets only, and nothing is ever skipped for time).
    pub total: Option<Duration>,
    /// Fraction of `total` offered to the certified (branch-and-bound)
    /// rung as its `BnbConfig::time_budget`.
    pub certified_share: f64,
    /// Fraction of `total` offered to the plain pipeline rung.
    pub pipeline_share: f64,
}

impl Default for DeadlineBudget {
    fn default() -> Self {
        DeadlineBudget {
            total: None,
            certified_share: 0.5,
            pipeline_share: 0.3,
        }
    }
}

impl DeadlineBudget {
    /// No deadline: every rung runs under its own node budgets.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A hard wall-clock budget with the default share split.
    pub fn with_total(total: Duration) -> Self {
        DeadlineBudget {
            total: Some(total),
            ..Self::default()
        }
    }
}

/// Bounded retry-with-backoff for rungs that report
/// [`SolveError::Transient`](crate::api::SolveError::Transient) failures.
/// The backoff doubles per retry and every sleep is capped by the time
/// remaining in the deadline budget, so retrying can never be the reason
/// a deadline is blown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per rung after the first try (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// Never retry.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (1-based): doubling,
    /// saturating.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        self.backoff.saturating_mul(
            1u32.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
    }
}

/// The running clock of one resilient solve: started once, consulted at
/// every rung boundary.
pub(crate) struct BudgetClock {
    // The deadline clock is the caller's explicit wall-clock budget; it
    // gates which rung serves, never the content of any rung's coloring.
    start: Instant,
    total: Option<Duration>,
}

impl BudgetClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline clock is the caller's explicit wall-clock budget; it decides which rung serves (reported in the Resilience record), never the content of any rung's coloring"
    )]
    pub(crate) fn start(total: Option<Duration>) -> Self {
        BudgetClock {
            start: Instant::now(),
            total,
        }
    }

    #[expect(clippy::disallowed_methods, reason = "deadline clock, see `start`")]
    pub(crate) fn elapsed(&self) -> Duration {
        Instant::now() - self.start
    }

    /// Time left before the wall (`None` = unlimited).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.total.map(|t| t.saturating_sub(self.elapsed()))
    }

    pub(crate) fn expired(&self) -> bool {
        self.remaining().is_some_and(|r| r.is_zero())
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
        let retry = RetryPolicy {
            max_retries: 8,
            backoff: Duration::from_millis(2),
        };
        assert_eq!(retry.backoff_for(1), Duration::from_millis(2));
        assert_eq!(retry.backoff_for(2), Duration::from_millis(4));
        assert_eq!(retry.backoff_for(3), Duration::from_millis(8));
        // Deep retries must not overflow.
        assert!(retry.backoff_for(u32::MAX) >= retry.backoff_for(3));
        assert_eq!(RetryPolicy::none().max_retries, 0);
    }
}
