//! Request-level resilience knobs: timeouts, retries, and hedging.
//!
//! This module is pure configuration + arithmetic — it owns no clock and
//! spawns nothing. The chaos layer (`attacc-chaos`) reads a
//! [`RetryPolicy`] and arms deterministic timer events from it; a real
//! serving front door would read the same policy and arm wall-clock
//! timers. Keeping the policy here (rather than in the chaos crate) means
//! the single-node serving stack and the cluster fault layer share one
//! vocabulary for "how long do we wait, and what do we do then".

/// Per-request timeout / retry / hedging policy.
///
/// Semantics (implemented by the dispatch layer, e.g. `attacc-chaos`):
///
/// - A dispatched request that has not produced its first token within
///   `timeout_s + backoff_s(attempt)` of dispatch is re-dispatched, up to
///   `max_retries` times. The backoff term grows exponentially with the
///   attempt number and is capped, so a request stuck behind a crashed
///   node retries quickly at first and then stops hammering the fleet.
/// - If `hedge_after_s` is set, a *duplicate* dispatch is issued that many
///   seconds after the first (attempt 1) dispatch unless the first token
///   has already arrived; whichever copy finishes first wins and the
///   loser's work is wasted (never cancelled — the model is pessimistic
///   about cancellation plumbing).
/// - `jitter_frac` spreads retry timers by a deterministic, seeded
///   fraction of the backoff so synchronized failures don't re-dispatch in
///   lock-step. Zero disables jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Seconds from dispatch to declaring an attempt lost (before
    /// backoff). Non-finite or non-positive disables timeouts entirely.
    pub timeout_s: f64,
    /// Maximum re-dispatches per request (0 = give up after the first
    /// attempt times out).
    pub max_retries: u32,
    /// Base of the exponential backoff added to the timeout on retry `k`:
    /// `backoff_base_s * 2^(k-1)`, capped at `backoff_cap_s`.
    pub backoff_base_s: f64,
    /// Upper bound on the backoff term.
    pub backoff_cap_s: f64,
    /// Fraction of the backoff applied as seeded jitter (`0.0..=1.0`).
    pub jitter_frac: f64,
    /// Seconds after the first dispatch at which a hedged duplicate is
    /// issued, if the first token has not yet arrived. `None` disables
    /// hedging.
    pub hedge_after_s: Option<f64>,
}

impl RetryPolicy {
    /// No timeouts, no retries, no hedging — the do-nothing policy under
    /// which a dispatch layer must behave exactly as if no policy existed.
    #[must_use]
    pub fn off() -> RetryPolicy {
        RetryPolicy {
            timeout_s: f64::INFINITY,
            max_retries: 0,
            backoff_base_s: 0.0,
            backoff_cap_s: 0.0,
            jitter_frac: 0.0,
            hedge_after_s: None,
        }
    }

    /// A production-shaped interactive policy: 10 s first-token timeout,
    /// 3 retries backing off 1 s → 2 s → 4 s (capped at 30 s), 10 %
    /// jitter, no hedging.
    #[must_use]
    pub fn interactive() -> RetryPolicy {
        RetryPolicy {
            timeout_s: 10.0,
            max_retries: 3,
            backoff_base_s: 1.0,
            backoff_cap_s: 30.0,
            jitter_frac: 0.1,
            hedge_after_s: None,
        }
    }

    /// [`RetryPolicy::interactive`] plus a hedged duplicate dispatch after
    /// `hedge_after_s` seconds — the tail-cutting configuration.
    #[must_use]
    pub fn hedged(hedge_after_s: f64) -> RetryPolicy {
        RetryPolicy { hedge_after_s: Some(hedge_after_s), ..RetryPolicy::interactive() }
    }

    /// Whether timeouts are armed at all.
    #[must_use]
    pub fn timeouts_enabled(&self) -> bool {
        self.timeout_s.is_finite() && self.timeout_s > 0.0
    }

    /// The exponential backoff term (before jitter) added to the timeout
    /// when arming the timer for dispatch attempt `attempt` (1-based; the
    /// first dispatch is attempt 1 and carries no backoff).
    #[must_use]
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt <= 1 || self.backoff_base_s <= 0.0 {
            return 0.0;
        }
        // Clamp the exponent: past 2^60 doublings the cap has long since
        // taken over, and powi stays finite.
        let doublings = i32::try_from(attempt.saturating_sub(2).min(60)).expect("clamped");
        (self.backoff_base_s * 2.0f64.powi(doublings)).min(self.backoff_cap_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_policy_arms_nothing() {
        let p = RetryPolicy::off();
        assert!(!p.timeouts_enabled());
        assert_eq!(p.max_retries, 0);
        assert!(p.hedge_after_s.is_none());
        assert_eq!(p.backoff_s(1), 0.0);
        assert_eq!(p.backoff_s(5), 0.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::interactive();
        assert_eq!(p.backoff_s(1), 0.0, "first dispatch has no backoff");
        assert_eq!(p.backoff_s(2), 1.0);
        assert_eq!(p.backoff_s(3), 2.0);
        assert_eq!(p.backoff_s(4), 4.0);
        assert_eq!(p.backoff_s(8), 30.0, "capped");
        assert_eq!(p.backoff_s(u32::MAX), 30.0, "no overflow at absurd attempts");
    }

    #[test]
    fn hedged_preset_layers_on_interactive() {
        let p = RetryPolicy::hedged(0.5);
        assert_eq!(p.hedge_after_s, Some(0.5));
        assert_eq!(p.timeout_s, RetryPolicy::interactive().timeout_s);
    }
}
