//! Failure policies the serving loop reads: what the front door does
//! about failure ([`ResiliencePolicy`]) and what the fleet sacrifices to
//! stay up when capacity is lost ([`DegradePolicy`]).
//!
//! The resilience policy has three independent axes — request-level
//! retry/hedging (an [`attacc_serving::RetryPolicy`]), health-aware
//! routing (an EWMA latency signal that masks down and degraded nodes out
//! of the routing decision), and the recovery mode for work displaced by
//! a crash (re-prefill from scratch vs. re-migrating a surviving KV
//! image). The `off` policies disable every lever and are the
//! bit-exactness anchors: under them a zero-fault run must equal the
//! fault-free run exactly.

use attacc_serving::RetryPolicy;

/// How a request displaced by a node crash gets its context back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Re-dispatch cold: the new node recomputes the whole context in its
    /// Sum stage. Pays compute, no extra wire time.
    #[default]
    Reprefill,
    /// Re-dispatch warm from a surviving KV image (checkpoint / replica
    /// outside the crashed node): the new node skips its Sum stage but
    /// the image pays the interconnect's per-token KV-migration cost.
    KvMigrate,
}

impl RecoveryMode {
    /// Human-readable mode name for tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryMode::Reprefill => "reprefill",
            RecoveryMode::KvMigrate => "kv-migrate",
        }
    }
}

/// Weight of the newest sample in each node's EWMA of per-token round
/// latency, the degraded-node signal (1 would keep the latest sample
/// only).
pub(crate) const HEALTH_EWMA_WEIGHT: f64 = 0.3;

/// EWMA-based node-health signal configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Whether routing masks out down and degraded nodes at all. Off
    /// means the front door is failure-blind (the pessimistic baseline).
    pub enabled: bool,
    /// A node is degraded (and masked out) when its EWMA per-token
    /// latency exceeds this multiple of the healthiest up node's.
    pub degraded_factor: f64,
}

impl HealthConfig {
    /// Failure-blind routing.
    #[must_use]
    pub fn off() -> HealthConfig {
        HealthConfig { enabled: false, degraded_factor: f64::INFINITY }
    }

    /// Health-aware routing: nodes whose smoothed per-token latency is
    /// over 3× the best up node's are excluded.
    #[must_use]
    pub fn aware() -> HealthConfig {
        HealthConfig { enabled: true, degraded_factor: 3.0 }
    }
}

/// The full resilience policy wrapped around the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Per-request timeout / retry / hedging knobs.
    pub retry: RetryPolicy,
    /// Health-aware routing knobs.
    pub health: HealthConfig,
    /// How crash-displaced work recovers its context.
    pub recovery: RecoveryMode,
}

impl ResiliencePolicy {
    /// Everything off: no timers, failure-blind routing, re-prefill
    /// recovery. The zero-fault bit-exactness anchor.
    #[must_use]
    pub fn off() -> ResiliencePolicy {
        ResiliencePolicy {
            retry: RetryPolicy::off(),
            health: HealthConfig::off(),
            recovery: RecoveryMode::Reprefill,
        }
    }

    /// Health-aware routing only: down/degraded nodes are masked out,
    /// but no retries or hedging.
    #[must_use]
    pub fn health_aware() -> ResiliencePolicy {
        ResiliencePolicy { health: HealthConfig::aware(), ..ResiliencePolicy::off() }
    }

    /// Retries + health-aware routing, no hedging.
    #[must_use]
    pub fn retrying() -> ResiliencePolicy {
        ResiliencePolicy {
            retry: RetryPolicy::interactive(),
            health: HealthConfig::aware(),
            recovery: RecoveryMode::Reprefill,
        }
    }

    /// The works: retries, hedged re-dispatch after `hedge_after_s`,
    /// health-aware routing, KV-migration recovery.
    #[must_use]
    pub fn full(hedge_after_s: f64) -> ResiliencePolicy {
        ResiliencePolicy {
            retry: RetryPolicy::hedged(hedge_after_s),
            health: HealthConfig::aware(),
            recovery: RecoveryMode::KvMigrate,
        }
    }

    /// Short policy name for sweep tables.
    #[must_use]
    pub fn name(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.retry.timeouts_enabled() {
            parts.push("retry");
        }
        if self.retry.hedge_after_s.is_some() {
            parts.push("hedge");
        }
        if self.health.enabled {
            parts.push("health");
        }
        if parts.is_empty() {
            return "off".to_string();
        }
        if self.recovery == RecoveryMode::KvMigrate {
            parts.push("kv-migrate");
        }
        parts.join("+")
    }
}

/// Admission-control (load-shedding) knobs for the fleet front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedConfig {
    /// An arrival is rejected outright when the front pool's backlog
    /// (queued + resident requests) per unit of *available* node weight
    /// exceeds this threshold. Shed requests cost nothing downstream but
    /// count against goodput.
    pub max_backlog_per_node: f64,
}

/// Brownout knobs: degrade service instead of collapsing when a large
/// fraction of a pool is down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Brownout activates while any pool's available (up ∧ active)
    /// weight falls below this fraction of its active weight.
    pub below_up_frac: f64,
    /// During brownout, arriving requests have their decode length
    /// shrunk to `max(1, floor(l_out × lout_frac))` — shorter answers,
    /// but answers.
    pub lout_frac: f64,
    /// During brownout, the TTFT SLO applied to arriving requests is
    /// relaxed by this factor (≥ 1) in goodput accounting.
    pub slo_relax: f64,
}

/// Retry-storm guard: caps how fast crash-displaced work is re-dispatched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormGuard {
    /// How many displaced requests per crash re-dispatch immediately.
    pub burst: usize,
    /// Each displaced request beyond `burst` is deferred by this many
    /// seconds times its position past the burst window, spreading the
    /// recovery wave instead of thundering-herding the survivors.
    pub stagger_s: f64,
}

/// Graceful-degradation policy for fleet-scale chaos runs: what the
/// fleet sacrifices — admission, answer length, or recovery haste — to
/// stay up when capacity is lost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradePolicy {
    /// Load shedding at admission, or `None` to admit everything.
    pub shed: Option<ShedConfig>,
    /// Brownout (shrink answers / relax SLO) while capacity is down, or
    /// `None` to serve full answers until the fleet collapses.
    pub brownout: Option<BrownoutConfig>,
    /// Retry-storm guard on crash recovery, or `None` to re-dispatch all
    /// displaced work instantly.
    pub storm_guard: Option<StormGuard>,
}

impl DegradePolicy {
    /// Everything off. The zero-fault bit-exactness anchor: under this
    /// policy the serving loop schedules no extra events and perturbs no
    /// request.
    #[must_use]
    pub fn off() -> DegradePolicy {
        DegradePolicy { shed: None, brownout: None, storm_guard: None }
    }

    /// All three degradation levers with moderate defaults: shed above
    /// `max_backlog_per_node` queued requests per available node, halve
    /// answers at 2× SLO relaxation when under two-thirds of a pool is
    /// up, and stagger recovery beyond a burst of 4 by 50 ms each.
    #[must_use]
    pub fn full(max_backlog_per_node: f64) -> DegradePolicy {
        DegradePolicy {
            shed: Some(ShedConfig { max_backlog_per_node }),
            brownout: Some(BrownoutConfig { below_up_frac: 0.67, lout_frac: 0.5, slo_relax: 2.0 }),
            storm_guard: Some(StormGuard { burst: 4, stagger_s: 0.05 }),
        }
    }

    /// Short policy name for sweep tables.
    #[must_use]
    pub fn name(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.shed.is_some() {
            parts.push("shed");
        }
        if self.brownout.is_some() {
            parts.push("brownout");
        }
        if self.storm_guard.is_some() {
            parts.push("guard");
        }
        if parts.is_empty() {
            return "off".to_string();
        }
        parts.join("+")
    }

    /// Panics if any configured knob is out of range.
    pub fn validate(&self) {
        if let Some(s) = self.shed {
            assert!(
                s.max_backlog_per_node.is_finite() && s.max_backlog_per_node > 0.0,
                "shed threshold must be finite and positive"
            );
        }
        if let Some(b) = self.brownout {
            assert!(
                b.below_up_frac > 0.0 && b.below_up_frac <= 1.0,
                "brownout trigger fraction must be in (0, 1]"
            );
            assert!(
                b.lout_frac > 0.0 && b.lout_frac <= 1.0,
                "brownout l_out fraction must be in (0, 1]"
            );
            assert!(
                b.slo_relax.is_finite() && b.slo_relax >= 1.0,
                "brownout SLO relaxation must be ≥ 1"
            );
        }
        if let Some(g) = self.storm_guard {
            assert!(
                g.stagger_s.is_finite() && g.stagger_s > 0.0,
                "storm-guard stagger must be finite and positive"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_reflect_enabled_axes() {
        assert_eq!(ResiliencePolicy::off().name(), "off");
        assert_eq!(ResiliencePolicy::health_aware().name(), "health");
        assert_eq!(ResiliencePolicy::retrying().name(), "retry+health");
        assert_eq!(ResiliencePolicy::full(0.5).name(), "retry+hedge+health+kv-migrate");
    }

    #[test]
    fn off_policy_is_inert() {
        let p = ResiliencePolicy::off();
        assert!(!p.retry.timeouts_enabled());
        assert!(!p.health.enabled);
        assert_eq!(p.recovery, RecoveryMode::Reprefill);
    }

    #[test]
    fn degrade_names_reflect_levers() {
        assert_eq!(DegradePolicy::off().name(), "off");
        assert_eq!(DegradePolicy::full(32.0).name(), "shed+brownout+guard");
        let shed_only = DegradePolicy { shed: DegradePolicy::full(32.0).shed, ..DegradePolicy::off() };
        assert_eq!(shed_only.name(), "shed");
    }

    #[test]
    fn degrade_full_validates() {
        DegradePolicy::off().validate();
        DegradePolicy::full(32.0).validate();
    }

    #[test]
    #[should_panic(expected = "shed threshold must be finite and positive")]
    fn degrade_rejects_zero_shed_threshold() {
        DegradePolicy::full(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "brownout l_out fraction must be in (0, 1]")]
    fn degrade_rejects_zero_lout_frac() {
        let mut p = DegradePolicy::full(32.0);
        p.brownout.as_mut().unwrap().lout_frac = 0.0;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "brownout SLO relaxation must be ≥ 1")]
    fn degrade_rejects_tightening_slo_relax() {
        let mut p = DegradePolicy::full(32.0);
        p.brownout.as_mut().unwrap().slo_relax = 0.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "storm-guard stagger must be finite and positive")]
    fn degrade_rejects_zero_stagger() {
        let mut p = DegradePolicy::full(32.0);
        p.storm_guard.as_mut().unwrap().stagger_s = 0.0;
        p.validate();
    }
}
