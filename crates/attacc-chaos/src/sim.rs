//! The cluster chaos entry point: a static cluster under a fault timeline
//! and a resilience policy in front of the router.
//!
//! [`simulate_chaos`] runs the one serving loop
//! ([`attacc_cluster::ServingLoop::cluster`]) with the fault transitions
//! pre-loaded. Under a zero-fault schedule and [`ResiliencePolicy::off`]
//! every fault and policy path is inert — an all-up cluster routes
//! exactly as `simulate_cluster` and no timers exist — so the zero-fault
//! equivalence contract (pinned in `tests/cluster_equivalence.rs`) is
//! bit-exact rather than merely close.

use crate::fault::FaultSchedule;
use crate::policy::ResiliencePolicy;
use crate::report::ChaosReport;
use attacc_cluster::{ClusterConfig, ServingLoop};
use attacc_serving::{ArrivalWorkload, StageExecutor};

/// Everything a chaos run needs besides executors, workload, and faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// The underlying cluster configuration (scheduler, router policy,
    /// interconnect, SLO).
    pub cluster: ClusterConfig,
    /// The resilience policy wrapped around the router.
    pub policy: ResiliencePolicy,
    /// Seed for retry-jitter draws (independent of the fault schedule's
    /// seed).
    pub seed: u64,
}

impl ChaosConfig {
    /// `cluster` with the resilience policy off — the configuration under
    /// which a zero-fault chaos run is bit-exact with `simulate_cluster`.
    #[must_use]
    pub fn inert(cluster: ClusterConfig) -> ChaosConfig {
        ChaosConfig { cluster, policy: ResiliencePolicy::off(), seed: 0 }
    }
}

/// Runs `workload` through a cluster of one node per executor in `nodes`,
/// under fault timeline `faults` and the resilience policy in `cfg`.
///
/// Determinism contract: the result is a pure function of the arguments —
/// same inputs give byte-identical reports at any thread count, cold or
/// warm timing cache. With `faults` empty and
/// [`ResiliencePolicy::off`], `report.cluster` is bit-exact with
/// [`attacc_cluster::simulate_cluster`] on the same inputs.
///
/// # Panics
/// Panics if `nodes` is empty, the scheduler batch cap is zero, a fault
/// names a node outside the cluster, or two arrivals share a request id
/// (retries, hedges and outcomes are keyed by id).
#[must_use]
pub fn simulate_chaos(
    nodes: &[&dyn StageExecutor],
    workload: &ArrivalWorkload,
    cfg: &ChaosConfig,
    faults: &FaultSchedule,
) -> ChaosReport {
    let mut sim = ServingLoop::cluster(nodes, &cfg.cluster, cfg.policy, cfg.seed);
    let faults_injected = faults.inject(sim.queue(), nodes.len());
    let out = sim.run(workload);
    let c = out.counters;
    ChaosReport {
        policy: cfg.policy.name(),
        recovery: cfg.policy.recovery.name().to_string(),
        cluster: out.fleet.cluster,
        faults_injected,
        crashes: c.crashes,
        availability: out.availability,
        node_downtime_s: out.node_downtime_s,
        retries: c.retries,
        hedges: c.hedges,
        timeouts_exhausted: c.timeouts_exhausted,
        lost_tokens: c.lost_tokens,
        recomputed_tokens: c.recomputed_tokens,
        migrated_kv_tokens: c.migrated_kv_tokens,
        unique_completed: out.unique_completed,
        duplicate_completions: out.duplicate_completions,
        requests_in_slo: out.requests_in_slo,
        goodput_under_failure_tokens_per_s: out.goodput_under_failure_tokens_per_s,
        request_outcomes: out.request_outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RecoveryMode;
    use attacc_cluster::{simulate_cluster, RouterPolicy};
    use attacc_serving::{SchedulerConfig, StageCost};

    struct Toy;
    impl StageExecutor for Toy {
        fn sum_stage(&self, b: u64, l: u64) -> StageCost {
            StageCost { latency_s: 1e-5 * (b * l) as f64, energy_j: 0.1 * b as f64 }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost { latency_s: 5e-4 + 1e-6 * n as f64, energy_j: 0.01 * n as f64 }
        }
    }

    fn workload() -> ArrivalWorkload {
        ArrivalWorkload::poisson(40, 50.0, 64, (4, 12), 7)
    }

    fn cluster_cfg(policy: RouterPolicy) -> ClusterConfig {
        ClusterConfig { policy, ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8)) }
    }

    #[test]
    fn zero_faults_off_policy_is_bit_exact_with_cluster() {
        for policy in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 2 },
        ] {
            let w = workload();
            let cfg = cluster_cfg(policy);
            let plain = simulate_cluster(&[&Toy, &Toy, &Toy], &w, &cfg);
            let chaos = simulate_chaos(
                &[&Toy, &Toy, &Toy],
                &w,
                &ChaosConfig::inert(cfg),
                &FaultSchedule::none(),
            );
            assert_eq!(chaos.cluster, plain, "policy {}", policy.name());
            assert_eq!(chaos.crashes, 0);
            assert_eq!(chaos.retries + chaos.hedges, 0);
            assert_eq!(chaos.availability, 1.0);
            assert_eq!(chaos.unique_completed, 40);
            assert_eq!(chaos.duplicate_completions, 0);
        }
    }

    #[test]
    #[should_panic(expected = "request id 0 arrives more than once")]
    fn repeated_request_ids_are_rejected() {
        // A second arrival with id 0 would overwrite the first one's
        // tracker, dropping it from the outcomes and unique completions.
        let arrivals = [(0.0, 0), (0.001, 0), (0.002, 1)]
            .map(|(t, id)| (t, attacc_model::Request::new(id, 64, 4)))
            .to_vec();
        let cfg = ChaosConfig::inert(cluster_cfg(RouterPolicy::JoinShortestQueue));
        let _ = simulate_chaos(
            &[&Toy, &Toy],
            &ArrivalWorkload { arrivals },
            &cfg,
            &FaultSchedule::none(),
        );
    }

    #[test]
    fn crash_displaces_work_and_everything_still_completes() {
        let w = workload();
        let cfg = ChaosConfig::inert(cluster_cfg(RouterPolicy::JoinShortestQueue));
        let mut faults = FaultSchedule::none();
        faults.crash(0, 0.05, 0.5);
        let r = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        assert_eq!(r.crashes, 1);
        assert_eq!(r.unique_completed, 40, "displaced requests are re-dispatched and finish");
        assert!(r.availability < 1.0);
        assert!(r.node_downtime_s[0] > 0.0);
        assert_eq!(r.node_downtime_s[1], 0.0);
    }

    #[test]
    fn same_inputs_same_report_under_faults() {
        let w = workload();
        let cfg = ChaosConfig {
            cluster: cluster_cfg(RouterPolicy::JoinShortestQueue),
            policy: ResiliencePolicy::full(0.05),
            seed: 99,
        };
        let faults =
            FaultSchedule::generate(2, 2.0, &crate::fault::FaultSpec::crashes_only(0.4, 0.2), 5);
        let a = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        let b = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        assert_eq!(a, b, "chaos simulation is a pure function of its inputs");
    }

    #[test]
    fn health_aware_routing_avoids_the_dead_node() {
        // Node 0 dies almost immediately and stays down well past the
        // drain; health-aware routing sends everything to node 1.
        let w = workload();
        let mut faults = FaultSchedule::none();
        faults.crash(0, 1e-4, 1e6);
        let cfg = ChaosConfig {
            cluster: cluster_cfg(RouterPolicy::JoinShortestQueue),
            policy: ResiliencePolicy::health_aware(),
            seed: 0,
        };
        let r = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        assert_eq!(r.unique_completed, 40);
        // Blind routing under the same fault parks half the fleet's work
        // at a dead door for a very long time.
        let blind = ChaosConfig { policy: ResiliencePolicy::off(), ..cfg };
        let b = simulate_chaos(&[&Toy, &Toy], &w, &blind, &faults);
        assert!(
            r.cluster.makespan_s < b.cluster.makespan_s,
            "health-aware drains in {} s, blind takes {} s",
            r.cluster.makespan_s,
            b.cluster.makespan_s
        );
    }

    #[test]
    fn retries_rescue_requests_parked_at_a_dead_node() {
        let w = workload();
        let mut faults = FaultSchedule::none();
        faults.crash(0, 1e-4, 1e5);
        let mut policy = ResiliencePolicy::retrying();
        policy.health.enabled = false; // blind routing, retries only
        policy.retry.timeout_s = 0.05;
        policy.retry.max_retries = 6;
        let cfg = ChaosConfig {
            cluster: cluster_cfg(RouterPolicy::JoinShortestQueue),
            policy,
            seed: 3,
        };
        let r = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        assert!(r.retries > 0, "parked requests must time out and retry");
        assert_eq!(r.unique_completed, 40);
        assert_eq!(r.requests_in_slo, 40, "every parked request is rescued within the TTFT SLO");
        assert!(r.duplicate_completions > 0, "the parked copies still drain after recovery");
        // The failure-blind baseline leaves the parked requests waiting
        // out the full outage — they miss the SLO.
        let blind = ChaosConfig { policy: ResiliencePolicy::off(), ..cfg };
        let b = simulate_chaos(&[&Toy, &Toy], &w, &blind, &faults);
        assert!(b.requests_in_slo < 40, "without retries, parked requests miss the SLO");
    }

    #[test]
    fn hedging_fires_and_wins_races() {
        let w = workload();
        let mut faults = FaultSchedule::none();
        faults.crash(0, 1e-4, 1e5);
        // Hedge quickly; the interactive 10 s retry stays on as backstop
        // for copies the hedge itself parks at the dead door.
        let mut policy = ResiliencePolicy::full(0.02);
        policy.health.enabled = false;
        let cfg = ChaosConfig {
            cluster: cluster_cfg(RouterPolicy::JoinShortestQueue),
            policy,
            seed: 3,
        };
        let r = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &faults);
        assert!(r.hedges > 0, "parked requests must hedge");
        assert_eq!(r.retries, 0, "the hedge wins before the retry backstop fires");
        assert_eq!(r.unique_completed, 40);
        assert_eq!(r.requests_in_slo, 40, "hedged duplicates win the race within the SLO");
        assert!(r.duplicate_completions > 0, "losing copies still complete — no cancellation");
    }

    #[test]
    fn kv_migrate_pays_wire_reprefill_pays_compute() {
        // Long outputs (32–64 tokens ≈ 20–40 ms of Gen rounds) guarantee
        // node 0 has admitted, in-progress work when the crash lands.
        let w = ArrivalWorkload::poisson(30, 200.0, 64, (32, 64), 3);
        let mut faults = FaultSchedule::none();
        faults.crash(0, 0.02, 0.2);
        let base = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: attacc_cluster::InterconnectModel::ethernet_400g()
                .with_kv_bytes_per_token(1 << 16),
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let reprefill = ChaosConfig {
            cluster: base,
            policy: ResiliencePolicy::health_aware(),
            seed: 0,
        };
        let migrate = ChaosConfig {
            policy: ResiliencePolicy {
                recovery: RecoveryMode::KvMigrate,
                ..ResiliencePolicy::health_aware()
            },
            ..reprefill
        };
        let rp = simulate_chaos(&[&Toy, &Toy], &w, &reprefill, &faults);
        let km = simulate_chaos(&[&Toy, &Toy], &w, &migrate, &faults);
        assert_eq!(rp.unique_completed, 30);
        assert_eq!(km.unique_completed, 30);
        assert!(rp.recomputed_tokens > 0 && rp.migrated_kv_tokens == 0);
        assert!(km.migrated_kv_tokens > 0 && km.recomputed_tokens == 0);
        // Both modes lose the same in-flight tokens to the crash itself.
        assert_eq!(rp.lost_tokens, km.lost_tokens);
    }

    #[test]
    fn a_crash_inside_another_keeps_the_node_down_for_the_longer_one() {
        let w = workload();
        let cfg = ChaosConfig::inert(cluster_cfg(RouterPolicy::JoinShortestQueue));
        let mut outer = FaultSchedule::none();
        outer.crash(0, 0.05, 0.5);
        let mut nested = outer.clone();
        nested.crash(0, 0.1, 0.05);
        let one = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &outer);
        let two = simulate_chaos(&[&Toy, &Toy], &w, &cfg, &nested);
        // The inner repair at 0.15 s must not end the outage that runs to
        // 0.55 s: node 0 is down exactly as long as under the outer crash
        // alone, and one more crash never makes the fleet more available.
        assert_eq!(two.crashes, 2);
        assert_eq!(two.node_downtime_s, one.node_downtime_s);
        assert!(two.availability <= one.availability);
        assert_eq!(two.unique_completed, 40);
    }
}
