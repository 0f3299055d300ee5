//! Fleet-scale chaos: fault injection through the autoscaled,
//! disaggregated fleet.
//!
//! [`simulate_fleet_chaos`] runs the one serving loop
//! ([`attacc_cluster::ServingLoop::fleet`]) with the fault transitions
//! pre-loaded. With [`FaultSchedule::none`] and [`DegradePolicy::off`]
//! every fault path is inert and the returned [`FleetReport`] is
//! byte-identical to [`attacc_cluster::simulate_fleet_mix`]'s —
//! `tests/cluster_equivalence.rs` pins it. Under faults the loop adds:
//!
//! - **Crash-aware routing.** Crashed nodes are excluded from eligibility
//!   unless their whole pool is down (then the request parks at a dead
//!   node's door until repair, as in `simulate_chaos`).
//! - **Crash-aware autoscaling.** The autoscaler observes *available*
//!   (active ∧ up) capacity, so losing a node looks like losing capacity
//!   and the scaler provisions a replacement — paying `cold_start_s`
//!   through the existing node-second billing. Scale-out picks an up
//!   spare; if every spare is down the action is skipped.
//! - **Downtime is not billed.** A crash closes the node's activation
//!   meter; repair reopens it (if the node is still pool-active).
//!   `node_active_s[g] + downtime[g] ≤ makespan` holds per node — the
//!   property suite checks it.
//! - **Recovery economics.** A crash voids in-flight and resident KV.
//!   Displaced work with a surviving KV image re-ships warm straight into
//!   the decode pool under [`RecoveryMode::KvMigrate`] (priced by
//!   [`InterconnectModel::migrate_kv_s`], counted as recovery re-ships,
//!   not normal prefill→decode `kv_ships`); otherwise it re-enters the
//!   front pool cold and re-prefills — on a disaggregated fleet that
//!   means a prefill node recomputes the Sum and ships the KV again.
//! - **Graceful degradation.** A [`DegradePolicy`] adds admission control
//!   (shed arrivals when the front pool's backlog per available capacity
//!   unit exceeds a threshold), brownout (shrink answers and relax the
//!   TTFT SLO while a pool is substantially down), and a retry-storm
//!   guard (stagger crash-recovery re-dispatches beyond a burst).
//!
//! [`FleetReport`]: attacc_cluster::FleetReport
//! [`InterconnectModel::migrate_kv_s`]: attacc_cluster::InterconnectModel::migrate_kv_s

use crate::fault::FaultSchedule;
use crate::policy::{DegradePolicy, RecoveryMode};
use crate::report::FleetChaosReport;
use attacc_cluster::{FleetConfig, FleetMix, ServingLoop};
use attacc_serving::{ArrivalWorkload, StageExecutor};

/// Everything a fleet-chaos run needs besides executors, a workload and
/// a fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetChaosConfig {
    /// The underlying fleet configuration (pools, scheduler, policy,
    /// interconnect, SLO, autoscaler).
    pub fleet: FleetConfig,
    /// How crash-displaced work recovers its context.
    pub recovery: RecoveryMode,
    /// What the fleet sacrifices to stay up when capacity is lost.
    pub degrade: DegradePolicy,
}

impl FleetChaosConfig {
    /// The bit-exactness anchor: re-prefill recovery, degradation off.
    /// With a zero-fault schedule this configuration must reproduce
    /// `simulate_fleet_mix` byte for byte.
    #[must_use]
    pub fn inert(fleet: FleetConfig) -> FleetChaosConfig {
        FleetChaosConfig { fleet, recovery: RecoveryMode::Reprefill, degrade: DegradePolicy::off() }
    }
}

/// Runs `workload` through a disaggregated (or monolithic), possibly
/// autoscaled fleet under fault timeline `faults`, the recovery mode and
/// degradation policy in `cfg`.
///
/// Determinism contract: the result is a pure function of the arguments —
/// same inputs give byte-identical reports at any thread count and with a
/// cold or warm timing cache. With `faults` empty and
/// [`DegradePolicy::off`], `report.fleet` is bit-exact with
/// [`attacc_cluster::simulate_fleet_mix`] on the same inputs.
///
/// # Panics
/// Panics if the executor slices or mix vectors do not match the pool
/// bounds, the pool bounds or degrade knobs are inconsistent, a fault
/// names a node outside the fleet, or two arrivals share a request id
/// (first tokens, completions and outcomes are tracked by id).
#[must_use]
pub fn simulate_fleet_chaos(
    prefill_nodes: &[&dyn StageExecutor],
    decode_nodes: &[&dyn StageExecutor],
    mix: &FleetMix,
    workload: &ArrivalWorkload,
    cfg: &FleetChaosConfig,
    faults: &FaultSchedule,
) -> FleetChaosReport {
    let mut sim =
        ServingLoop::fleet(prefill_nodes, decode_nodes, mix, &cfg.fleet, cfg.recovery, cfg.degrade);
    let faults_injected = faults.inject(sim.queue(), prefill_nodes.len() + decode_nodes.len());
    let out = sim.run(workload);
    let c = out.counters;
    FleetChaosReport {
        fleet: out.fleet,
        recovery: cfg.recovery.name().to_string(),
        degrade: cfg.degrade.name(),
        faults_injected,
        crashes: c.crashes,
        availability: out.availability,
        node_downtime_s: out.node_downtime_s,
        lost_tokens: c.lost_tokens,
        recomputed_tokens: c.recomputed_tokens,
        migrated_kv_tokens: c.migrated_kv_tokens,
        recovery_reships: c.recovery_reships,
        recovery_reshipped_bytes: c.recovery_reshipped_bytes,
        shed_requests: c.shed_requests,
        shed_tokens: c.shed_tokens,
        browned_out_requests: c.browned_out,
        deferred_redispatches: c.deferred_redispatches,
        unique_completed: out.unique_completed,
        requests_in_slo: out.requests_in_slo,
        goodput_under_failure_tokens_per_s: out.goodput_under_failure_tokens_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_cluster::{
        simulate_fleet_mix, AutoscalerConfig, InterconnectModel, PoolConfig, ScaleDirection,
        SloSpec,
    };
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
        ArrivalWorkload::poisson(60, 80.0, 64, (4, 12), 13)
    }

    fn disagg_cfg() -> FleetConfig {
        FleetConfig {
            prefill: Some(PoolConfig::fixed(2)),
            decode: PoolConfig::fixed(2),
            scheduler: SchedulerConfig::unlimited(8),
            policy: attacc_cluster::RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(1 << 10),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        }
    }

    #[test]
    fn zero_fault_inert_config_is_bit_exact_with_fleet_mix() {
        let w = workload();
        let mix = FleetMix::uniform();
        for fleet in [
            disagg_cfg(),
            FleetConfig {
                prefill: None,
                decode: PoolConfig::elastic(1, 1, 4),
                autoscaler: Some(AutoscalerConfig::queue_depth(0.01)),
                ..disagg_cfg()
            },
        ] {
            let (p, d): (Vec<&dyn StageExecutor>, Vec<&dyn StageExecutor>) = (
                (0..fleet.prefill.map_or(0, |p| p.max_nodes)).map(|_| &Toy as _).collect(),
                (0..fleet.decode.max_nodes).map(|_| &Toy as _).collect(),
            );
            let base = simulate_fleet_mix(&p, &d, &mix, &w, &fleet);
            let chaos = simulate_fleet_chaos(
                &p,
                &d,
                &mix,
                &w,
                &FleetChaosConfig::inert(fleet),
                &FaultSchedule::none(),
            );
            assert_eq!(chaos.fleet, base);
            assert_eq!(chaos.crashes, 0);
            assert_eq!(chaos.availability, 1.0);
            assert_eq!(chaos.shed_requests + chaos.browned_out_requests, 0);
            assert_eq!(chaos.unique_completed, 60);
        }
    }

    #[test]
    #[should_panic(expected = "request id 0 arrives more than once")]
    fn repeated_request_ids_are_rejected() {
        let arrivals = [(0.0, 0), (0.001, 0), (0.002, 1)]
            .map(|(t, id)| (t, attacc_model::Request::new(id, 64, 4)))
            .to_vec();
        let _ = simulate_fleet_chaos(
            &[&Toy, &Toy],
            &[&Toy, &Toy],
            &FleetMix::uniform(),
            &ArrivalWorkload { arrivals },
            &FleetChaosConfig::inert(disagg_cfg()),
            &FaultSchedule::none(),
        );
    }

    #[test]
    fn decode_crash_recovers_and_is_not_billed_while_down() {
        let w = workload();
        let mut faults = FaultSchedule::none();
        faults.crash(2, 0.05, 0.3); // decode node, mid-run, 300 ms repair
        for recovery in [RecoveryMode::Reprefill, RecoveryMode::KvMigrate] {
            let cfg = FleetChaosConfig { recovery, ..FleetChaosConfig::inert(disagg_cfg()) };
            let r = simulate_fleet_chaos(
                &[&Toy, &Toy],
                &[&Toy, &Toy],
                &FleetMix::uniform(),
                &w,
                &cfg,
                &faults,
            );
            assert_eq!(r.crashes, 1);
            assert_eq!(r.unique_completed, 60, "{}", recovery.name());
            assert!(r.availability < 1.0);
            assert!(r.node_downtime_s[2] > 0.0);
            // Downtime is unbilled: active + down never exceeds the wall.
            for g in 0..4 {
                assert!(
                    r.fleet.node_active_s[g] + r.node_downtime_s[g]
                        <= r.fleet.cluster.makespan_s + 1e-9
                );
            }
            // Reprefill never touches the KV-migration counters (the
            // reship counters are exercised by the dedicated test below
            // with a crash guaranteed to land on busy nodes).
            if recovery == RecoveryMode::Reprefill {
                assert_eq!(r.migrated_kv_tokens, 0);
                assert_eq!(r.recovery_reships, 0);
            }
        }
    }

    #[test]
    fn kv_migrate_reships_displaced_decode_work() {
        // Crash a decode node while it holds admitted work: KvMigrate
        // must re-ship at least one surviving KV image rather than
        // re-prefilling it.
        let w = ArrivalWorkload::poisson(60, 400.0, 64, (8, 16), 13);
        let mut faults = FaultSchedule::none();
        faults.crash(2, 0.08, 0.5);
        faults.crash(3, 0.08, 0.5);
        let cfg = FleetChaosConfig {
            recovery: RecoveryMode::KvMigrate,
            ..FleetChaosConfig::inert(disagg_cfg())
        };
        let r = simulate_fleet_chaos(
            &[&Toy, &Toy],
            &[&Toy, &Toy],
            &FleetMix::uniform(),
            &w,
            &cfg,
            &faults,
        );
        assert_eq!(r.unique_completed, 60);
        assert!(r.recovery_reships > 0, "decode crash under KvMigrate must re-ship");
        assert!(r.recovery_reshipped_bytes > 0);
        assert!(r.migrated_kv_tokens > 0);
    }

    #[test]
    fn autoscaler_provisions_replacement_for_crashed_capacity() {
        // One warm node, long outage: the scaler must see zero available
        // capacity and activate a spare (paying its cold start).
        let w = ArrivalWorkload::poisson(40, 200.0, 64, (4, 8), 3);
        let fleet = FleetConfig {
            prefill: None,
            decode: PoolConfig::elastic(1, 1, 3),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.005)),
            ..disagg_cfg()
        };
        let mut faults = FaultSchedule::none();
        faults.crash(0, 0.02, 5.0);
        let r = simulate_fleet_chaos(
            &[],
            &[&Toy, &Toy, &Toy],
            &FleetMix::uniform(),
            &w,
            &FleetChaosConfig::inert(fleet),
            &faults,
        );
        assert_eq!(r.unique_completed, 40);
        assert!(
            r.fleet
                .scale_events
                .iter()
                .any(|e| e.direction == ScaleDirection::Out),
            "crash must trigger replacement scale-out"
        );
        assert!(r.fleet.cold_start_node_s > 0.0, "the replacement pays its cold start");
    }

    #[test]
    fn shed_rejects_arrivals_when_backlog_per_available_node_explodes() {
        // A hard burst against one tiny node with an aggressive shed
        // threshold: admission control must reject some arrivals, and
        // everything admitted still completes.
        let w = ArrivalWorkload::poisson(80, 5000.0, 64, (8, 16), 5);
        let fleet = FleetConfig {
            prefill: None,
            decode: PoolConfig::fixed(1),
            scheduler: SchedulerConfig::unlimited(2),
            ..disagg_cfg()
        };
        let cfg = FleetChaosConfig {
            degrade: DegradePolicy {
                shed: Some(crate::policy::ShedConfig { max_backlog_per_node: 8.0 }),
                ..DegradePolicy::off()
            },
            ..FleetChaosConfig::inert(fleet)
        };
        let r = simulate_fleet_chaos(
            &[],
            &[&Toy],
            &FleetMix::uniform(),
            &w,
            &cfg,
            &FaultSchedule::none(),
        );
        assert!(r.shed_requests > 0, "the burst must overflow the admission threshold");
        assert!(r.shed_tokens > 0);
        assert_eq!(r.unique_completed + r.shed_requests, 80);
    }

    #[test]
    fn brownout_shrinks_answers_while_capacity_is_down() {
        // Half the decode pool down for most of the run: arrivals during
        // the outage get browned out (shorter answers, relaxed SLO).
        let w = ArrivalWorkload::poisson(60, 100.0, 64, (8, 16), 13);
        let fleet = FleetConfig { prefill: None, ..disagg_cfg() };
        let mut faults = FaultSchedule::none();
        faults.crash(1, 0.01, 10.0);
        let cfg = FleetChaosConfig {
            degrade: DegradePolicy {
                brownout: Some(crate::policy::BrownoutConfig {
                    below_up_frac: 0.75,
                    lout_frac: 0.5,
                    slo_relax: 2.0,
                }),
                ..DegradePolicy::off()
            },
            ..FleetChaosConfig::inert(fleet)
        };
        let r = simulate_fleet_chaos(
            &[],
            &[&Toy, &Toy],
            &FleetMix::uniform(),
            &w,
            &cfg,
            &faults,
        );
        assert!(r.browned_out_requests > 0, "outage-window arrivals must brown out");
        assert_eq!(r.unique_completed, 60);
        // Browned-out answers are shorter than the workload asked for.
        let asked: u64 = w.arrivals.iter().map(|(_, r)| r.l_out).sum();
        let served = r.fleet.cluster.nodes.iter().map(|n| n.tokens).sum::<u64>();
        assert!(served < asked, "shrunk answers must reduce generated tokens: {served} vs {asked}");
    }

    #[test]
    fn storm_guard_defers_recovery_beyond_the_burst() {
        // Load a node with many admitted requests, then crash it: with
        // burst 2 the rest of the displaced work must re-dispatch on
        // staggered timers, and still complete.
        let w = ArrivalWorkload::poisson(40, 5000.0, 64, (4, 8), 7);
        let fleet = FleetConfig { prefill: None, ..disagg_cfg() };
        let mut faults = FaultSchedule::none();
        faults.crash(0, 0.01, 0.2);
        let cfg = FleetChaosConfig {
            degrade: DegradePolicy {
                storm_guard: Some(crate::policy::StormGuard { burst: 2, stagger_s: 0.01 }),
                ..DegradePolicy::off()
            },
            ..FleetChaosConfig::inert(fleet)
        };
        let r = simulate_fleet_chaos(
            &[],
            &[&Toy, &Toy],
            &FleetMix::uniform(),
            &w,
            &cfg,
            &faults,
        );
        assert!(r.deferred_redispatches > 0, "burst 2 must defer the tail of the wave");
        assert_eq!(r.unique_completed, 40);
    }

    #[test]
    fn fleet_chaos_is_a_pure_function_of_its_inputs() {
        let w = workload();
        let fleet = FleetConfig {
            prefill: Some(PoolConfig::elastic(1, 1, 2)),
            decode: PoolConfig::elastic(1, 2, 2),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.01)),
            ..disagg_cfg()
        };
        let spec = crate::fault::FaultSpec::crashes_only(0.4, 0.2);
        let mut faults = FaultSchedule::generate(4, 2.0, &spec, 9);
        // A zone outage: both decode nodes go down at the same instant.
        faults.crash(2, 1.0, 0.3).crash(3, 1.0, 0.3);
        let cfg = FleetChaosConfig {
            recovery: RecoveryMode::KvMigrate,
            degrade: DegradePolicy::full(24.0),
            ..FleetChaosConfig::inert(fleet)
        };
        let nodes: [&dyn StageExecutor; 2] = [&Toy, &Toy];
        let a = simulate_fleet_chaos(&nodes, &nodes, &FleetMix::uniform(), &w, &cfg, &faults);
        let b = simulate_fleet_chaos(&nodes, &nodes, &FleetMix::uniform(), &w, &cfg, &faults);
        assert_eq!(a, b);
        assert_eq!(a.unique_completed + a.shed_requests, 60);
    }
}
