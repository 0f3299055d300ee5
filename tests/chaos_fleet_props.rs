//! Property tests pinning the fleet-chaos contracts.
//!
//! Over random crash schedules (per-node crash processes, plus a block
//! of contiguous nodes crashing at one instant, as a zone outage does),
//! pool bounds, degradation policies and recovery modes, every
//! fleet-chaos run must honor:
//!
//! 1. **Bounds**: applied scale actions stay inside `[min, max]` and
//!    move exactly one node at a time — faults never push a pool out of
//!    its envelope.
//! 2. **Routing**: cold-starting nodes are never routed work before
//!    warm-up, and crashed nodes are never routed work while an up node
//!    is eligible. Both are hard-asserted inside the serving loop's
//!    routing on every decision, so any violation panics the run; the
//!    cold-start half is additionally re-checked here against
//!    `first_route_s`.
//! 3. **Billing**: node-second billing never charges a down node — per
//!    node, billed active time plus measured downtime fits inside the
//!    makespan.
//! 4. **Conservation**: every admitted request completes (shed ones are
//!    the only arrivals that don't), and availability is a valid
//!    fraction that only drops below 1 when something actually crashed.
//! 5. **Determinism**: the whole `FleetChaosReport` is a pure function
//!    of its inputs.

use attacc::chaos::{
    simulate_fleet_chaos, DegradePolicy, FaultSchedule, FaultSpec, FleetChaosConfig, RecoveryMode,
};
use attacc::cluster::{
    AutoscalerConfig, FleetConfig, FleetMix, InterconnectModel, PoolConfig, PoolKind,
    RouterPolicy, ScaleDirection, SloSpec, StageExecutor,
};
use attacc::serving::{ArrivalWorkload, SchedulerConfig, StageCost};
use proptest::prelude::*;

/// Irrational-valued costs so any accumulation-order divergence between
/// the two determinism runs shows up in the float bits.
struct Toy;
impl StageExecutor for Toy {
    fn sum_stage(&self, b: u64, l: u64) -> StageCost {
        StageCost { latency_s: 1e-4 * ((b * l) as f64).sqrt(), energy_j: 0.37 * b as f64 }
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let n: u64 = groups.iter().map(|g| g.0).sum();
        let work: f64 = groups.iter().map(|&(c, l)| (c * l) as f64).sum();
        StageCost { latency_s: 2e-4 + 1e-7 * work.sqrt() * n as f64, energy_j: 0.011 * work }
    }
}

fn policy_of(i: usize) -> RouterPolicy {
    match i % 4 {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::JoinShortestQueue,
        2 => RouterPolicy::LeastKvBytes,
        _ => RouterPolicy::WeightedLeastLoad,
    }
}

fn degrade_of(i: usize) -> DegradePolicy {
    match i % 3 {
        0 => DegradePolicy::off(),
        1 => DegradePolicy::full(16.0),
        _ => DegradePolicy { brownout: None, ..DegradePolicy::full(24.0) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fleet_chaos_respects_bounds_routing_and_billing(
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        n_req in 30usize..80,
        rate in 50.0f64..1200.0,
        disagg_pick in 0usize..2,
        pol in 0usize..4,
        deg in 0usize..3,
        recover_pick in 0usize..2,
        d_min in 1usize..3,
        d_max_extra in 1usize..3,
        mtbf_s in 0.05f64..5.0,
        mttr_s in 0.01f64..0.5,
        zones_pick in 0usize..3,
        zone_draw in 0usize..3,
        zone_at_s in 0.0f64..2.0,
        scaled_pick in 0usize..2,
    ) {
        let decode = PoolConfig::elastic(d_min, d_min, d_min + d_max_extra);
        let disagg = disagg_pick == 1;
        let prefill = disagg.then(|| PoolConfig::elastic(1, 1, 2));
        let fleet = FleetConfig {
            prefill,
            decode,
            scheduler: SchedulerConfig::unlimited(6),
            policy: policy_of(pol),
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            slo: SloSpec::chatbot(),
            autoscaler: (scaled_pick == 1).then(|| AutoscalerConfig::queue_depth(0.01)),
        };
        let cfg = FleetChaosConfig {
            fleet,
            recovery: if recover_pick == 0 { RecoveryMode::Reprefill } else { RecoveryMode::KvMigrate },
            degrade: degrade_of(deg),
        };
        let w = ArrivalWorkload::poisson(n_req as u64, rate, 48, (1, 24), seed);

        let p_max = prefill.map_or(0, |p| p.max_nodes);
        let n = p_max + decode.max_nodes;
        let spec = FaultSpec::crashes_only(mtbf_s, mttr_s);
        let mut faults = FaultSchedule::generate(n, 2.0, &spec, fault_seed);
        if zones_pick > 0 {
            // A zone outage: one of `zones_pick + 1` contiguous blocks of
            // global nodes goes down at a single instant, possibly inside
            // a member's own crash window.
            let zones = (zones_pick + 1).min(n);
            let z = zone_draw % zones;
            for node in (z * n / zones)..((z + 1) * n / zones) {
                faults.crash(node, zone_at_s, mttr_s);
            }
        }

        let toys: Vec<Toy> = (0..n).map(|_| Toy).collect();
        let refs: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
        let mix = FleetMix::uniform();
        let r = simulate_fleet_chaos(&refs[..p_max], &refs[p_max..], &mix, &w, &cfg, &faults);

        // 5. Determinism: a second run agrees on every field.
        let again = simulate_fleet_chaos(&refs[..p_max], &refs[p_max..], &mix, &w, &cfg, &faults);
        prop_assert!(r == again, "fleet-chaos report is not a pure function of its inputs");

        // 4. Conservation: admitted work always completes; shedding is
        // the only admission-time loss.
        prop_assert_eq!(r.unique_completed + r.shed_requests, n_req as u64);
        if cfg.degrade.shed.is_none() {
            prop_assert_eq!(r.shed_requests, 0);
        }
        prop_assert!(r.availability > 0.0 && r.availability <= 1.0);
        if r.crashes == 0 {
            prop_assert_eq!(r.availability, 1.0);
            prop_assert!(r.node_downtime_s.iter().all(|&d| d == 0.0));
        }

        let makespan = r.fleet.cluster.makespan_s;

        // 1. Bounds: faults never push a pool outside its envelope.
        for e in &r.fleet.scale_events {
            let bounds = match e.pool {
                PoolKind::Prefill => prefill.expect("prefill event implies a prefill pool"),
                PoolKind::Decode => decode,
            };
            prop_assert!(e.from_nodes >= bounds.min_nodes && e.from_nodes <= bounds.max_nodes);
            prop_assert!(e.to_nodes >= bounds.min_nodes && e.to_nodes <= bounds.max_nodes);
            match e.direction {
                ScaleDirection::Out => prop_assert_eq!(e.to_nodes, e.from_nodes + 1),
                ScaleDirection::In => prop_assert_eq!(e.to_nodes, e.from_nodes - 1),
            }
        }
        prop_assert!(r.fleet.prefill_peak_nodes <= p_max);
        prop_assert!(r.fleet.decode_peak_nodes <= decode.max_nodes);

        // 2. Cold start: a node first activated by scale-out is never
        // routed to before its warm-up completes. (The crashed-node half
        // of the routing contract is a hard assert inside the loop's
        // routing: reaching this line means no run violated it.)
        let initially_active = |g: usize| {
            if g < p_max { g < 1 } else { g - p_max < decode.initial_nodes }
        };
        for g in 0..n {
            if initially_active(g) {
                continue;
            }
            let first_out = r
                .fleet
                .scale_events
                .iter()
                .find(|e| e.node == g && e.direction == ScaleDirection::Out);
            match (first_out, r.fleet.first_route_s[g]) {
                (Some(e), Some(t)) => prop_assert!(
                    t >= e.warm_at_s - 1e-12,
                    "node {g} routed at {t} before warm-up at {}", e.warm_at_s
                ),
                (None, Some(t)) => prop_assert!(false, "node {g} never activated yet routed at {t}"),
                _ => {}
            }
        }

        // 3. Billing never charges a down node: per node, billed active
        // seconds and measured downtime are disjoint, so their sum fits
        // inside the billing horizon. The horizon extends slightly past
        // the makespan because scale-in events and fault transitions
        // after the last completion still close meters at their own
        // time (mirroring the fleet loop's billing), bounded by the
        // fault schedule's end (generation horizon 2 s + repair) plus
        // one autoscaler tick.
        let horizon = makespan.max(2.0 + mttr_s) + 0.02;
        prop_assert_eq!(r.node_downtime_s.len(), n);
        for g in 0..n {
            prop_assert!(
                r.fleet.node_active_s[g] + r.node_downtime_s[g] <= horizon + 1e-9,
                "node {g}: active {} + down {} exceeds horizon {}",
                r.fleet.node_active_s[g], r.node_downtime_s[g], horizon
            );
            prop_assert!(r.fleet.node_active_s[g] >= 0.0);
            prop_assert!(r.node_downtime_s[g] >= 0.0);
        }
        let sum: f64 = r.fleet.node_active_s.iter().sum();
        prop_assert!((sum - r.fleet.node_seconds).abs() < 1e-6);
        prop_assert!(r.fleet.node_seconds <= n as f64 * horizon + 1e-9);
    }
}
