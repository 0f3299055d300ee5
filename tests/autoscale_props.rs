//! Property tests pinning the fleet autoscaler's contracts.
//!
//! Over random pool bounds, signals, timing knobs, router policies and
//! workloads, every fleet run must honor four invariants:
//!
//! 1. **Bounds**: applied scale actions stay inside `[min, max]` and
//!    move exactly one node at a time.
//! 2. **Cold start**: a node activated by scale-out never receives work
//!    before its warm-up completes (the simulator also hard-asserts this
//!    on every routing decision).
//! 3. **Hysteresis**: a pool never reverses direction within the
//!    cooldown window — no scale-out immediately chased by a scale-in.
//! 4. **Determinism**: the whole `FleetReport` is a pure function of the
//!    inputs — two runs over the same executors agree on every field.
//!
//! Node-second billing is never negative on any node, even when a scale
//! tick after the last work event opens an activation past the makespan.

use attacc::cluster::{
    simulate_fleet, AutoscalerConfig, FleetConfig, InterconnectModel, PoolConfig, PoolKind,
    RouterPolicy, ScaleDirection, ScaleSignal, SloSpec, StageExecutor,
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
        _ => RouterPolicy::SessionAffinity { spill_backlog: 2 },
    }
}

fn signal_of(i: usize) -> ScaleSignal {
    match i % 3 {
        0 => ScaleSignal::QueueDepth { out_per_node: 3.0, in_per_node: 1.0 },
        1 => ScaleSignal::KvOccupancy { out_frac: 0.25, in_frac: 0.02 },
        _ => ScaleSignal::PredictedLoad {
            alpha: 0.4,
            out_rate_per_node: 120.0,
            in_rate_per_node: 20.0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn autoscaled_fleets_respect_bounds_cold_starts_and_hysteresis(
        seed in 0u64..1_000_000,
        n_req in 30usize..90,
        rate in 50.0f64..1500.0,
        disagg_pick in 0usize..2,
        pol in 0usize..4,
        sig in 0usize..3,
        d_min in 1usize..3,
        d_init_extra in 0usize..2,
        d_max_extra in 1usize..4,
        interval_ms in 2.0f64..20.0,
        cold_mult in 0.0f64..3.0,
        cool_mult in 0.0f64..4.0,
    ) {
        let decode = PoolConfig::elastic(
            d_min,
            d_min + d_init_extra,
            d_min + d_init_extra + d_max_extra,
        );
        let disagg = disagg_pick == 1;
        let prefill = disagg.then(|| PoolConfig::elastic(1, 1, 1 + d_max_extra));
        let interval_s = interval_ms * 1e-3;
        let cold_start_s = cold_mult * interval_s;
        let cooldown_s = cool_mult * interval_s;
        // A KV signal needs a byte-per-token cost model to observe
        // occupancy; capacity is generous enough that nothing abandons.
        let scheduler = if sig % 3 == 1 {
            SchedulerConfig::with_capacity(6, 4096, 1)
        } else {
            SchedulerConfig::unlimited(6)
        };
        let cfg = FleetConfig {
            prefill,
            decode,
            scheduler,
            policy: policy_of(pol),
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig {
                interval_s,
                cold_start_s,
                cooldown_s,
                signal: signal_of(sig),
            }),
        };
        let w = ArrivalWorkload::poisson(n_req as u64, rate, 48, (1, 24), seed);

        let p_max = prefill.map_or(0, |p| p.max_nodes);
        let toys: Vec<Toy> = (0..p_max + decode.max_nodes).map(|_| Toy).collect();
        let refs: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
        let r = simulate_fleet(&refs[..p_max], &refs[p_max..], &w, &cfg);

        // 4. Determinism: a second run agrees on every field.
        let again = simulate_fleet(&refs[..p_max], &refs[p_max..], &w, &cfg);
        prop_assert!(r == again, "fleet report is not a pure function of its inputs");

        prop_assert_eq!(r.cluster.completed, n_req as u64);
        prop_assert_eq!(r.cluster.abandoned, 0);

        // 1. Bounds, one node at a time, cold start stamped on the event.
        for e in &r.scale_events {
            let bounds = match e.pool {
                PoolKind::Prefill => prefill.expect("prefill event implies a prefill pool"),
                PoolKind::Decode => decode,
            };
            prop_assert!(
                e.from_nodes >= bounds.min_nodes && e.from_nodes <= bounds.max_nodes,
                "from_nodes {} outside [{}, {}]", e.from_nodes, bounds.min_nodes, bounds.max_nodes
            );
            prop_assert!(
                e.to_nodes >= bounds.min_nodes && e.to_nodes <= bounds.max_nodes,
                "to_nodes {} outside [{}, {}]", e.to_nodes, bounds.min_nodes, bounds.max_nodes
            );
            match e.direction {
                ScaleDirection::Out => {
                    prop_assert_eq!(e.to_nodes, e.from_nodes + 1);
                    prop_assert!((e.warm_at_s - (e.t_s + cold_start_s)).abs() < 1e-12);
                }
                ScaleDirection::In => prop_assert_eq!(e.to_nodes, e.from_nodes - 1),
            }
        }

        // 2. Cold start: a node whose first activation came from a
        // scale-out is never routed to before its warm-up completes.
        let initially_active = |g: usize| {
            if g < p_max {
                g < prefill.map_or(0, |p| p.initial_nodes)
            } else {
                g - p_max < decode.initial_nodes
            }
        };
        for g in 0..p_max + decode.max_nodes {
            if initially_active(g) {
                continue;
            }
            let first_out = r
                .scale_events
                .iter()
                .find(|e| e.node == g && e.direction == ScaleDirection::Out);
            match (first_out, r.first_route_s[g]) {
                (Some(e), Some(t)) => prop_assert!(
                    t >= e.warm_at_s - 1e-12,
                    "node {g} routed at {t} before warm-up at {}", e.warm_at_s
                ),
                (None, Some(t)) => prop_assert!(
                    false,
                    "node {g} was never activated yet routed at {t}"
                ),
                _ => {}
            }
        }

        // 3. Hysteresis: per pool, no direction reversal inside the
        // cooldown window.
        for kind in [PoolKind::Prefill, PoolKind::Decode] {
            let mut last: Option<(ScaleDirection, f64)> = None;
            for e in r.scale_events.iter().filter(|e| e.pool == kind) {
                if let Some((dir, t)) = last {
                    if dir != e.direction {
                        prop_assert!(
                            e.t_s - t >= cooldown_s - 1e-12,
                            "{:?} pool reversed {:?}->{:?} after {} s < cooldown {} s",
                            kind, dir, e.direction, e.t_s - t, cooldown_s
                        );
                    }
                }
                last = Some((e.direction, e.t_s));
            }
        }

        // Node-seconds are bounded by renting every node for the whole
        // run, and a fleet that scaled in must bill strictly less.
        let total = (p_max + decode.max_nodes) as f64;
        prop_assert!(r.node_seconds >= 0.0);
        prop_assert!(r.node_seconds <= total * r.cluster.makespan_s + 1e-9);
        for (g, &s) in r.node_active_s.iter().enumerate() {
            prop_assert!(s >= 0.0, "node {} billed {} s", g, s);
        }
    }
}

/// Regression: a predicted-load scale-out at a tick after the last work
/// event opens node 3's activation past the makespan. Closing it as
/// `makespan - since` would bill about -5.5 ms; the close clamps at zero.
#[test]
fn late_scale_out_bills_no_negative_node_seconds() {
    let cfg = FleetConfig {
        prefill: None,
        decode: PoolConfig::elastic(1, 1, 4),
        scheduler: SchedulerConfig::unlimited(6),
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
        slo: SloSpec::chatbot(),
        autoscaler: Some(AutoscalerConfig {
            interval_s: 19e-3,
            cold_start_s: 9.5e-3,
            cooldown_s: 0.0,
            signal: signal_of(2),
        }),
    };
    let w = ArrivalWorkload::poisson(60, 900.0, 48, (1, 24), 0);
    let toys = [Toy, Toy, Toy, Toy];
    let refs: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
    let r = simulate_fleet(&[], &refs, &w, &cfg);
    let makespan = r.cluster.makespan_s;
    assert!(
        r.scale_events.iter().any(|e| e.node == 3 && e.t_s > makespan),
        "the reproducer scales node 3 out after the last work event"
    );
    for (g, &s) in r.node_active_s.iter().enumerate() {
        assert!(s >= 0.0, "node {g} billed {s} s");
    }
}
