//! Equivalence and determinism guarantees of the cluster simulator.
//!
//! The cluster layer must add *zero* modeling drift over the single-node
//! serving simulator: a 1-node cluster behind a pass-through router over
//! an ideal interconnect is required to reproduce
//! [`attacc_serving::simulate_open_loop`] **bit-exactly** — same floats,
//! not just close floats. And like every other layer of the stack, the
//! cluster report must be byte-identical at any thread count, with a
//! cold or warm timing cache, and against uncached stage timing.

use attacc::cluster::{simulate_cluster, ClusterConfig};
use attacc::model::Request;
use attacc::serving::{
    simulate_open_loop, ArrivalWorkload, SchedulerConfig, StageCost, StageExecutor,
};
use attacc_sim::engine::{self, TimingCache};
use attacc_sim::{System, SystemExecutor};
use std::sync::{Mutex, PoisonError};

/// Serializes tests that mutate the process-wide thread override or the
/// global timing cache. A test that panics while holding it does not fail
/// the ones after it: they take the lock past the poison, and each sets
/// the thread count it runs at and clears the cache before it reads it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// A toy executor with irrational-valued costs so any divergence in
/// floating-point accumulation order shows up immediately.
struct Toy;
impl StageExecutor for Toy {
    fn sum_stage(&self, b: u64, l: u64) -> StageCost {
        StageCost {
            latency_s: 1e-3 * ((b * l) as f64).sqrt(),
            energy_j: 0.37 * b as f64,
        }
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let n: u64 = groups.iter().map(|g| g.0).sum();
        let work: f64 = groups.iter().map(|&(c, l)| (c * l) as f64).sum();
        StageCost {
            latency_s: 7e-4 + 1e-7 * work.sqrt() * n as f64,
            energy_j: 0.011 * work,
        }
    }
}

fn assert_bit_exact<E: StageExecutor>(executor: &E, w: &ArrivalWorkload, cfg: SchedulerConfig) {
    let single = simulate_open_loop(executor, w, &cfg);
    let nodes: [&dyn StageExecutor; 1] = [executor];
    let cluster = simulate_cluster(&nodes, w, &ClusterConfig::pass_through(cfg));
    assert_eq!(
        cluster.to_open_loop_report(),
        single,
        "1-node pass-through cluster must reproduce simulate_open_loop bit-for-bit"
    );
    assert_eq!(cluster.completed + cluster.abandoned, w.arrivals.len() as u64);
}

#[test]
fn one_node_pass_through_is_bit_exact() {
    let w = ArrivalWorkload::poisson(80, 120.0, 48, (4, 24), 17);
    assert_bit_exact(&Toy, &w, SchedulerConfig::unlimited(8));
}

#[test]
fn one_node_bit_exact_under_kv_pressure() {
    // Capacity for two in-flight requests (final_len = 16 + l_out ≤ 40,
    // capacity 80 tokens): admission head-blocks constantly but every
    // request is feasible, exercising the KV-reservation path on both
    // sides.
    let w = ArrivalWorkload::poisson(60, 300.0, 16, (8, 24), 23);
    assert_bit_exact(&Toy, &w, SchedulerConfig::with_capacity(8, 80, 1));
}

#[test]
fn one_node_bit_exact_with_an_infeasible_request() {
    // 40 KV tokens: the 8/4 requests fit, the 90/10 one at 1 s never
    // does. Its queue is abandoned, and the arrivals at 5 s and 6 s are
    // still served.
    let w = ArrivalWorkload {
        arrivals: vec![
            (0.0, Request::new(0, 8, 4)),
            (1.0, Request::new(1, 90, 10)),
            (5.0, Request::new(2, 8, 4)),
            (6.0, Request::new(3, 8, 4)),
        ],
    };
    let cfg = SchedulerConfig::with_capacity(4, 40, 1);
    assert_bit_exact(&Toy, &w, cfg);
    let r = simulate_open_loop(&Toy, &w, &cfg);
    assert_eq!(r.completed, 3);
    assert!(r.makespan_s > 6.0, "makespan {}", r.makespan_s);
}

#[test]
fn one_node_bit_exact_on_bursty_and_diurnal_shapes() {
    for w in [
        ArrivalWorkload::bursty(50, 60.0, 5.0, 0.5, 0.2, 32, (4, 16), 31),
        ArrivalWorkload::diurnal(50, 60.0, 0.9, 1.5, 32, (4, 16), 31),
    ] {
        assert_bit_exact(&Toy, &w, SchedulerConfig::unlimited(6));
    }
}

#[test]
fn one_node_bit_exact_on_real_platform() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let model = attacc::model::ModelConfig::gpt3_175b();
    let exec = SystemExecutor::new(System::dgx_attacc_full(), &model);
    let w = ArrivalWorkload::poisson(24, 8.0, 512, (16, 48), 5);
    assert_bit_exact(&exec, &w, SchedulerConfig::unlimited(16));
}

#[test]
fn cluster_report_is_byte_identical_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = attacc_bench::cluster_frontier(24).to_string();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = attacc_bench::cluster_frontier(24).to_string();
        assert_eq!(
            serial, parallel,
            "cluster frontier changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn chaos_wrapper_with_zero_faults_is_bit_exact_with_cluster() {
    use attacc::chaos::{simulate_chaos, ChaosConfig, FaultSchedule};
    use attacc::cluster::RouterPolicy;

    // The same golden workloads as the 1-node parity cases, on a 3-node
    // cluster under every router policy: an empty fault schedule and the
    // inert resilience policy must leave simulate_cluster's report
    // untouched — same floats, not just close floats.
    let w = ArrivalWorkload::poisson(80, 120.0, 48, (4, 24), 17);
    let toys = [Toy, Toy, Toy];
    let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
    for policy in [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvBytes,
        RouterPolicy::SessionAffinity { spill_backlog: 4 },
    ] {
        let cfg = ClusterConfig {
            policy,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let base = simulate_cluster(&nodes, &w, &cfg);
        let chaos = simulate_chaos(&nodes, &w, &ChaosConfig::inert(cfg), &FaultSchedule::none());
        assert_eq!(
            chaos.cluster, base,
            "zero-fault chaos run diverged from simulate_cluster under {}",
            policy.name()
        );
        assert_eq!(chaos.faults_injected, 0);
        assert_eq!(chaos.availability, 1.0);
        assert_eq!((chaos.retries, chaos.hedges, chaos.lost_tokens), (0, 0, 0));
    }
}

#[test]
fn chaos_report_is_byte_identical_across_thread_counts() {
    // A *faulty* fixed-seed run this time: the frontier sweeps real crash
    // schedules, so this pins fault injection, recovery dispatch, retry
    // jitter and EWMA health state to byte-identical output at any
    // parallelism.
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = attacc_bench::chaos_goodput_frontier(24).to_string();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = attacc_bench::chaos_goodput_frontier(24).to_string();
        assert_eq!(
            serial, parallel,
            "chaos frontier changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn chaos_report_is_byte_identical_cold_and_warm_cache() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = attacc_bench::chaos_routing_matrix(24).to_string();
    let warm = attacc_bench::chaos_routing_matrix(24).to_string();
    assert_eq!(cold, warm, "cache hits changed the chaos routing matrix");
}

#[test]
fn cluster_report_is_byte_identical_cold_and_warm_cache() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = attacc_bench::cluster_frontier(24).to_string();
    assert!(!cache.is_empty(), "cluster cells should populate the timing cache");
    let warm = attacc_bench::cluster_frontier(24).to_string();
    let stats = cache.stats();
    assert_eq!(cold, warm, "cache hits changed the cluster frontier");
    assert!(stats.hits > 0, "second run should hit the cache");
}

/// Every timing query through the uncached op-graph walk: the exact
/// reference `SystemExecutor`'s cached path must reproduce.
struct Exact(SystemExecutor);
impl StageExecutor for Exact {
    fn sum_stage(&self, batch: u64, l_in: u64) -> StageCost {
        self.0.sum_stage_uncached(batch, l_in)
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let d = self.0.gen_stage_detail_uncached(groups);
        StageCost { latency_s: d.total_s, energy_j: d.energy_j }
    }
}

/// The reports of the four serving shapes the golden frontiers render,
/// on six `DGX+AttAccs` nodes: a 4-node cluster, the same cluster under
/// crashes with the full resilience stack, an autoscaled disaggregated
/// fleet (2 prefill nodes, 1–4 decode nodes starting at 2) and that
/// fleet under crashes.
fn serving_shapes(
    nodes: &[&dyn StageExecutor],
) -> (
    attacc::cluster::ClusterReport,
    attacc::chaos::ChaosReport,
    attacc::cluster::FleetReport,
    attacc::chaos::FleetChaosReport,
) {
    use attacc::chaos::{
        simulate_chaos, simulate_fleet_chaos, ChaosConfig, DegradePolicy, FaultSchedule,
        FaultSpec, FleetChaosConfig, RecoveryMode,
    };
    use attacc::cluster::{
        simulate_fleet, AutoscalerConfig, FleetConfig, FleetMix, InterconnectModel, PoolConfig,
        RouterPolicy, ScaleSignal, SloSpec,
    };
    use attacc::model::{KvCacheSpec, ModelConfig};

    let model = ModelConfig::gpt3_175b();
    let kv_bytes = KvCacheSpec::of(&model).bytes_per_token;
    let scheduler = SchedulerConfig::with_capacity(
        64,
        System::dgx_attacc_full().kv_capacity_bytes(&model),
        kv_bytes,
    );
    let cluster = ClusterConfig {
        scheduler,
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(kv_bytes),
        slo: SloSpec::chatbot(),
    };
    let fleet = FleetConfig {
        prefill: Some(PoolConfig::fixed(2)),
        decode: PoolConfig::elastic(1, 2, 4),
        scheduler,
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: cluster.interconnect,
        slo: cluster.slo,
        autoscaler: Some(AutoscalerConfig {
            interval_s: 0.25,
            cold_start_s: 1.0,
            cooldown_s: 0.75,
            signal: ScaleSignal::QueueDepth { out_per_node: 48.0, in_per_node: 8.0 },
        }),
    };
    let w = ArrivalWorkload::poisson(128, 40.0, 512, (64, 128), 42);
    let spec = FaultSpec::crashes_only(3.0, 3.0);
    let crashes = |n_nodes| FaultSchedule::generate(n_nodes, 4.0, &spec, 1);
    let chaos = ChaosConfig { cluster, policy: attacc_bench::chaos_policies()[3], seed: 7 };
    let fleet_chaos = FleetChaosConfig {
        fleet,
        recovery: RecoveryMode::KvMigrate,
        degrade: DegradePolicy::full(12.0),
    };
    let (prefill, decode) = nodes.split_at(2);
    (
        simulate_cluster(&nodes[..4], &w, &cluster),
        simulate_chaos(&nodes[..4], &w, &chaos, &crashes(4)),
        simulate_fleet(prefill, decode, &w, &fleet),
        simulate_fleet_chaos(prefill, decode, &FleetMix::uniform(), &w, &fleet_chaos, &crashes(6)),
    )
}

#[test]
fn reports_equal_uncached_stage_timing() {
    // The cached Gen stage (rows-keyed parts plus the per-group attention
    // term) and the Sum cache must be an identity over the uncached
    // op-graph walk on every serving shape. No engine lock is needed: the
    // reference executors never consult the cache and no process-wide
    // state changes.
    let model = attacc::model::ModelConfig::gpt3_175b();
    let cached: Vec<SystemExecutor> =
        (0..6).map(|_| SystemExecutor::new(System::dgx_attacc_full(), &model)).collect();
    let exact: Vec<Exact> = cached.iter().map(|e| Exact(e.clone())).collect();
    let cached: Vec<&dyn StageExecutor> = cached.iter().map(|e| e as &dyn StageExecutor).collect();
    let exact: Vec<&dyn StageExecutor> = exact.iter().map(|e| e as &dyn StageExecutor).collect();

    let (cluster, chaos, fleet, fleet_chaos) = serving_shapes(&cached);
    // Each shape exercises what it is named for.
    assert!(chaos.crashes > 0 && fleet_chaos.crashes > 0, "the chaos runs must crash nodes");
    assert!(!fleet.scale_events.is_empty(), "the fleet must autoscale");
    assert!(fleet.kv_ships > 0, "the disaggregated fleet must ship KV");

    let reference = serving_shapes(&exact);
    assert_eq!(cluster, reference.0, "cached timing changed the cluster report");
    assert_eq!(chaos, reference.1, "cached timing changed the chaos report");
    assert_eq!(fleet, reference.2, "cached timing changed the fleet report");
    assert_eq!(fleet_chaos, reference.3, "cached timing changed the fleet-chaos report");
}

#[test]
fn monolithic_fleet_is_bit_exact_with_simulate_cluster() {
    use attacc::cluster::{simulate_fleet, FleetConfig, RouterPolicy};

    // The fleet layer's equivalence pin at workspace level, on the
    // irrational-cost executor: with no prefill pool, a static decode
    // pool and no autoscaler, simulate_fleet must hand back
    // simulate_cluster's exact report — same floats, not just close.
    let w = ArrivalWorkload::poisson(80, 120.0, 48, (4, 24), 17);
    let toys = [Toy, Toy, Toy];
    let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
    for policy in [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvBytes,
        RouterPolicy::SessionAffinity { spill_backlog: 4 },
    ] {
        let cfg = ClusterConfig {
            policy,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let base = simulate_cluster(&nodes, &w, &cfg);
        let fleet = simulate_fleet(&[], &nodes, &w, &FleetConfig::monolithic(&cfg, 3));
        assert_eq!(
            fleet.cluster, base,
            "monolithic fleet diverged from simulate_cluster under {}",
            policy.name()
        );
        assert_eq!((fleet.kv_ships, fleet.scale_events.len()), (0, 0));
    }
}

/// Costs built only from power-of-two factors, so every float sum a
/// report takes is exact regardless of association order — this lets the
/// disaggregated fleet, which splits one node's work across two nodes
/// (and therefore sums energies and latencies in a different order), be
/// compared bit-for-bit against the monolithic run.
struct Dyadic;
impl StageExecutor for Dyadic {
    fn sum_stage(&self, b: u64, l: u64) -> StageCost {
        StageCost { latency_s: (b * l) as f64 / 1024.0, energy_j: (b * l) as f64 / 4.0 }
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let work: u64 = groups.iter().map(|&(c, l)| c * l).sum();
        StageCost { latency_s: work as f64 / 8192.0, energy_j: work as f64 / 16.0 }
    }
}

#[test]
fn disaggregated_pair_with_free_shipping_matches_monolithic_node() {
    use attacc::cluster::{
        simulate_fleet, FleetConfig, InterconnectModel, PoolConfig, RouterPolicy, SloSpec,
    };

    // One prefill node + one decode node over a zero-cost interconnect,
    // arrivals spaced far enough apart that exactly one request is in
    // flight at a time: the prefill node runs the same Sum the
    // monolithic node would, the hand-off ships for free at the same
    // instant, and the decode node resumes with the identical Gen group
    // lengths. Every aggregate the two runs share must match bit-exactly
    // (per-node detail necessarily differs: two nodes split the work).
    let arrivals: Vec<(f64, Request)> =
        (0..12).map(|i| (i as f64, Request::new(i, 8, 2 + i % 3))).collect();
    let w = ArrivalWorkload { arrivals };
    let scheduler = SchedulerConfig::unlimited(8);
    let mono = simulate_cluster(
        &[&Dyadic],
        &w,
        &ClusterConfig::pass_through(scheduler),
    );
    let fleet = simulate_fleet(
        &[&Dyadic],
        &[&Dyadic],
        &w,
        &FleetConfig {
            prefill: Some(PoolConfig::fixed(1)),
            decode: PoolConfig::fixed(1),
            scheduler,
            policy: RouterPolicy::PassThrough,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        },
    );
    let f = &fleet.cluster;
    assert_eq!(f.completed, mono.completed);
    assert_eq!(f.abandoned, 0);
    assert_eq!(f.makespan_s.to_bits(), mono.makespan_s.to_bits(), "makespan drifted");
    assert_eq!(f.tokens_per_s.to_bits(), mono.tokens_per_s.to_bits(), "throughput drifted");
    assert_eq!(f.energy_j.to_bits(), mono.energy_j.to_bits(), "energy drifted");
    assert_eq!(f.ttft, mono.ttft, "TTFT stats drifted");
    assert_eq!(f.tbt, mono.tbt, "TBT stats drifted");
    assert_eq!(f.queue_wait, mono.queue_wait, "queue-wait stats drifted");
    assert_eq!(f.goodput, mono.goodput, "goodput drifted");
    // Every request generated ≥ 2 tokens, so every one shipped exactly
    // once; single-token completions would retire at the prefill node.
    assert_eq!(fleet.kv_ships, w.arrivals.len() as u64);
}

#[test]
fn fleet_chaos_with_zero_faults_is_bit_exact_with_fleet_mix() {
    use attacc::chaos::{simulate_fleet_chaos, FaultSchedule, FleetChaosConfig};
    use attacc::cluster::{
        simulate_fleet_mix, AutoscalerConfig, FleetConfig, FleetMix, InterconnectModel,
        PoolConfig, RouterPolicy, SloSpec,
    };

    // The fleet-scale strict-superset pin at workspace level: an empty
    // fault schedule and the inert config (re-prefill recovery, every
    // degradation lever off) must leave simulate_fleet_mix's report
    // untouched — same floats — on both a disaggregated fixed fleet and
    // a monolithic autoscaled one, under every pool router policy.
    let w = ArrivalWorkload::poisson(80, 120.0, 48, (4, 24), 17);
    let toys = [Toy, Toy, Toy, Toy];
    let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
    let mix = FleetMix::uniform();
    let fleets = [
        FleetConfig {
            prefill: Some(PoolConfig::fixed(1)),
            decode: PoolConfig::fixed(3),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        },
        FleetConfig {
            prefill: None,
            decode: PoolConfig::elastic(2, 2, 4),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.05)),
        },
    ];
    for fleet in fleets {
        let p_max = fleet.prefill.map_or(0, |p| p.max_nodes);
        for policy in [
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::WeightedLeastLoad,
        ] {
            let cfg = FleetConfig { policy, ..fleet };
            let base = simulate_fleet_mix(&nodes[..p_max], &nodes[p_max..], &mix, &w, &cfg);
            let chaos = simulate_fleet_chaos(
                &nodes[..p_max],
                &nodes[p_max..],
                &mix,
                &w,
                &FleetChaosConfig::inert(cfg),
                &FaultSchedule::none(),
            );
            assert_eq!(
                chaos.fleet,
                base,
                "zero-fault fleet-chaos run diverged from simulate_fleet_mix under {} ({})",
                policy.name(),
                if p_max > 0 { "disaggregated" } else { "monolithic" }
            );
            assert_eq!(chaos.faults_injected, 0);
            assert_eq!(chaos.availability, 1.0);
            assert_eq!((chaos.crashes, chaos.shed_requests, chaos.browned_out_requests), (0, 0, 0));
        }
    }
}

#[test]
fn fleet_chaos_frontier_is_byte_identical_across_thread_counts() {
    // A faulty fixed-seed fleet run: the frontier sweeps real crash
    // schedules through the autoscaled disaggregated fleet, so this pins
    // fault injection, recovery re-shipping, degradation and replacement
    // provisioning to byte-identical output at any parallelism.
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = attacc_bench::chaos_fleet_frontier(24).to_string();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = attacc_bench::chaos_fleet_frontier(24).to_string();
        assert_eq!(
            serial, parallel,
            "fleet-chaos frontier changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn fleet_chaos_frontier_is_byte_identical_cold_and_warm_cache() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = attacc_bench::chaos_fleet_frontier(24).to_string();
    let warm = attacc_bench::chaos_fleet_frontier(24).to_string();
    assert_eq!(cold, warm, "cache hits changed the fleet-chaos frontier");
}

#[test]
fn autoscale_frontier_is_byte_identical_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = attacc_bench::autoscale_frontier(2048).to_string();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = attacc_bench::autoscale_frontier(2048).to_string();
        assert_eq!(
            serial, parallel,
            "autoscale frontier changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn autoscale_frontier_is_byte_identical_cold_and_warm_cache() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = attacc_bench::autoscale_frontier(2048).to_string();
    let warm = attacc_bench::autoscale_frontier(2048).to_string();
    assert_eq!(cold, warm, "cache hits changed the autoscale frontier");
}

#[test]
fn integrity_with_zero_ber_is_bit_exact_with_cluster() {
    use attacc::chaos::{
        simulate_chaos, simulate_integrity, ChaosConfig, CorruptionSpec, FaultSchedule,
    };
    use attacc::cluster::RouterPolicy;

    // A clean channel over an empty fault schedule and the inert policy:
    // the integrity wrapper must hand back simulate_cluster's exact
    // report — same floats — with every corruption counter at zero.
    let w = ArrivalWorkload::poisson(80, 120.0, 48, (4, 24), 17);
    let toys = [Toy, Toy, Toy];
    let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
    let cfg = ClusterConfig {
        policy: RouterPolicy::JoinShortestQueue,
        ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
    };
    let base = simulate_cluster(&nodes, &w, &cfg);
    let chaos_cfg = ChaosConfig::inert(cfg);
    let plain = simulate_chaos(&nodes, &w, &chaos_cfg, &FaultSchedule::none());
    let r = simulate_integrity(
        &nodes,
        &w,
        &chaos_cfg,
        &FaultSchedule::none(),
        &CorruptionSpec::clean(),
    );
    assert_eq!(r.chaos.cluster, base, "zero-BER integrity run diverged from simulate_cluster");
    assert_eq!(r.chaos, plain, "zero-BER integrity run diverged from simulate_chaos");
    assert_eq!(
        (r.sdc_tokens, r.detected_tokens, r.corrected_tokens, r.corrupted_requests),
        (0, 0, 0, 0)
    );
}

#[test]
fn integrity_report_is_byte_identical_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = attacc_bench::integrity_frontier(24).to_string();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = attacc_bench::integrity_frontier(24).to_string();
        assert_eq!(
            serial, parallel,
            "integrity frontier changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn integrity_report_is_byte_identical_cold_and_warm_cache() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = attacc_bench::integrity_frontier(24).to_string();
    let warm = attacc_bench::integrity_frontier(24).to_string();
    assert_eq!(cold, warm, "cache hits changed the integrity frontier");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Cross-pin of the two chaos shapes on the same faults: a cluster
    /// chaos run whose health routing is crash-aware only (a degraded
    /// factor of ∞ never masks an up node) with retries off and
    /// re-prefill recovery must agree with an inert fleet-chaos run over
    /// the same nodes as a monolithic fleet. This is what lets one
    /// routing-mask rule serve both entry points.
    #[test]
    fn crash_aware_chaos_matches_inert_fleet_chaos(
        seed in 0u64..1_000_000,
        pol in 0usize..5,
        n_nodes in 2usize..5,
        rate in 60.0f64..400.0,
        mtbf in 0.15f64..1.0,
        mttr in 0.02f64..0.3,
    ) {
        use attacc::chaos::{
            simulate_chaos, simulate_fleet_chaos, ChaosConfig, FaultSchedule, FaultSpec,
            FleetChaosConfig, HealthConfig, ResiliencePolicy,
        };
        use attacc::cluster::{FleetConfig, FleetMix, InterconnectModel, RouterPolicy};

        let policy = [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 4 },
        ][pol];
        let cluster = ClusterConfig {
            policy,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let w = ArrivalWorkload::poisson(60, rate, 48, (4, 24), seed);
        let faults =
            FaultSchedule::generate(n_nodes, 2.0, &FaultSpec::crashes_only(mtbf, mttr), seed);
        let toys: Vec<Toy> = (0..n_nodes).map(|_| Toy).collect();
        let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();

        let health = HealthConfig { enabled: true, degraded_factor: f64::INFINITY };
        let cfg = ChaosConfig {
            cluster,
            policy: ResiliencePolicy { health, ..ResiliencePolicy::off() },
            seed: 0,
        };
        let chaos = simulate_chaos(&nodes, &w, &cfg, &faults);
        let fleet = simulate_fleet_chaos(
            &[],
            &nodes,
            &FleetMix::uniform(),
            &w,
            &FleetChaosConfig::inert(FleetConfig::monolithic(&cluster, n_nodes)),
            &faults,
        );
        proptest::prop_assert_eq!(&chaos.cluster, &fleet.fleet.cluster);
        proptest::prop_assert_eq!(chaos.crashes, fleet.crashes);
        proptest::prop_assert_eq!(chaos.availability.to_bits(), fleet.availability.to_bits());
        proptest::prop_assert_eq!(&chaos.node_downtime_s, &fleet.node_downtime_s);
        proptest::prop_assert_eq!(chaos.lost_tokens, fleet.lost_tokens);
        proptest::prop_assert_eq!(chaos.recomputed_tokens, fleet.recomputed_tokens);
        proptest::prop_assert_eq!(chaos.unique_completed, fleet.unique_completed);
        proptest::prop_assert_eq!(chaos.requests_in_slo, fleet.requests_in_slo);
        proptest::prop_assert_eq!(
            chaos.goodput_under_failure_tokens_per_s.to_bits(),
            fleet.goodput_under_failure_tokens_per_s.to_bits()
        );
    }

    /// The loop replays arrivals in stable time order, whatever order the
    /// workload lists them in. Times are quantised so several arrivals
    /// share each instant, the list is shuffled by a seeded permutation,
    /// and a chaos cluster (JSQ, generated crashes, retries) and an
    /// autoscaled disaggregated fleet under crashes must each report the
    /// same on the shuffled list as on that list sorted stably by time.
    #[test]
    fn shuffled_arrivals_replay_in_stable_time_order(
        seed in 0u64..1_000_000,
        rate in 60.0f64..400.0,
    ) {
        use attacc::chaos::{
            simulate_chaos, simulate_fleet_chaos, ChaosConfig, DegradePolicy, FaultSchedule,
            FaultSpec, FleetChaosConfig, RecoveryMode, ResiliencePolicy,
        };
        use attacc::cluster::{
            splitmix64, AutoscalerConfig, FleetConfig, FleetMix, InterconnectModel, PoolConfig,
            RouterPolicy, SloSpec,
        };

        // About four arrivals per quantum.
        let quantum = 4.0 / rate;
        let mut shuffled = ArrivalWorkload::poisson(48, rate, 48, (4, 24), seed);
        for a in &mut shuffled.arrivals {
            a.0 = (a.0 / quantum).floor() * quantum;
        }
        for i in (1..shuffled.arrivals.len()).rev() {
            let j = splitmix64(seed ^ i as u64) % (i as u64 + 1);
            shuffled.arrivals.swap(i, j as usize);
        }
        let mut sorted = shuffled.clone();
        sorted.arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        proptest::prop_assert!(
            sorted.arrivals.windows(2).any(|w| w[0].0 == w[1].0),
            "quantised times must tie"
        );
        proptest::prop_assume!(shuffled != sorted);

        let toys = [Toy, Toy, Toy, Toy];
        let nodes: Vec<&dyn StageExecutor> = toys.iter().map(|t| t as &dyn StageExecutor).collect();
        let crashes = FaultSchedule::generate(4, 2.0, &FaultSpec::crashes_only(0.3, 0.1), seed);
        let cluster = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(64),
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let chaos = ChaosConfig { cluster, policy: ResiliencePolicy::retrying(), seed: 7 };
        let fleet = FleetChaosConfig {
            fleet: FleetConfig {
                prefill: Some(PoolConfig::fixed(1)),
                decode: PoolConfig::elastic(1, 2, 3),
                scheduler: cluster.scheduler,
                policy: RouterPolicy::JoinShortestQueue,
                interconnect: cluster.interconnect,
                slo: SloSpec::chatbot(),
                autoscaler: Some(AutoscalerConfig::queue_depth(0.05)),
            },
            recovery: RecoveryMode::KvMigrate,
            degrade: DegradePolicy::full(12.0),
        };
        let (prefill, decode) = nodes.split_at(1);
        proptest::prop_assert_eq!(
            simulate_chaos(&nodes, &shuffled, &chaos, &crashes),
            simulate_chaos(&nodes, &sorted, &chaos, &crashes)
        );
        let mix = FleetMix::uniform();
        proptest::prop_assert_eq!(
            simulate_fleet_chaos(prefill, decode, &mix, &shuffled, &fleet, &crashes),
            simulate_fleet_chaos(prefill, decode, &mix, &sorted, &fleet, &crashes)
        );
    }
}
