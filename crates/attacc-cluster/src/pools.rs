//! Fleet configuration: prefill pool + decode pool + autoscaler.
//!
//! [`simulate_fleet`] generalizes [`crate::simulate_cluster`] along two
//! axes while preserving its determinism contract:
//!
//! - **Prefill/decode disaggregation** (AttAcc §division-of-labor, lifted
//!   to fleet level): arrivals route to an xPU-heavy *prefill pool* whose
//!   nodes run only the Sum stage; each finished prefill ships its KV
//!   image over the [`InterconnectModel`] (charged bytes + latency) to a
//!   PIM-heavy *decode pool* node, which resumes generation warm — no
//!   second Sum. Single-token requests finish at prefill and never ship.
//! - **Autoscaling**: an optional [`crate::Autoscaler`] evaluates each
//!   pool on a periodic `ScaleTick`, activating nodes (which accept work
//!   only after the cold-start delay) or deactivating them (they drain;
//!   the router stops considering them) within per-pool `[min, max]`
//!   bounds, with a hysteresis window forbidding out→in flapping.
//!
//! Both run in the one serving loop ([`crate::ServingLoop`]); a monolithic
//! static fleet is exactly the `simulate_cluster` shape, and
//! `tests/cluster_equivalence.rs` pins the resulting [`ClusterReport`]
//! bit-exact against it.

use crate::policy::{DegradePolicy, RecoveryMode};
use crate::report::{ClusterReport, SloSpec};
use crate::router::{Router, RouterPolicy};
use crate::scale::{AutoscalerConfig, PoolKind, ScaleEvent};
use crate::sim::{ClusterConfig, ServingLoop};
use crate::InterconnectModel;
use attacc_serving::{ArrivalWorkload, SchedulerConfig, StageExecutor};

/// Size bounds for one node pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Nodes the pool never shrinks below (≥ 1).
    pub min_nodes: usize,
    /// Nodes active (and warm) at t = 0.
    pub initial_nodes: usize,
    /// Nodes the pool never grows beyond; the fleet is provisioned with
    /// this many executors.
    pub max_nodes: usize,
}

impl PoolConfig {
    /// A fixed-size pool: `n` nodes, no elasticity.
    #[must_use]
    pub fn fixed(n: usize) -> PoolConfig {
        PoolConfig { min_nodes: n, initial_nodes: n, max_nodes: n }
    }

    /// An elastic pool starting at `initial` within `[min, max]`.
    #[must_use]
    pub fn elastic(min: usize, initial: usize, max: usize) -> PoolConfig {
        PoolConfig { min_nodes: min, initial_nodes: initial, max_nodes: max }
    }

    /// Checks `1 ≤ min ≤ initial ≤ max`.
    ///
    /// # Panics
    /// Panics when the bounds are inconsistent.
    pub fn validate(&self, pool: &str) {
        assert!(self.min_nodes >= 1, "{pool} pool needs at least one node");
        assert!(
            self.min_nodes <= self.initial_nodes && self.initial_nodes <= self.max_nodes,
            "{pool} pool bounds must satisfy min <= initial <= max, got [{}, {}, {}]",
            self.min_nodes,
            self.initial_nodes,
            self.max_nodes,
        );
    }
}

/// Everything a fleet run needs besides executors and a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// The prefill pool; `None` = monolithic fleet (decode nodes run the
    /// full Sum + Gen lifecycle, exactly `simulate_cluster`).
    pub prefill: Option<PoolConfig>,
    /// The decode pool (the only pool in a monolithic fleet).
    pub decode: PoolConfig,
    /// Per-node scheduler limits (batch cap, KV capacity), shared by both
    /// pools.
    pub scheduler: SchedulerConfig,
    /// Routing policy, used independently by each pool's router.
    pub policy: RouterPolicy,
    /// Prompt-shipping / KV-shipping cost model.
    pub interconnect: InterconnectModel,
    /// Latency SLO for goodput accounting.
    pub slo: SloSpec,
    /// Optional autoscaler; `None` = both pools stay at `initial_nodes`.
    pub autoscaler: Option<AutoscalerConfig>,
}

impl FleetConfig {
    /// The equivalence configuration: a static monolithic fleet of
    /// `nodes` decode nodes under `cluster`'s scheduler, policy,
    /// interconnect and SLO — bit-exact with
    /// [`crate::simulate_cluster`] over the same executors.
    #[must_use]
    pub fn monolithic(cluster: &ClusterConfig, nodes: usize) -> FleetConfig {
        FleetConfig {
            prefill: None,
            decode: PoolConfig::fixed(nodes),
            scheduler: cluster.scheduler,
            policy: cluster.policy,
            interconnect: cluster.interconnect,
            slo: cluster.slo,
            autoscaler: None,
        }
    }
}

/// Heterogeneity of one pool: per-node relative throughput and optional
/// per-node scheduler limits. Node order is the executor order — the
/// autoscaler activates nodes first-inactive-first and drains them
/// last-active-first, so callers should list always-on variants before
/// burst variants.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolMix {
    /// Relative decode-throughput weight per potential node (one entry
    /// per `max_nodes`, or empty = homogeneous, all 1.0). Consumed by
    /// [`RouterPolicy::WeightedLeastLoad`] and by the autoscaler, whose
    /// per-node watermarks become per-*capacity-unit* watermarks.
    pub weights: Vec<f64>,
    /// Per-node scheduler limits (batch cap, KV capacity) overriding the
    /// shared [`FleetConfig::scheduler`] (one entry per `max_nodes`, or
    /// empty = shared). `kv_bytes_per_token` is a model property and must
    /// match the shared scheduler's on every entry.
    pub schedulers: Vec<SchedulerConfig>,
}

impl PoolMix {
    /// Checks lengths against the pool bounds and weight sanity.
    ///
    /// # Panics
    /// Panics when a length or weight is inconsistent.
    pub fn validate(&self, pool: &str, max_nodes: usize, shared: &SchedulerConfig) {
        assert!(
            self.weights.is_empty() || self.weights.len() == max_nodes,
            "{pool} mix needs one weight per potential node ({max_nodes}), got {}",
            self.weights.len()
        );
        for (i, &w) in self.weights.iter().enumerate() {
            assert!(w.is_finite() && w > 0.0, "{pool} node {i} weight must be positive, got {w}");
        }
        assert!(
            self.schedulers.is_empty() || self.schedulers.len() == max_nodes,
            "{pool} mix needs one scheduler per potential node ({max_nodes}), got {}",
            self.schedulers.len()
        );
        for (i, s) in self.schedulers.iter().enumerate() {
            assert_eq!(
                s.kv_bytes_per_token, shared.kv_bytes_per_token,
                "{pool} node {i}: kv_bytes_per_token is a model property and must match \
                 the shared scheduler"
            );
        }
    }
}

/// Heterogeneous fleet composition: a [`PoolMix`] per pool. The default
/// ([`FleetMix::uniform`]) is byte-identical to [`simulate_fleet`]
/// without a mix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetMix {
    /// Prefill-pool heterogeneity (ignored for monolithic fleets).
    pub prefill: PoolMix,
    /// Decode-pool heterogeneity.
    pub decode: PoolMix,
}

impl FleetMix {
    /// The homogeneous mix: unit weights, shared scheduler.
    #[must_use]
    pub fn uniform() -> FleetMix {
        FleetMix::default()
    }
}

/// Outcome of a fleet simulation: the cluster-shaped report plus the
/// fleet-level accounting the frontier tables need.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Aggregate report over *all* provisioned nodes (prefill pool first,
    /// then decode), in global node order.
    pub cluster: ClusterReport,
    /// Whether a prefill pool was configured.
    pub disaggregated: bool,
    /// Node-seconds consumed: Σ over nodes of (deactivation −
    /// activation), cold-start time included — booting capacity is paid
    /// capacity. The cost axis of the autoscaling frontier.
    pub node_seconds: f64,
    /// Per global node index: that node's share of [`node_seconds`]
    /// (activation periods summed, cold start included). The cost layer
    /// bills CapEx amortization and idle wattage per node from this,
    /// which is what makes heterogeneous-fleet $ attribution possible.
    ///
    /// [`node_seconds`]: FleetReport::node_seconds
    pub node_active_s: Vec<f64>,
    /// Node-seconds spent inside cold-start spin-up windows (scale-out
    /// instant → warm). Already included in [`node_seconds`] and
    /// [`node_active_s`]; broken out so the cost layer can show that
    /// spin-up is billed at idle wattage, not zero.
    ///
    /// [`node_seconds`]: FleetReport::node_seconds
    /// [`node_active_s`]: FleetReport::node_active_s
    pub cold_start_node_s: f64,
    /// Peak active prefill-pool size (0 for monolithic fleets).
    pub prefill_peak_nodes: usize,
    /// Peak active decode-pool size.
    pub decode_peak_nodes: usize,
    /// Prefill→decode KV shipments.
    pub kv_ships: u64,
    /// Bytes moved by those shipments.
    pub kv_shipped_bytes: u64,
    /// Every applied scale action, in decision order.
    pub scale_events: Vec<ScaleEvent>,
    /// Per global node index: the first time the router dispatched a
    /// request to the node (`None` = never) — the property tests check
    /// cold starts against this.
    pub first_route_s: Vec<Option<f64>>,
}

/// Per-pool bookkeeping of the serving loop: routing, eligibility and
/// billing state for one pool's slice of the global node indices.
pub(crate) struct Pool {
    /// Which pool this is (prefill or decode).
    pub kind: PoolKind,
    /// Global node-index range `[base, base + cfg.max_nodes)`.
    pub base: usize,
    /// Size bounds.
    pub cfg: PoolConfig,
    /// The pool's router (each pool routes independently).
    pub router: Router,
    /// Routable flag per pool-local node.
    pub active: Vec<bool>,
    /// Earliest time each pool-local node may accept work (−∞ until a
    /// scale-out stamps a cold start).
    pub warm_at: Vec<f64>,
    /// Activation time of each currently active node (for node-second
    /// billing), `None` when inactive or down.
    pub active_since: Vec<Option<f64>>,
    /// Relative throughput weight per pool-local node (all 1.0 for a
    /// homogeneous pool).
    pub weights: Vec<f64>,
    /// Per-node KV capacities when the pool's mix overrides the shared
    /// scheduler; `None` keeps the homogeneous capacity formula (and its
    /// exact float-op order).
    pub kv_caps: Option<Vec<u64>>,
    /// Requests routed to this pool since the last scale tick.
    pub arrivals_since_tick: u64,
    /// Largest simultaneous active-node count seen so far.
    pub peak_active: usize,
}

impl Pool {
    /// A pool at its initial size routing under `policy`.
    pub fn new(
        kind: PoolKind,
        base: usize,
        cfg: PoolConfig,
        mix: &PoolMix,
        policy: RouterPolicy,
    ) -> Pool {
        Pool {
            kind,
            base,
            cfg,
            router: Router::new(policy),
            active: (0..cfg.max_nodes).map(|i| i < cfg.initial_nodes).collect(),
            warm_at: vec![f64::NEG_INFINITY; cfg.max_nodes],
            active_since: (0..cfg.max_nodes)
                .map(|i| if i < cfg.initial_nodes { Some(0.0) } else { None })
                .collect(),
            weights: if mix.weights.is_empty() {
                vec![1.0; cfg.max_nodes]
            } else {
                mix.weights.clone()
            },
            kv_caps: if mix.schedulers.is_empty() {
                None
            } else {
                Some(mix.schedulers.iter().map(|s| s.kv_capacity_bytes).collect())
            },
            arrivals_since_tick: 0,
            peak_active: cfg.initial_nodes,
        }
    }

    /// Number of active (routable) nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Summed throughput weight of the active nodes.
    pub fn active_weight(&self) -> f64 {
        self.active
            .iter()
            .zip(&self.weights)
            .filter_map(|(&a, &w)| a.then_some(w))
            .sum()
    }

    /// Number of active nodes that are also up under the global crash
    /// mask — what a failure-aware autoscaler counts as capacity. With an
    /// all-`true` mask this equals [`Pool::active_count`].
    pub fn available_count(&self, up: &[bool]) -> usize {
        (0..self.cfg.max_nodes).filter(|&i| self.active[i] && up[self.base + i]).count()
    }

    /// Summed throughput weight of the active-and-up nodes. Iterates in
    /// the same index order as [`Pool::active_weight`], so with an
    /// all-`true` mask the float sum is bit-identical.
    pub fn available_weight(&self, up: &[bool]) -> f64 {
        (0..self.cfg.max_nodes)
            .filter(|&i| self.active[i] && up[self.base + i])
            .map(|i| self.weights[i])
            .sum()
    }
}

/// Runs `workload` through a disaggregated (or monolithic) fleet.
///
/// `prefill_nodes` provisions the prefill pool (one executor per
/// potential node, `cfg.prefill.max_nodes` of them; pass `&[]` for a
/// monolithic fleet) and `decode_nodes` the decode pool
/// (`cfg.decode.max_nodes` executors). Global node indices run prefill
/// pool first, then decode.
///
/// The run is strictly serial and a pure function of its inputs: same
/// workload + config → byte-identical [`FleetReport`] at any thread
/// count and with a cold or warm timing cache.
///
/// # Panics
/// Panics if the executor slices do not match the pool bounds, the pool
/// bounds are inconsistent, or `cfg.scheduler.max_batch` is zero.
#[must_use]
pub fn simulate_fleet(
    prefill_nodes: &[&dyn StageExecutor],
    decode_nodes: &[&dyn StageExecutor],
    workload: &ArrivalWorkload,
    cfg: &FleetConfig,
) -> FleetReport {
    simulate_fleet_mix(prefill_nodes, decode_nodes, &FleetMix::uniform(), workload, cfg)
}

/// [`simulate_fleet`] over a heterogeneous [`FleetMix`]: each node may be
/// a different `SystemKind` (the caller passes the matching executor),
/// carry its own scheduler limits, and advertise its relative throughput
/// to the router ([`RouterPolicy::WeightedLeastLoad`]) and the
/// autoscaler (per-capacity-unit watermarks, capacity-weighted KV
/// occupancy). With [`FleetMix::uniform`] this is byte-identical to
/// [`simulate_fleet`].
///
/// # Panics
/// Panics if the executor slices or mix vectors do not match the pool
/// bounds, the pool bounds are inconsistent, or a scheduler's
/// `max_batch` is zero.
#[must_use]
pub fn simulate_fleet_mix(
    prefill_nodes: &[&dyn StageExecutor],
    decode_nodes: &[&dyn StageExecutor],
    mix: &FleetMix,
    workload: &ArrivalWorkload,
    cfg: &FleetConfig,
) -> FleetReport {
    let mut sim = ServingLoop::fleet(
        prefill_nodes,
        decode_nodes,
        mix,
        cfg,
        RecoveryMode::Reprefill,
        DegradePolicy::off(),
    );
    sim.track = false;
    sim.run(workload).fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_cluster, ScaleDirection};
    use attacc_serving::StageCost;

    struct Toy;
    impl StageExecutor for Toy {
        fn sum_stage(&self, b: u64, l: u64) -> StageCost {
            StageCost { latency_s: 1e-6 * (b * l) as f64, energy_j: 0.1 * b as f64 }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost { latency_s: 5e-4 + 1e-6 * n as f64, energy_j: 0.01 * n as f64 }
        }
    }

    fn workload() -> ArrivalWorkload {
        ArrivalWorkload::poisson(60, 80.0, 64, (4, 12), 13)
    }

    #[test]
    fn monolithic_fleet_matches_simulate_cluster_bit_exactly() {
        let w = workload();
        for policy in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 2 },
        ] {
            let ccfg = ClusterConfig {
                policy,
                ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
            };
            let base = simulate_cluster(&[&Toy, &Toy, &Toy], &w, &ccfg);
            let fleet =
                simulate_fleet(&[], &[&Toy, &Toy, &Toy], &w, &FleetConfig::monolithic(&ccfg, 3));
            assert_eq!(fleet.cluster, base, "policy {}", policy.name());
            assert!(!fleet.disaggregated);
            assert_eq!(fleet.kv_ships, 0);
            assert!(fleet.scale_events.is_empty());
            // Static fleet: every node is billed for the whole makespan.
            assert!((fleet.node_seconds - 3.0 * base.makespan_s).abs() < 1e-9);
        }
    }

    #[test]
    fn disaggregated_fleet_completes_everything_and_ships_kv() {
        let w = workload();
        let cfg = FleetConfig {
            prefill: Some(PoolConfig::fixed(2)),
            decode: PoolConfig::fixed(2),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(1 << 10),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        };
        let r = simulate_fleet(&[&Toy, &Toy], &[&Toy, &Toy], &w, &cfg);
        assert!(r.disaggregated);
        assert_eq!(r.cluster.completed, 60);
        assert_eq!(r.cluster.abandoned, 0);
        // Every multi-token request shipped exactly once.
        let multi = w.arrivals.iter().filter(|(_, r)| r.l_out > 1).count() as u64;
        assert_eq!(r.kv_ships, multi);
        assert!(r.kv_shipped_bytes > 0);
        // Prefill nodes produce exactly one token per request (the Sum
        // first token) and complete only the single-token requests;
        // decode nodes complete everything that shipped.
        let prefill_tokens: u64 = r.cluster.nodes[..2].iter().map(|nr| nr.tokens).sum();
        assert_eq!(prefill_tokens, w.arrivals.len() as u64);
        let decode_completed: u64 = r.cluster.nodes[2..].iter().map(|nr| nr.completed).sum();
        assert_eq!(decode_completed, multi);
    }

    #[test]
    fn autoscaler_grows_under_load_and_respects_bounds() {
        // A hard burst at t=0 against a 1-node initial pool.
        let w = ArrivalWorkload::poisson(80, 2000.0, 64, (8, 16), 3);
        let cfg = FleetConfig {
            prefill: None,
            decode: PoolConfig::elastic(1, 1, 4),
            scheduler: SchedulerConfig::unlimited(4),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.005)),
        };
        let r = simulate_fleet(&[], &[&Toy, &Toy, &Toy, &Toy], &w, &cfg);
        assert_eq!(r.cluster.completed, 80);
        assert!(!r.scale_events.is_empty(), "the burst must trigger scale-out");
        assert!(r.decode_peak_nodes > 1 && r.decode_peak_nodes <= 4);
        for e in &r.scale_events {
            assert!(e.to_nodes >= 1 && e.to_nodes <= 4);
        }
        // Autoscaled cost is below the always-on-4-nodes bill.
        assert!(r.node_seconds < 4.0 * r.cluster.makespan_s + 1e-9);
    }

    #[test]
    fn fleet_is_a_pure_function_of_its_inputs() {
        let w = workload();
        let cfg = FleetConfig {
            prefill: Some(PoolConfig::elastic(1, 1, 3)),
            decode: PoolConfig::elastic(1, 2, 3),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::RoundRobin,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(256),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.01)),
        };
        let nodes: [&dyn StageExecutor; 3] = [&Toy, &Toy, &Toy];
        let a = simulate_fleet(&nodes, &nodes, &w, &cfg);
        let b = simulate_fleet(&nodes, &nodes, &w, &cfg);
        assert_eq!(a, b);
    }

    /// A toy executor `speed`× faster than [`Toy`].
    struct FastToy(f64);
    impl StageExecutor for FastToy {
        fn sum_stage(&self, b: u64, l: u64) -> StageCost {
            let base = Toy.sum_stage(b, l);
            StageCost { latency_s: base.latency_s / self.0, energy_j: base.energy_j }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let base = Toy.gen_stage(groups);
            StageCost { latency_s: base.latency_s / self.0, energy_j: base.energy_j }
        }
    }

    #[test]
    fn uniform_mix_is_bit_exact_with_simulate_fleet() {
        let w = workload();
        let cfg = FleetConfig {
            prefill: Some(PoolConfig::elastic(1, 1, 3)),
            decode: PoolConfig::elastic(1, 2, 3),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(256),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.01)),
        };
        let nodes: [&dyn StageExecutor; 3] = [&Toy, &Toy, &Toy];
        let plain = simulate_fleet(&nodes, &nodes, &w, &cfg);
        let mixed = simulate_fleet_mix(&nodes, &nodes, &FleetMix::uniform(), &w, &cfg);
        assert_eq!(plain, mixed);
    }

    #[test]
    fn weighted_routing_loads_fast_nodes_proportionally() {
        let w = ArrivalWorkload::poisson(200, 400.0, 64, (4, 12), 7);
        let fast = FastToy(4.0);
        let nodes: [&dyn StageExecutor; 2] = [&Toy, &fast];
        let cfg = FleetConfig {
            prefill: None,
            decode: PoolConfig::fixed(2),
            scheduler: SchedulerConfig::unlimited(8),
            policy: RouterPolicy::WeightedLeastLoad,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        };
        let mix = FleetMix {
            prefill: PoolMix::default(),
            decode: PoolMix { weights: vec![1.0, 4.0], schedulers: vec![] },
        };
        let r = simulate_fleet_mix(&[], &nodes, &mix, &w, &cfg);
        assert_eq!(r.cluster.completed, 200);
        let slow_tokens = r.cluster.nodes[0].tokens as f64;
        let fast_tokens = r.cluster.nodes[1].tokens as f64;
        assert!(
            fast_tokens > 2.0 * slow_tokens,
            "4×-weighted node should absorb most of the work: {fast_tokens} vs {slow_tokens}"
        );
    }

    #[test]
    fn per_node_schedulers_cap_batch_independently() {
        // Burst arrivals: everything lands before the first round ends, so
        // the batch-8 node can actually batch while the batch-1 node can't.
        let w = ArrivalWorkload::poisson(40, 50_000.0, 64, (4, 8), 11);
        let nodes: [&dyn StageExecutor; 2] = [&Toy, &Toy];
        let shared = SchedulerConfig::unlimited(8);
        let cfg = FleetConfig {
            prefill: None,
            decode: PoolConfig::fixed(2),
            scheduler: shared,
            policy: RouterPolicy::RoundRobin,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        };
        let mix = FleetMix {
            prefill: PoolMix::default(),
            decode: PoolMix {
                weights: vec![],
                schedulers: vec![SchedulerConfig::unlimited(1), SchedulerConfig::unlimited(8)],
            },
        };
        let r = simulate_fleet_mix(&[], &nodes, &mix, &w, &cfg);
        assert_eq!(r.cluster.completed, 40);
        // Node 0 serializes (batch 1): one gen round per token, so its
        // fixed per-round cost dominates and it stays busy far longer
        // than the batch-8 node despite an even request split.
        assert!(r.cluster.nodes[0].busy_s > 2.0 * r.cluster.nodes[1].busy_s);
    }

    #[test]
    fn node_active_seconds_sum_to_the_fleet_meter() {
        let w = ArrivalWorkload::poisson(80, 2000.0, 64, (8, 16), 3);
        let cfg = FleetConfig {
            prefill: None,
            decode: PoolConfig::elastic(1, 1, 4),
            scheduler: SchedulerConfig::unlimited(4),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.005)),
        };
        let r = simulate_fleet(&[], &[&Toy, &Toy, &Toy, &Toy], &w, &cfg);
        let sum: f64 = r.node_active_s.iter().sum();
        assert!((sum - r.node_seconds).abs() < 1e-9, "{sum} vs {}", r.node_seconds);
        assert_eq!(r.node_active_s.len(), 4);
    }

    #[test]
    fn cold_start_spin_up_is_metered_not_free() {
        // Burst → scale-out with a 10 ms cold start: the spin-up windows
        // must appear in the meter so the cost layer can bill them at
        // idle wattage (the pre-fix behavior charged them zero joules).
        let w = ArrivalWorkload::poisson(80, 2000.0, 64, (8, 16), 3);
        let cfg = FleetConfig {
            prefill: None,
            decode: PoolConfig::elastic(1, 1, 4),
            scheduler: SchedulerConfig::unlimited(4),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig::queue_depth(0.005)),
        };
        let r = simulate_fleet(&[], &[&Toy, &Toy, &Toy, &Toy], &w, &cfg);
        let outs =
            r.scale_events.iter().filter(|e| e.direction == ScaleDirection::Out).count() as f64;
        assert!(outs > 0.0, "the burst must trigger scale-out");
        let cold = AutoscalerConfig::queue_depth(0.005).cold_start_s;
        assert!(
            r.cold_start_node_s > 0.0 && r.cold_start_node_s <= outs * cold + 1e-12,
            "spin-up meter {} vs {} scale-outs × {cold}s",
            r.cold_start_node_s,
            outs
        );
        // Spin-up is part of (not additional to) the node-second bill.
        assert!(r.cold_start_node_s <= r.node_seconds);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_mix_weights_are_rejected() {
        let cfg = FleetConfig::monolithic(
            &ClusterConfig::pass_through(SchedulerConfig::unlimited(4)),
            2,
        );
        let mix = FleetMix {
            prefill: PoolMix::default(),
            decode: PoolMix { weights: vec![1.0, 0.0], schedulers: vec![] },
        };
        let _ = simulate_fleet_mix(&[], &[&Toy, &Toy], &mix, &workload(), &cfg);
    }

    #[test]
    #[should_panic(expected = "one executor per potential node")]
    fn executor_count_must_match_pool_bounds() {
        let cfg = FleetConfig::monolithic(
            &ClusterConfig::pass_through(SchedulerConfig::unlimited(4)),
            2,
        );
        let _ = simulate_fleet(&[], &[&Toy], &workload(), &cfg);
    }
}
