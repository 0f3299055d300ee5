//! The serving event loop: the one Arrival → Deliver → NodeReady loop
//! behind every cluster, fleet and chaos entry point.
//!
//! [`ServingLoop`] replays an [`ArrivalWorkload`] through an optional
//! prefill pool and a decode pool of [`NodeEngine`]s, each pool behind its
//! own [`Router`], over a shared [`InterconnectModel`], advancing a
//! virtual clock through a deterministic [`EventQueue`]. It handles every
//! [`EventKind`]: traffic (arrivals, deliveries, node wake-ups), the
//! autoscaler's ticks, fault transitions (crashes, repairs, stragglers,
//! link degradation) and timers (retries, hedges, storm-guard
//! re-dispatches). The policies it obeys are plain data — a
//! [`ResiliencePolicy`] and a [`DegradePolicy`] — read directly.
//!
//! Five entry points wrap it: [`simulate_cluster`] here,
//! [`crate::simulate_fleet`] and [`crate::simulate_fleet_mix`] in the
//! fleet module, and `simulate_chaos` / `simulate_fleet_chaos` in
//! `attacc-chaos` through [`ServingLoop::cluster`] and
//! [`ServingLoop::fleet`], which pre-load the fault transitions with
//! [`ServingLoop::queue`]. A run is strictly serial — parallelism lives
//! one level up, in the `attacc-sim` sweep runner fanning out over
//! independent cells — so the same inputs produce byte-identical reports
//! at any thread count and with a cold or warm timing cache.
//!
//! Every fault and policy path is exactly inert when unused: routing
//! skips the up-mask while every node is up, a link factor of `1.0`
//! multiplies delays by exactly `1.0`, and no timer exists unless a
//! policy arms one. That is what pins a fault-free run of every shape to
//! the same floats (`tests/cluster_equivalence.rs`).
//!
//! [`Router`]: crate::Router

use crate::event::{EventKind, EventQueue};
use crate::interconnect::InterconnectModel;
use crate::policy::{BrownoutConfig, DegradePolicy, HealthConfig, RecoveryMode, ResiliencePolicy};
use crate::pools::{FleetConfig, FleetMix, FleetReport, Pool, PoolConfig, PoolMix};
use crate::report::{ClusterReport, SloSpec};
use crate::router::{splitmix64, NodeLoad, RouterPolicy};
use crate::scale::{Autoscaler, PoolKind, PoolObservation, ScaleDirection, ScaleEvent};
use attacc_model::Request;
use attacc_serving::{
    ArrivalWorkload, NodeEngine, NodeRole, RetryPolicy, SchedulerConfig, StageExecutor,
};

/// Everything a cluster run needs besides executors and a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Per-node scheduler limits (batch cap, KV capacity).
    pub scheduler: SchedulerConfig,
    /// Front-door routing policy.
    pub policy: RouterPolicy,
    /// Prompt-shipping / KV-migration cost model.
    pub interconnect: InterconnectModel,
    /// Latency SLO for goodput accounting.
    pub slo: SloSpec,
}

impl ClusterConfig {
    /// The equivalence configuration: pass-through routing over an ideal
    /// interconnect — a 1-node cluster under this config reproduces
    /// [`attacc_serving::simulate_open_loop`] bit-for-bit.
    #[must_use]
    pub fn pass_through(scheduler: SchedulerConfig) -> ClusterConfig {
        ClusterConfig {
            scheduler,
            policy: RouterPolicy::PassThrough,
            interconnect: InterconnectModel::ideal(),
            slo: SloSpec::chatbot(),
        }
    }
}

/// Runs `workload` through a cluster of one node per executor in `nodes`.
///
/// Every request is routed at its arrival instant from a deterministic
/// load snapshot, pays the interconnect's prompt-shipping delay (plus a
/// KV-migration delay when a session-affinity spill moves its cached
/// prefix), then queues at its node, which serves rounds of the
/// iteration-level scheduler until drained.
///
/// # Panics
/// Panics if `nodes` is empty or `cfg.scheduler.max_batch` is zero.
#[must_use]
pub fn simulate_cluster(
    nodes: &[&dyn StageExecutor],
    workload: &ArrivalWorkload,
    cfg: &ClusterConfig,
) -> ClusterReport {
    let mut sim = ServingLoop::cluster(nodes, cfg, ResiliencePolicy::off(), 0);
    sim.track = false;
    sim.run(workload).fleet.cluster
}

/// Per-request outcome of a tracked run — the request-level view the
/// integrity layer folds corruption events into (a corrupted token can
/// demote an otherwise-good request without re-running the event loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Logical request id (arrival order).
    pub id: u64,
    /// Output tokens the request generated.
    pub l_out: u64,
    /// Whether its earliest first token met the TTFT SLO.
    pub in_slo: bool,
}

/// Failure-side counters of one run (all zero in a fault-free run under
/// the `off` policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Node crashes that fired.
    pub crashes: u64,
    /// Retry re-dispatches issued.
    pub retries: u64,
    /// Hedged duplicate dispatches issued.
    pub hedges: u64,
    /// Requests whose retry budget ran out while waiting.
    pub timeouts_exhausted: u64,
    /// Output tokens destroyed by crashes (generated, then lost with the
    /// KV state).
    pub lost_tokens: u64,
    /// Context tokens recomputed by re-prefill recovery.
    pub recomputed_tokens: u64,
    /// Context tokens recovered warm from a surviving KV image.
    pub migrated_kv_tokens: u64,
    /// Warm crash recoveries shipped straight into the decode pool.
    pub recovery_reships: u64,
    /// Bytes moved by those recovery re-ships.
    pub recovery_reshipped_bytes: u64,
    /// Arrivals rejected by admission control.
    pub shed_requests: u64,
    /// Output tokens the shed arrivals would have generated.
    pub shed_tokens: u64,
    /// Arrivals admitted with a brownout-shrunk decode length.
    pub browned_out: u64,
    /// Crash-displaced re-dispatches deferred by the storm guard.
    pub deferred_redispatches: u64,
}

/// What one run of the serving loop measured: the fleet report plus the
/// failure and request-level accounting both chaos reports are built
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopOutcome {
    /// The fleet report; its `cluster` is the engine-level aggregate,
    /// counting every dispatched copy of a request.
    pub fleet: FleetReport,
    /// Failure-side counters.
    pub counters: FaultCounters,
    /// Per-node downtime within the makespan (s).
    pub node_downtime_s: Vec<f64>,
    /// `1 − Σ downtime / (nodes × makespan)`, downtime clamped to the
    /// makespan.
    pub availability: f64,
    /// Logical requests that completed at least once (tracked runs).
    pub unique_completed: u64,
    /// Completions beyond the first per request — duplicated work from
    /// retries and hedges.
    pub duplicate_completions: u64,
    /// Completed requests whose earliest first token met their TTFT SLO.
    pub requests_in_slo: u64,
    /// Output tokens of SLO-met completed requests per second of
    /// makespan.
    pub goodput_under_failure_tokens_per_s: f64,
    /// One entry per completed logical request, in request-id order.
    pub request_outcomes: Vec<RequestOutcome>,
}

/// Request ids interned to dense indices so per-request state lives in a
/// flat `Vec` instead of a `BTreeMap`. The workload generators assign
/// dense ids `0..n` (detected at build time), making a lookup a plain
/// index; arbitrary id sets fall back to binary search over the sorted
/// ids. Either way index order equals ascending id order, which keeps
/// report iteration byte-identical to a `BTreeMap` walk.
#[derive(Debug, Default)]
struct RequestIndex {
    /// Number of distinct ids.
    len: usize,
    /// Sorted unique ids; empty when ids are exactly `0..len`.
    sparse: Vec<u64>,
}

impl RequestIndex {
    /// # Panics
    /// Panics if two arrivals share a request id: trackers, retries,
    /// hedges and outcomes are keyed by id, so a repeat would overwrite
    /// the earlier arrival's tracker and drop it from the report.
    fn build(workload: &ArrivalWorkload) -> RequestIndex {
        let mut ids: Vec<u64> = workload.arrivals.iter().map(|&(_, r)| r.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            panic!("request id {} arrives more than once; a tracked run needs unique ids", w[0]);
        }
        let dense = ids.iter().enumerate().all(|(i, &id)| id == i as u64);
        RequestIndex { len: ids.len(), sparse: if dense { Vec::new() } else { ids } }
    }

    fn index_of(&self, id: u64) -> usize {
        if self.sparse.is_empty() {
            id as usize
        } else {
            self.sparse.binary_search(&id).expect("tracked request id")
        }
    }

    fn id_at(&self, idx: usize) -> u64 {
        if self.sparse.is_empty() {
            idx as u64
        } else {
            self.sparse[idx]
        }
    }
}

/// Per-logical-request bookkeeping, stored in a flat `Vec` indexed by the
/// interned request id so iteration order — and therefore every derived
/// statistic — is deterministic.
#[derive(Debug, Clone, Copy)]
struct Track {
    /// Front-door arrival time.
    arrival_s: f64,
    /// The request as admitted (brownout may shrink `l_out`); retries and
    /// hedges re-dispatch it.
    request: Request,
    /// The TTFT SLO this request is held to (brownout may relax it).
    ttft_slo_s: f64,
    /// Dispatch attempts so far (initial dispatch = 1).
    attempts: u32,
    /// Whether the hedged duplicate has been issued.
    hedged: bool,
    /// Earliest first token across all copies.
    first_token_s: Option<f64>,
    /// Earliest completion across all copies.
    completed_s: Option<f64>,
    /// Copies that ran to completion (> 1 means duplicated work).
    completions: u64,
    /// Rejected at admission; never dispatched.
    shed: bool,
}

/// Global node `g`'s load as the router sees it: outstanding requests
/// (in flight + queued + active) and committed KV tokens (in flight +
/// pledged).
fn load_of(
    in_flight: &[u64],
    in_flight_tokens: &[u64],
    engines: &[NodeEngine],
    g: usize,
) -> NodeLoad {
    NodeLoad {
        backlog: in_flight[g] + engines[g].queued_len() as u64 + engines[g].active_len() as u64,
        kv_tokens: in_flight_tokens[g] + engines[g].pledged_tokens(),
    }
}

/// A crash-displaced re-dispatch parked by the storm guard, keyed by the
/// slot its `Timer { attempt: 0, .. }` names.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    arrival_s: f64,
    request: Request,
    warm: bool,
}

/// The one serving event loop (see the module docs). Build it with
/// [`ServingLoop::cluster`] or [`ServingLoop::fleet`], pre-load fault
/// transitions through [`ServingLoop::queue`], then [`ServingLoop::run`]
/// it.
pub struct ServingLoop<'a> {
    fleet: FleetConfig,
    resilience: ResiliencePolicy,
    degrade: DegradePolicy,
    /// Seed for retry-jitter draws.
    seed: u64,
    /// Whether a warm crash recovery re-enters through the front door,
    /// paying the prompt ship plus the KV image (the cluster shape), or
    /// ships only the KV image into the decode pool (the fleet shape).
    warm_via_front_door: bool,
    /// Whether to keep per-request trackers (request-level outcomes;
    /// retry and hedge timers read them). The fault-free entry points
    /// switch it off.
    pub(crate) track: bool,
    engines: Vec<NodeEngine<'a>>,
    prefill_pool: Option<Pool>,
    decode_pool: Pool,
    autoscaler: Option<Autoscaler>,
    q: EventQueue,
    /// Requests routed but not yet delivered, per node — part of the
    /// load snapshot so a burst routed within one transfer window still
    /// spreads.
    in_flight: Vec<u64>,
    in_flight_tokens: Vec<u64>,
    /// Whether a NodeReady event is pending for each node (at most one).
    ready_scheduled: Vec<bool>,
    /// End of each node's last round. A delivery landing mid-round must
    /// not start a new round before this horizon: the single-node
    /// scheduler's clock never rewinds within a busy stretch.
    busy_until: Vec<f64>,
    first_route_s: Vec<Option<f64>>,
    up: Vec<bool>,
    /// Nodes currently down; routing skips the up-mask while it is zero.
    n_down: usize,
    link_factor: f64,
    /// EWMA of per-token round latency per node, the degraded-node
    /// signal; empty unless health routing excludes degraded nodes.
    ewma: Vec<Option<f64>>,
    makespan: f64,
    ids: RequestIndex,
    trackers: Vec<Option<Track>>,
    deferred: Vec<Option<Deferred>>,
    /// Every node's [`load_of`], kept current: refreshed whenever a
    /// dispatch, KV ship, delivery, round or crash changes it, so routing
    /// reads it instead of rebuilding it from the engines.
    loads: Vec<NodeLoad>,
    handoffs: Vec<(f64, f64, Request)>,
    scale_events: Vec<ScaleEvent>,
    node_seconds: f64,
    node_active_s: Vec<f64>,
    cold_start_node_s: f64,
    kv_ships: u64,
    kv_shipped_bytes: u64,
    c: FaultCounters,
    /// `(node, down_s, up_s)` windows, clamped to the makespan at the end.
    downtime: Vec<(usize, f64, f64)>,
    down_since: Vec<Option<f64>>,
}

impl<'a> ServingLoop<'a> {
    /// A static cluster of one node per executor in `nodes` under the
    /// resilience `policy` (retry jitter drawn from `seed`). Warm crash
    /// recovery re-enters through the front door.
    ///
    /// # Panics
    /// Panics if `nodes` is empty or `cfg.scheduler.max_batch` is zero.
    #[must_use]
    pub fn cluster(
        nodes: &[&'a dyn StageExecutor],
        cfg: &ClusterConfig,
        policy: ResiliencePolicy,
        seed: u64,
    ) -> ServingLoop<'a> {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        let (fleet, mix) = (FleetConfig::monolithic(cfg, nodes.len()), FleetMix::uniform());
        let mut sim = ServingLoop::new(&[], nodes, &mix, &fleet, policy, DegradePolicy::off());
        sim.seed = seed;
        sim.warm_via_front_door = true;
        sim
    }

    /// A disaggregated (or monolithic), possibly autoscaled fleet with
    /// crash-aware routing, `recovery` for crash-displaced work and the
    /// `degrade` levers. Global node indices run prefill pool first, then
    /// decode.
    ///
    /// # Panics
    /// Panics if the executor slices or mix vectors do not match the pool
    /// bounds, the pool bounds or degrade knobs are inconsistent, or a
    /// scheduler's `max_batch` is zero.
    #[must_use]
    pub fn fleet(
        prefill_nodes: &[&'a dyn StageExecutor],
        decode_nodes: &[&'a dyn StageExecutor],
        mix: &FleetMix,
        cfg: &FleetConfig,
        recovery: RecoveryMode,
        degrade: DegradePolicy,
    ) -> ServingLoop<'a> {
        // Crash-aware routing is health routing that never deems an up
        // node degraded.
        let health =
            HealthConfig { enabled: true, ewma_alpha: 0.3, degraded_factor: f64::INFINITY };
        let resilience = ResiliencePolicy { retry: RetryPolicy::off(), health, recovery };
        ServingLoop::new(prefill_nodes, decode_nodes, mix, cfg, resilience, degrade)
    }

    fn new(
        prefill_nodes: &[&'a dyn StageExecutor],
        decode_nodes: &[&'a dyn StageExecutor],
        mix: &FleetMix,
        fleet: &FleetConfig,
        resilience: ResiliencePolicy,
        degrade: DegradePolicy,
    ) -> ServingLoop<'a> {
        let check = |name: &str, pool: &PoolConfig, pool_mix: &PoolMix, executors: usize| {
            pool.validate(name);
            pool_mix.validate(name, pool.max_nodes, &fleet.scheduler);
            assert_eq!(
                executors, pool.max_nodes,
                "{name} pool needs one executor per potential node"
            );
        };
        check("decode", &fleet.decode, &mix.decode, decode_nodes.len());
        match &fleet.prefill {
            Some(p) => check("prefill", p, &mix.prefill, prefill_nodes.len()),
            None => {
                assert!(prefill_nodes.is_empty(), "monolithic fleet takes no prefill executors")
            }
        }
        degrade.validate();

        let p_max = prefill_nodes.len();
        let n = p_max + decode_nodes.len();
        let sched_of =
            |pool: &PoolMix, i: usize| pool.schedulers.get(i).copied().unwrap_or(fleet.scheduler);
        let engines = prefill_nodes
            .iter()
            .enumerate()
            .map(|(i, e)| NodeEngine::with_role(*e, sched_of(&mix.prefill, i), NodeRole::Prefill))
            .chain(decode_nodes.iter().enumerate().map(|(i, e)| {
                NodeEngine::with_role(*e, sched_of(&mix.decode, i), NodeRole::Monolithic)
            }))
            .collect();
        let health = resilience.health;
        let pool = |kind, base, cfg, mix: &PoolMix| Pool::new(kind, base, cfg, mix, fleet.policy);
        ServingLoop {
            fleet: *fleet,
            resilience,
            degrade,
            seed: 0,
            warm_via_front_door: false,
            track: true,
            engines,
            prefill_pool: fleet.prefill.map(|p| pool(PoolKind::Prefill, 0, p, &mix.prefill)),
            decode_pool: pool(PoolKind::Decode, p_max, fleet.decode, &mix.decode),
            autoscaler: fleet.autoscaler.map(Autoscaler::new),
            q: EventQueue::new(),
            in_flight: vec![0; n],
            in_flight_tokens: vec![0; n],
            ready_scheduled: vec![false; n],
            busy_until: vec![0.0; n],
            first_route_s: vec![None; n],
            up: vec![true; n],
            n_down: 0,
            link_factor: 1.0,
            ewma: if health.enabled && health.degraded_factor.is_finite() {
                vec![None; n]
            } else {
                Vec::new()
            },
            makespan: 0.0,
            ids: RequestIndex::default(),
            trackers: Vec::new(),
            deferred: Vec::new(),
            loads: vec![NodeLoad::default(); n],
            handoffs: Vec::new(),
            scale_events: Vec::new(),
            node_seconds: 0.0,
            node_active_s: vec![0.0; n],
            cold_start_node_s: 0.0,
            kv_ships: 0,
            kv_shipped_bytes: 0,
            c: FaultCounters::default(),
            downtime: Vec::new(),
            down_since: vec![None; n],
        }
    }

    /// The event queue, for pre-loading fault transitions (`NodeDown`,
    /// `NodeUp`, `Slowdown`, `LinkFactor`) before [`ServingLoop::run`];
    /// the loop pushes every other kind itself. Their lower event ranks
    /// order them before traffic at the same instant.
    pub fn queue(&mut self) -> &mut EventQueue {
        &mut self.q
    }

    /// Runs `workload` to completion and returns what it measured. The
    /// arrivals may be listed in any order: they replay in time order,
    /// simultaneous ones in list order.
    #[must_use]
    pub fn run(mut self, workload: &ArrivalWorkload) -> LoopOutcome {
        let hint = workload.arrivals.len() / self.engines.len() + 1;
        for e in &mut self.engines {
            e.reserve_metrics(hint);
        }
        if self.track {
            self.ids = RequestIndex::build(workload);
            self.trackers = vec![None; self.ids.len];
        }
        // Arrivals enter the queue one at a time, in time order with ties
        // in list order (a stable sort): the next is pushed when the
        // current one pops, so the queue holds O(nodes) events however
        // long the trace. No other kind shares the arrival rank, so the
        // pop sequence is the one a queue pre-loaded with every arrival
        // would give.
        let mut order: Vec<usize> = (0..workload.arrivals.len()).collect();
        order.sort_by(|&a, &b| workload.arrivals[a].0.total_cmp(&workload.arrivals[b].0));
        let mut arrivals = order.into_iter().map(|i| workload.arrivals[i]);
        let mut push_next_arrival = |q: &mut EventQueue| {
            if let Some((t, request)) = arrivals.next() {
                q.push(t, EventKind::Arrival { request });
            }
        };
        push_next_arrival(&mut self.q);
        if let Some(a) = &self.autoscaler {
            self.q.push(a.config().interval_s, EventKind::ScaleTick);
        }
        while let Some(ev) = self.q.pop() {
            let now = ev.time_s;
            match ev.kind {
                // Work events advance the makespan; fault transitions,
                // moot timers and scale ticks do not (a recovery long
                // after the drain is not work).
                EventKind::Arrival { request } => {
                    push_next_arrival(&mut self.q);
                    self.makespan = self.makespan.max(now);
                    self.on_arrival(now, request);
                }
                EventKind::Deliver { node, arrival_s, request, warm } => {
                    self.makespan = self.makespan.max(now);
                    self.on_deliver(now, node, arrival_s, request, warm);
                }
                EventKind::NodeReady { node } => {
                    self.makespan = self.makespan.max(now);
                    self.on_node_ready(now, node);
                }
                EventKind::ScaleTick => self.on_scale_tick(now),
                EventKind::NodeDown { node } => self.on_node_down(now, node),
                EventKind::NodeUp { node } => self.on_node_up(now, node),
                EventKind::Slowdown { node, factor } => self.engines[node].set_slowdown(factor),
                EventKind::LinkFactor { factor } => self.link_factor = factor,
                EventKind::Timer { id, attempt, hedge } => self.on_timer(now, id, attempt, hedge),
            }
        }
        self.finish()
    }

    /// Recomputes node `g`'s entry in `loads` after its load changed.
    fn refresh_load(&mut self, g: usize) {
        self.loads[g] = load_of(&self.in_flight, &self.in_flight_tokens, &self.engines, g);
    }

    /// The pool owning global node `g`, plus its pool-local index.
    fn pool_of(&mut self, g: usize) -> (&mut Pool, usize) {
        match self.prefill_pool.as_mut() {
            Some(p) if g < p.cfg.max_nodes => (p, g),
            _ => {
                let base = self.decode_pool.base;
                (&mut self.decode_pool, g - base)
            }
        }
    }

    /// Routes request `id` (arrived or ready at `t`) to a warm active node
    /// of the front pool (`front`) or the decode pool, returning
    /// `(global node, migrated flag)`. Every dispatch routes here, so the
    /// eligibility rule lives in one place:
    ///
    /// - failure-blind (health off): active and warm nodes;
    /// - crash-aware (health on): of those, the up ones — unless every
    ///   one is down, in which case the request parks at a dead node's
    ///   door until repair;
    /// - degraded-aware (health on with a finite `degraded_factor`): of
    ///   the up ones, those whose EWMA per-token latency is within the
    ///   factor of the best — unless that leaves none.
    ///
    /// # Panics
    /// Panics if the router picks a cold node (the cold-start contract) or
    /// a crashed node while an up node was eligible (the crash contract).
    fn route(&mut self, front: bool, t: f64, id: u64) -> (usize, bool) {
        let pool = match self.prefill_pool.as_mut() {
            Some(p) if front => p,
            _ => &mut self.decode_pool,
        };
        let (base, k) = (pool.base, pool.cfg.max_nodes);
        debug_assert!(
            (0..self.loads.len()).all(|g| {
                self.loads[g] == load_of(&self.in_flight, &self.in_flight_tokens, &self.engines, g)
            }),
            "a maintained node load went stale"
        );
        let (active, warm_at, up) = (&pool.active, &pool.warm_at, &self.up[base..base + k]);
        let warm = |i: usize| active[i] & (warm_at[i] <= t);
        let crash_aware = self.resilience.health.enabled;
        let any_down = crash_aware && self.n_down > 0;
        let parked = any_down && !(0..k).any(|i| warm(i) && up[i]);
        let live = |i: usize| warm(i) & (!any_down | parked | up[i]);
        let ewma = self.ewma.get(base..base + k).unwrap_or_default();
        let degraded = |i: usize, cut: f64| ewma[i].is_some_and(|e| e > cut);
        let cut = if ewma.is_empty() || parked {
            None
        } else {
            let best =
                (0..k).filter(|&i| live(i)).filter_map(|i| ewma[i]).fold(f64::INFINITY, f64::min);
            let cut = self.resilience.health.degraded_factor * best;
            (best.is_finite() && (0..k).any(|i| live(i) && !degraded(i, cut))).then_some(cut)
        };
        let eligible = |i: usize| live(i) & cut.is_none_or(|cut| !degraded(i, cut));
        let decision =
            pool.router.route_by(id, &self.loads[base..base + k], eligible, &pool.weights);
        let g = base + decision.node;
        assert!(
            pool.warm_at[decision.node] <= t,
            "routed to node {g} before its cold start completed"
        );
        assert!(
            !crash_aware || self.up[g] || parked,
            "routed to crashed node {g} while an up node was eligible"
        );
        pool.arrivals_since_tick += 1;
        if self.first_route_s[g].is_none() {
            self.first_route_s[g] = Some(t);
        }
        (g, decision.migrated)
    }

    /// Routes one copy of `request` through the front door and ships it:
    /// pass-through bypasses the link, otherwise the prompt crosses it,
    /// plus the KV image when `warm` or on an affinity spill.
    fn dispatch(&mut self, now: f64, arrival_s: f64, request: Request, warm: bool) {
        let (node, migrated) = self.route(true, now, request.id);
        let delay = if self.fleet.policy == RouterPolicy::PassThrough {
            0.0
        } else {
            let ic = &self.fleet.interconnect;
            let mut d = ic.ship_prompt_s(request.l_in);
            if warm || migrated {
                d += ic.migrate_kv_s(request.l_in);
            }
            d * self.link_factor
        };
        self.in_flight[node] += 1;
        self.in_flight_tokens[node] += request.final_len();
        self.refresh_load(node);
        self.q.push(now + delay, EventKind::Deliver { node, arrival_s, request, warm });
    }

    /// Routes a KV image into the decode pool at `t` and ships it there
    /// warm, returning the bytes shipped. The delivery keeps front-door
    /// arrival `arrival_s`, or is stamped with its landing time when
    /// `None` (a prefill hand-off).
    fn ship_kv(&mut self, t: f64, arrival_s: Option<f64>, request: Request) -> u64 {
        let (node, _) = self.route(false, t, request.id);
        self.in_flight[node] += 1;
        self.in_flight_tokens[node] += request.final_len();
        self.refresh_load(node);
        let ic = &self.fleet.interconnect;
        let at = t + ic.migrate_kv_s(request.l_in) * self.link_factor;
        let arrival_s = arrival_s.unwrap_or(at);
        self.q.push(at, EventKind::Deliver { node, arrival_s, request, warm: true });
        request.l_in * ic.kv_bytes_per_token
    }

    /// Re-dispatches crash-displaced work: warm work ships its KV image
    /// into the decode pool (or through the front door in the cluster
    /// shape), cold work re-enters the front pool to re-prefill.
    fn recover(&mut self, now: f64, arrival_s: f64, request: Request, warm: bool) {
        if warm && !self.warm_via_front_door {
            self.c.recovery_reshipped_bytes += self.ship_kv(now, Some(arrival_s), request);
            self.c.recovery_reships += 1;
        } else {
            self.dispatch(now, arrival_s, request, warm);
        }
    }

    /// Whether admission control rejects an arrival right now: the front
    /// pool's backlog per unit of available (up ∧ active ∧ weighted)
    /// capacity exceeds the threshold — or no capacity is up at all.
    fn sheds_now(&self) -> bool {
        let Some(s) = self.degrade.shed else { return false };
        let front = self.prefill_pool.as_ref().unwrap_or(&self.decode_pool);
        let loads = &self.loads[front.base..front.base + front.cfg.max_nodes];
        let backlog: u64 = loads.iter().map(|l| l.backlog).sum();
        let avail = front.available_weight(&self.up);
        avail <= 0.0 || backlog as f64 > s.max_backlog_per_node * avail
    }

    /// The brownout in force, if any pool is degraded enough (available
    /// weight below the configured fraction of its active weight).
    fn brownout_now(&self) -> Option<BrownoutConfig> {
        let b = self.degrade.brownout?;
        [self.prefill_pool.as_ref(), Some(&self.decode_pool)]
            .into_iter()
            .flatten()
            .any(|p| p.available_weight(&self.up) < b.below_up_frac * p.active_weight())
            .then_some(b)
    }

    /// Deterministic retry jitter: a seeded fraction of the backoff for
    /// this (request, attempt) pair.
    fn jitter(&self, id: u64, attempt: u32) -> f64 {
        let p = &self.resilience.retry;
        let backoff = p.backoff_s(attempt);
        if backoff <= 0.0 || p.jitter_frac <= 0.0 {
            return 0.0;
        }
        let bits = splitmix64(self.seed ^ (id << 8) ^ u64::from(attempt));
        let frac = (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        backoff * p.jitter_frac * frac
    }

    /// Arms the retry timer for dispatch attempt `attempt`, measured from
    /// `dispatched_s`.
    fn arm_retry_timer(&mut self, id: u64, attempt: u32, dispatched_s: f64) {
        let p = &self.resilience.retry;
        if !p.timeouts_enabled() {
            return;
        }
        let at = dispatched_s + p.timeout_s + p.backoff_s(attempt) + self.jitter(id, attempt);
        self.q.push(at, EventKind::Timer { id, attempt, hedge: false });
    }

    fn on_arrival(&mut self, now: f64, mut request: Request) {
        let mut ttft_slo_s = self.fleet.slo.ttft_s;
        let shed = self.sheds_now();
        if shed {
            self.c.shed_requests += 1;
            self.c.shed_tokens += request.l_out;
        } else if let Some(b) = self.brownout_now() {
            let shrunk = ((request.l_out as f64 * b.lout_frac) as u64).max(1);
            request = Request::new(request.id, request.l_in, shrunk);
            ttft_slo_s *= b.slo_relax;
            self.c.browned_out += 1;
        }
        if self.track {
            self.trackers[self.ids.index_of(request.id)] = Some(Track {
                arrival_s: now,
                request,
                ttft_slo_s,
                attempts: 1,
                hedged: false,
                first_token_s: None,
                completed_s: None,
                completions: 0,
                shed,
            });
        }
        if shed {
            return;
        }
        self.dispatch(now, now, request, false);
        self.arm_retry_timer(request.id, 1, now);
        if let Some(h) = self.resilience.retry.hedge_after_s {
            self.q.push(now + h, EventKind::Timer { id: request.id, attempt: 1, hedge: true });
        }
    }

    fn on_deliver(&mut self, now: f64, node: usize, arrival_s: f64, request: Request, warm: bool) {
        self.in_flight[node] -= 1;
        self.in_flight_tokens[node] -= request.final_len();
        if warm {
            self.engines[node].deliver_warm(arrival_s, request);
        } else {
            self.engines[node].deliver(arrival_s, request);
        }
        self.refresh_load(node);
        // A down node's door still accepts the package, but nobody is
        // home to run rounds: the NodeUp handler pokes it on recovery.
        if self.up[node] && !self.ready_scheduled[node] {
            self.ready_scheduled[node] = true;
            self.q.push(now.max(self.busy_until[node]), EventKind::NodeReady { node });
        }
    }

    fn on_node_ready(&mut self, now: f64, node: usize) {
        self.ready_scheduled[node] = false;
        let mut t = now;
        while self.up[node] && !self.engines[node].is_drained() {
            let out = self.engines[node].run_round(t);
            self.refresh_load(node);
            self.busy_until[node] = out.end_s;
            self.makespan = self.makespan.max(out.end_s);
            if !self.ewma.is_empty() && out.tokens > 0 {
                let sample = (out.end_s - t) / out.tokens as f64;
                let alpha = self.resilience.health.ewma_alpha;
                self.ewma[node] =
                    Some(self.ewma[node].map_or(sample, |e| alpha * sample + (1.0 - alpha) * e));
            }
            t = out.end_s;
            if self.track {
                self.record_round(node);
            }
            self.engines[node].clear_round_logs();
            // A prefill node hands its finished Sums off for decode.
            // (Monolithic and decode nodes never log hand-offs.)
            self.engines[node].drain_prefilled_into(&mut self.handoffs);
            if !self.handoffs.is_empty() {
                let mut handoffs = std::mem::take(&mut self.handoffs);
                for &(ready_s, _arrival_s, rest) in &handoffs {
                    self.kv_shipped_bytes += self.ship_kv(ready_s, None, rest);
                    self.kv_ships += 1;
                }
                handoffs.clear();
                self.handoffs = handoffs;
            }
            // If every pending event is strictly later than `t` (by
            // `total_cmp`, the queue's time order), the wake-up we would
            // push at `t` pops next: run the next round inline and skip
            // the queue round-trip. At equal times the ranks decide: a
            // pending fault transition, arrival or timer at `t` must run
            // first (it could take this node down), while a scale tick
            // ranks after the wake-up. Either way, fall back to the push
            // and let the queue order them.
            let next_round_pops_first =
                self.q.next_time().is_none_or(|nt| nt.total_cmp(&t) == std::cmp::Ordering::Greater);
            if !next_round_pops_first {
                if !self.engines[node].is_drained() {
                    self.ready_scheduled[node] = true;
                    self.q.push(t, EventKind::NodeReady { node });
                }
                break;
            }
        }
    }

    /// Folds the node's first-token and retirement logs of the round just
    /// run into the per-request trackers.
    fn record_round(&mut self, node: usize) {
        let e = &self.engines[node];
        for &(id, ts) in e.first_tokens() {
            let tr = self.trackers[self.ids.index_of(id)]
                .as_mut()
                .expect("first token for tracked request");
            tr.first_token_s = Some(tr.first_token_s.map_or(ts, |p| p.min(ts)));
        }
        for &(id, ts) in e.retired_log() {
            let tr = self.trackers[self.ids.index_of(id)]
                .as_mut()
                .expect("retirement for tracked request");
            tr.completions += 1;
            tr.completed_s = Some(tr.completed_s.map_or(ts, |p| p.min(ts)));
        }
    }

    fn on_node_down(&mut self, now: f64, node: usize) {
        self.c.crashes += 1;
        if self.up[node] {
            self.up[node] = false;
            self.n_down += 1;
            self.down_since[node] = Some(now);
            // A down node is not billed: close its activation meter now
            // and let NodeUp reopen it. The pool keeps it active (the
            // autoscaler sees lost capacity through the availability
            // view, not through a phantom deactivation).
            let (pool, i) = self.pool_of(node);
            let warm_at = pool.warm_at[i];
            if let Some(since) = pool.active_since[i].take() {
                self.node_seconds += now - since;
                self.node_active_s[node] += now - since;
                self.cold_start_node_s += (warm_at.min(now) - since).max(0.0);
            }
        }
        let wreck = self.engines[node].crash(now);
        self.refresh_load(node);
        self.c.lost_tokens += wreck.lost_tokens;
        for (k, d) in wreck.displaced.into_iter().enumerate() {
            // Tokens whose KV state existed somewhere when the node died:
            // the whole context for admitted requests, the shipped image
            // for warm-queued ones, nothing for cold-queued ones.
            let kv_built = if d.progress > 0 {
                d.request.l_in + d.progress
            } else if d.warm {
                d.request.l_in
            } else {
                0
            };
            let folded = if d.progress > 0 {
                Request::new(
                    d.request.id,
                    d.request.l_in + d.progress,
                    d.request.l_out - d.progress,
                )
            } else {
                d.request
            };
            let warm = self.resilience.recovery == RecoveryMode::KvMigrate && kv_built > 0;
            if warm {
                self.c.migrated_kv_tokens += kv_built;
            } else {
                self.c.recomputed_tokens += kv_built;
            }
            match self.degrade.storm_guard {
                Some(g) if k >= g.burst => {
                    // Stagger the recovery wave: everything past the
                    // burst window re-dispatches on a timer.
                    self.c.deferred_redispatches += 1;
                    let id = self.deferred.len() as u64;
                    self.deferred.push(Some(Deferred {
                        arrival_s: d.arrival_s,
                        request: folded,
                        warm,
                    }));
                    self.q.push(
                        now + g.stagger_s * (k - g.burst + 1) as f64,
                        EventKind::Timer { id, attempt: 0, hedge: false },
                    );
                }
                _ => self.recover(now, d.arrival_s, folded, warm),
            }
        }
    }

    fn on_node_up(&mut self, now: f64, node: usize) {
        if self.up[node] {
            return;
        }
        self.up[node] = true;
        self.n_down -= 1;
        if let Some(since) = self.down_since[node].take() {
            self.downtime.push((node, since, now));
        }
        // Reopen the billing meter iff the node is still pool-active
        // (the autoscaler may have drained it while it was down).
        let (pool, i) = self.pool_of(node);
        if pool.active[i] && pool.active_since[i].is_none() {
            pool.active_since[i] = Some(now);
        }
        if !self.engines[node].is_drained() && !self.ready_scheduled[node] {
            self.ready_scheduled[node] = true;
            self.q.push(now.max(self.busy_until[node]), EventKind::NodeReady { node });
        }
    }

    /// A timer fires. `attempt == 0` is a storm-guard re-dispatch whose
    /// `id` is its parking slot; otherwise it is a retry timeout or hedge
    /// delay for request `id`, moot once the request made progress.
    fn on_timer(&mut self, now: f64, id: u64, attempt: u32, hedge: bool) {
        if attempt == 0 {
            let Some(d) = self.deferred.get_mut(id as usize).and_then(Option::take) else {
                return;
            };
            // A deferred re-dispatch that actually fires is real work.
            self.makespan = self.makespan.max(now);
            self.recover(now, d.arrival_s, d.request, d.warm);
            return;
        }
        let idx = self.ids.index_of(id);
        let tr = self.trackers[idx].expect("timer for tracked request");
        if tr.first_token_s.is_some() || (hedge && tr.hedged) {
            return;
        }
        let slot = self.trackers[idx].as_mut().expect("tracked");
        if hedge {
            slot.hedged = true;
            self.c.hedges += 1;
        } else if tr.attempts > self.resilience.retry.max_retries {
            self.c.timeouts_exhausted += 1;
            return;
        } else {
            slot.attempts += 1;
            self.c.retries += 1;
        }
        self.makespan = self.makespan.max(now);
        self.dispatch(now, tr.arrival_s, tr.request, false);
        if !hedge {
            self.arm_retry_timer(id, tr.attempts + 1, now);
        }
    }

    fn on_scale_tick(&mut self, t: f64) {
        let scaler = self.autoscaler.as_mut().expect("ScaleTick implies an autoscaler");
        let sched = &self.fleet.scheduler;
        let pools: [Option<&mut Pool>; 2] =
            [self.prefill_pool.as_mut(), Some(&mut self.decode_pool)];
        for pool in pools.into_iter().flatten() {
            let (base, k) = (pool.base, pool.cfg.max_nodes);
            let active_nodes = pool.active_count();
            // The scaler observes *available* capacity: a crashed node
            // contributes nothing, so losing one reads as lost capacity
            // and provisions a replacement. Fault-free this equals the
            // plain active view bit for bit.
            let available = pool.available_count(&self.up);
            let mut backlog = 0u64;
            let mut reserved = 0u64;
            for g in base..base + k {
                backlog += self.loads[g].backlog;
                reserved += self.engines[g].reserved_tokens();
            }
            let kv_frac = if sched.kv_bytes_per_token == 0 || available == 0 {
                0.0
            } else {
                // A heterogeneous pool sums its available nodes'
                // individual capacities; the homogeneous path keeps the
                // single-multiply formula (and its float rounding).
                let cap = match &pool.kv_caps {
                    Some(caps) => (0..k)
                        .filter(|&i| pool.active[i] && self.up[base + i])
                        .map(|i| caps[i] as f64)
                        .sum(),
                    None => available as f64 * sched.kv_capacity_bytes as f64,
                };
                (reserved as f64 * sched.kv_bytes_per_token as f64) / cap
            };
            let obs = PoolObservation {
                active_nodes: available,
                active_weight: pool.available_weight(&self.up),
                backlog,
                kv_frac,
                arrivals_since_tick: pool.arrivals_since_tick,
            };
            pool.arrivals_since_tick = 0;
            let Some(direction) =
                scaler.decide(t, pool.kind, &obs, pool.cfg.min_nodes, pool.cfg.max_nodes)
            else {
                continue;
            };
            let (i, to_nodes, warm_at_s) = match direction {
                ScaleDirection::Out => {
                    // Provision an *up* spare; if every spare is down (or
                    // the pool is fully active but partially down) there
                    // is no hardware to add.
                    let Some(i) = (0..k).find(|&i| !pool.active[i] && self.up[base + i]) else {
                        continue;
                    };
                    pool.active[i] = true;
                    pool.warm_at[i] = t + scaler.config().cold_start_s;
                    pool.active_since[i] = Some(t);
                    pool.peak_active = pool.peak_active.max(active_nodes + 1);
                    (i, active_nodes + 1, pool.warm_at[i])
                }
                ScaleDirection::In => {
                    let i = pool
                        .active
                        .iter()
                        .rposition(|&a| a)
                        .expect("decide() only scales in above min >= 1");
                    // Never deactivate the last warm *up* node: the router
                    // must always have somewhere eligible to send an
                    // arrival. Draining a down node is free.
                    let warm_actives = (0..k)
                        .filter(|&j| pool.active[j] && pool.warm_at[j] <= t && self.up[base + j])
                        .count();
                    if pool.warm_at[i] <= t && self.up[base + i] && warm_actives <= 1 {
                        continue;
                    }
                    pool.active[i] = false;
                    if let Some(since) = pool.active_since[i].take() {
                        self.node_seconds += t - since;
                        self.node_active_s[base + i] += t - since;
                        // Time this activation spent spinning up.
                        self.cold_start_node_s += (pool.warm_at[i].min(t) - since).max(0.0);
                    }
                    (i, active_nodes - 1, t)
                }
            };
            self.scale_events.push(ScaleEvent {
                t_s: t,
                pool: pool.kind,
                direction,
                from_nodes: active_nodes,
                to_nodes,
                node: base + i,
                warm_at_s,
            });
        }
        // Keep ticking only while work remains; the queue holds at most
        // one pending tick, so a non-empty queue here means real pending
        // work.
        if !self.q.is_empty() {
            self.q.push(t + scaler.config().interval_s, EventKind::ScaleTick);
        }
    }

    fn finish(mut self) -> LoopOutcome {
        let makespan = self.makespan;
        // Close the node-second meter on everything still active (a node
        // down at the end has its meter already closed). The duration is
        // clamped at zero: an activation opened after the last work event
        // — a late scale tick, a repair after the drain — must bill
        // nothing, not negative seconds.
        for pool in [self.prefill_pool.as_ref(), Some(&self.decode_pool)].into_iter().flatten() {
            for (i, since) in pool.active_since.iter().enumerate() {
                let Some(since) = since else { continue };
                let dur = (makespan - since).max(0.0);
                self.node_seconds += dur;
                self.node_active_s[pool.base + i] += dur;
                self.cold_start_node_s += (pool.warm_at[i].min(makespan) - since).max(0.0).min(dur);
            }
        }
        // End-of-run audit: the queue is empty, so every conservation law
        // must have closed.
        debug_assert!(self.engines.iter().all(NodeEngine::is_drained), "undrained node at end");
        debug_assert!(
            self.in_flight.iter().chain(&self.in_flight_tokens).all(|&x| x == 0),
            "delivery still in flight at end"
        );
        debug_assert!(self.deferred.iter().all(Option::is_none), "re-dispatch still parked at end");
        debug_assert!(self.node_active_s.iter().all(|&s| s >= 0.0), "negative node-seconds billed");

        // Unfinished windows (a schedule ending mid-outage) run to the
        // makespan; every window is clamped to it for availability.
        let open =
            self.down_since.iter().enumerate().filter_map(|(g, s)| s.map(|s| (g, s, makespan)));
        let n = self.engines.len();
        let mut node_downtime_s = vec![0.0f64; n];
        for (node, d, u) in self.downtime.iter().copied().chain(open) {
            let clamped = u.min(makespan) - d.min(makespan);
            if clamped > 0.0 {
                node_downtime_s[node] += clamped;
            }
        }
        let total_down: f64 = node_downtime_s.iter().sum();
        let availability =
            if makespan > 0.0 { 1.0 - total_down / (n as f64 * makespan) } else { 1.0 };

        let mut unique_completed = 0u64;
        let mut duplicate_completions = 0u64;
        let mut requests_in_slo = 0u64;
        let mut goodput_tokens = 0u64;
        // Interned-index iteration gives ascending request-id order —
        // part of the byte-identical determinism contract.
        let mut request_outcomes = Vec::new();
        for (idx, tr) in self.trackers.iter().enumerate() {
            let Some(tr) = tr.filter(|tr| !tr.shed && tr.completed_s.is_some()) else { continue };
            unique_completed += 1;
            duplicate_completions += tr.completions.saturating_sub(1);
            let in_slo = tr.first_token_s.is_some_and(|ft| ft - tr.arrival_s <= tr.ttft_slo_s);
            if in_slo {
                requests_in_slo += 1;
                goodput_tokens += tr.request.l_out;
            }
            let (id, l_out) = (self.ids.id_at(idx), tr.request.l_out);
            request_outcomes.push(RequestOutcome { id, l_out, in_slo });
        }

        let cluster = ClusterReport::from_engines(
            self.fleet.policy.name(),
            &mut self.engines,
            makespan,
            &self.fleet.slo,
        );
        LoopOutcome {
            fleet: FleetReport {
                cluster,
                disaggregated: self.fleet.prefill.is_some(),
                node_seconds: self.node_seconds,
                node_active_s: self.node_active_s,
                cold_start_node_s: self.cold_start_node_s,
                prefill_peak_nodes: self.prefill_pool.as_ref().map_or(0, |p| p.peak_active),
                decode_peak_nodes: self.decode_pool.peak_active,
                kv_ships: self.kv_ships,
                kv_shipped_bytes: self.kv_shipped_bytes,
                scale_events: self.scale_events,
                first_route_s: self.first_route_s,
            },
            counters: self.c,
            node_downtime_s,
            availability,
            unique_completed,
            duplicate_completions,
            requests_in_slo,
            goodput_under_failure_tokens_per_s: if makespan > 0.0 {
                goodput_tokens as f64 / makespan
            } else {
                0.0
            },
            request_outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ArrivalWorkload::poisson(40, 50.0, 64, (4, 12), 7)
    }

    #[test]
    fn all_requests_complete_across_policies() {
        let w = workload();
        for policy in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 2 },
        ] {
            let cfg = ClusterConfig {
                policy,
                ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
            };
            let r = simulate_cluster(&[&Toy, &Toy, &Toy], &w, &cfg);
            assert_eq!(r.completed, 40, "policy {}", policy.name());
            assert_eq!(r.abandoned, 0);
            assert!(r.makespan_s > 0.0 && r.tokens_per_s > 0.0);
            assert_eq!(r.nodes.len(), 3);
            let node_total: u64 = r.nodes.iter().map(|nr| nr.completed).sum();
            assert_eq!(node_total, 40);
        }
    }

    #[test]
    fn same_inputs_same_report() {
        let w = workload();
        let cfg = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g().with_kv_bytes_per_token(1 << 10),
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(4))
        };
        let a = simulate_cluster(&[&Toy, &Toy], &w, &cfg);
        let b = simulate_cluster(&[&Toy, &Toy], &w, &cfg);
        assert_eq!(a, b, "the cluster simulation is a pure function of its inputs");
    }

    #[test]
    fn more_nodes_never_slower() {
        let w = ArrivalWorkload::poisson(60, 400.0, 128, (8, 16), 11);
        let cfg = ClusterConfig {
            policy: RouterPolicy::RoundRobin,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(2))
        };
        let one = simulate_cluster(&[&Toy], &w, &cfg);
        let four = simulate_cluster(&[&Toy, &Toy, &Toy, &Toy], &w, &cfg);
        assert_eq!(one.completed, 60);
        assert_eq!(four.completed, 60);
        assert!(four.makespan_s <= one.makespan_s + 1e-12);
        assert!(four.ttft.p99_s <= one.ttft.p99_s + 1e-12);
    }

    #[test]
    fn interconnect_delay_shows_up_in_ttft() {
        let w = workload();
        let free = ClusterConfig {
            policy: RouterPolicy::RoundRobin,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let slow = ClusterConfig {
            interconnect: InterconnectModel {
                link_bw_bytes_per_s: 1e6,
                base_latency_s: 5e-3,
                prompt_bytes_per_token: 1024,
                kv_bytes_per_token: 0,
            },
            ..free
        };
        let fast = simulate_cluster(&[&Toy, &Toy], &w, &free);
        let laggy = simulate_cluster(&[&Toy, &Toy], &w, &slow);
        assert!(laggy.ttft.mean_s > fast.ttft.mean_s, "shipping delay must reach TTFT");
    }

    #[test]
    fn arrivals_before_time_zero_are_served() {
        // Initial nodes are warm from −∞, so a trace that starts before
        // t = 0 still finds an eligible node.
        let mut w = workload();
        w.arrivals[0].0 = -0.5;
        let cfg = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        assert_eq!(simulate_cluster(&[&Toy, &Toy], &w, &cfg).completed, 40);
    }

    #[test]
    fn tied_arrivals_route_in_list_order() {
        // Round robin sends the first arrival it routes to node 0, so
        // node 0's token count names which of two simultaneous arrivals
        // popped first: the one listed first, not the lower id.
        let w = ArrivalWorkload {
            arrivals: vec![(0.5, Request::new(1, 64, 4)), (0.5, Request::new(0, 64, 20))],
        };
        let cfg = ClusterConfig {
            policy: RouterPolicy::RoundRobin,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let r = simulate_cluster(&[&Toy, &Toy], &w, &cfg);
        assert_eq!((r.nodes[0].tokens, r.nodes[1].tokens), (4, 20));
    }

    #[test]
    fn capacity_pressure_abandons_infeasible_heads() {
        // KV capacity of 10 tokens: l_in 64 never fits anywhere.
        let cfg = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            ..ClusterConfig::pass_through(SchedulerConfig::with_capacity(8, 10, 1))
        };
        let r = simulate_cluster(&[&Toy, &Toy], &workload(), &cfg);
        assert_eq!(r.completed, 0);
        assert_eq!(r.abandoned, 40);
    }
}
