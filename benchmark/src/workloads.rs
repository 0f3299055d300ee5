//! The five workloads: their inputs (built from the seed), their ops, and
//! the outside checks on every op's result.
//!
//! Every op goes through the simulator's public entry points only. Each
//! returns a text rendering of its result's public fields at full
//! precision; its FNV-1a digest must repeat across reps, and at seed 42
//! the workload digest must equal the one recorded in [`SEED42_DIGESTS`].

use crate::tracing::{ExecCounters, TimedExec, Tracer};
use attacc_bench::{
    chaos_fleet_configs, chaos_policies, provision_search_config, provision_specs, AUTOSCALE_DAY_S,
    AUTOSCALE_SESSIONS, CHAOS_FLEET_MTBFS, TRACE_STEPS,
};
use attacc_chaos::{
    simulate_chaos, simulate_fleet_chaos, ChaosConfig, ChaosReport, FaultSchedule, FaultSpec,
    FleetChaosConfig, FleetChaosReport, ResiliencePolicy,
};
use attacc_cluster::{
    simulate_cluster, simulate_fleet, splitmix64, AutoscalerConfig, ClusterConfig, ClusterReport,
    FleetConfig, FleetMix, FleetReport, InterconnectModel, PoolConfig, RouterPolicy, ScaleSignal,
    SloSpec,
};
use attacc_model::{KvCacheSpec, ModelConfig, GIB};
use attacc_provision::{
    run_search, simulate_cell, CostBook, FleetSpec, NodeVariant, SearchConfig, SearchOutcome,
    TrafficSpec,
};
use attacc_serving::{ArrivalWorkload, FlashCrowd, SchedulerConfig, StageExecutor, TraceSpec};
use attacc_sim::{System, SystemExecutor, Table, TimingCache};
use attacc_trace::{
    compile, execute_timing, DecodeSchedule, KvPolicy, TimingConfig, Trace, TracePayload,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 5] = [
    "fleet-diurnal",
    "fleet-chaos",
    "cluster-chaos",
    "design-search",
    "pim-trace",
];

/// FNV-1a of each workload's concatenated op texts at seed 42.
pub const SEED42_DIGESTS: [(&str, u64); 5] = [
    ("fleet-diurnal", 0x2cc1_6961_5bc9_040a),
    ("fleet-chaos", 0xbdfd_4e02_5ffe_865f),
    ("cluster-chaos", 0xd140_8d2e_5601_26ab),
    ("design-search", 0x67ce_db69_d5e9_a60e),
    ("pim-trace", 0x743b_c1d7_693d_679c),
];

/// The seed that stands in for the legacy seed `legacy` of the bench
/// binaries: seed 42 keeps every legacy seed, any other seed `s` uses
/// `splitmix64(s + legacy)`.
#[must_use]
pub fn derive_seed(seed: u64, legacy: u64) -> u64 {
    if seed == 42 {
        legacy
    } else {
        splitmix64(seed.wrapping_add(legacy))
    }
}

/// Counts an op reports for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Arrivals replayed through an event loop.
    pub sessions: u64,
    /// Node crashes that fired.
    pub crashes: u64,
    /// Crash-recovery warm KV re-ships.
    pub recovery_reships: u64,
    /// Retry re-dispatches.
    pub retries: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Provisioning cells exactly simulated.
    pub exact_sims: u64,
    /// Attention heads launched by trace replay.
    pub heads_run: u64,
    /// Head-cost evaluations a trace replay needs at most (one per
    /// decode step: the replay memoizes per visible length).
    pub head_evals: u64,
    /// Trace instructions compiled.
    pub insts: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.sessions += o.sessions;
        self.crashes += o.crashes;
        self.recovery_reships += o.recovery_reships;
        self.retries += o.retries;
        self.shed += o.shed;
        self.exact_sims += o.exact_sims;
        self.heads_run += o.heads_run;
        self.head_evals += o.head_evals;
        self.insts += o.insts;
    }
}

/// What one op returns.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Full-precision rendering of the result's public fields.
    pub text: String,
    /// Units of work done (the unit of `items_per_s`).
    pub items: u64,
    /// Counts for the per-layer metrics.
    pub counts: Counts,
    /// Cheapest-fleet searches: the traffic and the verified picks.
    pub picks: Option<(TrafficSpec, Vec<FleetSpec>)>,
}

/// Per-op context: the tracer when the rep is traced.
pub struct Cx<'t, 'c> {
    /// The span recorder of a traced rep.
    pub tracer: Option<&'t mut Tracer>,
    /// Where the timing executors of a traced rep record.
    pub counters: &'c ExecCounters,
    /// Whether this is the untimed warm-up rep, which also runs the
    /// checks too slow for every rep.
    pub warmup: bool,
}

impl<'c> Cx<'_, 'c> {
    /// Runs an entry point, inside a span when traced.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer.as_deref_mut() {
            Some(t) => t.entry(name, self.counters, f),
            None => f(),
        }
    }

    /// Timing wrappers around `execs` when traced, none otherwise.
    fn wrap<'a>(&self, execs: &'a [SystemExecutor]) -> Vec<TimedExec<'a>>
    where
        'c: 'a,
    {
        if self.tracer.is_none() {
            return Vec::new();
        }
        self.counters.saw_nodes(execs.len());
        execs
            .iter()
            .map(|e| TimedExec::new(e, self.counters))
            .collect()
    }
}

/// The executor slice an entry point gets: the timing wrappers if there
/// are any, the executors themselves otherwise.
fn nodes<'a>(
    execs: &'a [SystemExecutor],
    timed: &'a [TimedExec<'a>],
) -> Vec<&'a dyn StageExecutor> {
    if timed.is_empty() {
        execs.iter().map(|e| e as &dyn StageExecutor).collect()
    } else {
        timed.iter().map(|e| e as &dyn StageExecutor).collect()
    }
}

/// A workload whose inputs are built.
pub trait Workload {
    /// Ops per rep.
    fn ops(&self) -> usize;
    /// Runs op `op`. `Err` names the check that failed.
    ///
    /// # Errors
    /// A message naming the outside check the result broke.
    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String>;
    /// Host seconds the set-up spent generating arrival traces.
    fn arrivals_gen_s(&self) -> f64 {
        0.0
    }
    /// Gen shape and node count for the kernel probes when the traced
    /// run wrapped no executor: a full 64-row decode at the provisioning
    /// traffic's mean final context (512 + 96) over the grid's largest
    /// fleet.
    fn probe_shape(&self) -> (Vec<(u64, u64)>, usize) {
        (vec![(64, 608)], 6)
    }
    /// Mean host seconds of one exact provisioning cell, re-timed from
    /// outside on the verified picks of `outs` (design-search only).
    fn cell_secs(&self, _outs: &[OpOut]) -> Option<f64> {
        None
    }
}

/// Builds workload `name`'s inputs from `seed`.
#[must_use]
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fleet-diurnal" => Box::new(FleetDiurnal::new(seed, AUTOSCALE_SESSIONS)),
        "fleet-chaos" => Box::new(FleetChaos::new(seed)),
        "cluster-chaos" => Box::new(ClusterChaos::new(seed)),
        "design-search" => Box::new(DesignSearch::new(seed)),
        "pim-trace" => Box::new(PimTrace::new()),
        _ => return None,
    })
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Outside invariants of an event-loop report: every arrival is
/// completed or abandoned (`served` = arrivals minus shed), node tokens
/// add up to the reported throughput, utilisation lies in `[0, 1]`.
/// `served = None` skips the conservation check (chaos runs count
/// duplicate copies at this level).
pub fn check_cluster(r: &ClusterReport, served: Option<u64>) -> Result<(), String> {
    if let Some(n) = served {
        ensure(r.completed + r.abandoned == n, || {
            format!(
                "completed {} + abandoned {} != arrivals {n}",
                r.completed, r.abandoned
            )
        })?;
    }
    let node_completed: u64 = r.nodes.iter().map(|n| n.completed).sum();
    ensure(node_completed == r.completed, || {
        format!(
            "node completions {node_completed} != cluster completions {}",
            r.completed
        )
    })?;
    let tokens: u64 = r.nodes.iter().map(|n| n.tokens).sum();
    let rebuilt = r.tokens_per_s * r.makespan_s;
    ensure(
        (rebuilt - tokens as f64).abs() <= 1e-9 * (tokens as f64).max(1.0),
        || format!("node tokens {tokens} != tokens/s × makespan {rebuilt}"),
    )?;
    for n in &r.nodes {
        ensure((0.0..=1.0).contains(&n.utilization), || {
            format!(
                "node {} utilisation {} outside [0, 1]",
                n.node, n.utilization
            )
        })?;
    }
    Ok(())
}

fn check_unit(name: &str, v: f64) -> Result<(), String> {
    ensure((0.0..=1.0).contains(&v), || {
        format!("{name} {v} outside [0, 1]")
    })
}

/// Search invariants: `best` is feasible and no feasible verified pick
/// is cheaper; `pruned_frac` = 1 − exact sims / grid.
pub fn check_search(o: &SearchOutcome) -> Result<(), String> {
    let exact = o.trained + o.verified;
    let pruned = 1.0 - exact as f64 / o.grid_size as f64;
    ensure(o.pruned_frac == pruned, || {
        format!(
            "pruned_frac {} != 1 - {exact}/{}",
            o.pruned_frac, o.grid_size
        )
    })?;
    if let Some((_, best)) = &o.best {
        ensure(best.feasible, || "best pick is infeasible".to_string())?;
        let cheapest = o
            .picks
            .iter()
            .filter(|p| p.exact.feasible)
            .map(|p| p.exact.cost.usd_per_mtok)
            .fold(f64::INFINITY, f64::min);
        ensure(best.cost.usd_per_mtok <= cheapest, || {
            format!(
                "best costs {} $/Mtok, a verified pick {cheapest}",
                best.cost.usd_per_mtok
            )
        })?;
    } else {
        ensure(o.picks.iter().all(|p| !p.exact.feasible), || {
            "a feasible pick but no best".to_string()
        })?;
    }
    Ok(())
}

fn cluster_text(r: &ClusterReport) -> String {
    format!(
        "completed={} abandoned={} makespan={:?} energy={:?} tok/s={:?} ttft={:?}/{:?}/{:?} \
         tbt_p99={:?} queue_p99={:?} in_slo={} goodput={:?} util={:?}",
        r.completed,
        r.abandoned,
        r.makespan_s,
        r.energy_j,
        r.tokens_per_s,
        r.ttft.p50_s,
        r.ttft.p99_s,
        r.ttft.p999_s,
        r.tbt.p99_s,
        r.queue_wait.p99_s,
        r.goodput.requests_in_slo,
        r.goodput.goodput_tokens_per_s,
        r.mean_utilization(),
    )
}

fn fleet_text(r: &FleetReport) -> String {
    format!(
        "{} node_s={:?} cold_s={:?} peak={}/{} kv_ships={} scale_events={}",
        cluster_text(&r.cluster),
        r.node_seconds,
        r.cold_start_node_s,
        r.prefill_peak_nodes,
        r.decode_peak_nodes,
        r.kv_ships,
        r.scale_events.len(),
    )
}

/// The per-node serving configuration shared by the fleet and cluster
/// benches: batch 64, KV capacity = HBM left after weights.
fn node_scheduler(model: &ModelConfig) -> SchedulerConfig {
    let free = 640 * GIB - model.weight_bytes();
    SchedulerConfig::with_capacity(64, free, KvCacheSpec::of(model).bytes_per_token)
}

fn interconnect(model: &ModelConfig) -> InterconnectModel {
    InterconnectModel::ethernet_400g()
        .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token)
}

fn executors(model: &ModelConfig, n: usize) -> Vec<SystemExecutor> {
    (0..n)
        .map(|_| SystemExecutor::new(System::dgx_attacc_full(), model))
        .collect()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// fleet-diurnal: the six autoscale_sim fleets on the diurnal trace.
// ---------------------------------------------------------------------

/// One fleet of the autoscaling frontier.
struct FleetCell {
    name: &'static str,
    prefill: Option<PoolConfig>,
    decode: PoolConfig,
    autoscaler: Option<AutoscalerConfig>,
}

/// The `autoscale_sim` fleets for a `sessions`-session trace, sized from
/// its mean token demand exactly as the bench binary sizes them.
fn autoscale_cells(sessions: u64) -> Vec<FleetCell> {
    let demand_tok_s = sessions as f64 / AUTOSCALE_DAY_S * 96.0;
    let sat = ((demand_tok_s / 740.0).ceil() as usize).max(1);
    let peak = ((sat as f64 * 1.6).ceil() as usize).max(2);
    let burst = (2 * sat).max(3);
    let lo = (sat / 4).max(1);
    let p_static = (peak * 4 / 5).max(1);
    let d_static = (peak * 3 / 10).max(1);
    let p_burst = (2 * p_static).max(2);
    let d_burst = (2 * d_static).max(2);
    let policy = |signal| AutoscalerConfig {
        interval_s: 0.5,
        cold_start_s: 2.0,
        cooldown_s: 1.5,
        signal,
    };
    let queue = ScaleSignal::QueueDepth {
        out_per_node: 96.0,
        in_per_node: 24.0,
    };
    let kv = ScaleSignal::KvOccupancy {
        out_frac: 0.35,
        in_frac: 0.10,
    };
    let ewma = ScaleSignal::PredictedLoad {
        alpha: 0.3,
        out_rate_per_node: 9.0,
        in_rate_per_node: 5.5,
    };
    let elastic = PoolConfig::elastic(lo, sat, burst);
    vec![
        FleetCell {
            name: "static-mono",
            prefill: None,
            decode: PoolConfig::fixed(peak),
            autoscaler: None,
        },
        FleetCell {
            name: "auto-mono-queue",
            prefill: None,
            decode: elastic,
            autoscaler: Some(policy(queue)),
        },
        FleetCell {
            name: "auto-mono-kv",
            prefill: None,
            decode: elastic,
            autoscaler: Some(policy(kv)),
        },
        FleetCell {
            name: "auto-mono-ewma",
            prefill: None,
            decode: elastic,
            autoscaler: Some(policy(ewma)),
        },
        FleetCell {
            name: "static-disagg",
            prefill: Some(PoolConfig::fixed(p_static)),
            decode: PoolConfig::fixed(d_static),
            autoscaler: None,
        },
        FleetCell {
            name: "auto-disagg-queue",
            prefill: Some(PoolConfig::elastic(p_static, p_static, p_burst)),
            decode: PoolConfig::elastic(d_static, d_static, d_burst),
            autoscaler: Some(policy(queue)),
        },
    ]
}

/// The `autoscale_sim` table row of one fleet, cell for cell.
fn autoscale_row(cell: &FleetCell, r: &FleetReport, sessions: u64) -> Vec<String> {
    let pools = match cell.prefill {
        Some(p) => format!(
            "{}-{}/{}-{}",
            p.min_nodes, p.max_nodes, cell.decode.min_nodes, cell.decode.max_nodes
        ),
        None => format!("-/{}-{}", cell.decode.min_nodes, cell.decode.max_nodes),
    };
    vec![
        cell.name.into(),
        pools,
        r.cluster.completed.to_string(),
        Table::num(r.cluster.tokens_per_s),
        Table::num(r.cluster.goodput.goodput_tokens_per_s),
        Table::num(r.cluster.goodput.requests_in_slo as f64 / sessions as f64 * 100.0),
        Table::num(r.cluster.ttft.p999_s * 1e3),
        Table::num(r.node_seconds),
        r.prefill_peak_nodes.to_string(),
        r.decode_peak_nodes.to_string(),
        r.scale_events.len().to_string(),
        r.kv_ships.to_string(),
    ]
}

struct FleetDiurnal {
    sessions: u64,
    workload: ArrivalWorkload,
    arrivals_s: f64,
    cells: Vec<FleetCell>,
    execs: Vec<Vec<SystemExecutor>>,
    scheduler: SchedulerConfig,
    interconnect: InterconnectModel,
}

impl FleetDiurnal {
    fn new(seed: u64, sessions: u64) -> FleetDiurnal {
        let model = ModelConfig::gpt3_175b();
        let spec = TraceSpec {
            sessions,
            mean_rate_per_s: sessions as f64 / AUTOSCALE_DAY_S,
            diurnal_amplitude: 0.6,
            diurnal_period_s: 120.0,
            crowds: vec![
                FlashCrowd {
                    start_s: 60.0,
                    peak: 3.0,
                    ramp_s: 5.0,
                    hold_s: 15.0,
                    decay_s: 10.0,
                },
                FlashCrowd {
                    start_s: 170.0,
                    peak: 2.0,
                    ramp_s: 10.0,
                    hold_s: 20.0,
                    decay_s: 15.0,
                },
            ],
            l_in: 512,
            l_out_range: (64, 128),
            seed: derive_seed(seed, 42),
        };
        let (workload, arrivals_s) = timed(|| spec.generate());
        let cells = autoscale_cells(sessions);
        let execs = cells
            .iter()
            .map(|c| {
                executors(
                    &model,
                    c.prefill.map_or(0, |p| p.max_nodes) + c.decode.max_nodes,
                )
            })
            .collect();
        FleetDiurnal {
            sessions,
            workload,
            arrivals_s,
            cells,
            execs,
            scheduler: node_scheduler(&model),
            interconnect: interconnect(&model),
        }
    }

    fn report(&self, op: usize, cx: &mut Cx) -> FleetReport {
        let cell = &self.cells[op];
        let timed = cx.wrap(&self.execs[op]);
        let refs = nodes(&self.execs[op], &timed);
        let p = cell.prefill.map_or(0, |p| p.max_nodes);
        let cfg = FleetConfig {
            prefill: cell.prefill,
            decode: cell.decode,
            scheduler: self.scheduler,
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: self.interconnect,
            slo: SloSpec::chatbot(),
            autoscaler: cell.autoscaler,
        };
        cx.call("simulate_fleet", || {
            simulate_fleet(&refs[..p], &refs[p..], &self.workload, &cfg)
        })
    }
}

impl Workload for FleetDiurnal {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String> {
        let r = self.report(op, cx);
        let n = self.workload.arrivals.len() as u64;
        check_cluster(&r.cluster, Some(n))?;
        let row = autoscale_row(&self.cells[op], &r, self.sessions).join(" | ");
        Ok(OpOut {
            text: format!("{row}\n{}\n", fleet_text(&r)),
            items: n,
            counts: Counts {
                sessions: n,
                ..Counts::default()
            },
            picks: None,
        })
    }

    fn arrivals_gen_s(&self) -> f64 {
        self.arrivals_s
    }
}

// ---------------------------------------------------------------------
// fleet-chaos: the chaos_fleet_sim frontier at 2,048 requests.
// ---------------------------------------------------------------------

/// Arrival rate of the chaos benches (req/s).
const CHAOS_RATE: f64 = 10.0;
/// Repair time of the chaos benches (s).
const CHAOS_MTTR_S: f64 = 3.0;
/// Fault-schedule seeds averaged per chaos cell.
const CHAOS_FAULT_SEEDS: [u64; 4] = [1, 2, 3, 5];
/// Requests per fleet-chaos run.
const FLEET_CHAOS_REQUESTS: u64 = 2048;
/// Requests per cluster and cluster-chaos run.
const CLUSTER_CHAOS_REQUESTS: u64 = 1024;

/// Crash schedules for every MTBF × fault seed, in that order.
fn fault_schedules(
    seed: u64,
    n_nodes: usize,
    n_requests: u64,
    mtbfs: &[f64],
) -> Vec<FaultSchedule> {
    let horizon_s = 0.75 * n_requests as f64 / CHAOS_RATE;
    mtbfs
        .iter()
        .flat_map(|&mtbf| {
            let spec = FaultSpec::crashes_only(mtbf, CHAOS_MTTR_S);
            CHAOS_FAULT_SEEDS.iter().map(move |&s| {
                FaultSchedule::generate(n_nodes, horizon_s, &spec, derive_seed(seed, s))
            })
        })
        .collect()
}

struct FleetChaos {
    workload: ArrivalWorkload,
    arrivals_s: f64,
    fleet: FleetConfig,
    faults: Vec<FaultSchedule>,
    execs: Vec<SystemExecutor>,
    book: CostBook,
}

impl FleetChaos {
    fn new(seed: u64) -> FleetChaos {
        let model = ModelConfig::gpt3_175b();
        let (workload, arrivals_s) = timed(|| {
            ArrivalWorkload::poisson(
                FLEET_CHAOS_REQUESTS,
                CHAOS_RATE,
                512,
                (64, 128),
                derive_seed(seed, 42),
            )
        });
        // Two fixed prefill nodes feeding an elastic 2–4-node decode pool
        // behind a queue-depth autoscaler, as in `chaos_fleet_sim`.
        let fleet = FleetConfig {
            prefill: Some(PoolConfig::fixed(2)),
            decode: PoolConfig::elastic(2, 2, 4),
            scheduler: node_scheduler(&model),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: interconnect(&model),
            slo: SloSpec::chatbot(),
            autoscaler: Some(AutoscalerConfig {
                interval_s: 0.25,
                cold_start_s: 1.0,
                cooldown_s: 0.75,
                signal: ScaleSignal::QueueDepth {
                    out_per_node: 48.0,
                    in_per_node: 8.0,
                },
            }),
        };
        let n = 2 + fleet.decode.max_nodes;
        FleetChaos {
            workload,
            arrivals_s,
            fleet,
            faults: fault_schedules(seed, n, FLEET_CHAOS_REQUESTS, &CHAOS_FLEET_MTBFS),
            execs: executors(&model, n),
            book: CostBook::paper_defaults(),
        }
    }
}

fn fleet_chaos_text(r: &FleetChaosReport, usd_per_mtok: f64) -> String {
    format!(
        "{} crashes={} avail={:?} reships={} shed={} browned={} recomputed={} unique={} in_slo={} \
         goodput_uf={:?} usd_per_mtok={:?}\n",
        fleet_text(&r.fleet),
        r.crashes,
        r.availability,
        r.recovery_reships,
        r.shed_requests,
        r.browned_out_requests,
        r.recomputed_tokens,
        r.unique_completed,
        r.requests_in_slo,
        r.goodput_under_failure_tokens_per_s,
        usd_per_mtok,
    )
}

impl Workload for FleetChaos {
    fn ops(&self) -> usize {
        CHAOS_FLEET_MTBFS.len() * chaos_fleet_configs().len()
    }

    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String> {
        let configs = chaos_fleet_configs();
        let (mtbf_idx, (_, recovery, degrade)) = (op / configs.len(), configs[op % configs.len()]);
        let cfg = FleetChaosConfig {
            fleet: self.fleet,
            recovery,
            degrade,
        };
        let timed = cx.wrap(&self.execs);
        let refs = nodes(&self.execs, &timed);
        let variants = vec![NodeVariant::AttAccBank; refs.len()];
        let mix = FleetMix::uniform();
        let n = self.workload.arrivals.len() as u64;
        let mut out = OpOut::default();
        for k in 0..CHAOS_FAULT_SEEDS.len() {
            let faults = &self.faults[mtbf_idx * CHAOS_FAULT_SEEDS.len() + k];
            let r = cx.call("simulate_fleet_chaos", || {
                simulate_fleet_chaos(&refs[..2], &refs[2..], &mix, &self.workload, &cfg, faults)
            });
            check_cluster(&r.fleet.cluster, None)?;
            ensure(r.unique_completed + r.shed_requests == n, || {
                format!(
                    "unique {} + shed {} != arrivals {n}",
                    r.unique_completed, r.shed_requests
                )
            })?;
            check_unit("availability", r.availability)?;
            let cost = self.book.bill(&r.fleet, &variants);
            out.text.push_str(&fleet_chaos_text(&r, cost.usd_per_mtok));
            out.items += n;
            out.counts.add(&Counts {
                sessions: n,
                crashes: r.crashes,
                recovery_reships: r.recovery_reships,
                shed: r.shed_requests,
                ..Counts::default()
            });
        }
        Ok(out)
    }

    fn arrivals_gen_s(&self) -> f64 {
        self.arrivals_s
    }
}

// ---------------------------------------------------------------------
// cluster-chaos: the cluster_sim and chaos_sim tables at 1,024 requests.
// ---------------------------------------------------------------------

enum ClusterOp {
    /// `simulate_cluster` on `nodes` nodes over arrival trace `trace`.
    Cluster {
        nodes: usize,
        policy: RouterPolicy,
        trace: usize,
    },
    /// `simulate_chaos` on 4 nodes, one run per fault seed of MTBF
    /// `mtbf` (index into the schedule table).
    Chaos {
        router: RouterPolicy,
        resilience: ResiliencePolicy,
        mtbf: usize,
    },
}

struct ClusterChaos {
    traces: Vec<ArrivalWorkload>,
    arrivals_s: f64,
    ops: Vec<ClusterOp>,
    faults: Vec<FaultSchedule>,
    execs: Vec<SystemExecutor>,
    chaos_seed: u64,
    scheduler: SchedulerConfig,
    interconnect: InterconnectModel,
}

impl ClusterChaos {
    fn new(seed: u64) -> ClusterChaos {
        let model = ModelConfig::gpt3_175b();
        let n = CLUSTER_CHAOS_REQUESTS;
        let s = derive_seed(seed, 42);
        let ((traces, rates), arrivals_s) = timed(|| {
            let rates = [4.0f64, 16.0, 64.0];
            let mut traces: Vec<ArrivalWorkload> = rates
                .iter()
                .map(|&r| ArrivalWorkload::poisson(n, r, 512, (64, 128), s))
                .collect();
            // Load shapes of equal mean rate, then the chaos trace.
            traces.push(ArrivalWorkload::bursty(
                n,
                16.0,
                4.0,
                4.0,
                0.25,
                512,
                (64, 128),
                s,
            ));
            traces.push(ArrivalWorkload::diurnal(
                n,
                16.0,
                0.8,
                8.0,
                512,
                (64, 128),
                s,
            ));
            traces.push(ArrivalWorkload::poisson(n, CHAOS_RATE, 512, (64, 128), s));
            (traces, rates)
        });
        let routers = [
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
            RouterPolicy::LeastKvBytes,
            RouterPolicy::SessionAffinity { spill_backlog: 4 },
        ];
        let mut ops = Vec::new();
        for nodes in [1usize, 2, 4] {
            for &policy in &routers {
                for trace in 0..rates.len() {
                    ops.push(ClusterOp::Cluster {
                        nodes,
                        policy,
                        trace,
                    });
                }
            }
        }
        // Poisson (the rate-16 frontier trace), bursty, diurnal.
        for trace in [1, 3, 4] {
            ops.push(ClusterOp::Cluster {
                nodes: 2,
                policy: RouterPolicy::JoinShortestQueue,
                trace,
            });
        }
        let ladder = chaos_policies();
        for mtbf in 0..CHAOS_FLEET_MTBFS.len() {
            for &resilience in &ladder {
                ops.push(ClusterOp::Chaos {
                    router: RouterPolicy::JoinShortestQueue,
                    resilience,
                    mtbf,
                });
            }
        }
        for &router in &routers {
            for resilience in [ladder[0], ladder[3]] {
                ops.push(ClusterOp::Chaos {
                    router,
                    resilience,
                    mtbf: 2, // 20 s
                });
            }
        }
        ClusterChaos {
            traces,
            arrivals_s,
            ops,
            faults: fault_schedules(seed, 4, n, &CHAOS_FLEET_MTBFS),
            execs: executors(&model, 4),
            chaos_seed: derive_seed(seed, 7),
            scheduler: node_scheduler(&model),
            interconnect: interconnect(&model),
        }
    }

    fn cluster_config(&self, policy: RouterPolicy) -> ClusterConfig {
        ClusterConfig {
            scheduler: self.scheduler,
            policy,
            interconnect: self.interconnect,
            slo: SloSpec::chatbot(),
        }
    }
}

fn chaos_text(r: &ChaosReport) -> String {
    format!(
        "{} crashes={} avail={:?} retries={} hedges={} lost={} unique={} dup={} in_slo={} goodput_uf={:?}\n",
        cluster_text(&r.cluster),
        r.crashes,
        r.availability,
        r.retries,
        r.hedges,
        r.lost_tokens,
        r.unique_completed,
        r.duplicate_completions,
        r.requests_in_slo,
        r.goodput_under_failure_tokens_per_s,
    )
}

impl Workload for ClusterChaos {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String> {
        let mut out = OpOut::default();
        match self.ops[op] {
            ClusterOp::Cluster {
                nodes: n_nodes,
                policy,
                trace,
            } => {
                let execs = &self.execs[..n_nodes];
                let timed = cx.wrap(execs);
                let refs = nodes(execs, &timed);
                let w = &self.traces[trace];
                let cfg = self.cluster_config(policy);
                let r = cx.call("simulate_cluster", || simulate_cluster(&refs, w, &cfg));
                let n = w.arrivals.len() as u64;
                check_cluster(&r, Some(n))?;
                out.text = cluster_text(&r) + "\n";
                out.items = n;
                out.counts.sessions = n;
            }
            ClusterOp::Chaos {
                router,
                resilience,
                mtbf,
            } => {
                let timed = cx.wrap(&self.execs);
                let refs = nodes(&self.execs, &timed);
                let w = self.traces.last().expect("the chaos trace is built last");
                let n = w.arrivals.len() as u64;
                let cfg = ChaosConfig {
                    cluster: self.cluster_config(router),
                    policy: resilience,
                    seed: self.chaos_seed,
                };
                for k in 0..CHAOS_FAULT_SEEDS.len() {
                    let faults = &self.faults[mtbf * CHAOS_FAULT_SEEDS.len() + k];
                    let r = cx.call("simulate_chaos", || simulate_chaos(&refs, w, &cfg, faults));
                    check_cluster(&r.cluster, None)?;
                    ensure(r.unique_completed == n, || {
                        format!("unique completions {} != arrivals {n}", r.unique_completed)
                    })?;
                    check_unit("availability", r.availability)?;
                    out.text.push_str(&chaos_text(&r));
                    out.items += n;
                    out.counts.add(&Counts {
                        sessions: n,
                        crashes: r.crashes,
                        retries: r.retries,
                        ..Counts::default()
                    });
                }
            }
        }
        Ok(out)
    }

    fn arrivals_gen_s(&self) -> f64 {
        self.arrivals_s
    }
}

// ---------------------------------------------------------------------
// design-search: the cheapest-fleet search on the golden grid.
// ---------------------------------------------------------------------

/// Session counts the search runs at.
const SEARCH_USERS: [u64; 4] = [24, 48, 96, 192];

struct DesignSearch {
    model: ModelConfig,
    specs: Vec<FleetSpec>,
    traffic: Vec<TrafficSpec>,
    book: CostBook,
    cfg: SearchConfig,
}

impl DesignSearch {
    fn new(seed: u64) -> DesignSearch {
        DesignSearch {
            model: ModelConfig::gpt3_175b(),
            specs: provision_specs(),
            traffic: SEARCH_USERS
                .iter()
                .map(|&users| TrafficSpec {
                    users,
                    rate_per_s: 6.0,
                    l_in: 512,
                    l_out: (64, 128),
                    seed: derive_seed(seed, 42),
                })
                .collect(),
            book: CostBook::paper_defaults(),
            cfg: provision_search_config(),
        }
    }
}

fn search_text(o: &SearchOutcome) -> String {
    let mut s = format!(
        "grid={} trained={} verified={} pruned={:?} mae={:?} max_err={:?} best={:?}\n",
        o.grid_size,
        o.trained,
        o.verified,
        o.pruned_frac,
        o.surrogate_mae_usd_per_mtok,
        o.surrogate_max_err_usd_per_mtok,
        o.best
            .as_ref()
            .map(|(i, r)| (i, r.spec.label(), r.cost.usd_per_mtok)),
    );
    for p in &o.picks {
        let _ = writeln!(
            s,
            "{} {} pred={:?}/{:?} exact={:?} p999={:?} feasible={} {}",
            p.grid_index,
            p.exact.spec.label(),
            p.predicted_usd_per_mtok,
            p.predicted_p999_s,
            p.exact.cost.usd_per_mtok,
            p.exact.report.cluster.ttft.p999_s,
            p.exact.feasible,
            fleet_text(&p.exact.report),
        );
    }
    s
}

impl Workload for DesignSearch {
    fn ops(&self) -> usize {
        self.traffic.len()
    }

    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String> {
        // Each search starts cold, as a user's process would.
        TimingCache::global().clear();
        let traffic = self.traffic[op];
        let o = cx.call("run_search", || {
            run_search(
                &self.model,
                &self.specs,
                &traffic,
                SloSpec::chatbot(),
                &self.book,
                &self.cfg,
            )
        });
        check_search(&o)?;
        let exact = (o.trained + o.verified) as u64;
        Ok(OpOut {
            text: search_text(&o),
            items: o.grid_size as u64,
            counts: Counts {
                sessions: exact * traffic.users,
                exact_sims: exact,
                ..Counts::default()
            },
            picks: Some((traffic, o.picks.iter().map(|p| p.exact.spec).collect())),
        })
    }

    fn cell_secs(&self, outs: &[OpOut]) -> Option<f64> {
        let mut total = 0.0;
        let mut cells = 0usize;
        for (traffic, picks) in outs.iter().filter_map(|o| o.picks.as_ref()) {
            TimingCache::global().clear();
            for spec in picks {
                let (_, s) = timed(|| {
                    simulate_cell(&self.model, spec, traffic, SloSpec::chatbot(), &self.book)
                });
                total += s;
                cells += 1;
            }
        }
        (cells > 0).then(|| total / cells as f64)
    }
}

// ---------------------------------------------------------------------
// pim-trace: compile → codec round trip → timing replay.
// ---------------------------------------------------------------------

struct PimTrace {
    model: ModelConfig,
    cfg: TimingConfig,
    schedules: Vec<DecodeSchedule>,
}

impl PimTrace {
    fn new() -> PimTrace {
        let policies = [
            KvPolicy::Full,
            KvPolicy::SlidingWindow { window: 256 },
            KvPolicy::Paged {
                tokens_per_page: 256,
                recent_pages: 2,
            },
        ];
        let mut schedules = Vec::new();
        for prompt_l in [512u64, 2048] {
            for batch in [1usize, 8, 64] {
                for policy in policies {
                    schedules.push(DecodeSchedule::uniform(
                        batch,
                        prompt_l,
                        TRACE_STEPS,
                        policy,
                        TracePayload::Timing,
                    ));
                }
            }
        }
        PimTrace {
            model: ModelConfig::gpt3_175b(),
            cfg: TimingConfig::paper(),
            schedules,
        }
    }
}

impl Workload for PimTrace {
    fn ops(&self) -> usize {
        self.schedules.len()
    }

    fn run_op(&self, op: usize, cx: &mut Cx) -> Result<OpOut, String> {
        let trace = cx.call("compile", || compile(&self.model, &self.schedules[op]));
        let text = cx.call("to_text", || trace.to_text());
        let parsed = cx
            .call("parse", || Trace::parse(&text))
            .map_err(|e| format!("parse(to_text(t)) failed: {e:?}"))?;
        ensure(parsed == trace, || "parse(to_text(t)) != t".to_string())?;
        let r = cx
            .call("execute_timing", || execute_timing(&self.cfg, &parsed))
            .map_err(|e| format!("replay failed: {e:?}"))?;
        ensure(r.instructions == trace.len(), || {
            format!(
                "replayed {} of {} instructions",
                r.instructions,
                trace.len()
            )
        })?;
        if cx.warmup {
            let direct =
                execute_timing(&self.cfg, &trace).map_err(|e| format!("replay failed: {e:?}"))?;
            ensure(direct == r, || {
                "replaying the parsed trace differs from the original".to_string()
            })?;
        }
        let insts = trace.len() as u64;
        Ok(OpOut {
            text: format!(
                "insts={} bytes={} heads={} attn={:?} host={:?} energy={:?} mac={} act={} barriers={}\n",
                insts,
                text.len(),
                r.heads_run,
                r.attention_s,
                r.host_s,
                r.energy_j,
                r.mac_commands,
                r.activates,
                r.barriers
            ),
            items: insts,
            counts: Counts { heads_run: r.heads_run, head_evals: TRACE_STEPS, insts, ..Counts::default() },
            picks: None,
        })
    }

    fn probe_shape(&self) -> (Vec<(u64, u64)>, usize) {
        (vec![(8, 2048)], 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_keeps_the_legacy_seeds() {
        for legacy in [1, 2, 3, 5, 7, 42] {
            assert_eq!(derive_seed(42, legacy), legacy);
        }
        assert_eq!(derive_seed(7, 42), splitmix64(49));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
    }

    fn run_all(w: &dyn Workload) -> Vec<OpOut> {
        let counters = ExecCounters::default();
        let mut cx = Cx {
            tracer: None,
            counters: &counters,
            warmup: true,
        };
        (0..w.ops())
            .map(|i| w.run_op(i, &mut cx).expect("op passes its checks"))
            .collect()
    }

    #[test]
    fn fleet_rows_render_the_autoscale_sim_table() {
        // A small trace keeps the test fast; the rows must match the bench
        // binary's table byte for byte at any session count.
        let sessions = 2048;
        let w = FleetDiurnal::new(42, sessions);
        let counters = ExecCounters::default();
        let mut cx = Cx {
            tracer: None,
            counters: &counters,
            warmup: true,
        };
        let mut t = Table::new(
            format!("Autoscaling frontier: GPT-3 175B, diurnal + flash-crowd trace, {sessions} sessions"),
            &[
                "fleet", "nodes P/D", "completed", "tokens/s", "goodput tok/s", "in-SLO %",
                "TTFT p99.9 (ms)", "node-s", "peak P", "peak D", "scale events", "KV ships",
            ],
        );
        for op in 0..w.ops() {
            let r = w.report(op, &mut cx);
            t.push_row(autoscale_row(&w.cells[op], &r, sessions));
        }
        assert_eq!(
            t.to_string(),
            attacc_bench::autoscale_frontier(sessions).to_string()
        );
    }

    #[test]
    fn traced_and_untraced_ops_agree() {
        let w = PimTrace::new();
        let plain = run_all(&w);
        let counters = ExecCounters::default();
        let mut tracer = Tracer::new();
        let mut cx = Cx {
            tracer: Some(&mut tracer),
            counters: &counters,
            warmup: false,
        };
        let traced = w.run_op(0, &mut cx).expect("op passes its checks");
        assert_eq!(traced.text, plain[0].text);
        let names: Vec<&str> = tracer.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["compile", "to_text", "parse", "execute_timing"]);
    }

    fn doctored(mut r: ClusterReport) -> ClusterReport {
        r.completed += 1;
        r
    }

    #[test]
    fn invariant_checks_reject_a_doctored_report() {
        let w = ClusterChaos::new(42);
        let execs = &w.execs[..2];
        let refs = nodes(execs, &[]);
        let trace = &w.traces[0];
        let r = simulate_cluster(
            &refs,
            trace,
            &w.cluster_config(RouterPolicy::JoinShortestQueue),
        );
        let n = trace.arrivals.len() as u64;
        assert_eq!(check_cluster(&r, Some(n)), Ok(()));
        assert!(check_cluster(&doctored(r.clone()), Some(n)).is_err());
        let mut hot = r;
        hot.nodes[0].utilization = 1.5;
        assert!(check_cluster(&hot, Some(n))
            .unwrap_err()
            .contains("utilisation"));
    }

    #[test]
    fn search_checks_reject_a_doctored_outcome() {
        let w = DesignSearch::new(42);
        let o = run_search(
            &w.model,
            &w.specs,
            &w.traffic[0],
            SloSpec::chatbot(),
            &w.book,
            &w.cfg,
        );
        assert_eq!(check_search(&o), Ok(()));
        let mut bad = o.clone();
        bad.pruned_frac += 0.01;
        assert!(check_search(&bad).is_err());
        let mut worse = o;
        worse
            .best
            .as_mut()
            .expect("24 users have a feasible fleet")
            .1
            .feasible = false;
        assert!(check_search(&worse).is_err());
    }
}
