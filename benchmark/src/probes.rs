//! Kernel probes: min-of-N host ns per call of the layers the workloads
//! lean on, each called from outside through its public API on the
//! shape the traced run captured.

use attacc_cluster::{EventKind, EventQueue, NodeEngine, NodeLoad, Router, RouterPolicy};
use attacc_model::{ModelConfig, Request};
use attacc_serving::{SchedulerConfig, StageExecutor};
use attacc_sim::{System, SystemExecutor, TimingCache};
use attacc_trace::{head_cost, TimingConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timed batch runs at least this long.
const MIN_BATCH: Duration = Duration::from_millis(50);
/// Timed batches per probe; the fastest is reported.
const BATCHES: usize = 5;

/// Min-of-[`BATCHES`] ns per call of `f`, each batch repeated until it
/// lasts [`MIN_BATCH`].
fn ns_per_call<R>(mut f: impl FnMut(u64) -> R) -> f64 {
    let mut iters = 1u64;
    let mut i = 0u64;
    let mut batch = |n: u64| {
        let start = Instant::now();
        for _ in 0..n {
            black_box(f(i));
            i += 1;
        }
        start.elapsed()
    };
    while batch(iters) < MIN_BATCH {
        iters *= 2;
    }
    (0..BATCHES)
        .map(|_| batch(iters).as_secs_f64() * 1e9 / iters as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Probe results, ns per call.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `attacc_trace::head_cost` on the command engine.
    pub head_cost: f64,
    /// `AttAccDevice::attention_decoder_time`.
    pub attention: f64,
    /// `gen_stage_detail_uncached` on `DGX+AttAccs`.
    pub pim_gen_exact: f64,
    /// `gen_stage_detail_uncached` on `DGX_Base`.
    pub xpu_gen_exact: f64,
    /// `EventQueue` pop + push over a standing population.
    pub queue: f64,
    /// `Router::route` with join-shortest-queue.
    pub route: f64,
    /// `NodeEngine::run_round` in steady decode, as many rows as the
    /// shape.
    pub round: f64,
}

/// Runs every probe on Gen shape `groups` (non-empty) over `n_nodes`
/// nodes.
#[must_use]
pub fn run(groups: &[(u64, u64)], n_nodes: usize) -> Probes {
    let model = ModelConfig::gpt3_175b();
    let pim = SystemExecutor::new(System::dgx_attacc_full(), &model);
    let xpu = SystemExecutor::new(System::dgx_base(), &model);
    let device = pim
        .system()
        .attacc
        .clone()
        .expect("DGX+AttAccs has a PIM device");
    let timing = TimingConfig::paper();
    let l_max = groups.iter().map(|g| g.1).max().unwrap_or(1);

    let head_cost = ns_per_call(|_| head_cost(&timing, l_max, model.d_head));
    let attention = ns_per_call(|_| device.attention_decoder_time(&model, groups, true));
    let pim_gen_exact = ns_per_call(|_| pim.gen_stage_detail_uncached(groups));
    let xpu_gen_exact = ns_per_call(|_| xpu.gen_stage_detail_uncached(groups));

    let mut q = EventQueue::new();
    for i in 0..1024u64 {
        q.push(1e-3 * i as f64, EventKind::NodeReady { node: 0 });
    }
    let queue = ns_per_call(|i| {
        let ev = q.pop().expect("the standing population never drains");
        q.push(
            ev.time_s + 1e-3 * ((i % 7) as f64 + 1.0),
            EventKind::NodeReady { node: 0 },
        );
        ev.time_s
    });

    let mut router = Router::new(RouterPolicy::JoinShortestQueue);
    // Backlogs descending, so the argmin scan runs to the last node.
    let loads: Vec<NodeLoad> = (0..n_nodes.max(1) as u64)
        .map(|b| NodeLoad {
            backlog: 64 - b.min(63),
            kv_tokens: 0,
        })
        .collect();
    let route = ns_per_call(|i| router.route(i, &loads).node);

    // A standing decode as wide as the shape: no admissions, contexts
    // advancing one token a round, the Gen probe answered by the warm
    // timing cache.
    let rows: u64 = groups.iter().map(|g| g.0).sum::<u64>().max(1);
    TimingCache::global().clear();
    let mut node = NodeEngine::new(&pim as &dyn StageExecutor, SchedulerConfig::unlimited(rows));
    for i in 0..rows {
        node.deliver(0.0, Request::new(i, 256 + i, 1 << 40));
    }
    let mut t = node.run_round(0.0).end_s;
    let round = ns_per_call(|_| {
        t = node.run_round(t).end_s;
        t
    });

    Probes {
        head_cost,
        attention,
        pim_gen_exact,
        xpu_gen_exact,
        queue,
        route,
        round,
    }
}
