//! `attacc-bench <experiment> [flags]`: prints one experiment of the
//! AttAcc evaluation. `all` prints every table and figure of the paper
//! (the source of `results_all_tables.txt`); run with an unknown name to
//! list the experiments. Flags are described in [`attacc_bench::harness`].

use attacc_bench::harness::{self, BenchArgs, Driver::Custom, Driver::Tables, Experiment};
use attacc_bench::*;
use attacc_sim::engine;
use attacc_sim::Table;
use std::process::ExitCode;

/// Every experiment, by name. A `Tables` driver is timed as a wall-time
/// phase of the same name, the key of its `BENCH_*.json` budget.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", Tables(|_| vec![table1()])),
    ("fig02", Tables(|_| vec![fig02()])),
    ("fig03", Tables(|_| vec![fig03()])),
    ("fig04", Tables(|_| fig04())),
    ("fig07", Tables(|_| vec![fig07()])),
    ("fig13", Tables(|_| vec![fig13(N_REQUESTS)])),
    ("fig14", Tables(|_| vec![fig14()])),
    ("fig15", Tables(|_| vec![fig15(N_REQUESTS)])),
    ("fig16", Tables(|_| vec![fig16(N_REQUESTS)])),
    ("fig17", Tables(|_| vec![fig17(N_REQUESTS)])),
    ("area", Tables(|_| vec![area_table()])),
    ("validation", Tables(|_| vec![validation_table()])),
    ("ablation_gqa", Tables(|_| vec![ablation_gqa()])),
    ("ablation_batch_pipe", Tables(|_| vec![ablation_batch_pipe()])),
    ("ablation_bitwise", Tables(|_| vec![ablation_bitwise()])),
    ("ablation_training", Tables(|_| vec![ablation_training()])),
    ("ablation_bridge", Tables(|_| vec![ablation_bridge()])),
    ("ablation_scaling", Tables(|_| vec![ablation_scaling()])),
    ("speedup_grid", Tables(|_| vec![speedup_grid_table()])),
    ("model_card", Custom(|_| model_card())),
    ("all", Custom(all)),
    (
        "cluster_sim",
        Tables(|_| vec![cluster_frontier(CLUSTER_REQUESTS), cluster_load_shapes(CLUSTER_REQUESTS)]),
    ),
    (
        "chaos_sim",
        Tables(|_| {
            vec![chaos_goodput_frontier(CHAOS_REQUESTS), chaos_routing_matrix(CHAOS_REQUESTS)]
        }),
    ),
    (
        "chaos_fleet_sim",
        Tables(|_| {
            vec![
                chaos_fleet_frontier(CHAOS_FLEET_REQUESTS),
                chaos_fleet_redundancy(CHAOS_FLEET_REQUESTS),
            ]
        }),
    ),
    (
        "integrity_sim",
        Tables(|_| vec![integrity_frontier(INTEGRITY_REQUESTS), ecc_overhead_table()]),
    ),
    ("autoscale_sim", Tables(|_| vec![autoscale_frontier(AUTOSCALE_SESSIONS)])),
    (
        "trace_sim",
        Tables(|_| vec![trace_paper_table(), trace_workloads_table(), trace_opcode_table()]),
    ),
    (
        "provision",
        Tables(|args| {
            vec![
                provision_cost_book_table(),
                provision_stacks_table(),
                provision_frontier(args.users.unwrap_or(PROVISION_USERS)),
            ]
        }),
    ),
    ("hotpath", Custom(|_| hotpath::run())),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ((name, driver), args) = match harness::parse_args(&argv, EXPERIMENTS) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("attacc-bench: {e}\n{}", harness::usage(EXPERIMENTS));
            return ExitCode::from(2);
        }
    };
    if args.serial {
        engine::set_threads(1);
    }
    match driver {
        Tables(tables) => harness::run(name, || tables(&args)),
        Custom(print) => print(&args),
    }
    if !args.quiet {
        harness::print_stats();
    }
    if let Some(path) = &args.budget {
        harness::enforce_budget(path);
    }
    ExitCode::SUCCESS
}

/// Every table and figure of the evaluation, or (`--json`) one JSON
/// array of them.
fn all(args: &BenchArgs) {
    let tables = all_tables(N_REQUESTS);
    if args.json {
        let docs: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        println!("[{}]", docs.join(",\n"));
    } else {
        print!("{}", harness::render(&tables));
    }
}

/// The (L_in, L_out) speedup heat map of DGX+AttAccs over DGX_Base.
fn speedup_grid_table() -> Table {
    use attacc_sim::sweep::{grid_table, speedup_grid};
    let model = attacc_model::ModelConfig::gpt3_175b();
    let lens = [128u64, 512, 1024, 2048];
    let cells = speedup_grid(&model, &lens, 1_000);
    grid_table("Speedup of DGX+AttAccs over DGX_Base across (Lin, Lout), GPT-3 175B", &lens, &cells)
}

/// Resource inventories for every evaluation model.
fn model_card() {
    use attacc_model::{ModelConfig, ModelSummary};
    let mut models = ModelConfig::evaluation_models();
    models.push(ModelConfig::llama2_70b());
    models.push(ModelConfig::opt_66b());
    for m in models {
        println!("{}", ModelSummary::of(&m));
    }
}

/// Wall-time instrumentation for the simulation hot path.
///
/// Times the per-call cost of each component the cluster/chaos event
/// loops lean on — Gen-stage timing resolution (the cached rows-keyed
/// path, and the full op-graph walk of `gen_stage_detail_uncached` that
/// a cache hit saves), the fused PIM attention model, and the
/// binary-heap event queue — and of the simulator's core kernels
/// below them, so a wall-clock regression can be localized to a
/// component without an external profiler. Numbers are
/// machine-dependent and printed for inspection only; the enforced
/// regression gate is the harness `--budget` mode.
mod hotpath {
    use attacc_cluster::{EventKind, EventQueue};
    use attacc_hbm::engine::{simulate_stream, stream_time_estimate_ps};
    use attacc_hbm::{AddressMap, HbmConfig, Interleave, StackGeometry, StreamSpec};
    use attacc_model::{ModelConfig, Request};
    use attacc_pim::accumulator::Accumulator;
    use attacc_pim::mapping::hierarchical_gemv;
    use attacc_pim::numeric::Matrix;
    use attacc_pim::{
        AttAccController, AttAccDevice, AttInst, GemvMode, GemvPlacement, GemvUnit, LevelSpec,
        MappingPolicy, Partitioning, Precision, SoftmaxUnit,
    };
    use attacc_serving::{
        simulate, simulate_open_loop, ArrivalWorkload, SchedulerConfig, StageExecutor, Workload,
    };
    use attacc_sim::{System, SystemExecutor, TimingCache};
    use std::hint::black_box;
    use std::time::Instant;

    fn time<R>(label: &str, iters: u64, mut f: impl FnMut(u64) -> R) {
        let start = Instant::now();
        for i in 0..iters {
            black_box(f(i));
        }
        let total = start.elapsed().as_secs_f64();
        let per_call_ns = total / iters as f64 * 1e9;
        println!("{label:<46} {per_call_ns:>9.1} ns/call   ({iters} calls, {total:.3}s)");
    }

    pub fn run() {
        let model = ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(System::dgx_attacc_full(), &model);
        let dev = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);

        // Steady-state decode: rows constant, contexts advancing one token a
        // round — every call resolves through one GenParts probe plus the
        // analytic combine, exactly like the cluster/chaos inner loops.
        TimingCache::global().clear();
        exec.gen_stage(&[(8, 512)]);
        time("gen_stage cached (steady-state decode)", 100_000, |i| {
            exec.gen_stage(&[(8, 512 + (i % 512))])
        });

        // The same shapes through the uncached op-graph walk: the cost the
        // rows-keyed cache entry saves on every call after the first.
        time("gen_stage_detail_uncached (op-graph walk)", 2_000, |i| {
            exec.gen_stage_detail_uncached(&[(8, 512 + (i % 512))])
        });

        // The fused PIM attention model alone (runs inside every cached
        // combine).
        time("attention_decoder_time (one group)", 100_000, |i| {
            dev.attention_decoder_time(&model, &[(8, 512 + (i % 512))], true)
        });

        // Sum-stage probe on a warm cache (prefill admissions).
        TimingCache::global().clear();
        time("sum_stage warm probe", 100_000, |i| exec.sum_stage(1 + (i % 4), 512));

        // A full scheduling round in steady-state decode: 16 active
        // sequences, no admissions, contexts advancing one token per call —
        // the NodeReady handler's dominant work item.
        TimingCache::global().clear();
        let mut node = attacc_cluster::NodeEngine::new(&exec, SchedulerConfig::unlimited(16));
        for i in 0..16u64 {
            node.deliver(0.0, Request::new(i, 256 + i, 1 << 40));
        }
        let mut t = node.run_round(0.0).end_s;
        time("node run_round (16-way steady decode)", 100_000, |_| {
            let out = node.run_round(t);
            t = out.end_s;
            t
        });

        // Event-queue churn: a standing population with one pop + one push
        // per step, time strictly advancing — the cluster loop's access
        // pattern.
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(1e-3 * i as f64, EventKind::NodeReady { node: 0 });
        }
        time("event queue pop+push (standing population)", 1_000_000, |i| {
            let ev = q.pop().expect("queue never drains");
            q.push(ev.time_s + 1e-3 * ((i % 7) as f64 + 1.0), EventKind::NodeReady { node: 0 });
            ev.time_s
        });

        // The DRAM command engine streaming 4 MiB: event-driven, and the
        // closed form that stands in for it.
        let hbm = HbmConfig::hbm3_8hi();
        let spec = StreamSpec::uniform(&hbm.geometry, 4 << 20, hbm.power.max_active_banks);
        time("hbm stream, event-driven (4 MiB)", 200, |_| simulate_stream(&hbm, &spec));
        time("hbm stream, closed form (4 MiB)", 100_000, |_| stream_time_estimate_ps(&hbm, &spec));

        // The functional PIM dataflow: a 128x512 GEMV over a three-level
        // hierarchy, and the softmax unit over 4096 scores.
        let policy = MappingPolicy {
            levels: vec![
                LevelSpec { fanout: 8, partitioning: Partitioning::ColWise },
                LevelSpec { fanout: 4, partitioning: Partitioning::ColWise },
                LevelSpec { fanout: 4, partitioning: Partitioning::RowWise },
            ],
            unit_mode: GemvMode::AdderTree,
        };
        let (k, n) = (128usize, 512usize);
        let x: Vec<f32> = (0..k).map(|i| (i % 13) as f32 * 0.1).collect();
        let m = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 17) as f32 * 0.05).collect());
        let (unit, acc) = (GemvUnit::new(), Accumulator::fp16());
        time("hierarchical GEMV (128x512)", 50, |_| {
            hierarchical_gemv(&unit, &acc, &policy, &x, &m)
        });
        let softmax = SoftmaxUnit::new();
        let scores: Vec<f32> = (0..4096).map(|i| (i % 101) as f32 * 0.07 - 3.0).collect();
        time("softmax unit (4096 scores)", 5_000, |_| softmax.compute(&scores));

        // Gen-stage timing of one large group on both systems (warm cache
        // after the first call).
        let groups = [(64u64, 3072u64)];
        let base = SystemExecutor::new(System::dgx_base(), &model);
        time("gen_stage DGX_Base (64 x 3072)", 100_000, |_| base.gen_stage(&groups));
        time("gen_stage DGX+AttAcc (64 x 3072)", 100_000, |_| exec.gen_stage(&groups));

        // The single-node serving scheduler over 64 requests, closed loop
        // and open loop (Poisson arrivals).
        let cfg = SchedulerConfig::unlimited(16);
        let closed = Workload::uniform_random(64, 128, (16, 64), 11).requests();
        time("scheduler, closed loop (64 requests)", 1_000, |_| simulate(&exec, &closed, &cfg));
        let open = ArrivalWorkload::poisson(64, 8.0, 128, (16, 64), 5);
        time("scheduler, open loop (64 requests)", 500, |_| simulate_open_loop(&exec, &open, &cfg));

        // The functional controller: one attention head (d = 32, L = 64)
        // from model setup to output read-back.
        let geom = StackGeometry {
            pseudo_channels: 4,
            bank_groups_per_rank: 2,
            ranks: 2,
            banks_per_group: 2,
            ..StackGeometry::hbm3_8hi()
        };
        let (d, l) = (32usize, 64usize);
        time("functional controller attention (d32, L64)", 500, |_| {
            let mut ctl = AttAccController::new(&geom, 4, Precision::Fp16);
            ctl.execute(AttInst::SetModel { n_head: 1, d_head: d, max_l: 4096 }).unwrap();
            ctl.execute(AttInst::UpdateRequest { request: 0, remove: false }).unwrap();
            for tok in 0..l {
                let k: Vec<f32> = (0..d).map(|i| ((tok * 7 + i) % 13) as f32 * 0.1).collect();
                let v: Vec<f32> = (0..d).map(|i| ((tok * 3 + i) % 11) as f32 * 0.1).collect();
                let (k, v) = (Box::new(k), Box::new(v));
                ctl.execute(AttInst::AppendKv { request: 0, head: 0, k, v }).unwrap();
            }
            let q: Vec<f32> = (0..d).map(|i| (i % 5) as f32 * 0.2).collect();
            ctl.execute(AttInst::LoadQ { request: 0, head: 0, q: Box::new(q) }).unwrap();
            ctl.execute(AttInst::RunAttention { request: 0, head: 0 }).unwrap();
            ctl.execute(AttInst::ReadOutput { request: 0, head: 0 }).unwrap()
        });

        // Address mapping: one beat decoded to (channel, bank, row, col)
        // and encoded back.
        let map = AddressMap::new(StackGeometry::hbm3_8hi(), Interleave::RowInterleaved);
        time("address decode+encode", 1_000_000, |i| {
            map.encode(map.decode(black_box(i * 997 % 1_000_000)))
        });
    }
}
