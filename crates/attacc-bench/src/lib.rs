//! Benchmark harness regenerating every table and figure of the AttAcc
//! paper's evaluation.
//!
//! Each `figNN()` function runs the corresponding experiment at the
//! paper's parameters and renders the rows as a [`Table`]. The
//! `attacc-bench` binary prints one experiment by name (`cargo run
//! --release -p attacc-bench -- fig13`): `all` prints the full
//! evaluation, the source of `results_all_tables.txt` and
//! `EXPERIMENTS.md`, and `hotpath` times the simulator's components and
//! core kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use attacc_chaos::{
    simulate_chaos, simulate_fleet_chaos, simulate_integrity, ChaosConfig, ChaosReport,
    CorruptionSpec, DegradePolicy, FaultSchedule, FaultSpec, FleetChaosConfig, HealthConfig,
    IntegrityReport, Protection, RecoveryMode, ResiliencePolicy,
};
use attacc_cluster::{
    simulate_cluster, simulate_fleet, AutoscalerConfig, ClusterConfig, FleetConfig, FleetMix,
    FleetReport, InterconnectModel, PoolConfig, RouterPolicy, ScaleSignal, SloSpec,
};
use attacc_model::{KvCacheSpec, ModelConfig, GIB};
use attacc_pim::bitwise::{bank_pim_speedup, BankPimModel, BulkBitwiseModel};
use attacc_pim::{AreaReport, GemvPlacement};
use attacc_sim::experiment::{
    alternatives_study, batching_study, bitwidth_study, end_to_end, gen_stage_fraction,
    gqa_ablation, placement_study, roofline_rows, slo_study,
};
use attacc_serving::{
    ArrivalWorkload, FlashCrowd, RetryPolicy, SchedulerConfig, StageExecutor, TraceSpec,
};
use attacc_provision::{
    enumerate_specs, run_search, CostBook, FleetSpec, NodeVariant, SearchConfig, SearchOutcome,
    TrafficSpec,
};
use attacc_sim::validate::validate_opt66b;
use attacc_sim::{SweepRunner, System, SystemExecutor, Table};
use attacc_trace::{
    compile, execute_timing, DecodeSchedule, KvPolicy, TimingConfig, TracePayload, TraceReport,
};

pub mod harness;

/// The paper's three (L_in, L_out) evaluation points for Fig. 13/15/16.
pub const EVAL_SEQS: [(u64, u64); 3] = [(512, 512), (1024, 1024), (2048, 2048)];

/// Requests served per end-to-end configuration (§7.2).
pub const N_REQUESTS: u64 = 10_000;

fn n(v: f64) -> String {
    Table::num(v)
}

/// Table 1: model size and maximum input-sequence trends.
#[must_use]
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: model size and max input sequence (FP16 weights)",
        &["model", "params", "size (GB)", "max seq len"],
    );
    for m in [ModelConfig::gpt1(), ModelConfig::gpt2_xl(), ModelConfig::gpt3_175b()] {
        t.push_row(vec![
            m.name.clone(),
            format!("{:.2e}", m.n_params() as f64),
            n(m.weight_bytes() as f64 / GIB as f64),
            m.max_seq_len.to_string(),
        ]);
    }
    t.push_row(vec!["GPT-4".into(), "-".into(), "-".into(), "32768".into()]);
    t
}

/// Fig. 2: percentage of Gen-stage time over (L_in, L_out), GPT-3 175B,
/// batch 1 on the DGX baseline.
#[must_use]
pub fn fig02() -> Table {
    let lens = [2u64, 8, 32, 128, 512, 2048];
    let model = ModelConfig::gpt3_175b();
    let sys = System::dgx_base();
    let mut headers: Vec<String> = vec!["Lout \\ Lin".into()];
    headers.extend(lens.iter().map(ToString::to_string));
    let mut t = Table::new(
        "Figure 2: % of Gen-stage time in total execution (GPT-3 175B, batch 1)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    // Heat-map cells are independent: run the grid on the sweep engine
    // (row-major over L_out descending, matching the serial loops).
    let cells: Vec<(u64, u64)> = lens
        .iter()
        .rev()
        .flat_map(|&lout| lens.iter().map(move |&lin| (lin, lout)))
        .collect();
    let fracs = SweepRunner::from_env()
        .map(&cells, |&(lin, lout)| gen_stage_fraction(&sys, &model, lin, lout));
    for (i, &lout) in lens.iter().rev().enumerate() {
        let mut row = vec![lout.to_string()];
        for j in 0..lens.len() {
            row.push(format!("{:.1}", 100.0 * fracs[i * lens.len() + j]));
        }
        t.push_row(row);
    }
    t
}

/// Fig. 3: roofline of the baseline for GPT-3's Sum and Gen layers.
#[must_use]
pub fn fig03() -> Table {
    let model = ModelConfig::gpt3_175b();
    let rows = roofline_rows(&System::dgx_base(), &model, 2048, &[1, 8, 64, 256]);
    let mut t = Table::new(
        "Figure 3: roofline placement (DGX, GPT-3 175B, Lin = 2048)",
        &["layer", "op/B", "attainable TFLOP/s", "bound"],
    );
    for r in rows {
        t.push_row(vec![
            r.label,
            n(r.op_per_byte),
            n(r.attainable_tflops),
            if r.memory_bound { "memory".into() } else { "compute".into() },
        ]);
    }
    t
}

/// Fig. 4: throughput/capacity, energy and breakdown versus batch size
/// (DGX with unlimited capacity, L_in = 2048).
#[must_use]
pub fn fig04() -> Vec<Table> {
    let model = ModelConfig::gpt3_175b();
    let sys = System::dgx_base();
    let batches = [1u64, 2, 4, 8, 16, 32, 64, 128, 256];
    [128u64, 512, 2048]
        .iter()
        .map(|&lout| {
            let mut t = Table::new(
                format!("Figure 4: batching on DGX (GPT-3 175B, Lin=2048, Lout={lout})"),
                &[
                    "batch",
                    "tokens/s",
                    "capacity (GB)",
                    ">DGX?",
                    "J/token",
                    "iter (ms)",
                    "FC%",
                    "attn%",
                    "etc%",
                    "GPU util%",
                ],
            );
            for row in batching_study(&sys, &model, 2048, lout, &batches) {
                t.push_row(vec![
                    row.batch.to_string(),
                    n(row.tokens_per_s),
                    n(row.required_capacity_gib),
                    if row.exceeds_dgx_capacity { "*".into() } else { "".into() },
                    n(row.energy_per_token_j),
                    n(row.iteration_latency_s * 1e3),
                    n(row.fc_frac * 100.0),
                    n(row.attn_frac * 100.0),
                    n(row.other_frac * 100.0),
                    n(row.utilization * 100.0),
                ]);
            }
            t
        })
        .collect()
}

/// Companion to Fig. 4: the same batching study on the PIM platform,
/// showing the attention share staying flat where the baseline's explodes.
#[must_use]
pub fn fig04_pim() -> Table {
    let model = ModelConfig::gpt3_175b();
    let sys = System::dgx_attacc_full();
    let batches = [1u64, 4, 16, 64, 256];
    let mut t = Table::new(
        "Figure 4 companion: batching on DGX+AttAccs (GPT-3 175B, Lin=2048, Lout=2048)",
        &["batch", "tokens/s", "J/token", "iter (ms)", "attn%"],
    );
    for row in batching_study(&sys, &model, 2048, 2048, &batches) {
        t.push_row(vec![
            row.batch.to_string(),
            n(row.tokens_per_s),
            n(row.energy_per_token_j),
            n(row.iteration_latency_s * 1e3),
            n(row.attn_frac * 100.0),
        ]);
    }
    t
}

/// Fig. 7: the GEMV-placement design space.
#[must_use]
pub fn fig07() -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Figure 7: AttAcc design points (GPT-3 175B, Lin/Lout = 2048)",
        &[
            "placement",
            "peak power (W)",
            "rel tput",
            "rel energy",
            "area ovh %",
            "rel EDAP",
        ],
    );
    for r in placement_study(&model, 50, 4096) {
        t.push_row(vec![
            r.placement,
            n(r.peak_power_w),
            n(r.rel_throughput),
            n(r.rel_energy),
            n(r.area_overhead * 100.0),
            n(r.rel_edap),
        ]);
    }
    t
}

/// Fig. 13: normalized end-to-end time for 10,000 requests across models,
/// sequence lengths and systems.
#[must_use]
pub fn fig13(n_requests: u64) -> Table {
    let models = ModelConfig::evaluation_models();
    let mut t = Table::new(
        format!("Figure 13: normalized execution time, {n_requests} requests"),
        &["model", "Lin", "Lout", "system", "batch", "time (s)", "normalized"],
    );
    for r in end_to_end(&models, &EVAL_SEQS, n_requests) {
        t.push_row(vec![
            r.model,
            r.l_in.to_string(),
            r.l_out.to_string(),
            r.system,
            r.batch.to_string(),
            n(r.time_s),
            n(r.normalized),
        ]);
    }
    t
}

/// Fig. 14: throughput under SLOs (GPT-3 175B).
#[must_use]
pub fn fig14() -> Table {
    let model = ModelConfig::gpt3_175b();
    let slos = [None, Some(0.070), Some(0.050), Some(0.030)];
    let mut t = Table::new(
        "Figure 14: throughput under SLO (GPT-3 175B, Lin/Lout = 2048)",
        &["SLO", "system", "max batch", "tokens/s", "normalized"],
    );
    let rows = slo_study(&model, 2048, 2048, &slos);
    let base: Vec<f64> = slos
        .iter()
        .map(|&slo| {
            rows.iter()
                .find(|r| r.slo_s == slo && r.system == "DGX_Base")
                .map_or(0.0, |r| r.tokens_per_s)
        })
        .collect();
    for r in &rows {
        let slo_idx = slos.iter().position(|&s| s == r.slo_s).unwrap_or(0);
        let denom = base[slo_idx];
        t.push_row(vec![
            r.slo_s.map_or("none".into(), |s| format!("{:.0}ms", s * 1e3)),
            r.system.clone(),
            r.max_batch.to_string(),
            n(r.tokens_per_s),
            if denom > 0.0 { n(r.tokens_per_s / denom) } else { "inf".into() },
        ]);
    }
    t
}

/// Fig. 15: energy per output token (absolute and normalized).
#[must_use]
pub fn fig15(n_requests: u64) -> Table {
    let models = ModelConfig::evaluation_models();
    let mut t = Table::new(
        "Figure 15: energy per output token",
        &["model", "Lin", "Lout", "system", "J/token", "normalized", "saved %"],
    );
    for r in end_to_end(&models, &EVAL_SEQS, n_requests) {
        // Recover the per-(model,seq) base row: normalized time row order
        // guarantees DGX_Base first.
        t.push_row(vec![
            r.model,
            r.l_in.to_string(),
            r.l_out.to_string(),
            r.system,
            n(r.energy_per_token_j),
            String::new(),
            String::new(),
        ]);
    }
    // Fill normalized columns per group of five systems.
    let mut i = 0;
    while i < t.rows.len() {
        let base: f64 = t.rows[i][4].parse().unwrap_or(1.0);
        for j in i..(i + 5).min(t.rows.len()) {
            let v: f64 = t.rows[j][4].parse().unwrap_or(0.0);
            t.rows[j][5] = n(v / base);
            t.rows[j][6] = n(100.0 * (1.0 - v / base));
        }
        i += 5;
    }
    t
}

/// Fig. 16: FP16 vs INT8 sensitivity (GPT-3 175B).
#[must_use]
pub fn fig16(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Figure 16: bit-width sensitivity (GPT-3 175B)",
        &["dtype", "Lin", "Lout", "speedup vs DGX_Base", "speedup vs DGX_Large"],
    );
    for r in bitwidth_study(&model, &EVAL_SEQS, n_requests) {
        t.push_row(vec![
            r.dtype,
            r.l_in.to_string(),
            r.l_out.to_string(),
            n(r.speedup_vs_base),
            n(r.speedup_vs_large),
        ]);
    }
    t
}

/// Fig. 17: comparison with other DGX options (GPT-3 175B).
#[must_use]
pub fn fig17(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Figure 17: other DGX options (GPT-3 175B)",
        &["system", "Lin", "Lout", "batch", "normalized throughput"],
    );
    for r in alternatives_study(&model, &EVAL_SEQS, n_requests) {
        t.push_row(vec![
            r.system,
            r.l_in.to_string(),
            r.l_out.to_string(),
            r.batch.to_string(),
            n(r.normalized_throughput),
        ]);
    }
    t
}

/// §7.7: area overhead of the shipped (bank-level) design.
#[must_use]
pub fn area_table() -> Table {
    let hbm = attacc_hbm::HbmConfig::hbm3_8hi();
    let mut t = Table::new(
        "Section 7.7: area overhead per design point",
        &["placement", "DRAM die (mm^2)", "die overhead %", "buffer die (mm^2)"],
    );
    for p in GemvPlacement::ALL {
        let r = AreaReport::for_placement(p, &hbm);
        t.push_row(vec![
            p.to_string(),
            n(r.per_dram_die_mm2),
            n(r.dram_die_overhead * 100.0),
            n(r.per_buffer_die_mm2),
        ]);
    }
    t
}

/// §8 ablation: GQA/MQA sensitivity of the attention speedup, with and
/// without the systolic GEMV-unit extension.
#[must_use]
pub fn ablation_gqa() -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Section 8 ablation: GQA/MQA (GPT-3 175B, batch 32, L = 2048)",
        &["KV sharing", "KV heads", "default speedup", "systolic speedup"],
    );
    for r in gqa_ablation(&model, 32, 2048, &[1, 2, 4, 8, 16, 32, 96]) {
        let kv_heads = 96 / r.group_size;
        t.push_row(vec![
            format!("group={}", r.group_size),
            kv_heads.to_string(),
            n(r.attention_speedup),
            n(r.systolic_speedup),
        ]);
    }
    t
}

/// §6.1 ablation: batch-level pipelining versus the adopted head-level
/// pipelining (the Fig. 11(c) argument).
#[must_use]
pub fn ablation_batch_pipe() -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Section 6.1 ablation: batch-level pipelining (GPT-3 175B, Lin/Lout = 2048)",
        &["strategy", "batch per stream", "tokens/s"],
    );
    for r in attacc_sim::experiment::batch_pipelining_ablation(&model, 2048, 2048) {
        t.push_row(vec![
            r.strategy,
            r.batch_per_stream.to_string(),
            n(r.tokens_per_s),
        ]);
    }
    t
}

/// §8 ablation: bulk bitwise versus bank-level PIM for INT8 multiplies.
#[must_use]
pub fn ablation_bitwise() -> Table {
    let bulk = BulkBitwiseModel::default();
    let pim = BankPimModel::default();
    let mut t = Table::new(
        "Section 8 ablation: bulk-bitwise vs bank-level PIM (INT8, per bank, 20 us window)",
        &["approach", "multiplications", "relative"],
    );
    let b = bulk.int8_muls_per_bank(20.0);
    let p = pim.int8_muls_per_bank(20.0);
    t.push_row(vec!["bulk bitwise (Ambit-style)".into(), n(b), n(1.0)]);
    t.push_row(vec!["bank-level PIM (AttAcc)".into(), n(p), n(bank_pim_speedup(&bulk, &pim))]);
    t
}

/// §8 ablation: the implication of AttAcc on training.
#[must_use]
pub fn ablation_training() -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Section 8 ablation: training phases (GPT-3 175B, batch 8, seq 2048)",
        &["phase", "attention op/B", "bound", "AttAcc speedup"],
    );
    for r in attacc_sim::experiment::training_ablation(&model, 8, 2048) {
        t.push_row(vec![
            r.phase,
            n(r.attention_op_b),
            if r.memory_bound { "memory".into() } else { "compute".into() },
            n(r.attacc_speedup),
        ]);
    }
    t
}

/// Design-choice ablation: sensitivity to the xPU↔AttAcc bridge.
#[must_use]
pub fn ablation_bridge() -> Table {
    use attacc_xpu::Interconnect;
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Ablation: xPU-AttAcc interconnect sensitivity (GPT-3 175B, batch 32, L = 2048)",
        &["bridge", "GB/s", "iteration (ms)", "slowdown"],
    );
    for r in attacc_sim::experiment::bridge_sensitivity(
        &model,
        32,
        2048,
        &[
            Interconnect::pcie_gen5(),
            Interconnect::accelerator_bridge(),
            Interconnect::nvlink(),
        ],
    ) {
        t.push_row(vec![r.bridge, n(r.bw_gb_s), n(r.iteration_ms), n(r.slowdown)]);
    }
    t
}

/// Design-choice ablation: speedup versus model scale (§7.2's
/// interpretation of where the win comes from).
#[must_use]
pub fn ablation_scaling() -> Table {
    let models = [
        ModelConfig::gpt3_6_7b(),
        ModelConfig::gpt3_13b(),
        ModelConfig::llama_65b(),
        ModelConfig::gpt3_175b(),
        ModelConfig::mt_nlg_530b(),
    ];
    let mut t = Table::new(
        "Ablation: speedup vs model scale (Lin/Lout = 2048, 1000 requests)",
        &["model", "params", "batch Base", "batch PIM", "speedup"],
    );
    for r in attacc_sim::experiment::model_scaling_study(&models, 2048, 2048, 1_000) {
        t.push_row(vec![
            r.model,
            format!("{:.2e}", r.params as f64),
            r.batch_base.to_string(),
            r.batch_pim.to_string(),
            n(r.speedup),
        ]);
    }
    t
}

/// §7.1 validation point: OPT-66B on a real-bandwidth DGX A100.
#[must_use]
pub fn validation_table() -> Table {
    let r = validate_opt66b();
    let mut t = Table::new(
        "Section 7.1 validation: OPT-66B batch-1 token latency on DGX A100",
        &["quantity", "seconds"],
    );
    t.push_row(vec!["modeled".into(), format!("{:.4}", r.modeled_s)]);
    t.push_row(vec!["published measurement".into(), format!("{:.4}", r.measured_s)]);
    t.push_row(vec!["ratio".into(), format!("{:.2}", r.ratio)]);
    t
}

/// Supporting stat: the KV capacity picture of §3.2.
#[must_use]
pub fn capacity_table() -> Table {
    let m = ModelConfig::gpt3_175b();
    let spec = KvCacheSpec::of(&m);
    let mut t = Table::new(
        "Section 3.2: KV-cache capacity pressure (GPT-3 175B, FP16)",
        &["quantity", "value"],
    );
    t.push_row(vec![
        "KV per request at L=4096".into(),
        attacc_model::fmt_gib(spec.bytes_at(4096)),
    ]);
    t.push_row(vec![
        "KV for batch 64".into(),
        attacc_model::fmt_gib(spec.batch_bytes(64, 4096)),
    ]);
    t.push_row(vec![
        "weights".into(),
        attacc_model::fmt_gib(m.weight_bytes()),
    ]);
    let free = 640 * GIB - m.weight_bytes();
    t.push_row(vec![
        "max batch on DGX (640 GB)".into(),
        spec.max_batch(free, 4096).to_string(),
    ]);
    t
}

/// Every table of the evaluation, in paper order. Each driver is timed
/// as its own phase in [`attacc_sim::engine::phase_report`].
#[must_use]
pub fn all_tables(n_requests: u64) -> Vec<Table> {
    use attacc_sim::engine::time_phase;
    let mut out = vec![
        time_phase("table1", table1),
        time_phase("capacity", capacity_table),
        time_phase("fig02", fig02),
        time_phase("fig03", fig03),
    ];
    out.extend(time_phase("fig04", fig04));
    out.push(time_phase("fig04_pim", fig04_pim));
    out.push(time_phase("fig07", fig07));
    out.push(time_phase("fig13", || fig13(n_requests)));
    out.push(time_phase("fig14", fig14));
    out.push(time_phase("fig15", || fig15(n_requests)));
    out.push(time_phase("fig16", || fig16(n_requests)));
    out.push(time_phase("fig17", || fig17(n_requests)));
    out.push(time_phase("area", area_table));
    out.push(time_phase("ablation_gqa", ablation_gqa));
    out.push(time_phase("ablation_batch_pipe", ablation_batch_pipe));
    out.push(time_phase("ablation_bitwise", ablation_bitwise));
    out.push(time_phase("ablation_training", ablation_training));
    out.push(time_phase("ablation_bridge", ablation_bridge));
    out.push(time_phase("ablation_scaling", ablation_scaling));
    out.push(time_phase("validation", validation_table));
    out
}

/// Requests per cluster-simulation cell (kept below [`N_REQUESTS`]: each
/// cell replays a full discrete-event run, not a steady-state formula).
pub const CLUSTER_REQUESTS: u64 = 256;

/// The per-node serving configuration of the cluster experiments: a
/// `DGX+AttAccs` node serving GPT-3 175B, batch capped at 64, KV capacity
/// set to the HBM left after weights.
fn cluster_node_config(model: &ModelConfig) -> SchedulerConfig {
    let spec = KvCacheSpec::of(model);
    let free = 640 * GIB - model.weight_bytes();
    SchedulerConfig::with_capacity(64, free, spec.bytes_per_token)
}

fn cluster_cell(
    model: &ModelConfig,
    n_nodes: usize,
    policy: RouterPolicy,
    workload: &ArrivalWorkload,
) -> attacc_cluster::ClusterReport {
    let execs: Vec<SystemExecutor> =
        (0..n_nodes).map(|_| SystemExecutor::new(System::dgx_attacc_full(), model)).collect();
    let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
    let cfg = ClusterConfig {
        scheduler: cluster_node_config(model),
        policy,
        interconnect: InterconnectModel::ethernet_400g()
            .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
        slo: SloSpec::chatbot(),
    };
    simulate_cluster(&refs, workload, &cfg)
}

/// Cluster throughput–latency frontier: node count × router policy ×
/// arrival rate, GPT-3 175B on `DGX+AttAccs` nodes behind a 400 GbE
/// front door. Cells are independent and run on the sweep engine.
#[must_use]
pub fn cluster_frontier(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let policies = [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvBytes,
        RouterPolicy::SessionAffinity { spill_backlog: 4 },
    ];
    let nodes = [1usize, 2, 4];
    let rates = [4.0f64, 16.0, 64.0];
    let mut cells: Vec<(usize, RouterPolicy, f64)> = Vec::new();
    for &n_nodes in &nodes {
        for &policy in &policies {
            for &rate in &rates {
                cells.push((n_nodes, policy, rate));
            }
        }
    }
    let reports = SweepRunner::from_env().map(&cells, |&(n_nodes, policy, rate)| {
        let w = ArrivalWorkload::poisson(n_requests, rate, 512, (64, 128), 42);
        cluster_cell(&model, n_nodes, policy, &w)
    });
    let mut t = Table::new(
        format!("Cluster frontier: GPT-3 175B on DGX+AttAccs nodes, {n_requests} requests"),
        &[
            "nodes",
            "policy",
            "rate/s",
            "tokens/s",
            "goodput tok/s",
            "TTFT p50 (ms)",
            "TTFT p99 (ms)",
            "TTFT p99.9 (ms)",
            "TBT p99 (ms)",
            "util %",
        ],
    );
    for (&(n_nodes, policy, rate), r) in cells.iter().zip(&reports) {
        t.push_row(vec![
            n_nodes.to_string(),
            policy.name().into(),
            n(rate),
            n(r.tokens_per_s),
            n(r.goodput.goodput_tokens_per_s),
            n(r.ttft.p50_s * 1e3),
            n(r.ttft.p99_s * 1e3),
            n(r.ttft.p999_s * 1e3),
            n(r.tbt.p99_s * 1e3),
            n(r.mean_utilization() * 100.0),
        ]);
    }
    t
}

/// Load-shape sensitivity: the same 2-node join-shortest-queue cluster
/// under Poisson, bursty and diurnal arrivals of equal mean rate.
#[must_use]
pub fn cluster_load_shapes(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let shapes: Vec<(&str, ArrivalWorkload)> = vec![
        ("poisson", ArrivalWorkload::poisson(n_requests, 16.0, 512, (64, 128), 42)),
        ("bursty", ArrivalWorkload::bursty(n_requests, 16.0, 4.0, 4.0, 0.25, 512, (64, 128), 42)),
        ("diurnal", ArrivalWorkload::diurnal(n_requests, 16.0, 0.8, 8.0, 512, (64, 128), 42)),
    ];
    let reports = SweepRunner::from_env().map(&shapes, |(_, w)| {
        cluster_cell(&model, 2, RouterPolicy::JoinShortestQueue, w)
    });
    let mut t = Table::new(
        format!("Cluster load shapes: 2 nodes, join-shortest-queue, {n_requests} requests"),
        &["shape", "completed", "tokens/s", "TTFT p99 (ms)", "TBT p99 (ms)", "goodput tok/s"],
    );
    for ((name, _), r) in shapes.iter().zip(&reports) {
        t.push_row(vec![
            (*name).into(),
            r.completed.to_string(),
            n(r.tokens_per_s),
            n(r.ttft.p99_s * 1e3),
            n(r.tbt.p99_s * 1e3),
            n(r.goodput.goodput_tokens_per_s),
        ]);
    }
    t
}

/// Sessions in the full-scale `autoscale_sim` run: the 10⁵-session
/// acceptance point of the autoscaling frontier.
pub const AUTOSCALE_SESSIONS: u64 = 100_000;

/// Virtual length of the autoscale trace "day" (s). The mean arrival
/// rate is `sessions / AUTOSCALE_DAY_S`, so every session count replays
/// the same diurnal + flash-crowd shape — only denser.
pub const AUTOSCALE_DAY_S: f64 = 250.0;

/// The diurnal + flash-crowd trace the autoscaling frontier replays:
/// a 120 s-period ±60 % diurnal swing carrying a 3× flash crowd near the
/// first trough-to-peak climb and a 2× echo late in the day.
#[must_use]
pub fn autoscale_trace(sessions: u64) -> ArrivalWorkload {
    TraceSpec {
        sessions,
        mean_rate_per_s: sessions as f64 / AUTOSCALE_DAY_S,
        diurnal_amplitude: 0.6,
        diurnal_period_s: 120.0,
        crowds: vec![
            FlashCrowd { start_s: 60.0, peak: 3.0, ramp_s: 5.0, hold_s: 15.0, decay_s: 10.0 },
            FlashCrowd { start_s: 170.0, peak: 2.0, ramp_s: 10.0, hold_s: 20.0, decay_s: 15.0 },
        ],
        l_in: 512,
        l_out_range: (64, 128),
        seed: 42,
    }
    .generate()
}

/// One named fleet configuration of the autoscaling frontier.
struct FleetCell {
    name: &'static str,
    prefill: Option<PoolConfig>,
    decode: PoolConfig,
    autoscaler: Option<AutoscalerConfig>,
}

/// The autoscaler the frontier cells share: the scaler moves at most one
/// node per pool per tick, so a 0.5 s tick lets a pool climb ~2 nodes/s
/// against the trace's 5 s flash-crowd ramp. Only the signal varies.
fn autoscale_policy(signal: ScaleSignal) -> AutoscalerConfig {
    AutoscalerConfig { interval_s: 0.5, cold_start_s: 2.0, cooldown_s: 1.5, signal }
}

/// The fleet configurations the frontier compares, sized from the trace's
/// mean token demand: `sat` nodes hold the diurnal mean, static fleets
/// provision for the diurnal peak (1.6×), elastic fleets may burst to 2×.
fn autoscale_cells(sessions: u64) -> Vec<FleetCell> {
    // One DGX+AttAccs node sustains ~740 output tokens/s at these
    // lengths (see the cluster frontier); mean l_out is 96.
    let demand_tok_s = sessions as f64 / AUTOSCALE_DAY_S * 96.0;
    let sat = ((demand_tok_s / 740.0).ceil() as usize).max(1);
    let peak = ((sat as f64 * 1.6).ceil() as usize).max(2);
    let burst = (2 * sat).max(3);
    let lo = (sat / 4).max(1);
    // Elastic pools start at the diurnal mean: the scaler's job is to
    // track the swing and the crowds, not to bootstrap a cold fleet.
    let mid = sat;
    // Disaggregated split: a request costs a node ~100 ms of Sum but
    // only ~25 ms of batch-amortized Gen at L_in 512 / mean L_out 96,
    // so the prefill pool carries ~4/5 of the fleet's work.
    let p_static = (peak * 4 / 5).max(1);
    let d_static = (peak * 3 / 10).max(1);
    let p_burst = (2 * p_static).max(2);
    let d_burst = (2 * d_static).max(2);
    // Backlog counts running heads too, so a healthy saturated node
    // reads ~64 (the batch cap): scale out at 96 (≥ 32 truly queued),
    // in below 24. A node drains ~7.7 req/s at mean l_out 96; KV
    // occupancy at full batch is ~0.55 of the post-weights HBM.
    let queue = ScaleSignal::QueueDepth { out_per_node: 96.0, in_per_node: 24.0 };
    let kv = ScaleSignal::KvOccupancy { out_frac: 0.35, in_frac: 0.10 };
    let ewma = ScaleSignal::PredictedLoad {
        alpha: 0.3,
        out_rate_per_node: 9.0,
        in_rate_per_node: 5.5,
    };
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
            decode: PoolConfig::elastic(lo, mid, burst),
            autoscaler: Some(autoscale_policy(queue)),
        },
        FleetCell {
            name: "auto-mono-kv",
            prefill: None,
            decode: PoolConfig::elastic(lo, mid, burst),
            autoscaler: Some(autoscale_policy(kv)),
        },
        FleetCell {
            name: "auto-mono-ewma",
            prefill: None,
            decode: PoolConfig::elastic(lo, mid, burst),
            autoscaler: Some(autoscale_policy(ewma)),
        },
        FleetCell {
            name: "static-disagg",
            prefill: Some(PoolConfig::fixed(p_static)),
            decode: PoolConfig::fixed(d_static),
            autoscaler: None,
        },
        // The elastic disaggregated fleet floors each pool at its static
        // sizing and only rents burst headroom: a shared queue threshold
        // cannot also govern scale-in across pools whose healthy
        // backlogs differ 60× (decode counts its running batch, prefill
        // drains each Sum in ~100 ms).
        FleetCell {
            name: "auto-disagg-queue",
            prefill: Some(PoolConfig::elastic(p_static, p_static, p_burst)),
            decode: PoolConfig::elastic(d_static, d_static, d_burst),
            autoscaler: Some(autoscale_policy(queue)),
        },
    ]
}

fn fleet_cell(model: &ModelConfig, cell: &FleetCell, workload: &ArrivalWorkload) -> FleetReport {
    let p_max = cell.prefill.map_or(0, |p| p.max_nodes);
    let execs: Vec<SystemExecutor> = (0..p_max + cell.decode.max_nodes)
        .map(|_| SystemExecutor::new(System::dgx_attacc_full(), model))
        .collect();
    let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
    let cfg = FleetConfig {
        prefill: cell.prefill,
        decode: cell.decode,
        scheduler: cluster_node_config(model),
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g()
            .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
        slo: SloSpec::chatbot(),
        autoscaler: cell.autoscaler,
    };
    simulate_fleet(&refs[..p_max], &refs[p_max..], workload, &cfg)
}

/// Autoscaling frontier: static vs. autoscaled vs. disaggregated fleets
/// replaying the same diurnal + flash-crowd trace, GPT-3 175B on
/// `DGX+AttAccs` nodes. The cost axis is node-seconds: what a static
/// fleet pays to hold the tail, an elastic fleet tries to refund.
#[must_use]
pub fn autoscale_frontier(sessions: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let workload = autoscale_trace(sessions);
    let cells = autoscale_cells(sessions);
    let reports =
        SweepRunner::from_env().map(&cells, |cell| fleet_cell(&model, cell, &workload));
    let mut t = Table::new(
        format!("Autoscaling frontier: GPT-3 175B, diurnal + flash-crowd trace, {sessions} sessions"),
        &[
            "fleet",
            "nodes P/D",
            "completed",
            "tokens/s",
            "goodput tok/s",
            "in-SLO %",
            "TTFT p99.9 (ms)",
            "node-s",
            "peak P",
            "peak D",
            "scale events",
            "KV ships",
        ],
    );
    for (cell, r) in cells.iter().zip(&reports) {
        let pools = match cell.prefill {
            Some(p) => format!("{}-{}/{}-{}", p.min_nodes, p.max_nodes, cell.decode.min_nodes, cell.decode.max_nodes),
            None => format!("-/{}-{}", cell.decode.min_nodes, cell.decode.max_nodes),
        };
        t.push_row(vec![
            cell.name.into(),
            pools,
            r.cluster.completed.to_string(),
            n(r.cluster.tokens_per_s),
            n(r.cluster.goodput.goodput_tokens_per_s),
            n(r.cluster.goodput.requests_in_slo as f64 / sessions as f64 * 100.0),
            n(r.cluster.ttft.p999_s * 1e3),
            n(r.node_seconds),
            r.prefill_peak_nodes.to_string(),
            r.decode_peak_nodes.to_string(),
            r.scale_events.len().to_string(),
            r.kv_ships.to_string(),
        ]);
    }
    t
}

/// Requests per chaos-simulation cell (below [`CLUSTER_REQUESTS`]: every
/// cell replays a full discrete-event run *plus* fault recovery work).
pub const CHAOS_REQUESTS: u64 = 192;

/// Arrival rate of the chaos experiments (req/s across the cluster).
const CHAOS_RATE: f64 = 10.0;

/// Repair time used by the chaos sweeps (s). Deliberately longer than
/// the retry timeout and the TTFT SLO: a request that blindly waits out a
/// repair always misses its SLO, so rescue has to come from the policy.
const CHAOS_MTTR_S: f64 = 3.0;

/// Retry knobs scaled to the chatbot SLO (2 s TTFT): time out at half the
/// SLO so a re-dispatch to a healthy node can still land in budget. The
/// stock `RetryPolicy::interactive` (10 s timeout) is tuned for
/// completion, not for a 2 s TTFT bound.
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        timeout_s: 1.2,
        max_retries: 1,
        backoff_base_s: 0.25,
        backoff_cap_s: 1.0,
        jitter_frac: 0.1,
        hedge_after_s: None,
    }
}

/// The resilience ladder the chaos sweeps climb: blind, health-aware
/// routing, + SLO-scaled retries, + hedging and KV-migration recovery
/// (`[off, health, retry+health, full]`).
#[must_use]
pub fn chaos_policies() -> [ResiliencePolicy; 4] {
    let retrying = ResiliencePolicy {
        retry: chaos_retry(),
        health: HealthConfig::aware(),
        recovery: RecoveryMode::Reprefill,
    };
    let full = ResiliencePolicy {
        retry: RetryPolicy { hedge_after_s: Some(1.2), ..chaos_retry() },
        health: HealthConfig::aware(),
        recovery: RecoveryMode::KvMigrate,
    };
    [ResiliencePolicy::off(), ResiliencePolicy::health_aware(), retrying, full]
}

/// Fault-schedule seeds averaged per sweep cell. One schedule draw is
/// timing luck (a single crash just before drain barely hurts; the same
/// crash mid-ramp parks half the fleet), so every cell reports the mean
/// over this small ensemble — the trend, not the draw.
const CHAOS_FAULT_SEEDS: [u64; 4] = [1, 2, 3, 5];

/// Ensemble-mean outcomes of one chaos sweep cell (means over
/// `CHAOS_FAULT_SEEDS`; count fields are fractional for that reason).
#[derive(Debug, Clone, Copy)]
pub struct ChaosCellStats {
    /// Mean goodput under failure (tokens/s of SLO-met unique requests).
    pub goodput_tokens_per_s: f64,
    /// Mean unique requests whose earliest first token met the TTFT SLO.
    pub requests_in_slo: f64,
    /// Mean fleet availability in `[0, 1]`.
    pub availability: f64,
    /// Mean retry re-dispatches per run.
    pub retries: f64,
    /// Mean hedged duplicates per run.
    pub hedges: f64,
    /// Mean output tokens destroyed by crashes per run.
    pub lost_tokens: f64,
    /// Mean makespan (s).
    pub makespan_s: f64,
}

/// One chaos sweep cell: the `cluster_cell` configuration wrapped in a
/// resilience policy, averaged over the `CHAOS_FAULT_SEEDS` ensemble of
/// crash schedules drawn at the given per-node MTBF (a horizon generously
/// covering the run; late faults past the drain are no-ops). Fully
/// deterministic: fixed seeds, fixed accumulation order.
#[must_use]
pub fn chaos_cell(
    model: &ModelConfig,
    n_nodes: usize,
    policy: RouterPolicy,
    resilience: ResiliencePolicy,
    mtbf_s: f64,
    n_requests: u64,
) -> ChaosCellStats {
    let execs: Vec<SystemExecutor> =
        (0..n_nodes).map(|_| SystemExecutor::new(System::dgx_attacc_full(), model)).collect();
    let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
    let workload = ArrivalWorkload::poisson(n_requests, CHAOS_RATE, 512, (64, 128), 42);
    let horizon_s = 0.75 * n_requests as f64 / CHAOS_RATE;
    let spec = FaultSpec::crashes_only(mtbf_s, CHAOS_MTTR_S);
    let mut acc = ChaosCellStats {
        goodput_tokens_per_s: 0.0,
        requests_in_slo: 0.0,
        availability: 0.0,
        retries: 0.0,
        hedges: 0.0,
        lost_tokens: 0.0,
        makespan_s: 0.0,
    };
    for &fault_seed in &CHAOS_FAULT_SEEDS {
        let cluster = ClusterConfig {
            scheduler: cluster_node_config(model),
            policy,
            interconnect: InterconnectModel::ethernet_400g()
                .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
            slo: SloSpec::chatbot(),
        };
        let faults = FaultSchedule::generate(n_nodes, horizon_s, &spec, fault_seed);
        let cfg = ChaosConfig { cluster, policy: resilience, seed: 7 };
        let r: ChaosReport = simulate_chaos(&refs, &workload, &cfg, &faults);
        acc.goodput_tokens_per_s += r.goodput_under_failure_tokens_per_s;
        acc.requests_in_slo += r.requests_in_slo as f64;
        acc.availability += r.availability;
        acc.retries += r.retries as f64;
        acc.hedges += r.hedges as f64;
        acc.lost_tokens += r.lost_tokens as f64;
        acc.makespan_s += r.cluster.makespan_s;
    }
    let k = CHAOS_FAULT_SEEDS.len() as f64;
    ChaosCellStats {
        goodput_tokens_per_s: acc.goodput_tokens_per_s / k,
        requests_in_slo: acc.requests_in_slo / k,
        availability: acc.availability / k,
        retries: acc.retries / k,
        hedges: acc.hedges / k,
        lost_tokens: acc.lost_tokens / k,
        makespan_s: acc.makespan_s / k,
    }
}

fn chaos_row(n_requests: u64, s: &ChaosCellStats) -> Vec<String> {
    vec![
        n(s.goodput_tokens_per_s),
        format!("{} / {n_requests}", n(s.requests_in_slo)),
        n(s.availability * 100.0),
        format!("{} / {}", n(s.retries), n(s.hedges)),
        n(s.lost_tokens),
        n(s.makespan_s),
    ]
}

/// Goodput-under-failure frontier: per-node crash MTBF × resilience
/// policy on a 4-node join-shortest-queue cluster. With resilience off
/// goodput degrades monotonically as MTBF shrinks; retry + hedging wins
/// most of it back. Cells are independent and run on the sweep engine.
#[must_use]
pub fn chaos_goodput_frontier(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let mtbfs = [f64::INFINITY, 60.0, 20.0, 6.0];
    let policies = chaos_policies();
    let mut cells: Vec<(f64, ResiliencePolicy)> = Vec::new();
    for &mtbf in &mtbfs {
        for &policy in &policies {
            cells.push((mtbf, policy));
        }
    }
    let reports = SweepRunner::from_env().map(&cells, |&(mtbf, policy)| {
        chaos_cell(&model, 4, RouterPolicy::JoinShortestQueue, policy, mtbf, n_requests)
    });
    let mut t = Table::new(
        format!(
            "Chaos goodput frontier: 4 DGX+AttAccs nodes, JSQ, {n_requests} requests, MTTR {CHAOS_MTTR_S} s, mean of {} fault seeds",
            CHAOS_FAULT_SEEDS.len()
        ),
        &[
            "MTBF/node (s)",
            "resilience",
            "goodput tok/s",
            "in SLO",
            "avail %",
            "retries/hedges",
            "lost tok",
            "makespan (s)",
        ],
    );
    for (&(mtbf, policy), r) in cells.iter().zip(&reports) {
        let mut row = vec![
            if mtbf.is_finite() { n(mtbf) } else { "∞".to_string() },
            policy.name(),
        ];
        row.extend(chaos_row(n_requests, r));
        t.push_row(row);
    }
    t
}

/// Router × resilience matrix at a fixed failure rate: which routing
/// policy degrades most gracefully when nodes crash, blind vs. with the
/// full resilience stack.
#[must_use]
pub fn chaos_routing_matrix(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let routers = [
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
        RouterPolicy::LeastKvBytes,
        RouterPolicy::SessionAffinity { spill_backlog: 4 },
    ];
    let ladder = chaos_policies();
    let policies = [ladder[0], ladder[3]];
    let mut cells: Vec<(RouterPolicy, ResiliencePolicy)> = Vec::new();
    for &router in &routers {
        for &policy in &policies {
            cells.push((router, policy));
        }
    }
    let reports = SweepRunner::from_env().map(&cells, |&(router, policy)| {
        chaos_cell(&model, 4, router, policy, 20.0, n_requests)
    });
    let mut t = Table::new(
        format!(
            "Chaos routing matrix: 4 nodes, MTBF 20 s, MTTR {CHAOS_MTTR_S} s, {n_requests} requests, mean of {} fault seeds",
            CHAOS_FAULT_SEEDS.len()
        ),
        &[
            "router",
            "resilience",
            "goodput tok/s",
            "in SLO",
            "avail %",
            "retries/hedges",
            "lost tok",
            "makespan (s)",
        ],
    );
    for (&(router, policy), r) in cells.iter().zip(&reports) {
        let mut row = vec![router.name().to_string(), policy.name()];
        row.extend(chaos_row(n_requests, r));
        t.push_row(row);
    }
    t
}

/// Requests per fleet-chaos cell. Matches [`CHAOS_REQUESTS`]: at this
/// depth the four-seed ensemble averages out crash-timing luck, so the
/// frontier's availability *and* goodput columns degrade monotonically
/// as MTBF shrinks — the acceptance claim `chaos_fleet_resilience.rs`
/// pins.
pub const CHAOS_FLEET_REQUESTS: u64 = 192;

/// The per-node crash MTBF axis of the fleet-chaos sweeps (s).
pub const CHAOS_FLEET_MTBFS: [f64; 4] = [f64::INFINITY, 60.0, 20.0, 6.0];

/// The resilience ladder of the fleet-chaos frontier: cold re-prefill
/// recovery only, warm KV re-shipping from the prefill source, and
/// re-shipping plus graceful degradation (admission shedding, brownout,
/// redispatch storm guard).
#[must_use]
pub fn chaos_fleet_configs() -> [(&'static str, RecoveryMode, DegradePolicy); 3] {
    [
        ("reprefill", RecoveryMode::Reprefill, DegradePolicy::off()),
        ("kv-reship", RecoveryMode::KvMigrate, DegradePolicy::off()),
        ("reship+degrade", RecoveryMode::KvMigrate, DegradePolicy::full(12.0)),
    ]
}

/// The fleet every frontier cell runs: two fixed prefill nodes feeding
/// an elastic 2–4-node decode pool behind a queue-depth autoscaler, so
/// crashes interact with replacement provisioning (and its cold starts)
/// exactly the way the docs describe.
fn chaos_fleet_config(model: &ModelConfig) -> FleetConfig {
    FleetConfig {
        prefill: Some(PoolConfig::fixed(2)),
        decode: PoolConfig::elastic(2, 2, 4),
        scheduler: cluster_node_config(model),
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g()
            .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
        slo: SloSpec::chatbot(),
        autoscaler: Some(AutoscalerConfig {
            interval_s: 0.25,
            cold_start_s: 1.0,
            cooldown_s: 0.75,
            signal: ScaleSignal::QueueDepth { out_per_node: 48.0, in_per_node: 8.0 },
        }),
    }
}

/// Ensemble-mean outcomes of one fleet-chaos sweep cell (means over
/// `CHAOS_FAULT_SEEDS`; count fields are fractional for that reason).
#[derive(Debug, Clone, Copy)]
pub struct ChaosFleetCellStats {
    /// Mean goodput under failure (tokens/s of SLO-met unique requests).
    pub goodput_tokens_per_s: f64,
    /// Mean unique requests whose earliest first token met the TTFT SLO.
    pub requests_in_slo: f64,
    /// Mean fleet availability in `[0, 1]`.
    pub availability: f64,
    /// Mean crash events per run.
    pub crashes: f64,
    /// Mean arrivals rejected by admission control per run.
    pub shed_requests: f64,
    /// Mean requests answered in brownout (shortened) form per run.
    pub browned_out: f64,
    /// Mean warm KV re-ships of crash-displaced work per run.
    pub recovery_reships: f64,
    /// Mean prefill tokens recomputed after crashes per run.
    pub recomputed_tokens: f64,
    /// Mean billed node-seconds per run.
    pub node_seconds: f64,
    /// Mean total cost per million output tokens under the
    /// [`CostBook`], USD.
    pub usd_per_mtok: f64,
    /// Mean makespan (s).
    pub makespan_s: f64,
}

/// One fleet-chaos sweep cell: the `chaos_fleet_config` fleet under a
/// crash schedule at the given per-node MTBF, averaged over the
/// `CHAOS_FAULT_SEEDS` ensemble and billed through the paper-default
/// [`CostBook`] as `attacc-bank` nodes. Fully deterministic: fixed
/// seeds, fixed accumulation order.
#[must_use]
pub fn chaos_fleet_cell(
    model: &ModelConfig,
    recovery: RecoveryMode,
    degrade: DegradePolicy,
    mtbf_s: f64,
    n_requests: u64,
) -> ChaosFleetCellStats {
    let fleet = chaos_fleet_config(model);
    let p_max = fleet.prefill.map_or(0, |p| p.max_nodes);
    let n = p_max + fleet.decode.max_nodes;
    let execs: Vec<SystemExecutor> =
        (0..n).map(|_| SystemExecutor::new(System::dgx_attacc_full(), model)).collect();
    let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
    let workload = ArrivalWorkload::poisson(n_requests, CHAOS_RATE, 512, (64, 128), 42);
    let horizon_s = 0.75 * n_requests as f64 / CHAOS_RATE;
    let spec = FaultSpec::crashes_only(mtbf_s, CHAOS_MTTR_S);
    let cfg = FleetChaosConfig { fleet, recovery, degrade };
    let mix = FleetMix::uniform();
    let book = CostBook::paper_defaults();
    let variants = vec![NodeVariant::AttAccBank; n];
    let mut acc = ChaosFleetCellStats {
        goodput_tokens_per_s: 0.0,
        requests_in_slo: 0.0,
        availability: 0.0,
        crashes: 0.0,
        shed_requests: 0.0,
        browned_out: 0.0,
        recovery_reships: 0.0,
        recomputed_tokens: 0.0,
        node_seconds: 0.0,
        usd_per_mtok: 0.0,
        makespan_s: 0.0,
    };
    for &fault_seed in &CHAOS_FAULT_SEEDS {
        let faults = FaultSchedule::generate(n, horizon_s, &spec, fault_seed);
        let r = simulate_fleet_chaos(&refs[..p_max], &refs[p_max..], &mix, &workload, &cfg, &faults);
        let cost = book.bill(&r.fleet, &variants);
        acc.goodput_tokens_per_s += r.goodput_under_failure_tokens_per_s;
        acc.requests_in_slo += r.requests_in_slo as f64;
        acc.availability += r.availability;
        acc.crashes += r.crashes as f64;
        acc.shed_requests += r.shed_requests as f64;
        acc.browned_out += r.browned_out_requests as f64;
        acc.recovery_reships += r.recovery_reships as f64;
        acc.recomputed_tokens += r.recomputed_tokens as f64;
        acc.node_seconds += r.fleet.node_seconds;
        acc.usd_per_mtok += cost.usd_per_mtok;
        acc.makespan_s += r.fleet.cluster.makespan_s;
    }
    let k = CHAOS_FAULT_SEEDS.len() as f64;
    ChaosFleetCellStats {
        goodput_tokens_per_s: acc.goodput_tokens_per_s / k,
        requests_in_slo: acc.requests_in_slo / k,
        availability: acc.availability / k,
        crashes: acc.crashes / k,
        shed_requests: acc.shed_requests / k,
        browned_out: acc.browned_out / k,
        recovery_reships: acc.recovery_reships / k,
        recomputed_tokens: acc.recomputed_tokens / k,
        node_seconds: acc.node_seconds / k,
        usd_per_mtok: acc.usd_per_mtok / k,
        makespan_s: acc.makespan_s / k,
    }
}

/// Fleet-chaos frontier: per-node crash MTBF × resilience/degradation
/// configuration on the disaggregated autoscaled fleet. Availability and
/// goodput under failure degrade monotonically as MTBF shrinks; warm KV
/// re-shipping and graceful degradation buy the difference back in $ per
/// Mtok. Cells are independent and run on the sweep engine.
#[must_use]
pub fn chaos_fleet_frontier(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let configs = chaos_fleet_configs();
    let mut cells: Vec<(f64, &'static str, RecoveryMode, DegradePolicy)> = Vec::new();
    for &mtbf in &CHAOS_FLEET_MTBFS {
        for &(name, recovery, degrade) in &configs {
            cells.push((mtbf, name, recovery, degrade));
        }
    }
    let reports = SweepRunner::from_env().map(&cells, |&(mtbf, _, recovery, degrade)| {
        chaos_fleet_cell(&model, recovery, degrade, mtbf, n_requests)
    });
    let mut t = Table::new(
        format!(
            "Fleet-chaos frontier: 2P+2–4D DGX+AttAccs, autoscaled, {n_requests} requests, MTTR {CHAOS_MTTR_S} s, mean of {} fault seeds",
            CHAOS_FAULT_SEEDS.len()
        ),
        &[
            "MTBF/node (s)",
            "config",
            "goodput tok/s",
            "in SLO",
            "avail %",
            "crashes",
            "shed/brown",
            "reships",
            "recomputed tok",
            "node-s",
            "$/Mtok",
        ],
    );
    for (&(mtbf, name, _, _), r) in cells.iter().zip(&reports) {
        t.push_row(vec![
            if mtbf.is_finite() { n(mtbf) } else { "∞".to_string() },
            name.to_string(),
            n(r.goodput_tokens_per_s),
            format!("{} / {n_requests}", n(r.requests_in_slo)),
            n(r.availability * 100.0),
            n(r.crashes),
            format!("{} / {}", n(r.shed_requests), n(r.browned_out)),
            n(r.recovery_reships),
            n(r.recomputed_tokens),
            n(r.node_seconds),
            n(r.usd_per_mtok),
        ]);
    }
    t
}

/// N vs. N+1 redundancy under failure: a fixed monolithic fleet sized
/// exactly for the load against the same fleet plus one spare node, at a
/// healthy and a failing MTBF, both billed through the [`CostBook`]. The
/// spare costs real $/Mtok when nothing fails and buys availability and
/// goodput back when nodes crash.
#[must_use]
pub fn chaos_fleet_redundancy(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let sizes = [(3usize, "N=3"), (4usize, "N+1=4")];
    let mtbfs = [f64::INFINITY, 20.0];
    let mut cells: Vec<(usize, &'static str, f64)> = Vec::new();
    for &(nodes, label) in &sizes {
        for &mtbf in &mtbfs {
            cells.push((nodes, label, mtbf));
        }
    }
    let reports = SweepRunner::from_env().map(&cells, |&(nodes, _, mtbf)| {
        let execs: Vec<SystemExecutor> =
            (0..nodes).map(|_| SystemExecutor::new(System::dgx_attacc_full(), &model)).collect();
        let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
        let fleet = FleetConfig {
            prefill: None,
            decode: PoolConfig::fixed(nodes),
            scheduler: cluster_node_config(&model),
            policy: RouterPolicy::JoinShortestQueue,
            interconnect: InterconnectModel::ethernet_400g()
                .with_kv_bytes_per_token(KvCacheSpec::of(&model).bytes_per_token),
            slo: SloSpec::chatbot(),
            autoscaler: None,
        };
        let cfg = FleetChaosConfig {
            fleet,
            recovery: RecoveryMode::KvMigrate,
            degrade: DegradePolicy::off(),
        };
        let workload = ArrivalWorkload::poisson(n_requests, CHAOS_RATE, 512, (64, 128), 42);
        let horizon_s = 0.75 * n_requests as f64 / CHAOS_RATE;
        let spec = FaultSpec::crashes_only(mtbf, CHAOS_MTTR_S);
        let mix = FleetMix::uniform();
        let book = CostBook::paper_defaults();
        let variants = vec![NodeVariant::AttAccBank; nodes];
        let mut sum = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &fault_seed in &CHAOS_FAULT_SEEDS {
            let faults = FaultSchedule::generate(nodes, horizon_s, &spec, fault_seed);
            let r = simulate_fleet_chaos(&[], &refs, &mix, &workload, &cfg, &faults);
            let cost = book.bill(&r.fleet, &variants);
            sum.0 += r.goodput_under_failure_tokens_per_s;
            sum.1 += r.availability;
            sum.2 += cost.usd_per_mtok;
            sum.3 += cost.total_usd;
        }
        let k = CHAOS_FAULT_SEEDS.len() as f64;
        (sum.0 / k, sum.1 / k, sum.2 / k, sum.3 / k)
    });
    let mut t = Table::new(
        format!(
            "Fleet-chaos N+1 redundancy: fixed DGX+AttAccs fleets, KV-reship recovery, {n_requests} requests, MTTR {CHAOS_MTTR_S} s, mean of {} fault seeds",
            CHAOS_FAULT_SEEDS.len()
        ),
        &["fleet", "MTBF/node (s)", "goodput tok/s", "avail %", "$/Mtok", "total $"],
    );
    for (&(_, label, mtbf), &(goodput, avail, per_mtok, total)) in cells.iter().zip(&reports) {
        t.push_row(vec![
            label.to_string(),
            if mtbf.is_finite() { n(mtbf) } else { "∞".to_string() },
            n(goodput),
            n(avail * 100.0),
            n(per_mtok),
            n(total),
        ]);
    }
    t
}

/// Requests per integrity-simulation cell (below [`CHAOS_REQUESTS`]:
/// each cell replays a full chaos run *and* samples a fate for every
/// generated token).
pub const INTEGRITY_REQUESTS: u64 = 128;

/// The BER axis the integrity sweeps walk (per stored bit per read).
/// Zero anchors the bit-exactness contract; the rest bracket the regime
/// where SEC-DED saturates and DUEs become visible at token scale.
pub const INTEGRITY_BERS: [f64; 4] = [0.0, 1e-9, 1e-8, 1e-7];

/// 128-bit data words each generated token streams through the
/// attention path: the full KV cache of a 2,048-token context at this
/// model's bytes-per-token.
#[must_use]
pub fn integrity_words_per_token(model: &ModelConfig) -> u64 {
    KvCacheSpec::of(model).bytes_per_token * 2048 / 16
}

/// One integrity sweep cell: a 2-node chaos run (mild crash pressure,
/// retrying policy) under the given BER and protection rung. Fully
/// deterministic — fixed seeds everywhere.
#[must_use]
pub fn integrity_cell(
    model: &ModelConfig,
    ber: f64,
    protection: Protection,
    n_requests: u64,
) -> IntegrityReport {
    let n_nodes = 2usize;
    let execs: Vec<SystemExecutor> =
        (0..n_nodes).map(|_| SystemExecutor::new(System::dgx_attacc_full(), model)).collect();
    let refs: Vec<&dyn StageExecutor> = execs.iter().map(|e| e as &dyn StageExecutor).collect();
    let workload = ArrivalWorkload::poisson(n_requests, CHAOS_RATE, 512, (64, 128), 42);
    let horizon_s = 0.75 * n_requests as f64 / CHAOS_RATE;
    let cluster = ClusterConfig {
        scheduler: cluster_node_config(model),
        policy: RouterPolicy::JoinShortestQueue,
        interconnect: InterconnectModel::ethernet_400g()
            .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
        slo: SloSpec::chatbot(),
    };
    let faults =
        FaultSchedule::generate(n_nodes, horizon_s, &FaultSpec::crashes_only(60.0, CHAOS_MTTR_S), 1);
    let cfg = ChaosConfig { cluster, policy: chaos_policies()[2], seed: 7 };
    let spec = CorruptionSpec {
        ber,
        words_per_token: integrity_words_per_token(model),
        protection,
        seed: 13,
    };
    simulate_integrity(&refs, &workload, &cfg, &faults, &spec)
}

/// SDC/DUE/goodput frontier: BER × protection rung on a 2-node cluster.
/// The analytic per-token SDC rate is strictly decreasing down the
/// ladder at every non-zero BER — raw cells deliver every flipped word
/// silently, SEC-DED leaves only odd ≥ 3-flip miscorrections, and
/// ABFT + guards catch those in the dataflow. Sampled counts show the
/// token-scale consequences; cells run on the sweep engine.
#[must_use]
pub fn integrity_frontier(n_requests: u64) -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut cells: Vec<(f64, Protection)> = Vec::new();
    for &ber in &INTEGRITY_BERS {
        for protection in Protection::ladder() {
            cells.push((ber, protection));
        }
    }
    let reports = SweepRunner::from_env()
        .map(&cells, |&(ber, protection)| integrity_cell(&model, ber, protection, n_requests));
    let mut t = Table::new(
        format!(
            "Integrity frontier: 2 DGX+AttAccs nodes, JSQ, retry policy, {n_requests} requests, {} words/token",
            integrity_words_per_token(&model)
        ),
        &[
            "BER",
            "protection",
            "corrected tok",
            "DUE tok (recomp/drop)",
            "SDC tok",
            "SDC rate/tok",
            "DUE rate/tok",
            "corrupt req",
            "goodput tok/s",
        ],
    );
    for (&(ber, _), r) in cells.iter().zip(&reports) {
        t.push_row(vec![
            if ber == 0.0 { "0".into() } else { format!("{ber:.0e}") },
            r.protection.clone(),
            r.corrected_tokens.to_string(),
            format!("{} ({}/{})", r.detected_tokens, r.recomputed_tokens, r.dropped_tokens),
            r.sdc_tokens.to_string(),
            format!("{:.3e}", r.analytic_sdc_rate),
            format!("{:.3e}", r.analytic_due_rate),
            r.corrupted_requests.to_string(),
            n(r.goodput_under_corruption_tokens_per_s),
        ]);
    }
    t
}

/// What SEC-DED costs at the command engine: plain vs protected streams
/// of the same payload through one HBM3 stack. Time inflates by the
/// code rate (136/128), energy additionally pays the in-stack ECC
/// logic; the IO/PIM segments are untouched.
#[must_use]
pub fn ecc_overhead_table() -> Table {
    use attacc_hbm::engine::simulate_stream;
    use attacc_hbm::integrity::EccConfig;
    use attacc_hbm::{HbmConfig, StreamSpec};
    let hbm = HbmConfig::hbm3_8hi();
    let code = EccConfig::hbm3();
    let mut protected_cfg = hbm.clone();
    protected_cfg.energy = code.energy_model(&hbm.energy);
    let mut t = Table::new(
        format!(
            "On-die ECC overhead: HBM3 8-Hi, ({},{}) SEC-DED, code rate {:.4}",
            code.word_bits(),
            code.data_bits,
            code.code_rate()
        ),
        &["payload (MiB)", "plain (ns)", "ECC (ns)", "time ×", "plain (nJ)", "ECC (nJ)", "energy ×"],
    );
    for mib in [1u64, 8, 64] {
        let payload = mib << 20;
        let plain = simulate_stream(
            &hbm,
            &StreamSpec::uniform(&hbm.geometry, payload, hbm.power.max_active_banks),
        );
        let prot = simulate_stream(
            &protected_cfg,
            &code.protected_stream(&hbm.geometry, payload, hbm.power.max_active_banks),
        );
        t.push_row(vec![
            mib.to_string(),
            n(plain.elapsed_ps as f64 / 1e3),
            n(prot.elapsed_ps as f64 / 1e3),
            format!("{:.4}", prot.elapsed_ps as f64 / plain.elapsed_ps as f64),
            n(plain.energy.total_pj() / 1e3),
            n(prot.energy.total_pj() / 1e3),
            format!("{:.4}", prot.energy.total_pj() / plain.energy.total_pj()),
        ]);
    }
    t
}

/// Decode steps per trace-driven workload (one barrier-delimited
/// generated token per step).
pub const TRACE_STEPS: u64 = 16;

/// Compiles one GPT-3 175B decode workload to an instruction trace and
/// replays it on the command engine. Returns (instructions, trace text
/// bytes, attribution report).
#[must_use]
pub fn trace_run(batch: usize, prompt_l: u64, policy: KvPolicy) -> (usize, u64, TraceReport) {
    let model = ModelConfig::gpt3_175b();
    let sched = DecodeSchedule::uniform(batch, prompt_l, TRACE_STEPS, policy, TracePayload::Timing);
    let trace = compile(&model, &sched);
    let text_bytes = trace.to_text().len() as u64;
    let report = execute_timing(&TimingConfig::paper(), &trace)
        .expect("compiled traces are well-formed by construction");
    (trace.len(), text_bytes, report)
}

/// Trace-driven paper workloads: the §7 decode schedules lowered to ISA
/// traces and replayed on the HBM command engine, full KV residency.
#[must_use]
pub fn trace_paper_table() -> Table {
    let mut cells: Vec<(usize, u64)> = Vec::new();
    for &prompt_l in &[512u64, 2048] {
        for &batch in &[1usize, 8, 64] {
            cells.push((batch, prompt_l));
        }
    }
    let runs = SweepRunner::from_env()
        .map(&cells, |&(batch, prompt_l)| trace_run(batch, prompt_l, KvPolicy::Full));
    let mut t = Table::new(
        format!("Trace-driven paper workloads: GPT-3 175B, {TRACE_STEPS} decode steps, full KV"),
        &[
            "batch",
            "Lin",
            "insts",
            "trace KiB",
            "heads",
            "attn (ms)",
            "ingest (ms)",
            "energy (J)",
            "MAC cmds",
        ],
    );
    for (&(batch, prompt_l), (insts, bytes, r)) in cells.iter().zip(&runs) {
        t.push_row(vec![
            batch.to_string(),
            prompt_l.to_string(),
            insts.to_string(),
            n(*bytes as f64 / 1024.0),
            r.heads_run.to_string(),
            n(r.attention_s * 1e3),
            n(r.host_s * 1e3),
            n(r.energy_j),
            r.mac_commands.to_string(),
        ]);
    }
    t
}

/// New attention workloads expressed purely as traces — no simulator
/// changes: sliding-window attention and paged (blocked) KV with an
/// attention sink, against the full-residency baseline.
#[must_use]
pub fn trace_workloads_table() -> Table {
    let cells: [(&str, KvPolicy); 3] = [
        ("full", KvPolicy::Full),
        ("window-256", KvPolicy::SlidingWindow { window: 256 }),
        ("paged-256x2+sink", KvPolicy::Paged { tokens_per_page: 256, recent_pages: 2 }),
    ];
    let runs =
        SweepRunner::from_env().map(&cells, |&(_, policy)| trace_run(8, 2048, policy));
    let base_attn = runs[0].2.attention_s;
    let mut t = Table::new(
        format!("Trace workloads: GPT-3 175B, batch 8, Lin=2048, {TRACE_STEPS} decode steps"),
        &[
            "workload",
            "insts",
            "heads",
            "attn (ms)",
            "vs full",
            "energy (J)",
            "ingest (MiB)",
            "barriers",
        ],
    );
    for ((name, _), (insts, _, r)) in cells.iter().zip(&runs) {
        t.push_row(vec![
            (*name).into(),
            insts.to_string(),
            r.heads_run.to_string(),
            n(r.attention_s * 1e3),
            n(r.attention_s / base_attn),
            n(r.energy_j),
            n(r.host_bytes as f64 / (1u64 << 20) as f64),
            r.barriers.to_string(),
        ]);
    }
    t
}

/// Per-instruction attribution of the paged workload: where a trace
/// replay spends its time and energy, by opcode.
#[must_use]
pub fn trace_opcode_table() -> Table {
    let (_, _, r) = trace_run(8, 2048, KvPolicy::Paged { tokens_per_page: 256, recent_pages: 2 });
    let mut t = Table::new(
        "Trace attribution by opcode: paged-256x2+sink, batch 8, Lin=2048",
        &["opcode", "count", "time (ms)", "energy (J)"],
    );
    for (opcode, c) in &r.per_opcode {
        t.push_row(vec![
            (*opcode).into(),
            c.count.to_string(),
            n(c.time_s * 1e3),
            n(c.energy_j),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Provisioning: heterogeneous-fleet TCO search (attacc-provision)
// ---------------------------------------------------------------------

/// The golden provisioning grid: every mix of up to 4 `dgx-base`, 3 of
/// each AttAcc placement, and 3 CPU-offload nodes, at most 6 nodes
/// total. Shared by the `provision` bin, the golden table and the
/// search-equivalence tests so they all talk about the same design
/// space.
#[must_use]
pub fn provision_specs() -> Vec<FleetSpec> {
    enumerate_specs([4, 3, 3, 4, 3], 6)
}

/// The golden provisioning traffic point: `users` chatbot sessions at a
/// fixed arrival rate and shape, seed 42.
#[must_use]
pub fn provision_traffic(users: u64) -> TrafficSpec {
    TrafficSpec {
        users,
        rate_per_s: 6.0,
        l_in: 512,
        l_out: (64, 128),
        seed: 42,
    }
}

/// The golden search configuration: train on every 40th cell plus the
/// homogeneous corners, verify the surrogate's top 3% across three
/// refit rounds — ≥90% of the grid is never exactly simulated.
#[must_use]
pub fn provision_search_config() -> SearchConfig {
    SearchConfig::default()
}

/// Runs the surrogate-pruned cheapest-fleet search on the golden grid.
#[must_use]
pub fn provision_outcome(users: u64) -> SearchOutcome {
    let model = ModelConfig::gpt3_175b();
    run_search(
        &model,
        &provision_specs(),
        &provision_traffic(users),
        SloSpec::chatbot(),
        &CostBook::paper_defaults(),
        &provision_search_config(),
    )
}

/// Cheapest-fleet table: the surrogate-pruned search over the golden
/// grid, its verified shortlist, and the surrogate's own error. The
/// "cheapest fleet for N users at SLO X" answer is the `best` row.
#[must_use]
pub fn provision_frontier(users: u64) -> Table {
    let outcome = provision_outcome(users);
    let mut t = Table::new(
        format!(
            "Cheapest fleet: GPT-3 175B, {users} sessions at 6 req/s, chatbot SLO \
             (grid {}, exact sims {}, pruned {:.1}%, surrogate MAE {:.2} $/Mtok)",
            outcome.grid_size,
            outcome.trained + outcome.verified,
            outcome.pruned_frac * 100.0,
            outcome.surrogate_mae_usd_per_mtok,
        ),
        &[
            "rank",
            "fleet",
            "pred $/Mtok",
            "exact $/Mtok",
            "TTFT p99.9 (ms)",
            "feasible",
        ],
    );
    for (rank, p) in outcome.picks.iter().take(8).enumerate() {
        t.push_row(vec![
            (rank + 1).to_string(),
            p.exact.spec.label(),
            n(p.predicted_usd_per_mtok),
            n(p.exact.cost.usd_per_mtok),
            n(p.exact.report.cluster.ttft.p999_s * 1e3),
            if p.exact.feasible { "yes".into() } else { "no".into() },
        ]);
    }
    let best_label = outcome
        .best
        .as_ref()
        .map_or("none feasible".to_string(), |(_, r)| {
            format!("{} at {} $/Mtok", r.spec.label(), n(r.cost.usd_per_mtok))
        });
    t.push_row(vec![
        "best".into(),
        best_label,
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Per-variant cost-book table: the dollars-and-watts ground the search
/// stands on, derived from the power/area tables.
#[must_use]
pub fn provision_cost_book_table() -> Table {
    let book = CostBook::paper_defaults();
    let mut t = Table::new(
        "CostBook: per-variant CapEx and wattage (derived from the power/area tables)",
        &["variant", "CapEx ($)", "idle (W)", "peak (W)"],
    );
    for v in NodeVariant::ALL {
        let c = book.node(v);
        t.push_row(vec![
            v.name().into(),
            n(c.capex_usd),
            n(c.idle_w),
            n(c.peak_w),
        ]);
    }
    t
}

/// The original stacks-vs-throughput provisioning frontier (kept from
/// the pre-TCO `provision` bin).
#[must_use]
pub fn provision_stacks_table() -> Table {
    let model = ModelConfig::gpt3_175b();
    let mut t = Table::new(
        "Provisioning frontier: AttAcc stacks vs throughput (GPT-3 175B, 50 ms SLO, Lin/Lout = 2048)",
        &["stacks", "batch", "tokens/s", "Pareto"],
    );
    for p in attacc_sim::provision::provision_sweep(&model, 2048, 2048, 0.050, &[8, 16, 24, 32, 40, 56, 80]) {
        t.push_row(vec![
            p.stacks.to_string(),
            p.batch.to_string(),
            n(p.tokens_per_s),
            if p.efficient { "*".into() } else { String::new() },
        ]);
    }
    t
}

/// Sessions per provisioning cell in the golden grid (small enough for
/// CI to exhaustively re-verify, large enough to exercise queueing).
pub const PROVISION_USERS: u64 = 48;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_renders() {
        for t in all_tables(200) {
            let s = t.to_string();
            assert!(s.len() > 40, "table {} looks empty", t.title);
            assert!(!t.rows.is_empty(), "table {} has no rows", t.title);
        }
    }

    #[test]
    fn fig13_base_rows_are_normalized_to_one() {
        let t = fig13(100);
        for row in t.rows.iter().filter(|r| r[3] == "DGX_Base") {
            assert_eq!(row[6], "1.00");
        }
    }

    #[test]
    fn fig15_savings_positive_for_pim() {
        let t = fig15(100);
        for row in t
            .rows
            .iter()
            .filter(|r| r[3] == "DGX+AttAccs +HL pipe +FF co-proc")
        {
            let saved: f64 = row[6].parse().unwrap();
            assert!(saved > 0.0, "row {row:?}");
        }
    }
}
