//! One driver per table/figure of the paper's evaluation (§7).
//!
//! Every driver returns typed rows; the `attacc-bench` experiments format
//! them into the tables recorded in `EXPERIMENTS.md`. Large sweeps use a
//! steady-state analytic model of iteration-level scheduling (validated
//! against the discrete-event scheduler by integration tests): with a full
//! batch and uniformly mixed request progress, the Gen batch's context
//! lengths are spread over `[l_in, l_in + l_out]`.

use crate::{SweepRunner, System, SystemExecutor};
use attacc_model::{
    AttentionVariant, DataType, KvCacheSpec, ModelConfig, Op, Phase, RooflinePoint, StageWorkload,
    GIB,
};
use attacc_pim::{AreaReport, GemvPlacement};
use attacc_serving::{max_batch_under_slo, StageExecutor};

/// Hard cap on explored batch sizes (the paper never exceeds 256).
pub const MAX_BATCH: u64 = 512;

/// Quantization of the steady-state context distribution.
const STEADY_GROUPS: u64 = 8;

/// Context-length groups of a steady-state Gen iteration: `batch` requests
/// spread uniformly over `[l_in + 1, l_in + l_out]`.
#[must_use]
pub fn steady_state_groups(batch: u64, l_in: u64, l_out: u64) -> Vec<(u64, u64)> {
    if batch == 0 {
        return Vec::new();
    }
    let q = STEADY_GROUPS.min(batch).min(l_out).max(1);
    let mut groups = Vec::with_capacity(q as usize);
    let base = batch / q;
    let mut extra = batch % q;
    for i in 0..q {
        let n = base + u64::from(extra > 0);
        extra = extra.saturating_sub(1);
        // Midpoint of the i-th progress quantile.
        let l = l_in + 1 + l_out * (2 * i + 1) / (2 * q);
        groups.push((n, l.min(l_in + l_out)));
    }
    groups
}

/// The largest batch `system` can serve for `(l_in, l_out)` requests under
/// the capacity limit and, if given, the per-token SLO (§3.2, §7.3).
#[must_use]
pub fn max_feasible_batch(
    system: &System,
    model: &ModelConfig,
    l_in: u64,
    l_out: u64,
    slo_s: Option<f64>,
) -> u64 {
    let spec = KvCacheSpec::of(model);
    let by_capacity = attacc_serving::max_batch_by_capacity(
        system.kv_capacity_bytes(model),
        spec.bytes_per_token,
        l_in + l_out,
    )
    .min(MAX_BATCH);
    match slo_s {
        None => by_capacity,
        Some(slo) => {
            let exec = SystemExecutor::new(system.clone(), model);
            // The SLO binds at the batch's average context length (§7.1).
            let l_avg = l_in + l_out / 2;
            max_batch_under_slo(&exec, slo, l_avg, by_capacity)
        }
    }
}

/// Steady-state serving estimate: time and energy to serve `n_requests`
/// fixed-shape requests at the given batch size.
#[must_use]
pub fn analytic_serve(
    exec: &SystemExecutor,
    l_in: u64,
    l_out: u64,
    n_requests: u64,
    batch: u64,
) -> (f64, f64) {
    if batch == 0 || n_requests == 0 {
        return (f64::INFINITY, f64::INFINITY);
    }
    let batch = batch.min(n_requests);
    let groups = steady_state_groups(batch, l_in, l_out);
    let iter = exec.gen_stage(&groups);
    // Every request needs l_out - 1 Gen stages (the Sum stage emits the
    // first token); iterations are shared batch-wide.
    let gen_iters = (n_requests * (l_out - 1)) as f64 / batch as f64;
    let sum = exec.sum_stage(batch, l_in);
    // Iteration-level scheduling admits continuously; prefill cost is
    // fractional in the number of batch-sized waves.
    let sum_waves = n_requests as f64 / batch as f64;
    let time = gen_iters * iter.latency_s + sum_waves * sum.latency_s;
    let energy = gen_iters * iter.energy_j + sum_waves * sum.energy_j;
    (time, energy)
}

// ---------------------------------------------------------------- Fig. 2

/// Fraction of end-to-end time spent in Gen stages for a batch-1 request
/// (the Fig. 2 heat map cell at `(l_in, l_out)`).
#[must_use]
pub fn gen_stage_fraction(system: &System, model: &ModelConfig, l_in: u64, l_out: u64) -> f64 {
    let exec = SystemExecutor::new(system.clone(), model);
    let sum_s = exec.sum_stage(1, l_in).latency_s;
    let mut gen_s = 0.0;
    // l_out - 1 Gen stages at growing context; sample the growth curve.
    let stages = l_out.saturating_sub(1);
    if stages > 0 {
        let samples = stages.min(16);
        for i in 0..samples {
            let l = l_in + 1 + stages * (2 * i + 1) / (2 * samples);
            gen_s += exec.gen_stage(&[(1, l)]).latency_s * stages as f64 / samples as f64;
        }
    }
    gen_s / (gen_s + sum_s)
}

// ---------------------------------------------------------------- Fig. 3

/// One labeled point of the Fig. 3 roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineRow {
    /// Series label (e.g. `"Gen FC b=64"`).
    pub label: String,
    /// Arithmetic intensity.
    pub op_per_byte: f64,
    /// Attainable TFLOP/s on the baseline.
    pub attainable_tflops: f64,
    /// Left of the ridge point?
    pub memory_bound: bool,
}

/// Places the Sum/Gen FC and attention layers of `model` on the baseline
/// roofline for each batch size (Fig. 3; `l_in` = 2,048 in the paper).
#[must_use]
pub fn roofline_rows(system: &System, model: &ModelConfig, l_in: u64, batches: &[u64]) -> Vec<RooflineRow> {
    let peak = system.gpu.device.peak_flops_fp16;
    let bw = system.gpu.device.mem_bw;
    let mut rows = Vec::new();
    let mut place = |label: String, op: &Op| {
        if let Some(p) = RooflinePoint::place(op, peak, bw) {
            rows.push(RooflineRow {
                label,
                op_per_byte: p.op_per_byte,
                attainable_tflops: p.attainable_flops / 1e12,
                memory_bound: p.memory_bound,
            });
        }
    };
    // Sum stage, batch 1 (batching the Sum stage changes little).
    let sum = StageWorkload::uniform(model, Phase::sum(l_in), 1);
    for op in &sum.decoder_ops {
        match op {
            Op::Gemm { layer: attacc_model::FcLayer::Ff1, .. } => {
                place("Sum FC".into(), op);
            }
            Op::Attention { .. } => place("Sum attention".into(), op),
            _ => {}
        }
    }
    // Gen stage per batch size.
    for &b in batches {
        let gen = StageWorkload::uniform(model, Phase::gen(l_in + 1), b);
        for op in &gen.decoder_ops {
            match op {
                Op::Gemm { layer: attacc_model::FcLayer::Ff1, .. } => {
                    place(format!("Gen FC b={b}"), op);
                }
                Op::Attention { .. } => place(format!("Gen attention b={b}"), op),
                _ => {}
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 4

/// One batch-size row of the Fig. 4 batching study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchingRow {
    /// Batch size.
    pub batch: u64,
    /// Generated tokens per second (steady state).
    pub tokens_per_s: f64,
    /// Memory needed for weights plus every request's final KV (GiB).
    pub required_capacity_gib: f64,
    /// `true` when the batch exceeds `DGX_Base`'s 640 GB (the dotted bars).
    pub exceeds_dgx_capacity: bool,
    /// Energy per generated token (J).
    pub energy_per_token_j: f64,
    /// Per-iteration latency (s) — the SLO-relevant number.
    pub iteration_latency_s: f64,
    /// FC share of the iteration.
    pub fc_frac: f64,
    /// Attention share of the iteration.
    pub attn_frac: f64,
    /// Remaining share (etc + comm).
    pub other_frac: f64,
    /// GPU compute utilization.
    pub utilization: f64,
}

/// The Fig. 4 study: throughput, capacity, energy and breakdown versus
/// batch size on the baseline with unlimited memory.
#[must_use]
pub fn batching_study(
    system: &System,
    model: &ModelConfig,
    l_in: u64,
    l_out: u64,
    batches: &[u64],
) -> Vec<BatchingRow> {
    let exec = SystemExecutor::new(system.clone(), model);
    let spec = KvCacheSpec::of(model);
    SweepRunner::from_env().map(batches, |&b| {
            let groups = steady_state_groups(b, l_in, l_out);
            let d = exec.gen_stage_detail(&groups);
            let denom = d.fc_s + d.attn_s + d.other_s + d.comm_s;
            let required =
                model.weight_bytes() + spec.batch_bytes(b, l_in + l_out);
            BatchingRow {
                batch: b,
                tokens_per_s: b as f64 / d.total_s,
                required_capacity_gib: required as f64 / GIB as f64,
                exceeds_dgx_capacity: required > 640 * GIB,
                energy_per_token_j: d.energy_j / b as f64,
                iteration_latency_s: d.total_s,
                fc_frac: d.fc_s / denom,
                attn_frac: d.attn_s / denom,
                other_frac: (d.other_s + d.comm_s) / denom,
                utilization: d.utilization,
            }
        })
}

// ---------------------------------------------------------------- Fig. 7

/// One design point of the Fig. 7 placement study.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRow {
    /// Design point name.
    pub placement: String,
    /// Peak stack power (W).
    pub peak_power_w: f64,
    /// Attention throughput relative to `AttAcc_buffer`.
    pub rel_throughput: f64,
    /// Attention energy relative to `AttAcc_buffer`.
    pub rel_energy: f64,
    /// DRAM-die area overhead (fraction of die).
    pub area_overhead: f64,
    /// Energy-delay-area product relative to `AttAcc_buffer`.
    pub rel_edap: f64,
}

/// The Fig. 7 design-space comparison of AttAcc_{buffer, BG, bank} on the
/// attention layer of `model` at batch `batch`, context `l`.
#[must_use]
pub fn placement_study(model: &ModelConfig, batch: u64, l: u64) -> Vec<PlacementRow> {
    let raw = SweepRunner::from_env().map(&GemvPlacement::ALL, |&placement| {
        let dev = attacc_pim::AttAccDevice::paper_40_stacks(placement);
        let t = dev.attention_decoder_time(model, &[(batch, l)], true);
        let hbm = &dev.hbm;
        let power = hbm.power.peak_stack_power_w(
            &hbm.geometry,
            &hbm.timing,
            &hbm.energy,
            placement.depth(),
        );
        let area = AreaReport::for_placement(placement, hbm);
        (placement, t.total_s, t.energy_j, power, area)
    });
    let (base_t, base_e) = (raw[0].1, raw[0].2);
    let base_area = raw[0]
        .4
        .stack_silicon_mm2(&attacc_pim::AttAccDevice::paper_40_stacks(raw[0].0).hbm);
    let base_edap = base_t * base_e * base_area;
    raw.iter()
        .map(|(p, t, e, power, area)| {
            let stack_mm2 =
                area.stack_silicon_mm2(&attacc_pim::AttAccDevice::paper_40_stacks(*p).hbm);
            PlacementRow {
                placement: p.to_string(),
                peak_power_w: *power,
                rel_throughput: base_t / t,
                rel_energy: e / base_e,
                area_overhead: area.dram_die_overhead,
                rel_edap: (t * e * stack_mm2) / base_edap,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 13

/// One bar of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndRow {
    /// Model name.
    pub model: String,
    /// Prompt length.
    pub l_in: u64,
    /// Output length.
    pub l_out: u64,
    /// System label.
    pub system: String,
    /// Batch size used.
    pub batch: u64,
    /// Absolute time to serve the request population (s).
    pub time_s: f64,
    /// Time normalized to `DGX_Base` for the same (model, seq).
    pub normalized: f64,
    /// Energy per token (J), reused by Fig. 15.
    pub energy_per_token_j: f64,
}

/// The Fig. 13 end-to-end comparison: serve `n_requests` fixed-shape
/// requests on every system. Also feeds Fig. 15 (energy).
///
/// `(model, seq)` cells are independent and run on the [`SweepRunner`];
/// the five-system loop inside a cell stays serial because each bar is
/// normalized to the cell's `DGX_Base` time.
#[must_use]
pub fn end_to_end(
    models: &[ModelConfig],
    seqs: &[(u64, u64)],
    n_requests: u64,
) -> Vec<EndToEndRow> {
    let cells: Vec<(&ModelConfig, u64, u64)> = models
        .iter()
        .flat_map(|m| seqs.iter().map(move |&(l_in, l_out)| (m, l_in, l_out)))
        .collect();
    let per_cell = SweepRunner::from_env().map(&cells, |&(model, l_in, l_out)| {
        let mut rows = Vec::new();
        let mut base_time = None;
        for system in System::fig13_systems() {
            let batch = max_feasible_batch(&system, model, l_in, l_out, None).max(1);
            let exec = SystemExecutor::new(system.clone(), model);
            let (time, energy) = analytic_serve(&exec, l_in, l_out, n_requests, batch);
            let base = *base_time.get_or_insert(time);
            rows.push(EndToEndRow {
                model: model.name.clone(),
                l_in,
                l_out,
                system: system.name(),
                batch,
                time_s: time,
                normalized: time / base,
                energy_per_token_j: energy / (n_requests * l_out) as f64,
            });
        }
        rows
    });
    per_cell.into_iter().flatten().collect()
}

// --------------------------------------------------------------- Fig. 14

/// One bar of Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRow {
    /// System label.
    pub system: String,
    /// SLO in seconds (`None` = unconstrained).
    pub slo_s: Option<f64>,
    /// Max batch admitted by SLO and capacity.
    pub max_batch: u64,
    /// Steady-state tokens per second.
    pub tokens_per_s: f64,
}

/// The Fig. 14 SLO study for GPT-3-class serving.
#[must_use]
pub fn slo_study(model: &ModelConfig, l_in: u64, l_out: u64, slos: &[Option<f64>]) -> Vec<SloRow> {
    let systems = [System::dgx_base(), System::dgx_large(), System::dgx_attacc_full()];
    let cells: Vec<(Option<f64>, &System)> = slos
        .iter()
        .flat_map(|&slo| systems.iter().map(move |s| (slo, s)))
        .collect();
    SweepRunner::from_env().map(&cells, |&(slo, system)| {
        let batch = max_feasible_batch(system, model, l_in, l_out, slo);
        let exec = SystemExecutor::new(system.clone(), model);
        let tokens_per_s = if batch == 0 {
            0.0
        } else {
            let groups = steady_state_groups(batch, l_in, l_out);
            batch as f64 / exec.gen_stage(&groups).latency_s
        };
        SloRow {
            system: system.name(),
            slo_s: slo,
            max_batch: batch,
            tokens_per_s,
        }
    })
}

// --------------------------------------------------------------- Fig. 16

/// One group of Fig. 16.
#[derive(Debug, Clone, PartialEq)]
pub struct BitwidthRow {
    /// Data type evaluated.
    pub dtype: String,
    /// Sequence shape.
    pub l_in: u64,
    /// Output length.
    pub l_out: u64,
    /// `DGX+AttAccs` speedup over `DGX_Base`.
    pub speedup_vs_base: f64,
    /// `DGX+AttAccs` speedup over `DGX_Large`.
    pub speedup_vs_large: f64,
}

/// The Fig. 16 bit-width sensitivity study (FP16 vs INT8).
#[must_use]
pub fn bitwidth_study(model: &ModelConfig, seqs: &[(u64, u64)], n_requests: u64) -> Vec<BitwidthRow> {
    let cells: Vec<(DataType, u64, u64)> = [DataType::Fp16, DataType::Int8]
        .iter()
        .flat_map(|&dtype| seqs.iter().map(move |&(l_in, l_out)| (dtype, l_in, l_out)))
        .collect();
    SweepRunner::from_env().map(&cells, |&(dtype, l_in, l_out)| {
        let m = model.with_dtype(dtype);
        let time_on = |system: System| {
            let batch = max_feasible_batch(&system, &m, l_in, l_out, None).max(1);
            let exec = SystemExecutor::new(system, &m);
            analytic_serve(&exec, l_in, l_out, n_requests, batch).0
        };
        let base = time_on(System::dgx_base());
        let large = time_on(System::dgx_large());
        let pim = time_on(System::dgx_attacc_full());
        BitwidthRow {
            dtype: dtype.to_string(),
            l_in,
            l_out,
            speedup_vs_base: base / pim,
            speedup_vs_large: large / pim,
        }
    })
}

// --------------------------------------------------------------- Fig. 17

/// One bar of Fig. 17.
#[derive(Debug, Clone, PartialEq)]
pub struct AlternativeRow {
    /// System label.
    pub system: String,
    /// Sequence shape.
    pub l_in: u64,
    /// Output length.
    pub l_out: u64,
    /// Batch size used.
    pub batch: u64,
    /// Throughput normalized to `DGX_Base`.
    pub normalized_throughput: f64,
}

/// The Fig. 17 comparison with other DGX options.
#[must_use]
pub fn alternatives_study(model: &ModelConfig, seqs: &[(u64, u64)], n_requests: u64) -> Vec<AlternativeRow> {
    let systems = [
        System::dgx_base(),
        System::dgx_cpu(),
        System::two_dgx(),
        System::dgx_attacc_full(),
    ];
    // Sequence cells run in parallel; the system loop inside each cell is
    // serial because bars are normalized to the cell's DGX_Base.
    let per_seq = SweepRunner::from_env().map(seqs, |&(l_in, l_out)| {
        let mut rows = Vec::new();
        let mut base_tput = None;
        for system in &systems {
            let batch = max_feasible_batch(system, model, l_in, l_out, None).max(1);
            let exec = SystemExecutor::new(system.clone(), model);
            let (time, _) = analytic_serve(&exec, l_in, l_out, n_requests, batch);
            let tput = (n_requests * l_out) as f64 / time;
            let base = *base_tput.get_or_insert(tput);
            rows.push(AlternativeRow {
                system: system.name(),
                l_in,
                l_out,
                batch,
                normalized_throughput: tput / base,
            });
        }
        rows
    });
    per_seq.into_iter().flatten().collect()
}

// ------------------------------------------------------------ §8 GQA/MQA

/// One row of the GQA/MQA ablation (§8).
#[derive(Debug, Clone, PartialEq)]
pub struct GqaRow {
    /// Heads sharing one KV pair.
    pub group_size: u32,
    /// `DGX+AttAccs` speedup over `DGX_Base` on the attention layer alone.
    pub attention_speedup: f64,
    /// The same speedup with the §8 systolic GEMV-unit extension (KV
    /// shared across the group's query heads inside AttAcc too).
    pub systolic_speedup: f64,
}

/// §8: AttAcc's attention advantage shrinks as the GQA group grows,
/// because the GPU reuses shared KV through its caches while the default
/// AttAcc streams KV once per query head. The systolic extension restores
/// the advantage at extra area cost.
#[must_use]
pub fn gqa_ablation(model: &ModelConfig, batch: u64, l: u64, group_sizes: &[u32]) -> Vec<GqaRow> {
    let gpu = System::dgx_base().gpu;
    let attacc = attacc_pim::AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
    let systolic = attacc_pim::AttAccDevice::paper_40_stacks(GemvPlacement::Bank).with_systolic();
    SweepRunner::from_env().map(group_sizes, |&g| {
            let variant = if g == 1 {
                AttentionVariant::Mha
            } else if g == model.n_head {
                AttentionVariant::Mqa
            } else {
                AttentionVariant::Gqa { group_size: g }
            };
            let m = model.with_attention(variant);
            let wl = StageWorkload::uniform(&m, Phase::gen(l), batch);
            let attn_op = wl.attention_op().expect("stage has attention");
            // GPU: KV read once per KV head (cache reuse).
            let gpu_s = gpu.device.op_time_s(attn_op) * f64::from(m.n_decoder);
            // AttAcc: KV streamed once per query head (plain) or once per
            // KV head (systolic).
            let pim_s = attacc.attention_decoder_time(&m, &[(batch, l)], true).total_s
                * f64::from(m.n_decoder);
            let sys_s = systolic.attention_decoder_time(&m, &[(batch, l)], true).total_s
                * f64::from(m.n_decoder);
            GqaRow {
                group_size: g,
                attention_speedup: gpu_s / pim_s,
                systolic_speedup: gpu_s / sys_s,
            }
        })
}

// ------------------------------------------------ §6.1 batch-level pipe

/// One row of the batch-level pipelining ablation (§6.1, Fig. 11(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPipeRow {
    /// Strategy label.
    pub strategy: String,
    /// Batch size per concurrently resident batch.
    pub batch_per_stream: u64,
    /// Steady-state tokens per second.
    pub tokens_per_s: f64,
}

/// §6.1's rejected alternative: overlap the FC layers of batch A with the
/// attention of batch B. Both batches' KV must be resident, halving each
/// batch — which degrades the FC throughput more than the overlap gains.
#[must_use]
pub fn batch_pipelining_ablation(model: &ModelConfig, l_in: u64, l_out: u64) -> Vec<BatchPipeRow> {
    let system = System::dgx_attacc_full();
    let exec = SystemExecutor::new(system.clone(), model);
    // Rounded down to even so the two half batches split it exactly.
    let full = (max_feasible_batch(&system, model, l_in, l_out, None).max(2) / 2) * 2;

    // Head-level pipelining (the adopted design): one batch of `full`.
    let groups = steady_state_groups(full, l_in, l_out);
    let adopted = full as f64 / exec.gen_stage(&groups).latency_s;

    // Batch-level pipelining: two batches of `full/2`; per period both a
    // full FC pass and a full attention pass of a half batch complete, and
    // they overlap: period = max(non-attention time, attention time).
    let half = full / 2;
    let d = exec.gen_stage_detail(&steady_state_groups(half, l_in, l_out));
    let non_attn = d.fc_s + d.other_s + d.comm_s;
    let period = non_attn.max(d.attn_s);
    let batch_level = if period > 0.0 { half as f64 / period } else { 0.0 };

    vec![
        BatchPipeRow {
            strategy: "head-level pipelining (adopted)".into(),
            batch_per_stream: full,
            tokens_per_s: adopted,
        },
        BatchPipeRow {
            strategy: "batch-level pipelining (rejected)".into(),
            batch_per_stream: half,
            tokens_per_s: batch_level,
        },
    ]
}

// ------------------------------------------------- bridge sensitivity

/// One row of the interconnect-sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BridgeRow {
    /// Bridge label.
    pub bridge: String,
    /// Bridge bandwidth (GB/s).
    pub bw_gb_s: f64,
    /// Gen-iteration latency on the PIM platform (ms).
    pub iteration_ms: f64,
    /// Slowdown relative to the fastest bridge in the sweep.
    pub slowdown: f64,
}

/// Sensitivity of `DGX+AttAccs` to the xPU↔AttAcc interconnect (§4 notes
/// PCIe, NVLink or CXL all qualify; this quantifies when the choice
/// matters). The per-decoder Q/K/V and output transfers are small
/// relative to the in-stack KV streams (§3.3's 1/128 ratio), so even
/// PCIe-class links cost only a bounded slowdown.
#[must_use]
pub fn bridge_sensitivity(
    model: &ModelConfig,
    batch: u64,
    l: u64,
    bridges: &[attacc_xpu::Interconnect],
) -> Vec<BridgeRow> {
    let mut rows: Vec<BridgeRow> =
        SweepRunner::from_env().map(bridges, |bridge| {
            let mut system = System::dgx_attacc_full();
            system.bridge = bridge.clone();
            let exec = SystemExecutor::new(system, model);
            let t = exec.gen_stage(&[(batch, l)]).latency_s;
            BridgeRow {
                bridge: bridge.name.clone(),
                bw_gb_s: bridge.bw_bytes_per_s / 1e9,
                iteration_ms: t * 1e3,
                slowdown: 0.0,
            }
        });
    let best = rows
        .iter()
        .map(|r| r.iteration_ms)
        .fold(f64::INFINITY, f64::min);
    for r in &mut rows {
        r.slowdown = r.iteration_ms / best;
    }
    rows
}

// ----------------------------------------------------- model scaling

/// One row of the model-scaling study (§7.2's interpretation).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Model name.
    pub model: String,
    /// Parameter count.
    pub params: u64,
    /// Feasible batch on `DGX_Base` / `DGX+AttAccs`.
    pub batch_base: u64,
    /// Feasible batch on the PIM platform.
    pub batch_pim: u64,
    /// End-to-end speedup of the full PIM platform over `DGX_Base`.
    pub speedup: f64,
}

/// Sweeps model sizes at a fixed sequence shape: small models gain mostly
/// from attention acceleration (batches are already large), big models
/// mostly from capacity relief (§7.2).
#[must_use]
pub fn model_scaling_study(
    models: &[ModelConfig],
    l_in: u64,
    l_out: u64,
    n_requests: u64,
) -> Vec<ScalingRow> {
    SweepRunner::from_env().map(models, |m| {
            let base_sys = System::dgx_base();
            let pim_sys = System::dgx_attacc_full();
            let b_base = max_feasible_batch(&base_sys, m, l_in, l_out, None).max(1);
            let b_pim = max_feasible_batch(&pim_sys, m, l_in, l_out, None).max(1);
            let t_base = analytic_serve(
                &SystemExecutor::new(base_sys, m),
                l_in,
                l_out,
                n_requests,
                b_base,
            )
            .0;
            let t_pim = analytic_serve(
                &SystemExecutor::new(pim_sys, m),
                l_in,
                l_out,
                n_requests,
                b_pim,
            )
            .0;
            ScalingRow {
                model: m.name.clone(),
                params: m.n_params(),
                batch_base: b_base,
                batch_pim: b_pim,
                speedup: t_base / t_pim,
            }
        })
}

// ------------------------------------------------------ §8 training

/// One row of the training-implication ablation (§8).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRow {
    /// Phase label.
    pub phase: String,
    /// Arithmetic intensity of the phase's attention (FLOPs/byte).
    pub attention_op_b: f64,
    /// Whether the attention is memory-bound on the DGX.
    pub memory_bound: bool,
    /// AttAcc speedup (or slowdown, < 1) for the phase's attention.
    pub attacc_speedup: f64,
}

/// §8: pre-training processes all tokens concurrently with masking —
/// compute-intensive, unsuitable for AttAcc — while RLHF-style
/// fine-tuning contains memory-intensive generation stages that AttAcc
/// accelerates like inference.
#[must_use]
pub fn training_ablation(model: &ModelConfig, batch: u64, seq: u64) -> Vec<TrainingRow> {
    let gpu = System::dgx_base().gpu;
    let attacc = attacc_pim::AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
    let mut rows = Vec::new();

    // Pre-training forward pass: a Sum-shaped attention (q_rows = L).
    let pre = StageWorkload::uniform(model, Phase::sum(seq), batch);
    let pre_attn = pre.attention_op().expect("attention present");
    let gpu_pre = gpu.device.op_time_s(pre_attn);
    // On AttAcc the same op is compute-bound on the meagre GEMV arrays.
    let attacc_pre = (pre_attn.traffic().kv_bytes as f64 / attacc.internal_bandwidth())
        .max(pre_attn.flops() as f64 / attacc.peak_flops());
    rows.push(TrainingRow {
        phase: "pre-training forward".into(),
        attention_op_b: pre_attn.op_per_byte().unwrap_or(0.0),
        memory_bound: gpu.device.is_memory_bound(pre_attn),
        attacc_speedup: gpu_pre / attacc_pre,
    });

    // RLHF rollout: ordinary generation, memory-intensive.
    let gen = StageWorkload::uniform(model, Phase::gen(seq), batch);
    let gen_attn = gen.attention_op().expect("attention present");
    let gpu_gen = gpu.device.op_time_s(gen_attn);
    let attacc_gen = attacc.attention_decoder_time(model, &[(batch, seq)], true).total_s;
    rows.push(TrainingRow {
        phase: "RLHF rollout (generation)".into(),
        attention_op_b: gen_attn.op_per_byte().unwrap_or(0.0),
        memory_bound: gpu.device.is_memory_bound(gen_attn),
        attacc_speedup: gpu_gen / attacc_gen,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3() -> ModelConfig {
        ModelConfig::gpt3_175b()
    }

    #[test]
    fn steady_state_groups_cover_batch_and_range() {
        let g = steady_state_groups(37, 100, 80);
        assert_eq!(g.iter().map(|x| x.0).sum::<u64>(), 37);
        assert!(g.iter().all(|&(_, l)| l > 100 && l <= 180));
        assert!(steady_state_groups(0, 10, 10).is_empty());
    }

    #[test]
    fn fig2_corner_cells() {
        // Fig. 2: (L_in=2, L_out=2) → 50.0%; (2048, 2) → 4.4%;
        // (32, 32) → 96.4%.
        let sys = System::dgx_base();
        let m = gpt3();
        let f = |li, lo| gen_stage_fraction(&sys, &m, li, lo) * 100.0;
        let c22 = f(2, 2);
        assert!((c22 - 50.0).abs() < 3.0, "(2,2) = {c22}%");
        let c2048 = f(2048, 2);
        assert!((c2048 - 4.4).abs() < 2.5, "(2048,2) = {c2048}%");
        let c32 = f(32, 32);
        assert!(c32 > 93.0, "(32,32) = {c32}%");
        let big = f(2048, 2048);
        assert!(big > 98.0, "(2048,2048) = {big}%");
    }

    #[test]
    fn fig3_attention_stays_left_of_ridge() {
        let rows = roofline_rows(&System::dgx_base(), &gpt3(), 2048, &[1, 64, 256]);
        for r in rows.iter().filter(|r| r.label.contains("Gen attention")) {
            assert!(r.memory_bound, "{}", r.label);
            assert!(r.op_per_byte < 2.0);
        }
        let fc1 = rows.iter().find(|r| r.label == "Gen FC b=1").unwrap();
        let fc256 = rows.iter().find(|r| r.label == "Gen FC b=256").unwrap();
        assert!(fc256.op_per_byte > 100.0 * fc1.op_per_byte);
    }

    #[test]
    fn fig4_throughput_grows_sublinearly() {
        let m = gpt3();
        let rows = batching_study(&System::dgx_base(), &m, 2048, 512, &[1, 16, 64, 256]);
        // Throughput rises with batch…
        for w in rows.windows(2) {
            assert!(w[1].tokens_per_s > w[0].tokens_per_s);
        }
        // …energy per token falls…
        assert!(rows[3].energy_per_token_j < rows[0].energy_per_token_j / 3.0);
        // …and the attention share rises.
        assert!(rows[3].attn_frac > rows[0].attn_frac);
        // Batch 256 at (2048, 512) exceeds DGX capacity (dotted bar).
        assert!(rows[3].exceeds_dgx_capacity);
        assert!(!rows[0].exceeds_dgx_capacity);
    }

    #[test]
    fn fig7_bank_wins_edap() {
        let rows = placement_study(&gpt3(), 50, 4096);
        assert_eq!(rows.len(), 3);
        let bank = rows.iter().find(|r| r.placement == "AttAcc_bank").unwrap();
        let bg = rows.iter().find(|r| r.placement == "AttAcc_BG").unwrap();
        let buffer = rows.iter().find(|r| r.placement == "AttAcc_buffer").unwrap();
        assert!(bank.rel_throughput > bg.rel_throughput);
        assert!(bg.rel_throughput > buffer.rel_throughput);
        assert!(bank.rel_edap < bg.rel_edap && bg.rel_edap < buffer.rel_edap);
        assert!((bank.area_overhead - 0.1084).abs() < 0.005);
    }

    #[test]
    fn fig14_tighter_slo_widens_gap() {
        let m = gpt3();
        let rows = slo_study(&m, 2048, 2048, &[None, Some(0.050), Some(0.030)]);
        let tput = |slo: Option<f64>, sys: &str| {
            rows.iter()
                .find(|r| r.slo_s == slo && r.system == sys)
                .unwrap()
                .tokens_per_s
        };
        let gap_none = tput(None, "DGX+AttAccs +HL pipe +FF co-proc") / tput(None, "DGX_Large").max(1e-9);
        let gap_30 = tput(Some(0.030), "DGX+AttAccs +HL pipe +FF co-proc")
            / tput(Some(0.030), "DGX_Large").max(1e-9);
        assert!(gap_30 > gap_none, "gap at 30 ms {gap_30} vs unconstrained {gap_none}");
        // The batch annotations shrink with the SLO.
        let b = |slo: Option<f64>, sys: &str| {
            rows.iter().find(|r| r.slo_s == slo && r.system == sys).unwrap().max_batch
        };
        assert!(b(Some(0.030), "DGX_Large") < b(None, "DGX_Large"));
    }

    #[test]
    fn gqa_ablation_shrinks_with_group() {
        let rows = gqa_ablation(&gpt3(), 32, 2048, &[1, 8, 96]);
        assert!(rows[0].attention_speedup > rows[1].attention_speedup);
        assert!(rows[1].attention_speedup > rows[2].attention_speedup);
        // MHA attention speedup is in the vicinity of the bandwidth ratio.
        assert!(rows[0].attention_speedup > 4.0);
        // §8: the systolic extension keeps the gain competitive at every
        // group size.
        for r in &rows {
            assert!(
                r.systolic_speedup > 4.0,
                "group {}: systolic {}",
                r.group_size,
                r.systolic_speedup
            );
            assert!(r.systolic_speedup >= r.attention_speedup * 0.99);
        }
    }

    #[test]
    fn training_ablation_matches_section8() {
        let rows = training_ablation(&gpt3(), 8, 2048);
        let pre = &rows[0];
        let rlhf = &rows[1];
        // Pre-training attention is compute-dense and AttAcc loses there.
        assert!(!pre.memory_bound);
        assert!(pre.attacc_speedup < 1.0, "pre-training speedup {}", pre.attacc_speedup);
        // RLHF generation is memory-bound and AttAcc wins as in inference.
        assert!(rlhf.memory_bound);
        assert!(rlhf.attacc_speedup > 4.0, "rollout speedup {}", rlhf.attacc_speedup);
    }

    #[test]
    fn bridge_choice_matters_but_boundedly() {
        use attacc_xpu::Interconnect;
        let rows = bridge_sensitivity(
            &gpt3(),
            32,
            2048,
            &[
                Interconnect::pcie_gen5(),
                Interconnect::accelerator_bridge(),
                Interconnect::nvlink(),
            ],
        );
        // Faster bridges are never slower.
        let pcie = rows.iter().find(|r| r.bridge.contains("PCIe")).unwrap();
        let nvlink = rows.iter().find(|r| r.bridge == "NVLink").unwrap();
        assert!(pcie.iteration_ms >= nvlink.iteration_ms);
        // §3.3's small external/internal ratio keeps even PCIe's penalty
        // bounded (well under the 9× attention win).
        assert!(pcie.slowdown < 2.0, "PCIe slowdown = {}", pcie.slowdown);
        assert!(nvlink.slowdown < 1.01);
    }

    #[test]
    fn scaling_study_shows_capacity_story() {
        let models = [
            ModelConfig::gpt3_6_7b(),
            ModelConfig::gpt3_13b(),
            ModelConfig::gpt3_175b(),
            ModelConfig::mt_nlg_530b(),
        ];
        let rows = model_scaling_study(&models, 2048, 2048, 500);
        // Every size wins; the batch-relief ratio grows with model size.
        for r in &rows {
            assert!(r.speedup > 1.0, "{}: {}", r.model, r.speedup);
            assert!(r.batch_pim >= r.batch_base);
        }
        let relief = |r: &ScalingRow| r.batch_pim as f64 / r.batch_base as f64;
        assert!(relief(&rows[3]) > relief(&rows[0]));
    }

    #[test]
    fn batch_level_pipelining_loses() {
        // §6.1: "such batch-level pipelining is more harmful than
        // beneficial in our experimental setting."
        let rows = batch_pipelining_ablation(&gpt3(), 2048, 2048);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[0].tokens_per_s > rows[1].tokens_per_s,
            "adopted {} vs rejected {}",
            rows[0].tokens_per_s,
            rows[1].tokens_per_s
        );
        assert_eq!(rows[1].batch_per_stream * 2, rows[0].batch_per_stream);
    }
}
