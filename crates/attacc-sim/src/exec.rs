//! Stage execution on each platform (§5.2's execution flow).

use crate::engine::{self, TimingCache};
use crate::{System, SystemKind};
use attacc_model::{FcLayer, ModelConfig, Op, OpClass, Phase, StageWorkload};
use attacc_pim::{AttAccDevice, AttentionTiming};
use attacc_serving::{
    ff_coprocess_speedup, head_level_pipelined_s, serial_s, DecoderPhases, StageCost,
    StageExecutor,
};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Idle power of the AttAcc board (controllers, PHYs), watts. Public so
/// the provisioning cost model bills the same constant the energy
/// accounting charges.
pub const ATTACC_STATIC_W: f64 = 100.0;

/// Per-class breakdown of one Gen stage (Fig. 4(c) rows).
///
/// Component times are pre-overlap sums; `total_s` is the end-to-end time
/// after pipelining, so components may sum to more than the total on
/// optimized platforms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// FC-layer time (QKV, projection, feedforward, LM head).
    pub fc_s: f64,
    /// Attention time.
    pub attn_s: f64,
    /// Normalization/activation/residual/transfer time.
    pub other_s: f64,
    /// Collective-communication time.
    pub comm_s: f64,
    /// End-to-end stage latency.
    pub total_s: f64,
    /// Stage energy in joules.
    pub energy_j: f64,
    /// xPU compute utilization over the stage.
    pub utilization: f64,
}

/// Rows-only aggregates of one `DGX+AttAccs` Gen iteration's op graph.
///
/// Every decoder and head op except `Op::Attention` and `Op::KvAppend`
/// depends only on the total decode row count (the op builder derives
/// their shapes from `rows` plus model constants), so these sums are
/// memoizable keyed by `rows` alone: the timing cache holds one per row
/// count in each thread's memo of the `(system, model)` pair. The
/// per-`(count, context)` attention term is folded back in by the shared
/// combine step. `tests/cache_props.rs` checks the decomposition: parts
/// filled from one context mix must give the uncached walk's result for
/// any other mix with the same row total.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttAccGenParts {
    qkv_s: f64,
    proj_s: f64,
    ff_mem_s: f64,
    ff_comp_s: f64,
    ff_launch_s: f64,
    other_s: f64,
    gpu_flops: f64,
    gpu_bytes: f64,
    rows: u64,
    head_s: f64,
    head_flops: f64,
    head_bytes: f64,
}

/// Executes Sum/Gen stages of `model` on `system`.
///
/// Timing queries are memoized in [`TimingCache::global`]; the cache key
/// ids are interned lazily on first query and shared by clones.
#[derive(Debug, Clone)]
pub struct SystemExecutor {
    system: System,
    model: ModelConfig,
    cache_ids: OnceLock<(u32, u32)>,
}

impl SystemExecutor {
    /// Creates an executor.
    #[must_use]
    pub fn new(system: System, model: &ModelConfig) -> SystemExecutor {
        SystemExecutor {
            system,
            model: model.clone(),
            cache_ids: OnceLock::new(),
        }
    }

    /// The interned `(system, model)` cache-key pair for this executor.
    fn cache_ids(&self) -> (u32, u32) {
        *self.cache_ids.get_or_init(|| {
            (
                engine::intern_system(&format!("{:?}", self.system)),
                engine::intern_model(&self.model),
            )
        })
    }

    /// The platform being executed on.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The model being served.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Bridge traffic of one Gen-stage decoder: Q/K/V vectors to AttAcc
    /// (or CPU) and the attention outputs back.
    fn decoder_bridge_bytes(&self, rows: u64) -> u64 {
        let d = self.model.d_emb;
        let kv = u64::from(self.model.kv_heads()) * self.model.d_head;
        rows * (2 * d + 2 * kv) * self.model.dtype.bytes()
    }

    /// Full detail of one Gen iteration over `(count, context)` groups,
    /// memoized in the global [`TimingCache`]. On `DGX+AttAccs` the cache
    /// holds the rows-keyed [`AttAccGenParts`] and the attention term is
    /// added per group from the pair's memoized per-length terms. The
    /// xPU-attention platforms memoize the whole breakdown keyed by
    /// `(Σ count, Σ count · context)`: their op graph sees the groups only
    /// through those two sums (the merged attention op's FLOPs and bytes
    /// are u64 multiples of them, every other op depends on the rows), so
    /// any regrouping with the same sums walks to the same breakdown.
    #[must_use]
    pub fn gen_stage_detail(&self, groups: &[(u64, u64)]) -> StageBreakdown {
        let Some(groups) = nonzero_groups(groups) else {
            return StageBreakdown::default();
        };
        let (system, model) = self.cache_ids();
        let cache = TimingCache::global();
        if let SystemKind::DgxAttAcc { head_level_pipelining, ff_coprocessing } = self.system.kind {
            let rows = groups.iter().map(|&(n, _)| n).sum();
            return cache.attacc_gen(
                system,
                model,
                rows,
                || self.attacc_gen_parts(&StageWorkload::gen_with_contexts(&self.model, &groups)),
                || self.pim().attention_memo(&self.model),
                |parts, attention| {
                    let attn = attention.decoder_time(&groups, true);
                    self.attacc_combine(parts, &attn, head_level_pipelining, ff_coprocessing)
                },
            );
        }
        cache.gen_breakdown(system, model, &groups, || self.gen_stage_detail_uncached(&groups))
    }

    /// [`SystemExecutor::gen_stage_detail`] bypassing the cache: the full
    /// op-graph walk, the exact reference every cached result equals.
    #[must_use]
    pub fn gen_stage_detail_uncached(&self, groups: &[(u64, u64)]) -> StageBreakdown {
        let Some(groups) = nonzero_groups(groups) else {
            return StageBreakdown::default();
        };
        let wl = StageWorkload::gen_with_contexts(&self.model, &groups);
        match self.system.kind {
            SystemKind::DgxBase | SystemKind::DgxLarge | SystemKind::TwoDgx => {
                let t = self.system.gpu.stage_time(&wl);
                StageBreakdown {
                    fc_s: t.fc_s,
                    attn_s: t.attn_s,
                    other_s: t.other_s,
                    comm_s: t.comm_s,
                    total_s: t.total_s,
                    energy_j: t.energy_j,
                    utilization: t.utilization,
                }
            }
            SystemKind::DgxCpu => self.gen_stage_cpu(&wl),
            SystemKind::DgxAttAcc { head_level_pipelining, ff_coprocessing } => {
                let parts = self.attacc_gen_parts(&wl);
                let attn = self.pim().attention_decoder_time(&self.model, &groups, true);
                self.attacc_combine(&parts, &attn, head_level_pipelining, ff_coprocessing)
            }
        }
    }

    /// `DGX_CPU`: FC layers on the GPUs, attention against host DDR.
    fn gen_stage_cpu(&self, wl: &StageWorkload) -> StageBreakdown {
        let cpu = self.system.cpu.as_ref().expect("DgxCpu has a CPU subsystem");
        let gpu = &self.system.gpu;
        let mut fc = 0.0;
        let mut attn = 0.0;
        let mut other = 0.0;
        let mut gpu_flops = 0.0;
        let mut gpu_bytes = 0.0;
        let mut cpu_bytes = 0.0;
        let mut rows = 0u64;
        for (op, n) in wl.iter_unique_ops() {
            let reps = n as f64;
            match op.class() {
                OpClass::Attention => {
                    attn += cpu.attention_time_s(op) * reps;
                    cpu_bytes += op.traffic().total() as f64 * reps;
                }
                OpClass::FullyConnected => {
                    fc += gpu.device.op_time_s(op) * reps;
                    gpu_flops += op.flops() as f64 * reps;
                    gpu_bytes += op.traffic().total() as f64 * reps;
                }
                OpClass::Other | OpClass::Communication => {
                    other += gpu.device.op_time_s(op) * reps;
                    gpu_flops += op.flops() as f64 * reps;
                    gpu_bytes += op.traffic().total() as f64 * reps;
                }
            }
            if let Op::LayerNorm { rows: r, .. } = op {
                rows = *r;
            }
        }
        // Q/K/V and outputs cross the PCIe bridge every decoder.
        let bridge_bytes = self.decoder_bridge_bytes(rows) * u64::from(self.model.n_decoder);
        let xfer = self.system.bridge.transfer_s(self.decoder_bridge_bytes(rows))
            * f64::from(self.model.n_decoder);
        let comm = gpu.decoder_comm_s(rows, self.model.d_emb, self.model.dtype.bytes())
            * f64::from(self.model.n_decoder);
        let total = fc + attn + other + comm + xfer;
        let energy_j = gpu.energy.execution_j(gpu_flops, gpu_bytes, total)
            + gpu.energy.execution_j(0.0, cpu_bytes, 0.0)
            + gpu.energy.link_j(bridge_bytes as f64);
        StageBreakdown {
            fc_s: fc,
            attn_s: attn,
            other_s: other + xfer,
            comm_s: comm,
            total_s: total,
            energy_j,
            utilization: gpu_flops / (total * gpu.device.peak_flops_fp16),
        }
    }

    /// The rows-only op-graph sums of one `DGX+AttAccs` Gen iteration:
    /// everything except the attention term, which `attacc_combine` folds
    /// in per `(count, context)` group.
    fn attacc_gen_parts(&self, wl: &StageWorkload) -> AttAccGenParts {
        let dev = &self.system.gpu.device;
        let mut p = AttAccGenParts::default();
        for op in &wl.decoder_ops {
            match op {
                Op::Attention { .. } | Op::KvAppend { .. } => continue,
                Op::Gemm { layer, .. } => {
                    let t = dev.op_time_s(op);
                    match layer {
                        FcLayer::QkvGen => p.qkv_s += t,
                        FcLayer::Projection => p.proj_s += t,
                        _ if layer.is_feedforward() => {
                            p.ff_mem_s += dev.memory_time_s(op);
                            p.ff_comp_s += dev.compute_time_s(op);
                            p.ff_launch_s += dev.launch_s;
                        }
                        _ => p.other_s += t,
                    }
                    p.gpu_flops += op.flops() as f64;
                    p.gpu_bytes += op.traffic().total() as f64;
                }
                Op::Activation { .. } => {
                    // The GELU between FF1 and FF2 belongs to the
                    // (possibly co-processed) feedforward phase.
                    p.ff_mem_s += dev.memory_time_s(op);
                    p.ff_comp_s += dev.compute_time_s(op);
                    p.ff_launch_s += dev.launch_s;
                    p.gpu_flops += op.flops() as f64;
                    p.gpu_bytes += op.traffic().total() as f64;
                }
                _ => {
                    p.other_s += dev.op_time_s(op);
                    p.gpu_flops += op.flops() as f64;
                    p.gpu_bytes += op.traffic().total() as f64;
                    if let Op::LayerNorm { rows: r, .. } = op {
                        p.rows = *r;
                    }
                }
            }
        }
        // LM head and final layernorm on the GPU (once per stage).
        for op in &wl.head_ops {
            p.head_s += dev.op_time_s(op);
            p.head_flops += op.flops() as f64;
            p.head_bytes += op.traffic().total() as f64;
        }
        p
    }

    /// The `DGX+AttAccs` PIM device.
    fn pim(&self) -> &AttAccDevice {
        self.system.attacc.as_ref().expect("DgxAttAcc has a PIM device")
    }

    /// `DGX+AttAccs`: folds one decoder's attention on the PIM stacks
    /// (attention-level pipelining always on) into the rows-only GPU
    /// aggregates, with the §6 optimizations as configured. The cached
    /// and uncached paths share it, so they can differ only if the parts
    /// depend on more than the row total.
    fn attacc_combine(
        &self,
        p: &AttAccGenParts,
        attn: &AttentionTiming,
        hl_pipe: bool,
        ff_coproc: bool,
    ) -> StageBreakdown {
        let attacc = self.pim();
        let gpu = &self.system.gpu;
        let dev = &gpu.device;

        // Per-decoder bridge transfers (Q/K/V in, outputs back).
        let bridge_bytes = self.decoder_bridge_bytes(p.rows);
        let xfer_s = self.system.bridge.transfer_s(bridge_bytes);

        // Feedforward phase, possibly co-processed (§6.2).
        let ff_s = if ff_coproc {
            let factor = ff_coprocess_speedup(
                dev.mem_bw * dev.mem_eff,
                attacc.external_bandwidth() * dev.mem_eff,
            );
            p.ff_comp_s.max(p.ff_mem_s * factor) + p.ff_launch_s
        } else {
            p.ff_comp_s.max(p.ff_mem_s) + p.ff_launch_s
        };

        let phases = DecoderPhases {
            qkv_s: p.qkv_s,
            attn_s: attn.total_s,
            proj_s: p.proj_s,
            ff_s,
            other_s: p.other_s + xfer_s,
            comm_s: gpu.decoder_comm_s(p.rows, self.model.d_emb, self.model.dtype.bytes()),
        };
        let decoder_s = if hl_pipe {
            head_level_pipelined_s(&phases, u64::from(self.model.n_head))
        } else {
            serial_s(&phases)
        };

        let n_dec = f64::from(self.model.n_decoder);
        let total = decoder_s * n_dec + p.head_s;
        let stage_flops = p.gpu_flops * n_dec + p.head_flops;
        let stage_bytes = p.gpu_bytes * n_dec + p.head_bytes;

        let gpu_energy = gpu.energy.execution_j(stage_flops, stage_bytes, total);
        let attacc_energy = attn.energy_j * n_dec + ATTACC_STATIC_W * total;
        let link_energy = gpu.energy.link_j(bridge_bytes as f64 * n_dec);

        StageBreakdown {
            fc_s: (p.qkv_s + p.proj_s + ff_s) * n_dec + p.head_s,
            attn_s: attn.total_s * n_dec,
            other_s: (p.other_s + xfer_s) * n_dec,
            comm_s: phases.comm_s * n_dec,
            total_s: total,
            energy_j: gpu_energy + attacc_energy + link_energy,
            utilization: stage_flops / (total * dev.peak_flops_fp16),
        }
    }
}

impl SystemExecutor {
    /// The Sum-stage cost bypassing the cache (see
    /// [`StageExecutor::sum_stage`]); an empty batch is free.
    #[must_use]
    pub fn sum_stage_uncached(&self, batch: u64, l_in: u64) -> StageCost {
        if batch == 0 {
            return StageCost::default();
        }
        let wl = StageWorkload::uniform(&self.model, Phase::sum(l_in), batch);
        let t = self.system.gpu.stage_time(&wl);
        match self.system.kind {
            SystemKind::DgxAttAcc { .. } | SystemKind::DgxCpu => {
                // The freshly built KV matrices stream to the attention
                // pool as they are produced; the copy overlaps prefill
                // compute.
                let per_token = 2
                    * u64::from(self.model.kv_heads())
                    * self.model.d_head
                    * self.model.kv_dtype.bytes()
                    * u64::from(self.model.n_decoder);
                let kv_bytes = batch * l_in * per_token;
                let xfer = self.system.bridge.transfer_s(kv_bytes);
                StageCost {
                    latency_s: t.total_s.max(xfer),
                    energy_j: t.energy_j + self.system.gpu.energy.link_j(kv_bytes as f64),
                }
            }
            _ => StageCost {
                latency_s: t.total_s,
                energy_j: t.energy_j,
            },
        }
    }
}

/// `groups` without its zero-count entries, or `None` when no rows are
/// left (an empty Gen iteration is free). Both Gen-stage paths normalize
/// through here, so they accept exactly the same inputs.
fn nonzero_groups(groups: &[(u64, u64)]) -> Option<Cow<'_, [(u64, u64)]>> {
    let groups = if groups.iter().any(|&(n, _)| n == 0) {
        Cow::Owned(groups.iter().copied().filter(|&(n, _)| n > 0).collect())
    } else {
        Cow::Borrowed(groups)
    };
    (!groups.is_empty()).then_some(groups)
}

impl StageExecutor for SystemExecutor {
    fn sum_stage(&self, batch: u64, l_in: u64) -> StageCost {
        if batch == 0 {
            return StageCost::default();
        }
        let (system, model) = self.cache_ids();
        TimingCache::global()
            .sum_cost(system, model, batch, l_in, || self.sum_stage_uncached(batch, l_in))
    }

    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let d = self.gen_stage_detail(groups);
        StageCost {
            latency_s: d.total_s,
            energy_j: d.energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt3() -> ModelConfig {
        ModelConfig::gpt3_175b()
    }

    #[test]
    fn attacc_beats_base_on_gen_iteration() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        let pim = SystemExecutor::new(System::dgx_attacc_full(), &m);
        let g = [(32u64, 2048u64)];
        let tb = base.gen_stage(&g).latency_s;
        let tp = pim.gen_stage(&g).latency_s;
        assert!(tp < tb, "{tp} vs {tb}");
    }

    #[test]
    fn optimizations_stack() {
        let m = gpt3();
        let g = [(48u64, 3072u64)];
        let naive = SystemExecutor::new(System::dgx_attacc_naive(), &m).gen_stage(&g).latency_s;
        let hl = SystemExecutor::new(System::dgx_attacc_hl_pipe(), &m).gen_stage(&g).latency_s;
        let full = SystemExecutor::new(System::dgx_attacc_full(), &m).gen_stage(&g).latency_s;
        assert!(hl < naive, "HL pipe helps: {hl} vs {naive}");
        assert!(full < hl, "FF co-proc helps further: {full} vs {hl}");
        // §7.2: each optimization is worth up to ~1.15× / ~1.10×; with our
        // models the combined gain stays within a plausible 1.05–1.6×.
        let gain = naive / full;
        assert!(gain > 1.05 && gain < 1.6, "gain = {gain}");
    }

    #[test]
    fn attacc_attention_speedup_grows_with_length() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        let pim = SystemExecutor::new(System::dgx_attacc_full(), &m);
        let speedup = |l: u64| {
            base.gen_stage(&[(16, l)]).latency_s / pim.gen_stage(&[(16, l)]).latency_s
        };
        assert!(speedup(4096) > speedup(512));
    }

    #[test]
    fn cpu_offload_is_slower_than_base() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        let cpu = SystemExecutor::new(System::dgx_cpu(), &m);
        let g = [(16u64, 2048u64)];
        assert!(cpu.gen_stage(&g).latency_s > base.gen_stage(&g).latency_s);
    }

    #[test]
    fn two_dgx_beats_base_but_not_attacc_at_long_context() {
        let m = gpt3();
        let g = [(32u64, 3072u64)];
        let base = SystemExecutor::new(System::dgx_base(), &m).gen_stage(&g).latency_s;
        let two = SystemExecutor::new(System::two_dgx(), &m).gen_stage(&g).latency_s;
        let pim = SystemExecutor::new(System::dgx_attacc_full(), &m).gen_stage(&g).latency_s;
        assert!(two < base);
        assert!(pim < two, "pim {pim} vs 2xDGX {two}");
    }

    #[test]
    fn sum_stage_is_compute_heavy() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        let sum = base.sum_stage(8, 2048).latency_s;
        let gen = base.gen_stage(&[(8, 2048)]).latency_s;
        assert!(sum > 10.0 * gen, "sum {sum} vs gen {gen}");
    }

    #[test]
    fn empty_gen_stage_is_free() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        assert_eq!(base.gen_stage(&[]).latency_s, 0.0);
        assert_eq!(base.sum_stage(0, 128).latency_s, 0.0);
    }

    #[test]
    fn uncached_reference_accepts_empty_stages() {
        let m = gpt3();
        for system in [System::dgx_base(), System::dgx_cpu(), System::dgx_attacc_full()] {
            let exec = SystemExecutor::new(system, &m);
            assert_eq!(exec.gen_stage_detail_uncached(&[]), StageBreakdown::default());
            assert_eq!(exec.gen_stage_detail_uncached(&[(0, 128)]), StageBreakdown::default());
            assert_eq!(exec.sum_stage_uncached(0, 128), StageCost::default());
            // Zero-count groups are dropped, not timed.
            assert_eq!(
                exec.gen_stage_detail_uncached(&[(0, 64), (8, 512), (0, 4096)]),
                exec.gen_stage_detail_uncached(&[(8, 512)])
            );
        }
    }

    #[test]
    fn breakdown_components_cover_total_on_serial_systems() {
        let m = gpt3();
        let base = SystemExecutor::new(System::dgx_base(), &m);
        let d = base.gen_stage_detail(&[(16, 2048)]);
        let sum = d.fc_s + d.attn_s + d.other_s + d.comm_s;
        assert!((sum - d.total_s).abs() / d.total_s < 1e-9);
    }

    #[test]
    fn attacc_energy_below_base_energy() {
        let m = gpt3();
        let g = [(32u64, 3072u64)];
        let eb = SystemExecutor::new(System::dgx_base(), &m).gen_stage(&g).energy_j;
        let ep = SystemExecutor::new(System::dgx_attacc_full(), &m).gen_stage(&g).energy_j;
        assert!(ep < eb, "{ep} vs {eb}");
    }
}
