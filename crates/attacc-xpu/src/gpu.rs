//! DGX-class GPU systems (`DGX_Base`, `DGX_Large`, `2×DGX`).

use crate::{ComputeDevice, Interconnect, XpuEnergyModel};
use attacc_model::{Op, OpClass, StageWorkload, GIB};

/// A (possibly multi-node) GPU system executing full model stages.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSystem {
    /// The aggregate roofline device (all GPUs of all nodes).
    pub device: ComputeDevice,
    /// GPUs per node.
    pub n_gpus: u32,
    /// Number of DGX nodes.
    pub n_nodes: u32,
    /// Total HBM capacity in bytes.
    pub capacity_bytes: u64,
    /// Intra-node fabric for tensor-parallel collectives.
    pub intra_node: Interconnect,
    /// Inter-node fabric (used when `n_nodes > 1`).
    pub inter_node: Interconnect,
    /// Energy constants.
    pub energy: XpuEnergyModel,
}

/// Execution time of one stage, broken down by op class (Fig. 4(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTime {
    /// Batched FC layers.
    pub fc_s: f64,
    /// The attention layer.
    pub attn_s: f64,
    /// Normalization, activation, residual, KV append.
    pub other_s: f64,
    /// Tensor-parallel collectives (and inter-node traffic).
    pub comm_s: f64,
    /// End-to-end stage time.
    pub total_s: f64,
    /// FLOPs executed.
    pub flops: f64,
    /// Off-chip bytes moved.
    pub dram_bytes: f64,
    /// Energy consumed (joules).
    pub energy_j: f64,
    /// Compute utilization: flops / (total · peak).
    pub utilization: f64,
}

impl GpuSystem {
    /// The paper's baseline: one DGX A100 with HBM3 — 2.5 PFLOPS FP16,
    /// 26.6 TB/s (40 stacks × 665.6 GB/s), 640 GB.
    #[must_use]
    pub fn dgx_base() -> GpuSystem {
        GpuSystem {
            device: ComputeDevice {
                name: "DGX (HBM3)".into(),
                peak_flops_fp16: 2.5e15,
                mem_bw: 26.6e12,
                compute_eff: 0.85,
                mem_eff: 0.75,
                launch_s: 2e-6,
            },
            n_gpus: 8,
            n_nodes: 1,
            capacity_bytes: 640 * GIB,
            intra_node: Interconnect::nvlink(),
            inter_node: Interconnect::inter_node(),
            energy: XpuEnergyModel::dgx(),
        }
    }

    /// `DGX_Large`: the baseline with doubled capacity (taller stacks),
    /// same bandwidth and compute.
    #[must_use]
    pub fn dgx_large() -> GpuSystem {
        let mut s = GpuSystem::dgx_base();
        s.capacity_bytes = 1_280 * GIB;
        s.device.name = "DGX_Large".into();
        s
    }

    /// A next-generation DGX (H100-class): ~4× the FP16 compute,
    /// ~1.3× the HBM bandwidth of the baseline. Faster FC layers make the
    /// bandwidth-bound attention an even larger share of the Gen stage —
    /// the AttAcc argument strengthens on newer GPUs.
    #[must_use]
    pub fn dgx_next_gen() -> GpuSystem {
        let mut s = GpuSystem::dgx_base();
        s.device.name = "DGX (next-gen)".into();
        s.device.peak_flops_fp16 = 8.0e15;
        s.device.mem_bw = 33.6e12;
        s.capacity_bytes = 640 * GIB;
        s.intra_node.bw_bytes_per_s = 7.2e12;
        s
    }

    /// A TPU-v4-pod-slice-like xPU (§4: "high-performance compute units
    /// (xPUs) such as GPUs or TPUs"): 8 chips ≈ 2.2 PFLOPS BF16,
    /// 9.8 TB/s of HBM, 256 GB, ICI fabric.
    #[must_use]
    pub fn tpu_pod_slice() -> GpuSystem {
        GpuSystem {
            device: ComputeDevice {
                name: "TPU pod slice".into(),
                peak_flops_fp16: 2.2e15,
                mem_bw: 9.8e12,
                compute_eff: 0.85,
                mem_eff: 0.80,
                launch_s: 2e-6,
            },
            n_gpus: 8,
            n_nodes: 1,
            capacity_bytes: 256 * GIB,
            intra_node: Interconnect {
                name: "ICI".into(),
                bw_bytes_per_s: 2.4e12,
                latency_s: 2e-6,
            },
            inter_node: Interconnect::inter_node(),
            energy: XpuEnergyModel::dgx(),
        }
    }

    /// `2×DGX`: two baseline boxes — doubled compute, bandwidth and
    /// capacity, but tensor parallelism now spans the inter-node fabric
    /// (§7.6).
    #[must_use]
    pub fn two_dgx() -> GpuSystem {
        let mut s = GpuSystem::dgx_base();
        s.n_nodes = 2;
        s.device.peak_flops_fp16 *= 2.0;
        s.device.mem_bw *= 2.0;
        s.capacity_bytes *= 2;
        s.device.name = "2xDGX".into();
        s
    }

    /// Capacity remaining for KV caches after `weight_bytes` of weights.
    #[must_use]
    pub fn kv_capacity_bytes(&self, weight_bytes: u64) -> u64 {
        self.capacity_bytes.saturating_sub(weight_bytes)
    }

    /// Tensor-parallel communication time for one decoder: two all-reduces
    /// of the activation matrix (after projection and after FF2), plus the
    /// inter-node share when the system spans nodes.
    #[must_use]
    pub fn decoder_comm_s(&self, rows: u64, d_emb: u64, act_bytes: u64) -> f64 {
        let buf = rows * d_emb * act_bytes;
        let intra = 2.0 * self.intra_node.allreduce_s(buf, self.n_gpus);
        let inter = if self.n_nodes > 1 {
            2.0 * self.inter_node.allreduce_s(buf, self.n_nodes)
        } else {
            0.0
        };
        intra + inter
    }

    /// Executes a full stage and reports the per-class breakdown.
    #[must_use]
    pub fn stage_time(&self, wl: &StageWorkload) -> StageTime {
        let mut fc = 0.0;
        let mut attn = 0.0;
        let mut other = 0.0;
        let mut flops = 0.0;
        let mut bytes = 0.0;
        let mut rows = 0u64;
        let mut d_emb = 0u64;
        let mut act_bytes = 2u64;
        for (op, n) in wl.iter_unique_ops() {
            let t = self.device.op_time_s(op) * n as f64;
            match op.class() {
                OpClass::FullyConnected => fc += t,
                OpClass::Attention => attn += t,
                OpClass::Other | OpClass::Communication => other += t,
            }
            flops += op.flops() as f64 * n as f64;
            bytes += op.traffic().total() as f64 * n as f64;
            if let Op::LayerNorm { rows: r, d, dtype } = op {
                rows = *r;
                d_emb = *d;
                act_bytes = dtype.bytes();
            }
        }
        let comm = self.decoder_comm_s(rows, d_emb, act_bytes) * f64::from(wl.n_decoder);
        let total = fc + attn + other + comm;
        let energy_j = self.energy.execution_j(flops, bytes, total)
            + self
                .energy
                .link_j(2.0 * (rows * d_emb * act_bytes) as f64 * f64::from(wl.n_decoder));
        StageTime {
            fc_s: fc,
            attn_s: attn,
            other_s: other,
            comm_s: comm,
            total_s: total,
            flops,
            dram_bytes: bytes,
            energy_j,
            utilization: if total > 0.0 {
                flops / (total * self.device.peak_flops_fp16)
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::{ModelConfig, Phase};

    #[test]
    fn batch1_gen_utilization_below_one_percent() {
        // §1: "compute unit utilization below 1%" for batch-1 GPT-3.
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(2048), 1);
        let t = dgx.stage_time(&wl);
        assert!(t.utilization < 0.01, "util = {}", t.utilization);
    }

    #[test]
    fn large_batch_fc_utilization_improves() {
        // §1: with batch 256 (unlimited memory) utilization reaches ~71%
        // for the FC-dominant workload at short contexts; overall compute
        // utilization rises well above 10%.
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(128), 256);
        let t = dgx.stage_time(&wl);
        assert!(t.utilization > 0.3, "util = {}", t.utilization);
    }

    #[test]
    fn batching_barely_changes_fc_time() {
        // §3.1: the FC layer's time stays nearly flat with batch size.
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let t1 = dgx.stage_time(&StageWorkload::uniform(&m, Phase::gen(2048), 1));
        let t64 = dgx.stage_time(&StageWorkload::uniform(&m, Phase::gen(2048), 64));
        assert!(t64.fc_s < 1.6 * t1.fc_s, "{} vs {}", t64.fc_s, t1.fc_s);
        // While attention time scales with the batch.
        assert!(t64.attn_s > 40.0 * t1.attn_s);
    }

    #[test]
    fn attention_majority_at_batch64_long_context() {
        // Fig. 4(c): attention is more than half the Gen-stage time at
        // batch 64 with long contexts.
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let t = dgx.stage_time(&StageWorkload::uniform(&m, Phase::gen(3072), 64));
        assert!(t.attn_s > 0.5 * t.total_s, "attn {} of {}", t.attn_s, t.total_s);
        // And the latency violates a 50 ms SLO (the paper reports ~80 ms).
        assert!(t.total_s > 0.050, "total = {}", t.total_s);
        assert!(t.total_s < 0.120, "total = {}", t.total_s);
    }

    #[test]
    fn two_dgx_doubles_fc_but_pays_comm() {
        let base = GpuSystem::dgx_base();
        let two = GpuSystem::two_dgx();
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(2048), 32);
        let tb = base.stage_time(&wl);
        let tt = two.stage_time(&wl);
        assert!(tt.fc_s < 0.6 * tb.fc_s);
        assert!(tt.comm_s > tb.comm_s);
    }

    #[test]
    fn kv_capacity_subtracts_weights() {
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let free = dgx.kv_capacity_bytes(m.weight_bytes());
        assert!(free < dgx.capacity_bytes);
        assert!(free > 300 * GIB);
    }

    #[test]
    fn newer_gpus_stay_bandwidth_walled() {
        // 4× the compute buys at most the 1.26× bandwidth improvement on a
        // Gen stage: the attention-vs-FC balance is unchanged (both are
        // bandwidth-bound), so the PIM case carries over to newer GPUs.
        let old = GpuSystem::dgx_base();
        let new = GpuSystem::dgx_next_gen();
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(3072), 64);
        let t_old = old.stage_time(&wl);
        let t_new = new.stage_time(&wl);
        let speedup = t_old.total_s / t_new.total_s;
        assert!(speedup > 1.1 && speedup < 1.35, "speedup = {speedup}");
        let balance = |t: StageTime| t.attn_s / (t.attn_s + t.fc_s);
        assert!((balance(t_new) - balance(t_old)).abs() < 0.01);
    }

    #[test]
    fn tpu_slice_is_bandwidth_starved_for_attention() {
        // A TPU-class xPU has ~2.7× less memory bandwidth than the HBM3
        // DGX, so the memory-bound Gen stage runs correspondingly slower —
        // the same motivation for AttAcc applies to any xPU.
        let dgx = GpuSystem::dgx_base();
        let tpu = GpuSystem::tpu_pod_slice();
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(2048), 16);
        let ratio = tpu.stage_time(&wl).total_s / dgx.stage_time(&wl).total_s;
        assert!(ratio > 2.0 && ratio < 3.5, "ratio = {ratio}");
    }

    #[test]
    fn energy_includes_static_floor() {
        let dgx = GpuSystem::dgx_base();
        let m = ModelConfig::gpt3_175b();
        let t = dgx.stage_time(&StageWorkload::uniform(&m, Phase::gen(64), 1));
        assert!(t.energy_j > t.total_s * 999.0);
    }
}
