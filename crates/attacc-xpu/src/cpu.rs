//! The `DGX_CPU` alternative (§7.6): attention offloaded to CPU memory.
//!
//! The host CPUs contribute a large DDR pool (enabling bigger batches) but
//! little bandwidth, so the attention layer — bandwidth-bound — runs far
//! slower than on the GPUs, let alone on AttAcc.

use crate::ComputeDevice;
use attacc_model::{Op, GIB};

/// A dual-socket server CPU subsystem holding the KV caches.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSystem {
    /// Roofline device for attention execution on the CPUs.
    pub device: ComputeDevice,
    /// DDR capacity available for KV caches, bytes.
    pub capacity_bytes: u64,
}

impl CpuSystem {
    /// Dual-socket DDR5 host of a DGX-class box: ~0.8 TB/s, 4 TB DDR.
    #[must_use]
    pub fn dgx_host() -> CpuSystem {
        CpuSystem {
            device: ComputeDevice {
                name: "host CPUs".into(),
                peak_flops_fp16: 50e12,
                mem_bw: 0.8e12,
                compute_eff: 0.8,
                mem_eff: 0.8,
                launch_s: 5e-6,
            },
            capacity_bytes: 4096 * GIB,
        }
    }

    /// Time to execute an attention op on the CPUs.
    #[must_use]
    pub fn attention_time_s(&self, op: &Op) -> f64 {
        debug_assert!(matches!(op, Op::Attention { .. }));
        self.device.op_time_s(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::{AttnShape, DataType};

    fn attn(batch: u64) -> Op {
        Op::Attention {
            groups: vec![AttnShape {
                n_requests: batch,
                l: 2048,
                q_rows: 1,
            }],
            n_head: 96,
            kv_heads: 96,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        }
    }

    #[test]
    fn cpu_attention_is_much_slower_than_gpu() {
        let cpu = CpuSystem::dgx_host();
        let gpu = crate::GpuSystem::dgx_base();
        let op = attn(32);
        let t_cpu = cpu.attention_time_s(&op);
        let t_gpu = gpu.device.op_time_s(&op);
        assert!(t_cpu > 20.0 * t_gpu, "{t_cpu} vs {t_gpu}");
    }

    #[test]
    fn cpu_has_big_capacity() {
        let cpu = CpuSystem::dgx_host();
        assert!(cpu.capacity_bytes > 6 * crate::GpuSystem::dgx_base().capacity_bytes);
    }
}
