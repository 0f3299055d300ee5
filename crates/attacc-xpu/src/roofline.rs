//! A roofline compute device executing model operations.

use attacc_model::{DataType, Op};

/// A roofline machine: peak compute, peak memory bandwidth, achievable
/// efficiencies, and a per-kernel launch overhead.
///
/// Execution time of an op is
/// `max(flops / (peak·eff_c), bytes / (bw·eff_m)) + launch`.
/// INT8 ops run at twice the FP16 peak (tensor-core style).
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeDevice {
    /// Device name for reports.
    pub name: String,
    /// Peak FP16 FLOP/s.
    pub peak_flops_fp16: f64,
    /// Peak memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of peak compute achievable on large GEMMs.
    pub compute_eff: f64,
    /// Fraction of peak bandwidth achievable on streaming reads.
    pub mem_eff: f64,
    /// Fixed per-op overhead in seconds (kernel launch, sync).
    pub launch_s: f64,
}

impl ComputeDevice {
    /// Effective peak ops/s for a data type.
    #[must_use]
    pub fn peak_for(&self, dtype: DataType) -> f64 {
        let scale = match dtype {
            DataType::Int8 => 2.0,
            DataType::Fp32 => 0.5,
            DataType::Fp16 | DataType::Bf16 => 1.0,
        };
        self.peak_flops_fp16 * scale
    }

    /// Dominant numeric type of an op (weights for GEMMs, KV for
    /// attention).
    fn op_dtype(op: &Op) -> DataType {
        match op {
            Op::Gemm { weight_dtype, .. } => *weight_dtype,
            Op::Attention { kv_dtype, .. } => *kv_dtype,
            Op::LayerNorm { dtype, .. }
            | Op::Activation { dtype, .. }
            | Op::Residual { dtype, .. } => *dtype,
            Op::KvAppend { kv_dtype, .. } => *kv_dtype,
            Op::Transfer { .. } => DataType::Fp16,
        }
    }

    /// Compute-side time of `op` (seconds, no launch overhead).
    #[must_use]
    pub fn compute_time_s(&self, op: &Op) -> f64 {
        let peak = self.peak_for(Self::op_dtype(op)) * self.compute_eff;
        op.flops() as f64 / peak
    }

    /// Memory-side time of `op` (seconds, no launch overhead).
    #[must_use]
    pub fn memory_time_s(&self, op: &Op) -> f64 {
        op.traffic().total() as f64 / (self.mem_bw * self.mem_eff)
    }

    /// Roofline execution time of `op` (seconds).
    #[must_use]
    pub fn op_time_s(&self, op: &Op) -> f64 {
        if op.flops() == 0 && op.traffic().total() == 0 {
            return 0.0;
        }
        self.compute_time_s(op).max(self.memory_time_s(op)) + self.launch_s
    }

    /// `true` when the op is memory-bound on this device.
    #[must_use]
    pub fn is_memory_bound(&self, op: &Op) -> bool {
        self.memory_time_s(op) >= self.compute_time_s(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::{AttnShape, FcLayer};

    fn dev() -> ComputeDevice {
        ComputeDevice {
            name: "test".into(),
            peak_flops_fp16: 2.5e15,
            mem_bw: 26.8e12,
            compute_eff: 1.0,
            mem_eff: 1.0,
            launch_s: 0.0,
        }
    }

    fn gemm(rows: u64) -> Op {
        Op::Gemm {
            layer: FcLayer::Ff1,
            rows,
            k: 12288,
            n: 49152,
            weight_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        }
    }

    #[test]
    fn batch_one_gemm_is_memory_bound() {
        let d = dev();
        assert!(d.is_memory_bound(&gemm(1)));
        assert!(!d.is_memory_bound(&gemm(1024)));
    }

    #[test]
    fn gen_attention_memory_bound_at_any_batch() {
        let d = dev();
        let attn = Op::Attention {
            groups: vec![AttnShape {
                n_requests: 256,
                l: 2048,
                q_rows: 1,
            }],
            n_head: 96,
            kv_heads: 96,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        };
        assert!(d.is_memory_bound(&attn));
    }

    #[test]
    fn int8_doubles_compute_peak() {
        let d = dev();
        assert_eq!(d.peak_for(DataType::Int8), 2.0 * d.peak_for(DataType::Fp16));
        assert_eq!(d.peak_for(DataType::Fp32), 0.5 * d.peak_for(DataType::Fp16));
    }

    #[test]
    fn memory_bound_time_matches_bandwidth() {
        let d = dev();
        let op = gemm(1);
        let expect = op.traffic().total() as f64 / 26.8e12;
        assert!((d.op_time_s(&op) - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn launch_overhead_added_once() {
        let mut d = dev();
        d.launch_s = 1e-6;
        let base = dev().op_time_s(&gemm(1));
        assert!((d.op_time_s(&gemm(1)) - base - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn pure_transfer_ops_cost_memory_time() {
        let d = dev();
        let t = d.op_time_s(&Op::Transfer { bytes: 26_800 });
        assert!(t > 0.0);
    }

    #[test]
    fn efficiencies_slow_things_down() {
        let mut d = dev();
        d.mem_eff = 0.5;
        assert!((d.op_time_s(&gemm(1)) / dev().op_time_s(&gemm(1)) - 2.0).abs() < 1e-9);
    }
}
