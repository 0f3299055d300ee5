//! Roofline-model helpers (Fig. 3 of the paper).

use crate::{Op, OpClass};

/// A point on the roofline: an operation's intensity and the performance a
/// machine with the given peaks would attain on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Operation class (FC, attention, …).
    pub class: OpClass,
    /// Descriptive label for the series (e.g. `"Gen FC b=64"`).
    pub op_per_byte: f64,
    /// Attainable FLOP/s under the roofline: `min(peak, op_per_byte · bw)`.
    pub attainable_flops: f64,
    /// `true` if the op sits left of the ridge point (memory-bound).
    pub memory_bound: bool,
}

impl RooflinePoint {
    /// Places `op` on the roofline of a machine with `peak_flops` (FLOP/s)
    /// and `mem_bw` (bytes/s).
    ///
    /// Returns `None` for ops that move no data (their position is
    /// undefined).
    ///
    /// # Example
    /// ```
    /// use attacc_model::{AttnShape, DataType, Op, RooflinePoint};
    /// let attn = Op::Attention {
    ///     groups: vec![AttnShape::single(2048, 1)],
    ///     n_head: 96, kv_heads: 96, d_head: 128,
    ///     kv_dtype: DataType::Fp16, act_dtype: DataType::Fp16,
    /// };
    /// let p = RooflinePoint::place(&attn, 2.5e15, 26.8e12).unwrap();
    /// assert!(p.memory_bound); // Gen attention is memory-bound on DGX
    /// ```
    #[must_use]
    pub fn place(op: &Op, peak_flops: f64, mem_bw: f64) -> Option<RooflinePoint> {
        let opb = op.op_per_byte()?;
        let bw_limited = opb * mem_bw;
        let attainable = bw_limited.min(peak_flops);
        Some(RooflinePoint {
            class: op.class(),
            op_per_byte: opb,
            attainable_flops: attainable,
            memory_bound: bw_limited < peak_flops,
        })
    }

    /// The ridge point (FLOPs/byte) of a machine: ops below it are
    /// memory-bound.
    #[must_use]
    pub fn ridge(peak_flops: f64, mem_bw: f64) -> f64 {
        peak_flops / mem_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttnShape, DataType, FcLayer, ModelConfig, Phase, StageWorkload};

    const DGX_FLOPS: f64 = 2.5e15;
    const DGX_BW: f64 = 26.8e12;

    fn attn(batch: u64, l: u64, q_rows: u64) -> Op {
        Op::Attention {
            groups: vec![AttnShape {
                n_requests: batch,
                l,
                q_rows,
            }],
            n_head: 96,
            kv_heads: 96,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        }
    }

    #[test]
    fn ridge_point_of_dgx() {
        let r = RooflinePoint::ridge(DGX_FLOPS, DGX_BW);
        assert!((r - 93.28).abs() < 0.5, "ridge = {r}");
    }

    #[test]
    fn gen_attention_memory_bound_any_batch() {
        for b in [1, 8, 64, 256] {
            let p = RooflinePoint::place(&attn(b, 2048, 1), DGX_FLOPS, DGX_BW).unwrap();
            assert!(p.memory_bound, "batch {b}");
            assert!(p.op_per_byte < 2.0);
        }
    }

    #[test]
    fn batched_fc_crosses_ridge() {
        let mk = |rows| Op::Gemm {
            layer: FcLayer::Ff1,
            rows,
            k: 12288,
            n: 49152,
            weight_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        };
        let p1 = RooflinePoint::place(&mk(1), DGX_FLOPS, DGX_BW).unwrap();
        let p256 = RooflinePoint::place(&mk(256), DGX_FLOPS, DGX_BW).unwrap();
        assert!(p1.memory_bound);
        assert!(!p256.memory_bound, "op/B = {}", p256.op_per_byte);
    }

    #[test]
    fn sum_attention_compute_bound() {
        let p = RooflinePoint::place(&attn(1, 2048, 2048), DGX_FLOPS, DGX_BW).unwrap();
        assert!(!p.memory_bound);
    }

    #[test]
    fn whole_gen_stage_is_memory_bound_at_batch_one() {
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(2048), 1);
        let opb = wl.flops() as f64 / wl.traffic().total() as f64;
        assert!(opb < 3.0, "stage op/B = {opb}");
    }
}
