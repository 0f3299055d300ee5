//! GEMM tiling under finite on-chip SRAM.
//!
//! §6.1 rests on a premise: "xPUs typically exploit tiling for the FC
//! layer due to limited on-chip cache capacity … only a limited number of
//! attention head inputs will be generated in xPUs at a time". This module
//! makes that premise quantitative: given SRAM capacity, it plans an
//! output-stationary tiling of `C[m×n] = A[m×k]·B[k×n]`, reports how many
//! times each operand crosses DRAM, and how many output chunks emerge —
//! the head-granularity stream the pipelining model consumes.

use attacc_model::DataType;

/// An output-stationary tiling plan of one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingPlan {
    /// Batch rows per tile.
    pub tile_m: u64,
    /// Output columns per tile.
    pub tile_n: u64,
    /// Reduction depth per pass (full `k`: weights stream through).
    pub tile_k: u64,
    /// Times the weight matrix is read from DRAM (`ceil(m / tile_m)`).
    pub weight_passes: u64,
    /// Times the activation matrix is read (`ceil(n / tile_n)`).
    pub activation_passes: u64,
    /// Output tiles produced over the GEMM's lifetime.
    pub output_chunks: u64,
}

impl TilingPlan {
    /// Plans `C[m×n] = A[m×k] · B[k×n]` with `sram_bytes` of on-chip
    /// storage for one `A` panel, one `B` panel and one `C` tile.
    ///
    /// Strategy: keep the whole batch panel resident when it fits
    /// (`tile_m = m`, one weight pass — the inference regime); otherwise
    /// split `m`. `tile_n` takes the rest of the SRAM.
    ///
    /// # Panics
    /// Panics if any dimension is zero or the SRAM cannot hold even a
    /// minimal 1×1 tile pipeline.
    #[must_use]
    pub fn plan(m: u64, k: u64, n: u64, dtype: DataType, sram_bytes: u64) -> TilingPlan {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be positive");
        let e = dtype.bytes();
        // Reserve half the SRAM for the streamed B panel and C tile.
        let a_budget = sram_bytes / 2;
        let tile_m = (a_budget / (k * e)).clamp(1, m);
        // Remaining budget: B panel (k × tile_n) + C tile (tile_m × tile_n).
        let rest = sram_bytes - (tile_m * k * e).min(sram_bytes / 2);
        let denom = (k + tile_m) * e;
        let tile_n = (rest / denom).clamp(1, n);
        assert!(
            tile_m >= 1 && tile_n >= 1,
            "SRAM too small for any tile: {sram_bytes} bytes"
        );
        let weight_passes = m.div_ceil(tile_m);
        let activation_passes = n.div_ceil(tile_n);
        TilingPlan {
            tile_m,
            tile_n,
            tile_k: k,
            weight_passes,
            activation_passes,
            output_chunks: weight_passes * activation_passes,
        }
    }

    /// DRAM traffic of the tiled GEMM in bytes: each operand crosses once
    /// per pass of the other dimension; the output is written once.
    #[must_use]
    pub fn dram_traffic_bytes(&self, m: u64, k: u64, n: u64, dtype: DataType) -> u64 {
        let e = dtype.bytes();
        let weights = k * n * e * self.weight_passes;
        let acts = m * k * e * self.activation_passes;
        let out = m * n * e;
        weights + acts + out
    }

    /// The un-tiled lower bound: every operand crosses DRAM exactly once.
    #[must_use]
    pub fn traffic_lower_bound(m: u64, k: u64, n: u64, dtype: DataType) -> u64 {
        (m * k + k * n + m * n) * dtype.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A100-class on-chip storage (L2 + SMEM) per GPU.
    const SRAM: u64 = 48 << 20;

    #[test]
    fn inference_batches_read_weights_once() {
        // Gen-stage QKV GEMM of GPT-3 at batch 256: the whole batch panel
        // fits, so weights stream exactly once — the roofline accounting
        // the whole paper (and our Op model) relies on.
        let p = TilingPlan::plan(256, 12288, 3 * 12288, DataType::Fp16, SRAM);
        assert_eq!(p.tile_m, 256);
        assert_eq!(p.weight_passes, 1);
        let t = p.dram_traffic_bytes(256, 12288, 3 * 12288, DataType::Fp16);
        let lb = TilingPlan::traffic_lower_bound(256, 12288, 3 * 12288, DataType::Fp16);
        // Activations are tiny next to weights; re-reads cost little.
        assert!(t < 2 * lb, "traffic {t} vs bound {lb}");
    }

    #[test]
    fn outputs_emerge_in_many_chunks() {
        // §6.1's premise: the QKV outputs appear tile-by-tile, so heads
        // can stream into AttAcc long before the GEMM finishes.
        let p = TilingPlan::plan(128, 12288, 3 * 12288, DataType::Fp16, SRAM);
        assert!(p.output_chunks >= 8, "chunks = {}", p.output_chunks);
    }

    #[test]
    fn prefill_scale_batches_need_multiple_weight_passes() {
        // A Sum stage with 64 × 2048 token rows exceeds the panel budget.
        let p = TilingPlan::plan(64 * 2048, 12288, 49152, DataType::Fp16, SRAM);
        assert!(p.weight_passes > 1, "passes = {}", p.weight_passes);
    }

    #[test]
    fn traffic_never_beats_lower_bound() {
        for (m, k, n) in [(1u64, 64, 64), (256, 12288, 12288), (4096, 512, 2048)] {
            let p = TilingPlan::plan(m, k, n, DataType::Fp16, SRAM);
            let t = p.dram_traffic_bytes(m, k, n, DataType::Fp16);
            assert!(t >= TilingPlan::traffic_lower_bound(m, k, n, DataType::Fp16));
        }
    }

    #[test]
    fn tiny_sram_still_produces_a_plan() {
        let p = TilingPlan::plan(64, 1024, 1024, DataType::Fp16, 1 << 16);
        assert!(p.tile_m >= 1 && p.tile_n >= 1);
        assert!(p.weight_passes >= 2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_rejected() {
        let _ = TilingPlan::plan(0, 1, 1, DataType::Fp16, SRAM);
    }
}
