//! The per-bank GEMV unit: 16 FP16 multiply lanes with reconfigurable
//! adders (§5.1).
//!
//! Each unit holds 16 FP16 multipliers, 16 FP16 adders, and double-buffered
//! 256-bit input buffers. The adders act as an **adder tree** when the
//! matrix is row-partitioned across the lanes (the reduction dimension is
//! split, so lane partials must be summed) and as per-lane **accumulators**
//! when it is column-partitioned (each lane owns whole output elements).
//! The paper maps `Kᵀ` row-wise and `V` column-wise at this level to keep
//! appended KV vectors load-balanced (§4.2).

use crate::numeric::{f16_round, Matrix};

/// Numeric behaviour of the functional datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Accumulate in `f64` (order-insensitive reference behaviour).
    Exact,
    /// Round every product and sum to binary16, emulating the real unit.
    Fp16,
}

/// How the lanes partition the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemvMode {
    /// Row-wise lane partitioning (reduction split): adders form a tree.
    AdderTree,
    /// Column-wise lane partitioning (output split): adders accumulate.
    Accumulator,
}

/// A functional GEMV unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvUnit {
    /// Number of multiply lanes (16 in AttAcc).
    pub lanes: usize,
    /// Datapath precision.
    pub precision: Precision,
}

impl Default for GemvUnit {
    fn default() -> Self {
        GemvUnit::new()
    }
}

impl GemvUnit {
    /// The AttAcc configuration: 16 lanes, FP16 datapath.
    #[must_use]
    pub const fn new() -> GemvUnit {
        GemvUnit {
            lanes: 16,
            precision: Precision::Fp16,
        }
    }

    /// An exact-arithmetic unit for equivalence testing.
    #[must_use]
    pub const fn exact() -> GemvUnit {
        GemvUnit {
            lanes: 16,
            precision: Precision::Exact,
        }
    }

    fn rnd(&self, x: f64) -> f64 {
        match self.precision {
            Precision::Exact => x,
            Precision::Fp16 => f64::from(f16_round(x as f32)),
        }
    }

    /// Computes `y[n] = Σ_k x[k] · m[k][n]` through the lane datapath in
    /// the given `mode`. Both modes produce the same mathematical result;
    /// in `Fp16` precision the rounding points differ slightly, exactly as
    /// they would in hardware. Columns accumulate in `f64` and are written
    /// back as `f32` once.
    ///
    /// # Panics
    /// Panics if `x.len() != m.rows()`.
    #[must_use]
    pub fn gemv(&self, mode: GemvMode, x: &[f32], m: &Matrix) -> Vec<f32> {
        assert_eq!(x.len(), m.rows(), "input length must equal matrix rows");
        let out = match mode {
            GemvMode::AdderTree => self.gemv_tree(x, m),
            GemvMode::Accumulator => self.gemv_acc(x, m),
        };
        out.into_iter().map(|v| v as f32).collect()
    }

    /// One multiply step: the stored cell times the input register,
    /// rounded to the datapath precision.
    fn product(&self, x: &[f32], m: &Matrix, r: usize, j: usize) -> f64 {
        self.rnd(f64::from(x[r]) * f64::from(m.get(r, j)))
    }

    /// Row-partitioned: each lane owns a contiguous slab of reduction rows;
    /// per output element the lane partials are combined by a binary adder
    /// tree.
    #[allow(clippy::needless_range_loop)] // dual-operand indexing reads clearest
    fn gemv_tree(&self, x: &[f32], m: &Matrix) -> Vec<f64> {
        let k = m.rows();
        let n = m.cols();
        let lanes = self.lanes.min(k.max(1));
        let base = k / lanes;
        let extra = k % lanes;
        let mut out = vec![0.0f64; n];
        for (j, out_j) in out.iter_mut().enumerate() {
            let mut partials = Vec::with_capacity(lanes);
            let mut r0 = 0;
            for lane in 0..lanes {
                let rows = base + usize::from(lane < extra);
                let mut acc = 0.0f64;
                for r in r0..r0 + rows {
                    let prod = self.product(x, m, r, j);
                    acc = self.rnd(acc + prod);
                }
                partials.push(acc);
                r0 += rows;
            }
            // Binary adder tree over lane partials.
            while partials.len() > 1 {
                let mut next = Vec::with_capacity(partials.len().div_ceil(2));
                for pair in partials.chunks(2) {
                    next.push(if pair.len() == 2 {
                        self.rnd(pair[0] + pair[1])
                    } else {
                        pair[0]
                    });
                }
                partials = next;
            }
            *out_j = partials.first().copied().unwrap_or(0.0);
        }
        out
    }

    /// Column-partitioned: each lane owns whole output columns and
    /// accumulates over the full reduction dimension.
    #[allow(clippy::needless_range_loop)] // dual-operand indexing reads clearest
    fn gemv_acc(&self, x: &[f32], m: &Matrix) -> Vec<f64> {
        let k = m.rows();
        let n = m.cols();
        let mut out = vec![0.0f64; n];
        // Lane assignment is round-robin over columns; since lanes are
        // independent accumulators the result only depends on per-column
        // serial order.
        for (j, out_j) in out.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for r in 0..k {
                let prod = self.product(x, m, r, j);
                acc = self.rnd(acc + prod);
            }
            *out_j = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::needless_range_loop)]
    fn reference(x: &[f32], m: &Matrix) -> Vec<f64> {
        let mut y = vec![0.0f64; m.cols()];
        for (j, y_j) in y.iter_mut().enumerate() {
            for r in 0..m.rows() {
                *y_j += f64::from(x[r]) * f64::from(m.get(r, j));
            }
        }
        y
    }

    fn sample(k: usize, n: usize) -> (Vec<f32>, Matrix) {
        let x: Vec<f32> = (0..k).map(|i| ((i * 7 + 3) % 11) as f32 * 0.125 - 0.5).collect();
        let data: Vec<f32> = (0..k * n)
            .map(|i| ((i * 13 + 5) % 17) as f32 * 0.0625 - 0.5)
            .collect();
        (x, Matrix::from_vec(k, n, data))
    }

    #[test]
    fn exact_modes_match_reference() {
        let (x, m) = sample(37, 9);
        let unit = GemvUnit::exact();
        let r = reference(&x, &m);
        for mode in [GemvMode::AdderTree, GemvMode::Accumulator] {
            let y = unit.gemv(mode, &x, &m);
            for (a, b) in y.iter().zip(&r) {
                assert!((f64::from(*a) - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fp16_modes_agree_within_tolerance() {
        let (x, m) = sample(64, 16);
        let unit = GemvUnit::new();
        let r = reference(&x, &m);
        let scale = r.iter().map(|v| v.abs()).fold(0.0, f64::max).max(1.0);
        for mode in [GemvMode::AdderTree, GemvMode::Accumulator] {
            let y = unit.gemv(mode, &x, &m);
            for (a, b) in y.iter().zip(&r) {
                // Relative error a few f16 ulps over a 64-term reduction.
                assert!(
                    (f64::from(*a) - b).abs() / scale < 0.02,
                    "mode {mode:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn single_row_matrix_works() {
        let m = Matrix::from_vec(1, 3, vec![2.0, 4.0, 8.0]);
        let y = GemvUnit::exact().gemv(GemvMode::AdderTree, &[0.5], &m);
        assert_eq!(y, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn empty_output_dimension() {
        let m = Matrix::zeros(4, 0);
        let y = GemvUnit::exact().gemv(GemvMode::Accumulator, &[0.0; 4], &m);
        assert!(y.is_empty());
    }

    #[test]
    fn more_lanes_than_rows_is_fine() {
        let (x, m) = sample(3, 5);
        let y = GemvUnit::exact().gemv(GemvMode::AdderTree, &x, &m);
        let r = reference(&x, &m);
        for (a, b) in y.iter().zip(&r) {
            assert!((f64::from(*a) - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn dimension_mismatch_panics() {
        let m = Matrix::zeros(4, 2);
        let _ = GemvUnit::new().gemv(GemvMode::AdderTree, &[0.0; 3], &m);
    }
}
