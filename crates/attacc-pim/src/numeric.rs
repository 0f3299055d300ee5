//! Numeric helpers: FP16 datapath emulation and reference attention.
//!
//! The GEMV units carry 16-bit floating point (§5.1). To emulate that
//! datapath faithfully without an external half-precision crate,
//! [`f16_round`] rounds an `f32` to the nearest representable IEEE-754
//! binary16 value (round-to-nearest-even), staying in `f32` storage.

/// Rounds `x` to the nearest IEEE-754 binary16 value (ties to even),
/// returning the result widened back to `f32`.
///
/// Overflow saturates to ±∞, underflow flushes through subnormals exactly
/// as binary16 would.
///
/// # Example
/// ```
/// use attacc_pim::numeric::f16_round;
/// // 1/3 is not representable in binary16; nearest value is 0.33325195.
/// assert!((f16_round(1.0 / 3.0) - 0.333_251_95).abs() < 1e-7);
/// assert_eq!(f16_round(65504.0), 65504.0); // f16::MAX round-trips
/// assert!(f16_round(1e30).is_infinite());
/// ```
#[must_use]
pub fn f16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN pass through.
        return x;
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        // Values in (65504, 65520) round down to 65504 (f16::MAX); beyond
        // the rounding midpoint, round-to-nearest overflows to infinity.
        let max_f16 = 65504.0f32;
        let abs = f32::from_bits(bits & 0x7fff_ffff);
        if abs < 65520.0 {
            return if sign != 0 { -max_f16 } else { max_f16 };
        }
        return if sign != 0 {
            f32::NEG_INFINITY
        } else {
            f32::INFINITY
        };
    }
    if e >= -14 {
        // Normal range: keep 10 fraction bits of the 23.
        let shift = 13;
        let lsb = 1u32 << shift;
        let half = lsb >> 1;
        let rounded = {
            let tail = frac & (lsb - 1);
            let keep = frac >> shift;
            
            if tail > half || (tail == half && keep & 1 == 1) {
                keep + 1
            } else {
                keep
            }
        };
        // Handle fraction carry into the exponent.
        let (keep, e) = if rounded == 1 << 10 { (0, e + 1) } else { (rounded, e) };
        if e > 15 {
            return if sign != 0 {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            };
        }
        let out = sign | (((e + 127) as u32) << 23) | (keep << 13);
        return f32::from_bits(out);
    }
    // Subnormal range of binary16: magnitude below 2^-14.
    let abs = f32::from_bits(bits & 0x7fff_ffff);
    let scale = 2.0f32.powi(-14);
    let sub = (abs / scale * 1024.0).round_ties_even();
    if sub == 0.0 {
        return if sign != 0 { -0.0 } else { 0.0 };
    }
    let val = sub / 1024.0 * scale;
    if sign != 0 {
        -val
    } else {
        val
    }
}

/// A dense row-major `f32` matrix used by the functional dataflow.
///
/// The GEMV convention throughout this crate is `y[n] = Σ_k x[k]·M[k][n]`,
/// i.e. the matrix is `k × n` with `k` the reduction dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows (the reduction dimension `k`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the output dimension `n`).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row-major data slice.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Splits into `parts` row-contiguous chunks (sizes differ by ≤ 1).
    /// Splitting the reduction dimension requires downstream accumulation.
    #[must_use]
    pub fn split_rows(&self, parts: usize) -> Vec<Matrix> {
        assert!(parts > 0, "parts must be positive");
        let base = self.rows / parts;
        let extra = self.rows % parts;
        let mut out = Vec::with_capacity(parts);
        let mut r0 = 0;
        for p in 0..parts {
            let n = base + usize::from(p < extra);
            let data = self.data[r0 * self.cols..(r0 + n) * self.cols].to_vec();
            out.push(Matrix::from_vec(n, self.cols, data));
            r0 += n;
        }
        out
    }

    /// Splits into `parts` column-contiguous chunks (sizes differ by ≤ 1).
    /// Splitting the output dimension needs only concatenation downstream.
    #[must_use]
    pub fn split_cols(&self, parts: usize) -> Vec<Matrix> {
        assert!(parts > 0, "parts must be positive");
        let base = self.cols / parts;
        let extra = self.cols % parts;
        let mut out = Vec::with_capacity(parts);
        let mut c0 = 0;
        for p in 0..parts {
            let n = base + usize::from(p < extra);
            let mut data = Vec::with_capacity(self.rows * n);
            for r in 0..self.rows {
                data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + n]);
            }
            out.push(Matrix::from_vec(self.rows, n, data));
            c0 += n;
        }
        out
    }
}

/// Numerically stable softmax over `scores`, in place, in `f64` (the
/// reference for the softmax unit).
pub fn softmax_ref(scores: &mut [f64]) {
    if scores.is_empty() {
        return;
    }
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// Reference single-head attention: `out = softmax(q · Kᵀ / √d) · V`.
///
/// * `q`: `d_head` query values.
/// * `kt`: key matrix transposed, row-major `d_head × l`.
/// * `v`: value matrix, row-major `l × d_head`.
///
/// Returns the `d_head`-element context vector, computed in `f64`.
///
/// # Panics
/// Panics if the dimensions are inconsistent.
#[must_use]
#[allow(clippy::needless_range_loop)] // dual-operand indexing reads clearest
pub fn attention_ref(q: &[f32], kt: &[f32], v: &[f32], l: usize) -> Vec<f64> {
    let d = q.len();
    assert_eq!(kt.len(), d * l, "Kᵀ must be d_head × l");
    assert_eq!(v.len(), l * d, "V must be l × d_head");
    let scale = 1.0 / (d as f64).sqrt();
    let mut scores = vec![0.0f64; l];
    for (j, s) in scores.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for r in 0..d {
            acc += f64::from(q[r]) * f64::from(kt[r * l + j]);
        }
        *s = acc * scale;
    }
    softmax_ref(&mut scores);
    let mut out = vec![0.0f64; d];
    for (j, &w) in scores.iter().enumerate() {
        for c in 0..d {
            out[c] += w * f64::from(v[j * d + c]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_split_rows_partitions() {
        let m = Matrix::from_vec(5, 2, (0..10).map(|i| i as f32).collect());
        let parts = m.split_rows(3);
        assert_eq!(parts.iter().map(Matrix::rows).collect::<Vec<_>>(), vec![2, 2, 1]);
        assert_eq!(parts[0].get(0, 0), 0.0);
        assert_eq!(parts[2].get(0, 1), 9.0);
        let total: usize = parts.iter().map(|p| p.data().len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn matrix_split_cols_partitions() {
        let m = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32).collect());
        let parts = m.split_cols(2);
        assert_eq!(parts[0].cols(), 3);
        assert_eq!(parts[1].cols(), 2);
        assert_eq!(parts[1].get(1, 1), 9.0);
        assert_eq!(parts[0].get(1, 0), 5.0);
    }

    #[test]
    fn matrix_split_more_parts_than_dim_yields_empties() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let parts = m.split_rows(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[2].rows(), 0);
        assert_eq!(parts[3].rows(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn matrix_checks_data_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn f16_round_exact_values_unchanged() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, 65504.0, -0.25] {
            assert_eq!(f16_round(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_round_is_idempotent() {
        for i in 0..1000 {
            let v = (i as f32 - 500.0) * 0.01713;
            let once = f16_round(v);
            assert_eq!(f16_round(once), once, "v = {v}");
        }
    }

    #[test]
    fn f16_round_error_within_ulp() {
        // Relative error of binary16 normals ≤ 2^-11.
        for i in 1..2000 {
            let v = i as f32 * 0.3941;
            let r = f16_round(v);
            assert!(((r - v) / v).abs() <= 1.0 / 2048.0, "v = {v}, r = {r}");
        }
    }

    #[test]
    fn f16_round_handles_overflow_and_subnormals() {
        assert!(f16_round(70000.0).is_infinite());
        assert_eq!(f16_round(-70000.0), f32::NEG_INFINITY);
        assert_eq!(f16_round(65505.0), 65504.0);
        // Smallest binary16 subnormal is 2^-24 ≈ 5.96e-8.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16_round(tiny), tiny);
        assert_eq!(f16_round(tiny / 3.0), 0.0);
        assert!(f16_round(f32::NAN).is_nan());
    }

    #[test]
    fn softmax_ref_sums_to_one() {
        let mut s = vec![1.0, 2.0, 3.0, -5.0];
        softmax_ref(&mut s);
        let sum: f64 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|&x| x > 0.0));
        // Larger score → larger weight.
        assert!(s[2] > s[1] && s[1] > s[0] && s[0] > s[3]);
    }

    #[test]
    fn softmax_ref_is_shift_invariant() {
        let mut a = vec![10.0, 11.0, 12.0];
        let mut b = vec![1010.0, 1011.0, 1012.0];
        softmax_ref(&mut a);
        softmax_ref(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn attention_ref_uniform_values_average() {
        // If all scores are equal, output is the mean of V's rows.
        let d = 4;
        let l = 8;
        let q = vec![0.0f32; d];
        let kt = vec![1.0f32; d * l];
        let v: Vec<f32> = (0..l * d).map(|i| (i / d) as f32).collect();
        let out = attention_ref(&q, &kt, &v, l);
        let mean = (0..l).map(|r| r as f64).sum::<f64>() / l as f64;
        for (c, val) in out.iter().enumerate() {
            assert!((val - mean).abs() < 1e-9, "out[{c}] = {val}");
        }
    }

    #[test]
    #[should_panic(expected = "d_head")]
    fn attention_ref_checks_dims() {
        let _ = attention_ref(&[0.0; 4], &[0.0; 7], &[0.0; 32], 8);
    }
}
