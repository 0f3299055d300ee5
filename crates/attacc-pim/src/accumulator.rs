//! Hierarchical accumulators (§5.1).
//!
//! When a level of the hierarchy partitions the *reduction* dimension
//! (row-wise), the partial GEMV results produced below it must be summed;
//! AttAcc places accumulators per bank group on the DRAM die and per
//! pseudo-channel on the buffer die. When a level partitions the *output*
//! dimension (column-wise), the accumulator is bypassed and results are
//! concatenated.

use crate::gemv_unit::Precision;
use crate::numeric::f16_round;

/// A functional reduction/concatenation node of the accumulator tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accumulator {
    /// Datapath precision of the adders.
    pub precision: Precision,
}

impl Accumulator {
    /// An FP16 accumulator (the DRAM-die configuration).
    #[must_use]
    pub const fn fp16() -> Accumulator {
        Accumulator {
            precision: Precision::Fp16,
        }
    }

    /// An exact accumulator for equivalence testing.
    #[must_use]
    pub const fn exact() -> Accumulator {
        Accumulator {
            precision: Precision::Exact,
        }
    }

    fn rnd(&self, x: f32) -> f32 {
        match self.precision {
            Precision::Exact => x,
            Precision::Fp16 => f16_round(x),
        }
    }

    /// Element-wise sum of equally sized partial vectors (row-wise level).
    ///
    /// # Panics
    /// Panics if the parts have different lengths.
    #[must_use]
    pub fn reduce(&self, parts: &[Vec<f32>]) -> Vec<f32> {
        let Some(first) = parts.first() else {
            return Vec::new();
        };
        let n = first.len();
        let mut out = vec![0.0f32; n];
        for p in parts {
            assert_eq!(p.len(), n, "partial results must have equal length");
            for (o, v) in out.iter_mut().zip(p) {
                *o = self.rnd(*o + *v);
            }
        }
        out
    }

    /// Concatenation of output slices (column-wise level; the accumulator
    /// is bypassed).
    #[must_use]
    pub fn concat(parts: &[Vec<f32>]) -> Vec<f32> {
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts {
            out.extend_from_slice(p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_sums_elementwise() {
        let acc = Accumulator::exact();
        let out = acc.reduce(&[vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]]);
        assert_eq!(out, vec![111.0, 222.0]);
    }

    #[test]
    fn reduce_empty_is_empty() {
        assert!(Accumulator::exact().reduce(&[]).is_empty());
    }

    #[test]
    fn concat_preserves_order() {
        let out = Accumulator::concat(&[vec![1.0], vec![2.0, 3.0], vec![]]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fp16_reduce_rounds() {
        let acc = Accumulator::fp16();
        // 2049 is not representable in binary16 (next above 2048 is 2050).
        let out = acc.reduce(&[vec![2048.0], vec![1.0]]);
        assert_eq!(out, vec![2048.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn reduce_rejects_ragged_input() {
        let _ = Accumulator::exact().reduce(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
