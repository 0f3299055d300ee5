//! The buffer-die softmax unit (§5.1).
//!
//! 256 FP32 exponent units, adders and multipliers, a comparator tree, an
//! adder tree and one divider, organized as a three-stage pipeline:
//! maximum-value calculation, exponent calculation, normalization. A
//! 512 KB SRAM buffer holds the score vector between the GEMV phases.

/// Functional and timing model of one softmax unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxUnit {
    /// Parallel FP32 lanes (256 in AttAcc).
    pub lanes: u64,
    /// Clock frequency in GHz (1.3 in AttAcc, §7.1).
    pub clock_ghz: f64,
    /// SRAM buffer capacity in bytes (512 KB).
    pub buffer_bytes: u64,
    /// Energy per element per pipeline stage in picojoules (FP32 op plus
    /// SRAM access at 7 nm).
    pub pj_per_elem_stage: f64,
}

impl Default for SoftmaxUnit {
    fn default() -> Self {
        SoftmaxUnit::new()
    }
}

impl SoftmaxUnit {
    /// The AttAcc configuration.
    #[must_use]
    pub fn new() -> SoftmaxUnit {
        SoftmaxUnit {
            lanes: 256,
            clock_ghz: 1.3,
            buffer_bytes: 512 * 1024,
            pj_per_elem_stage: 2.0,
        }
    }

    /// Runs softmax over `scores` in FP32, mirroring the hardware's three
    /// passes (max, exp with subtraction, normalize).
    #[must_use]
    pub fn compute(&self, scores: &[f32]) -> Vec<f32> {
        if scores.is_empty() {
            return Vec::new();
        }
        // Stage 1: comparator tree finds the maximum.
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Stage 2: exponent units compute exp(s - max); adder tree sums.
        let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        // Stage 3: the divider produces 1/sum; multipliers normalize.
        let inv = 1.0 / sum;
        exps.iter().map(|&e| e * inv).collect()
    }

    /// Processing rate in elements per second (one stage).
    #[must_use]
    pub fn throughput_elems_per_s(&self) -> f64 {
        self.lanes as f64 * self.clock_ghz * 1e9
    }

    /// Latency to run all three stages over an `elems`-long score vector.
    /// The stages are pipelined across heads, so steady-state cost is one
    /// pass; the reported latency covers a single un-overlapped vector.
    #[must_use]
    pub fn latency_s(&self, elems: u64) -> f64 {
        let per_stage = (elems as f64 / self.lanes as f64).ceil() / (self.clock_ghz * 1e9);
        3.0 * per_stage
    }

    /// Steady-state (pipelined) occupancy per score vector: one stage pass.
    #[must_use]
    pub fn pipelined_occupancy_s(&self, elems: u64) -> f64 {
        (elems as f64 / self.lanes as f64).ceil() / (self.clock_ghz * 1e9)
    }

    /// Energy of processing `elems` score elements (all three stages), pJ.
    #[must_use]
    pub fn energy_pj(&self, elems: u64) -> f64 {
        3.0 * self.pj_per_elem_stage * elems as f64
    }

    /// Maximum score-vector length the 512 KB buffer can hold (FP32 in and
    /// out simultaneously → 8 bytes per element).
    #[must_use]
    pub fn max_vector_len(&self) -> u64 {
        self.buffer_bytes / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::softmax_ref;

    #[test]
    fn matches_reference_softmax() {
        let unit = SoftmaxUnit::new();
        let scores: Vec<f32> = (0..300).map(|i| ((i * 37) % 100) as f32 * 0.1 - 5.0).collect();
        let got = unit.compute(&scores);
        let mut want: Vec<f64> = scores.iter().map(|&s| f64::from(s)).collect();
        softmax_ref(&mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < 1e-6);
        }
    }

    #[test]
    fn output_sums_to_one() {
        let unit = SoftmaxUnit::new();
        let out = unit.compute(&[5.0, -3.0, 0.0, 100.0]);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(SoftmaxUnit::new().compute(&[]).is_empty());
    }

    #[test]
    fn large_scores_do_not_overflow() {
        let out = SoftmaxUnit::new().compute(&[3.0e4, 3.0e4]);
        assert!((out[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn latency_scales_with_length() {
        let unit = SoftmaxUnit::new();
        let short = unit.latency_s(256);
        let long = unit.latency_s(2560);
        assert!((long / short - 10.0).abs() < 1e-9);
        assert!(unit.pipelined_occupancy_s(2560) < long);
    }

    #[test]
    fn throughput_matches_lanes_times_clock() {
        let unit = SoftmaxUnit::new();
        assert!((unit.throughput_elems_per_s() - 256.0 * 1.3e9).abs() < 1.0);
    }

    #[test]
    fn buffer_holds_long_contexts() {
        // 512 KB must hold the longest sequences the paper evaluates.
        let unit = SoftmaxUnit::new();
        assert!(unit.max_vector_len() >= 4096);
    }

    #[test]
    fn energy_is_linear() {
        let unit = SoftmaxUnit::new();
        assert!((unit.energy_pj(2000) - 2.0 * unit.energy_pj(1000)).abs() < 1e-9);
    }
}
