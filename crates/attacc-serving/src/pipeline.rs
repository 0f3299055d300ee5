//! The §6 optimizations: head-level pipelining and feedforward
//! co-processing, as pure timing combinators.
//!
//! `attacc-sim` computes per-phase times for a decoder (QKV generation and
//! projection on the xPU, attention on AttAcc, feedforward on the xPU or
//! co-processed) and composes them here.

/// Per-phase times of one decoder on a heterogeneous platform (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecoderPhases {
    /// QKV-generation FC on the xPU.
    pub qkv_s: f64,
    /// Attention on AttAcc (already attention-level pipelined).
    pub attn_s: f64,
    /// Projection FC on the xPU.
    pub proj_s: f64,
    /// Feedforward block (FF1 + activation + FF2) on the xPU.
    pub ff_s: f64,
    /// Layernorms, residuals, KV transfers — not overlappable.
    pub other_s: f64,
    /// Tensor-parallel collectives.
    pub comm_s: f64,
}

/// Un-pipelined decoder time: every phase serializes (Fig. 11, "naïve").
#[must_use]
pub fn serial_s(p: &DecoderPhases) -> f64 {
    p.qkv_s + p.attn_s + p.proj_s + p.ff_s + p.other_s + p.comm_s
}

/// Head-level pipelining (§6.1): the xPU tiles QKV generation per head
/// group, AttAcc schedules attention per head, and the projection consumes
/// head outputs as they land — so the multi-head block takes
/// `max(xPU work, attention work)` plus a one-tile ramp.
///
/// `chunks` is the number of head-granularity tiles flowing through the
/// pipeline (≥ 1; the paper's example streams per attention head).
///
/// # Panics
/// Panics if `chunks` is zero.
#[must_use]
pub fn head_level_pipelined_s(p: &DecoderPhases, chunks: u64) -> f64 {
    assert!(chunks > 0, "pipelining needs at least one tile");
    let xpu = p.qkv_s + p.proj_s;
    let block = xpu.max(p.attn_s) + xpu.min(p.attn_s) / chunks as f64;
    block + p.ff_s + p.other_s + p.comm_s
}

/// Feedforward co-processing (§6.2): the bandwidth-bound FF GEMMs split
/// column-/row-wise between the xPU and the otherwise-idle AttAccs, which
/// contribute their external bandwidth. Returns the factor (< 1) that
/// multiplies the xPU-only FF time.
///
/// The static weight partition assumes both sides stay bandwidth-bound
/// (true unless the batch is enormous, §6.2); weights are duplicated to
/// allow re-balancing across batch sizes, which costs capacity, not time.
///
/// # Panics
/// Panics if either bandwidth is non-positive.
#[must_use]
pub fn ff_coprocess_speedup(xpu_bw: f64, attacc_external_bw: f64) -> f64 {
    assert!(xpu_bw > 0.0, "xPU bandwidth must be positive");
    assert!(attacc_external_bw >= 0.0, "AttAcc bandwidth must be non-negative");
    xpu_bw / (xpu_bw + attacc_external_bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> DecoderPhases {
        DecoderPhases {
            qkv_s: 3.0,
            attn_s: 8.0,
            proj_s: 1.0,
            ff_s: 8.0,
            other_s: 0.5,
            comm_s: 0.5,
        }
    }

    #[test]
    fn serial_is_plain_sum() {
        assert_eq!(serial_s(&phases()), 21.0);
    }

    #[test]
    fn pipelining_approaches_max_of_streams() {
        let p = phases();
        let t = head_level_pipelined_s(&p, 96);
        // Block ≈ max(4, 8) + 4/96 ≈ 8.04; total ≈ 17.04.
        assert!((t - 17.0417).abs() < 1e-3, "t = {t}");
        assert!(t < serial_s(&p));
    }

    #[test]
    fn single_chunk_pipelining_equals_serial_block() {
        let p = phases();
        let t = head_level_pipelined_s(&p, 1);
        assert!((t - serial_s(&p)).abs() < 1e-12);
    }

    #[test]
    fn pipelining_monotone_in_chunks() {
        let p = phases();
        let mut prev = f64::INFINITY;
        for c in [1, 2, 8, 32, 128] {
            let t = head_level_pipelined_s(&p, c);
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn ff_speedup_matches_bandwidth_shares() {
        // DGX 26.6 TB/s + AttAcc external 26.6 TB/s → FF halves.
        let f = ff_coprocess_speedup(26.6e12, 26.6e12);
        assert!((f - 0.5).abs() < 1e-12);
        assert_eq!(ff_coprocess_speedup(1.0, 0.0), 1.0);
    }

    #[test]
    fn combined_optimizations_compose() {
        let mut p = phases();
        p.ff_s *= ff_coprocess_speedup(1.0, 1.0);
        let t = head_level_pipelined_s(&p, 96);
        assert!(t < serial_s(&phases()) - 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_chunks_rejected() {
        let _ = head_level_pipelined_s(&phases(), 0);
    }
}
