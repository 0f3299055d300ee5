//! Engine-backed timing execution: lowering head jobs to DRAM streams.
//!
//! [`crate::attention::stack_attention_timing`] uses a closed-form stream
//! model to stay cheap inside figure sweeps. This module provides the
//! ground truth it approximates: each head's `GEMV_score` and
//! `GEMV_context` become per-pseudo-channel [`StreamSpec`]s according to
//! the §4.2 mapping, executed on the event-driven command engine of
//! `attacc-hbm`. Tests (and the `timing_fidelity` integration suite) pin
//! the two within a few percent.

use crate::attention::{HeadJob, HEAD_OVERHEAD_S};
use crate::{GemvPlacement, SoftmaxUnit};
use attacc_hbm::engine::simulate_stream;
use attacc_hbm::{HbmConfig, StreamSpec};

/// Engine-level timing of one head on one stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadTrace {
    /// GEMV_score stream time (s).
    pub score_s: f64,
    /// Softmax occupancy (s).
    pub softmax_s: f64,
    /// GEMV_context stream time (s).
    pub context_s: f64,
    /// Column (MAC) commands issued across the stack.
    pub mac_commands: u64,
    /// Row activations issued across the stack.
    pub activates: u64,
    /// Stream energy (J).
    pub energy_j: f64,
}

impl HeadTrace {
    /// Serial head time: score + softmax + context plus the fixed per-head
    /// overhead.
    #[must_use]
    pub fn serial_s(&self) -> f64 {
        self.score_s + self.softmax_s + self.context_s + HEAD_OVERHEAD_S
    }
}

/// Builds the per-pCH stream of one GEMV half (`Kᵀ` or `V`) of a head:
/// the matrix bytes are spread evenly over the channel's banks per the
/// §4.2 mapping (every level splits either L or d_head, both ample for a
/// full stack), then executed with the placement's power-token limit.
#[must_use]
pub fn gemv_stream_spec(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    matrix_bytes_on_stack: u64,
) -> StreamSpec {
    // Round up: a tile that does not divide evenly still streams its
    // remainder bytes (the last pCH's beats), so truncating here would
    // undercharge small or odd-shaped heads.
    let per_pch = matrix_bytes_on_stack.div_ceil(u64::from(hbm.geometry.pseudo_channels));
    StreamSpec {
        bytes_per_bank: StreamSpec::uniform(&hbm.geometry, per_pch, 1).bytes_per_bank,
        max_active: placement.max_active_per_pch(hbm),
        depth: placement.depth(),
    }
}

/// Executes one head's attention at command level on one stack.
///
/// All pseudo-channels run the same stream in lockstep (the head's tile is
/// spread evenly), so one channel's engine time is the stack time.
#[must_use]
pub fn execute_head(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    softmax: &SoftmaxUnit,
    job: HeadJob,
) -> HeadTrace {
    let pchs = f64::from(hbm.geometry.pseudo_channels);
    let spec = gemv_stream_spec(hbm, placement, job.k_bytes());
    let score = simulate_stream(hbm, &spec);
    let context = simulate_stream(hbm, &spec);
    HeadTrace {
        score_s: score.elapsed_ps as f64 * 1e-12,
        softmax_s: softmax.pipelined_occupancy_s(job.l),
        context_s: context.elapsed_ps as f64 * 1e-12,
        mac_commands: (score.reads + context.reads) * hbm.geometry.pseudo_channels as u64,
        activates: (score.activates + context.activates) * hbm.geometry.pseudo_channels as u64,
        energy_j: (score.energy.total_pj() + context.energy.total_pj()) * pchs * 1e-12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::stack_attention_timing;

    fn setup() -> (HbmConfig, SoftmaxUnit) {
        (HbmConfig::hbm3_8hi(), SoftmaxUnit::new())
    }

    fn job(l: u64) -> HeadJob {
        HeadJob::new(l, 128, 2)
    }

    #[test]
    fn engine_and_closed_form_agree_on_large_heads() {
        let (hbm, sm) = setup();
        for l in [2048u64, 4096, 8192] {
            let trace = execute_head(&hbm, GemvPlacement::Bank, &sm, job(l));
            let closed =
                stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &[(1, job(l))], false);
            let err = (trace.serial_s() - closed.serial_s).abs() / trace.serial_s();
            assert!(
                err < 0.25,
                "L={l}: engine {:.3e} vs closed {:.3e} (err {:.1}%)",
                trace.serial_s(),
                closed.serial_s,
                err * 100.0
            );
        }
    }

    #[test]
    fn non_divisible_matrix_rounds_bytes_up() {
        let (hbm, _) = setup();
        let pchs = u64::from(hbm.geometry.pseudo_channels);
        // One byte more than an even split: the remainder must stream,
        // not vanish in integer division.
        let even = pchs * 1024;
        let spec_even = gemv_stream_spec(&hbm, GemvPlacement::Bank, even);
        let spec_odd = gemv_stream_spec(&hbm, GemvPlacement::Bank, even + 1);
        let total = |s: &StreamSpec| s.bytes_per_bank.iter().sum::<u64>();
        assert_eq!(total(&spec_even), 1024);
        assert!(
            total(&spec_odd) > total(&spec_even),
            "remainder byte dropped: {} vs {}",
            total(&spec_odd),
            total(&spec_even)
        );
        // Per-pCH bytes never undercount the stack tile.
        assert!(total(&spec_odd) * pchs > even);
    }

    #[test]
    fn engine_confirms_placement_ordering() {
        let (hbm, sm) = setup();
        let t = |p| execute_head(&hbm, p, &sm, job(4096)).serial_s();
        let bank = t(GemvPlacement::Bank);
        let bg = t(GemvPlacement::BankGroup);
        let buffer = t(GemvPlacement::Buffer);
        assert!(bank < bg && bg < buffer, "{bank} {bg} {buffer}");
    }

    #[test]
    fn mac_command_count_matches_data_volume() {
        let (hbm, sm) = setup();
        let j = job(2048);
        let trace = execute_head(&hbm, GemvPlacement::Bank, &sm, j);
        // Every KV byte is read exactly once: commands × 32 B ≈ kv_bytes
        // (± per-bank rounding to whole beats).
        let bytes = trace.mac_commands * hbm.geometry.prefetch_bytes;
        let kv = j.kv_bytes();
        assert!(
            bytes >= kv && bytes < kv + 32 * 1024 * 32,
            "{bytes} vs {kv}"
        );
    }

    #[test]
    fn engine_energy_close_to_closed_form() {
        let (hbm, sm) = setup();
        let j = job(4096);
        let trace = execute_head(&hbm, GemvPlacement::Bank, &sm, j);
        let closed_stream_j = j.kv_bytes() as f64
            * 8.0
            * GemvPlacement::Bank.stream_energy_pj_per_bit(&hbm)
            * 1e-12;
        let err = (trace.energy_j - closed_stream_j).abs() / closed_stream_j;
        assert!(err < 0.15, "engine {} vs closed {}", trace.energy_j, closed_stream_j);
    }
}
