//! Lowering a head's attention to the PIM command schedule (§5.1–§5.2).
//!
//! `AttAcc::RunAttention` makes the controller emit, per pseudo-channel:
//!
//! ```text
//! PIM_SET_CONFIG                      (once per mapping change)
//! PIM_WR_GB   (broadcast Q into GEMV buffers)
//! repeat per Kᵀ row:  PIM_ACT_AB ; PIM_MAC_AB × beats ; (precharge)
//! PIM_MV_GB   (scores to the softmax buffer)
//! PIM_SFM     (3-stage softmax)
//! PIM_MV_SB   (weights back to the GEMV buffers)
//! repeat per V row:   PIM_ACT_AB ; PIM_MAC_AB × beats
//! PIM_RD_SB   (context vector to the host)
//! ```
//!
//! [`schedule_head`] produces that sequence with per-command issue counts
//! and a timing/energy roll-up consistent with the engine-level stream
//! model, giving the ISA a concrete cost semantics (and the tests a
//! cross-check against [`crate::timing_exec`]).

use crate::attention::HeadJob;
use crate::{GemvPlacement, SoftmaxUnit};
use attacc_hbm::engine::stream_time_estimate_ps;
use attacc_hbm::{HbmConfig, PimCommand, StreamSpec};

/// One entry of a head's command schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledCommand {
    /// The PIM command.
    pub command: PimCommand,
    /// How many times it is issued (per pseudo-channel).
    pub count: u64,
    /// Time the phase containing this command occupies (seconds; phases
    /// with zero time piggyback on the surrounding stream).
    pub phase_s: f64,
}

/// A head's complete schedule with roll-up totals.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSchedule {
    /// Commands in issue order.
    pub commands: Vec<ScheduledCommand>,
    /// Total busy time of the GEMV/softmax pipeline for this head (s).
    pub total_s: f64,
    /// MAC beats issued per pseudo-channel (score + context).
    pub mac_beats_per_pch: u64,
    /// All-bank activations issued per pseudo-channel.
    pub act_ab_per_pch: u64,
}

/// Builds the command schedule of one head on one stack.
///
/// # Panics
/// Panics if the job has zero context length.
#[must_use]
pub fn schedule_head(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    softmax: &SoftmaxUnit,
    job: HeadJob,
) -> HeadSchedule {
    assert!(job.l > 0, "attention over an empty context");
    let g = &hbm.geometry;
    let per_pch_bytes = job.k_bytes() / u64::from(g.pseudo_channels);
    let spec = StreamSpec {
        bytes_per_bank: StreamSpec::uniform(g, per_pch_bytes, 1).bytes_per_bank,
        max_active: placement.max_active_per_pch(hbm),
        depth: placement.depth(),
    };
    let beats: u64 = spec
        .bytes_per_bank
        .iter()
        .map(|b| b.div_ceil(g.prefetch_bytes))
        .sum();
    let rows_per_bank = spec
        .bytes_per_bank
        .iter()
        .map(|b| b.div_ceil(g.row_bytes).max(u64::from(*b > 0)))
        .max()
        .unwrap_or(0);
    let gemv_s = stream_time_estimate_ps(hbm, &spec) as f64 * 1e-12;
    let sfm_s = softmax.pipelined_occupancy_s(job.l);
    let q_bytes = job.d_head * job.kv_dtype_bytes;
    let score_bytes = job.l * 4; // FP32 scores

    let commands = vec![
        ScheduledCommand {
            command: PimCommand::SetConfig,
            count: 1,
            phase_s: 0.0,
        },
        ScheduledCommand {
            command: PimCommand::WrGb { bytes: q_bytes },
            count: 1,
            phase_s: q_bytes as f64 / hbm.external_bandwidth_bytes_per_s(),
        },
        ScheduledCommand {
            command: PimCommand::ActAb { row: 0 },
            count: rows_per_bank,
            phase_s: 0.0, // hidden inside the stream estimate
        },
        ScheduledCommand {
            command: PimCommand::MacAb,
            count: beats,
            phase_s: gemv_s,
        },
        ScheduledCommand {
            command: PimCommand::MvGb { bytes: score_bytes },
            count: 1,
            phase_s: 0.0,
        },
        ScheduledCommand {
            command: PimCommand::Sfm { elems: job.l },
            count: 1,
            phase_s: sfm_s,
        },
        ScheduledCommand {
            command: PimCommand::MvSb { bytes: score_bytes },
            count: 1,
            phase_s: 0.0,
        },
        ScheduledCommand {
            command: PimCommand::ActAb { row: 0 },
            count: rows_per_bank,
            phase_s: 0.0,
        },
        ScheduledCommand {
            command: PimCommand::MacAb,
            count: beats,
            phase_s: gemv_s,
        },
        ScheduledCommand {
            command: PimCommand::RdSb { bytes: q_bytes },
            count: 1,
            phase_s: q_bytes as f64 / hbm.external_bandwidth_bytes_per_s(),
        },
    ];
    let total_s = commands.iter().map(|c| c.phase_s).sum();
    HeadSchedule {
        commands,
        total_s,
        mac_beats_per_pch: 2 * beats,
        act_ab_per_pch: 2 * rows_per_bank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing_exec::execute_head;

    fn setup() -> (HbmConfig, SoftmaxUnit) {
        (HbmConfig::hbm3_8hi(), SoftmaxUnit::new())
    }

    fn job(l: u64) -> HeadJob {
        HeadJob::new(l, 128, 2)
    }

    #[test]
    fn schedule_covers_the_isa() {
        let (hbm, sm) = setup();
        let s = schedule_head(&hbm, GemvPlacement::Bank, &sm, job(2048));
        let kinds: Vec<_> = s.commands.iter().map(|c| std::mem::discriminant(&c.command)).collect();
        // SET_CONFIG, WR_GB, ACT_AB, MAC_AB, MV_GB, SFM, MV_SB, ACT_AB,
        // MAC_AB, RD_SB — all eight distinct commands appear.
        assert_eq!(s.commands.len(), 10);
        assert_eq!(
            kinds.iter().collect::<std::collections::HashSet<_>>().len(),
            8
        );
    }

    #[test]
    fn mac_beats_cover_kv_bytes() {
        let (hbm, sm) = setup();
        let j = job(4096);
        let s = schedule_head(&hbm, GemvPlacement::Bank, &sm, j);
        let bytes =
            s.mac_beats_per_pch * hbm.geometry.prefetch_bytes * u64::from(hbm.geometry.pseudo_channels);
        assert!(bytes >= j.kv_bytes(), "{bytes} < {}", j.kv_bytes());
        assert!(bytes < j.kv_bytes() + (1 << 21), "over-fetch bounded");
    }

    #[test]
    fn schedule_time_matches_engine_execution() {
        let (hbm, sm) = setup();
        for l in [2048u64, 8192] {
            let s = schedule_head(&hbm, GemvPlacement::Bank, &sm, job(l));
            let trace = execute_head(&hbm, GemvPlacement::Bank, &sm, job(l));
            let engine = trace.score_s + trace.softmax_s + trace.context_s;
            let err = (s.total_s - engine).abs() / engine;
            assert!(err < 0.20, "L={l}: schedule {} vs engine {engine}", s.total_s);
        }
    }

    #[test]
    fn activations_scale_with_rows() {
        let (hbm, sm) = setup();
        let small = schedule_head(&hbm, GemvPlacement::Bank, &sm, job(1024));
        let large = schedule_head(&hbm, GemvPlacement::Bank, &sm, job(64 * 1024));
        assert!(large.act_ab_per_pch > small.act_ab_per_pch);
    }

    #[test]
    #[should_panic(expected = "empty context")]
    fn empty_context_rejected() {
        let (hbm, sm) = setup();
        let _ = schedule_head(&hbm, GemvPlacement::Bank, &sm, job(0));
    }
}
