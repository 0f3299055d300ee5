//! Attention-level pipelining as an explicit schedule (§6.1, Fig. 11(a)).
//!
//! Within one stack, the GEMV units and the buffer-die softmax unit are
//! independent resources: while head *i*'s scores run through softmax,
//! head *i+1*'s `GEMV_score` already streams. This module builds the
//! explicit (head, phase, start, end) timeline for a stack's head queue
//! and proves the closed-form pipelined estimate of
//! [`crate::attention::stack_attention_timing`] against it.

use crate::attention::{HeadJob, HEAD_OVERHEAD_S};
use crate::{GemvPlacement, SoftmaxUnit};
use attacc_hbm::HbmConfig;

/// Which pipeline stage a segment occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadPhase {
    /// `GEMV_score` on the GEMV units.
    Score,
    /// Softmax on the buffer die.
    Softmax,
    /// `GEMV_context` on the GEMV units.
    Context,
}

/// One scheduled segment of the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Index of the head in the stack's queue.
    pub head: usize,
    /// Stage.
    pub phase: HeadPhase,
    /// Start time (s).
    pub start_s: f64,
    /// End time (s).
    pub end_s: f64,
}

/// The complete timeline of a stack's head queue.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadTimeline {
    /// Segments in schedule order.
    pub segments: Vec<Segment>,
    /// Makespan (s).
    pub total_s: f64,
    /// Busy fraction of the GEMV units.
    pub gemv_utilization: f64,
    /// Busy fraction of the softmax unit.
    pub softmax_utilization: f64,
}

/// Builds the attention-level-pipelined timeline of `heads` on one stack.
///
/// Scheduling rule (greedy list scheduling over two resources): each
/// head's score must precede its softmax, which precedes its context; the
/// GEMV units serialize score/context segments across heads; the softmax
/// unit serializes softmax segments. This is exactly the dataflow the
/// paper sketches in Fig. 11(a).
#[must_use]
pub fn schedule_stack(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    softmax: &SoftmaxUnit,
    heads: &[HeadJob],
) -> HeadTimeline {
    let stack_bw = placement.stack_bandwidth_bytes_per_s(hbm);
    let t_rcd_s = hbm.timing.t_rcd as f64 * 1e-12;

    let mut segments = Vec::with_capacity(heads.len() * 3);
    let mut gemv_free = 0.0f64;
    let mut sfm_free = 0.0f64;
    let mut gemv_busy = 0.0f64;
    let mut sfm_busy = 0.0f64;
    // Per-head context segments become available once its softmax ends;
    // they queue on the GEMV resource behind later heads' scores only if
    // the GEMV unit is otherwise idle-ordered. Greedy: process per head,
    // scheduling score immediately, softmax after it, context after
    // softmax — the GEMV resource interleaves naturally because score of
    // head i+1 can start while softmax of head i runs.
    let mut pending_context: Vec<(usize, f64, f64)> = Vec::new(); // (head, ready, dur)
    for (i, job) in heads.iter().enumerate() {
        let gemv_dur = t_rcd_s + job.k_bytes() as f64 / stack_bw + HEAD_OVERHEAD_S / 2.0;
        // Drain any context segments that became ready before this score.
        let mut j = 0;
        while j < pending_context.len() {
            let (h, ready, dur) = pending_context[j];
            if ready <= gemv_free {
                let start = gemv_free.max(ready);
                segments.push(Segment {
                    head: h,
                    phase: HeadPhase::Context,
                    start_s: start,
                    end_s: start + dur,
                });
                gemv_free = start + dur;
                gemv_busy += dur;
                pending_context.remove(j);
            } else {
                j += 1;
            }
        }
        // Score.
        let s_start = gemv_free;
        segments.push(Segment {
            head: i,
            phase: HeadPhase::Score,
            start_s: s_start,
            end_s: s_start + gemv_dur,
        });
        gemv_free = s_start + gemv_dur;
        gemv_busy += gemv_dur;
        // Softmax.
        let sfm_dur = softmax.pipelined_occupancy_s(job.l);
        let f_start = gemv_free.max(sfm_free);
        segments.push(Segment {
            head: i,
            phase: HeadPhase::Softmax,
            start_s: f_start,
            end_s: f_start + sfm_dur,
        });
        sfm_free = f_start + sfm_dur;
        sfm_busy += sfm_dur;
        // Context becomes ready after softmax.
        pending_context.push((i, sfm_free, gemv_dur));
    }
    // Drain remaining contexts.
    pending_context.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (h, ready, dur) in pending_context {
        let start = gemv_free.max(ready);
        segments.push(Segment {
            head: h,
            phase: HeadPhase::Context,
            start_s: start,
            end_s: start + dur,
        });
        gemv_free = start + dur;
        gemv_busy += dur;
    }

    let total = segments.iter().map(|s| s.end_s).fold(0.0, f64::max);
    HeadTimeline {
        segments,
        total_s: total,
        gemv_utilization: if total > 0.0 { gemv_busy / total } else { 0.0 },
        softmax_utilization: if total > 0.0 { sfm_busy / total } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::stack_attention_timing;

    fn setup() -> (HbmConfig, SoftmaxUnit) {
        (HbmConfig::hbm3_8hi(), SoftmaxUnit::new())
    }

    fn jobs(n: usize, l: u64) -> Vec<HeadJob> {
        vec![HeadJob::new(l, 128, 2); n]
    }

    #[test]
    fn timeline_respects_dependencies_and_resources() {
        let (hbm, sm) = setup();
        let tl = schedule_stack(&hbm, GemvPlacement::Bank, &sm, &jobs(6, 2048));
        // Per head: score < softmax < context.
        for h in 0..6 {
            let find = |p| {
                tl.segments
                    .iter()
                    .find(|s| s.head == h && s.phase == p)
                    .copied()
                    .unwrap()
            };
            let s = find(HeadPhase::Score);
            let f = find(HeadPhase::Softmax);
            let c = find(HeadPhase::Context);
            assert!(s.end_s <= f.start_s + 1e-12);
            assert!(f.end_s <= c.start_s + 1e-12);
        }
        // GEMV segments never overlap; softmax segments never overlap.
        let mut gemv: Vec<_> = tl
            .segments
            .iter()
            .filter(|s| s.phase != HeadPhase::Softmax)
            .collect();
        gemv.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
        for w in gemv.windows(2) {
            assert!(w[0].end_s <= w[1].start_s + 1e-12, "{:?} {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn timeline_matches_closed_form_pipelined_estimate() {
        let (hbm, sm) = setup();
        for n in [2usize, 8, 32, 96] {
            let tl = schedule_stack(&hbm, GemvPlacement::Bank, &sm, &jobs(n, 2048));
            let closed = stack_attention_timing(
                &hbm,
                GemvPlacement::Bank,
                &sm,
                &[(n as u64, HeadJob::new(2048, 128, 2))],
                true,
            );
            let err = (tl.total_s - closed.total_s).abs() / closed.total_s;
            assert!(
                err < 0.15,
                "n={n}: timeline {:.3e} vs closed {:.3e}",
                tl.total_s,
                closed.total_s
            );
        }
    }

    #[test]
    fn gemv_units_stay_nearly_saturated() {
        // With many heads the GEMV stream is the bottleneck; the softmax
        // unit idles (its bandwidth need is ~N_head/d_emb of GEMV's).
        let (hbm, sm) = setup();
        let tl = schedule_stack(&hbm, GemvPlacement::Bank, &sm, &jobs(64, 2048));
        assert!(tl.gemv_utilization > 0.95, "gemv util {}", tl.gemv_utilization);
        assert!(tl.softmax_utilization < 0.3, "sfm util {}", tl.softmax_utilization);
    }

    #[test]
    fn empty_queue_is_empty_timeline() {
        let (hbm, sm) = setup();
        let tl = schedule_stack(&hbm, GemvPlacement::Bank, &sm, &[]);
        assert!(tl.segments.is_empty());
        assert_eq!(tl.total_s, 0.0);
    }
}
