//! Per-decoder attention execution on AttAcc: timing, pipelining, energy.
//!
//! A Gen-stage attention layer decomposes into one [`HeadJob`] per query
//! head per request. Heads are spread across the stacks (§4.2); within a
//! stack they execute back-to-back on the GEMV units while the buffer-die
//! softmax unit processes the previous head's scores — the §6.1
//! *attention-level pipelining*.

use crate::{GemvPlacement, SoftmaxUnit};
use attacc_hbm::{AccessDepth, HbmConfig};

/// One KV-head's Gen-stage attention work: a GEMV_score over
/// `Kᵀ (d_head×l)`, softmax over `l` scores, and a GEMV_context over
/// `V (l×d_head)`.
///
/// `q_per_kv` > 1 models the §8 systolic extension under GQA/MQA: the
/// reconfigured GEMV units apply several query vectors to each streamed KV
/// beat, so the KV stream is paid once per *KV* head while softmax (and
/// host traffic) scale with the *query* heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeadJob {
    /// Context length of the owning request.
    pub l: u64,
    /// Per-head dimension.
    pub d_head: u64,
    /// Bytes per KV element.
    pub kv_dtype_bytes: u64,
    /// Query heads served per KV stream pass (1 without systolic reuse).
    pub q_per_kv: u64,
}

impl HeadJob {
    /// A plain (non-systolic) head job.
    #[must_use]
    pub const fn new(l: u64, d_head: u64, kv_dtype_bytes: u64) -> HeadJob {
        HeadJob {
            l,
            d_head,
            kv_dtype_bytes,
            q_per_kv: 1,
        }
    }
    /// Bytes of `Kᵀ` (equal to the bytes of `V`).
    #[must_use]
    pub const fn k_bytes(&self) -> u64 {
        self.l * self.d_head * self.kv_dtype_bytes
    }

    /// Total KV bytes streamed for this head (K and V).
    #[must_use]
    pub const fn kv_bytes(&self) -> u64 {
        2 * self.k_bytes()
    }
}

/// Timing and energy of one decoder's attention layer on the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionTiming {
    /// GEMV_score time on the critical stack (seconds).
    pub score_s: f64,
    /// Softmax time on the critical stack (seconds).
    pub softmax_s: f64,
    /// GEMV_context time on the critical stack (seconds).
    pub context_s: f64,
    /// Serial (un-pipelined) critical-stack time.
    pub serial_s: f64,
    /// Critical-stack time actually charged (pipelined if requested).
    pub total_s: f64,
    /// Energy over the whole device (joules).
    pub energy_j: f64,
    /// Head count on the critical stack.
    pub heads_on_critical_stack: u64,
}

/// Fixed per-head overhead: command issue, Q-vector broadcast into the
/// GEMV buffers, output drain (seconds). Small but keeps zero-length heads
/// from being free.
pub const HEAD_OVERHEAD_S: f64 = 30e-9;

/// Computes the critical-stack timing of one decoder's attention layer.
///
/// `stack_heads` lists, per distinct context length, how many heads the
/// *critical* (most loaded) stack executes. The caller (usually
/// [`crate::AttAccDevice`]) derives those counts from the batch shape and
/// the balance of §4.2's greedy head placement.
#[must_use]
pub fn stack_attention_timing(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    softmax: &SoftmaxUnit,
    stack_heads: &[(u64, HeadJob)],
    pipelined: bool,
) -> AttentionTiming {
    let stack_bw = placement.stack_bandwidth_bytes_per_s(hbm);
    let t_rcd_s = hbm.timing.t_rcd as f64 * 1e-12;

    let mut score_s = 0.0;
    let mut context_s = 0.0;
    let mut softmax_s = 0.0;
    let mut heads_total = 0u64;
    let mut max_l = 0u64;
    for &(count, job) in stack_heads {
        let n = count as f64;
        let t_half = t_rcd_s + job.k_bytes() as f64 / stack_bw;
        score_s += n * t_half;
        context_s += n * t_half;
        softmax_s += n * job.q_per_kv.max(1) as f64 * softmax.pipelined_occupancy_s(job.l);
        heads_total += count;
        max_l = max_l.max(job.l);
    }
    let overhead = heads_total as f64 * HEAD_OVERHEAD_S;
    let gemv_s = score_s + context_s + overhead;
    let serial_s = score_s + context_s + softmax_s + overhead
        + if heads_total > 0 {
            softmax.latency_s(max_l) - softmax.pipelined_occupancy_s(max_l)
        } else {
            0.0
        };
    let pipelined_s = if heads_total == 0 {
        0.0
    } else {
        // GEMV and softmax streams overlap across heads; one softmax
        // latency is exposed at the pipeline tail.
        gemv_s.max(softmax_s) + softmax.latency_s(max_l)
    };
    AttentionTiming {
        score_s,
        softmax_s,
        context_s,
        serial_s,
        total_s: if pipelined { pipelined_s.min(serial_s) } else { serial_s },
        energy_j: 0.0, // filled by the device-level aggregation
        heads_on_critical_stack: heads_total,
    }
}

/// Energy of executing `heads` head jobs anywhere on the device (joules).
///
/// Streaming energy uses the placement's depth (activation amortized, MAC
/// included); softmax energy covers all three stages; Q-in and output-out
/// cross the external interface once per head.
#[must_use]
pub fn attention_energy_j(
    hbm: &HbmConfig,
    placement: GemvPlacement,
    softmax: &SoftmaxUnit,
    heads: &[(u64, HeadJob)],
) -> f64 {
    let stream_pj_bit = placement.stream_energy_pj_per_bit(hbm);
    let ext_pj_bit = hbm.energy.streaming_pj_per_bit(AccessDepth::External, false);
    let mut pj = 0.0;
    for &(count, job) in heads {
        let n = count as f64;
        let q = job.q_per_kv.max(1) as f64;
        pj += n * job.kv_bytes() as f64 * 8.0 * stream_pj_bit;
        pj += n * q * softmax.energy_pj(job.l);
        // Q vectors in, context vectors out (one pair per query head),
        // softmax scores moved on-die (charged at TSV depth via
        // MvGb/MvSb).
        let host_bytes = 2 * job.d_head * job.kv_dtype_bytes;
        pj += n * q * host_bytes as f64 * 8.0 * ext_pj_bit;
        let score_bytes = 2 * job.l * 4; // FP32 scores to and from softmax
        pj += n * q * score_bytes as f64 * 8.0 * hbm.energy.tsv_pj_per_bit;
    }
    pj * 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HbmConfig, SoftmaxUnit) {
        (HbmConfig::hbm3_8hi(), SoftmaxUnit::new())
    }

    fn job(l: u64) -> HeadJob {
        HeadJob::new(l, 128, 2)
    }

    #[test]
    fn pipelining_never_hurts() {
        let (hbm, sm) = setup();
        let heads = [(120u64, job(2048))];
        let ser = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &heads, false);
        let pipe = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &heads, true);
        assert!(pipe.total_s <= ser.total_s);
        assert!(pipe.total_s > 0.0);
    }

    #[test]
    fn gemv_dominates_softmax() {
        // The design intent: the buffer-die softmax never becomes the
        // bottleneck (its required bandwidth is N_head/d_emb of GEMV's).
        let (hbm, sm) = setup();
        let heads = [(120u64, job(2048))];
        let t = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &heads, true);
        assert!(t.softmax_s < 0.3 * (t.score_s + t.context_s));
    }

    #[test]
    fn bank_placement_is_fastest() {
        let (hbm, sm) = setup();
        let heads = [(64u64, job(4096))];
        let t = |p| stack_attention_timing(&hbm, p, &sm, &heads, true).total_s;
        let buffer = t(GemvPlacement::Buffer);
        let bg = t(GemvPlacement::BankGroup);
        let bank = t(GemvPlacement::Bank);
        assert!(bank < bg && bg < buffer, "{bank} {bg} {buffer}");
        // Asymptotically the ratios approach 9:3:1.
        assert!((buffer / bank) > 6.0, "buffer/bank = {}", buffer / bank);
    }

    #[test]
    fn time_scales_linearly_with_heads() {
        let (hbm, sm) = setup();
        let t = |n| {
            stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &[(n, job(2048))], true).total_s
        };
        let ratio = t(100) / t(10);
        assert!((ratio - 10.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn empty_stack_takes_no_time() {
        let (hbm, sm) = setup();
        let t = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &[], true);
        assert_eq!(t.total_s, 0.0);
        assert_eq!(t.heads_on_critical_stack, 0);
    }

    #[test]
    fn energy_prefers_deeper_placement() {
        let (hbm, sm) = setup();
        let heads = [(64u64, job(2048))];
        let e = |p| attention_energy_j(&hbm, p, &sm, &heads);
        assert!(e(GemvPlacement::Bank) < e(GemvPlacement::BankGroup));
        assert!(e(GemvPlacement::BankGroup) < e(GemvPlacement::Buffer));
    }

    #[test]
    fn energy_linear_in_heads_and_length() {
        let (hbm, sm) = setup();
        let e1 = attention_energy_j(&hbm, GemvPlacement::Bank, &sm, &[(10, job(1024))]);
        let e2 = attention_energy_j(&hbm, GemvPlacement::Bank, &sm, &[(20, job(1024))]);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn head_job_byte_math() {
        let j = job(2048);
        assert_eq!(j.k_bytes(), 2048 * 128 * 2);
        assert_eq!(j.kv_bytes(), 2 * j.k_bytes());
        assert_eq!(j.q_per_kv, 1);
    }

    #[test]
    fn systolic_job_shares_kv_stream() {
        // A systolic job serving 8 query heads streams the same KV bytes
        // but pays 8× softmax and host traffic.
        let (hbm, sm) = setup();
        let plain = [(8u64, job(2048))];
        let systolic = [(1u64, HeadJob { q_per_kv: 8, ..job(2048) })];
        let t_plain = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &plain, true);
        let t_sys = stack_attention_timing(&hbm, GemvPlacement::Bank, &sm, &systolic, true);
        assert!(t_sys.total_s < t_plain.total_s / 4.0);
        assert!((t_sys.softmax_s - t_plain.softmax_s).abs() < 1e-12);
        let e_plain = attention_energy_j(&hbm, GemvPlacement::Bank, &sm, &plain);
        let e_sys = attention_energy_j(&hbm, GemvPlacement::Bank, &sm, &systolic);
        assert!(e_sys < e_plain);
    }
}
