//! The device-level AttAcc model: a board of PIM-enabled HBM stacks.

use crate::attention::{AttentionTiming, HeadJob, HEAD_OVERHEAD_S};
use crate::{GemvPlacement, SoftmaxUnit};
use attacc_hbm::{AccessDepth, HbmConfig};
use attacc_model::ModelConfig;

/// An AttAcc device: `n_stacks` PIM-enabled HBM stacks behind one
/// controller, as deployed in the paper's `DGX+AttAccs` platform (40
/// stacks, 640 GB, 242 TB/s internal bandwidth at bank placement).
#[derive(Debug, Clone, PartialEq)]
pub struct AttAccDevice {
    /// Per-stack configuration.
    pub hbm: HbmConfig,
    /// Number of stacks on the device.
    pub n_stacks: u32,
    /// GEMV-unit placement (the paper ships `Bank`).
    pub placement: GemvPlacement,
    /// The buffer-die softmax unit.
    pub softmax: SoftmaxUnit,
    /// §8 extension: GEMV units reconfigured as systolic arrays, letting a
    /// GQA/MQA group's query heads share one KV stream pass (at extra
    /// area; see [`crate::area`]). No effect on MHA models.
    pub systolic: bool,
}

impl AttAccDevice {
    /// The paper's evaluation device: 40 8-Hi HBM3 stacks (640 GB).
    #[must_use]
    pub fn paper_40_stacks(placement: GemvPlacement) -> AttAccDevice {
        AttAccDevice {
            hbm: HbmConfig::hbm3_8hi(),
            n_stacks: 40,
            placement,
            softmax: SoftmaxUnit::new(),
            systolic: false,
        }
    }

    /// The same device with the §8 systolic GEMV-unit extension enabled.
    #[must_use]
    pub fn with_systolic(mut self) -> AttAccDevice {
        self.systolic = true;
        self
    }

    /// Total device capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.hbm.geometry.capacity_bytes * u64::from(self.n_stacks)
    }

    /// Aggregate PIM-exploitable internal bandwidth (bytes/s).
    #[must_use]
    pub fn internal_bandwidth(&self) -> f64 {
        self.placement.stack_bandwidth_bytes_per_s(&self.hbm) * f64::from(self.n_stacks)
    }

    /// Aggregate external (host-visible) bandwidth (bytes/s), usable e.g.
    /// for feedforward co-processing (§6.2).
    #[must_use]
    pub fn external_bandwidth(&self) -> f64 {
        self.hbm.external_bandwidth_bytes_per_s() * f64::from(self.n_stacks)
    }

    /// Peak arithmetic throughput of the device's GEMV units (FLOP/s):
    /// every active unit performs `lanes` multiply-accumulates per beat
    /// interval. Tiny next to an xPU — the reason compute-dense phases
    /// (prefill, pre-training) stay on the xPU (§8).
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        let g = &self.hbm.geometry;
        let active = f64::from(self.placement.max_active_per_pch(&self.hbm))
            * f64::from(g.pseudo_channels)
            * f64::from(self.n_stacks);
        let beat_interval = match self.placement {
            GemvPlacement::Buffer => self.hbm.timing.tccd_s_s(),
            _ => self.hbm.timing.tccd_l_s(),
        };
        // 16 multiplies + 16 adds per beat.
        active * 32.0 / beat_interval
    }

    /// Timing and energy of one decoder's attention layer for a batch
    /// described as `(requests, context_length)` groups, each request
    /// contributing `model.n_head` query-head jobs.
    ///
    /// Heads are assumed spread by the greedy allocator, which keeps every
    /// stack within one head of the mean; the critical stack therefore
    /// runs `ceil(group_heads / n_stacks)` heads of each group.
    ///
    /// [`AttentionMemo::decoder_time`] returns the same value bit for bit
    /// and remembers the per-length and per-count terms between calls.
    #[must_use]
    pub fn attention_decoder_time(
        &self,
        model: &ModelConfig,
        groups: &[(u64, u64)],
        pipelined: bool,
    ) -> AttentionTiming {
        attention_pass(&AttentionShape::new(self, model), &mut Direct, groups, pipelined)
    }

    /// A memo for [`AttAccDevice::attention_decoder_time`] calls of
    /// `model` on this device.
    #[must_use]
    pub fn attention_memo(&self, model: &ModelConfig) -> AttentionMemo {
        AttentionMemo { shape: AttentionShape::new(self, model), tables: TermTables::default() }
    }

    /// KV bytes this device must hold for a batch of `(requests, l)` groups
    /// across all decoders of `model`.
    #[must_use]
    pub fn kv_resident_bytes(&self, model: &ModelConfig, groups: &[(u64, u64)]) -> u64 {
        let per_token = 2
            * u64::from(model.kv_heads())
            * model.d_head
            * model.kv_dtype.bytes()
            * u64::from(model.n_decoder);
        groups.iter().map(|&(n, l)| n * l * per_token).sum()
    }
}

/// Everything one decoder's attention pass reads of the device and the
/// model: fixed for a (device, model) pair.
#[derive(Debug, Clone)]
struct AttentionShape {
    stacks: u64,
    /// Heads each request streams KV for: query heads, or KV heads with
    /// the systolic extension.
    heads_per_request: u64,
    /// Query heads served per KV stream pass.
    q_per_kv: u64,
    d_head: u64,
    kv_dtype_bytes: u64,
    stack_bw: f64,
    t_rcd_s: f64,
    stream_pj_bit: f64,
    ext_pj_bit: f64,
    tsv_pj_bit: f64,
    softmax: SoftmaxUnit,
}

impl AttentionShape {
    fn new(dev: &AttAccDevice, model: &ModelConfig) -> AttentionShape {
        // With the systolic extension, KV shared by a GQA group streams
        // once per KV head; otherwise once per query head.
        let group = u64::from(model.attention.group_size(model.n_head));
        let (heads_per_request, q_per_kv) = if dev.systolic {
            (u64::from(model.kv_heads()), group)
        } else {
            (u64::from(model.n_head), 1)
        };
        AttentionShape {
            stacks: u64::from(dev.n_stacks),
            heads_per_request,
            q_per_kv,
            d_head: model.d_head,
            kv_dtype_bytes: model.kv_dtype.bytes(),
            stack_bw: dev.placement.stack_bandwidth_bytes_per_s(&dev.hbm),
            t_rcd_s: dev.hbm.timing.t_rcd as f64 * 1e-12,
            stream_pj_bit: dev.placement.stream_energy_pj_per_bit(&dev.hbm),
            ext_pj_bit: dev.hbm.energy.streaming_pj_per_bit(AccessDepth::External, false),
            tsv_pj_bit: dev.hbm.energy.tsv_pj_per_bit,
            softmax: dev.softmax.clone(),
        }
    }

    fn job(&self, l: u64) -> HeadJob {
        HeadJob { q_per_kv: self.q_per_kv, ..HeadJob::new(l, self.d_head, self.kv_dtype_bytes) }
    }

    /// `(t_rcd + Kᵀ bytes / stack bandwidth, softmax pipelined occupancy)`
    /// of one head at context length `l`.
    fn length_terms(&self, l: u64) -> (f64, f64) {
        let t_half = self.t_rcd_s + self.job(l).k_bytes() as f64 / self.stack_bw;
        (t_half, self.softmax.pipelined_occupancy_s(l))
    }

    /// Heads `n` requests put on the critical stack.
    fn critical_heads(&self, n: u64) -> u64 {
        (n * self.heads_per_request).div_ceil(self.stacks)
    }
}

/// Where [`attention_pass`] gets the terms that depend on one context
/// length or one request count only: [`AttentionShape`]'s methods, or
/// their values remembered from earlier calls.
trait GroupTerms {
    fn length_terms(&mut self, shape: &AttentionShape, l: u64) -> (f64, f64);
    fn critical_heads(&mut self, shape: &AttentionShape, n: u64) -> u64;
}

/// Every term computed where it is used.
struct Direct;

impl GroupTerms for Direct {
    fn length_terms(&mut self, shape: &AttentionShape, l: u64) -> (f64, f64) {
        shape.length_terms(l)
    }

    fn critical_heads(&mut self, shape: &AttentionShape, n: u64) -> u64 {
        shape.critical_heads(n)
    }
}

/// Context lengths and request counts at or above these bounds are
/// computed on every call instead of held, so a stray huge value cannot
/// grow a memo table.
const MEMO_MAX_LEN: u64 = 1 << 16;
const MEMO_MAX_COUNT: u64 = 1 << 12;

/// Terms remembered after their first use, indexed by length or count.
#[derive(Debug, Clone, Default)]
struct TermTables {
    /// `length_terms(l)` at index `l`; NaN marks a slot not yet filled.
    by_len: Vec<(f64, f64)>,
    /// `critical_heads(n)` at index `n`; 0 marks a slot not yet filled.
    by_count: Vec<u64>,
}

impl GroupTerms for TermTables {
    #[inline]
    fn length_terms(&mut self, shape: &AttentionShape, l: u64) -> (f64, f64) {
        match self.by_len.get(l as usize) {
            Some(&terms) if !terms.0.is_nan() => terms,
            _ => {
                let terms = shape.length_terms(l);
                remember(&mut self.by_len, l, MEMO_MAX_LEN, terms, (f64::NAN, f64::NAN))
            }
        }
    }

    #[inline]
    fn critical_heads(&mut self, shape: &AttentionShape, n: u64) -> u64 {
        match self.by_count.get(n as usize) {
            Some(&heads) if heads != 0 => heads,
            _ => remember(&mut self.by_count, n, MEMO_MAX_COUNT, shape.critical_heads(n), 0),
        }
    }
}

/// Stores `value` at `table[i]` (growing the table with `unfilled`
/// slots) unless `i` is at or above `bound`, and returns it.
#[cold]
fn remember<T: Copy>(table: &mut Vec<T>, i: u64, bound: u64, value: T, unfilled: T) -> T {
    if i < bound {
        let i = i as usize;
        if i >= table.len() {
            table.resize(i + 1, unfilled);
        }
        table[i] = value;
    }
    value
}

/// [`AttAccDevice::attention_decoder_time`] for one (device, model) pair,
/// holding each per-length and per-count term after its first use.
///
/// Under iteration-level batching each request decodes at its own context
/// length, so a Gen iteration has one group per distinct length, and the
/// same lengths recur iteration after iteration. The memo stores exactly
/// the values the plain call computes and adds them in the same order, so
/// [`AttentionMemo::decoder_time`] equals the plain call bit for bit.
#[derive(Debug, Clone)]
pub struct AttentionMemo {
    shape: AttentionShape,
    tables: TermTables,
}

impl AttentionMemo {
    /// [`AttAccDevice::attention_decoder_time`] of the memo's device and
    /// model over `groups`.
    pub fn decoder_time(&mut self, groups: &[(u64, u64)], pipelined: bool) -> AttentionTiming {
        attention_pass(&self.shape, &mut self.tables, groups, pipelined)
    }
}

/// The one critical-stack timing and device-energy pass over the groups,
/// with the per-length and per-count terms taken from `terms`. It must
/// not allocate: it runs once per Gen iteration on the decode hot path.
/// Each accumulator's addition sequence matches the two-pass form in
/// [`crate::attention::stack_attention_timing`] and
/// [`crate::attention::attention_energy_j`] term for term, keeping the
/// result bitwise identical to that reference.
fn attention_pass<T: GroupTerms>(
    shape: &AttentionShape,
    terms: &mut T,
    groups: &[(u64, u64)],
    pipelined: bool,
) -> AttentionTiming {
    let softmax = &shape.softmax;
    let mut score_s = 0.0;
    let mut context_s = 0.0;
    let mut softmax_s = 0.0;
    let mut heads_total = 0u64;
    let mut max_l = 0u64;
    let mut pj = 0.0;
    for &(n_requests, l) in groups {
        if n_requests == 0 {
            continue;
        }
        let job = shape.job(l);
        let heads = n_requests * shape.heads_per_request;
        let on_critical = terms.critical_heads(shape, n_requests);
        let n = on_critical as f64;
        let (t_half, occupancy) = terms.length_terms(shape, l);
        score_s += n * t_half;
        context_s += n * t_half;
        softmax_s += n * job.q_per_kv.max(1) as f64 * occupancy;
        heads_total += on_critical;
        max_l = max_l.max(job.l);
        let dn = heads as f64;
        let q = job.q_per_kv.max(1) as f64;
        pj += dn * job.kv_bytes() as f64 * 8.0 * shape.stream_pj_bit;
        pj += dn * q * softmax.energy_pj(job.l);
        let host_bytes = 2 * job.d_head * job.kv_dtype_bytes;
        pj += dn * q * host_bytes as f64 * 8.0 * shape.ext_pj_bit;
        let score_bytes = 2 * job.l * 4; // FP32 scores to and from softmax
        pj += dn * q * score_bytes as f64 * 8.0 * shape.tsv_pj_bit;
    }
    let overhead = heads_total as f64 * HEAD_OVERHEAD_S;
    let gemv_s = score_s + context_s + overhead;
    let serial_s = score_s
        + context_s
        + softmax_s
        + overhead
        + if heads_total > 0 {
            softmax.latency_s(max_l) - softmax.pipelined_occupancy_s(max_l)
        } else {
            0.0
        };
    let pipelined_s =
        if heads_total == 0 { 0.0 } else { gemv_s.max(softmax_s) + softmax.latency_s(max_l) };
    AttentionTiming {
        score_s,
        softmax_s,
        context_s,
        serial_s,
        total_s: if pipelined { pipelined_s.min(serial_s) } else { serial_s },
        energy_j: pj * 1e-12,
        heads_on_critical_stack: heads_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_device_capacity_and_bandwidth() {
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        assert_eq!(d.capacity_bytes(), 40 * 16 * (1 << 30));
        let tb = d.internal_bandwidth() / 1e12;
        assert!((tb - 242.0).abs() < 8.0, "internal = {tb} TB/s");
        let ext = d.external_bandwidth() / 1e12;
        assert!((ext - 26.8).abs() < 0.3, "external = {ext} TB/s");
    }

    #[test]
    fn attention_time_tracks_batch_size() {
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let t8 = d.attention_decoder_time(&m, &[(8, 2048)], true).total_s;
        let t64 = d.attention_decoder_time(&m, &[(64, 2048)], true).total_s;
        assert!(t64 > 6.0 * t8, "t8 = {t8}, t64 = {t64}");
    }

    #[test]
    fn attention_is_roughly_9x_faster_than_external_streaming() {
        // The whole point: streaming the same KV bytes through a 26.8 TB/s
        // external interface takes ~9× longer than AttAcc_bank.
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let groups = [(64u64, 2048u64)];
        let t = d.attention_decoder_time(&m, &groups, true);
        let kv_bytes = 64.0 * 96.0 * 2.0 * 2048.0 * 128.0 * 2.0;
        let ext_time = kv_bytes / d.external_bandwidth();
        let ratio = ext_time / t.total_s;
        assert!(ratio > 6.0 && ratio < 10.0, "ratio = {ratio}");
    }

    #[test]
    fn kv_resident_bytes_matches_model_spec() {
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let bytes = d.kv_resident_bytes(&m, &[(1, 4096)]);
        let gb = bytes as f64 / (1u64 << 30) as f64;
        assert!((gb - 18.0).abs() < 0.2, "kv = {gb} GB");
    }

    #[test]
    fn empty_batch_is_free() {
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let t = d.attention_decoder_time(&m, &[(0, 2048)], true);
        assert_eq!(t.total_s, 0.0);
        assert_eq!(t.energy_j, 0.0);
    }

    #[test]
    fn peak_flops_is_small_next_to_an_xpu() {
        // 18 active units/pCH × 32 pCH × 40 stacks × 32 FLOP / 3 ns
        // ≈ 0.25 PFLOPS — an order of magnitude below the DGX's 2.5.
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let pf = d.peak_flops() / 1e15;
        assert!(pf > 0.15 && pf < 0.4, "peak = {pf} PFLOPS");
    }

    #[test]
    fn systolic_restores_gqa_performance() {
        use attacc_model::AttentionVariant;
        let plain = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let systolic = AttAccDevice::paper_40_stacks(GemvPlacement::Bank).with_systolic();
        let gqa = ModelConfig::gpt3_175b().with_attention(AttentionVariant::Gqa { group_size: 8 });
        let g = [(32u64, 2048u64)];
        let t_plain = plain.attention_decoder_time(&gqa, &g, true).total_s;
        let t_sys = systolic.attention_decoder_time(&gqa, &g, true).total_s;
        assert!(
            t_sys < t_plain / 4.0,
            "systolic {t_sys} should be ~8x faster than plain {t_plain}"
        );
        // On MHA it changes nothing.
        let mha = ModelConfig::gpt3_175b();
        let a = plain.attention_decoder_time(&mha, &g, true).total_s;
        let b = systolic.attention_decoder_time(&mha, &g, true).total_s;
        assert!((a - b).abs() / a < 1e-9);
    }

    #[test]
    fn fused_attention_pass_matches_two_pass_reference() {
        use crate::attention::{attention_energy_j, stack_attention_timing};
        use attacc_model::AttentionVariant;
        // The fused single-loop implementation must be bitwise identical
        // to composing the public two-pass building blocks, for plain and
        // systolic devices, MHA and GQA, including zero-count groups.
        let m_mha = ModelConfig::gpt3_175b();
        let m_gqa = ModelConfig::gpt3_175b().with_attention(AttentionVariant::Gqa { group_size: 8 });
        let groups = [(16u64, 1024u64), (0, 512), (7, 3072), (1, 64)];
        for dev in [
            AttAccDevice::paper_40_stacks(GemvPlacement::Bank),
            AttAccDevice::paper_40_stacks(GemvPlacement::Buffer).with_systolic(),
        ] {
            for model in [&m_mha, &m_gqa] {
                for pipelined in [false, true] {
                    let stacks = u64::from(dev.n_stacks);
                    let group = u64::from(model.attention.group_size(model.n_head));
                    let (heads_per_request, q_per_kv) = if dev.systolic {
                        (u64::from(model.kv_heads()), group)
                    } else {
                        (u64::from(model.n_head), 1)
                    };
                    let mut critical = Vec::new();
                    let mut device_total = Vec::new();
                    for &(n_requests, l) in &groups {
                        if n_requests == 0 {
                            continue;
                        }
                        let job = HeadJob {
                            q_per_kv,
                            ..HeadJob::new(l, model.d_head, model.kv_dtype.bytes())
                        };
                        let heads = n_requests * heads_per_request;
                        critical.push((heads.div_ceil(stacks), job));
                        device_total.push((heads, job));
                    }
                    let mut want = stack_attention_timing(
                        &dev.hbm,
                        dev.placement,
                        &dev.softmax,
                        &critical,
                        pipelined,
                    );
                    want.energy_j =
                        attention_energy_j(&dev.hbm, dev.placement, &dev.softmax, &device_total);
                    let got = dev.attention_decoder_time(model, &groups, pipelined);
                    assert_eq!(got, want, "pipelined={pipelined}");
                }
            }
        }
    }

    #[test]
    fn memo_matches_the_plain_call_past_its_tables() {
        // Lengths and counts at or above the table bounds are computed on
        // every call; they must still equal the plain call, mixed with
        // held terms, and leave the tables unfilled.
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let groups = [(3, MEMO_MAX_LEN), (MEMO_MAX_COUNT, 512), (2, MEMO_MAX_LEN + 7), (1, 512)];
        let mut memo = d.attention_memo(&m);
        for _ in 0..2 {
            let got = memo.decoder_time(&groups, true);
            assert_eq!(got, d.attention_decoder_time(&m, &groups, true));
        }
        assert_eq!(memo.tables.by_len.len(), 513);
        assert_eq!(memo.tables.by_count.len(), 4);
    }

    #[test]
    fn heterogeneous_groups_accumulate() {
        let d = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
        let m = ModelConfig::gpt3_175b();
        let both = d
            .attention_decoder_time(&m, &[(16, 1024), (16, 3072)], true)
            .total_s;
        let uniform = d.attention_decoder_time(&m, &[(32, 2048)], true).total_s;
        // Same total KV bytes → similar time (within rounding of head
        // distribution).
        assert!((both / uniform - 1.0).abs() < 0.1, "{both} vs {uniform}");
    }
}
