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
    #[must_use]
    pub fn attention_decoder_time(
        &self,
        model: &ModelConfig,
        groups: &[(u64, u64)],
        pipelined: bool,
    ) -> AttentionTiming {
        let stacks = u64::from(self.n_stacks);
        // With the systolic extension, KV shared by a GQA group streams
        // once per KV head; otherwise once per query head.
        let group = u64::from(model.attention.group_size(model.n_head));
        let (heads_per_request, q_per_kv) = if self.systolic {
            (u64::from(model.kv_heads()), group)
        } else {
            (u64::from(model.n_head), 1)
        };
        // Fused critical-stack timing + device-energy pass: one loop over
        // the groups, no intermediate job vectors. This sits on the decode
        // hot path (one call per Gen iteration), so it must not allocate.
        // Each accumulator's addition sequence matches the two-pass form in
        // [`stack_attention_timing`] / [`attention_energy_j`] term for
        // term, keeping the result bitwise identical to that reference.
        let stack_bw = self.placement.stack_bandwidth_bytes_per_s(&self.hbm);
        let t_rcd_s = self.hbm.timing.t_rcd as f64 * 1e-12;
        let stream_pj_bit = self.placement.stream_energy_pj_per_bit(&self.hbm);
        let ext_pj_bit = self.hbm.energy.streaming_pj_per_bit(AccessDepth::External, false);
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
            let job = HeadJob {
                q_per_kv,
                ..HeadJob::new(l, model.d_head, model.kv_dtype.bytes())
            };
            let heads = n_requests * heads_per_request;
            let on_critical = heads.div_ceil(stacks);
            let n = on_critical as f64;
            let t_half = t_rcd_s + job.k_bytes() as f64 / stack_bw;
            score_s += n * t_half;
            context_s += n * t_half;
            softmax_s +=
                n * job.q_per_kv.max(1) as f64 * self.softmax.pipelined_occupancy_s(job.l);
            heads_total += on_critical;
            max_l = max_l.max(job.l);
            let dn = heads as f64;
            let q = job.q_per_kv.max(1) as f64;
            pj += dn * job.kv_bytes() as f64 * 8.0 * stream_pj_bit;
            pj += dn * q * self.softmax.energy_pj(job.l);
            let host_bytes = 2 * job.d_head * job.kv_dtype_bytes;
            pj += dn * q * host_bytes as f64 * 8.0 * ext_pj_bit;
            let score_bytes = 2 * job.l * 4; // FP32 scores to and from softmax
            pj += dn * q * score_bytes as f64 * 8.0 * self.hbm.energy.tsv_pj_per_bit;
        }
        let overhead = heads_total as f64 * HEAD_OVERHEAD_S;
        let gemv_s = score_s + context_s + overhead;
        let serial_s = score_s + context_s + softmax_s + overhead
            + if heads_total > 0 {
                self.softmax.latency_s(max_l) - self.softmax.pipelined_occupancy_s(max_l)
            } else {
                0.0
            };
        let pipelined_s = if heads_total == 0 {
            0.0
        } else {
            gemv_s.max(softmax_s) + self.softmax.latency_s(max_l)
        };
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
