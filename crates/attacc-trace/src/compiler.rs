//! Lowering `attacc-model` graphs plus a decode schedule to traces.
//!
//! The compiler reads the attention op of a [`StageWorkload`] (head
//! count, head dimension, KV dtype) and unrolls a [`DecodeSchedule`]
//! into the instruction stream the device would see: admit → prefill KV
//! → per-step {append, KV-policy maintenance, attention launch} →
//! retire, with a [`AttInst::Barrier`] closing every decode step (the
//! xPU runs the FC layers between barriers).
//!
//! Two payload modes share the same control skeleton:
//!
//! * [`TracePayload::Functional`] carries real vectors — K/V/Q values
//!   drawn from a seeded `splitmix64` stream ([`kv_pair`],
//!   [`q_vector`]) — plus `load_q`/`read` per head, so the trace can
//!   replay through the functional controller and be checked
//!   bit-for-bit against the direct attention path.
//! * [`TracePayload::Timing`] registers KV in bulk (`declare_kv`) and
//!   launches whole head groups (`run_batch`), producing compact traces
//!   at paper scale for the timing executor.
//!
//! KV policies lower to data, not code: [`KvPolicy::SlidingWindow`]
//! becomes `evict_kv` maintenance, [`KvPolicy::Paged`] becomes
//! `config_pages` plus `map_page`/`unmap_page` deltas keeping page 0
//! (the attention sink) and the most recent pages resident. The two are
//! never combined: eviction renumbers resident tokens, which would
//! invalidate page indices.

use crate::Trace;
use attacc_hbm::integrity::splitmix64;
use attacc_model::{ModelConfig, Op, Phase, StageWorkload};
use attacc_pim::AttInst;
use std::collections::BTreeSet;

/// How a request's KV cache is managed across decode steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum KvPolicy {
    /// Every token stays resident (the paper's workloads).
    Full,
    /// Sliding-window attention: only the most recent `window` tokens
    /// stay resident; older KV is evicted each step.
    SlidingWindow {
        /// Tokens retained per head.
        window: u64,
    },
    /// Paged (blocked) KV: tokens live in fixed pages of
    /// `tokens_per_page`; attention streams page 0 (the attention sink)
    /// plus the `recent_pages` most recent pages.
    Paged {
        /// Tokens per KV page.
        tokens_per_page: u64,
        /// Most-recent pages kept mapped (in addition to the sink).
        recent_pages: u64,
    },
}

/// One request's decode plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RequestPlan {
    /// Prompt length (KV resident before the first decode step).
    pub prompt_l: u64,
    /// Decode steps to run (one token generated per step).
    pub decode_steps: u64,
}

/// What the lowered trace carries per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TracePayload {
    /// Real seeded vectors + per-head `load_q`/`run`/`read`, for
    /// functional replay.
    Functional {
        /// Seed of the `splitmix64` data stream.
        seed: u64,
    },
    /// Bulk `declare_kv` + `run_batch`, for timing replay at scale.
    Timing,
}

/// A batched decode schedule: the workload half of the compiler input
/// (the model graph is the other half).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DecodeSchedule {
    /// One plan per request; request ids are the indices.
    pub requests: Vec<RequestPlan>,
    /// KV-cache policy shared by all requests.
    pub policy: KvPolicy,
    /// Payload mode.
    pub payload: TracePayload,
}

impl DecodeSchedule {
    /// A uniform schedule: `batch` identical requests.
    #[must_use]
    pub fn uniform(
        batch: usize,
        prompt_l: u64,
        decode_steps: u64,
        policy: KvPolicy,
        payload: TracePayload,
    ) -> DecodeSchedule {
        DecodeSchedule {
            requests: vec![RequestPlan { prompt_l, decode_steps }; batch],
            policy,
            payload,
        }
    }
}

fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x243f_6a88_85a3_08d3, |acc, &p| {
        splitmix64(acc ^ p.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// One deterministic f32 in `[-1, 1)` (24 mantissa-safe bits).
fn unit_f32(x: u64) -> f32 {
    ((splitmix64(x) >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0
}

/// The seeded K and V vectors of one token of one head (functional
/// payloads). Exposed so equivalence tests can rebuild the exact
/// operands a compiled trace carries.
#[must_use]
pub fn kv_pair(seed: u64, request: u64, head: u32, token: u64, d: usize) -> (Vec<f32>, Vec<f32>) {
    let base = mix(&[seed, request, u64::from(head), token]);
    let k = (0..d).map(|i| unit_f32(base ^ (i as u64))).collect();
    let v = (0..d).map(|i| unit_f32(base ^ 0x8000_0000 ^ (i as u64))).collect();
    (k, v)
}

/// The seeded Q vector of one head at one decode step (functional
/// payloads).
#[must_use]
pub fn q_vector(seed: u64, request: u64, head: u32, step: u64, d: usize) -> Vec<f32> {
    let base = mix(&[seed, request, u64::from(head), step, 0x5151]);
    (0..d).map(|i| unit_f32(base ^ (i as u64))).collect()
}

/// Pages resident under [`KvPolicy::Paged`] at KV length `len`: page 0
/// (the attention sink) plus the `recent` most recent pages. Empty at
/// `len == 0`.
#[must_use]
pub fn paged_resident(len: u64, tokens_per_page: u64, recent: u64) -> BTreeSet<u64> {
    let mut pages = BTreeSet::new();
    if len == 0 {
        return pages;
    }
    let last = (len - 1) / tokens_per_page.max(1);
    pages.insert(0);
    for back in 0..recent.max(1) {
        if back > last {
            break;
        }
        pages.insert(last - back);
    }
    pages
}

/// Compiles a model graph plus a decode schedule into a trace.
///
/// The head geometry (`n_head`, `d_head`) is read from the attention op
/// of the model's Gen-stage [`StageWorkload`]; the schedule supplies
/// the per-request token plan.
///
/// # Panics
/// Panics if the schedule has no requests, a paged policy has
/// `tokens_per_page == 0`, or a sliding window is zero.
#[must_use]
pub fn compile(model: &ModelConfig, schedule: &DecodeSchedule) -> Trace {
    assert!(!schedule.requests.is_empty(), "schedule needs at least one request");
    match schedule.policy {
        KvPolicy::SlidingWindow { window } => assert!(window > 0, "window must be positive"),
        KvPolicy::Paged { tokens_per_page, recent_pages } => {
            assert!(tokens_per_page > 0, "tokens_per_page must be positive");
            assert!(recent_pages > 0, "recent_pages must be positive");
        }
        KvPolicy::Full => {}
    }

    let max_l = schedule
        .requests
        .iter()
        .map(|r| r.prompt_l + r.decode_steps)
        .max()
        .expect("non-empty");
    let wl = StageWorkload::uniform(
        model,
        Phase::gen(max_l.max(1)),
        schedule.requests.len() as u64,
    );
    let Some(&Op::Attention { n_head, d_head, .. }) = wl.attention_op() else {
        unreachable!("every decoder stage has an attention op");
    };
    let d_head = d_head as usize;

    let mut insts = vec![AttInst::SetModel {
        n_head,
        d_head,
        max_l: max_l.max(1),
    }];
    if let KvPolicy::Paged { tokens_per_page, .. } = schedule.policy {
        insts.push(AttInst::ConfigPages { tokens_per_page });
    }
    for r in 0..schedule.requests.len() as u64 {
        insts.push(AttInst::UpdateRequest { request: r, remove: false });
    }

    // Per-request resident length and mapped pages (all heads move in
    // lockstep, so one copy suffices).
    let mut lens = vec![0u64; schedule.requests.len()];
    let mut mapped: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); schedule.requests.len()];

    let append = |insts: &mut Vec<AttInst>, request: u64, head: u32, token: u64| match schedule
        .payload
    {
        TracePayload::Functional { seed } => {
            let (k, v) = kv_pair(seed, request, head, token, d_head);
            insts.push(AttInst::AppendKv { request, head, k, v });
        }
        TracePayload::Timing => {
            insts.push(AttInst::DeclareKv { request, head, tokens: 1 });
        }
    };

    // KV-policy maintenance after `request`'s length reached `len`.
    let maintain = |insts: &mut Vec<AttInst>,
                    request: u64,
                    len: &mut u64,
                    pages: &mut BTreeSet<u64>| {
        match schedule.policy {
            KvPolicy::Full => {}
            KvPolicy::SlidingWindow { window } => {
                if *len > window {
                    for head in 0..n_head {
                        insts.push(AttInst::EvictKv { request, head, keep_last: window });
                    }
                    *len = window;
                }
            }
            KvPolicy::Paged { tokens_per_page, recent_pages } => {
                let want = paged_resident(*len, tokens_per_page, recent_pages);
                for &page in want.difference(pages) {
                    for head in 0..n_head {
                        insts.push(AttInst::MapPage { request, head, page });
                    }
                }
                for &page in pages.difference(&want) {
                    for head in 0..n_head {
                        insts.push(AttInst::UnmapPage { request, head, page });
                    }
                }
                *pages = want;
            }
        }
    };

    // Prefill: each request ships its prompt KV, then applies the policy.
    for (ri, plan) in schedule.requests.iter().enumerate() {
        let request = ri as u64;
        if plan.prompt_l > 0 {
            match schedule.payload {
                TracePayload::Functional { .. } => {
                    for head in 0..n_head {
                        for token in 0..plan.prompt_l {
                            append(&mut insts, request, head, token);
                        }
                    }
                }
                TracePayload::Timing => {
                    for head in 0..n_head {
                        insts.push(AttInst::DeclareKv {
                            request,
                            head,
                            tokens: plan.prompt_l,
                        });
                    }
                }
            }
            lens[ri] = plan.prompt_l;
        }
        maintain(&mut insts, request, &mut lens[ri], &mut mapped[ri]);
    }
    insts.push(AttInst::Barrier { tag: 0 });

    // Decode: one barrier-delimited step at a time; requests drop out
    // when their plan completes.
    let max_steps = schedule.requests.iter().map(|r| r.decode_steps).max().unwrap_or(0);
    for step in 0..max_steps {
        for (ri, plan) in schedule.requests.iter().enumerate() {
            if step >= plan.decode_steps {
                continue;
            }
            let request = ri as u64;
            let token = plan.prompt_l + step;
            for head in 0..n_head {
                append(&mut insts, request, head, token);
            }
            lens[ri] += 1;
            maintain(&mut insts, request, &mut lens[ri], &mut mapped[ri]);
            match schedule.payload {
                TracePayload::Functional { seed } => {
                    for head in 0..n_head {
                        insts.push(AttInst::LoadQ {
                            request,
                            head,
                            q: q_vector(seed, request, head, step, d_head),
                        });
                    }
                    insts.push(AttInst::RunAttentionBatch { request, head0: 0, n_heads: n_head });
                    for head in 0..n_head {
                        insts.push(AttInst::ReadOutput { request, head });
                    }
                }
                TracePayload::Timing => {
                    insts.push(AttInst::RunAttentionBatch { request, head0: 0, n_heads: n_head });
                }
            }
        }
        insts.push(AttInst::Barrier { tag: (step + 1) as u32 });
    }

    for r in 0..schedule.requests.len() as u64 {
        insts.push(AttInst::UpdateRequest { request: r, remove: true });
    }
    Trace { insts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::DataType;

    fn tiny() -> ModelConfig {
        ModelConfig::builder("tiny")
            .decoders(2)
            .embedding(16)
            .heads(2)
            .feedforward(32)
            .vocab(100)
            .max_seq_len(128)
            .dtype(DataType::Fp16)
            .build()
            .unwrap()
    }

    #[test]
    fn functional_trace_has_expected_shape() {
        let sched = DecodeSchedule::uniform(
            2,
            3,
            2,
            KvPolicy::Full,
            TracePayload::Functional { seed: 7 },
        );
        let t = compile(&tiny(), &sched);
        let count = |op: &str| t.insts.iter().filter(|i| i.opcode() == op).count();
        assert_eq!(count("set_model"), 1);
        assert_eq!(count("admit"), 2);
        // 2 requests × 2 heads × (3 prompt + 2 decode) tokens.
        assert_eq!(count("append"), 2 * 2 * 5);
        assert_eq!(count("load_q"), 2 * 2 * 2);
        assert_eq!(count("run_batch"), 2 * 2);
        assert_eq!(count("read"), 2 * 2 * 2);
        assert_eq!(count("barrier"), 3); // prefill + 2 steps
        assert_eq!(count("retire"), 2);
    }

    #[test]
    fn timing_trace_uses_bulk_declarations() {
        let sched = DecodeSchedule::uniform(1, 512, 4, KvPolicy::Full, TracePayload::Timing);
        let t = compile(&tiny(), &sched);
        let count = |op: &str| t.insts.iter().filter(|i| i.opcode() == op).count();
        assert_eq!(count("append"), 0);
        assert_eq!(count("load_q"), 0);
        // Prefill: one declare_kv per head; decode: one per head per step.
        assert_eq!(count("declare_kv"), 2 + 2 * 4);
        assert_eq!(count("run_batch"), 4);
    }

    #[test]
    fn sliding_window_emits_evictions() {
        let sched = DecodeSchedule::uniform(
            1,
            6,
            3,
            KvPolicy::SlidingWindow { window: 4 },
            TracePayload::Timing,
        );
        let t = compile(&tiny(), &sched);
        let evicts = t.insts.iter().filter(|i| i.opcode() == "evict_kv").count();
        // Prefill trims 6 → 4, then every step trims 5 → 4: 4 events × 2 heads.
        assert_eq!(evicts, 4 * 2);
    }

    #[test]
    fn paged_trace_maps_sink_and_recent_pages() {
        let sched = DecodeSchedule::uniform(
            1,
            9,
            1,
            KvPolicy::Paged { tokens_per_page: 4, recent_pages: 1 },
            TracePayload::Timing,
        );
        let t = compile(&tiny(), &sched);
        assert!(t.insts.iter().any(|i| matches!(i, AttInst::ConfigPages { tokens_per_page: 4 })));
        // len 9 → pages {0, 2}; len 10 keeps {0, 2}: no unmap yet.
        let maps = t.insts.iter().filter(|i| i.opcode() == "map_page").count();
        assert_eq!(maps, 2 * 2, "sink + last page, per head");
        assert_eq!(t.insts.iter().filter(|i| i.opcode() == "unmap_page").count(), 0);
    }

    #[test]
    fn keep_every_page_maps_only_the_pages_that_exist() {
        // `recent_pages = u64::MAX` keeps everything resident: the trace
        // maps the 3 pages of 9 tokens per head and never unmaps.
        let sched = DecodeSchedule::uniform(
            1,
            9,
            2,
            KvPolicy::Paged { tokens_per_page: 4, recent_pages: u64::MAX },
            TracePayload::Timing,
        );
        let t = compile(&tiny(), &sched);
        assert_eq!(t.insts.iter().filter(|i| i.opcode() == "map_page").count(), 3 * 2);
        assert_eq!(t.insts.iter().filter(|i| i.opcode() == "unmap_page").count(), 0);
    }

    #[test]
    fn paged_resident_tracks_growth() {
        assert!(paged_resident(0, 4, 2).is_empty());
        assert_eq!(paged_resident(4, 4, 2), BTreeSet::from([0]));
        assert_eq!(paged_resident(9, 4, 2), BTreeSet::from([0, 1, 2]));
        assert_eq!(paged_resident(17, 4, 2), BTreeSet::from([0, 3, 4]));
    }

    #[test]
    fn seeded_payloads_are_deterministic_and_finite() {
        let (k1, v1) = kv_pair(9, 1, 2, 3, 8);
        let (k2, _) = kv_pair(9, 1, 2, 3, 8);
        assert_eq!(k1, k2);
        assert_ne!(k1, v1);
        let q = q_vector(9, 1, 2, 3, 8);
        for x in k1.iter().chain(&v1).chain(&q) {
            assert!(x.is_finite() && (-1.0..1.0).contains(x));
        }
    }

    #[test]
    fn heterogeneous_steps_retire_requests_early() {
        let sched = DecodeSchedule {
            requests: vec![
                RequestPlan { prompt_l: 2, decode_steps: 1 },
                RequestPlan { prompt_l: 2, decode_steps: 3 },
            ],
            policy: KvPolicy::Full,
            payload: TracePayload::Timing,
        };
        let t = compile(&tiny(), &sched);
        let runs_req0 = t
            .insts
            .iter()
            .filter(|i| matches!(i, AttInst::RunAttentionBatch { request: 0, .. }))
            .count();
        let runs_req1 = t
            .insts
            .iter()
            .filter(|i| matches!(i, AttInst::RunAttentionBatch { request: 1, .. }))
            .count();
        assert_eq!((runs_req0, runs_req1), (1, 3));
    }
}
