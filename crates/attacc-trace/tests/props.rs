//! Property-based tests for the trace subsystem: the text codec is a
//! byte-identical round trip over arbitrary compiled traces and
//! arbitrary well-formed instructions, and functional replay of a
//! compiled trace is bit-for-bit the direct attention pipeline.

use attacc_hbm::StackGeometry;
use attacc_pim::numeric::Matrix;
use attacc_pim::{
    AttAccController, AttInst, FaultPlan, GemvMode, MappingPolicy, Precision, ProtectedAttention,
};
use attacc_trace::{
    compile, kv_pair, paged_resident, q_vector, replay, DecodeSchedule, KvPolicy, RequestPlan,
    Trace, TracePayload,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn tiny_model(heads: u32, d_head: usize) -> attacc_model::ModelConfig {
    attacc_model::ModelConfig::builder("tiny")
        .decoders(2)
        .embedding(u64::from(heads) * d_head as u64)
        .heads(heads)
        .feedforward(4 * u64::from(heads) * d_head as u64)
        .vocab(100)
        .max_seq_len(256)
        .dtype(attacc_model::DataType::Fp16)
        .build()
        .unwrap()
}

fn small_controller() -> AttAccController {
    let geom = StackGeometry {
        pseudo_channels: 4,
        bank_groups_per_rank: 2,
        ranks: 2,
        banks_per_group: 2,
        ..StackGeometry::hbm3_8hi()
    };
    AttAccController::new(&geom, 2, Precision::Exact)
}

fn arb_policy() -> impl Strategy<Value = KvPolicy> {
    prop_oneof![
        Just(KvPolicy::Full),
        (1u64..6).prop_map(|window| KvPolicy::SlidingWindow { window }),
        (1u64..4, 1u64..3).prop_map(|(tokens_per_page, recent_pages)| KvPolicy::Paged {
            tokens_per_page,
            recent_pages,
        }),
    ]
}

fn arb_schedule() -> impl Strategy<Value = DecodeSchedule> {
    let plan = (1u64..6, 1u64..4)
        .prop_map(|(prompt_l, decode_steps)| RequestPlan { prompt_l, decode_steps });
    let payload = prop_oneof![
        Just(TracePayload::Timing),
        (u64::MIN..=u64::MAX).prop_map(|seed| TracePayload::Functional { seed }),
    ];
    (prop::collection::vec(plan, 1..3), arb_policy(), payload).prop_map(
        |(requests, policy, payload)| DecodeSchedule { requests, policy, payload },
    )
}

/// Finite f32s drawn uniformly from the bit space — subnormals, signed
/// zeros and extreme exponents included, the cases where shortest
/// round-trip printing earns its keep. An all-ones exponent (inf/NaN)
/// has one exponent bit cleared, which lands on a finite pattern.
fn arb_finite_f32() -> impl Strategy<Value = f32> {
    (u32::MIN..=u32::MAX).prop_map(|bits| {
        let bits = if (bits >> 23) & 0xff == 0xff { bits & !(1 << 23) } else { bits };
        f32::from_bits(bits)
    })
}

fn arb_vec_f32() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(arb_finite_f32(), 0..6)
}

fn arb_inst() -> impl Strategy<Value = AttInst> {
    prop_oneof![
        (1u32..8, 1usize..16, 1u64..100)
            .prop_map(|(n_head, d_head, max_l)| AttInst::SetModel { n_head, d_head, max_l }),
        (u64::MIN..=u64::MAX, 0u32..2)
            .prop_map(|(request, remove)| AttInst::UpdateRequest { request, remove: remove == 1 }),
        (0u64..8, 0u32..8, arb_vec_f32(), arb_vec_f32())
            .prop_map(|(request, head, k, v)| AttInst::AppendKv {
                request,
                head,
                k: Box::new(k),
                v: Box::new(v),
            }),
        (0u64..8, 0u32..8, 0u64..1000)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (0u64..8, 0u32..8, arb_vec_f32())
            .prop_map(|(request, head, q)| AttInst::LoadQ { request, head, q: Box::new(q) }),
        (0u64..8, 0u32..8).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (0u64..8, 0u32..8, 1u32..16).prop_map(|(request, head0, n_heads)| {
            AttInst::RunAttentionBatch { request, head0, n_heads }
        }),
        (0u64..8, 0u32..8).prop_map(|(request, head)| AttInst::ReadOutput { request, head }),
        (0u64..8, 0u32..8, 0u64..1000)
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
        (1u64..100).prop_map(|tokens_per_page| AttInst::ConfigPages { tokens_per_page }),
        (0u64..8, 0u32..8, 0u64..100)
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (0u64..8, 0u32..8, 0u64..100)
            .prop_map(|(request, head, page)| AttInst::UnmapPage { request, head, page }),
        (u32::MIN..=u32::MAX).prop_map(|tag| AttInst::Barrier { tag }),
    ]
}

/// The tokens a head actually attends over at decode step `step`
/// (0-based), for a request with `prompt_l` prompt tokens: the policy's
/// visibility rule, stated independently of the compiler's incremental
/// evict/map bookkeeping.
fn visible_tokens(policy: KvPolicy, prompt_l: u64, step: u64) -> Vec<u64> {
    let total = prompt_l + step + 1;
    match policy {
        KvPolicy::Full => (0..total).collect(),
        KvPolicy::SlidingWindow { window } => {
            let kept = total.min(window);
            (total - kept..total).collect()
        }
        KvPolicy::Paged { tokens_per_page, recent_pages } => {
            let pages = paged_resident(total, tokens_per_page, recent_pages);
            (0..total).filter(|t| pages.contains(&(t / tokens_per_page))).collect()
        }
    }
}

proptest! {
    /// `parse ∘ format` is the identity on every compiled trace — and
    /// `format ∘ parse` is the identity on its text, so the file format
    /// is canonical in both directions.
    #[test]
    fn compiled_traces_round_trip_byte_identically(
        schedule in arb_schedule(),
        heads in 1u32..3,
        d_head in prop_oneof![Just(4usize), Just(8usize)],
    ) {
        let trace = compile(&tiny_model(heads, d_head), &schedule);
        let text = trace.to_text();
        let back = Trace::parse(&text).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_text(), text);
    }

    /// Every well-formed instruction survives format → parse with its
    /// float payloads bit-identical.
    #[test]
    fn random_instructions_round_trip(insts in prop::collection::vec(arb_inst(), 0..20)) {
        let trace = Trace { insts };
        let text = trace.to_text();
        let back = Trace::parse(&text).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_text(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Functional replay through the controller is bit-for-bit the
    /// direct `ProtectedAttention` pipeline over the policy's visible
    /// tokens — for full, sliding-window, and paged KV alike.
    #[test]
    fn replay_matches_direct_attention_bit_for_bit(
        policy in arb_policy(),
        seed in u64::MIN..=u64::MAX,
        batch in 1usize..3,
        prompt_l in 1u64..6,
        decode_steps in 1u64..4,
        heads in 1u32..3,
        d_head in prop_oneof![Just(4usize), Just(8usize)],
    ) {
        let schedule = DecodeSchedule::uniform(
            batch, prompt_l, decode_steps, policy, TracePayload::Functional { seed },
        );
        let trace = compile(&tiny_model(heads, d_head), &schedule);

        let mut ctl = small_controller();
        // Flat mapping (no hierarchy) on the exact datapath reproduces
        // the integrity pipeline's arithmetic exactly.
        ctl.set_policies(
            MappingPolicy { levels: vec![], unit_mode: GemvMode::AdderTree },
            MappingPolicy { levels: vec![], unit_mode: GemvMode::Accumulator },
        );
        let outcome = replay(&mut ctl, &trace).unwrap();
        prop_assert_eq!(
            outcome.outputs.len() as u64,
            batch as u64 * decode_steps * u64::from(heads)
        );

        let reference = ProtectedAttention::exact();
        let mut steps_seen: HashMap<(u64, u32), u64> = HashMap::new();
        for ((request, head), got) in &outcome.outputs {
            let step = steps_seen.entry((*request, *head)).or_insert(0);
            let tokens = visible_tokens(policy, prompt_l, *step);
            let l = tokens.len();
            let mut kt = Matrix::zeros(d_head, l);
            let mut v = Matrix::zeros(l, d_head);
            for (j, &tok) in tokens.iter().enumerate() {
                let (kv_k, kv_v) = kv_pair(seed, *request, *head, tok, d_head);
                for r in 0..d_head {
                    kt.set(r, j, kv_k[r]);
                    v.set(j, r, kv_v[r]);
                }
            }
            let q = q_vector(seed, *request, *head, *step, d_head);
            let want = reference.attention_unprotected(&q, &kt, &v, &FaultPlan::none());
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            *step += 1;
        }
    }
}
