//! Property-based tests for the trace subsystem: the text codec is a
//! byte-identical round trip over arbitrary compiled traces and
//! arbitrary well-formed instructions, functional replay of a compiled
//! trace is bit-for-bit the direct attention pipeline, and neither
//! replay panics on a malformed trace.

use attacc_hbm::StackGeometry;
use attacc_pim::numeric::Matrix;
use attacc_pim::{
    AttAccController, AttInst, GemvMode, GemvUnit, MappingPolicy, Precision, SoftmaxUnit,
};
use attacc_trace::{
    compile, execute_timing, kv_pair, paged_resident, q_vector, replay, DecodeSchedule, KvPolicy,
    RequestPlan, TimingConfig, Trace, TracePayload,
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

/// A `set_model` whose sizes include zero and a `max_l` whose KV extent
/// overflows `u64`.
fn arb_set_model() -> impl Strategy<Value = AttInst> {
    let d_head = prop_oneof![Just(0usize), Just(1), Just(4)];
    let max_l = prop_oneof![
        Just(0u64),
        Just(1),
        Just(2),
        Just(3),
        Just(u64::MAX / 4),
        Just(u64::MAX),
    ];
    (0u32..4, d_head, max_l)
        .prop_map(|(n_head, d_head, max_l)| AttInst::SetModel { n_head, d_head, max_l })
}

/// An instruction of any of the 14 opcodes over request and head ids
/// 0–2, 0–4 tokens, pages 0–3 and vectors of 0–5 elements, so a case
/// allocates a few KB.
fn arb_small_inst() -> impl Strategy<Value = AttInst> {
    prop_oneof![
        arb_set_model(),
        (0u64..3, 0u32..2)
            .prop_map(|(request, remove)| AttInst::UpdateRequest { request, remove: remove == 1 }),
        (0u64..3, 0u32..3, arb_vec_f32(), arb_vec_f32()).prop_map(|(request, head, k, v)| {
            AttInst::AppendKv { request, head, k: Box::new(k), v: Box::new(v) }
        }),
        (0u64..3, 0u32..3, 0u64..5)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (0u64..3, 0u32..3, arb_vec_f32())
            .prop_map(|(request, head, q)| AttInst::LoadQ { request, head, q: Box::new(q) }),
        (0u64..3, 0u32..3).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (0u64..3, 0u32..3, 0u32..4).prop_map(|(request, head0, n_heads)| {
            AttInst::RunAttentionBatch { request, head0, n_heads }
        }),
        (0u64..3, 0u32..3).prop_map(|(request, head)| AttInst::ReadOutput { request, head }),
        (0u64..3, 0u32..3, 0u64..5)
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
        (0u64..5).prop_map(|tokens_per_page| AttInst::ConfigPages { tokens_per_page }),
        (0u64..3, 0u32..3, 0u64..4)
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (0u64..3, 0u32..3, 0u64..4)
            .prop_map(|(request, head, page)| AttInst::UnmapPage { request, head, page }),
        (0u32..4).prop_map(|tag| AttInst::Barrier { tag }),
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
    /// direct unit pipeline over the policy's visible tokens — for full,
    /// sliding-window, and paged KV alike.
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
        // the direct unit pipeline's arithmetic exactly.
        ctl.set_policies(
            MappingPolicy { levels: vec![], unit_mode: GemvMode::AdderTree },
            MappingPolicy { levels: vec![], unit_mode: GemvMode::Accumulator },
        );
        let outcome = replay(&mut ctl, &trace).unwrap();
        prop_assert_eq!(
            outcome.outputs.len() as u64,
            batch as u64 * decode_steps * u64::from(heads)
        );

        let unit = GemvUnit::exact();
        let scale = 1.0 / (d_head as f64).sqrt();
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
            // The direct unit pipeline: score GEMV, the 1/√d scale in f64,
            // softmax, context GEMV.
            let scores: Vec<f32> = unit
                .gemv(GemvMode::AdderTree, &q, &kt)
                .into_iter()
                .map(|s| (f64::from(s) * scale) as f32)
                .collect();
            let weights = SoftmaxUnit::new().compute(&scores);
            let want = unit.gemv(GemvMode::Accumulator, &weights, &v);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            *step += 1;
        }
    }
}

/// The instructions of `trace` that `accepts` takes one at a time, each
/// on top of those it took before.
fn accepted(trace: &Trace, accepts: impl Fn(&Trace) -> bool) -> Trace {
    let mut kept = Trace { insts: Vec::new() };
    for inst in &trace.insts {
        kept.insts.push(inst.clone());
        if !accepts(&kept) {
            kept.insts.pop();
        }
    }
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Replay never panics: any short trace, well formed or not, comes
    /// back from functional and from timing replay as `Ok` or `Err`. So
    /// does the part of it each replay accepts one instruction at a time,
    /// which reaches the states that the first error cuts a random trace
    /// off from.
    #[test]
    fn replay_never_panics(
        model in arb_set_model(),
        request in 0u64..3,
        rest in prop::collection::vec(arb_small_inst(), 10..11),
        len in 1usize..13,
    ) {
        // A `set_model` and an `admit`, as compiled traces open, then
        // anything; cut to 1–12 instructions.
        let admit = AttInst::UpdateRequest { request, remove: false };
        let insts = [model, admit].into_iter().chain(rest).take(len).collect();
        let trace = Trace { insts };
        let functional = |t: &Trace| replay(&mut small_controller(), t).is_ok();
        let timing = |t: &Trace| execute_timing(&TimingConfig::paper(), t).is_ok();
        let outcome = std::panic::catch_unwind(|| {
            functional(&trace);
            timing(&trace);
            functional(&accepted(&trace, functional));
            timing(&accepted(&trace, timing));
        });
        prop_assert!(outcome.is_ok(), "replay panicked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A compiled trace with up to three short random instructions spliced
    /// in never panics either replay. The splices land where heads are
    /// resident and hold KV, Q and outputs, which random traces rarely
    /// reach.
    #[test]
    fn spliced_compiled_traces_never_panic(
        schedule in arb_schedule(),
        seed in u64::MIN..=u64::MAX,
        splices in prop::collection::vec((0usize..64, arb_small_inst()), 1..4),
    ) {
        let schedule = DecodeSchedule { payload: TracePayload::Functional { seed }, ..schedule };
        let mut trace = compile(&tiny_model(2, 4), &schedule);
        for (at, inst) in splices {
            trace.insts.insert(at % (trace.insts.len() + 1), inst);
        }
        let outcome = std::panic::catch_unwind(|| {
            let _ = replay(&mut small_controller(), &trace);
            let _ = execute_timing(&TimingConfig::paper(), &trace);
        });
        prop_assert!(outcome.is_ok(), "replay panicked");
    }
}

