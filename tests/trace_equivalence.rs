//! Acceptance suite for trace-driven execution.
//!
//! The contract of the trace subsystem is *zero drift*: executing a
//! workload through an instruction trace must reproduce what the direct
//! (non-trace) paths produce — bit-exactly, not approximately.
//!
//! * Timing: a compiled paper workload replayed by
//!   [`attacc::trace::execute_timing`] prices the exact same heads as a
//!   direct loop over [`attacc::trace::head_cost`] — same bits in the
//!   accumulated attention clock.
//! * Functional: a compiled functional trace replayed through the
//!   [`attacc::pim::AttAccController`] returns the same floats as the
//!   direct unit pipeline over the same operands: the score GEMV, the
//!   `1/√d` scale, the softmax unit and the context GEMV, called one
//!   after another.
//! * Reporting: the `trace_sim` tables are byte-identical at any sweep
//!   thread count and with a cold or warm timing cache — like every
//!   other table of the evaluation.

use attacc::pim::{AttAccController, GemvMode, GemvUnit, MappingPolicy, Precision, SoftmaxUnit};
use attacc::pim::numeric::Matrix;
use attacc::trace::{
    compile, execute_timing, head_cost, kv_pair, paged_resident, q_vector, replay,
    DecodeSchedule, KvPolicy, TimingConfig, Trace, TracePayload,
};
use attacc_hbm::StackGeometry;
use attacc_model::{DataType, ModelConfig};
use attacc_sim::engine::{self, TimingCache};
use std::sync::{Mutex, PoisonError};

/// Serializes tests that mutate the process-wide thread override or the
/// global timing cache. A test that panics while holding it does not fail
/// the ones after it: they take the lock past the poison, and each sets
/// the thread count it runs at and clears the cache before it reads it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn timing_replay_prices_the_exact_head_schedule() {
    let cfg = TimingConfig::paper();
    let (batch, prompt_l, steps) = (2usize, 512u64, 4u64);
    let sched = DecodeSchedule::uniform(batch, prompt_l, steps, KvPolicy::Full, TracePayload::Timing);
    let trace = compile(&ModelConfig::gpt3_175b(), &sched);
    let report = execute_timing(&cfg, &trace).unwrap();

    // The direct path: the same heads in the same order, priced by the
    // same engine helper. Bit-exact equality, not a tolerance.
    let n_head = 96u64;
    let mut want_attention = 0.0f64;
    let mut want_energy = 0.0f64;
    for step in 0..steps {
        for _request in 0..batch {
            // One launch (`run_batch`) sums its heads before folding into
            // the per-opcode total — mirror that association exactly.
            let mut launch_energy = 0.0f64;
            for _head in 0..n_head {
                let cost = head_cost(&cfg, prompt_l + step + 1, 128);
                want_attention += cost.time_s;
                launch_energy += cost.energy_j;
            }
            want_energy += launch_energy;
        }
    }
    assert_eq!(report.heads_run, batch as u64 * steps * n_head);
    assert_eq!(report.attention_s.to_bits(), want_attention.to_bits());
    // Energy also carries the KV-ingest term; the kernel share alone
    // must match the direct loop bit-for-bit.
    let kernel_j: f64 = report
        .per_opcode
        .iter()
        .filter(|(op, _)| *op == "run_batch")
        .map(|(_, c)| c.energy_j)
        .sum();
    assert_eq!(kernel_j.to_bits(), want_energy.to_bits());
}

/// Round-tripping a trace through its text form must not change what it
/// computes: same instructions, same report.
#[test]
fn timing_report_survives_the_text_codec() {
    let cfg = TimingConfig::paper();
    for policy in [
        KvPolicy::Full,
        KvPolicy::SlidingWindow { window: 256 },
        KvPolicy::Paged { tokens_per_page: 256, recent_pages: 2 },
    ] {
        let sched = DecodeSchedule::uniform(2, 2048, 4, policy, TracePayload::Timing);
        let trace = compile(&ModelConfig::gpt3_175b(), &sched);
        let reparsed = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(reparsed, trace);
        let a = execute_timing(&cfg, &trace).unwrap();
        let b = execute_timing(&cfg, &reparsed).unwrap();
        assert_eq!(a, b, "{policy:?}");
    }
}

fn functional_controller() -> AttAccController {
    let geom = StackGeometry {
        pseudo_channels: 4,
        bank_groups_per_rank: 2,
        ranks: 2,
        banks_per_group: 2,
        ..StackGeometry::hbm3_8hi()
    };
    let mut ctl = AttAccController::new(&geom, 2, Precision::Exact);
    // Flat mapping (no hierarchy) on the exact datapath reproduces the
    // direct unit pipeline's arithmetic exactly.
    ctl.set_policies(
        MappingPolicy { levels: vec![], unit_mode: GemvMode::AdderTree },
        MappingPolicy { levels: vec![], unit_mode: GemvMode::Accumulator },
    );
    ctl
}

fn tiny_model() -> ModelConfig {
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
fn functional_replay_matches_the_direct_attention_path_bit_for_bit() {
    let d_head = 8usize;
    let (prompt_l, steps, seed) = (6u64, 3u64, 20260808u64);
    for policy in [
        KvPolicy::Full,
        KvPolicy::SlidingWindow { window: 4 },
        KvPolicy::Paged { tokens_per_page: 3, recent_pages: 1 },
    ] {
        let sched = DecodeSchedule::uniform(
            2,
            prompt_l,
            steps,
            policy,
            TracePayload::Functional { seed },
        );
        let trace = compile(&tiny_model(), &sched);
        let mut ctl = functional_controller();
        let outcome = replay(&mut ctl, &trace).unwrap();
        assert_eq!(outcome.outputs.len() as u64, 2 * steps * 2, "{policy:?}");

        let unit = GemvUnit::exact();
        let scale = 1.0 / (d_head as f64).sqrt();
        let mut seen = std::collections::HashMap::<(u64, u32), u64>::new();
        for ((request, head), got) in &outcome.outputs {
            let step = seen.entry((*request, *head)).or_insert(0);
            let total = prompt_l + *step + 1;
            let tokens: Vec<u64> = match policy {
                KvPolicy::Full => (0..total).collect(),
                KvPolicy::SlidingWindow { window } => (total - total.min(window)..total).collect(),
                KvPolicy::Paged { tokens_per_page, recent_pages } => {
                    let pages = paged_resident(total, tokens_per_page, recent_pages);
                    (0..total).filter(|t| pages.contains(&(t / tokens_per_page))).collect()
                }
            };
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
            let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{policy:?} req {request} head {head} step {step}");
            *step += 1;
        }
    }
}

fn render_trace_tables() -> String {
    format!(
        "{}\n{}\n{}",
        attacc_bench::trace_paper_table(),
        attacc_bench::trace_workloads_table(),
        attacc_bench::trace_opcode_table(),
    )
}

#[test]
fn trace_tables_are_byte_identical_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = render_trace_tables();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let parallel = render_trace_tables();
        assert_eq!(serial, parallel, "trace tables changed between 1 and {threads} threads");
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn trace_tables_are_cache_state_invariant() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    TimingCache::global().clear();
    let cold = render_trace_tables();
    let warm = render_trace_tables();
    assert_eq!(cold, warm, "trace tables changed between cold and warm timing cache");
}
