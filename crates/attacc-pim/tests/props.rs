//! Property-based tests: the partitioned PIM dataflow is numerically
//! equivalent to reference attention for arbitrary shapes and mappings,
//! and the FP16 rounding agrees with a binary16 codec written here.

use attacc_hbm::StackGeometry;
use attacc_pim::accumulator::Accumulator;
use attacc_pim::mapping::hierarchical_gemv;
use attacc_pim::numeric::{attention_ref, Matrix};
use attacc_pim::{
    AttAccController, AttInst, GemvMode, GemvUnit, HeadAllocator, LevelSpec, MappingPolicy,
    Partitioning, Precision,
};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = MappingPolicy> {
    let level = (1usize..6, prop_oneof![
        Just(Partitioning::RowWise),
        Just(Partitioning::ColWise)
    ])
        .prop_map(|(fanout, partitioning)| LevelSpec { fanout, partitioning });
    (
        prop::collection::vec(level, 0..4),
        prop_oneof![Just(GemvMode::AdderTree), Just(GemvMode::Accumulator)],
    )
        .prop_map(|(levels, unit_mode)| MappingPolicy { levels, unit_mode })
}

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((-100i32..100).prop_map(|v| v as f32 * 0.01), len..=len)
}

#[allow(clippy::needless_range_loop)]
fn reference_gemv(x: &[f32], m: &Matrix) -> Vec<f64> {
    let mut y = vec![0.0f64; m.cols()];
    for (j, y_j) in y.iter_mut().enumerate() {
        for r in 0..m.rows() {
            *y_j += f64::from(x[r]) * f64::from(m.get(r, j));
        }
    }
    y
}

proptest! {
    /// ANY hierarchical mapping policy computes the exact GEMV.
    #[test]
    fn any_mapping_policy_is_exact(
        policy in arb_policy(),
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let x: Vec<f32> = (0..k).map(|i| ((i as u64 * 7 + seed) % 13) as f32 * 0.1 - 0.6).collect();
        let data: Vec<f32> = (0..k * n)
            .map(|i| ((i as u64 * 11 + seed * 3) % 17) as f32 * 0.05 - 0.4)
            .collect();
        let m = Matrix::from_vec(k, n, data);
        let got = hierarchical_gemv(&GemvUnit::exact(), &Accumulator::exact(), &policy, &x, &m);
        let want = reference_gemv(&x, &m);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((f64::from(*g) - w).abs() < 1e-3, "{} vs {}", g, w);
        }
    }

    /// The full controller pipeline (AppendKv → LoadQ → RunAttention →
    /// ReadOutput) matches reference attention for arbitrary shapes.
    #[test]
    fn controller_attention_matches_reference(
        d_exp in 1u32..5,          // d_head in {2,4,8,16}
        l in 1usize..24,
        kv in arb_vec(16 * 24 * 2),
        q in arb_vec(16),
    ) {
        let d = 1usize << d_exp;
        let geom = StackGeometry {
            pseudo_channels: 2,
            bank_groups_per_rank: 2,
            ranks: 1,
            banks_per_group: 2,
            ..StackGeometry::hbm3_8hi()
        };
        let mut ctl = AttAccController::new(&geom, 2, Precision::Exact);
        ctl.execute(AttInst::SetModel { n_head: 1, d_head: d, max_l: 4096 }).unwrap();
        ctl.execute(AttInst::UpdateRequest { request: 0, remove: false }).unwrap();
        let mut kt = vec![0.0f32; d * l];
        let mut v = vec![0.0f32; l * d];
        for tok in 0..l {
            let kvec: Vec<f32> = (0..d).map(|i| kv[(tok * d + i) * 2]).collect();
            let vvec: Vec<f32> = (0..d).map(|i| kv[(tok * d + i) * 2 + 1]).collect();
            for i in 0..d {
                kt[i * l + tok] = kvec[i];
                v[tok * d + i] = vvec[i];
            }
            let (k, v) = (Box::new(kvec), Box::new(vvec));
            ctl.execute(AttInst::AppendKv { request: 0, head: 0, k, v }).unwrap();
        }
        let qv: Vec<f32> = q[..d].to_vec();
        ctl.execute(AttInst::LoadQ { request: 0, head: 0, q: Box::new(qv.clone()) }).unwrap();
        ctl.execute(AttInst::RunAttention { request: 0, head: 0 }).unwrap();
        let got = ctl.execute(AttInst::ReadOutput { request: 0, head: 0 }).unwrap().unwrap();
        let want = attention_ref(&qv, &kt, &v, l);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((f64::from(*g) - w).abs() < 1e-3, "{} vs {}", g, w);
        }
    }

    /// The FP16 datapath stays within a small absolute error of the exact
    /// result (softmax outputs are bounded by 1, so context values are
    /// bounded by max |V|).
    #[test]
    fn fp16_dataflow_bounded_error(
        l in 1usize..20,
        seed in 0u64..500,
    ) {
        let d = 8usize;
        let geom = StackGeometry {
            pseudo_channels: 2,
            bank_groups_per_rank: 2,
            ranks: 1,
            banks_per_group: 2,
            ..StackGeometry::hbm3_8hi()
        };
        let gen = |a: u64, b: usize| ((a * 37 + b as u64 * 13 + seed) % 19) as f32 * 0.1 - 0.9;
        let run = |precision| {
            let mut ctl = AttAccController::new(&geom, 1, precision);
            ctl.execute(AttInst::SetModel { n_head: 1, d_head: d, max_l: 4096 }).unwrap();
            ctl.execute(AttInst::UpdateRequest { request: 0, remove: false }).unwrap();
            for tok in 0..l {
                let k: Vec<f32> = (0..d).map(|i| gen(tok as u64, i)).collect();
                let v: Vec<f32> = (0..d).map(|i| gen(tok as u64 + 999, i)).collect();
                let (k, v) = (Box::new(k), Box::new(v));
                ctl.execute(AttInst::AppendKv { request: 0, head: 0, k, v }).unwrap();
            }
            let q: Vec<f32> = (0..d).map(|i| gen(777, i)).collect();
            ctl.execute(AttInst::LoadQ { request: 0, head: 0, q: Box::new(q) }).unwrap();
            ctl.execute(AttInst::RunAttention { request: 0, head: 0 }).unwrap();
            ctl.execute(AttInst::ReadOutput { request: 0, head: 0 }).unwrap().unwrap()
        };
        let exact = run(Precision::Exact);
        let fp16 = run(Precision::Fp16);
        for (e, f) in exact.iter().zip(&fp16) {
            prop_assert!((e - f).abs() < 0.05, "{} vs {}", e, f);
        }
    }

    /// Greedy head allocation keeps the imbalance within one head of the
    /// mean when heads are identical.
    #[test]
    fn greedy_allocation_near_balanced(
        n_stacks in 1usize..64,
        requests in 1u64..40,
        heads in 1u32..32,
        bytes in 1u64..10_000,
    ) {
        let mut a = HeadAllocator::new(n_stacks);
        for r in 0..requests {
            a.allocate(r, heads, bytes);
        }
        let min = (0..n_stacks).map(|s| a.load(s)).min().unwrap();
        prop_assert!(a.max_load() - min <= bytes, "max {} min {}", a.max_load(), min);
    }

    /// Allocation followed by release is a no-op on the loads.
    #[test]
    fn allocate_release_roundtrip(
        n_stacks in 1usize..16,
        ops in prop::collection::vec((0u64..8, 1u32..8, 1u64..100), 1..30),
    ) {
        let mut a = HeadAllocator::new(n_stacks);
        let mut live: Vec<u64> = Vec::new();
        for (req, heads, bytes) in ops {
            if live.contains(&req) {
                a.release(req);
                live.retain(|&r| r != req);
            } else {
                a.allocate(req, heads, bytes);
                live.push(req);
            }
        }
        for &r in &live {
            a.release(r);
        }
        prop_assert_eq!(a.total_load(), 0);
        for s in 0..n_stacks {
            prop_assert_eq!(a.load(s), 0);
        }
    }
}

/// Encodes `x` as an IEEE-754 binary16 bit pattern, rounding with
/// `f16_round` first; NaN encodes to the canonical quiet NaN `0x7e00`.
/// With [`f16_from_bits`] it packs and unpacks the bit fields directly,
/// so a round trip checks `f16_round` against the format itself.
fn f16_to_bits(x: f32) -> u16 {
    let r = attacc_pim::numeric::f16_round(x);
    if r.is_nan() {
        return 0x7e00;
    }
    let bits = r.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    if r.is_infinite() {
        return sign | 0x7c00;
    }
    if r == 0.0 {
        return sign;
    }
    let exp = ((bits >> 23) & 0xff) as i32 - 127;
    if exp >= -14 {
        // Normal binary16: 5-bit exponent biased by 15, top 10 fraction
        // bits (exact after f16_round).
        let frac = ((bits >> 13) & 0x3ff) as u16;
        sign | (((exp + 15) as u16) << 10) | frac
    } else {
        // Subnormal: magnitude is frac/1024 × 2^-14 with frac in 1..1024.
        let mag = f32::from_bits(bits & 0x7fff_ffff);
        let frac = (mag / 2.0f32.powi(-14) * 1024.0).round_ties_even() as u16;
        sign | frac
    }
}

/// Decodes an IEEE-754 binary16 bit pattern into `f32`. Exact for every
/// pattern; the round-trip laws are
/// `f16_from_bits(f16_to_bits(x)) == f16_round(x)` and
/// `f16_to_bits(f16_from_bits(b)) == b` for non-NaN `b`.
fn f16_from_bits(bits: u16) -> f32 {
    let sign = if bits & 0x8000 != 0 { -1.0f32 } else { 1.0 };
    let exp = ((bits >> 10) & 0x1f) as i32;
    let frac = f32::from(bits & 0x3ff);
    match exp {
        0 => sign * frac / 1024.0 * 2.0f32.powi(-14),
        0x1f => {
            if frac == 0.0 {
                sign * f32::INFINITY
            } else {
                f32::NAN
            }
        }
        _ => sign * (1.0 + frac / 1024.0) * 2.0f32.powi(exp - 15),
    }
}

#[test]
fn f16_bits_round_trip_values() {
    use attacc_pim::numeric::f16_round;
    for i in 0..4000 {
        let v = (i as f32 - 2000.0) * 0.7319;
        assert_eq!(f16_from_bits(f16_to_bits(v)), f16_round(v), "v = {v}");
    }
    for v in [0.0f32, -0.0, 65504.0, -65504.0, 2.0f32.powi(-24), f32::INFINITY] {
        assert_eq!(f16_from_bits(f16_to_bits(v)), f16_round(v), "v = {v}");
    }
}

#[test]
fn f16_bits_round_trip_patterns() {
    // Every non-NaN binary16 pattern survives decode → encode.
    for bits in 0..=u16::MAX {
        let v = f16_from_bits(bits);
        if v.is_nan() {
            continue;
        }
        assert_eq!(f16_to_bits(v), bits, "pattern {bits:#06x}");
    }
}

#[test]
fn f16_special_encodings() {
    assert_eq!(f16_to_bits(f32::INFINITY), 0x7c00);
    assert_eq!(f16_to_bits(f32::NEG_INFINITY), 0xfc00);
    assert_eq!(f16_to_bits(f32::NAN), 0x7e00);
    assert_eq!(f16_to_bits(0.0), 0x0000);
    assert_eq!(f16_to_bits(-0.0), 0x8000);
    assert_eq!(f16_to_bits(1.0), 0x3c00);
    assert_eq!(f16_to_bits(65504.0), 0x7bff);
    assert!(f16_from_bits(0x7e00).is_nan());
}

proptest! {
    /// Decoding any binary16 bit pattern and re-encoding it returns the
    /// same pattern (NaN payloads canonicalize to the quiet NaN, which is
    /// a fixed point).
    #[test]
    fn f16_bits_decode_encode_round_trips(bits in 0u16..=u16::MAX) {
        let v = f16_from_bits(bits);
        let back = f16_to_bits(v);
        if v.is_nan() {
            prop_assert_eq!(back, 0x7e00); // NaN canonicalizes
            prop_assert!(f16_from_bits(back).is_nan());
        } else {
            prop_assert_eq!(back, bits);
        }
    }

    /// Encoding an arbitrary f32 agrees with the rounding the datapath
    /// already uses: `f16_from_bits(f16_to_bits(x)) == f16_round(x)`.
    #[test]
    fn f16_encode_agrees_with_f16_round(xbits in 0u32..=u32::MAX) {
        use attacc_pim::numeric::f16_round;
        let x = f32::from_bits(xbits);
        let via_bits = f16_from_bits(f16_to_bits(x));
        let direct = f16_round(x);
        if direct.is_nan() {
            prop_assert!(via_bits.is_nan());
        } else {
            prop_assert_eq!(via_bits.to_bits(), direct.to_bits());
        }
    }
}

/// The eight attention configurations the memo property covers: plain
/// and systolic devices at `Bank` and `Buffer` placement, each with an
/// MHA and a GQA model.
fn attention_configs() -> Vec<(attacc_pim::AttAccDevice, attacc_model::ModelConfig)> {
    use attacc_model::{AttentionVariant, ModelConfig};
    use attacc_pim::{AttAccDevice, GemvPlacement};
    let mha = ModelConfig::gpt3_175b();
    let gqa = ModelConfig::gpt3_175b().with_attention(AttentionVariant::Gqa { group_size: 8 });
    let mut configs = Vec::new();
    for placement in [GemvPlacement::Bank, GemvPlacement::Buffer] {
        for systolic in [false, true] {
            let plain = AttAccDevice::paper_40_stacks(placement);
            let dev = if systolic { plain.with_systolic() } else { plain };
            configs.push((dev.clone(), mha.clone()));
            configs.push((dev, gqa.clone()));
        }
    }
    configs
}

/// One decoder's attention composed from the public two-pass building
/// blocks: critical-stack timing over per-group head counts, then device
/// energy over every head.
fn two_pass_attention(
    dev: &attacc_pim::AttAccDevice,
    model: &attacc_model::ModelConfig,
    groups: &[(u64, u64)],
    pipelined: bool,
) -> attacc_pim::AttentionTiming {
    use attacc_pim::attention::{attention_energy_j, stack_attention_timing};
    use attacc_pim::HeadJob;
    let stacks = u64::from(dev.n_stacks);
    let group = u64::from(model.attention.group_size(model.n_head));
    let (heads_per_request, q_per_kv) = if dev.systolic {
        (u64::from(model.kv_heads()), group)
    } else {
        (u64::from(model.n_head), 1)
    };
    let mut critical = Vec::new();
    let mut device_total = Vec::new();
    for &(n_requests, l) in groups {
        if n_requests == 0 {
            continue;
        }
        let job = HeadJob { q_per_kv, ..HeadJob::new(l, model.d_head, model.kv_dtype.bytes()) };
        let heads = n_requests * heads_per_request;
        critical.push((heads.div_ceil(stacks), job));
        device_total.push((heads, job));
    }
    let mut want =
        stack_attention_timing(&dev.hbm, dev.placement, &dev.softmax, &critical, pipelined);
    want.energy_j = attention_energy_j(&dev.hbm, dev.placement, &dev.softmax, &device_total);
    want
}

thread_local! {
    /// One memo per configuration, kept across proptest cases so later
    /// cases read terms earlier cases filled.
    static REUSED_MEMOS: std::cell::RefCell<Vec<attacc_pim::AttentionMemo>> =
        std::cell::RefCell::new(
            attention_configs().iter().map(|(dev, model)| dev.attention_memo(model)).collect(),
        );
}

proptest! {
    /// The memoised attention pass equals the two-pass reference bit for
    /// bit, whether its memo is fresh, reused across cases, or just
    /// filled by the same groups; and so does the plain call. Groups come
    /// with zero counts and with lengths repeated and out of order.
    #[test]
    fn memoised_attention_equals_the_two_pass_reference(
        lengths in prop::collection::vec(1u64..=8192, 1..8),
        picks in prop::collection::vec((prop_oneof![Just(0u64), 1u64..=256], 0usize..64), 0..40),
        config in 0usize..8,
        pipelined in prop_oneof![Just(false), Just(true)],
    ) {
        let groups: Vec<(u64, u64)> =
            picks.iter().map(|&(n, ix)| (n, lengths[ix % lengths.len()])).collect();
        let (dev, model) = &attention_configs()[config];
        let want = two_pass_attention(dev, model, &groups, pipelined);
        prop_assert_eq!(dev.attention_decoder_time(model, &groups, pipelined), want);
        let mut fresh = dev.attention_memo(model);
        prop_assert_eq!(fresh.decoder_time(&groups, pipelined), want);
        prop_assert_eq!(fresh.decoder_time(&groups, pipelined), want);
        let reused = REUSED_MEMOS.with_borrow_mut(|m| m[config].decoder_time(&groups, pipelined));
        prop_assert_eq!(reused, want);
    }
}
