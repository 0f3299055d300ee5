//! Multi-request, multi-head functional run through the AttAcc controller:
//! the full §5.2 instruction flow over several Gen stages, checked against
//! reference attention at every stage.

use attacc::hbm::StackGeometry;
use attacc::pim::numeric::attention_ref;
use attacc::pim::{AttAccController, AttInst, Precision};
use std::collections::HashMap;

fn gen_val(request: u64, head: u32, tok: usize, i: usize, salt: u64) -> f32 {
    let x = request
        .wrapping_mul(1_000_003)
        .wrapping_add(u64::from(head) * 7_919)
        .wrapping_add(tok as u64 * 131)
        .wrapping_add(i as u64 * 17)
        .wrapping_add(salt);
    ((x % 211) as f32) * 0.01 - 1.05
}

#[test]
fn multi_request_multi_head_generation_matches_reference() {
    let d = 16usize;
    let n_head = 3u32;
    let requests = [10u64, 11, 12];
    let geom = StackGeometry {
        pseudo_channels: 4,
        bank_groups_per_rank: 2,
        ranks: 2,
        banks_per_group: 2,
        ..StackGeometry::hbm3_8hi()
    };
    let mut ctl = AttAccController::new(&geom, 4, Precision::Exact);
    ctl.execute(AttInst::SetModel { n_head, d_head: d, max_l: 4096 }).unwrap();
    for &r in &requests {
        ctl.execute(AttInst::UpdateRequest { request: r, remove: false }).unwrap();
    }

    // Simulate 6 Gen stages: each appends one KV vector per head per
    // request, then runs attention for every head.
    let mut lens = vec![0usize; requests.len()];
    for stage in 0..6usize {
        for (ri, &r) in requests.iter().enumerate() {
            for h in 0..n_head {
                let k: Vec<f32> = (0..d).map(|i| gen_val(r, h, stage, i, 1)).collect();
                let v: Vec<f32> = (0..d).map(|i| gen_val(r, h, stage, i, 2)).collect();
                let (k, v) = (Box::new(k), Box::new(v));
                ctl.execute(AttInst::AppendKv { request: r, head: h, k, v }).unwrap();
            }
            lens[ri] = stage + 1;
        }
        for &r in &requests {
            for h in 0..n_head {
                let q: Vec<f32> = (0..d).map(|i| gen_val(r, h, stage, i, 3)).collect();
                let boxed = Box::new(q.clone());
                ctl.execute(AttInst::LoadQ { request: r, head: h, q: boxed }).unwrap();
                ctl.execute(AttInst::RunAttention { request: r, head: h }).unwrap();
                let out = ctl
                    .execute(AttInst::ReadOutput { request: r, head: h })
                    .unwrap()
                    .unwrap();

                // Reference over this head's full history.
                let l = stage + 1;
                let mut kt = vec![0.0f32; d * l];
                let mut v = vec![0.0f32; l * d];
                for tok in 0..l {
                    for i in 0..d {
                        kt[i * l + tok] = gen_val(r, h, tok, i, 1);
                        v[tok * d + i] = gen_val(r, h, tok, i, 2);
                    }
                }
                let want = attention_ref(&q, &kt, &v, l);
                for (g, w) in out.iter().zip(&want) {
                    assert!(
                        (f64::from(*g) - w).abs() < 1e-4,
                        "stage {stage} request {r} head {h}: {g} vs {w}"
                    );
                }
            }
        }
    }

    // KV residency: the config memory holds each request's 6 tokens.
    let resident = |ctl: &AttAccController| ctl.config().unwrap().request_len.clone();
    assert_eq!(resident(&ctl), HashMap::from([(10, 6), (11, 6), (12, 6)]));

    // Retire one request mid-flight (iteration-level scheduling).
    ctl.execute(AttInst::UpdateRequest { request: 11, remove: true }).unwrap();
    assert_eq!(resident(&ctl), HashMap::from([(10, 6), (12, 6)]));

    // The survivors keep generating correctly.
    let q: Vec<f32> = (0..d).map(|i| gen_val(10, 0, 6, i, 3)).collect();
    ctl.execute(AttInst::LoadQ { request: 10, head: 0, q: Box::new(q) }).unwrap();
    ctl.execute(AttInst::RunAttention { request: 10, head: 0 }).unwrap();
    assert!(ctl
        .execute(AttInst::ReadOutput { request: 10, head: 0 })
        .unwrap()
        .is_some());
}

#[test]
fn fp16_pipeline_tracks_exact_pipeline() {
    let d = 8usize;
    let geom = StackGeometry {
        pseudo_channels: 2,
        bank_groups_per_rank: 2,
        ranks: 1,
        banks_per_group: 2,
        ..StackGeometry::hbm3_8hi()
    };
    let run = |precision: Precision| {
        let mut ctl = AttAccController::new(&geom, 2, precision);
        ctl.execute(AttInst::SetModel { n_head: 1, d_head: d, max_l: 4096 }).unwrap();
        ctl.execute(AttInst::UpdateRequest { request: 0, remove: false }).unwrap();
        let mut outs = Vec::new();
        for stage in 0..10usize {
            let k: Vec<f32> = (0..d).map(|i| gen_val(0, 0, stage, i, 1)).collect();
            let v: Vec<f32> = (0..d).map(|i| gen_val(0, 0, stage, i, 2)).collect();
            let (k, v) = (Box::new(k), Box::new(v));
            ctl.execute(AttInst::AppendKv { request: 0, head: 0, k, v }).unwrap();
            let q: Vec<f32> = (0..d).map(|i| gen_val(0, 0, stage, i, 3)).collect();
            ctl.execute(AttInst::LoadQ { request: 0, head: 0, q: Box::new(q) }).unwrap();
            ctl.execute(AttInst::RunAttention { request: 0, head: 0 }).unwrap();
            outs.push(
                ctl.execute(AttInst::ReadOutput { request: 0, head: 0 })
                    .unwrap()
                    .unwrap(),
            );
        }
        outs
    };
    let exact = run(Precision::Exact);
    let fp16 = run(Precision::Fp16);
    for (stage, (e, f)) in exact.iter().zip(&fp16).enumerate() {
        for (a, b) in e.iter().zip(f) {
            assert!((a - b).abs() < 0.05, "stage {stage}: {a} vs {b}");
        }
    }
}
