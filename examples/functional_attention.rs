//! The functional face of AttAcc: real numbers through the PIM dataflow.
//!
//! Drives the AttAcc controller with the §5.2 instruction sequence —
//! `SetModel`, `UpdateRequest`, per-token `AppendKv`, `LoadQ`,
//! `RunAttention`, `ReadOutput` — on a real (small) attention head, and
//! compares the mapped, bank-partitioned, FP16 execution against an exact
//! reference.
//!
//! Run with: `cargo run --release --example functional_attention`

use attacc::hbm::StackGeometry;
use attacc::pim::numeric::attention_ref;
use attacc::pim::{AttAccController, AttInst, Precision};

fn main() {
    let d_head = 32usize;
    let l = 96usize;
    let geom = StackGeometry::hbm3_8hi();

    // Deterministic synthetic K/V/Q.
    let gen = |seed: usize, i: usize| ((seed * 131 + i * 37) % 101) as f32 * 0.02 - 1.0;

    let run = |precision: Precision| -> Vec<f32> {
        let mut ctl = AttAccController::new(&geom, 40, precision);
        ctl.execute(AttInst::SetModel { n_head: 1, d_head, max_l: 4096 }).expect("set model");
        ctl.execute(AttInst::UpdateRequest { request: 0, remove: false }).expect("admit");
        for tok in 0..l {
            let k: Vec<f32> = (0..d_head).map(|i| gen(tok, i)).collect();
            let v: Vec<f32> = (0..d_head).map(|i| gen(tok + 7919, i)).collect();
            let (k, v) = (Box::new(k), Box::new(v));
            ctl.execute(AttInst::AppendKv { request: 0, head: 0, k, v }).expect("append");
        }
        let q: Vec<f32> = (0..d_head).map(|i| gen(424_242, i)).collect();
        ctl.execute(AttInst::LoadQ { request: 0, head: 0, q: Box::new(q) }).expect("load q");
        ctl.execute(AttInst::RunAttention { request: 0, head: 0 }).expect("run");
        ctl.execute(AttInst::ReadOutput { request: 0, head: 0 })
            .expect("read")
            .expect("output present")
    };

    let exact = run(Precision::Exact);
    let fp16 = run(Precision::Fp16);

    // Reference on the same data.
    let mut kt = vec![0.0f32; d_head * l];
    let mut v = vec![0.0f32; l * d_head];
    for tok in 0..l {
        for i in 0..d_head {
            kt[i * l + tok] = gen(tok, i);
            v[tok * d_head + i] = gen(tok + 7919, i);
        }
    }
    let q: Vec<f32> = (0..d_head).map(|i| gen(424_242, i)).collect();
    let reference = attention_ref(&q, &kt, &v, l);

    println!("head: d_head = {d_head}, L = {l}, mapped over a full 1,024-bank stack");
    println!("{:>4} {:>14} {:>14} {:>14}", "dim", "reference", "exact PIM", "FP16 PIM");
    for c in 0..6 {
        println!(
            "{c:>4} {:>14.8} {:>14.8} {:>14.8}",
            reference[c], exact[c], fp16[c]
        );
    }
    let max_err_exact = exact
        .iter()
        .zip(&reference)
        .map(|(a, b)| (f64::from(*a) - b).abs())
        .fold(0.0, f64::max);
    let max_err_fp16 = fp16
        .iter()
        .zip(&reference)
        .map(|(a, b)| (f64::from(*a) - b).abs())
        .fold(0.0, f64::max);
    println!();
    println!("max |error| vs reference: exact datapath {max_err_exact:.2e}, FP16 datapath {max_err_fp16:.2e}");
    assert!(max_err_exact < 1e-4, "exact dataflow must match the reference");
    assert!(max_err_fp16 < 5e-2, "FP16 dataflow stays within half-precision error");
    println!("the hierarchical (pCH -> bank-group -> bank -> lane) mapping computes the same attention.");
}
