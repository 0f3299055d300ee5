//! Capacity planning: how many AttAcc stacks does a deployment need?
//!
//! An operator targets a throughput under a token-latency SLO for a fixed
//! workload shape. This example sweeps the AttAcc stack count and reports
//! the smallest configuration that meets the target — the question a
//! downstream adopter of AttAcc actually asks.
//!
//! Run with: `cargo run --release --example capacity_planner`

use attacc::model::{KvCacheSpec, ModelConfig};
use attacc::serving::{max_batch_under_slo, StageExecutor};
use attacc::sim::experiment::steady_state_groups;
use attacc::sim::{System, SystemExecutor};

fn main() {
    let model = ModelConfig::gpt3_175b();
    let (l_in, l_out) = (2048u64, 2048u64);
    let slo = 0.050f64;
    let target_tokens_per_s = 2_000.0;

    println!(
        "target: {target_tokens_per_s:.0} tokens/s under a {:.0} ms token SLO",
        slo * 1e3
    );
    println!("workload: GPT-3 175B at (L_in, L_out) = ({l_in}, {l_out})");
    println!();
    println!(
        "{:>7} {:>12} {:>10} {:>11} {:>12}  meets target?",
        "stacks", "KV capacity", "max batch", "iter (ms)", "tokens/s"
    );

    let spec = KvCacheSpec::of(&model);
    let mut needed = None;
    for stacks in [8u32, 16, 24, 32, 40, 56, 80] {
        let mut system = System::dgx_attacc_full();
        let attacc = system.attacc.as_mut().expect("PIM platform");
        attacc.n_stacks = stacks;
        let kv_capacity = system.kv_capacity_bytes(&model);
        let by_capacity = spec.max_batch(kv_capacity, l_in + l_out).min(512);
        let exec = SystemExecutor::new(system.clone(), &model);
        let batch = max_batch_under_slo(&exec, slo, l_in + l_out / 2, by_capacity);
        let (iter_ms, tput) = if batch == 0 {
            (f64::NAN, 0.0)
        } else {
            let t = exec
                .gen_stage(&steady_state_groups(batch, l_in, l_out))
                .latency_s;
            (t * 1e3, batch as f64 / t)
        };
        let ok = tput >= target_tokens_per_s;
        if ok && needed.is_none() {
            needed = Some(stacks);
        }
        println!(
            "{stacks:>7} {:>12} {batch:>10} {iter_ms:>11.1} {tput:>12.1}  {}",
            attacc::model::fmt_gib(kv_capacity),
            if ok { "yes" } else { "no" }
        );
    }

    println!();
    match needed {
        Some(s) => println!("=> provision {s} AttAcc stacks alongside the DGX."),
        None => println!("=> the target is out of reach even at 80 stacks; relax the SLO."),
    }
}
