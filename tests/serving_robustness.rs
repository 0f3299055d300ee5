//! Failure injection and degenerate-condition tests for the serving layer
//! driving real system executors.

use attacc::model::{KvCacheSpec, ModelConfig, Request};
use attacc::serving::{
    simulate, simulate_open_loop, ArrivalWorkload, SchedulerConfig, StageCost, StageExecutor,
    Workload,
};
use attacc::sim::{System, SystemExecutor};

/// An adversarial executor: zero-cost Sum stages and wildly varying Gen
/// costs (including zero). The scheduler must still conserve tokens and
/// terminate.
struct Adversarial;

impl StageExecutor for Adversarial {
    fn sum_stage(&self, _batch: u64, _l_in: u64) -> StageCost {
        StageCost::default()
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let n: u64 = groups.iter().map(|g| g.0).sum();
        // Latency oscillates between 0 and large depending on parity.
        let latency_s = if n.is_multiple_of(2) { 0.0 } else { 10.0 };
        StageCost {
            latency_s,
            energy_j: 0.0,
        }
    }
}

#[test]
fn scheduler_survives_zero_and_spiky_costs() {
    let wl = Workload::uniform_random(30, 8, (1, 9), 77);
    let r = simulate(&Adversarial, &wl.requests(), &SchedulerConfig::unlimited(7));
    assert_eq!(r.tokens_generated, wl.total_output_tokens());
    assert_eq!(r.requests_completed, 30);
    assert!(r.total_time_s.is_finite());
}

#[test]
fn open_loop_survives_bursts_on_a_real_system() {
    let m = ModelConfig::gpt3_175b();
    let exec = SystemExecutor::new(System::dgx_attacc_full(), &m);
    let wl = ArrivalWorkload::bursty(120, 2.0, 20.0, 5.0, 0.2, 256, (16, 64), 99);
    let spec = KvCacheSpec::of(&m);
    let cfg = SchedulerConfig::with_capacity(
        32,
        System::dgx_attacc_full().kv_capacity_bytes(&m),
        spec.bytes_per_token,
    );
    let r = simulate_open_loop(&exec, &wl, &cfg);
    assert_eq!(r.completed, 120);
    assert!(r.queue_wait.p99_s >= r.queue_wait.p50_s);
    assert!(r.ttft.max_s >= r.ttft.p99_s);
}

#[test]
fn single_slot_batch_still_drains_everything() {
    let m = ModelConfig::gpt3_175b();
    let exec = SystemExecutor::new(System::dgx_base(), &m);
    let wl = Workload::fixed(5, 32, 6);
    let r = simulate(&exec, &wl.requests(), &SchedulerConfig::unlimited(1));
    assert_eq!(r.tokens_generated, 30);
    // Strictly serial: iterations = Σ (l_out − 1).
    assert_eq!(r.gen_iterations, 5 * 5);
}

#[test]
fn oversized_request_is_skipped_without_livelock() {
    // First request can never fit; capacity admits the rest one at a time.
    let reqs = vec![
        Request::new(0, 1_000, 1_000), // needs 2000 tokens of KV
        Request::new(1, 8, 4),
        Request::new(2, 8, 4),
    ];
    let cfg = SchedulerConfig::with_capacity(4, 100 * 100, 100); // 100 tokens
    let exec = Adversarial;
    let r = simulate(&exec, &reqs, &cfg);
    // FCFS blocks behind the giant: nothing runs — but we must terminate.
    assert_eq!(r.requests_completed, 0);
    // Queued behind the small ones, the giant is abandoned after they are
    // served.
    let giant_last = [reqs[1], reqs[2], reqs[0]];
    let r2 = simulate(&exec, &giant_last, &cfg);
    assert_eq!(r2.requests_completed, 2, "small requests served");
}
