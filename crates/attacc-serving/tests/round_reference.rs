//! The serving entry points against a slow, self-contained reference loop.
//!
//! [`reference_open_loop`] is a stand-alone iteration-level scheduler: it
//! rebuilds every Gen group anew with a linear search and sweeps every
//! status on every round. `NodeEngine::run_round`, which all three
//! serving entry points drive, instead keeps its Gen groups current
//! across rounds through a hashed length index (admissions append, a bare
//! sweep advances every length, a retiring sweep re-lists the survivors),
//! and it skips the completion checks while nobody can finish
//! (`min_remaining`). The property below requires the two to agree bit
//! for bit on random open-loop workloads and closed batches, under tight
//! and unlimited KV capacity, including requests that can never fit.
//! Batches reach 64, the fleets' size, so the index collides and grows.

use attacc_model::{Request, RequestState, SequenceStatus};
use attacc_serving::{
    simulate_open_loop, simulate_with_policy, AdmissionPolicy, ArrivalWorkload, LatencyStats,
    OpenLoopReport, SchedulerConfig, StageCost, StageExecutor,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A toy executor with irrational-valued costs, so any divergence in
/// floating-point accumulation order shows up in the low bits. Its Gen
/// cost sums a square root per group in list order, so it also tells a
/// reordered group list from the first-occurrence one.
struct Toy;
impl StageExecutor for Toy {
    fn sum_stage(&self, b: u64, l: u64) -> StageCost {
        StageCost {
            latency_s: 1e-3 * ((b * l) as f64).sqrt(),
            energy_j: 0.37 * b as f64,
        }
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let n: u64 = groups.iter().map(|g| g.0).sum();
        let work: f64 = groups.iter().map(|&(c, l)| c as f64 * (l as f64).sqrt()).sum();
        StageCost {
            latency_s: 7e-4 + 1e-7 * work * n as f64,
            energy_j: 0.011 * work,
        }
    }
}

/// Open-loop iteration-level scheduling, written out round by round with
/// no caching: deliver due arrivals, jump over idle gaps, admit FCFS with
/// head-blocking on KV capacity, prefill, run one Gen iteration, retire.
/// A queue whose head can never fit is abandoned, and later arrivals are
/// still served.
fn reference_open_loop<E: StageExecutor>(
    executor: &E,
    workload: &ArrivalWorkload,
    cfg: &SchedulerConfig,
) -> OpenLoopReport {
    assert!(cfg.max_batch > 0, "max_batch must be positive");
    let mut pending: VecDeque<(f64, Request)> = workload.arrivals.iter().copied().collect();
    let mut queued: VecDeque<(f64, Request)> = VecDeque::new();
    let mut active: Vec<(f64, RequestState)> = Vec::new(); // (arrival, state)
    let mut reserved_tokens: u64 = 0;

    let mut now = 0.0f64;
    let mut energy = 0.0f64;
    let mut tokens: u64 = 0;
    let mut completed: u64 = 0;
    let mut ttft = Vec::new();
    let mut tbt = Vec::new();
    let mut queue_wait = Vec::new();

    let fits = |reserved: u64, cfg: &SchedulerConfig, req: &Request| -> bool {
        if cfg.kv_bytes_per_token == 0 {
            return true;
        }
        let need = (reserved + req.final_len()) as u128 * cfg.kv_bytes_per_token as u128;
        need <= cfg.kv_capacity_bytes as u128
    };

    while !pending.is_empty() || !queued.is_empty() || !active.is_empty() {
        // Move arrivals whose time has come into the admission queue.
        while pending.front().is_some_and(|&(t, _)| t <= now) {
            queued.push_back(pending.pop_front().expect("checked"));
        }
        // Idle system: fast-forward to the next arrival.
        if active.is_empty() && queued.is_empty() {
            if let Some(&(t, _)) = pending.front() {
                now = t;
                continue;
            }
            break;
        }

        // Admit.
        let mut admitted: Vec<(u64, u64)> = Vec::new();
        while (active.len() as u64) < cfg.max_batch {
            let Some(&(arrival, req)) = queued.front() else { break };
            if !fits(reserved_tokens, cfg, &req) {
                break;
            }
            queued.pop_front();
            reserved_tokens += req.final_len();
            queue_wait.push(now - arrival);
            active.push((arrival, RequestState::admitted(req)));
            match admitted.iter_mut().find(|(_, l)| *l == req.l_in) {
                Some((c, _)) => *c += 1,
                None => admitted.push((1, req.l_in)),
            }
        }

        // Prefill the admissions.
        for &(c, l_in) in &admitted {
            let cost = executor.sum_stage(c, l_in);
            now += cost.latency_s;
            energy += cost.energy_j;
        }
        for (arrival, s) in active.iter_mut().filter(|(_, s)| s.status == SequenceStatus::NeedsSum)
        {
            tokens += 1;
            ttft.push(now - *arrival);
            let _ = s.complete_stage();
        }

        // One Gen iteration.
        let mut groups: Vec<(u64, u64)> = Vec::new();
        for (_, s) in active.iter().filter(|(_, s)| s.status == SequenceStatus::Generating) {
            let l = s.context_len() + 1;
            match groups.iter_mut().find(|(_, gl)| *gl == l) {
                Some((c, _)) => *c += 1,
                None => groups.push((1, l)),
            }
        }
        if !groups.is_empty() {
            let cost = executor.gen_stage(&groups);
            now += cost.latency_s;
            energy += cost.energy_j;
            tbt.push(cost.latency_s);
            for (_, s) in active.iter_mut().filter(|(_, s)| s.status == SequenceStatus::Generating)
            {
                tokens += 1;
                let _ = s.complete_stage();
            }
        }

        // Retire.
        active.retain(|(_, s)| {
            if s.status == SequenceStatus::Finished {
                reserved_tokens -= s.request.final_len();
                completed += 1;
                false
            } else {
                true
            }
        });

        if groups.is_empty() && admitted.is_empty() && active.is_empty() && queued.front().is_some()
        {
            // A queued request can never fit: abandon the queue to avoid
            // livelock, and keep serving later arrivals.
            queued.clear();
        }
    }

    OpenLoopReport {
        completed,
        makespan_s: now,
        energy_j: energy,
        tokens_per_s: if now > 0.0 { tokens as f64 / now } else { 0.0 },
        ttft: LatencyStats::from_samples(ttft),
        tbt: LatencyStats::from_samples(tbt),
        queue_wait: LatencyStats::from_samples(queue_wait),
    }
}

/// `n` arrivals, Poisson or bursty, with prompt lengths spread over
/// `8..40` so admissions form several Sum groups and contexts several
/// Gen groups. With `giant_every > 0`, every `giant_every`-th request
/// carries a prompt that no tight capacity below fits.
fn workload(
    n: u64,
    bursty: bool,
    rate: f64,
    l_out_max: u64,
    giant_every: u64,
    seed: u64,
) -> ArrivalWorkload {
    let mut w = if bursty {
        ArrivalWorkload::bursty(n, rate, 6.0, 0.4, 0.25, 8, (1, l_out_max), seed)
    } else {
        ArrivalWorkload::poisson(n, rate, 8, (1, l_out_max), seed)
    };
    for (i, (_, r)) in w.arrivals.iter_mut().enumerate() {
        let i = i as u64;
        r.l_in = if giant_every > 0 && i % giant_every == giant_every - 1 {
            1_000
        } else {
            8 + (i.wrapping_mul(0x9e37_79b9) ^ seed) % 32
        };
    }
    w
}

/// Batch cap `max_batch` under unlimited KV (`kv_tokens == 0`) or a
/// capacity of `kv_tokens` tokens at `bytes_per_token` bytes each.
fn config(max_batch: u64, kv_tokens: u64, bytes_per_token: u64) -> SchedulerConfig {
    if kv_tokens == 0 {
        SchedulerConfig::unlimited(max_batch)
    } else {
        SchedulerConfig::with_capacity(max_batch, kv_tokens * bytes_per_token, bytes_per_token)
    }
}

/// `requests`, all arriving at t = 0.
fn closed(requests: &[Request]) -> ArrivalWorkload {
    ArrivalWorkload { arrivals: requests.iter().map(|&r| (0.0, r)).collect() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `simulate_open_loop` equals the reference bit for bit, and
    /// `simulate_with_policy` under FCFS (and under SJF, on the batch
    /// sorted stably by `(l_out, id)`) equals the reference run on the
    /// same requests arriving at t = 0.
    #[test]
    fn serving_entry_points_match_the_reference_loop(
        n in 1u64..130,
        bursty in 0u64..2,
        rate in 5.0f64..400.0,
        l_out_max in 1u64..32,
        giant_every in 0u64..8,
        max_batch in 1u64..=64,
        kv_tokens in prop_oneof![Just(0u64), 60u64..460],
        bytes_per_token in 1u64..4,
        seed in 0u64..10_000,
    ) {
        let w = workload(n, bursty == 1, rate, l_out_max, giant_every, seed);
        let cfg = config(max_batch, kv_tokens, bytes_per_token);
        prop_assert_eq!(simulate_open_loop(&Toy, &w, &cfg), reference_open_loop(&Toy, &w, &cfg));

        let fcfs: Vec<Request> = w.arrivals.iter().map(|&(_, r)| r).collect();
        let mut sjf = fcfs.clone();
        sjf.sort_by_key(|r| (r.l_out, r.id));
        for (policy, batch) in [
            (AdmissionPolicy::Fcfs, &fcfs),
            (AdmissionPolicy::ShortestJobFirst, &sjf),
        ] {
            let got = simulate_with_policy(&Toy, &fcfs, &cfg, policy);
            let want = reference_open_loop(&Toy, &closed(batch), &cfg);
            prop_assert_eq!(
                (policy, got.requests_completed, got.total_time_s),
                (policy, want.completed, want.makespan_s)
            );
            prop_assert_eq!(
                (policy, got.energy_j, got.max_iteration_latency_s),
                (policy, want.energy_j, want.tbt.max_s)
            );
        }
    }
}
