//! Iteration-level scheduling simulation (ORCA-style, §3).

use crate::metrics::ServingReport;
use attacc_model::{Request, RequestState, SequenceStatus};
use std::collections::VecDeque;

/// Cost of executing one stage on some system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageCost {
    /// Wall-clock seconds.
    pub latency_s: f64,
    /// Joules.
    pub energy_j: f64,
}

/// A system capable of executing Sum and Gen stages. Implemented by
/// `attacc-sim` for each evaluated platform.
pub trait StageExecutor {
    /// Cost of prefilling `batch` requests with prompt length `l_in`.
    fn sum_stage(&self, batch: u64, l_in: u64) -> StageCost;

    /// Cost of one Gen iteration over a batch described as
    /// `(request_count, context_length)` groups.
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost;

    /// Steady-state decode throughput (output tokens/s) of a full batch of
    /// `batch` requests all at context length `l_ctx`: one Gen iteration
    /// emits `batch` tokens. The default derives it from [`gen_stage`],
    /// so every executor gets a consistent probe for free; routers and
    /// provisioning use it as the relative-throughput weight of a node.
    ///
    /// [`gen_stage`]: StageExecutor::gen_stage
    fn decode_tokens_per_s(&self, batch: u64, l_ctx: u64) -> f64 {
        let cost = self.gen_stage(&[(batch, l_ctx)]);
        if cost.latency_s > 0.0 {
            batch as f64 / cost.latency_s
        } else {
            f64::INFINITY
        }
    }
}

/// Admission and capacity policy for the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Hard cap on concurrent requests (from SLO search or capacity).
    pub max_batch: u64,
    /// KV bytes available; `u64::MAX` for the unlimited-capacity studies.
    pub kv_capacity_bytes: u64,
    /// KV bytes per token per request (from
    /// [`attacc_model::KvCacheSpec::bytes_per_token`]).
    pub kv_bytes_per_token: u64,
}

impl SchedulerConfig {
    /// Unlimited capacity, batch capped at `max_batch` (the Fig. 4 study).
    #[must_use]
    pub fn unlimited(max_batch: u64) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            kv_capacity_bytes: u64::MAX,
            kv_bytes_per_token: 0,
        }
    }

    /// Capacity-limited configuration.
    #[must_use]
    pub fn with_capacity(max_batch: u64, kv_capacity_bytes: u64, kv_bytes_per_token: u64) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            kv_capacity_bytes,
            kv_bytes_per_token,
        }
    }
}

/// Which queued request is admitted when a batch slot frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// First come, first served (arrival order) — the default.
    #[default]
    Fcfs,
    /// Shortest job first: admit the queued request with the smallest
    /// `l_out`. Reduces mean turnaround for mixed-length populations at
    /// the cost of starving long requests under sustained load.
    ShortestJobFirst,
}

/// Simulates serving `requests` on `executor` under `cfg` using
/// iteration-level scheduling: whenever a request finishes, the next
/// queued request is admitted (its Sum stage runs batched with any other
/// admissions of that iteration), so the Gen batch stays as full as the
/// SLO/capacity limits allow.
///
/// KV admission control reserves each request's *final* footprint
/// (`l_in + l_out`), guaranteeing no mid-flight eviction.
///
/// # Panics
/// Panics if `cfg.max_batch` is zero.
#[must_use]
pub fn simulate<E: StageExecutor>(
    executor: &E,
    requests: &[Request],
    cfg: &SchedulerConfig,
) -> ServingReport {
    simulate_with_policy(executor, requests, cfg, AdmissionPolicy::Fcfs)
}

/// [`simulate`] with an explicit [`AdmissionPolicy`].
///
/// # Panics
/// Panics if `cfg.max_batch` is zero.
#[must_use]
pub fn simulate_with_policy<E: StageExecutor>(
    executor: &E,
    requests: &[Request],
    cfg: &SchedulerConfig,
    policy: AdmissionPolicy,
) -> ServingReport {
    assert!(cfg.max_batch > 0, "max_batch must be positive");
    let mut queue: VecDeque<Request> = requests.iter().copied().collect();
    let mut active: Vec<RequestState> = Vec::new();
    let mut reserved_tokens: u64 = 0;

    let mut now_s = 0.0f64;
    let mut energy_j = 0.0f64;
    let mut tokens: u64 = 0;
    let mut iterations: u64 = 0;
    let mut max_iter_latency_s = 0.0f64;
    let mut completed: u64 = 0;

    let fits = |reserved: u64, cfg: &SchedulerConfig, req: &Request| -> bool {
        if cfg.kv_bytes_per_token == 0 {
            return true;
        }
        let need = (reserved + req.final_len()) as u128 * cfg.kv_bytes_per_token as u128;
        need <= cfg.kv_capacity_bytes as u128
    };

    let pick = |queue: &VecDeque<Request>| -> Option<usize> {
        match policy {
            AdmissionPolicy::Fcfs => (!queue.is_empty()).then_some(0),
            AdmissionPolicy::ShortestJobFirst => queue
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.l_out, r.id))
                .map(|(i, _)| i),
        }
    };
    let mut turnaround_sum = 0.0f64;

    while !queue.is_empty() || !active.is_empty() {
        // Admit as many queued requests as batch and capacity allow.
        let mut admitted: Vec<(u64, u64)> = Vec::new(); // (count, l_in) groups
        while (active.len() as u64) < cfg.max_batch {
            let Some(idx) = pick(&queue) else { break };
            if !fits(reserved_tokens, cfg, &queue[idx]) {
                break;
            }
            let req = queue.remove(idx).expect("index from pick is valid");
            reserved_tokens += req.final_len();
            active.push(RequestState::admitted(req));
            match admitted.iter_mut().find(|(_, l)| *l == req.l_in) {
                Some((n, _)) => *n += 1,
                None => admitted.push((1, req.l_in)),
            }
        }

        // Batched prefill of this iteration's admissions. The Sum stage
        // produces each new request's first token.
        for &(n, l_in) in &admitted {
            let cost = executor.sum_stage(n, l_in);
            now_s += cost.latency_s;
            energy_j += cost.energy_j;
        }
        let mut finished_this_iter = false;
        for s in active.iter_mut().filter(|s| s.status == SequenceStatus::NeedsSum) {
            tokens += 1;
            if s.complete_stage() == SequenceStatus::Finished {
                finished_this_iter = true;
            }
        }

        // One Gen iteration over everything still generating.
        let mut groups: Vec<(u64, u64)> = Vec::new();
        for s in active.iter().filter(|s| s.status == SequenceStatus::Generating) {
            let l = s.context_len() + 1; // context including the new token
            match groups.iter_mut().find(|(_, gl)| *gl == l) {
                Some((n, _)) => *n += 1,
                None => groups.push((1, l)),
            }
        }
        if !groups.is_empty() {
            let cost = executor.gen_stage(&groups);
            now_s += cost.latency_s;
            energy_j += cost.energy_j;
            iterations += 1;
            max_iter_latency_s = max_iter_latency_s.max(cost.latency_s);
            for s in active.iter_mut().filter(|s| s.status == SequenceStatus::Generating) {
                tokens += 1;
                if s.complete_stage() == SequenceStatus::Finished {
                    finished_this_iter = true;
                }
            }
        }

        // Retire finished requests, freeing their KV reservations.
        if finished_this_iter || !groups.is_empty() || !admitted.is_empty() {
            active.retain(|s| {
                if s.status == SequenceStatus::Finished {
                    reserved_tokens -= s.request.final_len();
                    completed += 1;
                    turnaround_sum += now_s;
                    false
                } else {
                    true
                }
            });
        }

        if groups.is_empty() && admitted.is_empty() && !queue.is_empty() && active.is_empty() {
            // Nothing fits at all: the configuration cannot serve the
            // workload (e.g. one request larger than capacity).
            break;
        }
    }

    ServingReport {
        total_time_s: now_s,
        energy_j,
        tokens_generated: tokens,
        requests_completed: completed,
        gen_iterations: iterations,
        max_iteration_latency_s: max_iter_latency_s,
        mean_turnaround_s: if completed > 0 {
            turnaround_sum / completed as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    /// Gen cost = 1 ms + 1 µs per active request; Sum cost = 10 ms.
    struct Affine;
    impl StageExecutor for Affine {
        fn sum_stage(&self, _batch: u64, _l_in: u64) -> StageCost {
            StageCost {
                latency_s: 10e-3,
                energy_j: 1.0,
            }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost {
                latency_s: 1e-3 + 1e-6 * n as f64,
                energy_j: 0.1 * n as f64,
            }
        }
    }

    #[test]
    fn all_tokens_are_generated() {
        let wl = Workload::fixed(20, 32, 8);
        let r = simulate(&Affine, &wl.requests(), &SchedulerConfig::unlimited(4));
        assert_eq!(r.tokens_generated, 20 * 8);
        assert_eq!(r.requests_completed, 20);
        assert!(r.total_time_s > 0.0);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn larger_batch_fewer_iterations() {
        let wl = Workload::fixed(64, 32, 16);
        let small = simulate(&Affine, &wl.requests(), &SchedulerConfig::unlimited(4));
        let big = simulate(&Affine, &wl.requests(), &SchedulerConfig::unlimited(32));
        assert!(big.gen_iterations < small.gen_iterations);
        assert!(big.total_time_s < small.total_time_s);
        assert_eq!(big.tokens_generated, small.tokens_generated);
    }

    #[test]
    fn iteration_level_scheduling_refills_batch() {
        // Mixed output lengths: short requests finish early and their
        // slots are refilled, so the iteration count is far below
        // batch-synchronous scheduling's.
        let wl = Workload::uniform_random(40, 16, (1, 64), 5);
        let r = simulate(&Affine, &wl.requests(), &SchedulerConfig::unlimited(8));
        assert_eq!(r.tokens_generated, wl.total_output_tokens());
        // Perfect packing bound: ceil(total_tokens / batch) iterations
        // (±ramp-down); batch-synchronous would need ~(40/8)·64 = 320.
        let total = wl.total_output_tokens();
        assert!(
            r.gen_iterations < total / 8 + 70,
            "iterations = {}",
            r.gen_iterations
        );
    }

    #[test]
    fn capacity_limits_concurrency() {
        // Capacity for only ~2 requests' final footprints.
        let cfg = SchedulerConfig::with_capacity(64, 2 * 40 * 100, 100);
        let wl = Workload::fixed(10, 32, 8);
        let r = simulate(&Affine, &wl.requests(), &cfg);
        assert_eq!(r.tokens_generated, 80, "all work still completes");
        // With ≤2 concurrent requests, at least 8·(10/2) iterations.
        assert!(r.gen_iterations >= 35, "iterations = {}", r.gen_iterations);
    }

    #[test]
    fn impossible_request_terminates() {
        let cfg = SchedulerConfig::with_capacity(4, 10, 100); // nothing fits
        let wl = Workload::fixed(3, 4, 4);
        let r = simulate(&Affine, &wl.requests(), &cfg);
        assert_eq!(r.tokens_generated, 0);
        assert_eq!(r.requests_completed, 0);
    }

    #[test]
    fn sjf_lowers_mean_turnaround_on_mixed_lengths() {
        // One long request then many short ones: FCFS makes everyone
        // queue behind the giant; SJF finishes the short ones first.
        let mut reqs = vec![attacc_model::Request::new(0, 16, 512)];
        for id in 1..20 {
            reqs.push(attacc_model::Request::new(id, 16, 4));
        }
        let cfg = SchedulerConfig::unlimited(2);
        let fcfs = simulate_with_policy(&Affine, &reqs, &cfg, AdmissionPolicy::Fcfs);
        let sjf =
            simulate_with_policy(&Affine, &reqs, &cfg, AdmissionPolicy::ShortestJobFirst);
        assert_eq!(fcfs.tokens_generated, sjf.tokens_generated);
        assert!(
            sjf.mean_turnaround_s < fcfs.mean_turnaround_s,
            "SJF {} vs FCFS {}",
            sjf.mean_turnaround_s,
            fcfs.mean_turnaround_s
        );
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        let wl = Workload::fixed(1, 1, 1);
        let _ = simulate(&Affine, &wl.requests(), &SchedulerConfig::unlimited(0));
    }
}
