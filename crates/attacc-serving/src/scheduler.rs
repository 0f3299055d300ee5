//! Iteration-level scheduling simulation (ORCA-style, §3).

use crate::metrics::ServingReport;
use crate::node::NodeEngine;
use attacc_model::Request;

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
/// The whole batch is delivered to one [`NodeEngine`] at t = 0. On a
/// closed batch, shortest-job-first admission is FCFS over the batch
/// sorted stably by `(l_out, id)`. A request whose final footprint can
/// never fit the KV capacity is abandoned, with everything queued behind
/// it.
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
    let mut node = NodeEngine::new(executor, *cfg);
    let mut batch = requests.to_vec();
    if policy == AdmissionPolicy::ShortestJobFirst {
        batch.sort_by_key(|r| (r.l_out, r.id));
    }
    for r in batch {
        node.deliver(0.0, r);
    }
    let mut now_s = 0.0f64;
    while !node.is_drained() {
        now_s = node.run_round(now_s).end_s;
    }

    let m = node.metrics();
    let turnaround_sum = node.retired_log().iter().fold(0.0f64, |sum, &(_, t)| sum + t);
    ServingReport {
        total_time_s: now_s,
        energy_j: m.energy_j,
        tokens_generated: m.tokens,
        requests_completed: m.completed,
        gen_iterations: m.tbt.len() as u64,
        max_iteration_latency_s: m.tbt.iter().fold(0.0f64, |max, &l| max.max(l)),
        mean_turnaround_s: if m.completed > 0 {
            turnaround_sum / m.completed as f64
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
