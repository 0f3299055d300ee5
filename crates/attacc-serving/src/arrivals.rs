//! Open-loop serving: requests arrive over time (Poisson process) instead
//! of being queued up front. Produces the latency statistics an operator
//! actually monitors — time-to-first-token (TTFT), time-between-tokens
//! (TBT) and queueing delay — for a given arrival rate and platform.

use crate::node::NodeEngine;
use crate::scheduler::{SchedulerConfig, StageExecutor};
use attacc_model::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A timed request population.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalWorkload {
    /// `(arrival_time_s, request)` pairs in arrival order.
    pub arrivals: Vec<(f64, Request)>,
}

impl ArrivalWorkload {
    /// `n` requests arriving as a Poisson process with `rate_per_s`
    /// arrivals per second; output lengths uniform in `l_out_range`.
    /// Deterministic under `seed`.
    ///
    /// # Panics
    /// Panics if `n` is zero, the rate is non-positive, or the range is
    /// empty.
    #[must_use]
    pub fn poisson(
        n: u64,
        rate_per_s: f64,
        l_in: u64,
        l_out_range: (u64, u64),
        seed: u64,
    ) -> ArrivalWorkload {
        assert!(n > 0, "workload must contain requests");
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        assert!(
            l_out_range.0 >= 1 && l_out_range.0 <= l_out_range.1,
            "invalid output-length range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let arrivals = (0..n)
            .map(|id| {
                // Exponential inter-arrival times via inverse transform.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now += -u.ln() / rate_per_s;
                let l_out = rng.gen_range(l_out_range.0..=l_out_range.1);
                (now, Request::new(id, l_in, l_out))
            })
            .collect();
        ArrivalWorkload { arrivals }
    }

    /// Mean offered load in output tokens per second.
    #[must_use]
    pub fn offered_tokens_per_s(&self) -> f64 {
        let Some(&(last, _)) = self.arrivals.last() else {
            return 0.0;
        };
        let tokens: u64 = self.arrivals.iter().map(|(_, r)| r.l_out).sum();
        if last > 0.0 {
            tokens as f64 / last
        } else {
            f64::INFINITY
        }
    }
}

/// Order statistics of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Arithmetic mean (s).
    pub mean_s: f64,
    /// Median (s).
    pub p50_s: f64,
    /// 95th percentile (s).
    pub p95_s: f64,
    /// 99th percentile (s).
    pub p99_s: f64,
    /// 99.9th percentile (s) — the tail the cluster report watches.
    pub p999_s: f64,
    /// Maximum (s).
    pub max_s: f64,
}

impl LatencyStats {
    /// Computes stats from a sample (empty samples give all-zero stats).
    ///
    /// Percentiles use the nearest-rank definition: the p-th percentile of
    /// n sorted samples is sample `ceil(n·p)` (1-based), so p50 of 100
    /// samples is the 50th, not the 51st.
    ///
    /// The sort is unstable, which needs no merge buffer. It gives the
    /// stable order because latencies are never `-0.0`: without NaN and
    /// `-0.0`, samples equal under `total_cmp` are equal bit for bit.
    ///
    /// # Panics
    /// Panics if a sample is NaN.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        assert!(!samples.iter().any(|s| s.is_nan()), "latencies are finite");
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let pct = |p: f64| {
            let rank = (n as f64 * p).ceil() as usize;
            samples[rank.saturating_sub(1).min(n - 1)]
        };
        LatencyStats {
            mean_s: samples.iter().sum::<f64>() / n as f64,
            p50_s: pct(0.50),
            p95_s: pct(0.95),
            p99_s: pct(0.99),
            p999_s: pct(0.999),
            max_s: samples[n - 1],
        }
    }
}

/// Outcome of an open-loop serving run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpenLoopReport {
    /// Requests fully served.
    pub completed: u64,
    /// Virtual time from t = 0, not from the first arrival, to the last
    /// round's end (s).
    pub makespan_s: f64,
    /// Total energy (J).
    pub energy_j: f64,
    /// Achieved throughput in output tokens per second.
    pub tokens_per_s: f64,
    /// Time from arrival to first output token.
    pub ttft: LatencyStats,
    /// Gen-iteration latencies (the time between a request's tokens).
    pub tbt: LatencyStats,
    /// Time spent queued before admission.
    pub queue_wait: LatencyStats,
}

/// Simulates open-loop serving of `workload` on `executor` under `cfg`
/// with iteration-level scheduling, on one [`NodeEngine`]. Each arrival
/// is delivered once its time has come; when the node drains and no
/// request has arrived yet, time jumps to the next arrival. A request
/// that can never fit the KV capacity is abandoned with the queue behind
/// it, and later arrivals are still served.
///
/// # Panics
/// Panics if `cfg.max_batch` is zero.
#[must_use]
pub fn simulate_open_loop<E: StageExecutor>(
    executor: &E,
    workload: &ArrivalWorkload,
    cfg: &SchedulerConfig,
) -> OpenLoopReport {
    let mut node = NodeEngine::new(executor, *cfg);
    let mut pending = workload.arrivals.iter().peekable();
    let mut now = 0.0f64;
    loop {
        while let Some(&(t, request)) = pending.next_if(|&&(t, _)| t <= now) {
            node.deliver(t, request);
        }
        if node.is_drained() {
            match pending.peek() {
                Some(&&(t, _)) => now = t,
                None => break,
            }
            continue;
        }
        now = node.run_round(now).end_s;
        node.clear_round_logs();
    }

    let m = node.metrics();
    OpenLoopReport {
        completed: m.completed,
        makespan_s: now,
        energy_j: m.energy_j,
        tokens_per_s: if now > 0.0 { m.tokens as f64 / now } else { 0.0 },
        ttft: LatencyStats::from_samples(m.ttft.clone()),
        tbt: LatencyStats::from_samples(m.tbt.clone()),
        queue_wait: LatencyStats::from_samples(m.queue_wait.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StageCost;

    struct Affine;
    impl StageExecutor for Affine {
        fn sum_stage(&self, _b: u64, _l: u64) -> StageCost {
            StageCost {
                latency_s: 5e-3,
                energy_j: 1.0,
            }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost {
                latency_s: 1e-3 + 1e-5 * n as f64,
                energy_j: 0.01 * n as f64,
            }
        }
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_deterministic() {
        let a = ArrivalWorkload::poisson(100, 5.0, 64, (4, 16), 9);
        let b = ArrivalWorkload::poisson(100, 5.0, 64, (4, 16), 9);
        assert_eq!(a, b);
        assert!(a.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        // Mean inter-arrival ≈ 1/rate.
        let last = a.arrivals.last().unwrap().0;
        assert!((last / 100.0 - 0.2).abs() < 0.08, "mean gap = {}", last / 100.0);
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let wl = ArrivalWorkload::poisson(50, 2.0, 32, (2, 8), 3);
        let r = simulate_open_loop(&Affine, &wl, &SchedulerConfig::unlimited(8));
        assert_eq!(r.completed, 50);
        assert!(r.makespan_s >= wl.arrivals.last().unwrap().0);
        assert!(r.ttft.mean_s > 0.0);
        assert!(r.tbt.p50_s > 0.0);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn heavier_load_increases_queueing() {
        let light = ArrivalWorkload::poisson(60, 1.0, 32, (8, 8), 7);
        let heavy = ArrivalWorkload::poisson(60, 500.0, 32, (8, 8), 7);
        let cfg = SchedulerConfig::unlimited(4);
        let rl = simulate_open_loop(&Affine, &light, &cfg);
        let rh = simulate_open_loop(&Affine, &heavy, &cfg);
        assert!(rh.queue_wait.p95_s > rl.queue_wait.p95_s);
        assert!(rh.tokens_per_s > rl.tokens_per_s, "saturation raises throughput");
    }

    #[test]
    fn latency_stats_percentiles_ordered() {
        let s = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert!(s.p50_s <= s.p95_s && s.p95_s <= s.p99_s && s.p99_s <= s.p999_s);
        assert!(s.p999_s <= s.max_s);
        assert_eq!(s.max_s, 100.0);
        assert_eq!(LatencyStats::from_samples(vec![]), LatencyStats::default());
    }

    #[test]
    fn latency_stats_use_nearest_rank() {
        // 100 samples 1..=100: nearest-rank p-th percentile is sample
        // ceil(100·p), i.e. the value `100·p` itself — not one past it.
        let s = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.p999_s, 100.0);
        // Singleton: every percentile is the lone sample.
        let one = LatencyStats::from_samples(vec![7.0]);
        assert_eq!((one.p50_s, one.p99_s, one.p999_s, one.max_s), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn idle_gaps_fast_forward() {
        // Two requests far apart: the system must not busy-spin between
        // them.
        let wl = ArrivalWorkload {
            arrivals: vec![
                (0.0, Request::new(0, 8, 2)),
                (100.0, Request::new(1, 8, 2)),
            ],
        };
        let r = simulate_open_loop(&Affine, &wl, &SchedulerConfig::unlimited(4));
        assert_eq!(r.completed, 2);
        assert!(r.makespan_s >= 100.0 && r.makespan_s < 101.0);
    }
}
