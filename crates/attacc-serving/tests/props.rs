//! Property-based tests for the serving layer.

use attacc_serving::{
    ff_coprocess_speedup, head_level_pipelined_s, max_batch_under_slo, serial_s, simulate,
    simulate_open_loop, ArrivalWorkload, DecoderPhases, FlashCrowd, LatencyStats,
    SchedulerConfig, StageCost, StageExecutor, TraceSpec, Workload,
};
use proptest::prelude::*;

/// Affine toy system with tunable slope.
struct Affine {
    base_s: f64,
    per_req_s: f64,
}

impl StageExecutor for Affine {
    fn sum_stage(&self, batch: u64, _l_in: u64) -> StageCost {
        StageCost {
            latency_s: self.base_s * 3.0 + self.per_req_s * batch as f64,
            energy_j: batch as f64,
        }
    }
    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let n: u64 = groups.iter().map(|g| g.0).sum();
        StageCost {
            latency_s: self.base_s + self.per_req_s * n as f64,
            energy_j: 0.5 * n as f64,
        }
    }
}

proptest! {
    /// Token conservation: every request's l_out tokens are produced, once,
    /// regardless of batch limit or workload mix.
    #[test]
    fn scheduler_conserves_tokens(
        n in 1u64..40,
        l_out_max in 1u64..32,
        max_batch in 1u64..16,
        seed in 0u64..1000,
    ) {
        let exec = Affine { base_s: 1e-3, per_req_s: 1e-5 };
        let wl = Workload::uniform_random(n, 8, (1, l_out_max), seed);
        let r = simulate(&exec, &wl.requests(), &SchedulerConfig::unlimited(max_batch));
        prop_assert_eq!(r.tokens_generated, wl.total_output_tokens());
        prop_assert_eq!(r.requests_completed, n);
    }

    /// Open-loop and closed-loop scheduling produce the same token count.
    #[test]
    fn open_loop_conserves_tokens(
        n in 1u64..30,
        rate in 1.0f64..100.0,
        seed in 0u64..500,
    ) {
        let exec = Affine { base_s: 1e-3, per_req_s: 1e-5 };
        let wl = ArrivalWorkload::poisson(n, rate, 8, (1, 16), seed);
        let want: u64 = wl.arrivals.iter().map(|(_, r)| r.l_out).sum();
        let r = simulate_open_loop(&exec, &wl, &SchedulerConfig::unlimited(8));
        prop_assert_eq!(r.completed, n);
        prop_assert!((r.tokens_per_s * r.makespan_s - want as f64).abs() < 1.0);
    }

    /// Bigger batch caps never slow the closed-loop drain time.
    #[test]
    fn larger_batch_never_slower(
        n in 4u64..40,
        seed in 0u64..200,
    ) {
        let exec = Affine { base_s: 1e-3, per_req_s: 0.0 };
        let wl = Workload::uniform_random(n, 8, (1, 16), seed);
        let t4 = simulate(&exec, &wl.requests(), &SchedulerConfig::unlimited(4)).total_time_s;
        let t16 = simulate(&exec, &wl.requests(), &SchedulerConfig::unlimited(16)).total_time_s;
        prop_assert!(t16 <= t4 * 1.0001, "{t16} > {t4}");
    }

    /// The SLO search result is always feasible and maximal for affine
    /// latency models.
    #[test]
    fn slo_search_feasible_and_maximal(
        base_ms in 0.1f64..10.0,
        slope_us in 1.0f64..500.0,
        slo_ms in 0.5f64..100.0,
    ) {
        let exec = Affine { base_s: base_ms * 1e-3, per_req_s: slope_us * 1e-6 };
        let slo = slo_ms * 1e-3;
        let b = max_batch_under_slo(&exec, slo, 100, 10_000);
        if b > 0 {
            prop_assert!(exec.gen_stage(&[(b, 100)]).latency_s <= slo);
        }
        if b < 10_000 {
            prop_assert!(exec.gen_stage(&[(b + 1, 100)]).latency_s > slo);
        }
    }

    /// Head-level pipelining is bounded by serial time below and by the
    /// slower stream above.
    #[test]
    fn pipelining_bounds(
        qkv in 0.0f64..10.0,
        attn in 0.0f64..10.0,
        proj in 0.0f64..10.0,
        ff in 0.0f64..10.0,
        chunks in 1u64..256,
    ) {
        let p = DecoderPhases { qkv_s: qkv, attn_s: attn, proj_s: proj, ff_s: ff, other_s: 0.1, comm_s: 0.1 };
        let t = head_level_pipelined_s(&p, chunks);
        prop_assert!(t <= serial_s(&p) + 1e-12);
        let lower = (qkv + proj).max(attn) + ff + 0.2;
        prop_assert!(t >= lower - 1e-12);
    }

    /// FF co-processing speedup is in (0, 1] and monotone in the helper
    /// bandwidth.
    #[test]
    fn ff_speedup_sane(xpu in 1.0f64..100.0, attacc in 0.0f64..100.0) {
        let f = ff_coprocess_speedup(xpu, attacc);
        prop_assert!(f > 0.0 && f <= 1.0);
        prop_assert!(ff_coprocess_speedup(xpu, attacc + 1.0) < f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Composed diurnal + flash-crowd traces hit the requested session
    /// count exactly, arrive in non-decreasing order with ids assigned
    /// in arrival order, stay inside the declared length bounds, and are
    /// deterministic under their seed.
    #[test]
    fn composed_traces_are_exact_ordered_and_deterministic(
        sessions in 1u64..400,
        mean_rate in 0.5f64..200.0,
        amplitude in 0.0f64..0.95,
        period in 1.0f64..120.0,
        n_crowds in 0usize..3,
        crowd_peak in 1.0f64..6.0,
        crowd_start in 0.0f64..60.0,
        l_in in 1u64..512,
        l_out_lo in 1u64..32,
        l_out_extra in 0u64..64,
        seed in 0u64..1_000_000,
    ) {
        let spec = TraceSpec {
            sessions,
            mean_rate_per_s: mean_rate,
            diurnal_amplitude: amplitude,
            diurnal_period_s: period,
            crowds: (0..n_crowds)
                .map(|i| FlashCrowd {
                    start_s: crowd_start + 10.0 * i as f64,
                    peak: crowd_peak,
                    ramp_s: 2.0,
                    hold_s: 5.0,
                    decay_s: 3.0,
                })
                .collect(),
            l_in,
            l_out_range: (l_out_lo, l_out_lo + l_out_extra),
            seed,
        };
        let w = spec.generate();
        prop_assert_eq!(w.arrivals.len() as u64, sessions);
        for (i, (t, r)) in w.arrivals.iter().enumerate() {
            prop_assert!(t.is_finite() && *t >= 0.0);
            prop_assert_eq!(r.id, i as u64);
            prop_assert_eq!(r.l_in, l_in);
            prop_assert!(r.l_out >= l_out_lo && r.l_out <= l_out_lo + l_out_extra);
            if i > 0 {
                prop_assert!(w.arrivals[i - 1].0 <= *t, "arrivals must be non-decreasing");
            }
        }
        let again = spec.generate();
        prop_assert!(w.arrivals == again.arrivals, "trace must be deterministic under its seed");
    }
}

/// [`LatencyStats::from_samples`] with a stable sort by `partial_cmp`:
/// the order statistics every report was computed from before the sort
/// became unstable.
fn stable_sort_stats(mut samples: Vec<f64>) -> LatencyStats {
    if samples.is_empty() {
        return LatencyStats::default();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let n = samples.len();
    let pct = |p: f64| samples[((n as f64 * p).ceil() as usize).saturating_sub(1).min(n - 1)];
    LatencyStats {
        mean_s: samples.iter().sum::<f64>() / n as f64,
        p50_s: pct(0.50),
        p95_s: pct(0.95),
        p99_s: pct(0.99),
        p999_s: pct(0.999),
        max_s: samples[n - 1],
    }
}

fn stats_bits(s: &LatencyStats) -> [u64; 6] {
    [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.p999_s, s.max_s].map(f64::to_bits)
}

proptest! {
    /// The unstable sort gives the stable sort's statistics bit for bit on
    /// the samples a run records: non-negative, zero included, and full
    /// of duplicates.
    #[test]
    fn latency_stats_match_a_stable_sort(
        samples in prop::collection::vec(
            prop_oneof![
                Just(0.0f64),
                (0u32..24).prop_map(|k| f64::from(k) * 0.125),
                (0u32..6).prop_map(|k| f64::from(k).sqrt() * 1e-3),
                0.0f64..5.0,
            ],
            0..400,
        ),
    ) {
        let got = LatencyStats::from_samples(samples.clone());
        prop_assert_eq!(stats_bits(&got), stats_bits(&stable_sort_stats(samples)));
    }
}

#[test]
#[should_panic(expected = "latencies are finite")]
fn latency_stats_reject_nan() {
    let _ = LatencyStats::from_samples(vec![0.5, f64::NAN, 0.25]);
}
