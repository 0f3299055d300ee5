//! Synthetic arrival shapes. The bursty and diurnal Poisson workloads are
//! `cluster_sim`'s load shapes; the scaled [`TraceSpec`] trace and its
//! [`FlashCrowd`] spikes are the day the autoscaling frontier replays.
//! A shape draws from one seeded RNG, so a seed fixes every arrival.

use crate::arrivals::ArrivalWorkload;
use attacc_model::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

impl ArrivalWorkload {
    /// A bursty arrival pattern: a Poisson base rate with periodic bursts
    /// at `burst_factor ×` the rate for the first `duty` fraction of each
    /// `period_s` window — the diurnal/bursty shape open-loop latency
    /// studies care about.
    ///
    /// # Panics
    /// Panics if arguments are non-positive or `duty` is outside (0, 1].
    #[must_use]
    #[allow(clippy::too_many_arguments)] // a workload shape is naturally wide
    pub fn bursty(
        n: u64,
        base_rate_per_s: f64,
        burst_factor: f64,
        period_s: f64,
        duty: f64,
        l_in: u64,
        l_out_range: (u64, u64),
        seed: u64,
    ) -> ArrivalWorkload {
        assert!(n > 0, "workload must contain requests");
        assert!(base_rate_per_s > 0.0 && burst_factor >= 1.0 && period_s > 0.0);
        assert!(duty > 0.0 && duty <= 1.0, "duty must be in (0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let arrivals = (0..n)
            .map(|id| {
                let phase = (now % period_s) / period_s;
                let rate = if phase < duty {
                    base_rate_per_s * burst_factor
                } else {
                    base_rate_per_s
                };
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now += -u.ln() / rate;
                let l_out = rng.gen_range(l_out_range.0..=l_out_range.1);
                (now, Request::new(id, l_in, l_out))
            })
            .collect();
        ArrivalWorkload { arrivals }
    }

    /// A diurnal arrival pattern: the Poisson rate is modulated by a
    /// sinusoid, `rate(t) = mean_rate · (1 + amplitude·sin(2πt/period))`,
    /// evaluated at the start of each inter-arrival draw — the smooth
    /// day/night load swing a fleet is provisioned against, as opposed to
    /// [`ArrivalWorkload::bursty`]'s square-wave spikes.
    ///
    /// # Panics
    /// Panics if `n` is zero, the rate or period is non-positive,
    /// `amplitude` is outside [0, 1), or the length range is empty.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // a workload shape is naturally wide
    pub fn diurnal(
        n: u64,
        mean_rate_per_s: f64,
        amplitude: f64,
        period_s: f64,
        l_in: u64,
        l_out_range: (u64, u64),
        seed: u64,
    ) -> ArrivalWorkload {
        assert!(n > 0, "workload must contain requests");
        assert!(mean_rate_per_s > 0.0 && period_s > 0.0);
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1) so the rate stays positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0.0f64;
        let arrivals = (0..n)
            .map(|id| {
                let phase = 2.0 * std::f64::consts::PI * now / period_s;
                let rate = mean_rate_per_s * (1.0 + amplitude * phase.sin());
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now += -u.ln() / rate;
                let l_out = rng.gen_range(l_out_range.0..=l_out_range.1);
                (now, Request::new(id, l_in, l_out))
            })
            .collect();
        ArrivalWorkload { arrivals }
    }
}

/// One flash crowd riding on a trace: the arrival rate ramps linearly
/// from 1× to `peak ×` over `ramp_s`, holds for `hold_s`, then decays
/// linearly back — the news-event / product-launch spike an autoscaler
/// must absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd starts building (s).
    pub start_s: f64,
    /// Rate multiplier at the top (≥ 1).
    pub peak: f64,
    /// Seconds from 1× to `peak ×`.
    pub ramp_s: f64,
    /// Seconds the peak holds.
    pub hold_s: f64,
    /// Seconds from `peak ×` back to 1×.
    pub decay_s: f64,
}

impl FlashCrowd {
    /// The rate multiplier this crowd contributes at time `t` (1.0
    /// outside its window). Multipliers of overlapping crowds compose by
    /// multiplication.
    #[must_use]
    pub fn factor_at(&self, t: f64) -> f64 {
        let dt = t - self.start_s;
        if dt < 0.0 {
            1.0
        } else if dt < self.ramp_s {
            1.0 + (self.peak - 1.0) * dt / self.ramp_s
        } else if dt < self.ramp_s + self.hold_s {
            self.peak
        } else if dt < self.ramp_s + self.hold_s + self.decay_s {
            self.peak - (self.peak - 1.0) * (dt - self.ramp_s - self.hold_s) / self.decay_s
        } else {
            1.0
        }
    }

    fn validate(&self) {
        assert!(self.start_s.is_finite() && self.start_s >= 0.0, "crowd start must be >= 0");
        assert!(self.peak.is_finite() && self.peak >= 1.0, "crowd peak must be >= 1");
        assert!(
            self.ramp_s >= 0.0 && self.hold_s >= 0.0 && self.decay_s >= 0.0,
            "crowd phases must be non-negative"
        );
    }
}

/// A composable scaled-trace specification: a diurnal sinusoid times any
/// number of [`FlashCrowd`] spikes, sized by exact session count — the
/// fleet-scale workload shape (up to ~10⁵ concurrent sessions) the
/// autoscaling frontier replays.
///
/// The instantaneous rate is
/// `mean_rate · (1 + amplitude·sin(2πt/period)) · Π crowdᵢ(t)`, and
/// arrivals are drawn from the corresponding non-homogeneous Poisson
/// process by thinning (Lewis & Shedler): candidate arrivals at the rate
/// ceiling, each accepted with probability `rate(t)/ceiling`. Thinning
/// draws both numbers from one seeded `StdRng`, so a spec generates a
/// byte-identical trace every time, with exactly `sessions` arrivals in
/// non-decreasing time order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Exact number of sessions (requests) to generate.
    pub sessions: u64,
    /// Baseline Poisson rate (requests/s).
    pub mean_rate_per_s: f64,
    /// Diurnal swing in [0, 1): 0 = flat.
    pub diurnal_amplitude: f64,
    /// Diurnal period (s).
    pub diurnal_period_s: f64,
    /// Flash crowds riding on the diurnal curve (may overlap; factors
    /// multiply).
    pub crowds: Vec<FlashCrowd>,
    /// Prompt length of every session.
    pub l_in: u64,
    /// Inclusive output-length range, sampled uniformly per session.
    pub l_out_range: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

impl TraceSpec {
    /// The instantaneous arrival rate at time `t`.
    #[must_use]
    pub fn rate_at(&self, t: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t / self.diurnal_period_s;
        let mut rate = self.mean_rate_per_s * (1.0 + self.diurnal_amplitude * phase.sin());
        for c in &self.crowds {
            rate *= c.factor_at(t);
        }
        rate
    }

    /// An upper bound on [`TraceSpec::rate_at`] over all `t` (the
    /// thinning ceiling): peak diurnal rate times the product of every
    /// crowd's peak. Conservative when crowds do not overlap — thinning
    /// stays exact either way, only the candidate count grows.
    #[must_use]
    pub fn rate_ceiling(&self) -> f64 {
        let mut ceil = self.mean_rate_per_s * (1.0 + self.diurnal_amplitude);
        for c in &self.crowds {
            ceil *= c.peak;
        }
        ceil
    }

    /// Generates the trace: exactly `sessions` arrivals, non-decreasing
    /// in time, ids `0..sessions` in arrival order.
    ///
    /// # Panics
    /// Panics on an empty spec (`sessions == 0`), non-positive rate or
    /// period, amplitude outside [0, 1), an empty length range, or an
    /// invalid crowd.
    #[must_use]
    pub fn generate(&self) -> ArrivalWorkload {
        assert!(self.sessions > 0, "trace must contain sessions");
        assert!(
            self.mean_rate_per_s > 0.0 && self.diurnal_period_s > 0.0,
            "rate and period must be positive"
        );
        assert!(
            (0.0..1.0).contains(&self.diurnal_amplitude),
            "amplitude must be in [0, 1) so the rate stays positive"
        );
        assert!(self.l_in > 0 && self.l_out_range.0 > 0, "lengths must be positive");
        assert!(self.l_out_range.0 <= self.l_out_range.1, "empty l_out range");
        for c in &self.crowds {
            c.validate();
        }
        let ceiling = self.rate_ceiling();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut now = 0.0f64;
        let mut arrivals = Vec::with_capacity(self.sessions as usize);
        for id in 0..self.sessions {
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                now += -u.ln() / ceiling;
                let accept: f64 = rng.gen_range(0.0..1.0);
                if accept * ceiling <= self.rate_at(now) {
                    break;
                }
            }
            let l_out = rng.gen_range(self.l_out_range.0..=self.l_out_range.1);
            arrivals.push((now, Request::new(id, self.l_in, l_out)));
        }
        ArrivalWorkload { arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_pattern_clusters_arrivals() {
        let wl = ArrivalWorkload::bursty(400, 2.0, 10.0, 10.0, 0.3, 64, (8, 8), 5);
        // Count arrivals in the burst windows vs outside.
        let mut in_burst = 0usize;
        let mut out_burst = 0usize;
        for &(t, _) in &wl.arrivals {
            if (t % 10.0) / 10.0 < 0.3 {
                in_burst += 1;
            } else {
                out_burst += 1;
            }
        }
        // Burst windows are 30% of time at 10× rate: they should hold the
        // clear majority of arrivals.
        assert!(
            in_burst > 2 * out_burst,
            "in {in_burst} vs out {out_burst}"
        );
    }

    #[test]
    fn bursty_is_deterministic_and_ordered() {
        let a = ArrivalWorkload::bursty(50, 1.0, 5.0, 4.0, 0.5, 32, (1, 8), 7);
        let b = ArrivalWorkload::bursty(50, 1.0, 5.0, 4.0, 0.5, 32, (1, 8), 7);
        assert_eq!(a, b);
        assert!(a.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn diurnal_modulates_density_with_phase() {
        // Amplitude 0.9 at period 20 s: the rising half-period should see
        // clearly more arrivals than the falling one.
        let wl = ArrivalWorkload::diurnal(600, 4.0, 0.9, 20.0, 64, (8, 8), 13);
        assert!(wl.arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        let (mut peak, mut trough) = (0usize, 0usize);
        for &(t, _) in &wl.arrivals {
            if (t % 20.0) < 10.0 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(peak > trough + trough / 2, "peak {peak} vs trough {trough}");
        let again = ArrivalWorkload::diurnal(600, 4.0, 0.9, 20.0, 64, (8, 8), 13);
        assert_eq!(wl, again);
    }

    fn crowd() -> FlashCrowd {
        FlashCrowd { start_s: 10.0, peak: 5.0, ramp_s: 2.0, hold_s: 4.0, decay_s: 2.0 }
    }

    #[test]
    fn flash_crowd_factor_is_piecewise_linear() {
        let c = crowd();
        assert_eq!(c.factor_at(0.0), 1.0);
        assert_eq!(c.factor_at(11.0), 3.0, "halfway up the ramp");
        assert_eq!(c.factor_at(13.0), 5.0, "holding");
        assert_eq!(c.factor_at(17.0), 3.0, "halfway down the decay");
        assert_eq!(c.factor_at(30.0), 1.0);
        // Zero-length ramp: a step function, no division blow-up.
        let step = FlashCrowd { ramp_s: 0.0, ..c };
        assert_eq!(step.factor_at(10.0), 5.0);
    }

    fn spec(sessions: u64) -> TraceSpec {
        TraceSpec {
            sessions,
            mean_rate_per_s: 8.0,
            diurnal_amplitude: 0.5,
            diurnal_period_s: 40.0,
            crowds: vec![crowd()],
            l_in: 64,
            l_out_range: (4, 16),
            seed: 42,
        }
    }

    #[test]
    fn scaled_trace_hits_count_order_and_determinism() {
        let w = spec(500).generate();
        assert_eq!(w.arrivals.len(), 500);
        assert!(w.arrivals.windows(2).all(|a| a[0].0 <= a[1].0));
        assert_eq!(w, spec(500).generate());
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let w = spec(2000).generate();
        // The crowd window [10, 18] is ~5× the surrounding rate; compare
        // its arrival count with the preceding 8 s.
        let in_crowd = w.arrivals.iter().filter(|(t, _)| (10.0..18.0).contains(t)).count();
        let before = w.arrivals.iter().filter(|(t, _)| (2.0..10.0).contains(t)).count();
        assert!(in_crowd > 2 * before, "crowd {in_crowd} vs before {before}");
    }

    #[test]
    fn rate_ceiling_bounds_rate_everywhere() {
        let s = spec(1);
        let ceil = s.rate_ceiling();
        for i in 0..400 {
            let t = i as f64 * 0.1;
            assert!(s.rate_at(t) <= ceil + 1e-12, "rate at {t} exceeds ceiling");
        }
    }
}
