//! Provisioning frontiers: stacks vs SLO vs throughput.
//!
//! The deployment question behind the paper: given a workload shape and a
//! token SLO, how many AttAcc stacks buy how much throughput? This module
//! sweeps configurations and extracts the Pareto-efficient set
//! (throughput cannot improve without adding silicon).

use crate::experiment::{max_feasible_batch, steady_state_groups};
use crate::{SweepRunner, System, SystemExecutor};
use attacc_model::ModelConfig;
use attacc_serving::StageExecutor;

/// One provisioning point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisionPoint {
    /// AttAcc stacks on the device.
    pub stacks: u32,
    /// Admissible batch under capacity and SLO.
    pub batch: u64,
    /// Steady-state tokens per second.
    pub tokens_per_s: f64,
    /// Whether the point is Pareto-efficient in (stacks ↓, throughput ↑).
    pub efficient: bool,
}

/// Sweeps stack counts for `(l_in, l_out)` requests under `slo_s` and
/// marks the Pareto-efficient points.
///
/// # Panics
/// Panics if `stack_counts` is empty or the SLO is non-positive.
#[must_use]
pub fn provision_sweep(
    model: &ModelConfig,
    l_in: u64,
    l_out: u64,
    slo_s: f64,
    stack_counts: &[u32],
) -> Vec<ProvisionPoint> {
    assert!(!stack_counts.is_empty(), "need at least one configuration");
    assert!(slo_s > 0.0, "SLO must be positive");
    let mut points: Vec<ProvisionPoint> =
        SweepRunner::from_env().map(stack_counts, |&stacks| {
            let mut system = System::dgx_attacc_full();
            system
                .attacc
                .as_mut()
                .expect("PIM platform has a device")
                .n_stacks = stacks;
            let batch = max_feasible_batch(&system, model, l_in, l_out, Some(slo_s));
            let exec = SystemExecutor::new(system, model);
            let tokens_per_s = if batch == 0 {
                0.0
            } else {
                let groups = steady_state_groups(batch, l_in, l_out);
                batch as f64 / exec.gen_stage(&groups).latency_s
            };
            ProvisionPoint {
                stacks,
                batch,
                tokens_per_s,
                efficient: false,
            }
        });
    // Pareto: efficient iff no point with ≤ stacks achieves ≥ throughput
    // (strictly better on one axis).
    for i in 0..points.len() {
        let p = points[i];
        let dominated = points.iter().any(|q| {
            (q.stacks < p.stacks && q.tokens_per_s >= p.tokens_per_s)
                || (q.stacks <= p.stacks && q.tokens_per_s > p.tokens_per_s)
        });
        points[i].efficient = !dominated;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_grows_with_stacks_until_saturation() {
        let m = ModelConfig::gpt3_175b();
        let pts = provision_sweep(&m, 2048, 2048, 0.050, &[8, 16, 24, 40, 80]);
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[1].tokens_per_s >= w[0].tokens_per_s * 0.99);
            assert!(w[1].batch >= w[0].batch);
        }
    }

    #[test]
    fn monotone_sweep_is_fully_efficient() {
        let m = ModelConfig::gpt3_175b();
        let pts = provision_sweep(&m, 2048, 2048, 0.050, &[8, 24, 40]);
        // Strictly increasing throughput → every point efficient.
        assert!(pts.iter().all(|p| p.efficient), "{pts:?}");
    }

    #[test]
    fn dominated_duplicates_are_flagged() {
        let m = ModelConfig::gpt3_175b();
        let pts = provision_sweep(&m, 2048, 2048, 0.050, &[40, 40, 8]);
        // One of the duplicate 40-stack points dominates nothing extra but
        // ties; ties with equal stacks and equal throughput are kept
        // efficient only if not strictly dominated.
        let eff: Vec<_> = pts.iter().filter(|p| p.efficient).collect();
        assert!(!eff.is_empty());
        assert!(eff.iter().all(|p| p.tokens_per_s > 0.0));
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn zero_slo_rejected() {
        let m = ModelConfig::gpt3_175b();
        let _ = provision_sweep(&m, 128, 128, 0.0, &[8]);
    }
}
