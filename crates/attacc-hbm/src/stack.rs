//! Stack-level PIM execution: all pseudo-channels driven together.
//!
//! The AttAcc controller issues `PIM_ACT_AB` / `PIM_MAC_AB` to a whole
//! stack; every pseudo-channel executes the same stream against its slice
//! of the data. [`simulate_stack`] coordinates the per-channel streams and
//! reports stack-level time (the slowest channel), aggregate energy, and
//! total command counts — the quantity the PIM device model charges per
//! head.

use crate::engine::{simulate_stream, StreamOutcome, StreamSpec};
use crate::{EnergyCounter, HbmConfig};

/// A stack-level streaming job: one [`StreamSpec`] per pseudo-channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackStreamSpec {
    /// Per-channel specs (length must equal the stack's channel count).
    pub channels: Vec<StreamSpec>,
}

impl StackStreamSpec {
    /// Spreads `total_bytes` evenly over every bank of every channel at
    /// the given concurrency cap.
    #[must_use]
    pub fn uniform(cfg: &HbmConfig, total_bytes: u64, max_active: u32) -> StackStreamSpec {
        let pchs = u64::from(cfg.geometry.pseudo_channels);
        let base = total_bytes / pchs;
        let mut rem = total_bytes % pchs;
        let channels = (0..pchs)
            .map(|_| {
                let extra = u64::from(rem > 0);
                rem = rem.saturating_sub(1);
                StreamSpec::uniform(&cfg.geometry, base + extra, max_active)
            })
            .collect();
        StackStreamSpec { channels }
    }

    /// Total bytes across the stack.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(StreamSpec::total_bytes).sum()
    }
}

/// Outcome of a stack-level stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackOutcome {
    /// Stack completion time: the slowest channel (ps).
    pub elapsed_ps: u64,
    /// Channel-balance ratio: slowest / fastest elapsed (1.0 = perfect).
    pub imbalance: f64,
    /// Total MAC beats across channels.
    pub reads: u64,
    /// Total activations across channels.
    pub activates: u64,
    /// Aggregate energy.
    pub energy: EnergyCounter,
}

/// Executes all channels of a stack-level job.
///
/// # Panics
/// Panics if the spec's channel count does not match the geometry.
#[must_use]
pub fn simulate_stack(cfg: &HbmConfig, spec: &StackStreamSpec) -> StackOutcome {
    assert_eq!(
        spec.channels.len(),
        cfg.geometry.pseudo_channels as usize,
        "spec must cover every pseudo-channel"
    );
    let mut slowest = 0u64;
    let mut fastest = u64::MAX;
    let mut reads = 0u64;
    let mut activates = 0u64;
    let mut energy = EnergyCounter::default();
    for ch in &spec.channels {
        let out: StreamOutcome = simulate_stream(cfg, ch);
        slowest = slowest.max(out.elapsed_ps);
        if out.reads > 0 {
            fastest = fastest.min(out.elapsed_ps);
        }
        reads += out.reads;
        activates += out.activates;
        energy.absorb(&out.energy);
    }
    StackOutcome {
        elapsed_ps: slowest,
        imbalance: if fastest == u64::MAX || fastest == 0 {
            1.0
        } else {
            slowest as f64 / fastest as f64
        },
        reads,
        activates,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessDepth;

    fn cfg() -> HbmConfig {
        HbmConfig::hbm3_8hi()
    }

    #[test]
    fn uniform_stack_spec_covers_everything() {
        let c = cfg();
        let spec = StackStreamSpec::uniform(&c, 10 << 20, 18);
        assert_eq!(spec.channels.len(), 32);
        assert_eq!(spec.total_bytes(), 10 << 20);
    }

    #[test]
    fn balanced_job_has_no_imbalance() {
        let c = cfg();
        let spec = StackStreamSpec::uniform(&c, 32 << 20, c.power.max_active_banks);
        let out = simulate_stack(&c, &spec);
        assert!((out.imbalance - 1.0).abs() < 0.01, "imbalance = {}", out.imbalance);
        assert_eq!(out.reads, (32 << 20) / 32);
    }

    #[test]
    fn stack_time_equals_channel_time_for_even_jobs() {
        // All channels identical → stack time = per-channel time.
        let c = cfg();
        let spec = StackStreamSpec::uniform(&c, 32 << 20, 18);
        let stack = simulate_stack(&c, &spec);
        let one = simulate_stream(&c, &spec.channels[0]);
        assert_eq!(stack.elapsed_ps, one.elapsed_ps);
        // Energy is 32 channels' worth.
        let ratio = stack.energy.total_pj() / one.energy.total_pj();
        assert!((ratio - 32.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn skewed_job_reports_imbalance() {
        let c = cfg();
        let mut spec = StackStreamSpec::uniform(&c, 32 << 20, 18);
        // Overload channel 0 with 4× the data.
        spec.channels[0] = StreamSpec::uniform(&c.geometry, 4 << 20, 18);
        let out = simulate_stack(&c, &spec);
        assert!(out.imbalance > 2.0, "imbalance = {}", out.imbalance);
    }

    #[test]
    fn stack_bandwidth_reaches_nine_x() {
        // A large stack-level stream sustains ~9× the external bandwidth.
        let c = cfg();
        let bytes = 256u64 << 20;
        let spec = StackStreamSpec::uniform(&c, bytes, c.power.max_active_banks);
        let out = simulate_stack(&c, &spec);
        let achieved = bytes as f64 / (out.elapsed_ps as f64 * 1e-12);
        let ratio = achieved / c.external_bandwidth_bytes_per_s();
        // Refresh costs ~6%, so expect ≈ 8.4–9×.
        assert!(ratio > 8.0 && ratio < 9.5, "ratio = {ratio}");
    }

    #[test]
    fn empty_channels_are_tolerated() {
        let c = cfg();
        let mut spec = StackStreamSpec::uniform(&c, 0, 18);
        spec.channels[3] = StreamSpec {
            bytes_per_bank: vec![1024; 32],
            max_active: 18,
            depth: AccessDepth::Bank,
        };
        let out = simulate_stack(&c, &spec);
        assert!(out.elapsed_ps > 0);
        assert_eq!(out.imbalance, 1.0, "single active channel is trivially balanced");
    }
}
