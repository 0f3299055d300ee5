//! HBM3 device substrate for the AttAcc simulator.
//!
//! This crate plays the role Ramulator plays in the AttAcc paper: it models
//! an 8-Hi HBM3 stack at the command level — stack geometry, DRAM timing
//! constraints (tRCD/tRP/tRAS/tRC, tCCDS/tCCDL, tFAW), an IDD7-style power
//! budget that limits how many banks may stream concurrently, and energy
//! accounting per command with a depth-aware datapath model (bank → bank
//! group → buffer die → external I/O).
//!
//! The central abstraction is [`ChannelEngine`], an event-driven per-
//! pseudo-channel command scheduler. The PIM layer (`attacc-pim`) drives it
//! with all-bank activate/MAC streams; a closed-form fast path
//! ([`engine::stream_time_estimate_ps`]) is validated against the engine by
//! tests and used inside large parameter sweeps.
//!
//! # Example
//!
//! ```
//! use attacc_hbm::{HbmConfig, StreamSpec};
//!
//! let hbm = HbmConfig::hbm3_8hi();
//! // External bandwidth of one stack: 1024 pins × 5.2 Gbps ≈ 665.6 GB/s.
//! let gbs = hbm.external_bandwidth_bytes_per_s() / 1e9;
//! assert!((gbs - 665.6).abs() < 1.0);
//!
//! // Stream 1 MiB spread over all banks of one pseudo-channel with the
//! // power-constrained concurrency of bank-level PIM.
//! let spec = StreamSpec::uniform(&hbm.geometry, 1 << 20, hbm.power.max_active_banks);
//! let t = attacc_hbm::engine::simulate_stream(&hbm, &spec);
//! assert!(t.elapsed_ps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod command;
pub mod energy;
pub mod engine;
pub mod geometry;
pub mod integrity;
pub mod power;
pub mod stats;
pub mod timing;

pub use bank::{BankPhase, BankState};
pub use command::{DramCommand, PimCommand};
pub use energy::{AccessDepth, EnergyCounter, EnergyModel};
pub use engine::{ChannelEngine, PimIssueOutcome, StreamOutcome, StreamSpec, TimingViolation};
pub use geometry::{BankAddr, StackGeometry};
pub use integrity::{word_error_probs, EccConfig, EccOutcome, WordErrorProbs};
pub use power::PowerConstraint;
pub use stats::ChannelStats;
pub use timing::TimingParams;

/// A complete HBM stack configuration: geometry, timing, energy constants
/// and the derived power constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Physical organization of the stack.
    pub geometry: StackGeometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// Per-bit energy constants by datapath depth.
    pub energy: EnergyModel,
    /// IDD7-derived concurrency limits.
    pub power: PowerConstraint,
}

impl HbmConfig {
    /// The paper's 8-Hi HBM3 stack (16 GB, 5.2 Gbps/pin): the `DGX_Base`
    /// building block.
    #[must_use]
    pub fn hbm3_8hi() -> HbmConfig {
        let geometry = StackGeometry::hbm3_8hi();
        let timing = TimingParams::hbm3();
        let energy = EnergyModel::hbm3();
        let power = PowerConstraint::from_idd7(&geometry, &timing, &energy);
        HbmConfig {
            geometry,
            timing,
            energy,
            power,
        }
    }

    /// Peak power draw of one stack (watts) when every unit allowed by
    /// the IDD7 budget streams at `depth` concurrently. Convenience
    /// wrapper over [`PowerConstraint::peak_stack_power_w`] so callers
    /// holding a full config (e.g. the provisioning cost model) need not
    /// unpack its fields.
    #[must_use]
    pub fn peak_power_w(&self, depth: AccessDepth) -> f64 {
        self.power
            .peak_stack_power_w(&self.geometry, &self.timing, &self.energy, depth)
    }

    /// External (off-chip) bandwidth of the stack in bytes per second.
    #[must_use]
    pub fn external_bandwidth_bytes_per_s(&self) -> f64 {
        f64::from(self.geometry.pins) * self.timing.data_rate_gbps * 1e9 / 8.0
    }

    /// Aggregate internal bandwidth exploitable by bank-level PIM under the
    /// power constraint, in bytes per second.
    ///
    /// With the paper's parameters this is 9× the external bandwidth
    /// (18 concurrently active banks per pseudo-channel, each delivering
    /// one 32 B beat per tCCDL).
    #[must_use]
    pub fn pim_bank_bandwidth_bytes_per_s(&self) -> f64 {
        let per_bank = self.geometry.prefetch_bytes as f64 / self.timing.tccd_l_s();
        f64::from(self.power.max_active_banks) * f64::from(self.geometry.pseudo_channels) * per_bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep engine shares HBM configs across worker threads by
    /// reference; they must be `Send + Sync`.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn configs_are_shareable_across_threads() {
        assert_send_sync::<HbmConfig>();
    }

    #[test]
    fn stack_external_bandwidth_matches_paper() {
        let hbm = HbmConfig::hbm3_8hi();
        let gbs = hbm.external_bandwidth_bytes_per_s() / 1e9;
        assert!((gbs - 665.6).abs() < 1.0, "external = {gbs} GB/s");
        // 40 stacks ≈ the paper's 26.8 TB/s DGX figure (26.6 with exact pins).
        let dgx = 40.0 * gbs / 1000.0;
        assert!((dgx - 26.8).abs() < 0.3, "DGX = {dgx} TB/s");
    }

    #[test]
    fn pim_bank_bandwidth_is_9x_external() {
        let hbm = HbmConfig::hbm3_8hi();
        let ratio =
            hbm.pim_bank_bandwidth_bytes_per_s() / hbm.external_bandwidth_bytes_per_s();
        assert!((ratio - 9.0).abs() < 0.3, "ratio = {ratio}");
        // §7.1: 242 TB/s aggregate for 40 stacks.
        let agg = 40.0 * hbm.pim_bank_bandwidth_bytes_per_s() / 1e12;
        assert!((agg - 242.0).abs() < 8.0, "aggregate = {agg} TB/s");
    }
}
