//! The §4.1 design space: where to put the GEMV units.

use attacc_hbm::{AccessDepth, HbmConfig};
use std::fmt;

/// GEMV-unit placement within the HBM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemvPlacement {
    /// One unit per pseudo-channel on the buffer die (`AttAcc_buffer`):
    /// logic-process units, but no bandwidth gain over external I/O.
    Buffer,
    /// One unit per bank group at the GBUS controller (`AttAcc_BG`).
    BankGroup,
    /// One unit per bank beside the column decoder (`AttAcc_bank`) — the
    /// paper's chosen point.
    Bank,
}

impl GemvPlacement {
    /// All three design points, in paper order.
    pub const ALL: [GemvPlacement; 3] =
        [GemvPlacement::Buffer, GemvPlacement::BankGroup, GemvPlacement::Bank];

    /// The datapath depth at which streamed data is consumed.
    #[must_use]
    pub const fn depth(self) -> AccessDepth {
        match self {
            GemvPlacement::Buffer => AccessDepth::Buffer,
            GemvPlacement::BankGroup => AccessDepth::BankGroup,
            GemvPlacement::Bank => AccessDepth::Bank,
        }
    }

    /// GEMV units physically present per pseudo-channel.
    #[must_use]
    pub fn units_per_pch(self, cfg: &HbmConfig) -> u32 {
        match self {
            GemvPlacement::Buffer => 1,
            GemvPlacement::BankGroup => cfg.geometry.bank_groups_per_pch(),
            GemvPlacement::Bank => cfg.geometry.banks_per_pch(),
        }
    }

    /// GEMV units concurrently active per pseudo-channel under the IDD7
    /// power budget (1 / 6 / 18 with the paper's parameters).
    #[must_use]
    pub fn max_active_per_pch(self, cfg: &HbmConfig) -> u32 {
        cfg.power.max_active_units(self.depth(), &cfg.geometry)
    }

    /// Per-unit streaming rate in bytes/s: buffer units read at the channel
    /// (tCCDS) rate; in-die units read at the tCCDL rate.
    #[must_use]
    pub fn unit_rate_bytes_per_s(self, cfg: &HbmConfig) -> f64 {
        let interval = match self {
            GemvPlacement::Buffer => cfg.timing.tccd_s_s(),
            GemvPlacement::BankGroup | GemvPlacement::Bank => cfg.timing.tccd_l_s(),
        };
        cfg.geometry.prefetch_bytes as f64 / interval
    }

    /// Aggregate exploitable bandwidth of one stack in bytes/s (power
    /// constraint applied).
    #[must_use]
    pub fn stack_bandwidth_bytes_per_s(self, cfg: &HbmConfig) -> f64 {
        f64::from(self.max_active_per_pch(cfg))
            * self.unit_rate_bytes_per_s(cfg)
            * f64::from(cfg.geometry.pseudo_channels)
    }

    /// Bandwidth relative to the stack's external bandwidth (1 / 3 / 9).
    #[must_use]
    pub fn relative_bandwidth(self, cfg: &HbmConfig) -> f64 {
        self.stack_bandwidth_bytes_per_s(cfg) / cfg.external_bandwidth_bytes_per_s()
    }

    /// Per-bit energy of streaming into the units (activation amortized,
    /// MAC included), in pJ/bit.
    #[must_use]
    pub fn stream_energy_pj_per_bit(self, cfg: &HbmConfig) -> f64 {
        cfg.energy.streaming_pj_per_bit(self.depth(), true)
    }
}

impl fmt::Display for GemvPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GemvPlacement::Buffer => "AttAcc_buffer",
            GemvPlacement::BankGroup => "AttAcc_BG",
            GemvPlacement::Bank => "AttAcc_bank",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HbmConfig {
        HbmConfig::hbm3_8hi()
    }

    #[test]
    fn unit_counts_match_geometry() {
        let c = cfg();
        assert_eq!(GemvPlacement::Buffer.units_per_pch(&c), 1);
        assert_eq!(GemvPlacement::BankGroup.units_per_pch(&c), 8);
        assert_eq!(GemvPlacement::Bank.units_per_pch(&c), 32);
    }

    #[test]
    fn active_counts_match_paper() {
        let c = cfg();
        assert_eq!(GemvPlacement::Bank.max_active_per_pch(&c), 18);
        assert_eq!(GemvPlacement::BankGroup.max_active_per_pch(&c), 6);
        assert_eq!(GemvPlacement::Buffer.max_active_per_pch(&c), 1);
    }

    #[test]
    fn relative_bandwidths_are_1_3_9() {
        let c = cfg();
        let rel = |p: GemvPlacement| p.relative_bandwidth(&c);
        assert!((rel(GemvPlacement::Buffer) - 1.0).abs() < 0.05);
        assert!((rel(GemvPlacement::BankGroup) - 3.0).abs() < 0.1);
        assert!((rel(GemvPlacement::Bank) - 9.0).abs() < 0.3);
    }

    #[test]
    fn deeper_placement_streams_cheaper() {
        let c = cfg();
        let e = |p: GemvPlacement| p.stream_energy_pj_per_bit(&c);
        assert!(e(GemvPlacement::Bank) < e(GemvPlacement::BankGroup));
        assert!(e(GemvPlacement::BankGroup) < e(GemvPlacement::Buffer));
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(GemvPlacement::Bank.to_string(), "AttAcc_bank");
        assert_eq!(GemvPlacement::BankGroup.to_string(), "AttAcc_BG");
    }
}
