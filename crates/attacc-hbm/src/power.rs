//! IDD7-derived power budget and PIM concurrency limits.
//!
//! The paper bounds PIM parallelism by the HBM power budget, computed from
//! the loop pattern of the all-bank interleaved-read current (IDD7, §4.1):
//! the stack may not draw more power than it would when streaming reads at
//! full external bandwidth. Because a bank-level PIM read travels a much
//! shorter (cheaper) path than an external read, many more of them fit in
//! the same budget — 18 concurrently streaming banks per pseudo-channel
//! versus 6 bank-group readers, reproducing the paper's figures.

use crate::{AccessDepth, EnergyModel, StackGeometry, TimingParams};

/// Concurrency limits derived from the IDD7 power budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConstraint {
    /// Power budget per pseudo-channel in watts.
    pub budget_per_pch_w: f64,
    /// Maximum concurrently streaming bank-level GEMV units per pCH.
    pub max_active_banks: u32,
    /// Maximum concurrently streaming BG-level GEMV units per pCH.
    pub max_active_bank_groups: u32,
}

impl PowerConstraint {
    /// Derives the constraint from the IDD7 loop: the budget equals the
    /// power of streaming external reads at full rate (activation included,
    /// amortized over full rows).
    #[must_use]
    pub fn from_idd7(
        geom: &StackGeometry,
        timing: &TimingParams,
        energy: &EnergyModel,
    ) -> PowerConstraint {
        let budget = Self::unit_power_w(geom, timing, energy, AccessDepth::External, false);
        let bank = Self::unit_power_w(geom, timing, energy, AccessDepth::Bank, true);
        let bg = Self::unit_power_w(geom, timing, energy, AccessDepth::BankGroup, true);
        PowerConstraint {
            budget_per_pch_w: budget,
            max_active_banks: ((budget / bank).floor() as u32).min(geom.banks_per_pch()),
            max_active_bank_groups: ((budget / bg).floor() as u32).min(geom.bank_groups_per_pch()),
        }
    }

    /// Power of one streaming reader at `depth` in watts. External readers
    /// stream a beat per tCCDS (full channel rate); in-stack PIM readers
    /// stream a beat per tCCDL.
    #[must_use]
    pub fn unit_power_w(
        geom: &StackGeometry,
        timing: &TimingParams,
        energy: &EnergyModel,
        depth: AccessDepth,
        with_mac: bool,
    ) -> f64 {
        let interval_s = match depth {
            AccessDepth::External | AccessDepth::Buffer => timing.tccd_s_s(),
            AccessDepth::Bank | AccessDepth::BankGroup => timing.tccd_l_s(),
        };
        let bits_per_s = geom.prefetch_bytes as f64 * 8.0 / interval_s;
        energy.streaming_pj_per_bit(depth, with_mac) * 1e-12 * bits_per_s
    }

    /// Maximum concurrently streaming units per pCH for a design point.
    #[must_use]
    pub fn max_active_units(&self, depth: AccessDepth, geom: &StackGeometry) -> u32 {
        match depth {
            AccessDepth::Bank => self.max_active_banks,
            AccessDepth::BankGroup => self.max_active_bank_groups,
            // One unit per pCH; the budget always admits it.
            AccessDepth::Buffer | AccessDepth::External => 1,
        }
        .min(match depth {
            AccessDepth::Bank => geom.banks_per_pch(),
            AccessDepth::BankGroup => geom.bank_groups_per_pch(),
            _ => 1,
        })
    }

    /// Peak stack power when a design point streams at its concurrency
    /// limit (watts). Used by the Fig. 7(a) reproduction.
    #[must_use]
    pub fn peak_stack_power_w(
        &self,
        geom: &StackGeometry,
        timing: &TimingParams,
        energy: &EnergyModel,
        depth: AccessDepth,
    ) -> f64 {
        let units = f64::from(self.max_active_units(depth, geom));
        let with_mac = !matches!(depth, AccessDepth::External);
        let unit = Self::unit_power_w(geom, timing, energy, depth, with_mac);
        units * unit * f64::from(geom.pseudo_channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StackGeometry, TimingParams, EnergyModel, PowerConstraint) {
        let g = StackGeometry::hbm3_8hi();
        let t = TimingParams::hbm3();
        let e = EnergyModel::hbm3();
        let p = PowerConstraint::from_idd7(&g, &t, &e);
        (g, t, e, p)
    }

    #[test]
    fn paper_concurrency_limits() {
        // §4.1: 18 GEMV units per pCH at bank level, 6 at BG level.
        let (_, _, _, p) = setup();
        assert_eq!(p.max_active_banks, 18);
        assert_eq!(p.max_active_bank_groups, 6);
    }

    #[test]
    fn bank_level_bandwidth_ratio_is_9x() {
        // 18 banks × (tCCDL beat) = 9× the external (tCCDS beat) rate.
        let (_, _, _, p) = setup();
        let ratio = f64::from(p.max_active_banks) * 0.5;
        assert!((ratio - 9.0).abs() < 1e-9);
    }

    #[test]
    fn bg_level_bandwidth_ratio_is_3x() {
        let (_, _, _, p) = setup();
        let ratio = f64::from(p.max_active_bank_groups) * 0.5;
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn budget_is_subwatt_per_pch() {
        let (_, _, _, p) = setup();
        assert!(p.budget_per_pch_w > 0.5 && p.budget_per_pch_w < 1.0);
    }

    #[test]
    fn peak_power_ordering() {
        // Buffer-level PIM draws the least; bank- and BG-level approach the
        // budget; none exceed it.
        let (g, t, e, p) = setup();
        let pw = |d| p.peak_stack_power_w(&g, &t, &e, d);
        let buffer = pw(AccessDepth::Buffer);
        let bg = pw(AccessDepth::BankGroup);
        let bank = pw(AccessDepth::Bank);
        let budget = p.budget_per_pch_w * f64::from(g.pseudo_channels);
        assert!(buffer < bg && bg < bank, "{buffer} {bg} {bank}");
        assert!(bank <= budget * 1.0001, "bank {bank} > budget {budget}");
    }

    #[test]
    fn limits_never_exceed_physical_counts() {
        let (g, _, _, p) = setup();
        assert!(p.max_active_banks <= g.banks_per_pch());
        assert!(p.max_active_bank_groups <= g.bank_groups_per_pch());
        assert_eq!(p.max_active_units(AccessDepth::Buffer, &g), 1);
    }
}
