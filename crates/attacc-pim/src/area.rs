//! Area model (§7.7).
//!
//! The constants come from the paper's post-synthesis numbers (Synopsys DC
//! with the ASAP7 predictive PDK, scaled to a 1z-nm DRAM process assuming
//! DRAM logic is 10× less dense than a logic process of the same feature
//! size): 0.094 mm² per GEMV unit and 0.036 mm² per accumulator on the
//! DRAM die, a 1.38 mm² softmax unit and 0.02 mm² accumulator on the
//! buffer die, against a 121 mm² HBM3 die.

use crate::GemvPlacement;
use attacc_hbm::HbmConfig;

/// Fabrication process of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessNode {
    /// 7 nm logic (buffer die).
    Logic7nm,
    /// Third-generation 10 nm-class (1z-nm) DRAM process.
    Dram1z,
}

impl ProcessNode {
    /// Density penalty relative to the logic process (Devaux, Hot Chips'19:
    /// DRAM process is ~10× less dense).
    #[must_use]
    pub const fn density_penalty(self) -> f64 {
        match self {
            ProcessNode::Logic7nm => 1.0,
            ProcessNode::Dram1z => 10.0,
        }
    }
}

/// Synthesized unit areas (mm²) in the 1z-nm DRAM process.
pub mod unit_area {
    /// One 16-lane GEMV unit (DRAM process).
    pub const GEMV_DRAM_MM2: f64 = 0.094;
    /// One DRAM-die accumulator.
    pub const ACCUM_DRAM_MM2: f64 = 0.036;
    /// The softmax unit on the buffer die (7 nm logic).
    pub const SOFTMAX_LOGIC_MM2: f64 = 1.38;
    /// The per-buffer-die accumulator (7 nm logic).
    pub const ACCUM_LOGIC_MM2: f64 = 0.02;
    /// Area of one HBM3 DRAM die.
    pub const DRAM_DIE_MM2: f64 = 121.0;
}

/// Area overhead of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Added area per DRAM die (mm²).
    pub per_dram_die_mm2: f64,
    /// Added area per buffer die (mm²).
    pub per_buffer_die_mm2: f64,
    /// DRAM-die overhead as a fraction of the 121 mm² die.
    pub dram_die_overhead: f64,
}

impl AreaReport {
    /// Computes the overhead of `placement` on `cfg`'s stack.
    #[must_use]
    pub fn for_placement(placement: GemvPlacement, cfg: &HbmConfig) -> AreaReport {
        let g = &cfg.geometry;
        let dies = f64::from(g.dram_dies);
        let (dram_mm2, buffer_extra) = match placement {
            GemvPlacement::Bank => {
                // One GEMV unit per bank + one accumulator per bank group,
                // all in the DRAM process.
                let units = f64::from(g.total_banks()) / dies;
                let accs = f64::from(g.total_bank_groups()) / dies;
                (
                    units * unit_area::GEMV_DRAM_MM2 + accs * unit_area::ACCUM_DRAM_MM2,
                    0.0,
                )
            }
            GemvPlacement::BankGroup => {
                // One GEMV unit per bank group on the DRAM die.
                let units = f64::from(g.total_bank_groups()) / dies;
                (units * unit_area::GEMV_DRAM_MM2, 0.0)
            }
            GemvPlacement::Buffer => {
                // GEMV units live on the buffer die in the logic process:
                // 10× denser than the DRAM-process synthesis.
                let units = f64::from(g.pseudo_channels);
                (
                    0.0,
                    units * unit_area::GEMV_DRAM_MM2 / ProcessNode::Dram1z.density_penalty(),
                )
            }
        };
        let buffer =
            unit_area::SOFTMAX_LOGIC_MM2 + unit_area::ACCUM_LOGIC_MM2 + buffer_extra;
        AreaReport {
            per_dram_die_mm2: dram_mm2,
            per_buffer_die_mm2: buffer,
            dram_die_overhead: dram_mm2 / unit_area::DRAM_DIE_MM2,
        }
    }

    /// Total added silicon per stack (mm²).
    #[must_use]
    pub fn total_stack_mm2(&self, cfg: &HbmConfig) -> f64 {
        self.per_dram_die_mm2 * f64::from(cfg.geometry.dram_dies) + self.per_buffer_die_mm2
    }

    /// Whole-stack silicon area (base dies plus overhead, mm²) — the area
    /// term of the Fig. 7(d) EDAP comparison, where each design point pays
    /// for the entire (modified) stack, not just the added units.
    #[must_use]
    pub fn stack_silicon_mm2(&self, cfg: &HbmConfig) -> f64 {
        let dies = f64::from(cfg.geometry.dram_dies);
        dies * (unit_area::DRAM_DIE_MM2 + self.per_dram_die_mm2)
            + unit_area::DRAM_DIE_MM2
            + self.per_buffer_die_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HbmConfig {
        HbmConfig::hbm3_8hi()
    }

    #[test]
    fn bank_placement_matches_paper_numbers() {
        // §7.7: 13.12 mm² per DRAM die (10.84% of 121 mm²), 1.40 mm² per
        // buffer die.
        let r = AreaReport::for_placement(GemvPlacement::Bank, &cfg());
        assert!(
            (r.per_dram_die_mm2 - 13.12).abs() < 0.3,
            "per-die = {} mm²",
            r.per_dram_die_mm2
        );
        assert!(
            (r.dram_die_overhead - 0.1084).abs() < 0.003,
            "overhead = {}",
            r.dram_die_overhead
        );
        assert!((r.per_buffer_die_mm2 - 1.40).abs() < 0.01);
    }

    #[test]
    fn area_ordering_buffer_lt_bg_lt_bank() {
        let c = cfg();
        let total = |p| AreaReport::for_placement(p, &c).total_stack_mm2(&c);
        let buffer = total(GemvPlacement::Buffer);
        let bg = total(GemvPlacement::BankGroup);
        let bank = total(GemvPlacement::Bank);
        assert!(buffer < bg && bg < bank, "{buffer} {bg} {bank}");
    }

    #[test]
    fn buffer_placement_has_no_dram_die_overhead() {
        let r = AreaReport::for_placement(GemvPlacement::Buffer, &cfg());
        assert_eq!(r.per_dram_die_mm2, 0.0);
        assert!(r.per_buffer_die_mm2 > unit_area::SOFTMAX_LOGIC_MM2);
    }

    #[test]
    fn logic_units_are_10x_denser() {
        assert_eq!(ProcessNode::Dram1z.density_penalty(), 10.0);
        assert_eq!(ProcessNode::Logic7nm.density_penalty(), 1.0);
    }
}
