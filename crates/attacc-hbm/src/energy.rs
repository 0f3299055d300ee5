//! Per-bit energy constants and energy accounting.
//!
//! The datapath is modeled as nested segments; an access that terminates at
//! depth *d* pays for every segment from the cell array up to *d*:
//!
//! ```text
//! cell array ── bank I/O ──► [Bank]
//!     bank ── BG bus ──► [BankGroup]
//!     BG ── GBUS + TSV ──► [Buffer]
//!     buffer ── PHY + interposer ──► [External]
//! ```
//!
//! The constants are calibrated against two anchors: (1) the ~4 pJ/bit
//! external HBM access energy reported by O'Connor et al. (MICRO'17, the
//! paper’s energy reference \[43\]), and (2) the paper's IDD7-derived
//! concurrency limits (18 bank-level / 6 BG-level GEMV units per pCH,
//! §4.1), which pin the *ratios* between the segment energies.

/// Where in the stack hierarchy an access terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessDepth {
    /// Data consumed at the bank (bank-level PIM).
    Bank,
    /// Data consumed at the bank-group GBUS controller (BG-level PIM).
    BankGroup,
    /// Data consumed on the buffer die (buffer-level PIM, softmax unit).
    Buffer,
    /// Data leaves the stack (conventional access).
    External,
}

/// Per-bit energy constants of the HBM datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Row-activation energy, amortized per bit of the row (pJ/bit).
    pub act_pj_per_bit: f64,
    /// Cell array to bank I/O (pJ/bit).
    pub array_pj_per_bit: f64,
    /// Bank to bank-group controller (pJ/bit).
    pub bg_bus_pj_per_bit: f64,
    /// GBUS across the die plus TSV to the buffer die (pJ/bit).
    pub tsv_pj_per_bit: f64,
    /// Buffer-die PHY and interposer to the host (pJ/bit).
    pub io_pj_per_bit: f64,
    /// PIM MAC datapath energy per bit of operand streamed (pJ/bit).
    pub mac_pj_per_bit: f64,
}

impl EnergyModel {
    /// HBM3 preset (see module docs for calibration).
    #[must_use]
    pub fn hbm3() -> EnergyModel {
        EnergyModel {
            act_pj_per_bit: 0.10,
            array_pj_per_bit: 0.29,
            bg_bus_pj_per_bit: 0.85,
            tsv_pj_per_bit: 0.90,
            io_pj_per_bit: 1.90,
            mac_pj_per_bit: 0.05,
        }
    }

    /// Datapath energy for moving one bit from the cell array to `depth`
    /// (activation not included).
    #[must_use]
    pub fn read_path_pj_per_bit(&self, depth: AccessDepth) -> f64 {
        let mut e = self.array_pj_per_bit;
        if depth >= AccessDepth::BankGroup {
            e += self.bg_bus_pj_per_bit;
        }
        if depth >= AccessDepth::Buffer {
            e += self.tsv_pj_per_bit;
        }
        if depth >= AccessDepth::External {
            e += self.io_pj_per_bit;
        }
        e
    }

    /// Energy of one row activation (pJ) for a `row_bytes`-byte row.
    #[must_use]
    pub fn act_energy_pj(&self, row_bytes: u64) -> f64 {
        self.act_pj_per_bit * row_bytes as f64 * 8.0
    }

    /// Energy of one read of `bytes` terminating at `depth`, with an
    /// optional PIM MAC charge (pJ). Activation is charged separately.
    #[must_use]
    pub fn read_energy_pj(&self, depth: AccessDepth, bytes: u64, with_mac: bool) -> f64 {
        let bits = bytes as f64 * 8.0;
        let mut per_bit = self.read_path_pj_per_bit(depth);
        if with_mac {
            per_bit += self.mac_pj_per_bit;
        }
        per_bit * bits
    }

    /// Effective streaming energy per bit at `depth` including row-
    /// activation amortized over a full row and the MAC charge if PIM.
    /// This is the quantity the power budget divides by.
    #[must_use]
    pub fn streaming_pj_per_bit(&self, depth: AccessDepth, with_mac: bool) -> f64 {
        let mut e = self.act_pj_per_bit + self.read_path_pj_per_bit(depth);
        if with_mac {
            e += self.mac_pj_per_bit;
        }
        e
    }
}

/// Accumulated energy by category, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounter {
    /// Row activations.
    pub activation_pj: f64,
    /// Read/write datapath movement inside the stack.
    pub datapath_pj: f64,
    /// External I/O crossings.
    pub io_pj: f64,
    /// PIM arithmetic (GEMV MACs, softmax).
    pub compute_pj: f64,
}

impl EnergyCounter {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.activation_pj + self.datapath_pj + self.io_pj + self.compute_pj
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.total_pj() * 1e-12
    }

    /// Component-wise accumulation.
    pub fn absorb(&mut self, other: &EnergyCounter) {
        self.activation_pj += other.activation_pj;
        self.datapath_pj += other.datapath_pj;
        self.io_pj += other.io_pj;
        self.compute_pj += other.compute_pj;
    }

    /// Scales every component (e.g. to replicate one simulated channel
    /// across a stack).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> EnergyCounter {
        EnergyCounter {
            activation_pj: self.activation_pj * factor,
            datapath_pj: self.datapath_pj * factor,
            io_pj: self.io_pj * factor,
            compute_pj: self.compute_pj * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_access_is_about_4pj_per_bit() {
        let e = EnergyModel::hbm3();
        let total = e.streaming_pj_per_bit(AccessDepth::External, false);
        assert!((total - 4.04).abs() < 0.1, "external = {total} pJ/bit");
    }

    #[test]
    fn depth_energy_is_monotone() {
        let e = EnergyModel::hbm3();
        let d = [
            AccessDepth::Bank,
            AccessDepth::BankGroup,
            AccessDepth::Buffer,
            AccessDepth::External,
        ];
        for w in d.windows(2) {
            assert!(e.read_path_pj_per_bit(w[0]) < e.read_path_pj_per_bit(w[1]));
        }
    }

    #[test]
    fn bank_read_is_much_cheaper_than_external() {
        // The PIM energy win: a bank-level read avoids ~90% of the path.
        let e = EnergyModel::hbm3();
        let ratio = e.read_path_pj_per_bit(AccessDepth::External)
            / e.read_path_pj_per_bit(AccessDepth::Bank);
        assert!(ratio > 5.0, "ratio = {ratio}");
    }

    #[test]
    fn act_energy_scales_with_row() {
        let e = EnergyModel::hbm3();
        assert!((e.act_energy_pj(2048) - 2.0 * e.act_energy_pj(1024)).abs() < 1e-9);
    }

    #[test]
    fn counter_absorbs_and_scales() {
        let mut a = EnergyCounter {
            activation_pj: 1.0,
            datapath_pj: 2.0,
            io_pj: 3.0,
            compute_pj: 4.0,
        };
        a.absorb(&a.clone().scaled(1.0));
        assert!((a.total_pj() - 20.0).abs() < 1e-12);
        assert!((a.total_j() - 20e-12).abs() < 1e-24);
    }

    #[test]
    fn mac_charge_applied_when_requested() {
        let e = EnergyModel::hbm3();
        let plain = e.read_energy_pj(AccessDepth::Bank, 32, false);
        let mac = e.read_energy_pj(AccessDepth::Bank, 32, true);
        assert!(mac > plain);
        assert!((mac - plain - e.mac_pj_per_bit * 256.0).abs() < 1e-9);
    }
}
