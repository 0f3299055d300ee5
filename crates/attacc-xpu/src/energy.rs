//! Energy model of the conventional platform.
//!
//! Calibration: an A100-class GPU delivers ~312 TFLOPS FP16 at ~400 W, or
//! roughly 1 pJ per FLOP at high utilization; an off-chip HBM access costs
//! ~4 pJ/bit at the device plus controller/PHY overheads on the processor
//! side (~6 pJ/bit end to end, O'Connor et al. \[43\]); NVLink-class SerDes
//! move data at ~10 pJ/bit. Idle (static) power of a DGX-class box is
//! charged against wall-clock time.

/// Energy constants of an xPU system.
#[derive(Debug, Clone, PartialEq)]
pub struct XpuEnergyModel {
    /// Compute energy per floating-point (or INT8 MAC) operation, pJ.
    pub pj_per_flop: f64,
    /// End-to-end off-chip DRAM access energy, pJ/bit.
    pub dram_pj_per_bit: f64,
    /// Inter-device link energy, pJ/bit.
    pub link_pj_per_bit: f64,
    /// Static (idle) power of the whole system, watts.
    pub static_w: f64,
}

impl XpuEnergyModel {
    /// DGX-A100-class defaults.
    #[must_use]
    pub fn dgx() -> XpuEnergyModel {
        XpuEnergyModel {
            pj_per_flop: 1.0,
            dram_pj_per_bit: 6.0,
            link_pj_per_bit: 10.0,
            static_w: 1_000.0,
        }
    }

    /// Energy of executing `flops` operations and moving `dram_bytes` over
    /// `elapsed_s` seconds (joules).
    #[must_use]
    pub fn execution_j(&self, flops: f64, dram_bytes: f64, elapsed_s: f64) -> f64 {
        self.pj_per_flop * 1e-12 * flops
            + self.dram_pj_per_bit * 1e-12 * dram_bytes * 8.0
            + self.static_w * elapsed_s
    }

    /// Energy of moving `bytes` over a link (joules).
    #[must_use]
    pub fn link_j(&self, bytes: f64) -> f64 {
        self.link_pj_per_bit * 1e-12 * bytes * 8.0
    }

    /// Peak sustained power (watts) when the system runs at `flops_per_s`
    /// compute rate while streaming `dram_bytes_per_s` from DRAM: the
    /// dynamic terms of [`execution_j`] per second, plus static power.
    /// The provisioning cost model derives its `W/node` ceiling here so
    /// billing and energy accounting share one set of constants.
    ///
    /// [`execution_j`]: XpuEnergyModel::execution_j
    #[must_use]
    pub fn peak_execution_w(&self, flops_per_s: f64, dram_bytes_per_s: f64) -> f64 {
        self.execution_j(flops_per_s, dram_bytes_per_s, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_read_energy_scale() {
        // Reading GPT-3's 350 GB of weights once ≈ 17 J at 6 pJ/bit.
        let e = XpuEnergyModel::dgx();
        let j = e.execution_j(0.0, 350e9, 0.0);
        assert!((j - 16.8).abs() < 0.5, "j = {j}");
    }

    #[test]
    fn static_power_accrues_with_time() {
        let e = XpuEnergyModel::dgx();
        assert_eq!(e.execution_j(0.0, 0.0, 2.0), 2_000.0);
    }

    #[test]
    fn link_energy_linear() {
        let e = XpuEnergyModel::dgx();
        assert!((e.link_j(2e9) - 2.0 * e.link_j(1e9)).abs() < 1e-12);
    }
}
