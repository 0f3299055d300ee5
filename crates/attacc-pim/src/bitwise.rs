//! Bulk bitwise in-DRAM computation versus bank-level PIM (§8).
//!
//! The paper dismisses Ambit-style bulk bitwise computation for the
//! attention layer: even with INT8 quantization, a bit-serial multiply
//! needs ~400 AAP (activate-activate-precharge) command triples, ~20 µs,
//! yielding ~8,192 multiplications per bank per 20 µs (one per row
//! element), whereas bank-level PIM performs 32 INT8 MACs every tCCDL —
//! about 200,000 in the same window.

/// Analytical model of Ambit/SIMDRAM-style bulk bitwise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkBitwiseModel {
    /// Duration of one AAP triple in nanoseconds (≈ tRC).
    pub aap_ns: f64,
    /// AAP triples per INT8 multiplication (~100 logic ops × 4 AAPs).
    pub aaps_per_int8_mul: u64,
    /// Elements processed in parallel per row-wide operation.
    pub row_elems: u64,
    /// Subarrays operating concurrently per bank (SALP/LISA, the §8
    /// amplification — 1 without it).
    pub subarray_parallelism: u64,
}

impl Default for BulkBitwiseModel {
    fn default() -> Self {
        BulkBitwiseModel {
            aap_ns: 50.0,
            aaps_per_int8_mul: 400,
            row_elems: 8192,
            subarray_parallelism: 1,
        }
    }
}

impl BulkBitwiseModel {
    /// The model amplified by `ways`-way subarray-level parallelism.
    ///
    /// # Panics
    /// Panics if `ways` is zero.
    #[must_use]
    pub fn with_subarray_parallelism(mut self, ways: u64) -> BulkBitwiseModel {
        assert!(ways > 0, "subarray parallelism must be positive");
        self.subarray_parallelism = ways;
        self
    }

    /// Latency of one row-wide INT8 multiplication in microseconds (~20).
    #[must_use]
    pub fn int8_mul_latency_us(&self) -> f64 {
        self.aaps_per_int8_mul as f64 * self.aap_ns * 1e-3
    }

    /// INT8 multiplications completed per bank in a `window_us` window.
    #[must_use]
    pub fn int8_muls_per_bank(&self, window_us: f64) -> f64 {
        (window_us / self.int8_mul_latency_us())
            * self.row_elems as f64
            * self.subarray_parallelism as f64
    }
}

/// Analytical model of the bank-level PIM MAC datapath for the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankPimModel {
    /// INT8 MACs per tCCDL beat (32 B prefetch of INT8 operands).
    pub macs_per_beat: u64,
    /// tCCDL in nanoseconds.
    pub tccd_l_ns: f64,
}

impl Default for BankPimModel {
    fn default() -> Self {
        BankPimModel {
            macs_per_beat: 32,
            tccd_l_ns: 3.0,
        }
    }
}

impl BankPimModel {
    /// INT8 MACs per bank in a `window_us` window.
    #[must_use]
    pub fn int8_muls_per_bank(&self, window_us: f64) -> f64 {
        (window_us * 1e3 / self.tccd_l_ns) * self.macs_per_beat as f64
    }
}

/// Throughput advantage of bank-level PIM over bulk bitwise computation
/// for INT8 multiplication (the §8 argument).
#[must_use]
pub fn bank_pim_speedup(bulk: &BulkBitwiseModel, pim: &BankPimModel) -> f64 {
    pim.int8_muls_per_bank(20.0) / bulk.int8_muls_per_bank(20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_latency_is_about_20us() {
        let m = BulkBitwiseModel::default();
        assert!((m.int8_mul_latency_us() - 20.0).abs() < 0.5);
    }

    #[test]
    fn bulk_does_8192_muls_per_window() {
        let m = BulkBitwiseModel::default();
        assert!((m.int8_muls_per_bank(20.0) - 8192.0).abs() < 1.0);
    }

    #[test]
    fn bank_pim_does_about_200k() {
        // §8: "approximately 200,000 multiplications during 20 µs".
        let m = BankPimModel::default();
        let n = m.int8_muls_per_bank(20.0);
        assert!((180_000.0..230_000.0).contains(&n), "n = {n}");
    }

    #[test]
    fn bank_pim_wins_by_over_20x() {
        let s = bank_pim_speedup(&BulkBitwiseModel::default(), &BankPimModel::default());
        assert!(s > 20.0, "speedup = {s}");
    }

    #[test]
    fn subarray_parallelism_amplifies_but_does_not_close_the_gap() {
        // §8: "which can be amplified by subarray-level parallelism" —
        // yet even generous 8-way SALP leaves bank-level PIM ahead.
        let salp8 = BulkBitwiseModel::default().with_subarray_parallelism(8);
        assert!((salp8.int8_muls_per_bank(20.0) - 8.0 * 8192.0).abs() < 1.0);
        let s = bank_pim_speedup(&salp8, &BankPimModel::default());
        assert!(s > 3.0, "speedup with SALP-8 = {s}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_subarrays_rejected() {
        let _ = BulkBitwiseModel::default().with_subarray_parallelism(0);
    }
}
