//! DRAM timing parameters (picosecond granularity).

/// DRAM timing parameters of an HBM stack, in picoseconds.
///
/// The values follow the public HBM3 figures the paper quotes: 5.2 Gbps
/// per pin, tCCDS = 1.5 ns (the GEMV unit's 666 MHz clock is derived from
/// it, §7.1), tCCDL = 3 ns (§8's "every tCCDL (3 ns)").
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// Per-pin data rate in Gbit/s.
    pub data_rate_gbps: f64,
    /// Column-to-column delay, different bank groups (ps).
    pub t_ccd_s: u64,
    /// Column-to-column delay, same bank group (ps).
    pub t_ccd_l: u64,
    /// Activate-to-read delay (ps).
    pub t_rcd: u64,
    /// Precharge period (ps).
    pub t_rp: u64,
    /// Activate-to-precharge minimum (ps).
    pub t_ras: u64,
    /// Four-activate window (ps).
    pub t_faw: u64,
    /// Activate-to-activate, different banks same rank (ps).
    pub t_rrd: u64,
    /// Read latency: column command to first data (ps).
    pub t_rl: u64,
    /// Write recovery: last write beat to precharge (ps).
    pub t_wr: u64,
    /// Average refresh interval (ps).
    pub t_refi: u64,
    /// Refresh cycle time: the channel stalls this long per refresh (ps).
    pub t_rfc: u64,
}

impl TimingParams {
    /// Public HBM3 timing preset.
    #[must_use]
    pub fn hbm3() -> TimingParams {
        TimingParams {
            data_rate_gbps: 5.2,
            t_ccd_s: 1_500,
            t_ccd_l: 3_000,
            t_rcd: 14_000,
            t_rp: 14_000,
            t_ras: 33_000,
            t_faw: 16_000,
            t_rrd: 4_000,
            t_rl: 18_000,
            t_wr: 15_000,
            t_refi: 3_900_000,
            t_rfc: 260_000,
        }
    }

    /// Fraction of wall-clock time lost to refresh: `tRFC / tREFI`.
    ///
    /// Applied as a multiplicative derate to sustained-stream times; the
    /// engine's tests confirm the closed form matches injecting explicit
    /// refresh stalls.
    #[must_use]
    pub fn refresh_overhead(&self) -> f64 {
        if self.t_refi == 0 {
            return 0.0;
        }
        self.t_rfc as f64 / self.t_refi as f64
    }

    /// Stretches a busy interval to account for refresh stalls.
    #[must_use]
    pub fn with_refresh(&self, busy_ps: u64) -> u64 {
        let stalls = busy_ps / self.t_refi.max(1);
        busy_ps + stalls * self.t_rfc
    }

    /// Row-cycle time: minimum interval between activates to the same bank.
    #[must_use]
    pub const fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }

    /// tCCDL in seconds.
    #[must_use]
    pub fn tccd_l_s(&self) -> f64 {
        self.t_ccd_l as f64 * 1e-12
    }

    /// tCCDS in seconds.
    #[must_use]
    pub fn tccd_s_s(&self) -> f64 {
        self.t_ccd_s as f64 * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm3_preset_sanity() {
        let t = TimingParams::hbm3();
        assert_eq!(t.t_ccd_l, 2 * t.t_ccd_s);
        assert!(t.t_rcd < t.t_ras);
        assert_eq!(t.t_rc(), 47_000);
        assert!(t.t_wr > 0);
    }

    #[test]
    fn refresh_overhead_is_a_few_percent() {
        let t = TimingParams::hbm3();
        let o = t.refresh_overhead();
        assert!(o > 0.02 && o < 0.10, "overhead = {o}");
    }

    #[test]
    fn with_refresh_injects_one_stall_per_trefi() {
        let t = TimingParams::hbm3();
        assert_eq!(t.with_refresh(0), 0);
        assert_eq!(t.with_refresh(t.t_refi), t.t_refi + t.t_rfc);
        let long = 10 * t.t_refi;
        assert_eq!(t.with_refresh(long), long + 10 * t.t_rfc);
    }

    #[test]
    fn gemv_clock_from_tccds() {
        // §7.1: GEMV units run at 666 MHz "considering tCCDS (1.5 ns)".
        let t = TimingParams::hbm3();
        let mhz = 1e6 / t.t_ccd_s as f64;
        assert!((mhz - 666.7).abs() < 1.0, "clock = {mhz} MHz");
    }

    #[test]
    fn prefetch_rate_matches_pin_rate() {
        // 32 B per tCCDS over 32 pins at 5.2 Gbps should agree within 10%:
        // 32 B / 1.5 ns = 21.3 GB/s vs 32 pin × 5.2 Gbps = 20.8 GB/s.
        let t = TimingParams::hbm3();
        let beat = 32.0 / (t.t_ccd_s as f64 * 1e-12) / 1e9;
        let pins = 32.0 * t.data_rate_gbps / 8.0;
        assert!((beat - pins).abs() / pins < 0.1, "{beat} vs {pins}");
    }
}
