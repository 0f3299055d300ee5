//! Per-bank DRAM state machine with timing legality checks.

use crate::TimingParams;

/// The operational phase of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankPhase {
    /// No row open; ready to activate once tRP has elapsed.
    Idle,
    /// A row is open and readable after tRCD.
    Active,
}

/// Timing state of a single bank.
///
/// All timestamps are picoseconds on the channel clock. The bank enforces
/// tRCD (activate→read), tRAS (activate→precharge), tRP (precharge→
/// activate), tRC (activate→activate) and the per-bank read cadence
/// (tCCDL — one beat per column command to the same bank group, which a
/// single bank trivially is a member of).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    /// Current phase.
    pub phase: BankPhase,
    /// Currently open row, if any.
    pub open_row: Option<u64>,
    /// Time of the last activate.
    pub last_act_ps: u64,
    /// Earliest time the next activate may start.
    pub act_ready_ps: u64,
    /// Earliest time the next read may start.
    pub read_ready_ps: u64,
    /// Earliest time a precharge may start.
    pub pre_ready_ps: u64,
}

impl Default for BankState {
    fn default() -> Self {
        BankState::new()
    }
}

impl BankState {
    /// A freshly powered-up, precharged bank.
    #[must_use]
    pub const fn new() -> BankState {
        BankState {
            phase: BankPhase::Idle,
            open_row: None,
            last_act_ps: 0,
            act_ready_ps: 0,
            read_ready_ps: 0,
            pre_ready_ps: 0,
        }
    }

    /// Activates `row` no earlier than `not_before`; returns the actual
    /// start time.
    ///
    /// # Panics
    /// Panics if a row is already open (precharge first).
    pub fn activate(&mut self, t: &TimingParams, row: u64, not_before: u64) -> u64 {
        assert_eq!(self.phase, BankPhase::Idle, "activate requires a precharged bank");
        let start = not_before.max(self.act_ready_ps);
        self.phase = BankPhase::Active;
        self.open_row = Some(row);
        self.last_act_ps = start;
        self.read_ready_ps = self.read_ready_ps.max(start + t.t_rcd);
        self.pre_ready_ps = start + t.t_ras;
        self.act_ready_ps = start + t.t_rc();
        start
    }

    /// Reads one beat no earlier than `not_before`; returns the start time.
    /// Subsequent reads to this bank are gated by `t_ccd_l`.
    ///
    /// # Panics
    /// Panics if no row is open.
    pub fn read(&mut self, t: &TimingParams, not_before: u64) -> u64 {
        assert_eq!(self.phase, BankPhase::Active, "read requires an open row");
        let start = not_before.max(self.read_ready_ps);
        self.read_ready_ps = start + t.t_ccd_l;
        // Reads extend the earliest legal precharge (data restore).
        self.pre_ready_ps = self.pre_ready_ps.max(start + t.t_ccd_l);
        start
    }

    /// Writes one beat no earlier than `not_before`; returns the start
    /// time. Writes share the column cadence with reads but push the
    /// earliest precharge out by the write-recovery time `t_wr`.
    ///
    /// # Panics
    /// Panics if no row is open.
    pub fn write(&mut self, t: &TimingParams, not_before: u64) -> u64 {
        assert_eq!(self.phase, BankPhase::Active, "write requires an open row");
        let start = not_before.max(self.read_ready_ps);
        self.read_ready_ps = start + t.t_ccd_l;
        self.pre_ready_ps = self.pre_ready_ps.max(start + t.t_ccd_l + t.t_wr);
        start
    }

    /// Precharges no earlier than `not_before`; returns the start time.
    ///
    /// # Panics
    /// Panics if no row is open.
    pub fn precharge(&mut self, t: &TimingParams, not_before: u64) -> u64 {
        assert_eq!(self.phase, BankPhase::Active, "precharge requires an open row");
        let start = not_before.max(self.pre_ready_ps);
        self.phase = BankPhase::Idle;
        self.open_row = None;
        self.act_ready_ps = self.act_ready_ps.max(start + t.t_rp);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::hbm3()
    }

    #[test]
    fn activate_read_precharge_cycle() {
        let tp = t();
        let mut b = BankState::new();
        let a0 = b.activate(&tp, 7, 0);
        assert_eq!(a0, 0);
        assert_eq!(b.open_row, Some(7));
        let r0 = b.read(&tp, 0);
        assert_eq!(r0, tp.t_rcd, "first read waits tRCD");
        let r1 = b.read(&tp, 0);
        assert_eq!(r1, r0 + tp.t_ccd_l, "reads separated by tCCDL");
        let p = b.precharge(&tp, 0);
        assert!(p >= tp.t_ras, "precharge respects tRAS");
        let a1 = b.activate(&tp, 8, 0);
        assert!(a1 >= p + tp.t_rp, "activate respects tRP");
        assert!(a1 >= a0 + tp.t_rc(), "activate respects tRC");
    }

    #[test]
    fn not_before_is_respected() {
        let tp = t();
        let mut b = BankState::new();
        assert_eq!(b.activate(&tp, 0, 123_000), 123_000);
        assert_eq!(b.read(&tp, 999_000), 999_000);
    }

    #[test]
    #[should_panic(expected = "requires an open row")]
    fn read_without_activate_panics() {
        let mut b = BankState::new();
        let _ = b.read(&t(), 0);
    }

    #[test]
    #[should_panic(expected = "requires a precharged bank")]
    fn double_activate_panics() {
        let tp = t();
        let mut b = BankState::new();
        let _ = b.activate(&tp, 0, 0);
        let _ = b.activate(&tp, 1, 0);
    }

    #[test]
    fn write_recovery_defers_precharge() {
        let tp = t();
        let mut b = BankState::new();
        let _ = b.activate(&tp, 0, 0);
        let w = b.write(&tp, 0);
        assert_eq!(w, tp.t_rcd);
        let p = b.precharge(&tp, 0);
        assert!(p >= w + tp.t_ccd_l + tp.t_wr, "p = {p}");
    }

    #[test]
    fn reads_and_writes_share_column_cadence() {
        let tp = t();
        let mut b = BankState::new();
        let _ = b.activate(&tp, 0, 0);
        let r = b.read(&tp, 0);
        let w = b.write(&tp, 0);
        assert!(w >= r + tp.t_ccd_l);
    }

    #[test]
    fn long_read_burst_defers_precharge() {
        let tp = t();
        let mut b = BankState::new();
        let _ = b.activate(&tp, 0, 0);
        let mut last = 0;
        for _ in 0..32 {
            last = b.read(&tp, 0);
        }
        let p = b.precharge(&tp, 0);
        assert!(p >= last + tp.t_ccd_l);
    }
}
