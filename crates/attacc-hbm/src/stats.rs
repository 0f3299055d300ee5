//! Channel statistics: per-bank command counts, row-buffer behaviour and
//! bus occupancy.

use crate::StackGeometry;

/// Counters one [`crate::ChannelEngine`] maintains while executing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelStats {
    /// Activates per bank (dense bank index).
    pub acts: Vec<u64>,
    /// Reads per bank.
    pub reads: Vec<u64>,
    /// Writes per bank.
    pub writes: Vec<u64>,
    /// Precharges per bank.
    pub precharges: Vec<u64>,
    /// Column commands that hit an already-open row (no activate needed
    /// since the previous column command).
    pub row_hits: u64,
    /// Column commands that required a fresh activate.
    pub row_opens: u64,
    /// Picoseconds the shared channel bus carried data.
    pub bus_busy_ps: u64,
}

impl ChannelStats {
    /// Zeroed counters for a channel of `geom`.
    #[must_use]
    pub fn new(geom: &StackGeometry) -> ChannelStats {
        let n = geom.banks_per_pch() as usize;
        ChannelStats {
            acts: vec![0; n],
            reads: vec![0; n],
            writes: vec![0; n],
            precharges: vec![0; n],
            row_hits: 0,
            row_opens: 0,
            bus_busy_ps: 0,
        }
    }

    /// Total column commands.
    #[must_use]
    pub fn column_commands(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Row-buffer hit rate over column commands (0 when none issued).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_opens;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Index and read count of the most-read bank.
    #[must_use]
    pub fn busiest_bank(&self) -> (usize, u64) {
        self.reads
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .unwrap_or((0, 0))
    }

    /// Read-imbalance across banks: max/mean (1.0 = perfectly even).
    #[must_use]
    pub fn read_imbalance(&self) -> f64 {
        let total: u64 = self.reads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.reads.len() as f64;
        self.busiest_bank().1 as f64 / mean
    }

    /// Channel-bus utilization over a `window_ps` interval.
    #[must_use]
    pub fn bus_utilization(&self, window_ps: u64) -> f64 {
        if window_ps == 0 {
            0.0
        } else {
            self.bus_busy_ps as f64 / window_ps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ChannelStats {
        ChannelStats::new(&StackGeometry::hbm3_8hi())
    }

    #[test]
    fn new_stats_are_zero() {
        let s = stats();
        assert_eq!(s.column_commands(), 0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.read_imbalance(), 1.0);
        assert_eq!(s.bus_utilization(1000), 0.0);
    }

    #[test]
    fn hit_rate_math() {
        let mut s = stats();
        s.row_hits = 30;
        s.row_opens = 10;
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn busiest_bank_and_imbalance() {
        let mut s = stats();
        s.reads[3] = 64;
        s.reads[7] = 32;
        assert_eq!(s.busiest_bank(), (3, 64));
        let mean = 96.0 / 32.0;
        assert!((s.read_imbalance() - 64.0 / mean).abs() < 1e-12);
    }

    #[test]
    fn bus_utilization_bounds() {
        let mut s = stats();
        s.bus_busy_ps = 500;
        assert!((s.bus_utilization(1000) - 0.5).abs() < 1e-12);
        assert_eq!(s.bus_utilization(0), 0.0);
    }
}
