//! Physical address decomposition for the stack.
//!
//! The PIM controller and the KV-placement logic need to translate linear
//! device addresses into (pseudo-channel, rank, bank group, bank, row,
//! column) coordinates. Two interleaving policies are provided:
//!
//! * [`Interleave::RowInterleaved`] — consecutive row-sized blocks rotate
//!   across banks (the streaming-friendly layout AttAcc uses for KV
//!   matrices: every bank holds contiguous rows of a tile).
//! * [`Interleave::BlockInterleaved`] — consecutive prefetch-sized beats
//!   rotate across pseudo-channels then banks (the bandwidth-spreading
//!   layout a conventional controller uses).

use crate::{BankAddr, StackGeometry};

/// Full physical coordinates of one prefetch-sized beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysicalAddr {
    /// Pseudo-channel index.
    pub pch: u32,
    /// Bank coordinates within the channel.
    pub bank: BankAddr,
    /// Row within the bank.
    pub row: u64,
    /// Column (beat) within the row.
    pub col: u64,
}

/// Address-interleaving policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// Row-sized blocks rotate over (bank, pCH); rows stay contiguous
    /// within a bank.
    RowInterleaved,
    /// Prefetch-sized beats rotate over (pCH, bank).
    BlockInterleaved,
}

/// An address mapper for one stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    geom: StackGeometry,
    policy: Interleave,
}

impl AddressMap {
    /// Creates a mapper.
    #[must_use]
    pub fn new(geom: StackGeometry, policy: Interleave) -> AddressMap {
        AddressMap { geom, policy }
    }

    /// The interleave policy.
    #[must_use]
    pub fn policy(&self) -> Interleave {
        self.policy
    }

    /// Total addressable beats in the stack.
    #[must_use]
    pub fn total_beats(&self) -> u64 {
        self.geom.capacity_bytes / self.geom.prefetch_bytes
    }

    /// Decomposes a linear beat index into physical coordinates.
    ///
    /// # Panics
    /// Panics if `beat` is beyond the stack capacity.
    #[must_use]
    pub fn decode(&self, beat: u64) -> PhysicalAddr {
        assert!(beat < self.total_beats(), "beat {beat} beyond stack capacity");
        let g = &self.geom;
        let beats_per_row = g.row_bytes / g.prefetch_bytes;
        let banks = u64::from(g.banks_per_pch());
        let pchs = u64::from(g.pseudo_channels);
        match self.policy {
            Interleave::RowInterleaved => {
                // [row-block id][col]; block id rotates bank→pCH→row.
                let col = beat % beats_per_row;
                let block = beat / beats_per_row;
                let bank = block % banks;
                let pch = (block / banks) % pchs;
                let row = block / (banks * pchs);
                PhysicalAddr {
                    pch: pch as u32,
                    bank: BankAddr::from_index(g, bank as u32),
                    row,
                    col,
                }
            }
            Interleave::BlockInterleaved => {
                // Beat rotates pCH→bank→col→row.
                let pch = beat % pchs;
                let rest = beat / pchs;
                let bank = rest % banks;
                let rest = rest / banks;
                let col = rest % beats_per_row;
                let row = rest / beats_per_row;
                PhysicalAddr {
                    pch: pch as u32,
                    bank: BankAddr::from_index(g, bank as u32),
                    row,
                    col,
                }
            }
        }
    }

    /// Inverse of [`AddressMap::decode`].
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    #[must_use]
    pub fn encode(&self, addr: PhysicalAddr) -> u64 {
        let g = &self.geom;
        let beats_per_row = g.row_bytes / g.prefetch_bytes;
        let banks = u64::from(g.banks_per_pch());
        let pchs = u64::from(g.pseudo_channels);
        assert!(u64::from(addr.pch) < pchs, "pCH out of range");
        assert!(addr.col < beats_per_row, "column out of range");
        let bank = u64::from(addr.bank.index(g));
        match self.policy {
            Interleave::RowInterleaved => {
                let block = addr.row * banks * pchs + u64::from(addr.pch) * banks + bank;
                block * beats_per_row + addr.col
            }
            Interleave::BlockInterleaved => {
                ((addr.row * beats_per_row + addr.col) * banks + bank) * pchs
                    + u64::from(addr.pch)
            }
        }
    }

    /// Number of distinct banks touched by a contiguous `bytes`-long
    /// region starting at linear byte offset `start` — the quantity that
    /// determines streaming parallelism.
    #[must_use]
    pub fn banks_touched(&self, start: u64, bytes: u64) -> usize {
        let g = &self.geom;
        let first = start / g.prefetch_bytes;
        let last = (start + bytes.max(1) - 1) / g.prefetch_bytes;
        let mut seen = std::collections::HashSet::new();
        for beat in first..=last.min(self.total_beats() - 1) {
            let a = self.decode(beat);
            seen.insert((a.pch, a.bank));
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(policy: Interleave) -> AddressMap {
        AddressMap::new(StackGeometry::hbm3_8hi(), policy)
    }

    #[test]
    fn decode_encode_roundtrip_row_interleaved() {
        let m = map(Interleave::RowInterleaved);
        for beat in [0u64, 1, 31, 32, 1000, 123_456_789] {
            assert_eq!(m.encode(m.decode(beat)), beat, "beat {beat}");
        }
    }

    #[test]
    fn decode_encode_roundtrip_block_interleaved() {
        let m = map(Interleave::BlockInterleaved);
        for beat in [0u64, 1, 31, 32, 1000, 123_456_789] {
            assert_eq!(m.encode(m.decode(beat)), beat, "beat {beat}");
        }
    }

    #[test]
    fn row_interleave_keeps_rows_contiguous() {
        let m = map(Interleave::RowInterleaved);
        let beats_per_row = 1024 / 32;
        let a = m.decode(0);
        let b = m.decode(beats_per_row - 1);
        assert_eq!((a.pch, a.bank, a.row), (b.pch, b.bank, b.row));
        let c = m.decode(beats_per_row);
        assert_ne!((a.pch, a.bank), (c.pch, c.bank), "next block moves bank");
    }

    #[test]
    fn block_interleave_spreads_consecutive_beats() {
        let m = map(Interleave::BlockInterleaved);
        let a = m.decode(0);
        let b = m.decode(1);
        assert_ne!(a.pch, b.pch, "consecutive beats hit different channels");
    }

    #[test]
    fn large_region_touches_many_banks() {
        // A 1 MiB KV tile should spread over every bank of a channel group
        // under row interleaving.
        let m = map(Interleave::RowInterleaved);
        let touched = m.banks_touched(0, 1 << 20);
        assert!(touched >= 32, "touched = {touched}");
    }

    #[test]
    fn tiny_region_touches_one_bank() {
        let m = map(Interleave::RowInterleaved);
        assert_eq!(m.banks_touched(0, 32), 1);
    }

    #[test]
    #[should_panic(expected = "beyond stack capacity")]
    fn decode_rejects_out_of_range() {
        let m = map(Interleave::RowInterleaved);
        let _ = m.decode(m.total_beats());
    }

    #[test]
    fn coordinates_stay_in_range() {
        let g = StackGeometry::hbm3_8hi();
        let m = map(Interleave::BlockInterleaved);
        for beat in (0..m.total_beats()).step_by(999_983) {
            let a = m.decode(beat);
            assert!(a.pch < g.pseudo_channels);
            assert!(a.row < g.rows_per_bank());
            assert!(a.col < g.row_bytes / g.prefetch_bytes);
        }
    }
}
