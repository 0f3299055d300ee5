//! Physical organization of an HBM stack.
//!
//! The geometry reconciles the paper's load-bearing totals (see DESIGN.md
//! §3.1): an 8-Hi stack exposes 32 external pseudo-channels, each reaching
//! 2 ranks × 4 bank groups × 4 banks = 32 banks, for 1,024 banks per stack
//! (40 stacks → the paper's 40,960 parallel banks).

/// Organization of one HBM stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackGeometry {
    /// Number of DRAM dies (the buffer die is separate).
    pub dram_dies: u32,
    /// Number of ranks (groups of dies sharing a channel).
    pub ranks: u32,
    /// External pseudo-channels per stack.
    pub pseudo_channels: u32,
    /// Bank groups per pseudo-channel per rank.
    pub bank_groups_per_rank: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Total external data pins.
    pub pins: u32,
    /// DRAM row (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Bytes delivered by one column (read) command.
    pub prefetch_bytes: u64,
    /// Total stack capacity in bytes.
    pub capacity_bytes: u64,
}

impl StackGeometry {
    /// The paper's 8-Hi HBM3 organization (16 GB).
    #[must_use]
    pub fn hbm3_8hi() -> StackGeometry {
        StackGeometry {
            dram_dies: 8,
            ranks: 2,
            pseudo_channels: 32,
            bank_groups_per_rank: 4,
            banks_per_group: 4,
            pins: 1024,
            row_bytes: 1024,
            prefetch_bytes: 32,
            capacity_bytes: 16 * (1 << 30),
        }
    }

    /// Bank groups reachable from one pseudo-channel (both ranks).
    #[must_use]
    pub const fn bank_groups_per_pch(&self) -> u32 {
        self.ranks * self.bank_groups_per_rank
    }

    /// Banks reachable from one pseudo-channel (both ranks).
    #[must_use]
    pub const fn banks_per_pch(&self) -> u32 {
        self.bank_groups_per_pch() * self.banks_per_group
    }

    /// Total banks in the stack.
    #[must_use]
    pub const fn total_banks(&self) -> u32 {
        self.pseudo_channels * self.banks_per_pch()
    }

    /// Total bank groups in the stack.
    #[must_use]
    pub const fn total_bank_groups(&self) -> u32 {
        self.pseudo_channels * self.bank_groups_per_pch()
    }

    /// Capacity of a single bank in bytes.
    #[must_use]
    pub const fn bank_capacity_bytes(&self) -> u64 {
        self.capacity_bytes / self.total_banks() as u64
    }

    /// Rows per bank.
    #[must_use]
    pub const fn rows_per_bank(&self) -> u64 {
        self.bank_capacity_bytes() / self.row_bytes
    }

    /// Data pins per pseudo-channel.
    #[must_use]
    pub const fn pins_per_pch(&self) -> u32 {
        self.pins / self.pseudo_channels
    }
}

/// Address of a bank within one pseudo-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankAddr {
    /// Rank index.
    pub rank: u32,
    /// Bank-group index within the rank.
    pub group: u32,
    /// Bank index within the group.
    pub bank: u32,
}

impl BankAddr {
    /// Flattens to a dense index in `0..banks_per_pch()`.
    #[must_use]
    pub const fn index(&self, geom: &StackGeometry) -> u32 {
        (self.rank * geom.bank_groups_per_rank + self.group) * geom.banks_per_group + self.bank
    }

    /// Inverse of [`BankAddr::index`].
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn from_index(geom: &StackGeometry, index: u32) -> BankAddr {
        assert!(index < geom.banks_per_pch(), "bank index out of range");
        let bank = index % geom.banks_per_group;
        let g = index / geom.banks_per_group;
        let group = g % geom.bank_groups_per_rank;
        let rank = g / geom.bank_groups_per_rank;
        BankAddr { rank, group, bank }
    }

    /// Dense bank-group index in `0..bank_groups_per_pch()`.
    #[must_use]
    pub const fn group_index(&self, geom: &StackGeometry) -> u32 {
        self.rank * geom.bank_groups_per_rank + self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper() {
        let g = StackGeometry::hbm3_8hi();
        assert_eq!(g.banks_per_pch(), 32);
        assert_eq!(g.total_banks(), 1024);
        // §4.1: "the total number of banks operating in parallel for
        // AttAcc_bank with 40 8-Hi HBM3 is 40,960".
        assert_eq!(40 * g.total_banks(), 40_960);
        assert_eq!(g.bank_groups_per_pch(), 8);
        assert_eq!(g.pins_per_pch(), 32);
    }

    #[test]
    fn bank_capacity_is_plausible() {
        let g = StackGeometry::hbm3_8hi();
        assert_eq!(g.bank_capacity_bytes(), 16 * (1 << 30) / 1024);
        assert_eq!(g.rows_per_bank(), 16 * 1024);
    }

    #[test]
    fn bank_addr_roundtrip() {
        let g = StackGeometry::hbm3_8hi();
        for i in 0..g.banks_per_pch() {
            let a = BankAddr::from_index(&g, i);
            assert_eq!(a.index(&g), i);
            assert!(a.rank < g.ranks);
            assert!(a.group < g.bank_groups_per_rank);
            assert!(a.bank < g.banks_per_group);
        }
    }

    #[test]
    fn group_index_is_dense() {
        let g = StackGeometry::hbm3_8hi();
        let mut seen = std::collections::HashSet::new();
        for i in 0..g.banks_per_pch() {
            let a = BankAddr::from_index(&g, i);
            seen.insert(a.group_index(&g));
        }
        assert_eq!(seen.len() as u32, g.bank_groups_per_pch());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let g = StackGeometry::hbm3_8hi();
        let _ = BankAddr::from_index(&g, g.banks_per_pch());
    }
}
