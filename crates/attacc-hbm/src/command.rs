//! DRAM and PIM command vocabularies.

use crate::BankAddr;

/// A conventional per-bank DRAM command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Open `row` in `bank`.
    Activate {
        /// Target bank.
        bank: BankAddr,
        /// Row to open.
        row: u64,
    },
    /// Read one prefetch-sized beat from the open row of `bank`.
    Read {
        /// Target bank.
        bank: BankAddr,
    },
    /// Write one prefetch-sized beat to the open row of `bank`.
    Write {
        /// Target bank.
        bank: BankAddr,
    },
    /// Close the open row of `bank`.
    Precharge {
        /// Target bank.
        bank: BankAddr,
    },
}

/// The AttAcc PIM command set (§5.1). All are encoded as RFU commands on
/// the standard HBM command path; the simulator gives each its timing and
/// energy semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimCommand {
    /// `PIM_SET_CONFIG`: write KV-partitioning metadata to the GEMV units.
    SetConfig,
    /// `PIM_ACT_AB`: activate the same `row` in all banks of the channel.
    ActAb {
        /// Row opened in every bank.
        row: u64,
    },
    /// `PIM_MAC_AB`: one multiply-accumulate beat in all banks — each
    /// streaming bank reads one prefetch from its open row into its GEMV
    /// unit.
    MacAb,
    /// `PIM_SFM`: run the softmax unit over `elems` score elements.
    Sfm {
        /// Score-vector length processed.
        elems: u64,
    },
    /// `PIM_WR_GB`: write `bytes` into a GEMV-unit input buffer.
    WrGb {
        /// Payload size.
        bytes: u64,
    },
    /// `PIM_MV_GB`: move `bytes` of GEMV output to the softmax buffer.
    MvGb {
        /// Payload size.
        bytes: u64,
    },
    /// `PIM_MV_SB`: move `bytes` of softmax output to the GEMV buffers.
    MvSb {
        /// Payload size.
        bytes: u64,
    },
    /// `PIM_RD_SB`: read `bytes` of final context output from the softmax
    /// buffer to the host.
    RdSb {
        /// Payload size.
        bytes: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackGeometry;

    #[test]
    fn commands_are_comparable_and_hashable() {
        let g = StackGeometry::hbm3_8hi();
        let b = BankAddr::from_index(&g, 3);
        let a = DramCommand::Read { bank: b };
        assert_eq!(a, DramCommand::Read { bank: b });
        let mut set = std::collections::HashSet::new();
        set.insert(PimCommand::MacAb);
        set.insert(PimCommand::MacAb);
        assert_eq!(set.len(), 1);
    }
}
