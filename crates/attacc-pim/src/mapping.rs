//! Data mapping for AttAcc (§4.2): hierarchical KV-matrix partitioning.
//!
//! Mapping is decided at three levels:
//!
//! 1. **HBM level** — each head lives entirely in one stack; heads of a new
//!    request are greedily placed on the least-loaded stacks at Sum time.
//!    Only the timing model reads this level: `AttAccDevice` charges the
//!    busiest stack of that greedy spread, and `attacc-pim`'s
//!    `tests/props.rs` checks it against the placement itself.
//! 2. **pCH / bank-group / bank level** — each `Kᵀ`/`V` is partitioned
//!    row-wise (reduction split, requires accumulation) or column-wise
//!    (output split, concatenation only). The paper selects
//!    (column, column, row) for `GEMV_score`/`Kᵀ` and (row, row, column)
//!    for `GEMV_context`/`V`.
//! 3. **multiplier level** — row-wise for `Kᵀ` (adder tree) and
//!    column-wise for `V` (accumulators), so that the KV vectors appended
//!    at every Gen stage never serialize onto a single multiplier.

use crate::accumulator::Accumulator;
use crate::gemv_unit::{GemvMode, GemvUnit};
use crate::numeric::Matrix;
use attacc_hbm::StackGeometry;

/// How one hierarchy level splits a `k × n` GEMV operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// Split the reduction dimension `k`; partial results are summed by an
    /// accumulator at this level.
    RowWise,
    /// Split the output dimension `n`; results are concatenated and the
    /// accumulator is bypassed.
    ColWise,
}

/// Fanout and partitioning of one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSpec {
    /// Number of children (pCHs per stack, BGs per pCH, banks per BG).
    pub fanout: usize,
    /// Split direction at this level.
    pub partitioning: Partitioning,
}

/// A full mapping policy: per-level splits plus the multiplier-lane mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingPolicy {
    /// Levels from outermost (pCH) to innermost (bank).
    pub levels: Vec<LevelSpec>,
    /// GEMV-unit lane partitioning.
    pub unit_mode: GemvMode,
}

impl MappingPolicy {
    /// The paper's `GEMV_score` mapping for `Kᵀ`: (column, column, row)
    /// across (pCH, BG, bank) and row-wise (adder tree) at the lanes.
    #[must_use]
    pub fn paper_score(geom: &StackGeometry) -> MappingPolicy {
        MappingPolicy {
            levels: vec![
                LevelSpec {
                    fanout: geom.pseudo_channels as usize,
                    partitioning: Partitioning::ColWise,
                },
                LevelSpec {
                    fanout: geom.bank_groups_per_pch() as usize,
                    partitioning: Partitioning::ColWise,
                },
                LevelSpec {
                    fanout: geom.banks_per_group as usize,
                    partitioning: Partitioning::RowWise,
                },
            ],
            unit_mode: GemvMode::AdderTree,
        }
    }

    /// The paper's `GEMV_context` mapping for `V`: (row, row, column)
    /// across (pCH, BG, bank) and column-wise (accumulators) at the lanes.
    #[must_use]
    pub fn paper_context(geom: &StackGeometry) -> MappingPolicy {
        MappingPolicy {
            levels: vec![
                LevelSpec {
                    fanout: geom.pseudo_channels as usize,
                    partitioning: Partitioning::RowWise,
                },
                LevelSpec {
                    fanout: geom.bank_groups_per_pch() as usize,
                    partitioning: Partitioning::RowWise,
                },
                LevelSpec {
                    fanout: geom.banks_per_group as usize,
                    partitioning: Partitioning::ColWise,
                },
            ],
            unit_mode: GemvMode::Accumulator,
        }
    }

    /// Total leaf count (GEMV units engaged).
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.levels.iter().map(|l| l.fanout).product()
    }
}

/// Executes `y = x · M` through the partitioned hierarchy: the matrix is
/// recursively split per [`MappingPolicy`], each leaf tile runs on a
/// [`GemvUnit`], and results flow back up through accumulators
/// (row-wise levels) or concatenation (column-wise levels).
///
/// This is the functional ground truth the timing model charges for;
/// property tests show it equals a reference GEMV for every policy.
///
/// # Panics
/// Panics if `x.len() != m.rows()`.
#[must_use]
pub fn hierarchical_gemv(
    unit: &GemvUnit,
    acc: &Accumulator,
    policy: &MappingPolicy,
    x: &[f32],
    m: &Matrix,
) -> Vec<f32> {
    assert_eq!(x.len(), m.rows(), "input length must equal matrix rows");
    gemv_level(unit, acc, &policy.levels, policy.unit_mode, x, m)
}

fn gemv_level(
    unit: &GemvUnit,
    acc: &Accumulator,
    levels: &[LevelSpec],
    mode: GemvMode,
    x: &[f32],
    m: &Matrix,
) -> Vec<f32> {
    let Some((level, rest)) = levels.split_first() else {
        return unit.gemv(mode, x, m);
    };
    match level.partitioning {
        Partitioning::RowWise => {
            let tiles = m.split_rows(level.fanout);
            let mut parts = Vec::with_capacity(level.fanout);
            let mut r0 = 0;
            for tile in tiles {
                let rows = tile.rows();
                parts.push(gemv_level(unit, acc, rest, mode, &x[r0..r0 + rows], &tile));
                r0 += rows;
            }
            acc.reduce(&parts)
        }
        Partitioning::ColWise => {
            let tiles = m.split_cols(level.fanout);
            let parts: Vec<Vec<f32>> = tiles
                .iter()
                .map(|tile| gemv_level(unit, acc, rest, mode, x, tile))
                .collect();
            Accumulator::concat(&parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_hbm::StackGeometry;

    fn geom() -> StackGeometry {
        StackGeometry::hbm3_8hi()
    }

    #[test]
    fn paper_policies_cover_all_units() {
        let g = geom();
        let score = MappingPolicy::paper_score(&g);
        let ctx = MappingPolicy::paper_context(&g);
        assert_eq!(score.leaves(), 1024);
        assert_eq!(ctx.leaves(), 1024);
        assert_eq!(score.unit_mode, GemvMode::AdderTree);
        assert_eq!(ctx.unit_mode, GemvMode::Accumulator);
    }

    #[allow(clippy::needless_range_loop)]
    fn reference(x: &[f32], m: &Matrix) -> Vec<f64> {
        let mut y = vec![0.0f64; m.cols()];
        for (j, y_j) in y.iter_mut().enumerate() {
            for r in 0..m.rows() {
                *y_j += f64::from(x[r]) * f64::from(m.get(r, j));
            }
        }
        y
    }

    fn sample(k: usize, n: usize) -> (Vec<f32>, Matrix) {
        let x: Vec<f32> = (0..k).map(|i| ((i * 5 + 1) % 13) as f32 * 0.1 - 0.6).collect();
        let data: Vec<f32> = (0..k * n)
            .map(|i| ((i * 11 + 7) % 19) as f32 * 0.05 - 0.45)
            .collect();
        (x, Matrix::from_vec(k, n, data))
    }

    #[test]
    fn score_mapping_is_exact_gemv() {
        // Kᵀ of a small head: d_head = 24 rows, L = 50 columns, mapped with
        // a reduced-fanout version of the paper policy.
        let policy = MappingPolicy {
            levels: vec![
                LevelSpec { fanout: 4, partitioning: Partitioning::ColWise },
                LevelSpec { fanout: 2, partitioning: Partitioning::ColWise },
                LevelSpec { fanout: 3, partitioning: Partitioning::RowWise },
            ],
            unit_mode: GemvMode::AdderTree,
        };
        let (x, m) = sample(24, 50);
        let got = hierarchical_gemv(&GemvUnit::exact(), &Accumulator::exact(), &policy, &x, &m);
        let want = reference(&x, &m);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < 1e-4);
        }
    }

    #[test]
    fn context_mapping_is_exact_gemv() {
        let policy = MappingPolicy {
            levels: vec![
                LevelSpec { fanout: 4, partitioning: Partitioning::RowWise },
                LevelSpec { fanout: 2, partitioning: Partitioning::RowWise },
                LevelSpec { fanout: 3, partitioning: Partitioning::ColWise },
            ],
            unit_mode: GemvMode::Accumulator,
        };
        let (x, m) = sample(50, 24);
        let got = hierarchical_gemv(&GemvUnit::exact(), &Accumulator::exact(), &policy, &x, &m);
        let want = reference(&x, &m);
        for (g, w) in got.iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < 1e-4);
        }
    }

    #[test]
    fn fanout_larger_than_dims_still_correct() {
        let policy = MappingPolicy {
            levels: vec![LevelSpec { fanout: 32, partitioning: Partitioning::RowWise }],
            unit_mode: GemvMode::AdderTree,
        };
        let (x, m) = sample(5, 3);
        let got = hierarchical_gemv(&GemvUnit::exact(), &Accumulator::exact(), &policy, &x, &m);
        let want = reference(&x, &m);
        for (g, w) in got.iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < 1e-5);
        }
    }
}
