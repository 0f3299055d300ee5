//! Data mapping for AttAcc (§4.2): head→HBM allocation and hierarchical
//! KV-matrix partitioning.
//!
//! Mapping is decided at three levels:
//!
//! 1. **HBM level** — each head lives entirely in one stack; heads of a new
//!    request are greedily placed on the least-loaded stacks at Sum time.
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
use std::collections::HashMap;

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

/// Identifier of one attention head of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeadId {
    /// Owning request.
    pub request: u64,
    /// Head index within the request.
    pub head: u32,
}

/// Greedy head→stack allocator (§4.2, HBM level).
///
/// Each head of a new request is placed on the currently least-loaded
/// stack (load measured in KV bytes), which keeps the per-stack imbalance
/// within one head's footprint of optimal. Gen stages grow every resident
/// head by one KV vector; completed requests release their heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadAllocator {
    loads: Vec<u64>,
    assignments: HashMap<u64, Vec<(u32, usize, u64)>>,
    per_stack_capacity: u64,
}

/// Error returned by [`HeadAllocator::try_allocate`] when a request's
/// heads cannot fit under the per-stack capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackCapacityError {
    /// The stack that would overflow.
    pub stack: usize,
    /// Bytes the placement would require on it.
    pub required: u64,
    /// Its capacity.
    pub capacity: u64,
}

impl std::fmt::Display for StackCapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stack {} would need {} bytes of {} available",
            self.stack, self.required, self.capacity
        )
    }
}

impl std::error::Error for StackCapacityError {}

impl HeadAllocator {
    /// An allocator over `n_stacks` empty stacks with unlimited capacity.
    ///
    /// # Panics
    /// Panics if `n_stacks` is zero.
    #[must_use]
    pub fn new(n_stacks: usize) -> HeadAllocator {
        HeadAllocator::with_capacity(n_stacks, u64::MAX)
    }

    /// An allocator whose stacks each hold at most `per_stack_capacity`
    /// bytes of KV data.
    ///
    /// # Panics
    /// Panics if `n_stacks` is zero.
    #[must_use]
    pub fn with_capacity(n_stacks: usize, per_stack_capacity: u64) -> HeadAllocator {
        assert!(n_stacks > 0, "need at least one stack");
        HeadAllocator {
            loads: vec![0; n_stacks],
            assignments: HashMap::new(),
            per_stack_capacity,
        }
    }

    /// Number of stacks.
    #[must_use]
    pub fn n_stacks(&self) -> usize {
        self.loads.len()
    }

    /// Places `n_head` heads of `request`, each initially occupying
    /// `kv_bytes_per_head`. Returns the chosen stack per head.
    ///
    /// # Panics
    /// Panics if the request already has an allocation, or if a per-stack
    /// capacity is configured and exceeded (use
    /// [`HeadAllocator::try_allocate`] for fallible placement).
    pub fn allocate(&mut self, request: u64, n_head: u32, kv_bytes_per_head: u64) -> Vec<usize> {
        self.try_allocate(request, n_head, kv_bytes_per_head)
            .expect("allocation exceeds per-stack capacity")
    }

    /// Fallible variant of [`HeadAllocator::allocate`]: respects the
    /// per-stack capacity and leaves the allocator untouched on failure.
    ///
    /// # Errors
    /// Returns [`StackCapacityError`] naming the stack that would
    /// overflow.
    ///
    /// # Panics
    /// Panics if the request already has an allocation.
    pub fn try_allocate(
        &mut self,
        request: u64,
        n_head: u32,
        kv_bytes_per_head: u64,
    ) -> Result<Vec<usize>, StackCapacityError> {
        assert!(
            !self.assignments.contains_key(&request),
            "request {request} already allocated"
        );
        let mut placed = Vec::with_capacity(n_head as usize);
        let mut record = Vec::with_capacity(n_head as usize);
        let mut loads = self.loads.clone();
        for h in 0..n_head {
            let stack = loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &l)| (l, i))
                .map(|(i, _)| i)
                .expect("at least one stack");
            let new_load = loads[stack] + kv_bytes_per_head;
            if new_load > self.per_stack_capacity {
                return Err(StackCapacityError {
                    stack,
                    required: new_load,
                    capacity: self.per_stack_capacity,
                });
            }
            loads[stack] = new_load;
            placed.push(stack);
            record.push((h, stack, kv_bytes_per_head));
        }
        self.loads = loads;
        self.assignments.insert(request, record);
        Ok(placed)
    }

    /// Grows every head of `request` by `delta_bytes` (one Gen stage's
    /// appended KV vectors).
    ///
    /// # Panics
    /// Panics if the request is unknown.
    pub fn grow(&mut self, request: u64, delta_bytes: u64) {
        let heads = self
            .assignments
            .get_mut(&request)
            .unwrap_or_else(|| panic!("request {request} not allocated"));
        for (_, stack, bytes) in heads.iter_mut() {
            *bytes += delta_bytes;
            self.loads[*stack] += delta_bytes;
        }
    }

    /// Shrinks every head of `request` by `delta_bytes` (a KV eviction
    /// releasing old tokens back to the stack).
    ///
    /// # Panics
    /// Panics if the request is unknown or a head holds fewer than
    /// `delta_bytes`.
    pub fn shrink(&mut self, request: u64, delta_bytes: u64) {
        let heads = self
            .assignments
            .get_mut(&request)
            .unwrap_or_else(|| panic!("request {request} not allocated"));
        for (_, stack, bytes) in heads.iter_mut() {
            assert!(
                *bytes >= delta_bytes,
                "shrink of {delta_bytes} bytes exceeds the {bytes} resident"
            );
            *bytes -= delta_bytes;
            self.loads[*stack] -= delta_bytes;
        }
    }

    /// Releases all heads of a completed request, freeing their bytes.
    /// Unknown requests are ignored (idempotent).
    pub fn release(&mut self, request: u64) {
        if let Some(heads) = self.assignments.remove(&request) {
            for (_, stack, bytes) in heads {
                self.loads[stack] -= bytes;
            }
        }
    }

    /// Current KV load of `stack` in bytes.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn load(&self, stack: usize) -> u64 {
        self.loads[stack]
    }

    /// Heaviest stack load in bytes.
    #[must_use]
    pub fn max_load(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Total KV bytes resident across all stacks.
    #[must_use]
    pub fn total_load(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Load imbalance: max / mean (1.0 = perfectly balanced).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let total = self.total_load();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.loads.len() as f64;
        self.max_load() as f64 / mean
    }

    /// Stacks assigned to a request's heads (head index → stack), if
    /// resident.
    #[must_use]
    pub fn stacks_of(&self, request: u64) -> Option<Vec<(u32, usize)>> {
        self.assignments
            .get(&request)
            .map(|v| v.iter().map(|&(h, s, _)| (h, s)).collect())
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

    #[test]
    fn allocator_balances_heads() {
        let mut a = HeadAllocator::new(5);
        a.allocate(0, 13, 100);
        // 13 heads on 5 stacks: loads differ by at most one head.
        let max = a.max_load();
        let min = (0..5).map(|s| a.load(s)).min().unwrap();
        assert!(max - min <= 100);
        assert_eq!(a.total_load(), 1300);
    }

    #[test]
    fn allocator_grow_and_release() {
        let mut a = HeadAllocator::new(2);
        a.allocate(1, 4, 10);
        a.grow(1, 5);
        assert_eq!(a.total_load(), 4 * 15);
        a.release(1);
        assert_eq!(a.total_load(), 0);
        a.release(1); // idempotent
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn allocator_shrink_reverses_grow() {
        let mut a = HeadAllocator::new(2);
        a.allocate(1, 4, 10);
        a.grow(1, 6);
        a.shrink(1, 4);
        assert_eq!(a.total_load(), 4 * 12);
        a.shrink(1, 12);
        assert_eq!(a.total_load(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn allocator_shrink_below_zero_panics() {
        let mut a = HeadAllocator::new(2);
        a.allocate(1, 1, 10);
        a.shrink(1, 11);
    }

    #[test]
    fn allocator_prefers_least_loaded() {
        let mut a = HeadAllocator::new(3);
        a.allocate(0, 1, 1000); // stack 0 heavy
        let placed = a.allocate(1, 2, 10);
        assert!(!placed.contains(&0), "new heads avoid the heavy stack");
    }

    #[test]
    fn capacity_limited_allocation() {
        let mut a = HeadAllocator::with_capacity(2, 100);
        a.allocate(0, 4, 50); // 2 heads per stack: both stacks full
        let err = a.try_allocate(1, 1, 10).unwrap_err();
        assert_eq!(err.capacity, 100);
        assert!(!err.to_string().is_empty());
        // The failed attempt left nothing behind.
        assert_eq!(a.total_load(), 200);
        assert!(a.stacks_of(1).is_none());
        // Releasing makes room again.
        a.release(0);
        assert!(a.try_allocate(1, 1, 10).is_ok());
    }

    #[test]
    fn failed_multi_head_allocation_is_atomic() {
        let mut a = HeadAllocator::with_capacity(2, 100);
        // 3 heads of 60: the third cannot fit anywhere.
        assert!(a.try_allocate(0, 3, 60).is_err());
        assert_eq!(a.total_load(), 0, "no partial placement survives");
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_allocation_panics() {
        let mut a = HeadAllocator::new(2);
        a.allocate(0, 1, 1);
        a.allocate(0, 1, 1);
    }

    #[test]
    fn stacks_of_reports_assignment() {
        let mut a = HeadAllocator::new(4);
        a.allocate(7, 3, 10);
        let got = a.stacks_of(7).unwrap();
        assert_eq!(got.len(), 3);
        assert!(a.stacks_of(8).is_none());
    }
}
