//! Functional fault injection, ABFT column checksums, and the protected
//! attention pipeline.
//!
//! The device layer ([`attacc_hbm::integrity`]) decides *whether* bits
//! flip; this module decides *where* a flip lands in the functional
//! dataflow and what the mitigations do about it:
//!
//! * [`FaultPlan`] — an explicit list of [`BitFlip`]s, each naming a
//!   pipeline [`Stage`] and a register-level [`Site`]. The fault hooks in
//!   `gemv_unit.rs`, `accumulator.rs` and `softmax_unit.rs` consult the
//!   plan on every operand read; an empty plan is exactly inert, which is
//!   what keeps faults-disabled runs bit-exact with the unhooked paths.
//! * [`AbftGemv`] — algorithm-based fault tolerance over the mapped GEMV
//!   column partitions (the §4.2 ColWise splits): each partition carries
//!   an f64 checksum column maintained at KV-append time; after the
//!   device computes a partition, the controller compares the partition's
//!   output sum against `x · checksum`. A residual above tolerance (or a
//!   non-finite output) *detects and localizes* the corrupt partition,
//!   which is then recomputed on the xPU (modeled as the fault-free
//!   device result) — only that partition's columns pay the recompute.
//! * [`ProtectedAttention`] — the full protected head pipeline: ABFT on
//!   the score GEMV, an exact checksum carried across the softmax SRAM
//!   buffer, the NaN/Inf guard around the softmax unit, and ABFT on the
//!   context GEMV. Under a single-bit fault anywhere in the covered
//!   dataflow the final attention output equals the fault-free output.

use crate::gemv_unit::{GemvMode, GemvUnit};
use crate::numeric::{f16_from_bits, f16_to_bits, Matrix};
use crate::softmax_unit::SoftmaxUnit;
use attacc_hbm::integrity::splitmix64;

/// Which phase of the attention pipeline a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The score GEMV (`q · Kᵀ`).
    Score,
    /// The softmax phase, including the SRAM score buffer.
    Softmax,
    /// The context GEMV (`weights · V`).
    Context,
}

/// A register-level fault site inside one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// A stored KV cell `(r, c)`: the flip lands in the *binary16 bit
    /// pattern* the DRAM array holds (`bit < 16`).
    Cell {
        /// Reduction-dimension row.
        r: usize,
        /// Output-dimension column.
        c: usize,
        /// Bit of the f16 pattern.
        bit: u8,
    },
    /// The f32 input register holding `x[k]` (`bit < 32`).
    Input {
        /// Input index.
        k: usize,
        /// Bit of the f32 pattern.
        bit: u8,
    },
    /// The rounded product register feeding column `c` at row `r`
    /// (`bit < 32`).
    Product {
        /// Reduction-dimension row.
        r: usize,
        /// Output-dimension column.
        c: usize,
        /// Bit of the f32 pattern.
        bit: u8,
    },
    /// Element `i` of partial vector `part` at an accumulator input
    /// (`bit < 32`).
    Partial {
        /// Which partial vector.
        part: usize,
        /// Element within the partial.
        i: usize,
        /// Bit of the f32 pattern.
        bit: u8,
    },
    /// Score `i` held in the softmax SRAM buffer (`bit < 32`).
    Score {
        /// Score index.
        i: usize,
        /// Bit of the f32 pattern.
        bit: u8,
    },
}

/// One planned bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// The pipeline stage the flip strikes.
    pub stage: Stage,
    /// The register-level site within that stage.
    pub site: Site,
}

/// Flips bit `bit` of the f32 pattern of `v`.
#[must_use]
pub fn flip_f32(v: f32, bit: u8) -> f32 {
    f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)))
}

/// Flips bit `bit` of the *stored binary16 pattern* of `v` (the cell is
/// quantized to f16 on write, as the real array stores it), returning the
/// corrupted value widened back to f32.
#[must_use]
pub fn flip_f16_cell(v: f32, bit: u8) -> f32 {
    f16_from_bits(f16_to_bits(v) ^ (1u16 << (bit % 16)))
}

/// An explicit list of bit flips to inject. The default/empty plan is
/// exactly inert: every hook lookup returns `None` and the hooked
/// datapaths reduce to their unhooked arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The planned flips.
    pub flips: Vec<BitFlip>,
}

impl FaultPlan {
    /// The empty (inert) plan.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan { flips: Vec::new() }
    }

    /// A plan holding exactly one flip.
    #[must_use]
    pub fn single(flip: BitFlip) -> FaultPlan {
        FaultPlan { flips: vec![flip] }
    }

    /// Whether the plan is inert.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// The sub-plan for one pipeline stage (unit-level hooks receive
    /// stage-filtered plans and match on sites alone).
    #[must_use]
    pub fn stage(&self, stage: Stage) -> FaultPlan {
        FaultPlan { flips: self.flips.iter().copied().filter(|f| f.stage == stage).collect() }
    }

    /// The sub-plan for a column tile `[c0, c0 + width)`, with `Cell` and
    /// `Product` columns rebased to the tile. `Input` flips apply to
    /// every tile (the x register is shared); `Partial`/`Score` sites are
    /// not tile-local and are dropped.
    #[must_use]
    pub fn shift_cols(&self, c0: usize, width: usize) -> FaultPlan {
        let flips = self
            .flips
            .iter()
            .filter_map(|f| {
                let site = match f.site {
                    Site::Cell { r, c, bit } if (c0..c0 + width).contains(&c) => {
                        Some(Site::Cell { r, c: c - c0, bit })
                    }
                    Site::Product { r, c, bit } if (c0..c0 + width).contains(&c) => {
                        Some(Site::Product { r, c: c - c0, bit })
                    }
                    Site::Input { .. } => Some(f.site),
                    _ => None,
                };
                site.map(|site| BitFlip { stage: f.stage, site })
            })
            .collect();
        FaultPlan { flips }
    }

    /// Planned flip of stored cell `(r, c)`, if any.
    #[must_use]
    pub fn cell_flip(&self, r: usize, c: usize) -> Option<u8> {
        self.flips.iter().find_map(|f| match f.site {
            Site::Cell { r: fr, c: fc, bit } if fr == r && fc == c => Some(bit),
            _ => None,
        })
    }

    /// Planned flip of input register `k`, if any.
    #[must_use]
    pub fn input_flip(&self, k: usize) -> Option<u8> {
        self.flips.iter().find_map(|f| match f.site {
            Site::Input { k: fk, bit } if fk == k => Some(bit),
            _ => None,
        })
    }

    /// Planned flip of the product register at `(r, c)`, if any.
    #[must_use]
    pub fn product_flip(&self, r: usize, c: usize) -> Option<u8> {
        self.flips.iter().find_map(|f| match f.site {
            Site::Product { r: fr, c: fc, bit } if fr == r && fc == c => Some(bit),
            _ => None,
        })
    }

    /// Planned flip of partial `part`, element `i`, if any.
    #[must_use]
    pub fn partial_flip(&self, part: usize, i: usize) -> Option<u8> {
        self.flips.iter().find_map(|f| match f.site {
            Site::Partial { part: fp, i: fi, bit } if fp == part && fi == i => Some(bit),
            _ => None,
        })
    }

    /// Planned flip of buffered score `i`, if any.
    #[must_use]
    pub fn score_flip(&self, i: usize) -> Option<u8> {
        self.flips.iter().find_map(|f| match f.site {
            Site::Score { i: fi, bit } if fi == i => Some(bit),
            _ => None,
        })
    }
}

/// Draws one uniformly placed single-bit fault over the attention
/// dataflow of a `d × l` head — deterministic in `seed`. Used by the
/// acceptance ensemble and the bench sweeps.
#[must_use]
pub fn sample_single_fault(seed: u64, d: usize, l: usize) -> BitFlip {
    let mut ctr = 0u64;
    let mut draw = |m: usize| -> usize {
        ctr += 1;
        (splitmix64(seed ^ ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % m as u64) as usize
    };
    match draw(6) {
        0 => BitFlip {
            stage: Stage::Score,
            site: Site::Cell { r: draw(d), c: draw(l), bit: draw(16) as u8 },
        },
        1 => BitFlip {
            stage: Stage::Score,
            site: Site::Input { k: draw(d), bit: draw(32) as u8 },
        },
        2 => BitFlip {
            stage: Stage::Score,
            site: Site::Product { r: draw(d), c: draw(l), bit: draw(32) as u8 },
        },
        3 => BitFlip {
            stage: Stage::Softmax,
            site: Site::Score { i: draw(l), bit: draw(32) as u8 },
        },
        4 => BitFlip {
            stage: Stage::Context,
            site: Site::Cell { r: draw(l), c: draw(d), bit: draw(16) as u8 },
        },
        _ => BitFlip {
            stage: Stage::Context,
            site: Site::Product { r: draw(l), c: draw(d), bit: draw(32) as u8 },
        },
    }
}

/// ABFT column checksums over the mapped GEMV partitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbftGemv {
    /// Column partitions checked independently — aligned with the §4.2
    /// ColWise mapping fanout, so "partition" here is the same unit of
    /// work a mapping level hands one bank group.
    pub partitions: usize,
    /// Relative residual tolerance. Residuals are compared against
    /// `rel_tol × Σ_k |x_k| · Σ_j |M_kj|` (the absolute-value checksum
    /// scale), so the threshold tracks the data magnitude.
    pub rel_tol: f64,
}

impl AbftGemv {
    /// Tuning for the `Exact` datapath: f64 accumulation noise is below
    /// `1e-13 × scale`, so `1e-11` never false-positives yet catches
    /// single-bit flips down to the low product mantissa.
    #[must_use]
    pub const fn exact() -> AbftGemv {
        AbftGemv { partitions: 16, rel_tol: 1e-11 }
    }

    /// Tuning for the `Fp16` datapath: binary16 rounding moves partition
    /// sums by up to ~2⁻¹¹ relative, so the tolerance must sit above it;
    /// low-mantissa flips below the rounding floor are indistinguishable
    /// from rounding and stay uncovered (the classic ABFT trade-off).
    #[must_use]
    pub const fn fp16() -> AbftGemv {
        AbftGemv { partitions: 16, rel_tol: 0.05 }
    }

    /// Runs `y = x · M` through `unit` partition-by-partition with the
    /// checksum check, recomputing any partition whose residual trips.
    ///
    /// # Panics
    /// Panics if `x.len() != m.rows()`.
    #[must_use]
    pub fn run(
        &self,
        unit: &GemvUnit,
        mode: GemvMode,
        x: &[f32],
        m: &Matrix,
        plan: &FaultPlan,
    ) -> AbftOutcome {
        assert_eq!(x.len(), m.rows(), "input length must equal matrix rows");
        // The 256-bit double-buffered input SRAM carries per-word parity:
        // a single-bit flip of an x register is always *detected at read*
        // and the word re-fetched from the clean source. This matters
        // because an input fault perturbs every column of a tile and the
        // column-sum checksum only sees the sum of those perturbations —
        // which can cancel exactly. Storage faults get storage
        // protection; the checksum covers the compute path.
        let input_repaired =
            plan.flips.iter().filter(|f| matches!(f.site, Site::Input { .. })).count();
        let plan = FaultPlan {
            flips: plan
                .flips
                .iter()
                .copied()
                .filter(|f| !matches!(f.site, Site::Input { .. }))
                .collect(),
        };
        let plan = &plan;
        let parts = self.partitions.min(m.cols().max(1));
        let tiles = m.split_cols(parts);
        let mut y = Vec::with_capacity(m.cols());
        let mut detected = Vec::new();
        let mut recomputed_cols = 0;
        let mut c0 = 0;
        for (p, tile) in tiles.iter().enumerate() {
            let tplan = plan.shift_cols(c0, tile.cols());
            // The checker reads the accumulator-width values *before* the
            // output quantizer: the fault-free residual then sits at f64
            // noise (~1e-15·scale) instead of f32 rounding (~1e-7·scale),
            // so the tolerance can stay tight enough to catch low-bit
            // product flips.
            let yw = unit.gemv_with_faults_wide(mode, x, tile, &tplan);
            let mut yp: Vec<f32> = yw.iter().map(|&v| v as f32).collect();
            // The checksum column c[k] = Σ_j M[k][j] is computed in f64 at
            // KV-append time from pristine data and held by the
            // controller, outside the faulted array.
            let mut y_chk = 0.0f64;
            let mut scale = 0.0f64;
            for (k, &xk) in x.iter().enumerate() {
                let mut rowsum = 0.0f64;
                let mut rowabs = 0.0f64;
                for j in 0..tile.cols() {
                    let v = f64::from(tile.get(k, j));
                    rowsum += v;
                    rowabs += v.abs();
                }
                y_chk += f64::from(xk) * rowsum;
                scale += f64::from(xk).abs() * rowabs;
            }
            let s: f64 = yw.iter().sum();
            let corrupt = !s.is_finite() || (s - y_chk).abs() > self.rel_tol * scale;
            if corrupt {
                // Localized to this partition: the xPU recomputes exactly
                // these columns from pristine operands (modeled as the
                // fault-free device result).
                yp = unit.gemv(mode, x, tile);
                detected.push(p);
                recomputed_cols += tile.cols();
            }
            y.extend_from_slice(&yp);
            c0 += tile.cols();
        }
        AbftOutcome { y, detected, recomputed_cols, input_repaired }
    }
}

/// Result of an ABFT-checked GEMV.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftOutcome {
    /// The (possibly partially recomputed) output.
    pub y: Vec<f32>,
    /// Indices of partitions whose residual tripped.
    pub detected: Vec<usize>,
    /// Output columns recomputed on the xPU.
    pub recomputed_cols: usize,
    /// Input-register words repaired by the input-buffer parity check.
    pub input_repaired: usize,
}

/// What the protected pipeline detected and repaired in one head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttentionIntegrity {
    /// Input-register words repaired by input-buffer parity (both GEMVs).
    pub input_repaired: usize,
    /// Score-GEMV partitions caught by ABFT.
    pub score_detected: usize,
    /// Whether the carried checksum caught SRAM buffer corruption.
    pub buffer_detected: bool,
    /// Whether the softmax NaN/Inf/normalization guard tripped.
    pub softmax_detected: bool,
    /// Context-GEMV partitions caught by ABFT.
    pub context_detected: usize,
    /// Total output columns recomputed on the xPU.
    pub recomputed_cols: usize,
}

impl AttentionIntegrity {
    /// Whether any mitigation fired.
    #[must_use]
    pub fn any_detected(&self) -> bool {
        self.input_repaired > 0
            || self.score_detected > 0
            || self.buffer_detected
            || self.softmax_detected
            || self.context_detected > 0
    }
}

/// The protected single-head attention pipeline: ABFT on both GEMVs, a
/// carried checksum over the softmax SRAM buffer, and the numeric guard
/// around the softmax unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedAttention {
    /// The GEMV datapath.
    pub unit: GemvUnit,
    /// The buffer-die softmax unit.
    pub softmax: SoftmaxUnit,
    /// ABFT configuration shared by both GEMV phases.
    pub abft: AbftGemv,
}

impl ProtectedAttention {
    /// Exact-datapath pipeline (the configuration the acceptance ensemble
    /// pins: every covered single-bit fault is repaired to the bit).
    #[must_use]
    pub fn exact() -> ProtectedAttention {
        ProtectedAttention {
            unit: GemvUnit::exact(),
            softmax: SoftmaxUnit::new(),
            abft: AbftGemv::exact(),
        }
    }

    /// Fp16-datapath pipeline (hardware rounding; ABFT tolerance widened
    /// accordingly).
    #[must_use]
    pub fn fp16() -> ProtectedAttention {
        ProtectedAttention {
            unit: GemvUnit::new(),
            softmax: SoftmaxUnit::new(),
            abft: AbftGemv::fp16(),
        }
    }

    fn scores(&self, raw: &[f32], d: usize) -> Vec<f32> {
        let scale = 1.0 / (d as f64).sqrt();
        raw.iter().map(|&s| (f64::from(s) * scale) as f32).collect()
    }

    /// The protected pipeline: `softmax(q · Kᵀ / √d) · V` with every
    /// mitigation armed. Returns the context vector and what was
    /// detected/repaired. With an empty plan the output is bit-identical
    /// to [`ProtectedAttention::attention_unprotected`].
    ///
    /// # Panics
    /// Panics if the dimensions are inconsistent (`kt` must be
    /// `d × l`, `v` must be `l × d`).
    #[must_use]
    pub fn attention(
        &self,
        q: &[f32],
        kt: &Matrix,
        v: &Matrix,
        plan: &FaultPlan,
    ) -> (Vec<f32>, AttentionIntegrity) {
        let d = q.len();
        assert_eq!(kt.rows(), d, "Kᵀ must be d_head × l");
        assert_eq!(v.rows(), kt.cols(), "V must be l × d_head");
        assert_eq!(v.cols(), d, "V must be l × d_head");
        let mut report = AttentionIntegrity::default();

        // Phase 1: ABFT-checked score GEMV.
        let sa = self.abft.run(&self.unit, GemvMode::AdderTree, q, kt, &plan.stage(Stage::Score));
        report.score_detected = sa.detected.len();
        report.recomputed_cols += sa.recomputed_cols;
        report.input_repaired += sa.input_repaired;
        let scores = self.scores(&sa.y, d);

        // Phase 2: the scores sit in the softmax SRAM between GEMV
        // phases; an exact f64 checksum carried from the GEMV side
        // detects any storage corruption (same summation order on both
        // sides, so equality is bitwise on the fault-free path).
        let carried: f64 = scores.iter().map(|&s| f64::from(s)).sum();
        let sm_plan = plan.stage(Stage::Softmax);
        let stored: Vec<f32> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| match sm_plan.score_flip(i) {
                Some(bit) => flip_f32(s, bit),
                None => s,
            })
            .collect();
        let resummed: f64 = stored.iter().map(|&s| f64::from(s)).sum();
        let sm_in = if resummed.to_bits() == carried.to_bits() {
            stored
        } else {
            // Detected: restore from the (protected) GEMV-side copy.
            report.buffer_detected = true;
            scores.clone()
        };

        // Phase 3: guarded softmax; a tripped guard recomputes from the
        // restored scores.
        let weights = match self.softmax.compute_guarded(&sm_in) {
            Ok(w) => w,
            Err(_) => {
                report.softmax_detected = true;
                self.softmax.compute(&scores)
            }
        };

        // Phase 4: ABFT-checked context GEMV.
        let ca =
            self.abft.run(&self.unit, GemvMode::Accumulator, &weights, v, &plan.stage(Stage::Context));
        report.context_detected = ca.detected.len();
        report.recomputed_cols += ca.recomputed_cols;
        report.input_repaired += ca.input_repaired;
        (ca.y, report)
    }

    /// The same pipeline with every mitigation disarmed: faults flow
    /// straight through (this is what an unprotected run silently
    /// delivers). With an empty plan this is the baseline fault-free
    /// output.
    ///
    /// # Panics
    /// Panics if the dimensions are inconsistent.
    #[must_use]
    pub fn attention_unprotected(
        &self,
        q: &[f32],
        kt: &Matrix,
        v: &Matrix,
        plan: &FaultPlan,
    ) -> Vec<f32> {
        let d = q.len();
        assert_eq!(kt.rows(), d, "Kᵀ must be d_head × l");
        assert_eq!(v.rows(), kt.cols(), "V must be l × d_head");
        assert_eq!(v.cols(), d, "V must be l × d_head");
        let raw = self.unit.gemv_with_faults(GemvMode::AdderTree, q, kt, &plan.stage(Stage::Score));
        let scores = self.scores(&raw, d);
        let weights = self.softmax.compute_with_faults(&scores, &plan.stage(Stage::Softmax));
        self.unit.gemv_with_faults(GemvMode::Accumulator, &weights, v, &plan.stage(Stage::Context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::Accumulator;

    /// Deterministic head operands with no exact zeros (a zero cell makes
    /// low-bit flips sub-detectable *and* sub-observable; real KV data is
    /// dense). All values are exact binary16 multiples of 1/32.
    fn head(d: usize, l: usize) -> (Vec<f32>, Matrix, Matrix) {
        let q: Vec<f32> = (0..d).map(|i| ((i * 7 + 3) % 11) as f32 * 0.125 - 0.5625).collect();
        let kt = Matrix::from_vec(
            d,
            l,
            (0..d * l).map(|i| ((i * 13 + 5) % 17) as f32 * 0.0625 - 0.53125).collect(),
        );
        let v = Matrix::from_vec(
            l,
            d,
            (0..l * d).map(|i| ((i * 11 + 7) % 17) as f32 * 0.0625 - 0.53125).collect(),
        );
        (q, kt, v)
    }

    #[test]
    fn flip_helpers_are_involutions() {
        for bit in 0..32u8 {
            assert_eq!(flip_f32(flip_f32(1.375, bit), bit), 1.375);
        }
        for bit in 0..16u8 {
            // 0.25 is f16-exact, so cell flips round-trip.
            assert_eq!(flip_f16_cell(flip_f16_cell(0.25, bit), bit), 0.25);
        }
        assert_ne!(flip_f32(1.0, 0), 1.0);
        assert_ne!(flip_f16_cell(1.0, 0), 1.0);
    }

    #[test]
    fn empty_plan_is_inert_everywhere() {
        let (q, kt, v) = head(16, 32);
        let plan = FaultPlan::none();
        let unit = GemvUnit::exact();
        assert_eq!(unit.gemv_with_faults(GemvMode::AdderTree, &q, &kt, &plan), {
            unit.gemv(GemvMode::AdderTree, &q, &kt)
        });
        let p = ProtectedAttention::exact();
        let (protected, report) = p.attention(&q, &kt, &v, &plan);
        let unprotected = p.attention_unprotected(&q, &kt, &v, &plan);
        assert_eq!(protected, unprotected);
        assert!(!report.any_detected());
        assert_eq!(report.recomputed_cols, 0);
    }

    #[test]
    fn plan_lookups_and_stage_filtering() {
        let plan = FaultPlan {
            flips: vec![
                BitFlip { stage: Stage::Score, site: Site::Cell { r: 1, c: 2, bit: 3 } },
                BitFlip { stage: Stage::Softmax, site: Site::Score { i: 5, bit: 7 } },
            ],
        };
        assert_eq!(plan.stage(Stage::Score).flips.len(), 1);
        assert_eq!(plan.stage(Stage::Context).flips.len(), 0);
        assert_eq!(plan.stage(Stage::Score).cell_flip(1, 2), Some(3));
        assert_eq!(plan.stage(Stage::Score).cell_flip(0, 2), None);
        assert_eq!(plan.stage(Stage::Softmax).score_flip(5), Some(7));
        // Column rebasing keeps only in-range flips.
        let shifted = plan.stage(Stage::Score).shift_cols(2, 2);
        assert_eq!(shifted.cell_flip(1, 0), Some(3));
        assert!(plan.stage(Stage::Score).shift_cols(0, 2).is_empty());
    }

    #[test]
    fn abft_detects_and_localizes_cell_corruption() {
        let (q, kt, _) = head(32, 64);
        let unit = GemvUnit::exact();
        let abft = AbftGemv::exact();
        // Flip an exponent bit of a cell in the middle of the matrix.
        let plan = FaultPlan::single(BitFlip {
            stage: Stage::Score,
            site: Site::Cell { r: 10, c: 37, bit: 13 },
        });
        let clean = unit.gemv(GemvMode::AdderTree, &q, &kt);
        let out = abft.run(&unit, GemvMode::AdderTree, &q, &kt, &plan.stage(Stage::Score));
        assert_eq!(out.y, clean, "ABFT must repair to the fault-free output");
        // Column 37 of 64 over 16 partitions (4 cols each) → partition 9.
        assert_eq!(out.detected, vec![9]);
        assert_eq!(out.recomputed_cols, 4);
    }

    #[test]
    fn abft_handles_non_finite_blowups() {
        let (q, kt, _) = head(16, 16);
        let unit = GemvUnit::exact();
        // Exponent-bit flip on an input register can push a product to
        // huge magnitudes; sign-extend further via a product flip to the
        // top exponent bit → infinity.
        let plan = FaultPlan::single(BitFlip {
            stage: Stage::Score,
            site: Site::Product { r: 3, c: 3, bit: 30 },
        });
        let out = AbftGemv::exact().run(&unit, GemvMode::AdderTree, &q, &kt, &plan.stage(Stage::Score));
        assert_eq!(out.y, unit.gemv(GemvMode::AdderTree, &q, &kt));
        assert_eq!(out.detected.len(), 1);
    }

    #[test]
    fn carried_checksum_catches_buffer_corruption() {
        let (q, kt, v) = head(16, 32);
        let p = ProtectedAttention::exact();
        let baseline = p.attention_unprotected(&q, &kt, &v, &FaultPlan::none());
        let plan = FaultPlan::single(BitFlip {
            stage: Stage::Softmax,
            site: Site::Score { i: 11, bit: 22 },
        });
        let (out, report) = p.attention(&q, &kt, &v, &plan);
        assert_eq!(out, baseline);
        assert!(report.buffer_detected);
        // The same flip unprotected changes the output.
        let corrupted = p.attention_unprotected(&q, &kt, &v, &plan);
        assert_ne!(corrupted, baseline);
    }

    #[test]
    fn softmax_guard_turns_blowup_into_detection() {
        let unit = SoftmaxUnit::new();
        assert!(unit.compute_guarded(&[1.0, f32::INFINITY]).is_err());
        assert!(unit.compute_guarded(&[f32::NAN]).is_err());
        let ok = unit.compute_guarded(&[0.5, -0.5, 1.5]).expect("healthy scores pass");
        assert_eq!(ok, unit.compute(&[0.5, -0.5, 1.5]));
    }

    #[test]
    fn accumulator_partial_faults_inject_and_detect() {
        let acc = Accumulator::exact();
        let parts = vec![vec![1.0f32, 2.0], vec![4.0, 8.0]];
        let clean = acc.reduce(&parts);
        let plan = FaultPlan::single(BitFlip {
            stage: Stage::Score,
            site: Site::Partial { part: 1, i: 0, bit: 23 },
        });
        let faulty = acc.reduce_with_faults(&parts, &plan);
        assert_ne!(faulty, clean);
        assert_eq!(acc.reduce_with_faults(&parts, &FaultPlan::none()), clean);
    }

    #[test]
    fn sampler_is_deterministic_and_covers_stages() {
        let mut stages = [false; 3];
        for seed in 0..64 {
            let a = sample_single_fault(seed, 32, 64);
            let b = sample_single_fault(seed, 32, 64);
            assert_eq!(a, b);
            match a.stage {
                Stage::Score => stages[0] = true,
                Stage::Softmax => stages[1] = true,
                Stage::Context => stages[2] = true,
            }
        }
        assert!(stages.iter().all(|&s| s), "64 seeds must hit every stage");
    }

    #[test]
    fn protected_pipeline_repairs_sampled_faults() {
        // A quick in-crate slice of the acceptance ensemble (the full
        // ≥100-seed run lives in tests/data_integrity.rs).
        let (q, kt, v) = head(32, 64);
        let p = ProtectedAttention::exact();
        let baseline = p.attention_unprotected(&q, &kt, &v, &FaultPlan::none());
        let mut detected = 0;
        for seed in 0..24 {
            let plan = FaultPlan::single(sample_single_fault(seed, 32, 64));
            let (out, report) = p.attention(&q, &kt, &v, &plan);
            assert_eq!(out, baseline, "seed {seed}: silent corruption");
            detected += usize::from(report.any_detected());
        }
        assert!(detected > 0, "some faults must be material enough to detect");
    }
}
