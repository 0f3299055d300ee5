//! Tensor-parallel sharding of a decoder across the xPUs.
//!
//! The DGX runs each decoder Megatron-style: the QKV-generation and FF1
//! (and FF-gate) matrices are **column-parallel** (each GPU produces a
//! slice of the hidden activations and its share of the attention heads),
//! the projection and FF2 matrices are **row-parallel** (each GPU
//! produces a partial sum). One all-reduce follows the projection and one
//! follows FF2 — the two collectives per decoder the communication model
//! charges ([`crate::GpuSystem::decoder_comm_s`]).
//!
//! This module derives the per-GPU shard shapes, validates divisibility,
//! and exposes the collective volume from first principles.

use attacc_model::ModelConfig;
use std::fmt;

/// How one weight matrix is split across the tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardAxis {
    /// Output columns split: no collective needed afterwards, but every
    /// GPU needs the full input.
    ColumnParallel,
    /// Input rows split: each GPU produces a partial sum; an all-reduce
    /// follows.
    RowParallel,
}

/// Shard of one FC matrix on one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    /// Split direction.
    pub axis: ShardAxis,
    /// Local rows (reduction dim).
    pub rows: u64,
    /// Local columns (output dim).
    pub cols: u64,
}

impl Shard {
    /// Parameter count of the shard.
    #[must_use]
    pub const fn params(&self) -> u64 {
        self.rows * self.cols
    }
}

/// Error returned when a model cannot be evenly tensor-parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingError {
    /// The dimension that failed to divide.
    pub dimension: &'static str,
    /// Its size.
    pub size: u64,
    /// The tensor-parallel degree.
    pub ways: u32,
}

impl fmt::Display for ShardingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of size {} does not divide across {} GPUs",
            self.dimension, self.size, self.ways
        )
    }
}

impl std::error::Error for ShardingError {}

/// The tensor-parallel plan of one decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecoderSharding {
    /// Tensor-parallel degree.
    pub ways: u32,
    /// QKV-generation shard (column-parallel).
    pub qkv: Shard,
    /// Projection shard (row-parallel).
    pub projection: Shard,
    /// FF1 shard — and the gate for SwiGLU models (column-parallel each).
    pub ff1: Shard,
    /// FF2 shard (row-parallel).
    pub ff2: Shard,
    /// Attention heads owned per GPU.
    pub heads_per_gpu: u32,
    /// All-reduces per decoder (always 2 in this scheme).
    pub allreduces: u32,
}

impl DecoderSharding {
    /// Plans `model`'s decoder across `ways` GPUs.
    ///
    /// # Errors
    /// Returns [`ShardingError`] if heads, `d_ff`, or the QKV width do not
    /// divide evenly.
    pub fn plan(model: &ModelConfig, ways: u32) -> Result<DecoderSharding, ShardingError> {
        if ways == 0 || !model.n_head.is_multiple_of(ways) {
            return Err(ShardingError {
                dimension: "attention heads",
                size: u64::from(model.n_head),
                ways,
            });
        }
        if !model.d_ff.is_multiple_of(u64::from(ways)) {
            return Err(ShardingError {
                dimension: "d_ff",
                size: model.d_ff,
                ways,
            });
        }
        let d = model.d_emb;
        let kv = u64::from(model.kv_heads()) * model.d_head;
        let qkv_cols = d + 2 * kv;
        if !qkv_cols.is_multiple_of(u64::from(ways)) {
            return Err(ShardingError {
                dimension: "QKV width",
                size: qkv_cols,
                ways,
            });
        }
        let w = u64::from(ways);
        Ok(DecoderSharding {
            ways,
            qkv: Shard {
                axis: ShardAxis::ColumnParallel,
                rows: d,
                cols: qkv_cols / w,
            },
            projection: Shard {
                axis: ShardAxis::RowParallel,
                rows: d / w,
                cols: d,
            },
            ff1: Shard {
                axis: ShardAxis::ColumnParallel,
                rows: d,
                cols: model.d_ff / w,
            },
            ff2: Shard {
                axis: ShardAxis::RowParallel,
                rows: model.d_ff / w,
                cols: d,
            },
            heads_per_gpu: model.n_head / ways,
            allreduces: 2,
        })
    }

    /// Per-GPU parameter count of the decoder under this plan (the gate
    /// matrix of SwiGLU models duplicates the FF1 shard shape).
    #[must_use]
    pub fn params_per_gpu(&self, model: &ModelConfig) -> u64 {
        let ff_extra = (model.ff_kind.matrix_count() - 2) * self.ff1.params();
        self.qkv.params() + self.projection.params() + self.ff1.params() + ff_extra
            + self.ff2.params()
    }

    /// Bytes all-reduced per decoder for a batch of `rows` token vectors.
    #[must_use]
    pub fn allreduce_bytes(&self, model: &ModelConfig, rows: u64) -> u64 {
        u64::from(self.allreduces) * rows * model.d_emb * model.dtype.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_shards_evenly_across_8() {
        let m = ModelConfig::gpt3_175b();
        let p = DecoderSharding::plan(&m, 8).unwrap();
        assert_eq!(p.heads_per_gpu, 12);
        assert_eq!(p.qkv.cols, 3 * 12288 / 8);
        assert_eq!(p.ff1.cols, 4 * 12288 / 8);
        assert_eq!(p.allreduces, 2);
        // Shards reassemble the full decoder.
        assert_eq!(8 * p.params_per_gpu(&m), m.decoder_params());
    }

    #[test]
    fn llama2_gqa_shards() {
        let m = ModelConfig::llama2_70b();
        let p = DecoderSharding::plan(&m, 8).unwrap();
        assert_eq!(p.heads_per_gpu, 8);
        assert_eq!(8 * p.params_per_gpu(&m), m.decoder_params());
    }

    #[test]
    fn indivisible_ways_rejected() {
        let m = ModelConfig::gpt3_175b(); // 96 heads
        let err = DecoderSharding::plan(&m, 7).unwrap_err();
        assert_eq!(err.dimension, "attention heads");
        assert!(!err.to_string().is_empty());
        assert!(DecoderSharding::plan(&m, 0).is_err());
    }

    #[test]
    fn allreduce_volume_matches_comm_model() {
        // The GpuSystem comm model charges 2 all-reduces of rows×d_emb —
        // exactly what the sharding plan derives.
        let m = ModelConfig::gpt3_175b();
        let p = DecoderSharding::plan(&m, 8).unwrap();
        assert_eq!(p.allreduce_bytes(&m, 64), 2 * 64 * 12288 * 2);
    }

    #[test]
    fn axes_are_as_megatron_prescribes() {
        let m = ModelConfig::gpt3_175b();
        let p = DecoderSharding::plan(&m, 4).unwrap();
        assert_eq!(p.qkv.axis, ShardAxis::ColumnParallel);
        assert_eq!(p.projection.axis, ShardAxis::RowParallel);
        assert_eq!(p.ff1.axis, ShardAxis::ColumnParallel);
        assert_eq!(p.ff2.axis, ShardAxis::RowParallel);
    }
}
