//! Operation-level FLOPs and memory-traffic accounting.
//!
//! Each [`Op`] describes one logical operation of a decoder stage together
//! with enough shape information to compute its FLOP count and its
//! off-chip traffic, split into *weight* bytes (shared across a batch),
//! *activation* bytes (inputs/outputs) and *KV* bytes (request-private
//! key/value matrices — the traffic class batching cannot amortize, which
//! is the paper's central observation).
//!
//! Attention uses **fused-kernel accounting**: the score matrix and the
//! softmax intermediates stay on-chip, so attention traffic is Q in, K/V
//! in, and the context output out. This matches the paper's roofline
//! (Fig. 3), where Gen-stage attention sits at op/B ≈ 1 and Sum-stage
//! attention at op/B ≈ L/2.

use crate::DataType;
use std::fmt;

/// Coarse operation class used for execution-time breakdowns (Fig. 4(c))
/// and device assignment in the heterogeneous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Batched FC layers (QKV generation, projection, feedforward, LM head).
    FullyConnected,
    /// The attention layer (score, softmax, context) over private KV data.
    Attention,
    /// Everything else on the compute die: normalization, activation,
    /// residual, embedding lookup.
    Other,
    /// Data movement between devices.
    Communication,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::FullyConnected => "FC",
            OpClass::Attention => "attention",
            OpClass::Other => "etc",
            OpClass::Communication => "comm",
        };
        f.write_str(s)
    }
}

/// Which FC layer a GEMM implements. Used by the pipelining and
/// co-processing models, which treat QKV/projection differently from the
/// feedforward block (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcLayer {
    /// Q/K/V generation (`d_emb → d_emb + 2·kv`).
    QkvGen,
    /// Attention output projection (`d_emb → d_emb`).
    Projection,
    /// First feedforward matrix (`d_emb → d_ff`).
    Ff1,
    /// SwiGLU gate matrix (`d_emb → d_ff`), LLaMA-style models only.
    FfGate,
    /// Second feedforward matrix (`d_ff → d_emb`).
    Ff2,
    /// Language-model head (`d_emb → vocab`).
    LmHead,
}

impl FcLayer {
    /// `true` for the feedforward-block matrices eligible for co-processing
    /// on AttAcc (§6.2).
    #[must_use]
    pub const fn is_feedforward(self) -> bool {
        matches!(self, FcLayer::Ff1 | FcLayer::FfGate | FcLayer::Ff2)
    }
}

/// Off-chip traffic of an operation in bytes, by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Weight bytes, shared by every request in the batch.
    pub weight_bytes: u64,
    /// Activation bytes (inputs and outputs), proportional to batch size.
    pub act_bytes: u64,
    /// Request-private KV-cache bytes (reads and writes).
    pub kv_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.weight_bytes + self.act_bytes + self.kv_bytes
    }

    /// Component-wise sum.
    #[must_use]
    pub const fn plus(self, other: Traffic) -> Traffic {
        Traffic {
            weight_bytes: self.weight_bytes + other.weight_bytes,
            act_bytes: self.act_bytes + other.act_bytes,
            kv_bytes: self.kv_bytes + other.kv_bytes,
        }
    }
}

/// A group of identically-shaped requests inside one attention operation.
///
/// `n_requests` requests, each presenting `q_rows` query tokens (1 in a Gen
/// stage, `L_in` in the Sum stage) against a context of length `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttnShape {
    /// Number of requests with this shape.
    pub n_requests: u64,
    /// Context length (rows of the K/V matrices).
    pub l: u64,
    /// Query rows per request.
    pub q_rows: u64,
}

impl AttnShape {
    /// A single-request shape.
    #[must_use]
    pub const fn single(l: u64, q_rows: u64) -> AttnShape {
        AttnShape {
            n_requests: 1,
            l,
            q_rows,
        }
    }
}

/// One logical operation of a decoder stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Layer normalization over `rows` embedding vectors of width `d`.
    LayerNorm {
        /// Number of token vectors normalized.
        rows: u64,
        /// Embedding width.
        d: u64,
        /// Activation element type.
        dtype: DataType,
    },
    /// A weight-bearing GEMM: `[rows × k] · [k × n]`.
    Gemm {
        /// Which FC layer this is.
        layer: FcLayer,
        /// Input rows (batch × tokens-per-request).
        rows: u64,
        /// Reduction dimension.
        k: u64,
        /// Output dimension.
        n: u64,
        /// Weight element type.
        weight_dtype: DataType,
        /// Activation element type.
        act_dtype: DataType,
    },
    /// The fused attention layer: score (`Q·Kᵀ`), softmax, context (`·V`)
    /// per head, over request-private KV matrices.
    Attention {
        /// Request-shape groups in the batch.
        groups: Vec<AttnShape>,
        /// Query heads.
        n_head: u32,
        /// KV heads (≤ `n_head`; equality for MHA).
        kv_heads: u32,
        /// Per-head dimension.
        d_head: u64,
        /// KV-cache element type.
        kv_dtype: DataType,
        /// Activation element type.
        act_dtype: DataType,
    },
    /// Element-wise activation (GELU / SiLU) over `rows × d` values.
    Activation {
        /// Rows.
        rows: u64,
        /// Width.
        d: u64,
        /// Element type.
        dtype: DataType,
    },
    /// Residual addition over `rows × d` values.
    Residual {
        /// Rows.
        rows: u64,
        /// Width.
        d: u64,
        /// Element type.
        dtype: DataType,
    },
    /// Appending freshly generated K/V vectors to the cache (write traffic).
    KvAppend {
        /// Number of requests appending.
        n_requests: u64,
        /// Tokens appended per request (1 in Gen, `L_in` in Sum).
        new_tokens: u64,
        /// KV heads.
        kv_heads: u32,
        /// Per-head dimension.
        d_head: u64,
        /// KV element type.
        kv_dtype: DataType,
    },
    /// Inter-device transfer of `bytes` over an interconnect.
    Transfer {
        /// Payload size.
        bytes: u64,
    },
}

impl Op {
    /// The operation's class for breakdowns and device assignment.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            Op::Gemm { .. } => OpClass::FullyConnected,
            Op::Attention { .. } => OpClass::Attention,
            Op::Transfer { .. } => OpClass::Communication,
            Op::LayerNorm { .. } | Op::Activation { .. } | Op::Residual { .. } | Op::KvAppend { .. } => {
                OpClass::Other
            }
        }
    }

    /// Floating-point (or integer-MAC) operation count.
    ///
    /// Softmax is charged 5 ops per score element (max, subtract, exp, sum,
    /// divide); GELU 8 ops per element; layernorm 5 per element.
    #[must_use]
    pub fn flops(&self) -> u64 {
        match self {
            Op::LayerNorm { rows, d, .. } => 5 * rows * d,
            Op::Gemm { rows, k, n, .. } => 2 * rows * k * n,
            Op::Attention {
                groups,
                n_head,
                d_head,
                ..
            } => groups
                .iter()
                .map(|g| {
                    let q = g.n_requests * g.q_rows * u64::from(*n_head);
                    // score + context: 2·L·d_head each; softmax: 5·L.
                    q * g.l * (4 * d_head + 5)
                })
                .sum(),
            Op::Activation { rows, d, .. } => 8 * rows * d,
            Op::Residual { rows, d, .. } => rows * d,
            Op::KvAppend { .. } | Op::Transfer { .. } => 0,
        }
    }

    /// Off-chip traffic under fused-kernel accounting.
    #[must_use]
    pub fn traffic(&self) -> Traffic {
        match self {
            Op::LayerNorm { rows, d, dtype } => Traffic {
                act_bytes: 2 * rows * d * dtype.bytes(),
                ..Traffic::default()
            },
            Op::Gemm {
                rows,
                k,
                n,
                weight_dtype,
                act_dtype,
                ..
            } => Traffic {
                weight_bytes: k * n * weight_dtype.bytes(),
                act_bytes: rows * (k + n) * act_dtype.bytes(),
                ..Traffic::default()
            },
            Op::Attention {
                groups,
                n_head,
                kv_heads,
                d_head,
                kv_dtype,
                act_dtype,
            } => {
                let mut kv = 0u64;
                let mut act = 0u64;
                for g in groups {
                    // K and V read once per KV head.
                    kv += g.n_requests * 2 * u64::from(*kv_heads) * g.l * d_head * kv_dtype.bytes();
                    // Q in + context out, per query head.
                    act += g.n_requests
                        * 2
                        * g.q_rows
                        * u64::from(*n_head)
                        * d_head
                        * act_dtype.bytes();
                }
                Traffic {
                    weight_bytes: 0,
                    act_bytes: act,
                    kv_bytes: kv,
                }
            }
            Op::Activation { rows, d, dtype } => Traffic {
                act_bytes: 2 * rows * d * dtype.bytes(),
                ..Traffic::default()
            },
            Op::Residual { rows, d, dtype } => Traffic {
                act_bytes: 3 * rows * d * dtype.bytes(),
                ..Traffic::default()
            },
            Op::KvAppend {
                n_requests,
                new_tokens,
                kv_heads,
                d_head,
                kv_dtype,
            } => Traffic {
                kv_bytes: n_requests * new_tokens * 2 * u64::from(*kv_heads) * d_head * kv_dtype.bytes(),
                ..Traffic::default()
            },
            Op::Transfer { bytes } => Traffic {
                act_bytes: *bytes,
                ..Traffic::default()
            },
        }
    }

    /// Arithmetic intensity (FLOPs per byte of off-chip traffic).
    ///
    /// Returns `None` for operations that move no data.
    #[must_use]
    pub fn op_per_byte(&self) -> Option<f64> {
        let bytes = self.traffic().total();
        if bytes == 0 {
            None
        } else {
            Some(self.flops() as f64 / bytes as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_attention(batch: u64, l: u64) -> Op {
        Op::Attention {
            groups: vec![AttnShape {
                n_requests: batch,
                l,
                q_rows: 1,
            }],
            n_head: 96,
            kv_heads: 96,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        }
    }

    #[test]
    fn gen_attention_op_per_byte_is_about_one() {
        // §3.2: "The primary operation of the attention layer in the Gen
        // stage ... exhibit[s] a low Op/B (~1)".
        let op = gen_attention(1, 2048);
        let opb = op.op_per_byte().unwrap();
        assert!(opb > 0.8 && opb < 1.3, "op/B = {opb}");
    }

    #[test]
    fn gen_attention_op_per_byte_batch_invariant() {
        // Fig. 3: "The dots for the attention layer are located at the same
        // point regardless of the batch size."
        let a = gen_attention(1, 2048).op_per_byte().unwrap();
        let b = gen_attention(256, 2048).op_per_byte().unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn sum_attention_is_compute_dense() {
        let op = Op::Attention {
            groups: vec![AttnShape {
                n_requests: 1,
                l: 2048,
                q_rows: 2048,
            }],
            n_head: 96,
            kv_heads: 96,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        };
        // Fused accounting puts Sum attention near L/2 ≈ 1024 op/B.
        let opb = op.op_per_byte().unwrap();
        assert!(opb > 500.0, "op/B = {opb}");
    }

    #[test]
    fn gemm_op_per_byte_scales_with_rows() {
        let mk = |rows| Op::Gemm {
            layer: FcLayer::Ff1,
            rows,
            k: 12288,
            n: 4 * 12288,
            weight_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        };
        let b1 = mk(1).op_per_byte().unwrap();
        let b256 = mk(256).op_per_byte().unwrap();
        assert!(b1 < 1.5, "batch-1 FC is memory-bound: {b1}");
        assert!(b256 > 100.0, "batch-256 FC is compute-dense: {b256}");
    }

    #[test]
    fn gemm_weight_bytes_are_batch_invariant() {
        let w = |rows| {
            Op::Gemm {
                layer: FcLayer::QkvGen,
                rows,
                k: 64,
                n: 192,
                weight_dtype: DataType::Fp16,
                act_dtype: DataType::Fp16,
            }
            .traffic()
            .weight_bytes
        };
        assert_eq!(w(1), w(1024));
    }

    #[test]
    fn kv_bytes_scale_with_batch() {
        let t1 = gen_attention(1, 1024).traffic().kv_bytes;
        let t8 = gen_attention(8, 1024).traffic().kv_bytes;
        assert_eq!(t8, 8 * t1);
    }

    #[test]
    fn gqa_reduces_kv_traffic_only() {
        let mha = gen_attention(4, 512);
        let gqa = Op::Attention {
            groups: vec![AttnShape {
                n_requests: 4,
                l: 512,
                q_rows: 1,
            }],
            n_head: 96,
            kv_heads: 12,
            d_head: 128,
            kv_dtype: DataType::Fp16,
            act_dtype: DataType::Fp16,
        };
        assert_eq!(mha.flops(), gqa.flops());
        assert_eq!(mha.traffic().kv_bytes, 8 * gqa.traffic().kv_bytes);
        assert_eq!(mha.traffic().act_bytes, gqa.traffic().act_bytes);
    }

    #[test]
    fn transfer_is_communication() {
        assert_eq!(Op::Transfer { bytes: 10 }.class(), OpClass::Communication);
        assert_eq!(Op::Transfer { bytes: 10 }.flops(), 0);
    }

    #[test]
    fn traffic_plus_adds_componentwise() {
        let a = Traffic {
            weight_bytes: 1,
            act_bytes: 2,
            kv_bytes: 3,
        };
        let b = Traffic {
            weight_bytes: 10,
            act_bytes: 20,
            kv_bytes: 30,
        };
        let c = a.plus(b);
        assert_eq!(c.total(), 66);
    }

    #[test]
    fn class_display() {
        assert_eq!(OpClass::FullyConnected.to_string(), "FC");
        assert_eq!(OpClass::Attention.to_string(), "attention");
    }

    #[test]
    fn feedforward_layers_flagged() {
        assert!(FcLayer::Ff1.is_feedforward());
        assert!(FcLayer::FfGate.is_feedforward());
        assert!(!FcLayer::QkvGen.is_feedforward());
        assert!(!FcLayer::LmHead.is_feedforward());
    }
}
