//! Decoder-stage operation graphs for the Sum and Gen phases.

use crate::{AttnShape, FcLayer, ModelConfig, Op, OpClass, Traffic};

/// Which inference phase a stage belongs to.
///
/// * `Sum` — the summarization (prefill) stage: every request presents its
///   whole `l_in`-token prompt at once; the dominant operations are GEMMs.
/// * `Gen` — a generation (decode) stage: every request presents one token
///   against a growing context; the dominant operations are GEMVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Summarization over an `l_in`-token prompt.
    Sum {
        /// Prompt length.
        l_in: u64,
    },
    /// Generation with context length `l` (prompt + tokens generated so
    /// far, including the one produced by this stage).
    Gen {
        /// Context length.
        l: u64,
    },
}

impl Phase {
    /// Convenience constructor for a Sum phase.
    #[must_use]
    pub const fn sum(l_in: u64) -> Phase {
        Phase::Sum { l_in }
    }

    /// Convenience constructor for a Gen phase.
    #[must_use]
    pub const fn gen(l: u64) -> Phase {
        Phase::Gen { l }
    }

    /// Query rows each request presents in this phase.
    #[must_use]
    pub const fn q_rows(self) -> u64 {
        match self {
            Phase::Sum { l_in } => l_in,
            Phase::Gen { .. } => 1,
        }
    }

    /// Context length of this phase.
    #[must_use]
    pub const fn context(self) -> u64 {
        match self {
            Phase::Sum { l_in } => l_in,
            Phase::Gen { l } => l,
        }
    }
}

/// The operations of one full model stage (all decoders plus the LM head)
/// for a batch of requests.
///
/// The per-decoder op list is stored once; all `n_decoder` decoders are
/// identical in shape (they differ only in weight values, which the
/// simulator does not hold). Aggregate queries multiply accordingly.
///
/// # Example
/// ```
/// use attacc_model::{ModelConfig, Phase, StageWorkload};
/// let m = ModelConfig::gpt3_175b();
/// let gen = StageWorkload::uniform(&m, Phase::gen(2048), 64);
/// let sum = StageWorkload::uniform(&m, Phase::sum(2048), 64);
/// assert!(sum.flops() > gen.flops()); // prefill does ~L× the compute
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StageWorkload {
    /// Ops of one decoder block, in execution order.
    pub decoder_ops: Vec<Op>,
    /// Number of identical decoder blocks.
    pub n_decoder: u32,
    /// Final layernorm + LM head ops (executed once per stage).
    pub head_ops: Vec<Op>,
    /// Total batch size (number of requests).
    pub batch: u64,
    /// The phase this stage implements.
    pub phase: Phase,
}

impl StageWorkload {
    /// Builds the workload for a batch of `batch` identically-shaped
    /// requests in the given phase.
    ///
    /// # Panics
    /// Panics if `batch` is zero or the phase context is zero.
    #[must_use]
    pub fn uniform(model: &ModelConfig, phase: Phase, batch: u64) -> StageWorkload {
        assert!(batch > 0, "batch must be positive");
        let group = AttnShape {
            n_requests: batch,
            l: phase.context(),
            q_rows: phase.q_rows(),
        };
        StageWorkload::grouped(model, phase, vec![group])
    }

    /// Builds a Gen-stage workload where requests have heterogeneous
    /// context lengths (iteration-level scheduling mixes requests at
    /// different progress points). `groups` lists `(count, context)` runs.
    ///
    /// # Panics
    /// Panics if `groups` is empty.
    #[must_use]
    pub fn gen_with_contexts(model: &ModelConfig, groups: &[(u64, u64)]) -> StageWorkload {
        assert!(!groups.is_empty(), "at least one request group required");
        let shapes: Vec<AttnShape> = groups
            .iter()
            .map(|&(n, l)| AttnShape {
                n_requests: n,
                l,
                q_rows: 1,
            })
            .collect();
        let mean_l = shapes.iter().map(|g| g.n_requests * g.l).sum::<u64>()
            / shapes.iter().map(|g| g.n_requests).sum::<u64>();
        StageWorkload::grouped(model, Phase::gen(mean_l), shapes)
    }

    fn grouped(model: &ModelConfig, phase: Phase, groups: Vec<AttnShape>) -> StageWorkload {
        assert!(phase.context() > 0, "context length must be positive");
        let batch: u64 = groups.iter().map(|g| g.n_requests).sum();
        let rows: u64 = groups.iter().map(|g| g.n_requests * g.q_rows).sum();
        let d = model.d_emb;
        let kv = u64::from(model.kv_heads()) * model.d_head;
        let dt = model.dtype;

        let mut decoder_ops = Vec::with_capacity(12);
        decoder_ops.push(Op::LayerNorm { rows, d, dtype: dt });
        decoder_ops.push(Op::Gemm {
            layer: FcLayer::QkvGen,
            rows,
            k: d,
            n: d + 2 * kv,
            weight_dtype: dt,
            act_dtype: dt,
        });
        decoder_ops.push(Op::KvAppend {
            n_requests: batch,
            new_tokens: phase.q_rows(),
            kv_heads: model.kv_heads(),
            d_head: model.d_head,
            kv_dtype: model.kv_dtype,
        });
        decoder_ops.push(Op::Attention {
            groups,
            n_head: model.n_head,
            kv_heads: model.kv_heads(),
            d_head: model.d_head,
            kv_dtype: model.kv_dtype,
            act_dtype: dt,
        });
        decoder_ops.push(Op::Gemm {
            layer: FcLayer::Projection,
            rows,
            k: d,
            n: d,
            weight_dtype: dt,
            act_dtype: dt,
        });
        decoder_ops.push(Op::Residual { rows, d, dtype: dt });
        decoder_ops.push(Op::LayerNorm { rows, d, dtype: dt });
        decoder_ops.push(Op::Gemm {
            layer: FcLayer::Ff1,
            rows,
            k: d,
            n: model.d_ff,
            weight_dtype: dt,
            act_dtype: dt,
        });
        if model.ff_kind.matrix_count() == 3 {
            decoder_ops.push(Op::Gemm {
                layer: FcLayer::FfGate,
                rows,
                k: d,
                n: model.d_ff,
                weight_dtype: dt,
                act_dtype: dt,
            });
        }
        decoder_ops.push(Op::Activation {
            rows,
            d: model.d_ff,
            dtype: dt,
        });
        decoder_ops.push(Op::Gemm {
            layer: FcLayer::Ff2,
            rows,
            k: model.d_ff,
            n: d,
            weight_dtype: dt,
            act_dtype: dt,
        });
        decoder_ops.push(Op::Residual { rows, d, dtype: dt });

        // The LM head only projects the last token of each request.
        let head_ops = vec![
            Op::LayerNorm {
                rows: batch,
                d,
                dtype: dt,
            },
            Op::Gemm {
                layer: FcLayer::LmHead,
                rows: batch,
                k: d,
                n: model.vocab,
                weight_dtype: dt,
                act_dtype: dt,
            },
        ];

        StageWorkload {
            decoder_ops,
            n_decoder: model.n_decoder,
            head_ops,
            batch,
            phase,
        }
    }

    /// Iterates over every op of the stage: each decoder op appears
    /// `n_decoder` times (logically), followed by the head ops. For
    /// aggregate math use [`StageWorkload::flops`] and
    /// [`StageWorkload::traffic`], which avoid materializing the repeats.
    pub fn iter_unique_ops(&self) -> impl Iterator<Item = (&Op, u64)> {
        let n = u64::from(self.n_decoder);
        self.decoder_ops
            .iter()
            .map(move |op| (op, n))
            .chain(self.head_ops.iter().map(|op| (op, 1)))
    }

    /// Total FLOPs of the stage.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.iter_unique_ops().map(|(op, n)| op.flops() * n).sum()
    }

    /// Total off-chip traffic of the stage.
    #[must_use]
    pub fn traffic(&self) -> Traffic {
        self.iter_unique_ops().fold(Traffic::default(), |acc, (op, n)| {
            let t = op.traffic();
            acc.plus(Traffic {
                weight_bytes: t.weight_bytes * n,
                act_bytes: t.act_bytes * n,
                kv_bytes: t.kv_bytes * n,
            })
        })
    }

    /// FLOPs and traffic aggregated per [`OpClass`].
    #[must_use]
    pub fn per_class(&self) -> Vec<(OpClass, u64, Traffic)> {
        let classes = [
            OpClass::FullyConnected,
            OpClass::Attention,
            OpClass::Other,
            OpClass::Communication,
        ];
        classes
            .iter()
            .map(|&class| {
                let mut flops = 0u64;
                let mut traffic = Traffic::default();
                for (op, n) in self.iter_unique_ops() {
                    if op.class() == class {
                        flops += op.flops() * n;
                        let t = op.traffic();
                        traffic = traffic.plus(Traffic {
                            weight_bytes: t.weight_bytes * n,
                            act_bytes: t.act_bytes * n,
                            kv_bytes: t.kv_bytes * n,
                        });
                    }
                }
                (class, flops, traffic)
            })
            .collect()
    }

    /// The attention op of one decoder, if present (it always is).
    #[must_use]
    pub fn attention_op(&self) -> Option<&Op> {
        self.decoder_ops.iter().find(|op| matches!(op, Op::Attention { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn tiny() -> ModelConfig {
        ModelConfig::builder("tiny")
            .decoders(2)
            .embedding(64)
            .heads(4)
            .feedforward(256)
            .vocab(1000)
            .max_seq_len(128)
            .dtype(DataType::Fp16)
            .build()
            .unwrap()
    }

    #[test]
    fn gen_stage_weight_traffic_is_model_size() {
        let m = ModelConfig::gpt3_175b();
        let wl = StageWorkload::uniform(&m, Phase::gen(2048), 1);
        let w = wl.traffic().weight_bytes as f64;
        let model = m.weight_bytes() as f64;
        // Within 2% (the LM head is read once; embeddings counted there).
        assert!((w - model).abs() / model < 0.02, "w = {w}, model = {model}");
    }

    #[test]
    fn sum_flops_close_to_2pl() {
        // Classic estimate: Sum-stage FLOPs ≈ 2 · params · L_in.
        let m = ModelConfig::gpt3_175b();
        let l = 2048;
        let wl = StageWorkload::uniform(&m, Phase::sum(l), 1);
        let expect = 2.0 * m.n_params() as f64 * l as f64;
        let got = wl.flops() as f64;
        // Attention adds ~L²·d terms on top; allow 35% headroom.
        assert!(got > expect && got < 1.35 * expect, "got {got}, expect {expect}");
    }

    #[test]
    fn gen_flops_scale_with_batch() {
        let m = tiny();
        let f1 = StageWorkload::uniform(&m, Phase::gen(100), 1).flops();
        let f4 = StageWorkload::uniform(&m, Phase::gen(100), 4).flops();
        assert_eq!(f4, 4 * f1);
    }

    #[test]
    fn gen_weight_traffic_batch_invariant() {
        let m = tiny();
        let w1 = StageWorkload::uniform(&m, Phase::gen(100), 1).traffic().weight_bytes;
        let w9 = StageWorkload::uniform(&m, Phase::gen(100), 9).traffic().weight_bytes;
        assert_eq!(w1, w9);
    }

    #[test]
    fn kv_traffic_scales_with_context() {
        let m = tiny();
        let k1 = StageWorkload::uniform(&m, Phase::gen(50), 2).traffic().kv_bytes;
        let k2 = StageWorkload::uniform(&m, Phase::gen(100), 2).traffic().kv_bytes;
        assert!(k2 > 19 * k1 / 10, "kv {k1} -> {k2}");
    }

    #[test]
    fn heterogeneous_contexts_sum_like_parts() {
        let m = tiny();
        let hetero = StageWorkload::gen_with_contexts(&m, &[(2, 40), (3, 80)]);
        assert_eq!(hetero.batch, 5);
        let a = StageWorkload::uniform(&m, Phase::gen(40), 2);
        let b = StageWorkload::uniform(&m, Phase::gen(80), 3);
        let att = |w: &StageWorkload| w.attention_op().unwrap().traffic().kv_bytes;
        assert_eq!(att(&hetero), att(&a) + att(&b));
    }

    #[test]
    fn swiglu_has_three_ff_gemms() {
        let m = ModelConfig::llama_65b();
        let wl = StageWorkload::uniform(&m, Phase::gen(10), 1);
        let gates = wl
            .decoder_ops
            .iter()
            .filter(|op| matches!(op, Op::Gemm { layer: FcLayer::FfGate, .. }))
            .count();
        assert_eq!(gates, 1);
    }

    #[test]
    fn per_class_totals_match_overall() {
        let m = tiny();
        let wl = StageWorkload::uniform(&m, Phase::gen(64), 3);
        let per = wl.per_class();
        let flops: u64 = per.iter().map(|(_, f, _)| f).sum();
        assert_eq!(flops, wl.flops());
        let bytes: u64 = per.iter().map(|(_, _, t)| t.total()).sum();
        assert_eq!(bytes, wl.traffic().total());
    }

    #[test]
    fn attention_dominates_kv_class() {
        let m = tiny();
        let wl = StageWorkload::uniform(&m, Phase::gen(64), 3);
        for (class, _, t) in wl.per_class() {
            if class == OpClass::FullyConnected {
                assert_eq!(t.kv_bytes, 0);
            }
            if class == OpClass::Attention {
                assert!(t.kv_bytes > 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let m = tiny();
        let _ = StageWorkload::uniform(&m, Phase::gen(10), 0);
    }

    #[test]
    fn phase_accessors() {
        assert_eq!(Phase::sum(128).q_rows(), 128);
        assert_eq!(Phase::gen(128).q_rows(), 1);
        assert_eq!(Phase::gen(77).context(), 77);
    }
}
