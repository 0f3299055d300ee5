//! Per-model resource inventories ("model cards" for capacity planning).

use crate::{KvCacheSpec, ModelConfig, Phase, StageWorkload, GIB};
use std::fmt;

/// A resource summary of one model at a reference operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// Model name.
    pub name: String,
    /// Total parameters.
    pub params: u64,
    /// Weight bytes at the configured dtype.
    pub weight_bytes: u64,
    /// KV bytes appended per token per request.
    pub kv_bytes_per_token: u64,
    /// FLOPs of one batch-1 Gen token at the reference context.
    pub flops_per_token: u64,
    /// Off-chip bytes of one batch-1 Gen token at the reference context.
    pub bytes_per_token: u64,
    /// Reference context length used for the per-token numbers.
    pub reference_context: u64,
    /// Attention share of the per-token traffic.
    pub attention_traffic_share: f64,
}

impl ModelSummary {
    /// Summarizes `model` with per-token numbers at context `l`.
    ///
    /// # Panics
    /// Panics if `l` is zero.
    #[must_use]
    pub fn at_context(model: &ModelConfig, l: u64) -> ModelSummary {
        let wl = StageWorkload::uniform(model, Phase::gen(l), 1);
        let traffic = wl.traffic();
        let attn_bytes: u64 = wl
            .per_class()
            .iter()
            .find(|(c, _, _)| *c == crate::OpClass::Attention)
            .map_or(0, |(_, _, t)| t.total());
        ModelSummary {
            name: model.name.clone(),
            params: model.n_params(),
            weight_bytes: model.weight_bytes(),
            kv_bytes_per_token: KvCacheSpec::of(model).bytes_per_token,
            flops_per_token: wl.flops(),
            bytes_per_token: traffic.total(),
            reference_context: l,
            attention_traffic_share: attn_bytes as f64 / traffic.total() as f64,
        }
    }

    /// Default summary at the model's maximum sequence length.
    #[must_use]
    pub fn of(model: &ModelConfig) -> ModelSummary {
        ModelSummary::at_context(model, model.max_seq_len)
    }

    /// The classic "2 · params" per-token FLOPs estimate this summary can
    /// be sanity-checked against.
    #[must_use]
    pub fn two_p_estimate(&self) -> u64 {
        2 * self.params
    }
}

impl fmt::Display for ModelSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.name)?;
        writeln!(f, "  parameters:        {:.2e}", self.params as f64)?;
        writeln!(
            f,
            "  weights:           {:.2} GB",
            self.weight_bytes as f64 / GIB as f64
        )?;
        writeln!(
            f,
            "  KV per token:      {:.2} MB/request",
            self.kv_bytes_per_token as f64 / 1e6
        )?;
        writeln!(
            f,
            "  Gen token @ L={}: {:.2e} FLOPs, {:.2} GB moved ({:.0}% attention)",
            self.reference_context,
            self.flops_per_token as f64,
            self.bytes_per_token as f64 / 1e9,
            self.attention_traffic_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_summary_sane() {
        let s = ModelSummary::of(&ModelConfig::gpt3_175b());
        assert_eq!(s.reference_context, 2048);
        // Per-token FLOPs ≈ 2·params plus the attention term.
        let est = s.two_p_estimate() as f64;
        let got = s.flops_per_token as f64;
        assert!(got > est && got < 1.35 * est, "{got} vs {est}");
        // At L = 2048 batch 1, attention is a modest traffic share.
        assert!(s.attention_traffic_share > 0.01 && s.attention_traffic_share < 0.25);
    }

    #[test]
    fn attention_share_grows_with_context() {
        let m = ModelConfig::gpt3_175b();
        let a = ModelSummary::at_context(&m, 256).attention_traffic_share;
        let b = ModelSummary::at_context(&m, 4096).attention_traffic_share;
        assert!(b > 2.0 * a, "{a} -> {b}");
    }

    #[test]
    fn display_mentions_everything() {
        let s = ModelSummary::of(&ModelConfig::llama_65b()).to_string();
        assert!(s.contains("LLAMA 65B"));
        assert!(s.contains("parameters"));
        assert!(s.contains("attention"));
    }

    #[test]
    fn gqa_model_has_smaller_kv_per_token() {
        let mha = ModelSummary::of(&ModelConfig::llama_65b());
        let gqa = ModelSummary::of(&ModelConfig::llama2_70b());
        assert!(gqa.kv_bytes_per_token < mha.kv_bytes_per_token / 4);
    }
}
