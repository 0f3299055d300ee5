//! Model architecture configurations and the presets used by the paper.

use crate::{AttentionVariant, DataType};
use std::fmt;

/// Shape of a decoder's feedforward block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeedForwardKind {
    /// Classic GPT feedforward: `FF1 (d → d_ff)`, GELU, `FF2 (d_ff → d)`.
    Gelu,
    /// LLaMA-style gated feedforward: gate and up projections `(d → d_ff)`
    /// each, SiLU gating, then down projection `(d_ff → d)`.
    SwiGlu,
}

impl FeedForwardKind {
    /// Number of `d × d_ff`-shaped weight matrices in the block.
    #[must_use]
    pub const fn matrix_count(self) -> u64 {
        match self {
            FeedForwardKind::Gelu => 2,
            FeedForwardKind::SwiGlu => 3,
        }
    }
}

/// Error returned when a [`ModelConfigBuilder`] describes an invalid model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelConfigError {
    /// `d_emb` is not `n_head * d_head`.
    EmbeddingHeadMismatch {
        /// Configured embedding dimension.
        d_emb: u64,
        /// `n_head * d_head` implied by the head shape.
        implied: u64,
    },
    /// A required dimension is zero.
    ZeroDimension(&'static str),
    /// The attention variant's group size does not divide the head count.
    BadGroupSize {
        /// Number of query heads.
        n_head: u32,
        /// Offending group size.
        group_size: u32,
    },
}

impl fmt::Display for ModelConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelConfigError::EmbeddingHeadMismatch { d_emb, implied } => write!(
                f,
                "embedding dimension {d_emb} does not equal n_head * d_head = {implied}"
            ),
            ModelConfigError::ZeroDimension(name) => {
                write!(f, "model dimension `{name}` must be positive")
            }
            ModelConfigError::BadGroupSize { n_head, group_size } => write!(
                f,
                "GQA group size {group_size} does not divide head count {n_head}"
            ),
        }
    }
}

impl std::error::Error for ModelConfigError {}

/// Architecture of a Transformer-based generative model.
///
/// All fields are public in the "plain data" spirit: a config is an inert
/// record; invariants are enforced at construction by
/// [`ModelConfigBuilder::build`], and the presets are known-valid.
///
/// # Example
/// ```
/// use attacc_model::ModelConfig;
/// let m = ModelConfig::gpt3_175b();
/// // ~175 billion parameters
/// assert!((m.n_params() as f64 - 175e9).abs() < 5e9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Human-readable model name (e.g. `"GPT-3 175B"`).
    pub name: String,
    /// Number of decoder blocks (`N_dec` in the paper).
    pub n_decoder: u32,
    /// Embedding dimension (`d_emb`).
    pub d_emb: u64,
    /// Number of attention (query) heads (`N_head`).
    pub n_head: u32,
    /// Per-head dimension (`d_head`); `d_emb = n_head * d_head`.
    pub d_head: u64,
    /// Feedforward inner dimension.
    pub d_ff: u64,
    /// Feedforward block shape.
    pub ff_kind: FeedForwardKind,
    /// Vocabulary size (token-embedding / LM-head width).
    pub vocab: u64,
    /// Maximum supported sequence length.
    pub max_seq_len: u64,
    /// Element type of weights and activations.
    pub dtype: DataType,
    /// Element type of the KV cache (usually equals `dtype`).
    pub kv_dtype: DataType,
    /// KV sharing scheme across heads.
    pub attention: AttentionVariant,
}

impl ModelConfig {
    /// Starts building a custom model configuration.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ModelConfigBuilder {
        ModelConfigBuilder::new(name)
    }

    /// Number of KV heads per decoder.
    #[must_use]
    pub fn kv_heads(&self) -> u32 {
        self.attention.kv_heads(self.n_head)
    }

    /// Parameter count of one decoder block (weights only, biases ignored —
    /// they are < 0.1 % of the total and the paper's 326 GB figure for
    /// GPT-3 175B matches the bias-free count).
    #[must_use]
    pub fn decoder_params(&self) -> u64 {
        let d = self.d_emb;
        let kv = u64::from(self.kv_heads()) * self.d_head;
        let qkv = d * (d + 2 * kv); // Q is d×d, K/V are d×kv each
        let proj = d * d;
        let ff = self.ff_kind.matrix_count() * d * self.d_ff;
        qkv + proj + ff
    }

    /// Total parameter count: decoders plus the token embedding / LM head
    /// (shared, counted once).
    #[must_use]
    pub fn n_params(&self) -> u64 {
        u64::from(self.n_decoder) * self.decoder_params() + self.vocab * self.d_emb
    }

    /// Total weight footprint in bytes at the configured data type.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.n_params() * self.dtype.bytes()
    }

    /// Returns a copy of this configuration quantized to `dtype` for both
    /// weights and KV cache (the Fig. 16 sensitivity study).
    #[must_use]
    pub fn with_dtype(&self, dtype: DataType) -> ModelConfig {
        ModelConfig {
            dtype,
            kv_dtype: dtype,
            ..self.clone()
        }
    }

    /// Returns a copy with a different attention variant (the §8 GQA/MQA
    /// ablation). The head count is preserved; only KV sharing changes.
    ///
    /// # Panics
    /// Panics if a GQA group size does not divide the head count.
    #[must_use]
    pub fn with_attention(&self, attention: AttentionVariant) -> ModelConfig {
        let _ = attention.kv_heads(self.n_head); // validate
        ModelConfig {
            attention,
            ..self.clone()
        }
    }

    // ---- Presets (public architectures; Table 1 and §7.1 of the paper) ----

    /// GPT-1 (117 M parameters; Table 1's 0.21 GB FP16 entry).
    #[must_use]
    pub fn gpt1() -> ModelConfig {
        preset("GPT-1", 12, 768, 12, 3072, 40478, 512, DataType::Fp16)
    }

    /// GPT-2 XL (1.5 B parameters; Table 1's 2.8 GB FP16 entry).
    #[must_use]
    pub fn gpt2_xl() -> ModelConfig {
        preset("GPT-2", 48, 1600, 25, 6400, 50257, 1024, DataType::Fp16)
    }

    /// GPT-3 175B (the paper's primary model: 96 decoders, d_emb = 12,288,
    /// 96 heads, FP16).
    #[must_use]
    pub fn gpt3_175b() -> ModelConfig {
        preset("GPT-3 175B", 96, 12288, 96, 4 * 12288, 50257, 2048, DataType::Fp16)
    }

    /// OPT-66B (the model the paper validates its simulator against).
    #[must_use]
    pub fn opt_66b() -> ModelConfig {
        preset("OPT-66B", 64, 9216, 72, 4 * 9216, 50272, 2048, DataType::Fp16)
    }

    /// GPT-3 6.7B (a small-model point for scaling studies).
    #[must_use]
    pub fn gpt3_6_7b() -> ModelConfig {
        preset("GPT-3 6.7B", 32, 4096, 32, 4 * 4096, 50257, 2048, DataType::Fp16)
    }

    /// GPT-3 13B.
    #[must_use]
    pub fn gpt3_13b() -> ModelConfig {
        preset("GPT-3 13B", 40, 5120, 40, 4 * 5120, 50257, 2048, DataType::Fp16)
    }

    /// LLaMA 65B (80 decoders, d_emb = 8,192, SwiGLU feedforward, FP16).
    #[must_use]
    pub fn llama_65b() -> ModelConfig {
        let mut m = preset("LLAMA 65B", 80, 8192, 64, 22016, 32000, 2048, DataType::Fp16);
        m.ff_kind = FeedForwardKind::SwiGlu;
        m
    }

    /// LLaMA-2 70B: the grouped-query successor (8 KV heads for 64 query
    /// heads) — a real model exercising the §8 GQA discussion.
    #[must_use]
    pub fn llama2_70b() -> ModelConfig {
        ModelConfig::builder("LLaMA-2 70B")
            .decoders(80)
            .embedding(8192)
            .heads(64)
            .feedforward(28672)
            .feedforward_kind(FeedForwardKind::SwiGlu)
            .vocab(32000)
            .max_seq_len(4096)
            .dtype(DataType::Fp16)
            .attention(AttentionVariant::Gqa { group_size: 8 })
            .build()
            .expect("preset configurations are valid")
    }

    /// MT-NLG 530B (105 decoders, d_emb = 20,480, 128 heads; the paper runs
    /// it quantized to INT8 because FP16 exceeds `DGX_Base` capacity).
    #[must_use]
    pub fn mt_nlg_530b() -> ModelConfig {
        let m = preset(
            "MT-NLG 530B",
            105,
            20480,
            128,
            4 * 20480,
            50257,
            2048,
            DataType::Fp16,
        );
        m.with_dtype(DataType::Int8)
    }

    /// The three evaluation targets of §7 in paper order.
    #[must_use]
    pub fn evaluation_models() -> Vec<ModelConfig> {
        vec![
            ModelConfig::llama_65b(),
            ModelConfig::gpt3_175b(),
            ModelConfig::mt_nlg_530b(),
        ]
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} dec, d_emb={}, {} heads, {})",
            self.name, self.n_decoder, self.d_emb, self.n_head, self.dtype
        )
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the preset table columns
fn preset(
    name: &str,
    n_decoder: u32,
    d_emb: u64,
    n_head: u32,
    d_ff: u64,
    vocab: u64,
    max_seq_len: u64,
    dtype: DataType,
) -> ModelConfig {
    ModelConfig::builder(name)
        .decoders(n_decoder)
        .embedding(d_emb)
        .heads(n_head)
        .feedforward(d_ff)
        .vocab(vocab)
        .max_seq_len(max_seq_len)
        .dtype(dtype)
        .build()
        .expect("preset configurations are valid")
}

/// Builder for [`ModelConfig`].
///
/// # Example
/// ```
/// use attacc_model::{DataType, ModelConfig};
/// let tiny = ModelConfig::builder("tiny")
///     .decoders(2)
///     .embedding(64)
///     .heads(4)
///     .feedforward(256)
///     .vocab(1000)
///     .max_seq_len(128)
///     .dtype(DataType::Fp16)
///     .build()?;
/// assert_eq!(tiny.d_head, 16);
/// # Ok::<(), attacc_model::ModelConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelConfigBuilder {
    name: String,
    n_decoder: u32,
    d_emb: u64,
    n_head: u32,
    d_ff: u64,
    ff_kind: FeedForwardKind,
    vocab: u64,
    max_seq_len: u64,
    dtype: DataType,
    kv_dtype: Option<DataType>,
    attention: AttentionVariant,
}

impl ModelConfigBuilder {
    fn new(name: impl Into<String>) -> Self {
        ModelConfigBuilder {
            name: name.into(),
            n_decoder: 0,
            d_emb: 0,
            n_head: 0,
            d_ff: 0,
            ff_kind: FeedForwardKind::Gelu,
            vocab: 0,
            max_seq_len: 2048,
            dtype: DataType::Fp16,
            kv_dtype: None,
            attention: AttentionVariant::Mha,
        }
    }

    /// Sets the decoder count (`N_dec`).
    #[must_use]
    pub fn decoders(mut self, n: u32) -> Self {
        self.n_decoder = n;
        self
    }

    /// Sets the embedding dimension (`d_emb`).
    #[must_use]
    pub fn embedding(mut self, d: u64) -> Self {
        self.d_emb = d;
        self
    }

    /// Sets the query-head count (`N_head`).
    #[must_use]
    pub fn heads(mut self, n: u32) -> Self {
        self.n_head = n;
        self
    }

    /// Sets the feedforward inner dimension.
    #[must_use]
    pub fn feedforward(mut self, d: u64) -> Self {
        self.d_ff = d;
        self
    }

    /// Sets the feedforward block kind.
    #[must_use]
    pub fn feedforward_kind(mut self, kind: FeedForwardKind) -> Self {
        self.ff_kind = kind;
        self
    }

    /// Sets the vocabulary size.
    #[must_use]
    pub fn vocab(mut self, v: u64) -> Self {
        self.vocab = v;
        self
    }

    /// Sets the maximum sequence length.
    #[must_use]
    pub fn max_seq_len(mut self, l: u64) -> Self {
        self.max_seq_len = l;
        self
    }

    /// Sets the weight/activation data type.
    #[must_use]
    pub fn dtype(mut self, dt: DataType) -> Self {
        self.dtype = dt;
        self
    }

    /// Overrides the KV-cache data type (defaults to the weight type).
    #[must_use]
    pub fn kv_dtype(mut self, dt: DataType) -> Self {
        self.kv_dtype = Some(dt);
        self
    }

    /// Sets the attention variant.
    #[must_use]
    pub fn attention(mut self, v: AttentionVariant) -> Self {
        self.attention = v;
        self
    }

    /// Validates the configuration and builds the [`ModelConfig`].
    ///
    /// # Errors
    /// Returns [`ModelConfigError`] if a dimension is zero (`d_head =
    /// d_emb / n_head` included), if `n_head` does not divide `d_emb`, or
    /// if a GQA group size does not divide the head count.
    pub fn build(self) -> Result<ModelConfig, ModelConfigError> {
        if self.n_decoder == 0 {
            return Err(ModelConfigError::ZeroDimension("n_decoder"));
        }
        if self.d_emb == 0 {
            return Err(ModelConfigError::ZeroDimension("d_emb"));
        }
        if self.n_head == 0 {
            return Err(ModelConfigError::ZeroDimension("n_head"));
        }
        if self.d_ff == 0 {
            return Err(ModelConfigError::ZeroDimension("d_ff"));
        }
        if self.vocab == 0 {
            return Err(ModelConfigError::ZeroDimension("vocab"));
        }
        if self.max_seq_len == 0 {
            return Err(ModelConfigError::ZeroDimension("max_seq_len"));
        }
        let d_head = self.d_emb / u64::from(self.n_head);
        if d_head == 0 {
            return Err(ModelConfigError::ZeroDimension("d_head"));
        }
        let implied = d_head * u64::from(self.n_head);
        if implied != self.d_emb {
            return Err(ModelConfigError::EmbeddingHeadMismatch {
                d_emb: self.d_emb,
                implied,
            });
        }
        if let AttentionVariant::Gqa { group_size } = self.attention {
            if group_size == 0 || !self.n_head.is_multiple_of(group_size) {
                return Err(ModelConfigError::BadGroupSize {
                    n_head: self.n_head,
                    group_size,
                });
            }
        }
        Ok(ModelConfig {
            name: self.name,
            n_decoder: self.n_decoder,
            d_emb: self.d_emb,
            n_head: self.n_head,
            d_head,
            d_ff: self.d_ff,
            ff_kind: self.ff_kind,
            vocab: self.vocab,
            max_seq_len: self.max_seq_len,
            kv_dtype: self.kv_dtype.unwrap_or(self.dtype),
            dtype: self.dtype,
            attention: self.attention,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GIB;

    #[test]
    fn gpt3_matches_published_size() {
        let m = ModelConfig::gpt3_175b();
        let params = m.n_params() as f64;
        assert!((params - 175e9).abs() < 5e9, "params = {params}");
        // Paper: 326 GB of FP16 weights (GiB convention).
        let gb = m.weight_bytes() as f64 / GIB as f64;
        assert!((gb - 326.0).abs() < 10.0, "weights = {gb} GB");
        assert_eq!(m.d_head, 128);
    }

    #[test]
    fn table1_sizes() {
        // Table 1: GPT-1 0.21 GB, GPT-2 2.8 GB (FP16, GiB convention).
        let g1 = ModelConfig::gpt1().weight_bytes() as f64 / GIB as f64;
        assert!((g1 - 0.21).abs() < 0.05, "GPT-1 = {g1} GB");
        let g2 = ModelConfig::gpt2_xl().weight_bytes() as f64 / GIB as f64;
        assert!((g2 - 2.8).abs() < 0.4, "GPT-2 = {g2} GB");
    }

    #[test]
    fn llama_65b_size() {
        let m = ModelConfig::llama_65b();
        let params = m.n_params() as f64;
        assert!((params - 65e9).abs() < 3e9, "params = {params}");
        assert_eq!(m.ff_kind, FeedForwardKind::SwiGlu);
    }

    #[test]
    fn mt_nlg_size_and_dtype() {
        let m = ModelConfig::mt_nlg_530b();
        let params = m.n_params() as f64;
        assert!((params - 530e9).abs() < 15e9, "params = {params}");
        assert_eq!(m.dtype, DataType::Int8);
        assert_eq!(m.kv_dtype, DataType::Int8);
    }

    #[test]
    fn llama2_70b_size_and_gqa() {
        let m = ModelConfig::llama2_70b();
        let params = m.n_params() as f64;
        assert!((params - 69e9).abs() < 3e9, "params = {params}");
        assert_eq!(m.kv_heads(), 8);
        // GQA shrinks the KV cache 8× vs an MHA sibling.
        let mha = m.with_attention(AttentionVariant::Mha);
        let kv = |m: &ModelConfig| {
            2 * u64::from(m.kv_heads()) * m.d_head * u64::from(m.n_decoder)
        };
        assert_eq!(kv(&mha), 8 * kv(&m));
    }

    #[test]
    fn small_gpt3_variants_scale() {
        let small = ModelConfig::gpt3_6_7b().n_params();
        let mid = ModelConfig::gpt3_13b().n_params();
        let big = ModelConfig::gpt3_175b().n_params();
        assert!(small < mid && mid < big);
        assert!((small as f64 - 6.7e9).abs() < 0.5e9);
        assert!((mid as f64 - 13e9).abs() < 1e9);
    }

    #[test]
    fn opt_66b_size() {
        let m = ModelConfig::opt_66b();
        let params = m.n_params() as f64;
        assert!((params - 66e9).abs() < 4e9, "params = {params}");
    }

    #[test]
    fn builder_rejects_mismatched_heads() {
        let err = ModelConfig::builder("bad")
            .decoders(1)
            .embedding(100)
            .heads(3)
            .feedforward(400)
            .vocab(10)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelConfigError::EmbeddingHeadMismatch { .. }));
    }

    #[test]
    fn builder_rejects_zero_dims() {
        let err = ModelConfig::builder("bad")
            .decoders(0)
            .embedding(64)
            .heads(4)
            .feedforward(256)
            .vocab(10)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelConfigError::ZeroDimension("n_decoder"));
    }

    #[test]
    fn with_dtype_rescales_weights() {
        let m = ModelConfig::gpt3_175b();
        let q = m.with_dtype(DataType::Int8);
        assert_eq!(q.weight_bytes() * 2, m.weight_bytes());
        assert_eq!(q.kv_dtype, DataType::Int8);
    }

    #[test]
    fn gqa_reduces_params() {
        let m = ModelConfig::gpt3_175b();
        let g = m.with_attention(AttentionVariant::Gqa { group_size: 8 });
        assert!(g.n_params() < m.n_params());
        assert_eq!(g.kv_heads(), 12);
    }

    #[test]
    fn display_is_informative() {
        let s = ModelConfig::gpt3_175b().to_string();
        assert!(s.contains("GPT-3 175B"));
        assert!(s.contains("96"));
    }

    #[test]
    fn error_display_nonempty() {
        let e = ModelConfigError::ZeroDimension("d_emb");
        assert!(!e.to_string().is_empty());
    }
}
