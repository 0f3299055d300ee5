//! KV-cache sizing — the capacity pressure at the heart of §3.2.

use crate::ModelConfig;

/// KV-cache geometry of a model: how many bytes the key/value matrices of
/// a request occupy as its context grows.
///
/// # Example
/// ```
/// use attacc_model::{KvCacheSpec, ModelConfig};
/// let spec = KvCacheSpec::of(&ModelConfig::gpt3_175b());
/// // §3.2: 18 GB per request at L = 4,096 (GiB convention).
/// let gb = spec.bytes_at(4096) as f64 / (1u64 << 30) as f64;
/// assert!((gb - 18.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvCacheSpec {
    /// Bytes appended to the cache per token (K and V, all decoders).
    pub bytes_per_token: u64,
}

impl KvCacheSpec {
    /// Derives the KV-cache spec of a model.
    #[must_use]
    pub fn of(model: &ModelConfig) -> KvCacheSpec {
        let per_decoder = 2 * u64::from(model.kv_heads()) * model.d_head * model.kv_dtype.bytes();
        KvCacheSpec {
            bytes_per_token: per_decoder * u64::from(model.n_decoder),
        }
    }

    /// Cache size of one request whose context length is `l`.
    #[must_use]
    pub const fn bytes_at(&self, l: u64) -> u64 {
        self.bytes_per_token * l
    }

    /// Cache size of a batch of `batch` requests, each at context `l`.
    #[must_use]
    pub const fn batch_bytes(&self, batch: u64, l: u64) -> u64 {
        self.bytes_at(l) * batch
    }

    /// Largest batch of requests with maximum context `l_max` that fits in
    /// `capacity_bytes` of KV storage.
    #[must_use]
    pub const fn max_batch(&self, capacity_bytes: u64, l_max: u64) -> u64 {
        if self.bytes_per_token == 0 || l_max == 0 {
            return u64::MAX;
        }
        capacity_bytes / self.bytes_at(l_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, GIB};

    #[test]
    fn gpt3_kv_matches_paper_18gb() {
        let spec = KvCacheSpec::of(&ModelConfig::gpt3_175b());
        // 2 · N_dec · d_emb · 2 B per token = 4.718 MB/token.
        assert_eq!(spec.bytes_per_token, 2 * 96 * 12288 * 2);
        let gb = spec.bytes_at(4096) as f64 / GIB as f64;
        assert!((gb - 18.0).abs() < 0.1, "kv = {gb} GB");
    }

    #[test]
    fn paper_batch64_needs_1152gb() {
        // §3.2: batch 64 at (2048, 2048) needs 1,152 GB of KV.
        let spec = KvCacheSpec::of(&ModelConfig::gpt3_175b());
        let gb = spec.batch_bytes(64, 4096) as f64 / GIB as f64;
        assert!((gb - 1152.0).abs() < 5.0, "kv = {gb} GB");
    }

    #[test]
    fn paper_dgx_max_batch_18() {
        // §1: with 640 GB total and 326 GB of weights, the max batch for
        // (2048, 2048) is ~18 requests... the paper says 18 with the 640GB
        // total; using 640 - 326 = 314 GB free for KV: 314/18 = 17.4 → 17.
        // The paper's "18" counts 640/18/2≈17.7 rounded; accept 17 or 18.
        let m = ModelConfig::gpt3_175b();
        let spec = KvCacheSpec::of(&m);
        let free = 640 * GIB - m.weight_bytes();
        let b = spec.max_batch(free, 4096);
        assert!((17..=18).contains(&b), "max batch = {b}");
    }

    #[test]
    fn int8_halves_cache() {
        let m = ModelConfig::gpt3_175b();
        let q = m.with_dtype(DataType::Int8);
        assert_eq!(
            KvCacheSpec::of(&m).bytes_per_token,
            2 * KvCacheSpec::of(&q).bytes_per_token
        );
    }

    #[test]
    fn mqa_shrinks_cache_by_head_count() {
        let m = ModelConfig::gpt3_175b();
        let mqa = m.with_attention(crate::AttentionVariant::Mqa);
        assert_eq!(
            KvCacheSpec::of(&m).bytes_per_token,
            96 * KvCacheSpec::of(&mqa).bytes_per_token
        );
    }

    #[test]
    fn max_batch_monotone_in_capacity() {
        let spec = KvCacheSpec::of(&ModelConfig::gpt3_175b());
        assert!(spec.max_batch(100 * GIB, 4096) <= spec.max_batch(200 * GIB, 4096));
    }
}
