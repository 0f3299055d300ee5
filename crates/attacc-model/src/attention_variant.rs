//! Attention sharing variants: multi-head, grouped-query, multi-query.

use std::fmt;

/// How query heads share key/value matrices.
///
/// The AttAcc paper's primary target is multi-head attention (MHA), where
/// every head owns a private KV pair and batching therefore cannot reuse KV
/// data. Section 8 discusses grouped-query (GQA) and multi-query (MQA)
/// attention, where the benefit of AttAcc shrinks as the group grows; the
/// `ablation_gqa` experiment reproduces that analysis.
///
/// # Example
/// ```
/// use attacc_model::AttentionVariant;
/// assert_eq!(AttentionVariant::Mha.kv_heads(96), 96);
/// assert_eq!(AttentionVariant::Gqa { group_size: 8 }.kv_heads(96), 12);
/// assert_eq!(AttentionVariant::Mqa.kv_heads(96), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttentionVariant {
    /// Multi-head attention: one KV pair per query head (the paper default).
    #[default]
    Mha,
    /// Grouped-query attention: `group_size` query heads share one KV pair.
    Gqa {
        /// Number of query heads sharing a single KV pair. Must divide the
        /// query-head count; `1` degenerates to MHA.
        group_size: u32,
    },
    /// Multi-query attention: all query heads share a single KV pair.
    Mqa,
}

impl AttentionVariant {
    /// Number of KV heads given `n_head` query heads.
    ///
    /// # Panics
    /// Panics if a GQA group size is zero or does not divide `n_head`.
    #[must_use]
    pub fn kv_heads(self, n_head: u32) -> u32 {
        match self {
            AttentionVariant::Mha => n_head,
            AttentionVariant::Gqa { group_size } => {
                assert!(group_size > 0, "GQA group size must be positive");
                assert_eq!(
                    n_head % group_size,
                    0,
                    "GQA group size {group_size} must divide head count {n_head}"
                );
                n_head / group_size
            }
            AttentionVariant::Mqa => 1,
        }
    }

    /// Number of query heads that read each KV pair (the KV reuse factor).
    #[must_use]
    pub fn group_size(self, n_head: u32) -> u32 {
        n_head / self.kv_heads(n_head)
    }
}


impl fmt::Display for AttentionVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttentionVariant::Mha => write!(f, "MHA"),
            AttentionVariant::Gqa { group_size } => write!(f, "GQA(g={group_size})"),
            AttentionVariant::Mqa => write!(f, "MQA"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mha_has_one_kv_per_head() {
        assert_eq!(AttentionVariant::Mha.kv_heads(64), 64);
        assert_eq!(AttentionVariant::Mha.group_size(64), 1);
    }

    #[test]
    fn gqa_divides_heads() {
        let v = AttentionVariant::Gqa { group_size: 4 };
        assert_eq!(v.kv_heads(96), 24);
        assert_eq!(v.group_size(96), 4);
    }

    #[test]
    fn mqa_is_single_kv() {
        assert_eq!(AttentionVariant::Mqa.kv_heads(128), 1);
        assert_eq!(AttentionVariant::Mqa.group_size(128), 128);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn gqa_rejects_nondivisor() {
        let _ = AttentionVariant::Gqa { group_size: 5 }.kv_heads(96);
    }

    #[test]
    fn gqa_group_one_is_mha() {
        let v = AttentionVariant::Gqa { group_size: 1 };
        assert_eq!(v.kv_heads(96), AttentionVariant::Mha.kv_heads(96));
    }
}
