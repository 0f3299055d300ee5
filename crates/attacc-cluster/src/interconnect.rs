//! Front-door ↔ node interconnect cost model.
//!
//! Two transfers matter at cluster scale: shipping a request's prompt to
//! the node that will serve it, and migrating an already-built KV cache
//! when placement moves a session off its home node. Both are modeled as
//! `base latency + bytes / bandwidth` — a store-and-forward datacenter
//! link, deliberately simple: the cluster layer cares about *relative*
//! routing costs, not packet-level fidelity.

/// Cost model for moving request state between the front door and nodes
/// (and between nodes, for KV migration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Link bandwidth in bytes per second (`f64::INFINITY` = free).
    pub link_bw_bytes_per_s: f64,
    /// Fixed per-message latency in seconds.
    pub base_latency_s: f64,
    /// Bytes shipped per prompt token (token ids plus metadata).
    pub prompt_bytes_per_token: u64,
    /// Bytes moved per cached token when a KV cache migrates (the full
    /// per-token KV footprint across decoders).
    pub kv_bytes_per_token: u64,
}

impl InterconnectModel {
    /// A zero-cost interconnect: every transfer is instantaneous. The
    /// pass-through / equivalence configuration.
    #[must_use]
    pub fn ideal() -> InterconnectModel {
        InterconnectModel {
            link_bw_bytes_per_s: f64::INFINITY,
            base_latency_s: 0.0,
            prompt_bytes_per_token: 0,
            kv_bytes_per_token: 0,
        }
    }

    /// A 400 Gb/s datacenter Ethernet front door: 50 GB/s, 10 µs base
    /// latency, 4 B/token prompts (token ids + position), KV migration
    /// priced per token by the caller's model via
    /// [`InterconnectModel::with_kv_bytes_per_token`].
    #[must_use]
    pub fn ethernet_400g() -> InterconnectModel {
        InterconnectModel {
            link_bw_bytes_per_s: 50e9,
            base_latency_s: 10e-6,
            prompt_bytes_per_token: 4,
            kv_bytes_per_token: 0,
        }
    }

    /// Same link, with KV migration priced at `bytes` per cached token
    /// (use [`attacc_model::KvCacheSpec::bytes_per_token`]).
    #[must_use]
    pub fn with_kv_bytes_per_token(mut self, bytes: u64) -> InterconnectModel {
        self.kv_bytes_per_token = bytes;
        self
    }

    /// Seconds to move `bytes` over the link.
    #[must_use]
    pub fn transfer_s(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let wire = if self.link_bw_bytes_per_s.is_finite() && self.link_bw_bytes_per_s > 0.0 {
            bytes as f64 / self.link_bw_bytes_per_s
        } else {
            0.0
        };
        self.base_latency_s + wire
    }

    /// Seconds to ship an `l_in`-token prompt to a node.
    #[must_use]
    pub fn ship_prompt_s(&self, l_in: u64) -> f64 {
        self.transfer_s(l_in * self.prompt_bytes_per_token)
    }

    /// Seconds to migrate `tokens` of cached KV state between nodes.
    #[must_use]
    pub fn migrate_kv_s(&self, tokens: u64) -> f64 {
        self.transfer_s(tokens * self.kv_bytes_per_token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_transfers_are_free() {
        let ic = InterconnectModel::ideal();
        assert_eq!(ic.ship_prompt_s(4096), 0.0);
        assert_eq!(ic.migrate_kv_s(1 << 20), 0.0);
    }

    #[test]
    fn costs_scale_with_bytes() {
        // 4 MiB of KV per token — the GPT-3-class footprint scale.
        let ic = InterconnectModel::ethernet_400g().with_kv_bytes_per_token(1 << 22);
        let short = ic.ship_prompt_s(128);
        let long = ic.ship_prompt_s(4096);
        assert!(long > short && short > 0.0);
        // KV migration dwarfs prompt shipping at equal token counts.
        assert!(ic.migrate_kv_s(2048) > ic.ship_prompt_s(2048) * 10.0);
    }

    #[test]
    fn base_latency_applies_once_per_message() {
        let ic = InterconnectModel {
            link_bw_bytes_per_s: 1e9,
            base_latency_s: 1e-3,
            prompt_bytes_per_token: 2,
            kv_bytes_per_token: 0,
        };
        assert!((ic.ship_prompt_s(500) - (1e-3 + 1000.0 / 1e9)).abs() < 1e-15);
        assert_eq!(ic.migrate_kv_s(500), 0.0, "zero bytes → no message at all");
    }
}
