//! The node-variant axis of the provisioning search.

use attacc_hbm::AccessDepth;
use attacc_model::{KvCacheSpec, ModelConfig};
use attacc_pim::GemvPlacement;
use attacc_serving::{SchedulerConfig, StageExecutor};
use attacc_sim::{System, SystemExecutor};

/// A procurable node type: the unit the fleet-mix search composes.
///
/// Each variant maps onto one of the paper's evaluated systems
/// ([`System`] constructors), so the provisioning layer adds no new
/// performance modeling — only the question of *how many of which* to
/// buy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeVariant {
    /// `DGX_Base`: the homogeneous GPU baseline.
    DgxBase,
    /// `DGX+AttAccs` with buffer-die GEMV units.
    AttAccBuffer,
    /// `DGX+AttAccs` with bank-group-level GEMV units.
    AttAccBankGroup,
    /// `DGX+AttAccs` with bank-level GEMV units — the headline design.
    AttAccBank,
    /// DGX with attention offloaded to host-CPU DDR (§7.6).
    CpuOffload,
}

impl NodeVariant {
    /// Every variant, in canonical (feature-vector) order.
    pub const ALL: [NodeVariant; 5] = [
        NodeVariant::DgxBase,
        NodeVariant::AttAccBuffer,
        NodeVariant::AttAccBankGroup,
        NodeVariant::AttAccBank,
        NodeVariant::CpuOffload,
    ];

    /// Position in [`NodeVariant::ALL`] — the feature-vector index.
    #[must_use]
    pub fn index(self) -> usize {
        NodeVariant::ALL
            .iter()
            .position(|v| *v == self)
            .expect("variant is in ALL")
    }

    /// Short label used in tables and golden files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NodeVariant::DgxBase => "dgx-base",
            NodeVariant::AttAccBuffer => "attacc-buf",
            NodeVariant::AttAccBankGroup => "attacc-bg",
            NodeVariant::AttAccBank => "attacc-bank",
            NodeVariant::CpuOffload => "dgx-cpu",
        }
    }

    /// The GEMV placement, for the AttAcc variants.
    #[must_use]
    pub fn placement(self) -> Option<GemvPlacement> {
        match self {
            NodeVariant::AttAccBuffer => Some(GemvPlacement::Buffer),
            NodeVariant::AttAccBankGroup => Some(GemvPlacement::BankGroup),
            NodeVariant::AttAccBank => Some(GemvPlacement::Bank),
            _ => None,
        }
    }

    /// The AttAcc datapath depth matching [`placement`], for peak-power
    /// derivation; [`AccessDepth::External`] for the non-PIM variants.
    ///
    /// [`placement`]: NodeVariant::placement
    #[must_use]
    pub fn access_depth(self) -> AccessDepth {
        match self {
            NodeVariant::AttAccBuffer => AccessDepth::Buffer,
            NodeVariant::AttAccBankGroup => AccessDepth::BankGroup,
            NodeVariant::AttAccBank => AccessDepth::Bank,
            _ => AccessDepth::External,
        }
    }

    /// The evaluated system this variant procures.
    #[must_use]
    pub fn system(self) -> System {
        match self {
            NodeVariant::DgxBase => System::dgx_base(),
            NodeVariant::AttAccBuffer => System::dgx_attacc_with_placement(GemvPlacement::Buffer),
            NodeVariant::AttAccBankGroup => {
                System::dgx_attacc_with_placement(GemvPlacement::BankGroup)
            }
            NodeVariant::AttAccBank => System::dgx_attacc_with_placement(GemvPlacement::Bank),
            NodeVariant::CpuOffload => System::dgx_cpu(),
        }
    }

    /// The stage executor for this variant serving `model`.
    #[must_use]
    pub fn executor(self, model: &ModelConfig) -> SystemExecutor {
        SystemExecutor::new(self.system(), model)
    }

    /// Per-node scheduler limits: `max_batch` requests against this
    /// variant's KV capacity for `model`. This is what makes a mixed
    /// fleet honest — a `DGX_Base` node holds far less KV than an
    /// AttAcc or CPU-offload node and must fill up first.
    #[must_use]
    pub fn scheduler(self, model: &ModelConfig, max_batch: u64) -> SchedulerConfig {
        SchedulerConfig::with_capacity(
            max_batch,
            self.system().kv_capacity_bytes(model),
            KvCacheSpec::of(model).bytes_per_token,
        )
    }

    /// Relative decode throughput (output tokens/s) of one node of this
    /// variant at a full batch of `batch` requests, context `l_ctx` —
    /// the weight the fleet router and autoscaler use. Deterministic:
    /// delegates to the memoised [`StageExecutor::decode_tokens_per_s`]
    /// probe.
    #[must_use]
    pub fn decode_weight(self, model: &ModelConfig, batch: u64, l_ctx: u64) -> f64 {
        self.executor(model).decode_tokens_per_s(batch, l_ctx)
    }
}

impl std::fmt::Display for NodeVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for (i, v) in NodeVariant::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn attacc_bank_outruns_the_baseline_at_long_context() {
        let model = ModelConfig::gpt3_175b();
        let bank = NodeVariant::AttAccBank.decode_weight(&model, 64, 2048);
        let base = NodeVariant::DgxBase.decode_weight(&model, 64, 2048);
        assert!(
            bank > base,
            "AttAcc bank decode weight {bank} should beat DGX base {base}"
        );
    }

    #[test]
    fn kv_capacity_orders_variants_as_the_paper_says() {
        let model = ModelConfig::gpt3_175b();
        let cap = |v: NodeVariant| v.scheduler(&model, 64).kv_capacity_bytes;
        assert!(cap(NodeVariant::AttAccBank) > cap(NodeVariant::DgxBase));
        assert!(cap(NodeVariant::CpuOffload) > cap(NodeVariant::AttAccBank));
    }
}
