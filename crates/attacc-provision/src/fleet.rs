//! Fleet composition specs and exact cell simulation.
//!
//! A *cell* is one point of the provisioning design space: a
//! [`FleetSpec`] (how many nodes of each variant) serving a
//! [`TrafficSpec`] (how many users at what rate and shape) under an SLO.
//! [`simulate_cell`] evaluates it exactly through
//! [`attacc_cluster::simulate_fleet_mix`] and bills it through the
//! [`CostBook`] — the ground truth the surrogate approximates and the
//! search re-verifies against.

use crate::cost::{CostBook, FleetCost};
use crate::variant::NodeVariant;
use attacc_cluster::{
    simulate_fleet_mix, FleetConfig, FleetMix, FleetReport, InterconnectModel, PoolConfig, PoolMix,
    RouterPolicy, SloSpec, StageExecutor,
};
use attacc_model::{KvCacheSpec, ModelConfig};
use attacc_serving::ArrivalWorkload;

/// How many nodes of each [`NodeVariant`] the fleet buys, indexed by
/// [`NodeVariant::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FleetSpec {
    /// Node count per variant, in [`NodeVariant::ALL`] order.
    pub counts: [usize; 5],
}

impl FleetSpec {
    /// A spec with `n` nodes of a single variant.
    #[must_use]
    pub fn homogeneous(variant: NodeVariant, n: usize) -> FleetSpec {
        let mut counts = [0; 5];
        counts[variant.index()] = n;
        FleetSpec { counts }
    }

    /// Total node count.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The variant of every global node, in deterministic declaration
    /// order (all `dgx-base` first, then the AttAcc variants, then
    /// `dgx-cpu`).
    #[must_use]
    pub fn variants(&self) -> Vec<NodeVariant> {
        let mut out = Vec::with_capacity(self.total_nodes());
        for (i, &n) in self.counts.iter().enumerate() {
            out.extend(std::iter::repeat_n(NodeVariant::ALL[i], n));
        }
        out
    }

    /// Compact label, e.g. `2×attacc-bank+1×dgx-base`.
    #[must_use]
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| format!("{n}x{}", NodeVariant::ALL[i].name()))
            .collect();
        if parts.is_empty() {
            "empty".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// The offered traffic of one provisioning query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Concurrent users ≈ requests in the arrival trace.
    pub users: u64,
    /// Poisson arrival rate, requests/s.
    pub rate_per_s: f64,
    /// Prompt length.
    pub l_in: u64,
    /// Output-length range (uniform).
    pub l_out: (u64, u64),
    /// Arrival-process seed.
    pub seed: u64,
}

impl TrafficSpec {
    /// Materializes the deterministic arrival trace.
    #[must_use]
    pub fn workload(&self) -> ArrivalWorkload {
        ArrivalWorkload::poisson(self.users, self.rate_per_s, self.l_in, self.l_out, self.seed)
    }

    /// Mean context length at end of decode — the point the router
    /// weights are probed at.
    #[must_use]
    pub fn probe_context(&self) -> u64 {
        self.l_in + (self.l_out.0 + self.l_out.1) / 2
    }
}

/// Exact evaluation of one cell, with its bill.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The evaluated composition.
    pub spec: FleetSpec,
    /// The full fleet report.
    pub report: FleetReport,
    /// Dollar attribution under the book.
    pub cost: FleetCost,
    /// Whether the run met the SLO: every request completed, TTFT p99.9
    /// within bound, TBT p99 within bound.
    pub feasible: bool,
}

/// Per-node batch cap used by every provisioning cell. One knob, shared
/// by dataset, search and goldens, so cells differ only along the axes
/// the surrogate sees.
pub const CELL_MAX_BATCH: u64 = 64;

/// Exactly simulates `spec` serving `traffic` on `model` under `slo`,
/// and bills it with `book`.
///
/// The fleet is monolithic (no prefill pool), routed by
/// [`RouterPolicy::WeightedLeastLoad`] with each node weighted by its
/// variant's decode-throughput probe, and each node capped by its own
/// variant's KV capacity — the heterogeneous axis end to end.
/// Deterministic: same inputs, byte-identical result at any thread
/// count.
#[must_use]
pub fn simulate_cell(
    model: &ModelConfig,
    spec: &FleetSpec,
    traffic: &TrafficSpec,
    slo: SloSpec,
    book: &CostBook,
) -> CellResult {
    let variants = spec.variants();
    assert!(!variants.is_empty(), "fleet must buy at least one node");
    // One executor, router weight and scheduler per variant bought; the
    // variant's nodes share them (an executor holds no per-node state).
    let l_ctx = traffic.probe_context();
    let bought: Vec<_> = NodeVariant::ALL
        .iter()
        .zip(spec.counts)
        .filter(|&(_, n)| n > 0)
        .map(|(v, n)| {
            let exec = v.executor(model);
            let weight = exec.decode_tokens_per_s(CELL_MAX_BATCH, l_ctx);
            (exec, weight, v.scheduler(model, CELL_MAX_BATCH), n)
        })
        .collect();
    let mut refs: Vec<&dyn StageExecutor> = Vec::with_capacity(variants.len());
    let mut weights = Vec::with_capacity(variants.len());
    let mut schedulers = Vec::with_capacity(variants.len());
    for (exec, weight, scheduler, n) in &bought {
        refs.extend(std::iter::repeat_n(exec as &dyn StageExecutor, *n));
        weights.extend(std::iter::repeat_n(*weight, *n));
        schedulers.extend(std::iter::repeat_n(*scheduler, *n));
    }
    // Shared fallback config: the least-capable variant's capacity, so
    // pool-level admission never overpromises.
    let shared = schedulers
        .iter()
        .copied()
        .min_by(|a, b| a.kv_capacity_bytes.cmp(&b.kv_capacity_bytes))
        .expect("at least one node");

    let mix = FleetMix {
        prefill: PoolMix::default(),
        decode: PoolMix { weights, schedulers },
    };
    let cfg = FleetConfig {
        prefill: None,
        decode: PoolConfig::fixed(variants.len()),
        scheduler: shared,
        policy: RouterPolicy::WeightedLeastLoad,
        interconnect: InterconnectModel::ethernet_400g()
            .with_kv_bytes_per_token(KvCacheSpec::of(model).bytes_per_token),
        slo,
        autoscaler: None,
    };
    let workload = traffic.workload();
    let report = simulate_fleet_mix(&[], &refs, &mix, &workload, &cfg);
    let cost = book.bill(&report, &variants);
    let feasible = report.cluster.completed == traffic.users
        && report.cluster.abandoned == 0
        && report.cluster.ttft.p999_s <= slo.ttft_s
        && report.cluster.tbt.p99_s <= slo.tbt_s;
    CellResult {
        spec: *spec,
        report,
        cost,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_traffic() -> TrafficSpec {
        TrafficSpec {
            users: 24,
            rate_per_s: 4.0,
            l_in: 128,
            l_out: (16, 32),
            seed: 7,
        }
    }

    #[test]
    fn spec_expansion_is_declaration_ordered() {
        let spec = FleetSpec {
            counts: [1, 0, 0, 2, 1],
        };
        let v = spec.variants();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], NodeVariant::DgxBase);
        assert_eq!(v[1], NodeVariant::AttAccBank);
        assert_eq!(v[2], NodeVariant::AttAccBank);
        assert_eq!(v[3], NodeVariant::CpuOffload);
        assert_eq!(spec.label(), "1xdgx-base+2xattacc-bank+1xdgx-cpu");
    }

    #[test]
    fn mixed_cell_serves_and_bills() {
        let model = ModelConfig::gpt3_175b();
        let spec = FleetSpec {
            counts: [1, 0, 0, 1, 0],
        };
        let book = CostBook::paper_defaults();
        let r = simulate_cell(&model, &spec, &small_traffic(), SloSpec::chatbot(), &book);
        assert_eq!(r.report.cluster.completed, 24);
        assert!(r.cost.total_usd > 0.0);
        assert!(r.cost.usd_per_mtok.is_finite());
        // The weighted router must favor the (faster) AttAcc node.
        let dgx_tokens = r.report.cluster.nodes[0].tokens;
        let attacc_tokens = r.report.cluster.nodes[1].tokens;
        assert!(
            attacc_tokens > dgx_tokens,
            "AttAcc node should absorb more work: {attacc_tokens} vs {dgx_tokens}"
        );
    }

    #[test]
    fn cell_simulation_is_deterministic() {
        let model = ModelConfig::gpt3_175b();
        let spec = FleetSpec {
            counts: [1, 0, 1, 0, 0],
        };
        let book = CostBook::paper_defaults();
        let a = simulate_cell(&model, &spec, &small_traffic(), SloSpec::chatbot(), &book);
        let b = simulate_cell(&model, &spec, &small_traffic(), SloSpec::chatbot(), &book);
        assert_eq!(a, b);
    }
}
