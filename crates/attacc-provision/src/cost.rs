//! The `CostBook`: the single source of truth for $ and watts.
//!
//! Every electrical constant here is *derived* from the tables the
//! simulator already charges energy against — [`XpuEnergyModel`] for the
//! GPU chassis, [`attacc_hbm::HbmConfig::peak_power_w`] (IDD7 budget)
//! for the AttAcc stacks, [`attacc_sim::ATTACC_STATIC_W`] for the board
//! idle — so the provisioning bill and the per-stage energy accounting
//! can never drift apart. CapEx figures are the only new inputs, and they live
//! here and nowhere else.

use crate::variant::NodeVariant;
use attacc_cluster::FleetReport;
use attacc_pim::AreaReport;
use attacc_xpu::XpuEnergyModel;

/// List price of one DGX-class chassis (8 GPUs + host), USD.
pub const DGX_CAPEX_USD: f64 = 200_000.0;

/// Base cost of one plain HBM3 stack on the AttAcc board, USD. PIM
/// variants scale this by `1 + dram_die_overhead` from the §6.3 area
/// model: silicon you add is silicon you pay for.
pub const HBM_STACK_CAPEX_USD: f64 = 1_500.0;

/// DDR5 for the CPU-offload pool, USD per GiB.
pub const DDR_USD_PER_GIB: f64 = 4.0;

/// Default electricity price, USD per kWh.
pub const USD_PER_KWH: f64 = 0.12;

/// Default CapEx amortization horizon: three years, in seconds.
pub const AMORTIZATION_S: f64 = 3.0 * 365.0 * 86_400.0;

/// Procurement and electrical profile of one node variant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeCost {
    /// Purchase price, USD.
    pub capex_usd: f64,
    /// Idle draw, watts — what a node burns while active but not
    /// executing rounds (including cold-start spin-up).
    pub idle_w: f64,
    /// Peak sustained draw, watts — compute and memory streaming flat
    /// out. Informational ceiling; actual dynamic energy comes from the
    /// simulator's per-stage accounting.
    pub peak_w: f64,
}

/// Prices and electrical constants for every [`NodeVariant`], plus the
/// tariff that turns joules and node-seconds into dollars.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBook {
    /// Electricity price, USD/kWh.
    pub usd_per_kwh: f64,
    /// CapEx amortization horizon in seconds: a node-second costs
    /// `capex_usd / amortization_s`.
    pub amortization_s: f64,
    /// Per-variant costs, indexed by [`NodeVariant::index`].
    pub nodes: [NodeCost; 5],
}

impl CostBook {
    /// The default book, derived from the paper-configuration power and
    /// area tables.
    #[must_use]
    pub fn paper_defaults() -> CostBook {
        let nodes = [
            NodeVariant::DgxBase,
            NodeVariant::AttAccBuffer,
            NodeVariant::AttAccBankGroup,
            NodeVariant::AttAccBank,
            NodeVariant::CpuOffload,
        ]
        .map(NodeCost::derive);
        CostBook {
            usd_per_kwh: USD_PER_KWH,
            amortization_s: AMORTIZATION_S,
            nodes,
        }
    }

    /// The cost entry for `variant`.
    #[must_use]
    pub fn node(&self, variant: NodeVariant) -> NodeCost {
        self.nodes[variant.index()]
    }

    /// Bills a fleet run: `variants[i]` is the variant of global node
    /// `i`. Node-seconds are amortized CapEx; dynamic energy comes from
    /// the simulator's own accounting; active-but-not-busy time
    /// (including cold-start spin-up) is charged at the node's idle
    /// wattage — never zero.
    ///
    /// # Panics
    /// Panics when `variants` does not cover every provisioned node.
    #[must_use]
    pub fn bill(&self, report: &FleetReport, variants: &[NodeVariant]) -> FleetCost {
        assert_eq!(
            variants.len(),
            report.node_active_s.len(),
            "one variant per provisioned node"
        );
        let mut capex_usd = 0.0;
        let mut idle_j = 0.0;
        for (i, &v) in variants.iter().enumerate() {
            let cost = self.node(v);
            let active_s = report.node_active_s[i];
            capex_usd += active_s * cost.capex_usd / self.amortization_s;
            let busy_s = report.cluster.nodes[i].busy_s;
            idle_j += cost.idle_w * (active_s - busy_s).max(0.0);
        }
        let busy_j = report.cluster.energy_j;
        let energy_usd = (busy_j + idle_j) / 3.6e6 * self.usd_per_kwh;
        let total_usd = capex_usd + energy_usd;
        let tokens: u64 = report.cluster.nodes.iter().map(|n| n.tokens).sum();
        let usd_per_mtok = if tokens > 0 {
            total_usd / tokens as f64 * 1e6
        } else {
            f64::INFINITY
        };
        FleetCost {
            capex_usd,
            busy_j,
            idle_j,
            cold_start_node_s: report.cold_start_node_s,
            energy_usd,
            total_usd,
            usd_per_mtok,
        }
    }
}

impl Default for CostBook {
    fn default() -> CostBook {
        CostBook::paper_defaults()
    }
}

impl NodeCost {
    /// Derives the entry for `variant` from the existing power/area
    /// tables: DGX electricals from [`XpuEnergyModel`], AttAcc stack
    /// power from the IDD7 budget at the variant's datapath depth,
    /// AttAcc board idle from [`attacc_sim::ATTACC_STATIC_W`], PIM CapEx
    /// from the §6.3 area overhead, DDR CapEx per GiB.
    #[must_use]
    pub fn derive(variant: NodeVariant) -> NodeCost {
        let system = variant.system();
        let gpu = &system.gpu;
        let dgx_idle = gpu.energy.static_w;
        let dgx_peak = gpu
            .energy
            .peak_execution_w(gpu.device.peak_flops_fp16, gpu.device.mem_bw);
        match variant {
            NodeVariant::DgxBase => NodeCost {
                capex_usd: DGX_CAPEX_USD,
                idle_w: dgx_idle,
                peak_w: dgx_peak,
            },
            NodeVariant::AttAccBuffer | NodeVariant::AttAccBankGroup | NodeVariant::AttAccBank => {
                let attacc = system.attacc.as_ref().expect("AttAcc variants carry a device");
                let placement = variant.placement().expect("AttAcc variants have a placement");
                let overhead = AreaReport::for_placement(placement, &attacc.hbm).dram_die_overhead;
                let stacks = f64::from(attacc.n_stacks);
                let stack_peak = attacc.hbm.peak_power_w(variant.access_depth());
                NodeCost {
                    capex_usd: DGX_CAPEX_USD
                        + stacks * HBM_STACK_CAPEX_USD * (1.0 + overhead),
                    idle_w: dgx_idle + attacc_sim::ATTACC_STATIC_W,
                    peak_w: dgx_peak + attacc_sim::ATTACC_STATIC_W + stacks * stack_peak,
                }
            }
            NodeVariant::CpuOffload => {
                let cpu = system.cpu.as_ref().expect("CPU offload carries a host pool");
                // Host DDR dynamic ceiling priced with the same pJ
                // constants the GPU chassis uses; its static draw is
                // already inside the chassis figure.
                let host_dynamic = XpuEnergyModel {
                    static_w: 0.0,
                    ..gpu.energy.clone()
                }
                .peak_execution_w(cpu.device.peak_flops_fp16, cpu.device.mem_bw);
                let gib = cpu.capacity_bytes as f64 / (1u64 << 30) as f64;
                NodeCost {
                    capex_usd: DGX_CAPEX_USD + gib * DDR_USD_PER_GIB,
                    idle_w: dgx_idle,
                    peak_w: dgx_peak + host_dynamic,
                }
            }
        }
    }
}

/// Dollar attribution of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetCost {
    /// Amortized CapEx over the consumed node-seconds, USD.
    pub capex_usd: f64,
    /// Dynamic (round-execution) energy from the simulator, J.
    pub busy_j: f64,
    /// Idle energy: active-but-not-busy node time (cold starts
    /// included) at each node's idle wattage, J.
    pub idle_j: f64,
    /// Node-seconds inside cold-start windows — billed within
    /// [`idle_j`] at idle wattage, broken out for reporting.
    ///
    /// [`idle_j`]: FleetCost::idle_j
    pub cold_start_node_s: f64,
    /// `(busy_j + idle_j)` at the book's tariff, USD.
    pub energy_usd: f64,
    /// CapEx + energy, USD.
    pub total_usd: f64,
    /// Total cost per million output tokens, USD (infinite when the run
    /// produced none).
    pub usd_per_mtok: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_hbm::{AccessDepth, HbmConfig};

    // Satellite: the book is the single source of truth — these pins
    // fail if it ever drifts from the constants the energy accounting
    // charges.
    #[test]
    fn book_matches_the_inline_power_constants() {
        let book = CostBook::paper_defaults();
        let dgx = XpuEnergyModel::dgx();
        assert_eq!(book.node(NodeVariant::DgxBase).idle_w, dgx.static_w);
        assert_eq!(
            book.node(NodeVariant::AttAccBank).idle_w,
            dgx.static_w + attacc_sim::ATTACC_STATIC_W
        );
        assert_eq!(book.node(NodeVariant::CpuOffload).idle_w, dgx.static_w);

        // Peak = the same execution_j integrand, per second.
        let expect_dgx_peak = dgx.execution_j(2.5e15, 26.6e12, 1.0);
        assert_eq!(book.node(NodeVariant::DgxBase).peak_w, expect_dgx_peak);

        // AttAcc peak adder = 40 stacks at the IDD7 budget.
        let stack = HbmConfig::hbm3_8hi().peak_power_w(AccessDepth::Bank);
        let got = book.node(NodeVariant::AttAccBank).peak_w;
        let expect = expect_dgx_peak + attacc_sim::ATTACC_STATIC_W + 40.0 * stack;
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn pim_capex_orders_by_area_overhead() {
        let book = CostBook::paper_defaults();
        let buf = book.node(NodeVariant::AttAccBuffer).capex_usd;
        let bg = book.node(NodeVariant::AttAccBankGroup).capex_usd;
        let bank = book.node(NodeVariant::AttAccBank).capex_usd;
        assert!(buf < bg && bg < bank, "{buf} {bg} {bank}");
        assert!(buf > DGX_CAPEX_USD);
    }

    #[test]
    fn deeper_placements_draw_more_peak_power() {
        let book = CostBook::paper_defaults();
        let buf = book.node(NodeVariant::AttAccBuffer).peak_w;
        let bank = book.node(NodeVariant::AttAccBank).peak_w;
        assert!(
            bank > buf,
            "bank-level PIM powers more units: {bank} vs {buf}"
        );
    }
}
