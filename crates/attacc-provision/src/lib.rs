//! Heterogeneous-fleet TCO provisioning for AttAcc platforms.
//!
//! The paper (§7) compares homogeneous systems; capacity planning asks
//! the harder question: what *mix* of `dgx-base`, `dgx-attacc`
//! (buffer/bank-group/bank) and CPU-offload nodes serves a traffic
//! level at the lowest $/token under an SLO? This crate answers it end
//! to end:
//!
//! 1. [`CostBook`] — CapEx and wattage per [`NodeVariant`], *derived*
//!    from the existing power/area tables (`attacc-xpu` energy
//!    constants, the `attacc-hbm` IDD7 budget, the §6.3 area model), so
//!    billing and energy accounting share one source of truth. It turns
//!    a [`attacc_cluster::FleetReport`]'s node-seconds and joules into
//!    dollars, charging cold-start spin-up at idle wattage.
//! 2. [`simulate_cell`] — exact evaluation of one `(fleet mix,
//!    traffic)` cell through [`attacc_cluster::simulate_fleet_mix`]:
//!    per-variant KV capacities, throughput-weighted routing, one bill.
//! 3. [`DatasetBuilder`] + [`Gbt`] — parallel exact sweeps labelled
//!    into a dataset, and a hand-rolled, dependency-free
//!    gradient-boosted-tree surrogate with monotone constraints
//!    (deterministic: serial exact greedy splits, total-ordered
//!    tie-breaks).
//! 4. [`run_search`] — the surrogate prunes the mix grid (≥90% of
//!    cells never simulated), the shortlist is re-simulated *exactly*,
//!    and the outcome reports the surrogate's own error — so the
//!    returned optimum is always ground truth, byte-identical at any
//!    thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dataset;
pub mod fleet;
pub mod search;
pub mod surrogate;
pub mod variant;

pub use cost::{CostBook, FleetCost, NodeCost};
pub use dataset::{
    tail_monotone, Dataset, DatasetBuilder, FeatureContext, FEATURE_NAMES, LOAD_RATIO_FEATURE,
    RATE_FEATURE,
};
pub use fleet::{simulate_cell, CellResult, FleetSpec, TrafficSpec, CELL_MAX_BATCH};
pub use search::{enumerate_specs, run_search, SearchConfig, SearchOutcome, VerifiedPick};
pub use surrogate::{Gbt, GbtParams};
pub use variant::NodeVariant;
