//! Batched serving layer: iteration-level scheduling, SLO and capacity
//! batch-size limits, and the §6 pipelining / co-processing combinators.
//!
//! The serving layer is device-agnostic: it drives any [`StageExecutor`]
//! (implemented by `attacc-sim` for each system) through the lifecycle of
//! a request population, using the iteration-level scheduling of ORCA \[66\]
//! — a new request joins the batch whenever one completes, so heads at
//! different progress points mix freely within a Gen iteration.
//!
//! One scheduling round implements it, [`NodeEngine::run_round`] in
//! [`node`]. [`simulate`] drives one engine over a closed batch
//! delivered at t = 0, [`simulate_open_loop`] over timed arrivals, and
//! `attacc-cluster`'s event loop runs one engine per node.
//!
//! # Example
//!
//! ```
//! use attacc_serving::{simulate, SchedulerConfig, StageCost, StageExecutor, Workload};
//!
//! /// A toy system: every stage costs 1 ms per request in the batch.
//! struct Toy;
//! impl StageExecutor for Toy {
//!     fn sum_stage(&self, batch: u64, _l_in: u64) -> StageCost {
//!         StageCost { latency_s: 1e-3 * batch as f64, energy_j: 0.0 }
//!     }
//!     fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
//!         let n: u64 = groups.iter().map(|g| g.0).sum();
//!         StageCost { latency_s: 1e-3 * n as f64, energy_j: 0.0 }
//!     }
//! }
//!
//! let wl = Workload::fixed(8, 16, 4); // 8 requests, L_in 16, L_out 4
//! let report = simulate(&Toy, &wl.requests(), &SchedulerConfig::unlimited(4));
//! assert_eq!(report.tokens_generated, 8 * 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod capacity;
pub mod metrics;
pub mod node;
pub mod pipeline;
pub mod resilience;
pub mod scheduler;
pub mod slo;
pub mod trace;
pub mod workload;

pub use arrivals::{simulate_open_loop, ArrivalWorkload, LatencyStats, OpenLoopReport};
pub use capacity::max_batch_by_capacity;
pub use metrics::ServingReport;
pub use node::{CrashedWork, DisplacedRequest, NodeEngine, NodeMetrics, NodeRole, RoundOutcome};
pub use pipeline::{ff_coprocess_speedup, head_level_pipelined_s, serial_s, DecoderPhases};
pub use resilience::RetryPolicy;
pub use scheduler::{simulate, SchedulerConfig, StageCost, StageExecutor};
pub use slo::max_batch_under_slo;
pub use trace::{FlashCrowd, TraceSpec};
pub use workload::Workload;
