//! Multi-node serving-cluster simulation for AttAcc platforms.
//!
//! This crate scales the single-node, iteration-level serving model of
//! `attacc-serving` out to a fleet: N nodes — each an `attacc-sim`
//! platform behind its own scheduler — fed by a front-door router over a
//! datacenter interconnect, driven by a deterministic discrete-event loop.
//! It answers the questions the per-figure drivers cannot: how many
//! AttAcc boxes does a workload need, which routing policy holds the
//! p99.9 tail, and what goodput survives a latency SLO.
//!
//! One event loop, [`ServingLoop`], serves every shape: a static cluster
//! ([`simulate_cluster`]), an autoscaled and possibly disaggregated fleet
//! ([`simulate_fleet`], [`simulate_fleet_mix`]), and the fault runs of
//! `attacc-chaos`, which pre-load fault transitions and read the
//! [`ResiliencePolicy`] / [`DegradePolicy`] defined here.
//!
//! The design invariants, in order of importance:
//!
//! 1. **Determinism.** The event queue orders by
//!    `(time, kind, insertion)`; routing is a pure function of the
//!    arrival sequence and a deterministic load snapshot. Same workload +
//!    config → byte-identical report, at any thread count, cold or warm
//!    timing cache.
//! 2. **Equivalence.** A 1-node cluster behind a pass-through router over
//!    an ideal interconnect reproduces
//!    [`attacc_serving::simulate_open_loop`] *bit-exactly*. Both drive
//!    the one scheduling round, [`NodeEngine::run_round`] from
//!    `attacc-serving`, and the loop delivers, wakes and measures the node
//!    as the open loop does, so the cluster layer adds no modeling drift.
//! 3. **Composition.** Nodes see only the [`StageExecutor`] trait; the
//!    memoised `attacc-sim` timing cache, toy test executors, and future
//!    platforms all plug in unchanged.
//!
//! ```
//! use attacc_cluster::{
//!     simulate_cluster, ClusterConfig, EventKind, ResiliencePolicy, RouterPolicy, ServingLoop,
//! };
//! use attacc_serving::{ArrivalWorkload, SchedulerConfig, StageCost, StageExecutor};
//!
//! struct Toy;
//! impl StageExecutor for Toy {
//!     fn sum_stage(&self, b: u64, l: u64) -> StageCost {
//!         StageCost { latency_s: 1e-6 * (b * l) as f64, energy_j: 0.0 }
//!     }
//!     fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
//!         let n: u64 = groups.iter().map(|g| g.0).sum();
//!         StageCost { latency_s: 1e-4 * n as f64, energy_j: 0.0 }
//!     }
//! }
//!
//! let workload = ArrivalWorkload::poisson(100, 80.0, 64, (4, 16), 1);
//! let cfg = ClusterConfig {
//!     policy: RouterPolicy::JoinShortestQueue,
//!     ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
//! };
//! let nodes: [&dyn StageExecutor; 4] = [&Toy, &Toy, &Toy, &Toy];
//! let report = simulate_cluster(&nodes, &workload, &cfg);
//! assert_eq!(report.completed, 100);
//! println!("{}", report.summary_table());
//!
//! // The same cluster through the loop itself, with node 0 down for 50 ms
//! // and crash-aware routing sending work around it.
//! let mut sim = ServingLoop::cluster(&nodes, &cfg, ResiliencePolicy::health_aware(), 0);
//! sim.queue().push(0.1, EventKind::NodeDown { node: 0 });
//! sim.queue().push(0.15, EventKind::NodeUp { node: 0 });
//! let out = sim.run(&workload);
//! assert_eq!((out.counters.crashes, out.unique_completed), (1, 100));
//! assert!(out.availability < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod interconnect;
pub mod policy;
pub mod pools;
pub mod report;
pub mod router;
pub mod scale;
pub mod sim;

pub use event::{Event, EventKind, EventQueue};
pub use interconnect::InterconnectModel;
pub use policy::{
    BrownoutConfig, DegradePolicy, HealthConfig, RecoveryMode, ResiliencePolicy, ShedConfig,
    StormGuard,
};
pub use pools::{
    simulate_fleet, simulate_fleet_mix, FleetConfig, FleetMix, FleetReport, PoolConfig, PoolMix,
};
pub use report::{ClusterReport, GoodputReport, NodeReport, SloSpec};
pub use router::{splitmix64, NodeLoad, RouteDecision, Router, RouterPolicy};
pub use scale::{
    Autoscaler, AutoscalerConfig, PoolKind, PoolObservation, ScaleDirection, ScaleEvent,
    ScaleSignal,
};
pub use sim::{
    simulate_cluster, ClusterConfig, FaultCounters, LoopOutcome, RequestOutcome, ServingLoop,
};

// Re-exported so downstream callers need only this crate for a full run.
pub use attacc_serving::{
    CrashedWork, DisplacedRequest, NodeEngine, NodeRole, RoundOutcome, StageExecutor,
};
