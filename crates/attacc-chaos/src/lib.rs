//! Deterministic fault injection and resilience for the AttAcc cluster
//! simulator.
//!
//! The paper's throughput and SLO conclusions assume a perfectly reliable
//! fleet. This crate stress-tests them: a seeded [`FaultSchedule`] of
//! node crashes with repair times is lowered into first-class events on
//! the queue of `attacc-cluster`'s one serving loop, a
//! [`ResiliencePolicy`] decides what the front door does about it
//! (timeouts + retries with backoff and seeded jitter, hedged duplicates,
//! EWMA health-aware routing, re-prefill vs. KV-migration recovery), and
//! [`simulate_chaos`] / [`simulate_fleet_chaos`] report what survived —
//! availability, lost and recomputed tokens, and goodput under failure.
//! The loop and the policies it reads live in `attacc-cluster`; this
//! crate keeps crash generation, data integrity and the two reports.
//!
//! Two contracts hold by construction and are pinned by tests:
//!
//! 1. **Zero-fault equivalence.** With an empty schedule and
//!    [`ResiliencePolicy::off`], the run is *bit-exact* with
//!    [`attacc_cluster::simulate_cluster`]: it is the same loop and its
//!    fault paths are never entered.
//! 2. **Seeded determinism.** Faults, jitter, and session placement all
//!    draw from SplitMix64 streams — no wall clock, no hash-map
//!    iteration — so the same inputs give byte-identical reports at any
//!    thread count, cold or warm timing cache.
//!
//! ```
//! use attacc_chaos::{simulate_chaos, ChaosConfig, FaultSchedule, FaultSpec, ResiliencePolicy};
//! use attacc_cluster::{ClusterConfig, RouterPolicy};
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
//! let cluster = ClusterConfig {
//!     policy: RouterPolicy::JoinShortestQueue,
//!     ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
//! };
//! let cfg = ChaosConfig { cluster, policy: ResiliencePolicy::retrying(), seed: 7 };
//! let faults = FaultSchedule::generate(4, 5.0, &FaultSpec::crashes_only(2.0, 0.5), 42);
//! let report = simulate_chaos(&[&Toy, &Toy, &Toy, &Toy], &workload, &cfg, &faults);
//! assert_eq!(report.unique_completed, 100);
//! println!("{}", report.summary_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod integrity;
pub mod report;
pub mod sim;

// The failure policies live next to the serving loop that reads them.
pub use attacc_cluster::policy;

pub use fault::{Fault, FaultSchedule, FaultSpec};
pub use fleet::{simulate_fleet_chaos, FleetChaosConfig};
pub use integrity::{simulate_integrity, CorruptionSpec, IntegrityReport, Protection};
pub use policy::{
    BrownoutConfig, DegradePolicy, HealthConfig, RecoveryMode, ResiliencePolicy, ShedConfig,
    StormGuard,
};
pub use report::{ChaosReport, FleetChaosReport, RequestOutcome};
pub use sim::{simulate_chaos, ChaosConfig};

// Re-exported so downstream callers need only this crate for a full run.
pub use attacc_cluster::{ClusterConfig, FleetConfig, FleetMix, PoolConfig, RouterPolicy, SloSpec};
pub use attacc_serving::RetryPolicy;
