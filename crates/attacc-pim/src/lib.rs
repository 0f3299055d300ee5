//! The AttAcc processing-in-memory architecture (§4–§6 of the paper).
//!
//! This crate implements both faces of AttAcc:
//!
//! * **Functional**: GEMV units (16 FP16 multiply lanes with adder-tree and
//!   accumulator modes), the 3-stage softmax unit, hierarchical
//!   accumulators, and the §4.2 data-mapping policies, all executing on
//!   real numbers. Like §5.1 the datapath has no fault model: each unit
//!   operation has one entry point. Property tests prove the partitioned
//!   dataflow is numerically equivalent to a reference attention
//!   implementation.
//! * **Timing/energy**: the design-space points AttAcc_buffer / AttAcc_BG /
//!   AttAcc_bank with their power-constrained internal bandwidths, the area
//!   model of §7.7, per-head attention execution with attention-level
//!   pipelining (§6.1), and the device-level model `attacc-sim` composes
//!   into the heterogeneous platform.
//!
//! # Example
//!
//! ```
//! use attacc_pim::{AttAccDevice, GemvPlacement};
//! use attacc_model::ModelConfig;
//!
//! let dev = AttAccDevice::paper_40_stacks(GemvPlacement::Bank);
//! let m = ModelConfig::gpt3_175b();
//! // One Gen-stage decoder of GPT-3 at batch 32, L = 2048:
//! let t = dev.attention_decoder_time(&m, &[(32, 2048)], true);
//! assert!(t.total_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod area;
pub mod attention;
pub mod bitwise;
pub mod controller;
pub mod device;
pub mod gemv_unit;
pub mod isa;
pub mod kv_store;
pub mod mapping;
pub mod numeric;
pub mod placement;
pub mod schedule;
pub mod softmax_unit;
pub mod timing_exec;

pub use area::{AreaReport, ProcessNode};
pub use attention::{AttentionTiming, HeadJob};
pub use controller::{AttAccController, ConfigMemory};
pub use device::{AttAccDevice, AttentionMemo};
pub use gemv_unit::{GemvMode, GemvUnit, Precision};
pub use isa::{AttInst, InstError};
pub use kv_store::{KvHalf, KvStore, KvStoreFull};
pub use mapping::{HeadAllocator, LevelSpec, MappingPolicy, Partitioning};
pub use placement::GemvPlacement;
pub use schedule::{schedule_head, HeadSchedule, ScheduledCommand};
pub use softmax_unit::SoftmaxUnit;
pub use timing_exec::{execute_head, HeadTrace};

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    /// The sweep engine shares device models across worker threads by
    /// reference; every type it touches must be `Send + Sync`.
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn timing_types_are_shareable_across_threads() {
        assert_send_sync::<AttAccDevice>();
        assert_send_sync::<AttentionTiming>();
        assert_send_sync::<AttAccController>();
        assert_send_sync::<GemvPlacement>();
        assert_send_sync::<MappingPolicy>();
        assert_send_sync::<AreaReport>();
    }
}
