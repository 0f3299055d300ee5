//! Transformer-based generative model (TbGM) descriptions and op-level
//! workload generation for the AttAcc simulator.
//!
//! This crate is the shape-level foundation of the reproduction of
//! *AttAcc! Unleashing the Power of PIM for Batched Transformer-based
//! Generative Model Inference* (ASPLOS 2024). It knows nothing about
//! hardware; it answers questions such as:
//!
//! * What operations does one decoder of GPT-3 175B perform during a
//!   generation (Gen) stage with batch size 64 and context length 2,560?
//! * How many FLOPs and how many bytes of weight / activation / KV-cache
//!   traffic does each of those operations incur?
//! * How large are the KV matrices of a request with `l_in + l_out = 4,096`?
//!
//! The answers drive every performance and energy model in the higher
//! layers (`attacc-xpu`, `attacc-pim`, `attacc-sim`).
//!
//! # Example
//!
//! ```
//! use attacc_model::{ModelConfig, Phase, StageWorkload};
//!
//! let gpt3 = ModelConfig::gpt3_175b();
//! assert_eq!(gpt3.n_decoder, 96);
//!
//! // One Gen stage for a batch of 16 requests, all at context length 2048.
//! let wl = StageWorkload::uniform(&gpt3, Phase::gen(2048), 16);
//! // Weight traffic of the whole stage is roughly the model size.
//! let t = wl.traffic();
//! assert!(t.weight_bytes as f64 > 0.9 * gpt3.weight_bytes() as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attention_variant;
mod config;
mod dtype;
mod graph;
mod inventory;
mod kv_cache;
mod ops;
mod request;
mod roofline;

pub use attention_variant::AttentionVariant;
pub use config::{FeedForwardKind, ModelConfig, ModelConfigBuilder, ModelConfigError};
pub use dtype::DataType;
pub use graph::{Phase, StageWorkload};
pub use inventory::ModelSummary;
pub use kv_cache::KvCacheSpec;
pub use ops::{AttnShape, FcLayer, Op, OpClass, Traffic};
pub use request::{Request, RequestState, SequenceStatus};
pub use roofline::RooflinePoint;

/// Number of bytes in one gibibyte (2^30).
///
/// The AttAcc paper reports capacities in "GB" that are numerically GiB
/// (e.g. 18 GB of KV cache for GPT-3 175B at L = 4,096 is
/// 2·96·4096·12288·2 B = 18.0 GiB). All capacity formatting in this
/// workspace follows the paper's convention.
pub const GIB: u64 = 1 << 30;

/// Formats a byte count using the paper's GiB-based "GB" convention.
///
/// # Example
/// ```
/// assert_eq!(attacc_model::fmt_gib(attacc_model::GIB * 3 / 2), "1.50 GB");
/// ```
pub fn fmt_gib(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / GIB as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_gib_rounds_to_two_decimals() {
        assert_eq!(fmt_gib(GIB), "1.00 GB");
        assert_eq!(fmt_gib(0), "0.00 GB");
    }
}
