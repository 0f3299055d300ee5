//! Conventional-platform (xPU) models for the AttAcc simulator.
//!
//! The paper's GPU baseline is a roofline machine: the DGX A100 with its
//! memory replaced by HBM3 (2.5 PFLOPS FP16, 26.8 TB/s, 640 GB for
//! `DGX_Base`). This crate models:
//!
//! * [`ComputeDevice`] — a roofline device executing [`attacc_model::Op`]s,
//! * [`GpuSystem`] — DGX-class systems (`DGX_Base`, `DGX_Large`, `2×DGX`),
//! * [`CpuSystem`] — the `DGX_CPU` alternative that runs attention on CPU
//!   memory (§7.6),
//! * [`Interconnect`] — NVLink/PCIe-class links and all-reduce costs,
//! * [`XpuEnergyModel`] — compute, DRAM and link energy constants.
//!
//! # Example
//!
//! ```
//! use attacc_xpu::GpuSystem;
//! use attacc_model::{ModelConfig, Phase, StageWorkload};
//!
//! let dgx = GpuSystem::dgx_base();
//! let m = ModelConfig::gpt3_175b();
//! let wl = StageWorkload::uniform(&m, Phase::gen(2048), 1);
//! let t = dgx.stage_time(&wl);
//! // A batch-1 Gen stage is dominated by reading the 326 GB of weights.
//! assert!(t.total_s > 0.010 && t.total_s < 0.030);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod energy;
pub mod gpu;
pub mod interconnect;
pub mod roofline;

pub use cpu::CpuSystem;
pub use energy::XpuEnergyModel;
pub use gpu::{GpuSystem, StageTime};
pub use interconnect::Interconnect;
pub use roofline::ComputeDevice;
