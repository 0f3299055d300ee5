//! The evaluated platforms (§7.1).

use attacc_model::ModelConfig;
use attacc_pim::{AttAccDevice, GemvPlacement};
use attacc_xpu::{CpuSystem, GpuSystem, Interconnect};
use std::fmt;

/// Which platform a [`System`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DGX A100 (HBM3) with 640 GB — the paper's baseline.
    DgxBase,
    /// The baseline with 1,280 GB (taller stacks).
    DgxLarge,
    /// DGX (640 GB, weights) + AttAccs (640 GB, KV), §4–§6.
    DgxAttAcc {
        /// Head-level pipelining enabled (§6.1).
        head_level_pipelining: bool,
        /// Feedforward co-processing enabled (§6.2).
        ff_coprocessing: bool,
    },
    /// DGX with attention offloaded to host-CPU memory (§7.6).
    DgxCpu,
    /// Two DGX boxes (§7.6).
    TwoDgx,
}

/// A complete evaluated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    /// Platform variant.
    pub kind: SystemKind,
    /// The GPU subsystem (always present; FC layers run here).
    pub gpu: GpuSystem,
    /// The PIM device, for `DgxAttAcc`.
    pub attacc: Option<AttAccDevice>,
    /// The CPU subsystem, for `DgxCpu`.
    pub cpu: Option<CpuSystem>,
    /// The xPU↔AttAcc (or xPU↔CPU) bridge.
    pub bridge: Interconnect,
}

impl System {
    /// `DGX_Base`: 640 GB, 26.6 TB/s, 2.5 PFLOPS.
    #[must_use]
    pub fn dgx_base() -> System {
        System {
            kind: SystemKind::DgxBase,
            gpu: GpuSystem::dgx_base(),
            attacc: None,
            cpu: None,
            bridge: Interconnect::accelerator_bridge(),
        }
    }

    /// `DGX_Large`: the baseline with 1,280 GB.
    #[must_use]
    pub fn dgx_large() -> System {
        System {
            kind: SystemKind::DgxLarge,
            gpu: GpuSystem::dgx_large(),
            attacc: None,
            cpu: None,
            bridge: Interconnect::accelerator_bridge(),
        }
    }

    /// `DGX+AttAccs` without the §6 optimizations.
    #[must_use]
    pub fn dgx_attacc_naive() -> System {
        System {
            kind: SystemKind::DgxAttAcc {
                head_level_pipelining: false,
                ff_coprocessing: false,
            },
            gpu: GpuSystem::dgx_base(),
            attacc: Some(AttAccDevice::paper_40_stacks(GemvPlacement::Bank)),
            cpu: None,
            bridge: Interconnect::accelerator_bridge(),
        }
    }

    /// `DGX+AttAccs` with head-level pipelining only.
    #[must_use]
    pub fn dgx_attacc_hl_pipe() -> System {
        let mut s = System::dgx_attacc_naive();
        s.kind = SystemKind::DgxAttAcc {
            head_level_pipelining: true,
            ff_coprocessing: false,
        };
        s
    }

    /// `DGX+AttAccs` with both optimizations — the headline configuration.
    #[must_use]
    pub fn dgx_attacc_full() -> System {
        let mut s = System::dgx_attacc_naive();
        s.kind = SystemKind::DgxAttAcc {
            head_level_pipelining: true,
            ff_coprocessing: true,
        };
        s
    }

    /// `DGX+AttAccs` with a chosen GEMV placement (the Fig. 7 design-space
    /// study).
    #[must_use]
    pub fn dgx_attacc_with_placement(placement: GemvPlacement) -> System {
        let mut s = System::dgx_attacc_full();
        s.attacc = Some(AttAccDevice::paper_40_stacks(placement));
        s
    }

    /// `DGX_CPU` (§7.6).
    #[must_use]
    pub fn dgx_cpu() -> System {
        System {
            kind: SystemKind::DgxCpu,
            gpu: GpuSystem::dgx_base(),
            attacc: None,
            cpu: Some(CpuSystem::dgx_host()),
            bridge: Interconnect::pcie_gen5(),
        }
    }

    /// `2×DGX` (§7.6).
    #[must_use]
    pub fn two_dgx() -> System {
        System {
            kind: SystemKind::TwoDgx,
            gpu: GpuSystem::two_dgx(),
            attacc: None,
            cpu: None,
            bridge: Interconnect::accelerator_bridge(),
        }
    }

    /// The four headline systems of Fig. 13 in paper order.
    #[must_use]
    pub fn fig13_systems() -> Vec<System> {
        vec![
            System::dgx_base(),
            System::dgx_large(),
            System::dgx_attacc_naive(),
            System::dgx_attacc_hl_pipe(),
            System::dgx_attacc_full(),
        ]
    }

    /// Display name matching the paper's labels.
    #[must_use]
    pub fn name(&self) -> String {
        match self.kind {
            SystemKind::DgxBase => "DGX_Base".into(),
            SystemKind::DgxLarge => "DGX_Large".into(),
            SystemKind::DgxAttAcc {
                head_level_pipelining,
                ff_coprocessing,
            } => match (head_level_pipelining, ff_coprocessing) {
                (false, false) => "DGX+AttAccs".into(),
                (true, false) => "DGX+AttAccs +HL pipe".into(),
                (true, true) => "DGX+AttAccs +HL pipe +FF co-proc".into(),
                (false, true) => "DGX+AttAccs +FF co-proc".into(),
            },
            SystemKind::DgxCpu => "DGX_CPU".into(),
            SystemKind::TwoDgx => "2xDGX".into(),
        }
    }

    /// Total memory capacity of the platform in bytes (GPU + AttAcc/CPU
    /// pools).
    #[must_use]
    pub fn total_capacity_bytes(&self) -> u64 {
        let mut c = self.gpu.capacity_bytes;
        if let Some(a) = &self.attacc {
            c += a.capacity_bytes();
        }
        if let Some(cpu) = &self.cpu {
            c += cpu.capacity_bytes;
        }
        c
    }

    /// Capacity available for KV caches after the model's weights are
    /// resident (§7.2: e.g. 510 GB on `DGX_Base` vs 1,150 GB on
    /// `DGX+AttAccs` for LLAMA 65B).
    ///
    /// For `DgxCpu`, attention state lives in the large host pool, so KV
    /// capacity is the CPU pool.
    #[must_use]
    pub fn kv_capacity_bytes(&self, model: &ModelConfig) -> u64 {
        if let Some(cpu) = &self.cpu {
            return cpu.capacity_bytes;
        }
        self.total_capacity_bytes().saturating_sub(model.weight_bytes())
    }

    /// `true` when the model's weights fit at all.
    #[must_use]
    pub fn fits_model(&self, model: &ModelConfig) -> bool {
        model.weight_bytes() <= self.gpu.capacity_bytes
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacc_model::GIB;

    #[test]
    fn capacities_match_paper() {
        assert_eq!(System::dgx_base().total_capacity_bytes(), 640 * GIB);
        assert_eq!(System::dgx_large().total_capacity_bytes(), 1280 * GIB);
        assert_eq!(System::dgx_attacc_full().total_capacity_bytes(), 1280 * GIB);
        assert_eq!(System::two_dgx().total_capacity_bytes(), 1280 * GIB);
    }

    #[test]
    fn kv_capacity_examples_from_paper() {
        // §7.2: LLAMA 65B leaves 510 GB on DGX_Base, 1,150 GB on
        // DGX+AttAccs; MT-NLG 530B leaves 146 GB and 786 GB.
        let llama = ModelConfig::llama_65b();
        let mt = ModelConfig::mt_nlg_530b();
        let gb = |b: u64| b as f64 / GIB as f64;
        assert!((gb(System::dgx_base().kv_capacity_bytes(&llama)) - 510.0).abs() < 15.0);
        assert!((gb(System::dgx_attacc_full().kv_capacity_bytes(&llama)) - 1150.0).abs() < 15.0);
        assert!((gb(System::dgx_base().kv_capacity_bytes(&mt)) - 146.0).abs() < 15.0);
        assert!((gb(System::dgx_attacc_full().kv_capacity_bytes(&mt)) - 786.0).abs() < 15.0);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(System::dgx_base().name(), "DGX_Base");
        assert_eq!(
            System::dgx_attacc_full().name(),
            "DGX+AttAccs +HL pipe +FF co-proc"
        );
        assert_eq!(System::two_dgx().to_string(), "2xDGX");
    }

    #[test]
    fn mt_nlg_fp16_does_not_fit_base() {
        // §7.1: MT-NLG 530B must be quantized to INT8 to fit DGX_Base.
        use attacc_model::DataType;
        let fp16 = ModelConfig::mt_nlg_530b().with_dtype(DataType::Fp16);
        assert!(!System::dgx_base().fits_model(&fp16));
        assert!(System::dgx_base().fits_model(&ModelConfig::mt_nlg_530b()));
    }

    #[test]
    fn fig13_list_is_ordered() {
        let sys = System::fig13_systems();
        assert_eq!(sys.len(), 5);
        assert_eq!(sys[0].name(), "DGX_Base");
        assert_eq!(sys[4].name(), "DGX+AttAccs +HL pipe +FF co-proc");
    }

    #[test]
    fn dgx_cpu_kv_capacity_is_host_pool() {
        let m = ModelConfig::gpt3_175b();
        let c = System::dgx_cpu();
        assert_eq!(c.kv_capacity_bytes(&m), 4096 * GIB);
    }
}
