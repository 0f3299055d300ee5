//! Component-level energy decomposition of a Gen iteration.
//!
//! The executors report a single joule figure per stage; this module
//! decomposes it from first principles — weight reads, KV streams,
//! activation movement, arithmetic, static power, bridge links — so the
//! Fig. 15 energy story can be *explained*, not just totalled. A
//! consistency test pins the decomposition against the executor's figure.

use crate::{SystemExecutor, SystemKind};
use attacc_model::{OpClass, StageWorkload};

/// Joules of one Gen iteration, by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Reading FC weights from DRAM.
    pub weights_j: f64,
    /// Streaming request-private KV matrices (on the GPU's DRAM or
    /// through the PIM units, whichever the platform uses).
    pub kv_j: f64,
    /// Activation movement (inputs/outputs of every layer).
    pub activations_j: f64,
    /// Arithmetic (xPU FLOPs plus PIM MAC/softmax).
    pub compute_j: f64,
    /// Static (idle) power over the iteration.
    pub static_j: f64,
    /// xPU↔AttAcc (or CPU) bridge transfers.
    pub link_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.weights_j
            + self.kv_j
            + self.activations_j
            + self.compute_j
            + self.static_j
            + self.link_j
    }
}

/// Decomposes the energy of one Gen iteration over `(count, context)`
/// groups on `exec`'s platform.
#[must_use]
pub fn energy_breakdown(exec: &SystemExecutor, groups: &[(u64, u64)]) -> EnergyBreakdown {
    let groups: Vec<(u64, u64)> = groups.iter().copied().filter(|&(n, _)| n > 0).collect();
    if groups.is_empty() {
        return EnergyBreakdown::default();
    }
    let model = exec.model();
    let system = exec.system();
    let wl = StageWorkload::gen_with_contexts(model, &groups);
    let gpu = &system.gpu;
    let detail = exec.gen_stage_detail(&groups);
    let elapsed = detail.total_s;

    let mut out = EnergyBreakdown {
        static_j: gpu.energy.static_w * elapsed,
        ..EnergyBreakdown::default()
    };

    let dram_j = |bytes: f64| gpu.energy.dram_pj_per_bit * 1e-12 * bytes * 8.0;
    let is_pim = matches!(system.kind, SystemKind::DgxAttAcc { .. });

    for (op, n) in wl.iter_unique_ops() {
        let reps = n as f64;
        let t = op.traffic();
        let flops = op.flops() as f64 * reps;
        match op.class() {
            OpClass::Attention => {
                // PIM platforms charge attention through the device model
                // below; GPU and CPU offload both stream KV through DRAM
                // at the same per-bit cost.
                if !is_pim {
                    out.kv_j += dram_j(t.kv_bytes as f64 * reps);
                    out.activations_j += dram_j(t.act_bytes as f64 * reps);
                    out.compute_j += gpu.energy.pj_per_flop * 1e-12 * flops;
                }
            }
            _ => {
                out.weights_j += dram_j(t.weight_bytes as f64 * reps);
                out.activations_j += dram_j(t.act_bytes as f64 * reps);
                out.kv_j += dram_j(t.kv_bytes as f64 * reps);
                out.compute_j += gpu.energy.pj_per_flop * 1e-12 * flops;
            }
        }
    }

    if let Some(attacc) = &system.attacc {
        let attn = attacc.attention_decoder_time(model, &groups, true);
        out.kv_j += attn.energy_j * f64::from(model.n_decoder);
        out.static_j += 100.0 * elapsed; // AttAcc board idle power
        // Bridge transfers: Q/K/V in, outputs back, per decoder.
        let rows: u64 = groups.iter().map(|g| g.0).sum();
        let kv_width = u64::from(model.kv_heads()) * model.d_head;
        let bridge_bytes = rows
            * (2 * model.d_emb + 2 * kv_width)
            * model.dtype.bytes()
            * u64::from(model.n_decoder);
        out.link_j += gpu.energy.link_j(bridge_bytes as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;
    use attacc_model::ModelConfig;
    use attacc_serving::StageExecutor;

    fn breakdown(system: System, groups: &[(u64, u64)]) -> (EnergyBreakdown, f64) {
        let m = ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(system, &m);
        let b = energy_breakdown(&exec, groups);
        let reported = exec.gen_stage(groups).energy_j;
        (b, reported)
    }

    #[test]
    fn decomposition_matches_executor_on_base() {
        let (b, reported) = breakdown(System::dgx_base(), &[(32, 3072)]);
        let err = (b.total_j() - reported).abs() / reported;
        assert!(err < 0.10, "parts {} vs reported {reported}", b.total_j());
    }

    #[test]
    fn decomposition_matches_executor_on_pim() {
        let (b, reported) = breakdown(System::dgx_attacc_full(), &[(32, 3072)]);
        let err = (b.total_j() - reported).abs() / reported;
        assert!(err < 0.15, "parts {} vs reported {reported}", b.total_j());
    }

    #[test]
    fn kv_dominates_dynamic_energy_at_long_context() {
        // Fig. 15's mechanism: at long contexts and real batch sizes the
        // KV stream is the top *dynamic* consumer on the baseline (static
        // idle power scales with the very latency the KV stream causes).
        let (b, _) = breakdown(System::dgx_base(), &[(64, 3072)]);
        assert!(b.kv_j > b.weights_j, "kv {} vs weights {}", b.kv_j, b.weights_j);
        assert!(b.kv_j > b.activations_j && b.kv_j > b.compute_j && b.kv_j > b.link_j);
    }

    #[test]
    fn pim_shrinks_the_kv_component() {
        let (base, _) = breakdown(System::dgx_base(), &[(32, 3072)]);
        let (pim, _) = breakdown(System::dgx_attacc_full(), &[(32, 3072)]);
        assert!(
            pim.kv_j < 0.35 * base.kv_j,
            "pim kv {} vs base kv {}",
            pim.kv_j,
            base.kv_j
        );
        // Weight-read energy is identical: same FC work on the same GPU.
        assert!((pim.weights_j - base.weights_j).abs() / base.weights_j < 0.01);
    }

    #[test]
    fn empty_groups_are_zero() {
        let m = ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(System::dgx_base(), &m);
        assert_eq!(energy_breakdown(&exec, &[]).total_j(), 0.0);
    }
}
