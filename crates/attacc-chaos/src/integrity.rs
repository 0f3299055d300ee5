//! Serving-level data integrity: memory corruption folded into the
//! chaos run's request outcomes.
//!
//! The HBM layer ([`attacc_hbm::integrity`]) models *word*-level error
//! physics (BER, SEC-DED outcomes). This module lifts it to *token*
//! granularity, where dataflow repair (ABFT, guards) enters as an
//! assumption, not a model: [`Protection::EccAbftGuards`] counts every
//! word SEC-DED leaves silent as detected. Each generated token streams
//! `words_per_token` protected words, and the per-word outcome
//! probabilities compose analytically into a per-token fate — clean,
//! corrected, detected, or silent. Sampled fates
//! then reshape the chaos run's per-request outcomes without re-running
//! the event loop:
//!
//! * **silent** words, below the third rung, become *silent data
//!   corruption* (SDC): the token is delivered wrong, and the whole
//!   request stops counting toward goodput.
//! * **detected** words (DUE) are recoverable: with a retry budget the
//!   token is regenerated (recompute tokens), otherwise it is dropped.
//! * **corrected** words cost nothing beyond the ECC overhead already
//!   charged by the HBM command engine.
//!
//! The fate sampler is a pure function of `(seed, request id, token
//! index)` — the same determinism contract as the rest of the stack.

use crate::report::ChaosReport;
use crate::sim::{simulate_chaos, ChaosConfig};
use crate::FaultSchedule;
use attacc_hbm::integrity::{splitmix64, word_error_probs, EccConfig, WordErrorProbs};
use attacc_serving::{ArrivalWorkload, StageExecutor};
use attacc_sim::Table;

/// The protection ladder the integrity sweep walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Raw cells: any flipped word is delivered silently corrupt.
    Unprotected,
    /// On-die SEC-DED only: single flips corrected, even multi-flips
    /// detected (DUE), odd ≥ 3 flips miscorrected into silent errors.
    EccOnly,
    /// SEC-DED plus ABFT checksums and numeric guards, assumed to catch
    /// everything ECC miscorrects: every residual silent error becomes a
    /// localized recompute, so the rung's analytic SDC rate is 0 by
    /// construction. No functional datapath checks that assumption.
    EccAbftGuards,
}

impl Protection {
    /// The three rungs in increasing-protection order.
    #[must_use]
    pub const fn ladder() -> [Protection; 3] {
        [Protection::Unprotected, Protection::EccOnly, Protection::EccAbftGuards]
    }

    /// Stable name used in tables and sweep cells.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protection::Unprotected => "none",
            Protection::EccOnly => "ecc",
            Protection::EccAbftGuards => "ecc+abft+guards",
        }
    }

    /// The ECC code protecting stored words, if any.
    #[must_use]
    pub fn ecc(self) -> Option<EccConfig> {
        match self {
            Protection::Unprotected => None,
            Protection::EccOnly | Protection::EccAbftGuards => Some(EccConfig::hbm3()),
        }
    }

    /// Whether the ABFT + guard rung is armed: a flag under which every
    /// residual silent error counts as detected and recomputed.
    #[must_use]
    pub fn abft(self) -> bool {
        matches!(self, Protection::EccAbftGuards)
    }
}

/// How corruption pressure is applied to a chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionSpec {
    /// Raw bit error rate per stored bit per read.
    pub ber: f64,
    /// 128-bit data words each generated token streams through the
    /// attention path (KV bytes touched per token / 16).
    pub words_per_token: u64,
    /// Which mitigations are armed.
    pub protection: Protection,
    /// Seed of the token-fate sampler (independent of the chaos seed).
    pub seed: u64,
}

impl CorruptionSpec {
    /// A clean channel: BER zero, nothing armed. The zero-BER
    /// equivalence anchor — the report's chaos section is byte-identical
    /// to the plain chaos run.
    #[must_use]
    pub fn clean() -> CorruptionSpec {
        CorruptionSpec {
            ber: 0.0,
            words_per_token: 0,
            protection: Protection::Unprotected,
            seed: 0,
        }
    }
}

/// Outcome of a chaos run under memory corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityReport {
    /// Protection rung name.
    pub protection: String,
    /// Raw bit error rate.
    pub ber: f64,
    /// Words streamed per token.
    pub words_per_token: u64,
    /// The underlying chaos report (byte-identical to the plain run —
    /// corruption reshapes the accounting below, not the event loop).
    pub chaos: ChaosReport,
    /// Analytic per-word outcome probabilities.
    pub word_probs: WordErrorProbs,
    /// Analytic per-token outcome probabilities
    /// ([`WordErrorProbs::over_words`] of `word_probs`).
    pub token_probs: WordErrorProbs,
    /// Output tokens of completed requests.
    pub tokens_total: u64,
    /// Tokens whose words were all clean or ECC-corrected.
    pub corrected_tokens: u64,
    /// Tokens that hit a detected-uncorrectable (DUE) word.
    pub detected_tokens: u64,
    /// Detected tokens regenerated (retry budget, or ABFT-localized
    /// xPU recompute).
    pub recomputed_tokens: u64,
    /// Detected tokens with no recovery budget — dropped from goodput.
    pub dropped_tokens: u64,
    /// Tokens delivered silently corrupt.
    pub sdc_tokens: u64,
    /// Completed requests carrying at least one silently corrupt token.
    pub corrupted_requests: u64,
    /// Analytic per-token SDC probability after all armed mitigations.
    pub analytic_sdc_rate: f64,
    /// Analytic per-token DUE probability.
    pub analytic_due_rate: f64,
    /// Output tokens of in-SLO, uncorrupted requests (minus dropped
    /// tokens) per second of makespan.
    pub goodput_under_corruption_tokens_per_s: f64,
}

impl IntegrityReport {
    /// The integrity summary as a two-column table.
    #[must_use]
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            format!("Integrity summary (protection {}, BER {:.1e})", self.protection, self.ber),
            &["quantity", "value"],
        );
        t.push_row(vec!["protection".into(), self.protection.clone()]);
        t.push_row(vec!["bit error rate".into(), format!("{:.3e}", self.ber)]);
        t.push_row(vec!["words per token".into(), self.words_per_token.to_string()]);
        t.push_row(vec!["tokens".into(), self.tokens_total.to_string()]);
        t.push_row(vec!["corrected tokens".into(), self.corrected_tokens.to_string()]);
        t.push_row(vec![
            "detected (DUE) tokens".into(),
            format!("{} ({} recomputed, {} dropped)", self.detected_tokens, self.recomputed_tokens, self.dropped_tokens),
        ]);
        t.push_row(vec!["silent (SDC) tokens".into(), self.sdc_tokens.to_string()]);
        t.push_row(vec!["corrupted requests".into(), self.corrupted_requests.to_string()]);
        t.push_row(vec!["analytic SDC rate / token".into(), format!("{:.3e}", self.analytic_sdc_rate)]);
        t.push_row(vec!["analytic DUE rate / token".into(), format!("{:.3e}", self.analytic_due_rate)]);
        t.push_row(vec![
            "goodput under corruption (tokens/s)".into(),
            Table::num(self.goodput_under_corruption_tokens_per_s),
        ]);
        t
    }
}

/// Per-token fate under the armed protections.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TokenFate {
    Clean,
    Corrected,
    Detected,
    Silent,
}

/// Samples one token's fate from the per-token outcome distribution —
/// a pure function of `(seed, request, token)`.
fn token_fate(probs: &WordErrorProbs, seed: u64, request: u64, token: u64) -> TokenFate {
    let mixed = splitmix64(
        seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ token.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    let u = (mixed >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
    // Priority order mirrors `WordErrorProbs::over_words`: a silent word
    // corrupts the token no matter what else happened, then DUE, then
    // corrected.
    if u < probs.silent {
        TokenFate::Silent
    } else if u < probs.silent + probs.detected {
        TokenFate::Detected
    } else if u < probs.silent + probs.detected + probs.corrected {
        TokenFate::Corrected
    } else {
        TokenFate::Clean
    }
}

/// Runs [`simulate_chaos`] and folds `spec`'s corruption pressure into
/// the per-request outcomes.
///
/// Determinism contract: a pure function of its arguments — byte-identical
/// at any thread count, cold or warm timing cache. With
/// [`CorruptionSpec::clean`] the embedded [`ChaosReport`] *is* the plain
/// chaos run (same bytes) and every corruption counter is zero.
///
/// # Panics
/// Panics if `nodes` is empty (via [`simulate_chaos`]).
#[must_use]
pub fn simulate_integrity(
    nodes: &[&dyn StageExecutor],
    workload: &ArrivalWorkload,
    cfg: &ChaosConfig,
    faults: &FaultSchedule,
    spec: &CorruptionSpec,
) -> IntegrityReport {
    let chaos = simulate_chaos(nodes, workload, cfg, faults);
    let ecc = spec.protection.ecc();
    let data_bits = ecc.as_ref().map_or(128, |e| e.data_bits);
    let word_probs = word_error_probs(spec.ber, data_bits, ecc.as_ref());
    let token_probs = word_probs.over_words(spec.words_per_token);

    // ABFT + guards convert residual silent errors into detected ones
    // that the xPU recomputes locally (no retry budget needed); ECC DUEs
    // need the serving layer's retry budget to regenerate the token.
    let abft = spec.protection.abft();
    let can_retry = cfg.policy.retry.max_retries > 0;

    let mut tokens_total = 0u64;
    let mut corrected_tokens = 0u64;
    let mut detected_tokens = 0u64;
    let mut recomputed_tokens = 0u64;
    let mut dropped_tokens = 0u64;
    let mut sdc_tokens = 0u64;
    let mut corrupted_requests = 0u64;
    let mut goodput_tokens = 0u64;
    for outcome in &chaos.request_outcomes {
        tokens_total += outcome.l_out;
        let mut req_sdc = 0u64;
        let mut req_dropped = 0u64;
        for t in 0..outcome.l_out {
            match token_fate(&token_probs, spec.seed, outcome.id, t) {
                TokenFate::Clean => {}
                TokenFate::Corrected => corrected_tokens += 1,
                TokenFate::Detected => {
                    detected_tokens += 1;
                    if can_retry || abft {
                        recomputed_tokens += 1;
                    } else {
                        dropped_tokens += 1;
                        req_dropped += 1;
                    }
                }
                TokenFate::Silent => {
                    if abft {
                        // Caught by the checksum residual or the numeric
                        // guard; recomputed on the xPU.
                        detected_tokens += 1;
                        recomputed_tokens += 1;
                    } else {
                        sdc_tokens += 1;
                        req_sdc += 1;
                    }
                }
            }
        }
        if req_sdc > 0 {
            corrupted_requests += 1;
        } else if outcome.in_slo {
            goodput_tokens += outcome.l_out - req_dropped;
        }
    }

    let makespan = chaos.cluster.makespan_s;
    IntegrityReport {
        protection: spec.protection.name().to_string(),
        ber: spec.ber,
        words_per_token: spec.words_per_token,
        word_probs,
        token_probs,
        tokens_total,
        corrected_tokens,
        detected_tokens,
        recomputed_tokens,
        dropped_tokens,
        sdc_tokens,
        corrupted_requests,
        analytic_sdc_rate: if abft { 0.0 } else { token_probs.silent },
        analytic_due_rate: token_probs.detected + if abft { token_probs.silent } else { 0.0 },
        goodput_under_corruption_tokens_per_s: if makespan > 0.0 {
            goodput_tokens as f64 / makespan
        } else {
            0.0
        },
        chaos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSpec, ResiliencePolicy};
    use attacc_cluster::{ClusterConfig, RouterPolicy};
    use attacc_serving::{SchedulerConfig, StageCost};

    struct Toy;
    impl StageExecutor for Toy {
        fn sum_stage(&self, b: u64, l: u64) -> StageCost {
            StageCost { latency_s: 1e-6 * (b * l) as f64, energy_j: 0.0 }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost { latency_s: 1e-4 * n as f64, energy_j: 0.0 }
        }
    }

    fn setup() -> (ArrivalWorkload, ChaosConfig, FaultSchedule) {
        let workload = ArrivalWorkload::poisson(60, 80.0, 64, (4, 16), 1);
        let cluster = ClusterConfig {
            policy: RouterPolicy::JoinShortestQueue,
            ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
        };
        let cfg = ChaosConfig { cluster, policy: ResiliencePolicy::retrying(), seed: 7 };
        let faults = FaultSchedule::generate(2, 5.0, &FaultSpec::crashes_only(4.0, 0.5), 42);
        (workload, cfg, faults)
    }

    #[test]
    fn clean_spec_matches_plain_chaos_run() {
        let (workload, cfg, faults) = setup();
        let nodes: Vec<&dyn StageExecutor> = vec![&Toy, &Toy];
        let plain = simulate_chaos(&nodes, &workload, &cfg, &faults);
        let r = simulate_integrity(&nodes, &workload, &cfg, &faults, &CorruptionSpec::clean());
        assert_eq!(r.chaos, plain);
        assert_eq!(r.sdc_tokens + r.detected_tokens + r.corrected_tokens, 0);
        assert_eq!(r.corrupted_requests, 0);
        // Every in-SLO request's tokens survive: goodput equals the
        // chaos run's goodput-under-failure.
        assert!(
            (r.goodput_under_corruption_tokens_per_s
                - plain.goodput_under_failure_tokens_per_s)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn ladder_strictly_reduces_sdc() {
        let (workload, cfg, faults) = setup();
        let nodes: Vec<&dyn StageExecutor> = vec![&Toy, &Toy];
        let mut rates = Vec::new();
        let mut sampled = Vec::new();
        for protection in Protection::ladder() {
            let spec = CorruptionSpec {
                ber: 1e-6,
                words_per_token: 1 << 16,
                protection,
                seed: 11,
            };
            let r = simulate_integrity(&nodes, &workload, &cfg, &faults, &spec);
            rates.push(r.analytic_sdc_rate);
            sampled.push(r.sdc_tokens);
        }
        assert!(rates[0] > rates[1], "ECC must cut the SDC rate: {rates:?}");
        assert!(rates[1] > rates[2], "ABFT must cut it further: {rates:?}");
        assert!(sampled[0] >= sampled[1] && sampled[2] == 0, "sampled: {sampled:?}");
    }

    #[test]
    fn reports_are_deterministic() {
        let (workload, cfg, faults) = setup();
        let nodes: Vec<&dyn StageExecutor> = vec![&Toy, &Toy];
        let spec = CorruptionSpec {
            ber: 1e-7,
            words_per_token: 1 << 16,
            protection: Protection::EccOnly,
            seed: 3,
        };
        let a = simulate_integrity(&nodes, &workload, &cfg, &faults, &spec);
        let b = simulate_integrity(&nodes, &workload, &cfg, &faults, &spec);
        assert_eq!(a, b);
        assert!(a.summary_table().to_string().contains("SDC"));
    }

    #[test]
    fn dropped_tokens_require_no_retry_budget() {
        let (workload, mut cfg, faults) = setup();
        cfg.policy = ResiliencePolicy::off();
        let nodes: Vec<&dyn StageExecutor> = vec![&Toy, &Toy];
        let spec = CorruptionSpec {
            ber: 1e-5,
            words_per_token: 1 << 16,
            protection: Protection::EccOnly,
            seed: 5,
        };
        let r = simulate_integrity(&nodes, &workload, &cfg, &faults, &spec);
        assert_eq!(r.recomputed_tokens, 0, "no retry budget, ECC-only: DUEs drop");
        assert_eq!(r.dropped_tokens, r.detected_tokens);
    }
}
