//! Data-plane integrity: raw bit errors under on-die SEC-DED ECC
//! (HBM3-style).
//!
//! AttAcc consumes cell reads *inside* the stack, so a flipped bit never
//! crosses a link-level CRC — it flows straight into a MAC lane. This
//! module supplies the device-level half of the integrity story:
//!
//! * [`EccConfig`] — an on-die SEC-DED code (the HBM3 default is the
//!   (136, 128) code: 128 data bits + 8 check bits). It classifies a
//!   word's flip count into [`EccOutcome`]s, inflates streamed bytes by
//!   its [`EccConfig::overhead_factor`] so the *existing* command engine
//!   charges the timing cost of moving check bits, and derives a
//!   protected [`EnergyModel`] via
//!   [`EnergyModel::with_ecc`](crate::energy::EnergyModel::with_ecc).
//! * [`word_error_probs`] — the exact binomial probability of each
//!   outcome per word at a raw bit error rate, and
//!   [`WordErrorProbs::over_words`], which lifts it to a many-word read
//!   (e.g. all KV words behind one generated token). The serving-layer
//!   sweeps use these analytic rates, not sampled flips, so that
//!   vanishingly rare events (an SDC under ECC) still produce exact,
//!   strictly ordered figures instead of sampled zeros.

use crate::energy::EnergyModel;
use crate::engine::StreamSpec;
use crate::geometry::StackGeometry;

/// SplitMix64 — the same generator `attacc-cluster` uses (duplicated here
/// because the dependency arrow points the other way: the cluster crates
/// sit *above* the device layer).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the on-die decoder concluded about one word read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// No flips: the word is delivered as stored.
    Clean,
    /// Exactly one flip: corrected in-line, correct data delivered.
    Corrected,
    /// An even flip count ≥ 2: detected but uncorrectable (DUE). The
    /// consumer sees a poisoned word and must recompute or drop.
    Detected,
    /// An odd flip count ≥ 3: the SEC-DED syndrome looks like a single
    /// correctable error, the decoder "corrects" the wrong bit, and
    /// corrupt data is delivered silently (SDC).
    Silent,
}

/// An on-die SEC-DED code: `data_bits` of payload carry `check_bits` of
/// redundancy per code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EccConfig {
    /// Payload bits per code word.
    pub data_bits: u32,
    /// Check bits per code word.
    pub check_bits: u32,
}

impl EccConfig {
    /// The HBM3 on-die code: (136, 128) SEC-DED.
    #[must_use]
    pub const fn hbm3() -> EccConfig {
        EccConfig { data_bits: 128, check_bits: 8 }
    }

    /// Total stored bits per code word.
    #[must_use]
    pub const fn word_bits(&self) -> u32 {
        self.data_bits + self.check_bits
    }

    /// Fraction of stored bits that are payload (128/136 ≈ 0.941 for the
    /// HBM3 code).
    #[must_use]
    pub fn code_rate(&self) -> f64 {
        f64::from(self.data_bits) / f64::from(self.word_bits())
    }

    /// Stored-bit inflation over the raw payload (136/128 = 1.0625 for
    /// the HBM3 code) — the factor by which protected streams grow.
    #[must_use]
    pub fn overhead_factor(&self) -> f64 {
        f64::from(self.word_bits()) / f64::from(self.data_bits)
    }

    /// Stored bytes needed to hold `payload_bytes` of protected payload
    /// (rounded up to whole bytes).
    #[must_use]
    pub fn protected_bytes(&self, payload_bytes: u64) -> u64 {
        let num = payload_bytes
            .checked_mul(u64::from(self.word_bits()))
            .expect("protected payload size overflows u64");
        num.div_ceil(u64::from(self.data_bits))
    }

    /// A [`StreamSpec`] that moves `payload_bytes` of *protected* data:
    /// the existing command engine then charges the extra activates,
    /// column commands and energy of the check bits with no special
    /// cases.
    #[must_use]
    pub fn protected_stream(
        &self,
        geom: &StackGeometry,
        payload_bytes: u64,
        max_active: u32,
    ) -> StreamSpec {
        StreamSpec::uniform(geom, self.protected_bytes(payload_bytes), max_active)
    }

    /// Classifies a raw flip count over one stored code word.
    #[must_use]
    pub fn decode(&self, flips: u32) -> EccOutcome {
        match flips {
            0 => EccOutcome::Clean,
            1 => EccOutcome::Corrected,
            f if f % 2 == 0 => EccOutcome::Detected,
            _ => EccOutcome::Silent,
        }
    }
}

/// Per-bit decode energy of the SEC-DED logic (pJ/bit). Small next to the
/// 0.29 pJ/bit cell-array charge: the decoder is a thin XOR tree.
pub const ECC_LOGIC_PJ_PER_BIT: f64 = 0.02;

impl EnergyModel {
    /// The energy model of an ECC-protected datapath: every in-stack
    /// segment (activation, array, bank-group bus, TSV) moves
    /// `overhead_factor` more bits per payload bit, and the bank I/O pays
    /// `ecc_logic_pj_per_bit` of decode logic. External I/O is unchanged —
    /// on-die ECC strips check bits before the PHY.
    #[must_use]
    pub fn with_ecc(&self, overhead_factor: f64, ecc_logic_pj_per_bit: f64) -> EnergyModel {
        EnergyModel {
            act_pj_per_bit: self.act_pj_per_bit * overhead_factor,
            array_pj_per_bit: self.array_pj_per_bit * overhead_factor + ecc_logic_pj_per_bit,
            bg_bus_pj_per_bit: self.bg_bus_pj_per_bit * overhead_factor,
            tsv_pj_per_bit: self.tsv_pj_per_bit * overhead_factor,
            io_pj_per_bit: self.io_pj_per_bit,
            mac_pj_per_bit: self.mac_pj_per_bit,
        }
    }
}

impl EccConfig {
    /// [`EnergyModel::with_ecc`] with this code's overhead and the stock
    /// decoder charge.
    #[must_use]
    pub fn energy_model(&self, base: &EnergyModel) -> EnergyModel {
        base.with_ecc(self.overhead_factor(), ECC_LOGIC_PJ_PER_BIT)
    }
}

/// Exact per-word outcome probabilities under a raw bit error rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordErrorProbs {
    /// P(word delivered clean, no event).
    pub clean: f64,
    /// P(corrected single-bit error).
    pub corrected: f64,
    /// P(detected-uncorrectable error).
    pub detected: f64,
    /// P(silent data corruption).
    pub silent: f64,
}

impl WordErrorProbs {
    /// Lifts per-word probabilities to a read of `words` independent
    /// words, classified by the worst event observed (silent > detected >
    /// corrected > clean).
    #[must_use]
    pub fn over_words(&self, words: u64) -> WordErrorProbs {
        let w = words as f64;
        // P(no event of severity ≥ X across all words) via exp/ln_1p so
        // astronomically small per-word probabilities stay exact.
        let none_ge = |p: f64| -> f64 {
            if p <= 0.0 {
                1.0
            } else if p >= 1.0 {
                0.0
            } else {
                (w * (-p).ln_1p()).exp()
            }
        };
        let no_silent = none_ge(self.silent);
        let no_det = none_ge(self.silent + self.detected);
        let no_corr = none_ge(self.silent + self.detected + self.corrected);
        WordErrorProbs {
            clean: no_corr,
            corrected: no_det - no_corr,
            detected: no_silent - no_det,
            silent: 1.0 - no_silent,
        }
    }
}

/// Exact binomial outcome probabilities for one word read at raw bit
/// error rate `ber`. With `ecc = None` the word is unprotected `data_bits`
/// wide and *any* flip is silent; with a code, the stored word is
/// `word_bits` wide and flips classify per [`EccConfig::decode`].
#[must_use]
pub fn word_error_probs(ber: f64, data_bits: u32, ecc: Option<&EccConfig>) -> WordErrorProbs {
    let bits = ecc.map_or(data_bits, EccConfig::word_bits);
    let mut probs =
        WordErrorProbs { clean: 0.0, corrected: 0.0, detected: 0.0, silent: 0.0 };
    if ber <= 0.0 || bits == 0 {
        probs.clean = 1.0;
        return probs;
    }
    let p = ber.min(1.0);
    let n = f64::from(bits);
    // pmf(k) by the ratio recurrence; terms vanish fast for tiny p.
    let mut pmf = (1.0 - p).powf(n);
    for k in 0..=bits {
        let outcome = match ecc {
            Some(code) => code.decode(k),
            None => {
                if k == 0 {
                    EccOutcome::Clean
                } else {
                    EccOutcome::Silent
                }
            }
        };
        match outcome {
            EccOutcome::Clean => probs.clean += pmf,
            EccOutcome::Corrected => probs.corrected += pmf,
            EccOutcome::Detected => probs.detected += pmf,
            EccOutcome::Silent => probs.silent += pmf,
        }
        if k < bits {
            if p >= 1.0 {
                pmf = if k + 1 == bits { 1.0 } else { 0.0 };
            } else {
                pmf *= (n - f64::from(k)) / f64::from(k + 1) * (p / (1.0 - p));
            }
            if pmf == 0.0 && k > 0 {
                break;
            }
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_stream;
    use crate::HbmConfig;

    #[test]
    fn sec_ded_classification() {
        let e = EccConfig::hbm3();
        assert_eq!(e.decode(0), EccOutcome::Clean);
        assert_eq!(e.decode(1), EccOutcome::Corrected);
        assert_eq!(e.decode(2), EccOutcome::Detected);
        assert_eq!(e.decode(3), EccOutcome::Silent);
        assert_eq!(e.decode(4), EccOutcome::Detected);
        assert_eq!(e.decode(5), EccOutcome::Silent);
    }

    #[test]
    fn hbm3_code_rate_and_overhead() {
        let e = EccConfig::hbm3();
        assert_eq!(e.word_bits(), 136);
        assert!((e.code_rate() - 128.0 / 136.0).abs() < 1e-12);
        assert!((e.overhead_factor() - 1.0625).abs() < 1e-12);
        assert_eq!(e.protected_bytes(128), 136);
        assert_eq!(e.protected_bytes(0), 0);
        // Rounds up to whole bytes.
        assert_eq!(e.protected_bytes(1), 2);
    }

    #[test]
    fn word_probs_sum_to_one_and_order_sanely() {
        for &ber in &[0.0, 1e-12, 1e-6, 1e-3, 0.1] {
            let p = word_error_probs(ber, 128, Some(&EccConfig::hbm3()));
            let sum = p.clean + p.corrected + p.detected + p.silent;
            assert!((sum - 1.0).abs() < 1e-9, "ber {ber}: sum {sum}");
            if ber > 0.0 && ber <= 1e-3 {
                // In the rare-error regime single-bit events dominate
                // doubles dominate triples (at ber ~ 0.1 the mass moves to
                // high flip counts and the even/odd split washes out).
                assert!(p.corrected > p.detected);
                assert!(p.detected > p.silent);
            }
        }
    }

    #[test]
    fn ecc_slashes_silent_corruption() {
        let ber = 1e-6;
        let unprot = word_error_probs(ber, 128, None);
        let prot = word_error_probs(ber, 128, Some(&EccConfig::hbm3()));
        assert!(prot.silent < unprot.silent * 1e-6, "{} vs {}", prot.silent, unprot.silent);
        assert_eq!(unprot.corrected, 0.0);
        assert_eq!(unprot.detected, 0.0);
    }

    #[test]
    fn over_words_preserves_total_and_priority() {
        let p = word_error_probs(1e-7, 128, Some(&EccConfig::hbm3())).over_words(1_000_000);
        let sum = p.clean + p.corrected + p.detected + p.silent;
        assert!((sum - 1.0).abs() < 1e-9);
        // A million words: corrected events near-certain, silent still rare.
        assert!(p.corrected > 0.9, "corrected {}", p.corrected);
        assert!(p.silent < 1e-6, "silent {}", p.silent);
        // Zero-word reads are clean with certainty.
        let z = p.over_words(0);
        assert_eq!(z.clean, 1.0);
    }

    #[test]
    fn protected_stream_costs_more_time_and_energy() {
        let hbm = HbmConfig::hbm3_8hi();
        let code = EccConfig::hbm3();
        let payload = 1u64 << 20;
        let plain = simulate_stream(
            &hbm,
            &StreamSpec::uniform(&hbm.geometry, payload, hbm.power.max_active_banks),
        );
        let mut protected_cfg = hbm.clone();
        protected_cfg.energy = code.energy_model(&hbm.energy);
        let prot = simulate_stream(
            &protected_cfg,
            &code.protected_stream(&hbm.geometry, payload, hbm.power.max_active_banks),
        );
        assert!(prot.elapsed_ps > plain.elapsed_ps);
        assert!(prot.energy.total_pj() > plain.energy.total_pj());
        // The time overhead is close to the code-rate inflation, never 2×.
        let ratio = prot.elapsed_ps as f64 / plain.elapsed_ps as f64;
        assert!(ratio < 1.15, "time ratio {ratio}");
    }

    #[test]
    fn ecc_energy_model_scales_in_stack_segments_only() {
        let base = EnergyModel::hbm3();
        let prot = EccConfig::hbm3().energy_model(&base);
        assert!(prot.array_pj_per_bit > base.array_pj_per_bit);
        assert!(prot.tsv_pj_per_bit > base.tsv_pj_per_bit);
        assert_eq!(prot.io_pj_per_bit, base.io_pj_per_bit);
        assert_eq!(prot.mac_pj_per_bit, base.mac_pj_per_bit);
    }
}
