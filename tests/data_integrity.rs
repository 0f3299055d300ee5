//! The analytic protection ladder of `integrity_sim`.
//!
//! At any fixed non-zero BER the per-token silent-corruption rate drops
//! strictly at each rung: raw cells → SEC-DED → SEC-DED+ABFT+guards. The
//! first two rungs come from the closed-form word model; the third is an
//! assumption (every residual silent word is detected), with no
//! functional datapath behind it.

use attacc::chaos::{
    simulate_integrity, ChaosConfig, CorruptionSpec, FaultSchedule, FaultSpec, Protection,
    ResiliencePolicy,
};
use attacc::cluster::{ClusterConfig, RouterPolicy};
use attacc::hbm::integrity::{word_error_probs, EccConfig};
use attacc::serving::{ArrivalWorkload, SchedulerConfig, StageCost, StageExecutor};

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

#[test]
fn protection_ladder_strictly_reduces_sdc_at_every_ber() {
    let workload = ArrivalWorkload::poisson(40, 80.0, 64, (4, 16), 1);
    let cluster = ClusterConfig {
        policy: RouterPolicy::JoinShortestQueue,
        ..ClusterConfig::pass_through(SchedulerConfig::unlimited(8))
    };
    let cfg = ChaosConfig { cluster, policy: ResiliencePolicy::retrying(), seed: 7 };
    let faults = FaultSchedule::generate(2, 0.5, &FaultSpec::crashes_only(4.0, 0.2), 42);
    let nodes: Vec<&dyn StageExecutor> = vec![&Toy, &Toy];
    for ber in [1e-9, 1e-8, 1e-7] {
        let rates: Vec<f64> = Protection::ladder()
            .into_iter()
            .map(|protection| {
                let spec =
                    CorruptionSpec { ber, words_per_token: 1 << 20, protection, seed: 11 };
                simulate_integrity(&nodes, &workload, &cfg, &faults, &spec).analytic_sdc_rate
            })
            .collect();
        assert!(
            rates[0] > rates[1] && rates[1] > rates[2],
            "SDC ladder not strictly decreasing at BER {ber:e}: {rates:?}"
        );
        // The analytic rates come straight from the closed-form word
        // model; cross-check the ECC rung against it.
        let token = word_error_probs(ber, 128, Some(&EccConfig::hbm3())).over_words(1 << 20);
        assert!((rates[1] - token.silent).abs() <= 1e-15 * token.silent.max(1e-300));
    }
}
