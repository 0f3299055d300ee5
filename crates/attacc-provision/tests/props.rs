//! Property tests for the provisioning surrogate (ISSUE 9 satellite):
//! determinism across thread counts, monotonicity in offered load, and
//! a pinned training-error bound.

use attacc_cluster::SloSpec;
use attacc_model::ModelConfig;
use attacc_provision::{
    tail_monotone, CostBook, DatasetBuilder, FeatureContext, FleetSpec, Gbt, GbtParams,
    NodeVariant, TrafficSpec,
};
use attacc_sim::engine;
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Serializes tests that mutate the process-wide thread setting. A test
/// that panics while holding it does not fail the ones after it: they
/// take the lock past the poison, and each sets the thread count it runs
/// at.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn traffic(rate: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        users: 16,
        rate_per_s: rate,
        l_in: 64,
        l_out: (8, 16),
        seed,
    }
}

/// A small deterministic pseudo-random stream for synthetic datasets.
fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fit on a synthetic surface twice → bitwise-identical predictions.
    #[test]
    fn surrogate_training_is_deterministic(seed in 1u64..5000, rounds in 10usize..60) {
        let mut st = seed;
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..3).map(|_| lcg(&mut st) * 10.0).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0 + x[1] * x[2] + lcg(&mut st)).collect();
        let params = GbtParams { rounds, ..GbtParams::default() };
        let a = Gbt::fit(&xs, &ys, &params);
        let b = Gbt::fit(&xs, &ys, &params);
        prop_assert_eq!(&a, &b);
        for x in xs.iter().take(8) {
            prop_assert_eq!(a.predict(x).to_bits(), b.predict(x).to_bits());
        }
    }

    /// A `+1`-constrained feature never decreases the prediction, on
    /// arbitrary (even noisy, non-monotone) training data — the
    /// constraint is structural, not statistical.
    #[test]
    fn monotone_constraint_is_structural(seed in 1u64..5000) {
        let mut st = seed;
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![lcg(&mut st) * 8.0, lcg(&mut st) * 4.0])
            .collect();
        // Deliberately non-monotone target: sine + noise.
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * 1.3).sin() * 5.0 + x[1] + lcg(&mut st) * 2.0)
            .collect();
        let params = GbtParams { monotone: vec![1, 0], ..GbtParams::default() };
        let model = Gbt::fit(&xs, &ys, &params);
        for probe in 0..6 {
            let x1 = probe as f64 * 0.7;
            let mut prev = f64::NEG_INFINITY;
            for step in 0..60 {
                let y = model.predict(&[step as f64 * 0.15, x1]);
                prop_assert!(
                    y >= prev - 1e-12,
                    "prediction decreased in the constrained feature: {} < {}",
                    y, prev
                );
                prev = y;
            }
        }
    }

    /// Train→predict error on the training set stays below a pinned
    /// tolerance for smooth surfaces (the regime the provisioning
    /// targets live in).
    #[test]
    fn training_error_is_bounded(scale in 1.0f64..20.0, seed in 1u64..2000) {
        let mut st = seed;
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![lcg(&mut st) * 6.0, lcg(&mut st) * 6.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| scale * (x[0] + 0.5 * x[1] * x[1])).collect();
        let model = Gbt::fit(&xs, &ys, &GbtParams::default());
        let spread = ys.iter().cloned().fold(f64::MIN, f64::max)
            - ys.iter().cloned().fold(f64::MAX, f64::min);
        let mae = model.mae(&xs, &ys);
        // Pinned tolerance: 5% of the target spread.
        prop_assert!(
            mae <= 0.05 * spread,
            "training MAE {} exceeds 5% of spread {}",
            mae, spread
        );
    }
}

/// Dataset → surrogate → predictions, byte-identical at 1, 2 and 8
/// sweep threads: the parallel sweep merges by index and training is
/// serial, so thread count must be invisible.
#[test]
fn surrogate_pipeline_is_thread_invariant() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let model = ModelConfig::gpt3_175b();
    let specs = [
        FleetSpec::homogeneous(NodeVariant::DgxBase, 1),
        FleetSpec::homogeneous(NodeVariant::AttAccBank, 1),
        FleetSpec { counts: [1, 0, 0, 1, 0] },
        FleetSpec { counts: [0, 1, 0, 0, 1] },
    ];
    let traffics = [traffic(2.0, 3), traffic(6.0, 3)];

    let ctx = FeatureContext::new(model.clone(), CostBook::paper_defaults());
    let run = || {
        let mut b = DatasetBuilder::new(model.clone(), SloSpec::chatbot(), CostBook::paper_defaults());
        b.grid(&specs, &traffics);
        let data = b.build();
        let gbt = Gbt::fit(&data.xs, &data.usd_per_mtok, &GbtParams::default());
        let probe = ctx.features(&specs[2], &traffic(4.0, 3));
        (data, gbt.predict(&probe).to_bits())
    };

    engine::set_threads(1);
    let (serial_data, serial_pred) = run();
    for threads in [2, 8] {
        engine::set_threads(threads);
        let (data, pred) = run();
        assert_eq!(serial_data, data, "dataset differs at {threads} threads");
        assert_eq!(serial_pred, pred, "prediction differs at {threads} threads");
    }
    engine::set_threads(0); // restore env-resolved default
}

/// More offered load, same fleet: the monotone-constrained p99.9
/// surrogate must never predict a better tail. Trains on real simulated
/// cells, then checks the constraint on a dense rate sweep.
#[test]
fn tail_surrogate_is_monotone_in_offered_load() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let model = ModelConfig::gpt3_175b();
    let spec = FleetSpec::homogeneous(NodeVariant::AttAccBank, 1);
    let rates = [1.0, 2.0, 4.0, 8.0, 16.0];
    let mut b = DatasetBuilder::new(model.clone(), SloSpec::chatbot(), CostBook::paper_defaults());
    for &r in &rates {
        b.cell(spec, traffic(r, 5));
    }
    let data = b.build();
    let params = GbtParams { monotone: tail_monotone(), ..GbtParams::default() };
    let tail = Gbt::fit(&data.xs, &data.p999, &params);
    let ctx = FeatureContext::new(model.clone(), CostBook::paper_defaults());
    let mut prev = f64::NEG_INFINITY;
    for step in 0..100 {
        let r = 0.5 + step as f64 * 0.2;
        let y = tail.predict(&ctx.features(&spec, &traffic(r, 5)));
        assert!(
            y >= prev - 1e-12,
            "predicted p99.9 improved under more load: {y} < {prev} at rate {r}"
        );
        prev = y;
    }
}
