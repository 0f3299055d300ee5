//! Determinism guarantees of the sweep engine.
//!
//! The whole point of `SweepRunner`'s merge-by-index design is that
//! parallelism is *unobservable*: any thread count produces byte-identical
//! tables, and a warm timing cache produces byte-identical results to a
//! cold one. These tests pin both properties on real figure drivers.

use attacc_sim::engine::{self, TimingCache};
use attacc_sim::sweep::{grid_table, speedup_grid};
use std::sync::{Mutex, PoisonError};

/// Serializes tests that mutate the process-wide thread override or the
/// global timing cache. A test that panics while holding it does not fail
/// the ones after it: they take the lock past the poison, and each sets
/// the thread count it runs at and clears the cache before it reads it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn render_drivers() -> String {
    let model = attacc_model::ModelConfig::gpt3_175b();
    let lens = [128u64, 512, 2048];
    let grid = grid_table("grid", &lens, &speedup_grid(&model, &lens, 500));
    let fig13 = attacc_bench::fig13(1_000);
    let fig04 = attacc_bench::fig04()
        .iter()
        .map(ToString::to_string)
        .collect::<String>();
    format!("{grid}{fig13}{fig04}")
}

#[test]
fn parallel_sweeps_are_byte_identical_to_serial() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(1);
    let serial = render_drivers();
    for threads in [2, 3, 8] {
        engine::set_threads(threads);
        let parallel = render_drivers();
        assert_eq!(
            serial, parallel,
            "sweep output changed between 1 and {threads} threads"
        );
    }
    engine::set_threads(0); // restore env-resolved default
}

#[test]
fn warm_cache_runs_equal_cold_cache_runs() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    engine::set_threads(0);
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let cold = render_drivers();
    let after_cold = cache.stats();
    assert!(
        !cache.is_empty(),
        "figure drivers should populate the timing cache"
    );
    let warm = render_drivers();
    let after_warm = cache.stats();
    assert_eq!(cold, warm, "cache hits changed figure output");
    assert!(
        after_warm.hits > after_cold.hits,
        "second run should hit the cache ({after_cold:?} -> {after_warm:?})"
    );
}
