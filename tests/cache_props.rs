//! Property tests for the memoized timing cache.
//!
//! The cache must be *transparent*: for any query, the cached path
//! returns exactly (bitwise) what a fresh recompute returns, and clearing
//! the cache between queries never changes any result. Empty stages
//! (no groups, zero-count groups, batch 0) are free on both paths.

use attacc_pim::GemvPlacement;
use attacc_sim::engine::TimingCache;
use attacc_sim::exec::StageBreakdown;
use attacc_sim::{System, SystemExecutor};
use attacc_serving::StageExecutor;
use proptest::prelude::*;
use std::sync::{Barrier, Mutex, PoisonError};
use std::thread;

/// Serializes tests that clear the process-wide cache. A test that panics
/// while holding it does not fail the ones after it: they take the lock
/// past the poison, and each reads the miss counter only after its own
/// `clear()` or `reset_stats()`, or as a difference across its own calls.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn systems() -> Vec<System> {
    vec![System::dgx_base(), System::dgx_attacc_full(), System::dgx_cpu()]
}

/// The systems whose attention runs on an xPU (GPUs or host CPUs), whose
/// Gen stage is cached whole, keyed by `(Σ count, Σ count · context)`.
fn xpu_systems() -> Vec<System> {
    vec![System::dgx_base(), System::dgx_large(), System::two_dgx(), System::dgx_cpu()]
}

/// The `DGX+AttAccs` variants, whose Gen stage is cached as rows-keyed
/// parts plus a per-group attention term.
fn attacc_systems() -> Vec<System> {
    vec![System::dgx_attacc_naive(), System::dgx_attacc_hl_pipe(), System::dgx_attacc_full()]
}

/// `rows` requests spread as evenly as possible over `contexts`.
fn spread(rows: u64, contexts: &[u64]) -> Vec<(u64, u64)> {
    let k = contexts.len() as u64;
    contexts
        .iter()
        .zip(0..)
        .map(|(&l, i)| (rows / k + u64::from(i < rows % k), l))
        .collect()
}

/// `groups` regrouped with the same rows and `Σ count · context`. Mode 0
/// splits the first group in two (when it holds two requests or more);
/// otherwise every request becomes its own group and `shift` context
/// tokens move from the first request to the last.
fn regroup(groups: &[(u64, u64)], mode: u8, shift: u64) -> Vec<(u64, u64)> {
    let (n, l) = groups[0];
    if mode == 0 && n >= 2 {
        let k = 1 + shift % (n - 1);
        let mut out = vec![(n - k, l), (k, l)];
        out.extend_from_slice(&groups[1..]);
        return out;
    }
    let mut singles: Vec<(u64, u64)> = groups
        .iter()
        .flat_map(|&(n, l)| std::iter::repeat_n((1, l), n as usize))
        .collect();
    if singles.len() >= 2 {
        let d = shift % singles[0].1;
        singles[0].1 -= d;
        singles.last_mut().expect("two singles").1 += d;
    }
    singles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_gen_breakdown_is_bitwise_equal_to_recompute(
        groups in prop::collection::vec((0u64..=64, 16u64..=4096), 0..4),
        sys_idx in 0usize..3,
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let model = attacc_model::ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(systems()[sys_idx].clone(), &model);
        let cached = exec.gen_stage_detail(&groups);
        let direct = exec.gen_stage_detail_uncached(&groups);
        prop_assert_eq!(cached, direct);
        // A second (guaranteed-hit) lookup returns the same value again.
        prop_assert_eq!(exec.gen_stage_detail(&groups), direct);
    }

    #[test]
    fn gen_parts_from_one_mix_serve_another_with_the_same_rows(
        first in prop::collection::vec((1u64..=32, 16u64..=4096), 1..4),
        contexts in prop::collection::vec(16u64..=4096, 1..4),
        sys_idx in 0usize..3,
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let model = attacc_model::ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(attacc_systems()[sys_idx].clone(), &model);
        TimingCache::global().clear();
        // `first` fills the rows-keyed parts; a mix over other contexts
        // with the same row total must then hit them and still match the
        // uncached op-graph walk.
        prop_assert_eq!(exec.gen_stage_detail(&first), exec.gen_stage_detail_uncached(&first));
        let rows = first.iter().map(|&(n, _)| n).sum();
        let second = spread(rows, &contexts);
        prop_assert_eq!(exec.gen_stage_detail(&second), exec.gen_stage_detail_uncached(&second));
    }

    /// The xPU Gen key's property: the op-graph walk sees the groups only
    /// through `(Σ count, Σ count · context)`, so a regrouping with the
    /// same sums walks to the same breakdown, and its probe hits the
    /// entry `first` stored. A mix over other contexts with the same rows
    /// must still match its own walk.
    #[test]
    fn xpu_gen_from_one_mix_serves_every_mix_with_the_same_sums(
        first in prop::collection::vec((1u64..=32, 16u64..=4096), 1..4),
        contexts in prop::collection::vec(16u64..=4096, 1..4),
        mode in 0u8..2,
        shift in 0u64..4096,
        pick in (0usize..4, 0usize..2),
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let models = [attacc_model::ModelConfig::gpt3_175b(), attacc_model::ModelConfig::llama2_70b()];
        let exec = SystemExecutor::new(xpu_systems()[pick.0].clone(), &models[pick.1]);
        let cache = TimingCache::global();
        cache.clear();
        prop_assert_eq!(exec.gen_stage_detail(&first), exec.gen_stage_detail_uncached(&first));
        let regrouped = regroup(&first, mode, shift);
        prop_assert_eq!(
            exec.gen_stage_detail_uncached(&regrouped),
            exec.gen_stage_detail_uncached(&first)
        );
        let misses = cache.stats().misses;
        prop_assert_eq!(exec.gen_stage_detail(&regrouped), exec.gen_stage_detail_uncached(&regrouped));
        prop_assert!(cache.stats().misses == misses, "a regrouping with the same sums must hit");
        let rows = first.iter().map(|&(n, _)| n).sum();
        let second = spread(rows, &contexts);
        prop_assert_eq!(exec.gen_stage_detail(&second), exec.gen_stage_detail_uncached(&second));
    }

    #[test]
    fn cached_sum_cost_is_bitwise_equal_to_recompute(
        batch in 0u64..=64,
        l_in in 16u64..=4096,
        sys_idx in 0usize..3,
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let model = attacc_model::ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(systems()[sys_idx].clone(), &model);
        let cached = exec.sum_stage(batch, l_in);
        let direct = exec.sum_stage_uncached(batch, l_in);
        prop_assert_eq!(cached, direct);
    }

    /// Gen and Sum calls of nine executors (three systems, two of them
    /// with different PIM devices, × three models), interleaved as a
    /// fleet mixing node variants makes them, with `clear()` between
    /// some of them: every result equals the uncached walk, and the
    /// first probe after a clear misses (no thread-local memo outlives
    /// the clear). Nine pairs are more than a thread's memo holds, so
    /// some calls also find it full.
    #[test]
    fn interleaved_executors_match_the_walk_across_clears(
        calls in prop::collection::vec(
            (0usize..9, prop::collection::vec((1u64..=16, 16u64..=4096), 1..4), 0u8..8),
            1..24,
        ),
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let models = [
            attacc_model::ModelConfig::gpt3_175b(),
            attacc_model::ModelConfig::llama2_70b(),
            attacc_model::ModelConfig::gpt3_13b(),
        ];
        let systems = [
            System::dgx_attacc_naive(),
            System::dgx_attacc_full(),
            System::dgx_attacc_with_placement(GemvPlacement::Buffer),
        ];
        let execs: Vec<SystemExecutor> = systems
            .into_iter()
            .flat_map(|s| models.iter().map(move |m| SystemExecutor::new(s.clone(), m)))
            .collect();
        let cache = TimingCache::global();
        for (which, groups, clear) in calls {
            let cleared = clear == 0;
            if cleared {
                cache.clear();
            }
            let misses = cache.stats().misses;
            let exec = &execs[which];
            let cached = exec.gen_stage_detail(&groups);
            prop_assert_eq!(cached, exec.gen_stage_detail_uncached(&groups));
            if cleared {
                prop_assert!(cache.stats().misses > misses, "a probe after clear() must miss");
            }
            let (batch, l_in) = (groups[0].0, groups[0].1);
            prop_assert_eq!(exec.sum_stage(batch, l_in), exec.sum_stage_uncached(batch, l_in));
        }
    }

    #[test]
    fn clearing_the_cache_never_changes_results(
        groups in prop::collection::vec((0u64..=32, 16u64..=2048), 0..3),
    ) {
        let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let model = attacc_model::ModelConfig::gpt3_175b();
        let exec = SystemExecutor::new(System::dgx_attacc_full(), &model);
        let warm = exec.gen_stage_detail(&groups);
        TimingCache::global().clear();
        let cold = exec.gen_stage_detail(&groups);
        prop_assert_eq!(warm, cold);
    }
}

/// Each thread keeps its own memos, so workers probing the same pairs
/// each compute their own misses, and `clear()` from another thread makes
/// every worker's next probe miss. Workers only probe and record; every
/// check runs on the main thread after they are joined, so a failed
/// check cannot leave a thread waiting at a barrier.
#[test]
fn concurrent_probes_match_the_walk_and_miss_again_after_clear() {
    const WORKERS: u64 = 4;
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let model = attacc_model::ModelConfig::gpt3_175b();
    let execs = [
        SystemExecutor::new(System::dgx_base(), &model),
        SystemExecutor::new(System::dgx_attacc_full(), &model),
    ];
    // Distinct row totals, so every probe is a distinct key on both
    // systems.
    let groups = [vec![(8u64, 512u64)], vec![(3, 128), (9, 2048)], vec![(16, 1024)]];
    let keys = (execs.len() * groups.len()) as u64;
    let probe_all = || -> Vec<StageBreakdown> {
        execs.iter().flat_map(|e| groups.iter().map(|g| e.gen_stage_detail(g))).collect()
    };
    let walks: Vec<StageBreakdown> = execs
        .iter()
        .flat_map(|e| groups.iter().map(|g| e.gen_stage_detail_uncached(g)))
        .collect();
    let cache = TimingCache::global();
    cache.clear();
    cache.reset_stats();
    let warmed = Barrier::new(WORKERS as usize + 1);
    let cleared = Barrier::new(WORKERS as usize + 1);
    let (outputs, warm_stats, warm_len, cleared_len) = thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let cold = probe_all();
                    let warm = probe_all();
                    warmed.wait();
                    cleared.wait();
                    (cold, warm, probe_all())
                })
            })
            .collect();
        warmed.wait();
        let (warm_stats, warm_len) = (cache.stats(), cache.len());
        cache.clear();
        let cleared_len = cache.len();
        cleared.wait();
        let outputs: Vec<_> =
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect();
        (outputs, warm_stats, warm_len, cleared_len)
    });
    for (cold, warm, after_clear) in &outputs {
        assert_eq!(cold, &walks);
        assert_eq!(warm, &walks);
        assert_eq!(after_clear, &walks);
    }
    assert_eq!(warm_stats.misses, WORKERS * keys, "each worker computes its own misses");
    assert_eq!(warm_stats.hits, WORKERS * keys, "each worker's second pass hits its memo");
    assert_eq!(warm_len, (WORKERS * keys) as usize, "len() counts every stored value");
    assert_eq!(cleared_len, 0);
    let misses = cache.stats().misses - warm_stats.misses;
    assert_eq!(misses, WORKERS * keys, "clear() must drop every worker's memos");
}

/// `DGX+AttAccs` Gen probes at or above the memo's 4,096-row bound store
/// nothing: every call computes, counts a miss and leaves `len()` alone,
/// and still equals the walk.
#[test]
fn attacc_gen_probes_above_the_rows_bound_compute_every_call() {
    let _guard = CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let model = attacc_model::ModelConfig::gpt3_175b();
    let exec = SystemExecutor::new(System::dgx_attacc_full(), &model);
    let cache = TimingCache::global();
    cache.clear();
    for rows in [4096u64, 5000] {
        let groups = spread(rows, &[128, 1024, 3000]);
        let walk = exec.gen_stage_detail_uncached(&groups);
        for call in 0..2 {
            let (misses, len) = (cache.stats().misses, cache.len());
            assert_eq!(exec.gen_stage_detail(&groups), walk, "rows {rows}, call {call}");
            assert_eq!(cache.stats().misses, misses + 1, "rows {rows}, call {call} must miss");
            assert_eq!(cache.len(), len, "rows {rows}, call {call} must store nothing");
        }
    }
}
