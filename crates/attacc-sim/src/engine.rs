//! The sweep engine: parallel experiment execution plus a memoized
//! timing cache.
//!
//! Every figure driver in this workspace evaluates a grid of independent
//! design-space cells — (model, system, batch, sequence shape) tuples —
//! and each cell bottoms out in the same two pure timing queries
//! ([`crate::SystemExecutor::gen_stage_detail`] and the Sum-stage cost).
//! This module supplies the two pieces of shared machinery:
//!
//! * [`SweepRunner`] shards a slice of independent cells across scoped
//!   worker threads and merges results **by index**, so the output is
//!   bit-identical to a serial run regardless of thread count or
//!   scheduling order.
//! * [`TimingCache`] memoizes timing-query results in one memo per
//!   (system, model) pair on each thread, so a fleet or sweep that
//!   re-times the same pair computes each value once per thread. A key
//!   holds exactly the integers its result depends on: a Sum stage its
//!   `(batch, l_in)`, an xPU Gen stage its row count and context-token
//!   total, a `DGX+AttAccs` Gen stage its row count (the attention term
//!   is folded in per call).
//!
//! Thread count resolves as: [`set_threads`] override (the `--serial`
//! flag) → `ATTACC_THREADS` → `std::thread::available_parallelism()`.

use crate::exec::{AttAccGenParts, StageBreakdown};
use attacc_model::ModelConfig;
use attacc_pim::AttentionMemo;
use attacc_serving::StageCost;
use std::cell::RefCell;
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequently created [`SweepRunner::from_env`] to use
/// `threads` workers (`1` = serial). Used by the `--serial` escape hatch
/// and the determinism tests.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread count [`SweepRunner::from_env`] resolves to right now.
#[must_use]
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("ATTACC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Executes independent design-space cells on a pool of scoped workers.
///
/// Results are merged by input index, so `map` output is byte-identical
/// to the serial `items.iter().map(f).collect()` for any thread count.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with the environment-resolved thread count.
    #[must_use]
    pub fn from_env() -> SweepRunner {
        SweepRunner { threads: configured_threads() }
    }

    /// A single-threaded runner.
    #[must_use]
    pub fn serial() -> SweepRunner {
        SweepRunner { threads: 1 }
    }

    /// A runner with exactly `threads` workers (at least one).
    #[must_use]
    pub fn with_threads(threads: usize) -> SweepRunner {
        SweepRunner { threads: threads.max(1) }
    }

    /// The worker count this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, possibly in parallel, preserving input
    /// order in the output.
    pub fn map<I, R, F>(&self, items: &[I], f: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(&I) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let per_worker: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= items.len() {
                                break;
                            }
                            out.push((idx, f(&items[idx])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (idx, r) in per_worker.into_iter().flatten() {
            debug_assert!(slots[idx].is_none(), "index {idx} computed twice");
            slots[idx] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Per-phase wall-time accounting
// ---------------------------------------------------------------------

fn phase_registry() -> &'static Mutex<Vec<(String, f64)>> {
    static PHASES: OnceLock<Mutex<Vec<(String, f64)>>> = OnceLock::new();
    PHASES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f`, accumulating its wall-clock time under `name` in the
/// process-wide phase report (repeated names accumulate).
pub fn time_phase<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed().as_secs_f64();
    let mut phases = phase_registry().lock().expect("phase registry lock");
    if let Some(entry) = phases.iter_mut().find(|(n, _)| n == name) {
        entry.1 += elapsed;
    } else {
        phases.push((name.to_string(), elapsed));
    }
    result
}

/// Accumulated `(phase, seconds)` pairs in first-recorded order.
#[must_use]
pub fn phase_report() -> Vec<(String, f64)> {
    phase_registry().lock().expect("phase registry lock").clone()
}

/// Clears the phase report (tests and long-lived drivers).
pub fn reset_phase_report() {
    phase_registry().lock().expect("phase registry lock").clear();
}

// ---------------------------------------------------------------------
// Timing cache
// ---------------------------------------------------------------------

/// Cache hit/miss counters at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all queries (0 when none were made).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The memoization table for the pure per-stage timing queries: one
/// `PairMemo` per `(system, model)` pair on each thread that probes it.
///
/// Pairs are interned ids — see [`intern_system`] / [`intern_model`] — so
/// equal configurations share a memo across executors while distinct ones
/// can never collide. A probe either hits the calling thread's memo of
/// its pair, or computes the value, stores it in that memo and counts a
/// miss. No store is shared between threads, so parallel [`SweepRunner`]
/// workers each compute their own misses. Values are the exact
/// `StageBreakdown` / `StageCost` the uncached path returns, making warm
/// results bit-identical to cold ones.
pub struct TimingCache {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Values stored in any thread's memo since the last
    /// [`TimingCache::clear`] (see [`TimingCache::len`]).
    entries: AtomicU64,
    /// Distinguishes cache instances in the thread-local [`PairMemo`]s
    /// so a stale entry from another cache can never be returned.
    id: u64,
    /// Bumped by [`TimingCache::clear`]; the thread-local memos record
    /// the generation they were filled at and are dropped when it
    /// changes.
    generation: AtomicU64,
}

/// Rows at or above this bound are not held in [`PairMemo::parts`]; their
/// probes compute every time and count as misses.
const MEMO_MAX_ROWS: u64 = 1 << 12;

/// Most [`PairMemo`]s one thread keeps; a new pair past it drops them
/// all. A fleet alternates a few pairs, while a figure sweep can touch
/// dozens of pairs a few times each, so this caps a sweep worker's memo
/// memory without costing a fleet its hits.
const MEMO_MAX_PAIRS: usize = 8;

/// One thread's memo of one `(system, model)` pair: every timing value
/// this thread has computed for the pair since the last
/// [`TimingCache::clear`], plus the pair's PIM attention terms. Each key
/// holds exactly the integers its value depends on.
struct PairMemo {
    system: u32,
    model: u32,
    /// The rows-only aggregates of one `DGX+AttAccs` Gen iteration (see
    /// [`AttAccGenParts`]) at index `rows`; the attention term is added
    /// per `(count, context)` group at combine time, so one entry serves
    /// every context mix with the same row total.
    parts: Vec<Option<AttAccGenParts>>,
    /// The pair's attention terms, made on its first `DGX+AttAccs` Gen
    /// call.
    attention: Option<AttentionMemo>,
    /// Sum-stage costs keyed by `(batch, l_in)`.
    sums: HashMap<(u64, u64), StageCost>,
    /// xPU-attention Gen breakdowns (`DGX_Base`, `DGX_Large`, `2xDGX`,
    /// `DGX_CPU`) keyed by `(Σ count, Σ count · context)`: their op graph
    /// sees the groups only through these two sums, so every regrouping
    /// with the same sums has the same breakdown.
    gens: HashMap<(u64, u64), StageBreakdown>,
}

/// This thread's [`PairMemo`]s, all filled from one cache since one
/// [`TimingCache::clear`]. One entry per pair, not one slot overall:
/// a fleet that mixes executors alternates pairs call by call. At most
/// [`MEMO_MAX_PAIRS`] entries.
struct ThreadMemo {
    cache_id: u64,
    generation: u64,
    pairs: Vec<PairMemo>,
}

thread_local! {
    static MEMO: RefCell<ThreadMemo> =
        const { RefCell::new(ThreadMemo { cache_id: u64::MAX, generation: 0, pairs: Vec::new() }) };
}

impl std::fmt::Debug for TimingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub(crate) fn new() -> TimingCache {
        static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);
        TimingCache {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every [`crate::SystemExecutor`] consults.
    #[must_use]
    pub fn global() -> &'static TimingCache {
        static GLOBAL: OnceLock<TimingCache> = OnceLock::new();
        GLOBAL.get_or_init(TimingCache::new)
    }

    /// Counts a miss and computes its value.
    fn miss<T>(&self, compute: impl FnOnce() -> T) -> T {
        self.misses.fetch_add(1, Ordering::Relaxed);
        compute()
    }

    /// The memoized xPU Gen-stage breakdown of one iteration over
    /// `(count, context)` groups, keyed by their row total and
    /// context-token total (see [`PairMemo::gens`]) and computing on miss.
    ///
    /// Kept out of line: inlined into `SystemExecutor::gen_stage_detail`
    /// it slowed that function's `DGX+AttAccs` path, which `fleet-chaos`
    /// runs a million times per rep (its `items_per_s` fell 8–10% in
    /// alternating runs on a 2-vCPU VM, and recovered with this).
    #[inline(never)]
    pub(crate) fn gen_breakdown(
        &self,
        system: u32,
        model: u32,
        groups: &[(u64, u64)],
        compute: impl FnOnce() -> StageBreakdown,
    ) -> StageBreakdown {
        let rows = groups.iter().map(|&(n, _)| n).sum();
        let ctx = groups.iter().map(|&(n, l)| n * l).sum();
        self.with_memo(system, model, |memo| {
            if let Some(&b) = memo.gens.get(&(rows, ctx)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return b;
            }
            let b = self.miss(compute);
            memo.gens.insert((rows, ctx), b);
            self.entries.fetch_add(1, Ordering::Relaxed);
            b
        })
    }

    /// Runs `f` on this thread's memo of the `(system, model)` pair,
    /// first dropping every memo filled from another cache or before the
    /// last [`TimingCache::clear`]. `f` must not probe the cache again.
    fn with_memo<R>(&self, system: u32, model: u32, f: impl FnOnce(&mut PairMemo) -> R) -> R {
        let generation = self.generation.load(Ordering::Relaxed);
        MEMO.with_borrow_mut(|memo| {
            if memo.cache_id != self.id || memo.generation != generation {
                memo.cache_id = self.id;
                memo.generation = generation;
                memo.pairs.clear();
            }
            let i = match memo.pairs.iter().position(|p| p.system == system && p.model == model) {
                Some(i) => i,
                None => {
                    if memo.pairs.len() == MEMO_MAX_PAIRS {
                        memo.pairs.clear();
                    }
                    memo.pairs.push(PairMemo {
                        system,
                        model,
                        parts: Vec::new(),
                        attention: None,
                        sums: HashMap::new(),
                        gens: HashMap::new(),
                    });
                    memo.pairs.len() - 1
                }
            };
            f(&mut memo.pairs[i])
        })
    }

    /// One `DGX+AttAccs` Gen iteration over `rows` decode rows:
    /// `combine` folds the attention term into the memoized rows-keyed
    /// aggregates (computed by `parts` on miss). Unlike
    /// [`TimingCache::gen_breakdown`] the key is a single `u64`, so no
    /// per-probe allocation and one entry covers every context mix with
    /// the same row total. `combine` gets the pair's attention memo,
    /// made by `attention` on the pair's first call on this thread.
    pub(crate) fn attacc_gen(
        &self,
        system: u32,
        model: u32,
        rows: u64,
        parts: impl FnOnce() -> AttAccGenParts,
        attention: impl FnOnce() -> AttentionMemo,
        combine: impl FnOnce(&AttAccGenParts, &mut AttentionMemo) -> StageBreakdown,
    ) -> StageBreakdown {
        self.with_memo(system, model, |memo| {
            let slot = (rows < MEMO_MAX_ROWS).then_some(rows as usize);
            let p = match slot.and_then(|i| memo.parts.get(i).copied().flatten()) {
                Some(p) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    p
                }
                None => {
                    let p = self.miss(parts);
                    if let Some(i) = slot {
                        if i >= memo.parts.len() {
                            memo.parts.resize(i + 1, None);
                        }
                        memo.parts[i] = Some(p);
                        self.entries.fetch_add(1, Ordering::Relaxed);
                    }
                    p
                }
            };
            combine(&p, memo.attention.get_or_insert_with(attention))
        })
    }

    /// The memoized Sum-stage cost, computing on miss.
    pub(crate) fn sum_cost(
        &self,
        system: u32,
        model: u32,
        batch: u64,
        l_in: u64,
        compute: impl FnOnce() -> StageCost,
    ) -> StageCost {
        self.with_memo(system, model, |memo| {
            if let Some(&c) = memo.sums.get(&(batch, l_in)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return c;
            }
            let c = self.miss(compute);
            memo.sums.insert((batch, l_in), c);
            self.entries.fetch_add(1, Ordering::Relaxed);
            c
        })
    }

    /// Number of values computed and stored since the last
    /// [`TimingCache::clear`], counted over all threads. This is a running
    /// count, not the size of one table: each thread keeps its own memos,
    /// so a value two workers both computed counts twice, and values a
    /// thread has since dropped (its memos are capped at eight pairs, and
    /// end with the thread) still count. A `DGX+AttAccs` Gen probe over
    /// 4,096 rows or more stores nothing and adds nothing.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether no value has been computed and stored since the last
    /// [`TimingCache::clear`] on any thread (see [`TimingCache::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized value: every thread drops its memos on its
    /// next probe. Zeroes [`TimingCache::len`]; the hit/miss counters are
    /// kept (see [`TimingCache::reset_stats`]).
    pub fn clear(&self) {
        self.entries.store(0, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Hit/miss counters since construction or the last reset.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Interners
// ---------------------------------------------------------------------

/// Interns a system's exact `Debug` representation to a compact id.
/// Equality is textual, so two ids are equal iff every field (including
/// every float, printed exactly) matches — a conservative key that can
/// never alias distinct configurations.
#[must_use]
pub fn intern_system(debug_repr: &str) -> u32 {
    static IDS: OnceLock<Mutex<HashMap<String, u32>>> = OnceLock::new();
    let mut ids = IDS.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("interner lock");
    let next = u32::try_from(ids.len()).expect("fewer than 2^32 distinct systems");
    *ids.entry(debug_repr.to_string()).or_insert(next)
}

/// Interns a model configuration to a compact id (exact field equality).
#[must_use]
pub fn intern_model(model: &ModelConfig) -> u32 {
    static IDS: OnceLock<Mutex<HashMap<ModelConfig, u32>>> = OnceLock::new();
    let mut ids = IDS.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("interner lock");
    let next = u32::try_from(ids.len()).expect("fewer than 2^32 distinct models");
    *ids.entry(model.clone()).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_engine_types_are_send_sync() {
        assert_send_sync::<TimingCache>();
        assert_send_sync::<SweepRunner>();
        assert_send_sync::<crate::SystemExecutor>();
        assert_send_sync::<crate::System>();
        assert_send_sync::<StageBreakdown>();
        assert_send_sync::<StageCost>();
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let serial = SweepRunner::serial().map(&items, |&x| x * x + 1);
        for threads in [2, 3, 8, 64] {
            let par = SweepRunner::with_threads(threads).map(&items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let r = SweepRunner::with_threads(4);
        assert_eq!(r.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(r.map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn cache_hit_returns_stored_value_and_counts() {
        let cache = TimingCache::new();
        let groups = [(4u64, 128u64)];
        let mut computes = 0u32;
        let mut run = |v: f64| {
            cache.gen_breakdown(1, 2, &groups, || {
                computes += 1;
                StageBreakdown { total_s: v, ..StageBreakdown::default() }
            })
        };
        let first = run(1.5);
        // The second closure would return 99.0, but the hit must return
        // the memoized 1.5 and never run the closure.
        let second = run(99.0);
        assert_eq!(computes, 1);
        assert_eq!(first.total_s, 1.5);
        assert_eq!(second, first);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = TimingCache::new();
        let a = cache.sum_cost(0, 0, 8, 128, || StageCost { latency_s: 1.0, energy_j: 0.0 });
        let b = cache.sum_cost(0, 0, 8, 256, || StageCost { latency_s: 2.0, energy_j: 0.0 });
        let c = cache.sum_cost(1, 0, 8, 128, || StageCost { latency_s: 3.0, energy_j: 0.0 });
        assert_eq!((a.latency_s, b.latency_s, c.latency_s), (1.0, 2.0, 3.0));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn clear_empties_but_keeps_functioning() {
        let cache = TimingCache::new();
        cache.sum_cost(0, 0, 1, 1, StageCost::default);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let v = cache.sum_cost(0, 0, 1, 1, || StageCost { latency_s: 4.0, energy_j: 0.0 });
        assert_eq!(v.latency_s, 4.0);
    }

    #[test]
    fn interners_are_stable_and_injective() {
        let a = intern_system("sys-a");
        let b = intern_system("sys-b");
        assert_ne!(a, b);
        assert_eq!(intern_system("sys-a"), a);
        let m1 = ModelConfig::gpt3_175b();
        let mut m2 = m1.clone();
        m2.n_decoder += 1;
        assert_ne!(intern_model(&m1), intern_model(&m2));
        assert_eq!(intern_model(&m1), intern_model(&m1.clone()));
    }

    #[test]
    fn phase_timer_accumulates_by_name() {
        reset_phase_report();
        let x = time_phase("unit-phase", || 41) + 1;
        time_phase("unit-phase", || ());
        assert_eq!(x, 42);
        let report = phase_report();
        let entry = report.iter().find(|(n, _)| n == "unit-phase").expect("recorded");
        assert!(entry.1 >= 0.0);
        assert_eq!(report.iter().filter(|(n, _)| n == "unit-phase").count(), 1);
    }
}
