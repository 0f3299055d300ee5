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
//! * [`TimingCache`] memoizes timing-query results keyed by the
//!   (system, model, query) triple, so overlapping sweeps (e.g. the same
//!   `DGX_Base` baseline re-timed by every figure) are computed once. A
//!   query holds exactly the integers its result depends on: a Sum stage
//!   its `(batch, l_in)`, an xPU Gen stage its row count and context-token
//!   total, a `DGX+AttAccs` Gen stage its row count (the attention term is
//!   folded in per call).
//!
//! Thread count resolves as: [`set_threads`] override (the `--serial`
//! flag) → `ATTACC_THREADS` → `std::thread::available_parallelism()`.

use crate::exec::{AttAccGenParts, StageBreakdown};
use attacc_model::ModelConfig;
use attacc_pim::AttentionMemo;
use attacc_serving::StageCost;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
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

/// A memoizable timing query against one (system, model) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TimingQuery {
    /// One Gen iteration on an xPU-attention system (`DGX_Base`,
    /// `DGX_Large`, `2xDGX`, `DGX_CPU`). Its op graph sees the
    /// `(count, context)` groups only through these two sums, so every
    /// regrouping with the same sums has the same breakdown.
    Gen {
        /// Total decode rows (Σ group counts).
        rows: u64,
        /// Context tokens attended (Σ count · context).
        ctx: u64,
    },
    /// One Sum (prefill) stage.
    Sum {
        /// Requests summarized together.
        batch: u64,
        /// Prompt length.
        l_in: u64,
    },
    /// The rows-only op-graph aggregates of one `DGX+AttAccs` Gen
    /// iteration (see [`AttAccGenParts`]); the attention term is computed
    /// per `(count, context)` group at combine time, so the whole decode
    /// iteration resolves through this single small-key probe.
    GenParts {
        /// Total decode rows (Σ group counts).
        rows: u64,
    },
}

/// A memoized timing result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TimingValue {
    /// Result of a [`TimingQuery::Gen`] query.
    Gen(StageBreakdown),
    /// Result of a [`TimingQuery::Sum`] query.
    Sum(StageCost),
    /// Result of a [`TimingQuery::GenParts`] query.
    Parts(AttAccGenParts),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    system: u32,
    model: u32,
    query: TimingQuery,
}

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

const CACHE_SHARDS: usize = 16;

/// A sharded memoization table for the pure per-stage timing queries.
///
/// Keys are `(interned system, interned model, query)` triples — see
/// [`intern_system`] / [`intern_model`] — so equal configurations share
/// entries across executors while distinct ones can never collide.
/// Values are the exact `StageBreakdown` / `StageCost` the uncached path
/// returns, making warm results bit-identical to cold ones.
pub struct TimingCache {
    shards: Vec<Mutex<HashMap<CacheKey, TimingValue>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Distinguishes cache instances in the thread-local [`PairMemo`]s
    /// so a stale entry from another cache can never be returned.
    id: u64,
    /// Bumped by [`TimingCache::clear`]; the thread-local memos record
    /// the generation they were filled at and are dropped when it
    /// changes.
    generation: AtomicU64,
}

/// Rows at or above this bound are not held in [`PairMemo::parts`]; their
/// probes go to the shard every time.
const MEMO_MAX_ROWS: u64 = 1 << 12;

/// Most [`PairMemo`]s one thread keeps; a new pair past it drops them
/// all. A fleet alternates a few pairs, while a figure sweep can touch
/// dozens of pairs a few times each, so this caps a sweep worker's memo
/// memory without costing a fleet its hits.
const MEMO_MAX_PAIRS: usize = 8;

/// One thread's memo of one `(system, model)` pair: an alias for the
/// pair's shard entries this thread has already probed, plus the PIM
/// attention terms. Probes it answers count as cache hits and return the
/// stored values, so results and stats are the same with or without it.
struct PairMemo {
    system: u32,
    model: u32,
    /// [`TimingQuery::GenParts`] values at index `rows`.
    parts: Vec<Option<AttAccGenParts>>,
    /// The pair's attention terms, made on its first `DGX+AttAccs` Gen
    /// call.
    attention: Option<AttentionMemo>,
    /// [`TimingQuery::Sum`] values keyed by `(batch, l_in)`.
    sums: HashMap<(u64, u64), StageCost>,
    /// [`TimingQuery::Gen`] values keyed by `(rows, ctx)`.
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
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    fn shard_of(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, TimingValue>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn lookup(&self, key: &CacheKey) -> Option<TimingValue> {
        let found = self.shard_of(key).lock().expect("cache shard lock").get(key).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn store(&self, key: CacheKey, value: TimingValue) {
        self.shard_of(&key).lock().expect("cache shard lock").insert(key, value);
    }

    /// The memoized xPU Gen-stage breakdown of one iteration over
    /// `(count, context)` groups, keyed by their row total and
    /// context-token total (see [`TimingQuery::Gen`]) and computing on
    /// miss. The compute closure runs outside any shard lock; concurrent
    /// misses of the same key may compute redundantly but always store
    /// the same pure value.
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
            let key = CacheKey { system, model, query: TimingQuery::Gen { rows, ctx } };
            let TimingValue::Gen(b) = self.get_or_compute(key, || TimingValue::Gen(compute()))
            else {
                unreachable!("a Gen key holds a breakdown")
            };
            memo.gens.insert((rows, ctx), b);
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

    /// The memoized value of `key`, computing and storing it on miss.
    fn get_or_compute(&self, key: CacheKey, compute: impl FnOnce() -> TimingValue) -> TimingValue {
        if let Some(value) = self.lookup(&key) {
            return value;
        }
        let value = compute();
        self.store(key, value);
        value
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
                    let key = CacheKey { system, model, query: TimingQuery::GenParts { rows } };
                    let TimingValue::Parts(p) =
                        self.get_or_compute(key, || TimingValue::Parts(parts()))
                    else {
                        unreachable!("a GenParts key holds parts")
                    };
                    if let Some(i) = slot {
                        if i >= memo.parts.len() {
                            memo.parts.resize(i + 1, None);
                        }
                        memo.parts[i] = Some(p);
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
            let key = CacheKey { system, model, query: TimingQuery::Sum { batch, l_in } };
            let TimingValue::Sum(c) = self.get_or_compute(key, || TimingValue::Sum(compute()))
            else {
                unreachable!("a Sum key holds a cost")
            };
            memo.sums.insert((batch, l_in), c);
            c
        })
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard lock").len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized entry (counters are kept; see
    /// [`TimingCache::reset_stats`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").clear();
        }
        // Invalidate every thread's pair memos: each thread records the
        // generation it filled them at and rechecks it on use.
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
