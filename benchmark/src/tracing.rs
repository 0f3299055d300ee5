//! The traced run's instruments, all outside the simulator: a timing
//! [`StageExecutor`] wrapped around each `SystemExecutor`, and coarse
//! spans (rep → op → entry call) kept in memory.
//!
//! Executor calls are not spans: a fleet rep makes ~2 M of them. They are
//! aggregated into the enclosing entry-call span instead (count, summed
//! ns, timing-cache misses), so memory stays bounded by the span count.

use attacc_serving::{StageCost, StageExecutor};
use attacc_sim::TimingCache;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// Executor-call aggregates of one entry call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecTotals {
    /// `gen_stage` calls.
    pub gen_calls: u64,
    /// `sum_stage` calls.
    pub sum_calls: u64,
    /// Host ns inside `gen_stage`.
    pub gen_ns: u64,
    /// Host ns inside `sum_stage`.
    pub sum_ns: u64,
    /// Calls during which the timing cache recorded a miss.
    pub miss_calls: u64,
    /// Host ns inside those calls.
    pub miss_ns: u64,
}

impl ExecTotals {
    fn add(&mut self, o: &ExecTotals) {
        self.gen_calls += o.gen_calls;
        self.sum_calls += o.sum_calls;
        self.gen_ns += o.gen_ns;
        self.sum_ns += o.sum_ns;
        self.miss_calls += o.miss_calls;
        self.miss_ns += o.miss_ns;
    }

    /// Executor calls of either kind.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.gen_calls + self.sum_calls
    }

    /// Host ns inside the executor.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.gen_ns + self.sum_ns
    }
}

/// Every this many `gen_stage` calls, the call's shape is kept as a
/// kernel-probe candidate.
const SHAPE_EVERY: u64 = 4096;
/// Shape samples kept at most.
const SHAPE_SAMPLES: usize = 4096;

/// Counters every [`TimedExec`] writes into.
#[derive(Debug, Default)]
pub struct ExecCounters {
    totals: Cell<ExecTotals>,
    gen_seen: Cell<u64>,
    /// Gen shapes sampled by call index, so the sample is deterministic.
    shapes: RefCell<Vec<Vec<(u64, u64)>>>,
    /// The most executors one entry call was given.
    max_nodes: Cell<usize>,
}

impl ExecCounters {
    /// Returns the aggregates since the last take and zeroes them.
    pub fn take(&self) -> ExecTotals {
        self.totals.take()
    }

    /// Notes an entry call over `n` wrapped executors.
    pub fn saw_nodes(&self, n: usize) {
        self.max_nodes.set(self.max_nodes.get().max(n));
    }

    /// The sampled Gen shape with the median row count, and the largest
    /// node count, if any wrapped executor was called.
    #[must_use]
    pub fn probe_shape(&self) -> Option<(Vec<(u64, u64)>, usize)> {
        let mut shapes = self.shapes.borrow().clone();
        shapes.sort_by_key(|g| (g.iter().map(|x| x.0).sum::<u64>(), g.clone()));
        let median = shapes.get(shapes.len().saturating_sub(1) / 2)?.clone();
        Some((median, self.max_nodes.get()))
    }

    fn sample_shape(&self, groups: &[(u64, u64)]) {
        let seen = self.gen_seen.get();
        self.gen_seen.set(seen + 1);
        if !seen.is_multiple_of(SHAPE_EVERY) {
            return;
        }
        // The exact-path probes take only non-empty groups.
        let groups: Vec<(u64, u64)> = groups.iter().copied().filter(|g| g.0 > 0).collect();
        let mut shapes = self.shapes.borrow_mut();
        if !groups.is_empty() && shapes.len() < SHAPE_SAMPLES {
            shapes.push(groups);
        }
    }

    fn record(&self, gen: bool, ns: u64, missed: bool) {
        let mut t = self.totals.get();
        if gen {
            t.gen_calls += 1;
            t.gen_ns += ns;
        } else {
            t.sum_calls += 1;
            t.sum_ns += ns;
        }
        if missed {
            t.miss_calls += 1;
            t.miss_ns += ns;
        }
        self.totals.set(t);
    }
}

fn cache_misses() -> u64 {
    TimingCache::global().stats().misses
}

/// A [`StageExecutor`] that forwards to `inner` and times every call.
pub struct TimedExec<'a> {
    inner: &'a dyn StageExecutor,
    counters: &'a ExecCounters,
}

impl<'a> TimedExec<'a> {
    /// Wraps `inner`, recording into `counters`.
    pub fn new(inner: &'a dyn StageExecutor, counters: &'a ExecCounters) -> TimedExec<'a> {
        TimedExec { inner, counters }
    }
}

impl StageExecutor for TimedExec<'_> {
    fn sum_stage(&self, batch: u64, l_in: u64) -> StageCost {
        let misses = cache_misses();
        let start = Instant::now();
        let cost = self.inner.sum_stage(batch, l_in);
        let ns = start.elapsed().as_nanos() as u64;
        self.counters.record(false, ns, cache_misses() != misses);
        cost
    }

    fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
        let misses = cache_misses();
        let start = Instant::now();
        let cost = self.inner.gen_stage(groups);
        let ns = start.elapsed().as_nanos() as u64;
        self.counters.record(true, ns, cache_misses() != misses);
        self.counters.sample_shape(groups);
        cost
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `rep`, `op`, or the public entry point called.
    pub name: &'static str,
    /// Rep index (the warm-up rep is not traced).
    pub rep: usize,
    /// Op index within the rep (`None` for the rep span).
    pub op: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Executor calls made inside (entry calls only).
    pub exec: ExecTotals,
    /// Timing-cache hits recorded inside (entry calls only).
    pub cache_hits: u64,
    /// Timing-cache misses recorded inside (entry calls only).
    pub cache_misses: u64,
}

impl Span {
    /// Host seconds the span covers.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    rep: usize,
    op: Option<usize>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
            op: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            exec: ExecTotals::default(),
            cache_hits: 0,
            cache_misses: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes span `idx` and any span a panic left open inside it.
    fn close(&mut self, idx: usize) {
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Opens the span of rep `rep`.
    pub fn begin_rep(&mut self, rep: usize) -> usize {
        self.rep = rep;
        self.op = None;
        self.open("rep")
    }

    /// Opens the span of op `op` in the current rep.
    pub fn begin_op(&mut self, op: usize) -> usize {
        self.op = Some(op);
        self.open("op")
    }

    /// Closes a rep or op span.
    pub fn end(&mut self, idx: usize) {
        self.close(idx);
    }

    /// Runs one public entry point inside a span named `name`, charging
    /// it the executor calls and cache traffic it caused.
    pub fn entry<R>(
        &mut self,
        name: &'static str,
        counters: &ExecCounters,
        f: impl FnOnce() -> R,
    ) -> R {
        counters.take();
        let before = TimingCache::global().stats();
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        let after = TimingCache::global().stats();
        let span = &mut self.spans[idx];
        span.exec = counters.take();
        span.cache_hits = after.hits - before.hits;
        span.cache_misses = after.misses - before.misses;
        out
    }

    /// Spans of rep `rep` that are entry calls (not rep/op spans).
    pub fn entries(&self, rep: usize) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.rep == rep && s.name != "rep" && s.name != "op")
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Returns the I/O error of creating, writing or flushing `path`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let e = &s.exec;
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"rep\": {}, \"op\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"gen_calls\": {}, \"sum_calls\": {}, \
                 \"gen_ns\": {}, \"sum_ns\": {}, \"miss_calls\": {}, \"miss_ns\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}}}",
                crate::stats::json_str(s.name),
                s.rep,
                opt(s.op),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                e.gen_calls,
                e.sum_calls,
                e.gen_ns,
                e.sum_ns,
                e.miss_calls,
                e.miss_ns,
                s.cache_hits,
                s.cache_misses,
            )?;
        }
        out.flush()
    }
}

/// Sums the executor aggregates of `spans`.
pub fn exec_sum<'a>(spans: impl Iterator<Item = &'a Span>) -> ExecTotals {
    let mut t = ExecTotals::default();
    for s in spans {
        t.add(&s.exec);
    }
    t
}
