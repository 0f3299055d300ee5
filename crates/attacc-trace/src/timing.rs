//! Timing trace replay on the `attacc-hbm` command engine.
//!
//! The timing executor interprets the same instruction stream as the
//! functional controller but carries no data — only per-head KV lengths,
//! the paging state, and the window left by evictions. It refuses what
//! the controller refuses, at the same instruction with the same error,
//! except for checks that need what it does not hold: the data (a missing
//! Q or output, a vector of the wrong length) and the device's KV
//! capacity at `admit`. Every attention
//! launch lowers to [`execute_head`] on the event-driven engine (one
//! [`HeadJob`] per head over the *visible* context), so trace-driven
//! timing is the engine's ground truth by construction, not a parallel
//! model. Costs are attributed per instruction:
//!
//! * `run`/`run_batch` — the attention kernel: engine stream time for
//!   both GEMV halves, pipelined softmax occupancy, and the per-head
//!   overhead (command issue, Q broadcast, output drain). Energy adds
//!   the stream, the three-stage softmax, score movement over the TSVs,
//!   and the Q-in/context-out external transfers — term-for-term the
//!   model of [`attacc_pim::attention::attention_energy_j`].
//! * `append`/`declare_kv` — KV ingest over the external interface:
//!   bytes / external bandwidth, external-depth streaming energy.
//! * `load_q`/`read` — zero-cost markers: their traffic is already
//!   charged by the launch (see above), so pricing them again would
//!   double-count; they remain in the per-opcode table as counts.
//! * `evict_kv`/`config_pages`/`map_page`/`unmap_page`/`barrier` —
//!   bookkeeping, counted but free.
//!
//! Heads execute serially on one stack in trace order; distinct visible
//! lengths are memoized (the engine is deterministic, so a memoized
//! head is bit-identical to a re-simulated one).

use crate::Trace;
use attacc_hbm::{AccessDepth, HbmConfig};
use attacc_pim::timing_exec::execute_head;
use attacc_pim::{AttInst, GemvPlacement, HeadJob, HeadTrace, InstError, SoftmaxUnit};
use std::collections::HashMap;

/// Hardware configuration the timing executor replays against.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// The HBM stack (geometry, timing, energy).
    pub hbm: HbmConfig,
    /// GEMV-unit placement (bank-level in the paper's design point).
    pub placement: GemvPlacement,
    /// The buffer-die softmax unit.
    pub softmax: SoftmaxUnit,
    /// Bytes per KV element as stored in DRAM (2 = FP16).
    pub kv_dtype_bytes: u64,
}

impl TimingConfig {
    /// The paper's design point: HBM3 8-high, bank-level GEMV units,
    /// FP16 KV.
    #[must_use]
    pub fn paper() -> TimingConfig {
        TimingConfig {
            hbm: HbmConfig::hbm3_8hi(),
            placement: GemvPlacement::Bank,
            softmax: SoftmaxUnit::new(),
            kv_dtype_bytes: 2,
        }
    }
}

/// Cost of one attention head over a visible context of `l` tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadCost {
    /// Serial head time (score + softmax + context + overhead).
    pub time_s: f64,
    /// Head energy (stream + softmax + TSV scores + external Q/out).
    pub energy_j: f64,
    /// The engine-level trace behind the numbers.
    pub trace: HeadTrace,
}

/// Prices one head on the command engine: the single source of truth
/// shared by the trace executor and the direct (non-trace) path, so the
/// two agree bit-for-bit when they schedule the same heads.
#[must_use]
pub fn head_cost(cfg: &TimingConfig, l: u64, d_head: u64) -> HeadCost {
    let job = HeadJob::new(l, d_head, cfg.kv_dtype_bytes);
    let trace = execute_head(&cfg.hbm, cfg.placement, &cfg.softmax, job);
    let ext_pj_bit = cfg.hbm.energy.streaming_pj_per_bit(AccessDepth::External, false);
    let host_bytes = 2 * d_head * cfg.kv_dtype_bytes; // Q in, context out
    let score_bytes = 2 * l * 4; // FP32 scores to and from the softmax unit
    let energy_j = trace.energy_j
        + cfg.softmax.energy_pj(l) * 1e-12
        + score_bytes as f64 * 8.0 * cfg.hbm.energy.tsv_pj_per_bit * 1e-12
        + host_bytes as f64 * 8.0 * ext_pj_bit * 1e-12;
    HeadCost {
        time_s: trace.serial_s(),
        energy_j,
        trace,
    }
}

/// Per-opcode attribution entry of a [`TraceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpcodeCost {
    /// Instructions of this opcode executed.
    pub count: u64,
    /// Time attributed (seconds).
    pub time_s: f64,
    /// Energy attributed (joules).
    pub energy_j: f64,
}

/// Time/energy attribution of one timing replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Instructions executed.
    pub instructions: usize,
    /// Attention heads launched.
    pub heads_run: u64,
    /// Engine stream time of all score GEMVs (s).
    pub score_s: f64,
    /// Softmax occupancy of all heads (s).
    pub softmax_s: f64,
    /// Engine stream time of all context GEMVs (s).
    pub context_s: f64,
    /// Total attention kernel time including per-head overhead (s).
    pub attention_s: f64,
    /// KV-ingest time over the external interface (s).
    pub host_s: f64,
    /// KV bytes shipped over the external interface.
    pub host_bytes: u64,
    /// Total energy (J).
    pub energy_j: f64,
    /// MAC (column) commands issued across all launches.
    pub mac_commands: u64,
    /// Row activations issued across all launches.
    pub activates: u64,
    /// Barriers crossed (xPU↔PIM handoffs).
    pub barriers: u64,
    /// Per-opcode attribution, sorted by opcode mnemonic.
    pub per_opcode: Vec<(&'static str, OpcodeCost)>,
}

impl TraceReport {
    /// End-to-end replay time: attention kernels plus host KV ingest.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.attention_s + self.host_s
    }
}

/// One head of one admitted request.
#[derive(Default)]
struct HeadState {
    /// Resident KV length.
    len: u64,
    /// Tokens received over the head's life, evictions included; at most
    /// the model's `max_l`, which bounds `len` too.
    received: u64,
    /// Mapped pages, sorted ascending.
    pages: Vec<u64>,
}

impl HeadState {
    /// Tokens an attention launch over this head actually streams. A page
    /// whose first token lies past the resident range (or past `u64`)
    /// contributes nothing.
    fn visible_len(&self, tokens_per_page: Option<u64>) -> u64 {
        let Some(tpp) = tokens_per_page else { return self.len };
        self.pages
            .iter()
            .filter_map(|&p| p.checked_mul(tpp).filter(|&first| first < self.len))
            .map(|first| (self.len - first).min(tpp))
            .sum()
    }
}

/// The heads of one admitted request that the trace has touched, sorted
/// by head number. Storage follows the instructions, not the head numbers
/// they name: a trace addressing `head=4294967294` holds one entry.
type Heads = Vec<(u32, HeadState)>;

/// Where `head` sits in `heads` (`Err`: where it would be inserted).
/// Traces touch a request's heads from 0 upward, so head `h` is usually
/// entry `h` and the search is skipped.
fn find(heads: &Heads, head: u32) -> Result<usize, usize> {
    match heads.get(head as usize) {
        Some(&(h, _)) if h == head => Ok(head as usize),
        _ => heads.binary_search_by_key(&head, |&(h, _)| h),
    }
}

/// The device as the trace has configured it. Each admitted request owns
/// a slot of head states; retired slots are cleared and reused.
#[derive(Default)]
struct DeviceState {
    n_head: u32,
    d_head: u64,
    max_l: u64,
    configured: bool,
    tokens_per_page: Option<u64>,
    /// Admitted request id → index into `requests`. Ids come from the
    /// trace, so the map keeps the default (collision-resistant) hasher.
    slots: HashMap<u64, usize>,
    /// The last id `slots` resolved. Runs of instructions address one
    /// request (99% of lookups on the benchmark's compiled traces), and
    /// the hashed lookup it skips is a large share of replay time.
    last_slot: Option<(u64, usize)>,
    requests: Vec<Heads>,
    free: Vec<usize>,
}

impl DeviceState {
    fn slot(&mut self, request: u64) -> Result<usize, InstError> {
        if !self.configured {
            return Err(InstError::NotConfigured);
        }
        if let Some((_, slot)) = self.last_slot.filter(|&(id, _)| id == request) {
            return Ok(slot);
        }
        let slot = *self.slots.get(&request).ok_or(InstError::UnknownRequest(request))?;
        self.last_slot = Some((request, slot));
        Ok(slot)
    }

    fn check(&mut self, request: u64, head: u32) -> Result<usize, InstError> {
        let slot = self.slot(request)?;
        if head >= self.n_head {
            return Err(InstError::UnknownHead(head));
        }
        Ok(slot)
    }

    /// The head's state, created empty on first touch.
    fn head_mut(&mut self, request: u64, head: u32) -> Result<&mut HeadState, InstError> {
        let slot = self.check(request, head)?;
        let heads = &mut self.requests[slot];
        let at = find(heads, head).unwrap_or_else(|at| {
            heads.insert(at, (head, HeadState::default()));
            at
        });
        Ok(&mut heads[at].1)
    }

    fn admit(&mut self, request: u64) -> Result<(), InstError> {
        if self.slots.contains_key(&request) {
            return Err(InstError::AlreadyResident(request));
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.requests.push(Vec::new());
            self.requests.len() - 1
        });
        self.slots.insert(request, slot);
        Ok(())
    }

    fn retire(&mut self, request: u64) -> Result<(), InstError> {
        let slot = self.slots.remove(&request).ok_or(InstError::UnknownRequest(request))?;
        if self.last_slot.is_some_and(|(id, _)| id == request) {
            self.last_slot = None;
        }
        self.requests[slot].clear();
        self.free.push(slot);
        Ok(())
    }
}

/// One timing replay in progress.
struct Replay<'c> {
    cfg: &'c TimingConfig,
    /// External-interface bandwidth (B/s).
    ext_bw: f64,
    /// External-interface streaming energy (pJ/bit).
    ext_pj_bit: f64,
    state: DeviceState,
    /// Head cost per visible length under the current `set_model`.
    memo: HashMap<u64, HeadCost>,
    /// The last cost `memo` returned. A request's heads advance in
    /// lockstep, so one batch launch repeats one length (nearly every
    /// lookup on the benchmark's compiled traces).
    last_cost: Option<(u64, HeadCost)>,
    report: TraceReport,
}

impl Replay<'_> {
    /// Executes one instruction, returning the time and energy it is
    /// charged.
    fn step(&mut self, inst: &AttInst) -> Result<(f64, f64), InstError> {
        match *inst {
            AttInst::SetModel { n_head, d_head, max_l } => {
                // The controller's model checks: no zero size, and a KV
                // vector's bytes within `u64`.
                let d_head = d_head as u64;
                let vector_bytes = d_head.checked_mul(self.cfg.kv_dtype_bytes);
                if d_head == 0 || max_l == 0 || vector_bytes.is_none() {
                    return Err(InstError::InvalidModel);
                }
                self.state = DeviceState {
                    n_head,
                    d_head,
                    max_l,
                    configured: true,
                    ..DeviceState::default()
                };
                self.memo.clear();
                self.last_cost = None;
            }
            AttInst::UpdateRequest { request, remove } => {
                if !self.state.configured {
                    return Err(InstError::NotConfigured);
                }
                if remove {
                    self.state.retire(request)?;
                } else {
                    self.state.admit(request)?;
                }
            }
            AttInst::AppendKv { request, head, .. } => return self.ingest(request, head, 1),
            AttInst::DeclareKv { request, head, tokens } => {
                return self.ingest(request, head, tokens);
            }
            AttInst::LoadQ { request, head, .. } | AttInst::ReadOutput { request, head } => {
                self.state.check(request, head)?;
            }
            AttInst::RunAttention { request, head } => {
                let slot = self.state.slot(request)?;
                return self.run_head(slot, head);
            }
            AttInst::RunAttentionBatch { request, head0, n_heads } => {
                let heads = head0..head0.saturating_add(n_heads);
                let (mut time_s, mut energy_j) = (0.0, 0.0);
                if !heads.is_empty() {
                    let slot = self.state.slot(request)?;
                    for head in heads {
                        let (t, e) = self.run_head(slot, head)?;
                        time_s += t;
                        energy_j += e;
                    }
                }
                return Ok((time_s, energy_j));
            }
            AttInst::EvictKv { request, head, keep_last } => {
                let h = self.state.head_mut(request, head)?;
                h.len = h.len.min(keep_last);
            }
            AttInst::ConfigPages { tokens_per_page } => {
                if !self.state.configured {
                    return Err(InstError::NotConfigured);
                }
                self.state.tokens_per_page = Some(tokens_per_page.max(1));
            }
            AttInst::MapPage { request, head, page } => {
                if self.state.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured);
                }
                let pages = &mut self.state.head_mut(request, head)?.pages;
                if let Err(at) = pages.binary_search(&page) {
                    pages.insert(at, page);
                }
            }
            AttInst::UnmapPage { request, head, page } => {
                if self.state.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured);
                }
                let pages = &mut self.state.head_mut(request, head)?.pages;
                let at = pages.binary_search(&page).map_err(|_| InstError::PageNotMapped(page))?;
                pages.remove(at);
            }
            AttInst::Barrier { .. } => self.report.barriers += 1,
        }
        Ok((0.0, 0.0))
    }

    /// Registers `tokens` KV pairs on a head and charges shipping them over
    /// the external interface. A head that would receive more than `max_l`
    /// tokens over its life, or a byte count past `u64`, is a capacity
    /// error.
    fn ingest(&mut self, request: u64, head: u32, tokens: u64) -> Result<(f64, f64), InstError> {
        let max_l = self.state.max_l;
        let h = self.state.head_mut(request, head)?;
        if tokens > max_l - h.received {
            return Err(InstError::CapacityExceeded);
        }
        h.received += tokens;
        h.len += tokens;
        // One token's K and V vectors, then `tokens` of them.
        let bytes = self
            .state
            .d_head
            .checked_mul(2)
            .and_then(|b| b.checked_mul(self.cfg.kv_dtype_bytes))
            .and_then(|per_token| per_token.checked_mul(tokens))
            .ok_or(InstError::CapacityExceeded)?;
        self.report.host_bytes =
            self.report.host_bytes.checked_add(bytes).ok_or(InstError::CapacityExceeded)?;
        let time_s = bytes as f64 / self.ext_bw;
        self.report.host_s += time_s;
        Ok((time_s, bytes as f64 * 8.0 * self.ext_pj_bit * 1e-12))
    }

    /// Launches one head of the request in `slot`.
    fn run_head(&mut self, slot: usize, head: u32) -> Result<(f64, f64), InstError> {
        if head >= self.state.n_head {
            return Err(InstError::UnknownHead(head));
        }
        let heads = &self.state.requests[slot];
        let h = find(heads, head)
            .ok()
            .map(|at| &heads[at].1)
            .filter(|h| h.len > 0)
            .ok_or(InstError::EmptyKv)?;
        let l_eff = h.visible_len(self.state.tokens_per_page);
        if l_eff == 0 {
            return Err(InstError::NothingMapped);
        }
        let cost = match self.last_cost {
            Some((l, cost)) if l == l_eff => cost,
            _ => {
                let (cfg, d_head) = (self.cfg, self.state.d_head);
                let cost = *self.memo.entry(l_eff).or_insert_with(|| head_cost(cfg, l_eff, d_head));
                self.last_cost = Some((l_eff, cost));
                cost
            }
        };
        let r = &mut self.report;
        r.heads_run += 1;
        r.score_s += cost.trace.score_s;
        r.softmax_s += cost.trace.softmax_s;
        r.context_s += cost.trace.context_s;
        r.attention_s += cost.time_s;
        r.mac_commands += cost.trace.mac_commands;
        r.activates += cost.trace.activates;
        Ok((cost.time_s, cost.energy_j))
    }
}

/// Replays a trace on the command engine, returning the attribution
/// report.
///
/// # Errors
/// Returns the failure wrapped with the zero-based instruction index
/// ([`InstError::Trace`]), exactly as functional replay does, and for the
/// same traces, with two kinds of exception. Checks on data it does not
/// carry (`MissingQ`, `NoOutput`, `DimensionMismatch`) are functional
/// only. So is the device's KV capacity at `admit`: timing replays one
/// stack's heads in sequence and knows no device size. A head past
/// `max_l` tokens, or an ingest byte count that overflows `u64`, is
/// [`InstError::CapacityExceeded`].
pub fn execute_timing(cfg: &TimingConfig, trace: &Trace) -> Result<TraceReport, InstError> {
    let mut replay = Replay {
        cfg,
        ext_bw: cfg.hbm.external_bandwidth_bytes_per_s(),
        ext_pj_bit: cfg.hbm.energy.streaming_pj_per_bit(AccessDepth::External, false),
        state: DeviceState::default(),
        memo: HashMap::new(),
        last_cost: None,
        report: TraceReport {
            instructions: 0,
            heads_run: 0,
            score_s: 0.0,
            softmax_s: 0.0,
            context_s: 0.0,
            attention_s: 0.0,
            host_s: 0.0,
            host_bytes: 0,
            energy_j: 0.0,
            mac_commands: 0,
            activates: 0,
            barriers: 0,
            per_opcode: Vec::new(),
        },
    };
    let mut per_opcode = [OpcodeCost::default(); AttInst::OPCODES.len()];

    for (index, inst) in trace.insts.iter().enumerate() {
        let (time_s, energy_j) = replay.step(inst).map_err(|e| e.at_index(index))?;
        replay.report.energy_j += energy_j;
        replay.report.instructions += 1;
        let entry = &mut per_opcode[inst.opcode_index()];
        entry.count += 1;
        entry.time_s += time_s;
        entry.energy_j += energy_j;
    }

    let mut report = replay.report;
    report.per_opcode = AttInst::OPCODES
        .into_iter()
        .zip(per_opcode)
        .filter(|(_, cost)| cost.count > 0)
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, DecodeSchedule, KvPolicy, TracePayload};
    use attacc_model::{DataType, ModelConfig};

    fn tiny() -> ModelConfig {
        ModelConfig::builder("tiny")
            .decoders(2)
            .embedding(256)
            .heads(2)
            .feedforward(512)
            .vocab(100)
            .max_seq_len(4096)
            .dtype(DataType::Fp16)
            .build()
            .unwrap()
    }

    fn timing_trace(policy: KvPolicy) -> Trace {
        compile(
            &tiny(),
            &DecodeSchedule::uniform(2, 64, 4, policy, TracePayload::Timing),
        )
    }

    #[test]
    fn report_matches_direct_head_schedule() {
        let cfg = TimingConfig::paper();
        let trace = timing_trace(KvPolicy::Full);
        let report = execute_timing(&cfg, &trace).unwrap();
        // The direct path: same heads in the same order, priced by the
        // same engine helper. Bit-exact, not approximately equal.
        let mut want_attention = 0.0f64;
        let mut heads = 0u64;
        for step in 0..4u64 {
            for _request in 0..2 {
                for _head in 0..2 {
                    let cost = head_cost(&cfg, 64 + step + 1, 128);
                    want_attention += cost.time_s;
                    heads += 1;
                }
            }
        }
        assert_eq!(report.heads_run, heads);
        assert_eq!(report.attention_s.to_bits(), want_attention.to_bits());
        assert!(report.host_s > 0.0 && report.energy_j > 0.0);
        assert_eq!(report.barriers, 5);
        assert_eq!(report.instructions, trace.len());
    }

    /// Context lengths long enough to straddle the engine's work
    /// quantum: bank-level parallelism prices every l ≤ 128 identically
    /// (one MAC row per bank), so short-context policies only show up in
    /// the clock once the full path exceeds that granule.
    fn long_trace(policy: KvPolicy) -> Trace {
        compile(
            &tiny(),
            &DecodeSchedule::uniform(2, 1024, 4, policy, TracePayload::Timing),
        )
    }

    #[test]
    fn sliding_window_caps_streamed_context() {
        let cfg = TimingConfig::paper();
        let full = execute_timing(&cfg, &long_trace(KvPolicy::Full)).unwrap();
        let windowed = execute_timing(
            &cfg,
            &long_trace(KvPolicy::SlidingWindow { window: 128 }),
        )
        .unwrap();
        assert!(windowed.attention_s < full.attention_s);
        assert_eq!(windowed.heads_run, full.heads_run);
        // Every windowed launch sees exactly `window` tokens: evictions
        // run before the launch in each decode step.
        let per_head = head_cost(&cfg, 128, 128).time_s;
        let want = per_head * windowed.heads_run as f64;
        assert!((windowed.attention_s - want).abs() < 1e-18);
    }

    #[test]
    fn paged_kv_streams_only_mapped_pages() {
        let cfg = TimingConfig::paper();
        let full = execute_timing(&cfg, &long_trace(KvPolicy::Full)).unwrap();
        let paged = execute_timing(
            &cfg,
            &long_trace(KvPolicy::Paged { tokens_per_page: 128, recent_pages: 1 }),
        )
        .unwrap();
        assert!(paged.attention_s < full.attention_s);
        // Sink page + one recent page: ≤ 256 visible tokens per head.
        let max_cost = head_cost(&cfg, 256, 128).time_s;
        assert!(paged.attention_s <= max_cost * paged.heads_run as f64 + 1e-12);
    }

    #[test]
    fn per_opcode_attribution_sums_to_totals() {
        let cfg = TimingConfig::paper();
        let report = execute_timing(&cfg, &timing_trace(KvPolicy::Full)).unwrap();
        let time: f64 = report.per_opcode.iter().map(|(_, c)| c.time_s).sum();
        let energy: f64 = report.per_opcode.iter().map(|(_, c)| c.energy_j).sum();
        let count: u64 = report.per_opcode.iter().map(|(_, c)| c.count).sum();
        assert_eq!(count as usize, report.instructions);
        assert!((time - report.total_s()).abs() < 1e-12 * time.max(1.0));
        assert!((energy - report.energy_j).abs() < 1e-12 * energy.max(1.0));
        let opcodes: Vec<&str> = report.per_opcode.iter().map(|(o, _)| *o).collect();
        let mut sorted = opcodes.clone();
        sorted.sort_unstable();
        assert_eq!(opcodes, sorted, "attribution is ordered by opcode");
    }

    #[test]
    fn errors_carry_the_instruction_index() {
        let cfg = TimingConfig::paper();
        let trace = Trace {
            insts: vec![
                AttInst::SetModel { n_head: 2, d_head: 128, max_l: 64 },
                AttInst::UpdateRequest { request: 0, remove: false },
                AttInst::RunAttention { request: 0, head: 0 },
            ],
        };
        let err = execute_timing(&cfg, &trace).unwrap_err();
        assert_eq!(err, InstError::EmptyKv.at_index(2));
        let bad_head = Trace {
            insts: vec![
                AttInst::SetModel { n_head: 2, d_head: 128, max_l: 64 },
                AttInst::UpdateRequest { request: 0, remove: false },
                AttInst::DeclareKv { request: 0, head: 9, tokens: 4 },
            ],
        };
        let err = execute_timing(&cfg, &bad_head).unwrap_err();
        assert_eq!(err, InstError::UnknownHead(9).at_index(2));
    }

    #[test]
    fn a_page_past_u64_tokens_is_not_visible() {
        let cfg = TimingConfig::paper();
        let text = format!(
            "set_model n_head=1 d_head=128 max_l=64\nadmit req=0\n\
             config_pages tokens_per_page=4\ndeclare_kv req=0 head=0 tokens=8\n\
             map_page req=0 head=0 page=0\nmap_page req=0 head=0 page={}\n\
             run req=0 head=0\n",
            u64::MAX
        );
        let report = execute_timing(&cfg, &Trace::parse(&text).unwrap()).unwrap();
        assert_eq!(report.heads_run, 1);
        let want = head_cost(&cfg, 4, 128).time_s;
        assert_eq!(report.attention_s.to_bits(), want.to_bits(), "only page 0 is visible");

        let only_far_page = text.replace("map_page req=0 head=0 page=0\n", "");
        let err = execute_timing(&cfg, &Trace::parse(&only_far_page).unwrap()).unwrap_err();
        assert_eq!(err, InstError::NothingMapped.at_index(5));
    }

    #[test]
    fn kv_bytes_or_length_past_u64_is_a_capacity_error() {
        let cfg = TimingConfig::paper();
        let bytes = format!(
            "set_model n_head=1 d_head=128 max_l=64\nadmit req=0\n\
             declare_kv req=0 head=0 tokens={}\n",
            u64::MAX
        );
        let err = execute_timing(&cfg, &Trace::parse(&bytes).unwrap()).unwrap_err();
        assert_eq!(err, InstError::CapacityExceeded.at_index(2));
        // Within `max_l`, the byte count itself overflows.
        let unbounded = bytes.replace("max_l=64", &format!("max_l={}", u64::MAX));
        let err = execute_timing(&cfg, &Trace::parse(&unbounded).unwrap()).unwrap_err();
        assert_eq!(err, InstError::CapacityExceeded.at_index(2));

        // A zero d_head is refused where it is set, as functional replay
        // refuses it.
        let length = format!(
            "set_model n_head=1 d_head=0 max_l=64\nadmit req=0\n\
             declare_kv req=0 head=0 tokens={0}\ndeclare_kv req=0 head=0 tokens={0}\n",
            u64::MAX
        );
        let err = execute_timing(&cfg, &Trace::parse(&length).unwrap()).unwrap_err();
        assert_eq!(err, InstError::InvalidModel.at_index(0));
    }

    #[test]
    fn head_state_does_not_scale_with_the_head_number() {
        // Storage indexed by head number would need ~137 GB for this
        // trace; only the two touched heads may be held.
        let cfg = TimingConfig::paper();
        let far = u32::MAX - 1;
        let text = format!(
            "set_model n_head={} d_head=128 max_l=64\nadmit req=0\n\
             declare_kv req=0 head={far} tokens=3\ndeclare_kv req=0 head=0 tokens=5\n\
             run req=0 head={far}\nrun req=0 head=0\nrun req=0 head=7\n",
            u32::MAX
        );
        let err = execute_timing(&cfg, &Trace::parse(&text).unwrap()).unwrap_err();
        assert_eq!(err, InstError::EmptyKv.at_index(6), "head 7 was never touched");

        let ok = text.replace("run req=0 head=7\n", "");
        let report = execute_timing(&cfg, &Trace::parse(&ok).unwrap()).unwrap();
        let want = head_cost(&cfg, 3, 128).time_s + head_cost(&cfg, 5, 128).time_s;
        assert_eq!(report.attention_s.to_bits(), want.to_bits());
    }

    #[test]
    fn a_second_set_model_prices_heads_at_its_own_d_head() {
        let cfg = TimingConfig::paper();
        let text = "set_model n_head=1 d_head=8 max_l=64\nadmit req=0\n\
                    declare_kv req=0 head=0 tokens=5\nrun req=0 head=0\n\
                    set_model n_head=1 d_head=64 max_l=64\nadmit req=0\n\
                    declare_kv req=0 head=0 tokens=5\nrun req=0 head=0\n";
        let report = execute_timing(&cfg, &Trace::parse(text).unwrap()).unwrap();
        let want = head_cost(&cfg, 5, 8).time_s + head_cost(&cfg, 5, 64).time_s;
        assert_eq!(report.attention_s.to_bits(), want.to_bits());
    }

    #[test]
    fn per_opcode_table_lists_only_executed_opcodes() {
        let cfg = TimingConfig::paper();
        let report = execute_timing(&cfg, &timing_trace(KvPolicy::Full)).unwrap();
        let opcodes: Vec<&str> = report.per_opcode.iter().map(|(o, _)| *o).collect();
        assert_eq!(opcodes, ["admit", "barrier", "declare_kv", "retire", "run_batch", "set_model"]);
    }

    #[test]
    fn memoized_heads_match_fresh_simulation() {
        let cfg = TimingConfig::paper();
        let a = head_cost(&cfg, 777, 128);
        let b = head_cost(&cfg, 777, 128);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }
}
