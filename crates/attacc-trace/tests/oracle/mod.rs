//! Test-only reference implementations of the trace codec and the
//! timing replay: the straightforward versions the crate's fast paths
//! replaced, kept verbatim so differential tests can require identical
//! results (same instructions, same error line and message, same report
//! bits).
//!
//! * [`Line`] — the `write!`-based one-line instruction form.
//! * [`parse`] / [`parse_inst`] — the `lines()` + `trim()` +
//!   `split_whitespace()` + `split_once('=')` parser.
//! * [`execute_timing`] — the replay over `HashMap<(request, head), _>`
//!   state with a `BTreeMap` per-opcode table. It refuses a `set_model`
//!   functional replay refuses, a second `admit` of a resident request
//!   and a head's tokens past `max_l`, as the crate's replay does.

#![allow(dead_code)]

use attacc_hbm::AccessDepth;
use attacc_pim::{AttInst, InstError};
use attacc_trace::{
    head_cost, HeadCost, OpcodeCost, TimingConfig, Trace, TraceParseError, TraceReport,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

// ---------------------------------------------------------------------
// Display
// ---------------------------------------------------------------------

/// Renders one instruction through the reference `write!` formatting.
pub struct Line<'a>(pub &'a AttInst);

fn write_vec(f: &mut fmt::Formatter<'_>, name: &str, v: &[f32]) -> fmt::Result {
    write!(f, " {name}=")?;
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        // `{}` on f32 is the shortest representation that parses back to
        // the same bits, so the codec round-trips exactly.
        write!(f, "{x}")?;
    }
    Ok(())
}

impl fmt::Display for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.opcode())?;
        match self.0 {
            AttInst::SetModel { n_head, d_head, max_l } => {
                write!(f, " n_head={n_head} d_head={d_head} max_l={max_l}")
            }
            AttInst::UpdateRequest { request, .. } => write!(f, " req={request}"),
            AttInst::AppendKv { request, head, k, v } => {
                write!(f, " req={request} head={head}")?;
                write_vec(f, "k", k)?;
                write_vec(f, "v", v)
            }
            AttInst::DeclareKv { request, head, tokens } => {
                write!(f, " req={request} head={head} tokens={tokens}")
            }
            AttInst::LoadQ { request, head, q } => {
                write!(f, " req={request} head={head}")?;
                write_vec(f, "q", q)
            }
            AttInst::RunAttention { request, head } | AttInst::ReadOutput { request, head } => {
                write!(f, " req={request} head={head}")
            }
            AttInst::RunAttentionBatch { request, head0, n_heads } => {
                write!(f, " req={request} head0={head0} n_heads={n_heads}")
            }
            AttInst::EvictKv { request, head, keep_last } => {
                write!(f, " req={request} head={head} keep_last={keep_last}")
            }
            AttInst::ConfigPages { tokens_per_page } => {
                write!(f, " tokens_per_page={tokens_per_page}")
            }
            AttInst::MapPage { request, head, page } | AttInst::UnmapPage { request, head, page } => {
                write!(f, " req={request} head={head} page={page}")
            }
            AttInst::Barrier { tag } => write!(f, " tag={tag}"),
        }
    }
}

/// The reference `Trace::to_text`.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    for inst in &trace.insts {
        out.push_str(&Line(inst).to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// The reference `Trace::parse`.
pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
    let mut insts = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let inst = parse_inst(line).map_err(|message| TraceParseError {
            line: i + 1,
            message,
        })?;
        insts.push(inst);
    }
    Ok(Trace { insts })
}

/// Pulls the fields of one line, checking key names arrive in the
/// canonical order.
struct Fields<'a> {
    opcode: &'a str,
    rest: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    fn of(line: &'a str) -> Result<Fields<'a>, String> {
        let mut rest = line.split_whitespace();
        let opcode = rest.next().ok_or_else(|| "empty instruction".to_string())?;
        Ok(Fields { opcode, rest })
    }

    /// The raw value of the next field, which must be named `key`.
    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let tok = self
            .rest
            .next()
            .ok_or_else(|| format!("missing field {key}"))?;
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))?;
        if k != key {
            return Err(format!("expected field {key}, got {k}"));
        }
        Ok(v)
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        let v = self.value(key)?;
        v.parse().map_err(|_| format!("bad {key} value {v:?}"))
    }

    fn u32(&mut self, key: &str) -> Result<u32, String> {
        let v = self.value(key)?;
        v.parse().map_err(|_| format!("bad {key} value {v:?}"))
    }

    fn usize(&mut self, key: &str) -> Result<usize, String> {
        let v = self.value(key)?;
        v.parse().map_err(|_| format!("bad {key} value {v:?}"))
    }

    /// A comma-separated finite-f32 vector (empty value = empty vector).
    fn vec_f32(&mut self, key: &str) -> Result<Vec<f32>, String> {
        let v = self.value(key)?;
        if v.is_empty() {
            return Ok(Vec::new());
        }
        v.split(',')
            .map(|s| {
                let x: f32 = s.parse().map_err(|_| format!("bad float {s:?} in {key}"))?;
                if !x.is_finite() {
                    return Err(format!("non-finite value {s:?} in {key}"));
                }
                Ok(x)
            })
            .collect()
    }

    /// Asserts the line is exhausted.
    fn end(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected trailing field {extra:?}")),
        }
    }
}

/// The reference `parse_inst`.
pub fn parse_inst(line: &str) -> Result<AttInst, String> {
    let mut f = Fields::of(line)?;
    let inst = match f.opcode {
        "set_model" => AttInst::SetModel {
            n_head: f.u32("n_head")?,
            d_head: f.usize("d_head")?,
            max_l: f.u64("max_l")?,
        },
        "admit" => AttInst::UpdateRequest { request: f.u64("req")?, remove: false },
        "retire" => AttInst::UpdateRequest { request: f.u64("req")?, remove: true },
        "append" => AttInst::AppendKv {
            request: f.u64("req")?,
            head: f.u32("head")?,
            k: Box::new(f.vec_f32("k")?),
            v: Box::new(f.vec_f32("v")?),
        },
        "declare_kv" => AttInst::DeclareKv {
            request: f.u64("req")?,
            head: f.u32("head")?,
            tokens: f.u64("tokens")?,
        },
        "load_q" => AttInst::LoadQ {
            request: f.u64("req")?,
            head: f.u32("head")?,
            q: Box::new(f.vec_f32("q")?),
        },
        "run" => AttInst::RunAttention { request: f.u64("req")?, head: f.u32("head")? },
        "run_batch" => AttInst::RunAttentionBatch {
            request: f.u64("req")?,
            head0: f.u32("head0")?,
            n_heads: f.u32("n_heads")?,
        },
        "read" => AttInst::ReadOutput { request: f.u64("req")?, head: f.u32("head")? },
        "evict_kv" => AttInst::EvictKv {
            request: f.u64("req")?,
            head: f.u32("head")?,
            keep_last: f.u64("keep_last")?,
        },
        "config_pages" => AttInst::ConfigPages { tokens_per_page: f.u64("tokens_per_page")? },
        "map_page" => AttInst::MapPage {
            request: f.u64("req")?,
            head: f.u32("head")?,
            page: f.u64("page")?,
        },
        "unmap_page" => AttInst::UnmapPage {
            request: f.u64("req")?,
            head: f.u32("head")?,
            page: f.u64("page")?,
        },
        "barrier" => AttInst::Barrier { tag: f.u32("tag")? },
        other => return Err(format!("unknown opcode {other:?}")),
    };
    f.end()?;
    Ok(inst)
}

// ---------------------------------------------------------------------
// Timing replay
// ---------------------------------------------------------------------

#[derive(Default)]
struct DeviceState {
    n_head: u32,
    d_head: u64,
    max_l: u64,
    configured: bool,
    requests: HashSet<u64>,
    /// Resident KV length per (request, head).
    lens: HashMap<(u64, u32), u64>,
    /// Tokens each (request, head) received since admission, evictions
    /// included.
    received: HashMap<(u64, u32), u64>,
    tokens_per_page: Option<u64>,
    mapped: HashMap<(u64, u32), BTreeSet<u64>>,
}

impl DeviceState {
    fn check(&self, request: u64, head: u32) -> Result<(), InstError> {
        if !self.configured {
            return Err(InstError::NotConfigured);
        }
        if !self.requests.contains(&request) {
            return Err(InstError::UnknownRequest(request));
        }
        if head >= self.n_head {
            return Err(InstError::UnknownHead(head));
        }
        Ok(())
    }

    /// Tokens an attention launch over this head actually streams.
    fn visible_len(&self, request: u64, head: u32) -> u64 {
        let len = self.lens.get(&(request, head)).copied().unwrap_or(0);
        match self.tokens_per_page {
            None => len,
            Some(tpp) => {
                let Some(pages) = self.mapped.get(&(request, head)) else { return 0 };
                pages
                    .iter()
                    .filter(|&&p| p * tpp < len)
                    .map(|&p| (len - p * tpp).min(tpp))
                    .sum()
            }
        }
    }
}

/// The reference `execute_timing`. Its integer arithmetic is unchecked,
/// so callers keep token counts and page indices small.
pub fn execute_timing(cfg: &TimingConfig, trace: &Trace) -> Result<TraceReport, InstError> {
    let mut state = DeviceState::default();
    let mut memo: HashMap<u64, HeadCost> = HashMap::new();
    let mut per_opcode: BTreeMap<&'static str, OpcodeCost> = BTreeMap::new();

    let mut report = TraceReport {
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
    };

    let ext_bw = cfg.hbm.external_bandwidth_bytes_per_s();
    let ext_pj_bit = cfg.hbm.energy.streaming_pj_per_bit(AccessDepth::External, false);

    for (index, inst) in trace.insts.iter().enumerate() {
        let mut time_s = 0.0;
        let mut energy_j = 0.0;
        let mut ingest = |bytes: u64, time_s: &mut f64, energy_j: &mut f64| {
            *time_s += bytes as f64 / ext_bw;
            *energy_j += bytes as f64 * 8.0 * ext_pj_bit * 1e-12;
            report.host_s += bytes as f64 / ext_bw;
            report.host_bytes += bytes;
        };
        // A head receives at most `max_l` tokens over its life.
        let step = |state: &mut DeviceState, request: u64, head: u32, tokens: u64| {
            let received = state.received.entry((request, head)).or_insert(0);
            if *received + tokens > state.max_l {
                return Err(InstError::CapacityExceeded.at_index(index));
            }
            *received += tokens;
            *state.lens.entry((request, head)).or_insert(0) += tokens;
            Ok(())
        };
        let run_one = |state: &DeviceState,
                       memo: &mut HashMap<u64, HeadCost>,
                       report: &mut TraceReport,
                       request: u64,
                       head: u32|
         -> Result<(f64, f64), InstError> {
            let len = state.lens.get(&(request, head)).copied().unwrap_or(0);
            if len == 0 {
                return Err(InstError::EmptyKv);
            }
            let l_eff = state.visible_len(request, head);
            if l_eff == 0 {
                return Err(InstError::NothingMapped);
            }
            let cost = *memo
                .entry(l_eff)
                .or_insert_with(|| head_cost(cfg, l_eff, state.d_head));
            report.heads_run += 1;
            report.score_s += cost.trace.score_s;
            report.softmax_s += cost.trace.softmax_s;
            report.context_s += cost.trace.context_s;
            report.attention_s += cost.time_s;
            report.mac_commands += cost.trace.mac_commands;
            report.activates += cost.trace.activates;
            Ok((cost.time_s, cost.energy_j))
        };

        match *inst {
            AttInst::SetModel { n_head, d_head, max_l } => {
                let d_head = d_head as u64;
                if d_head == 0 || max_l == 0 || d_head.checked_mul(cfg.kv_dtype_bytes).is_none() {
                    return Err(InstError::InvalidModel.at_index(index));
                }
                state = DeviceState {
                    n_head,
                    d_head,
                    max_l,
                    configured: true,
                    ..DeviceState::default()
                };
                memo.clear();
            }
            AttInst::UpdateRequest { request, remove } => {
                if !state.configured {
                    return Err(InstError::NotConfigured.at_index(index));
                }
                if remove {
                    if !state.requests.remove(&request) {
                        return Err(InstError::UnknownRequest(request).at_index(index));
                    }
                    state.lens.retain(|&(r, _), _| r != request);
                    state.received.retain(|&(r, _), _| r != request);
                    state.mapped.retain(|&(r, _), _| r != request);
                } else if !state.requests.insert(request) {
                    return Err(InstError::AlreadyResident(request).at_index(index));
                }
            }
            AttInst::AppendKv { request, head, .. } => {
                state.check(request, head).map_err(|e| e.at_index(index))?;
                step(&mut state, request, head, 1)?;
                ingest(2 * state.d_head * cfg.kv_dtype_bytes, &mut time_s, &mut energy_j);
            }
            AttInst::DeclareKv { request, head, tokens } => {
                state.check(request, head).map_err(|e| e.at_index(index))?;
                step(&mut state, request, head, tokens)?;
                ingest(
                    tokens * 2 * state.d_head * cfg.kv_dtype_bytes,
                    &mut time_s,
                    &mut energy_j,
                );
            }
            AttInst::LoadQ { request, head, .. } | AttInst::ReadOutput { request, head } => {
                state.check(request, head).map_err(|e| e.at_index(index))?;
            }
            AttInst::RunAttention { request, head } => {
                state.check(request, head).map_err(|e| e.at_index(index))?;
                let (t, e) =
                    run_one(&state, &mut memo, &mut report, request, head).map_err(|e| e.at_index(index))?;
                time_s += t;
                energy_j += e;
            }
            AttInst::RunAttentionBatch { request, head0, n_heads } => {
                for head in head0..head0.saturating_add(n_heads) {
                    state.check(request, head).map_err(|e| e.at_index(index))?;
                    let (t, e) = run_one(&state, &mut memo, &mut report, request, head)
                        .map_err(|e| e.at_index(index))?;
                    time_s += t;
                    energy_j += e;
                }
            }
            AttInst::EvictKv { request, head, keep_last } => {
                state.check(request, head).map_err(|e| e.at_index(index))?;
                let len = state.lens.entry((request, head)).or_insert(0);
                *len = (*len).min(keep_last);
            }
            AttInst::ConfigPages { tokens_per_page } => {
                if !state.configured {
                    return Err(InstError::NotConfigured.at_index(index));
                }
                state.tokens_per_page = Some(tokens_per_page.max(1));
            }
            AttInst::MapPage { request, head, page } => {
                if state.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured.at_index(index));
                }
                state.check(request, head).map_err(|e| e.at_index(index))?;
                state.mapped.entry((request, head)).or_default().insert(page);
            }
            AttInst::UnmapPage { request, head, page } => {
                if state.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured.at_index(index));
                }
                state.check(request, head).map_err(|e| e.at_index(index))?;
                let removed = state
                    .mapped
                    .get_mut(&(request, head))
                    .is_some_and(|pages| pages.remove(&page));
                if !removed {
                    return Err(InstError::PageNotMapped(page).at_index(index));
                }
            }
            AttInst::Barrier { .. } => {
                report.barriers += 1;
            }
        }

        report.energy_j += energy_j;
        report.instructions += 1;
        let entry = per_opcode.entry(inst.opcode()).or_default();
        entry.count += 1;
        entry.time_s += time_s;
        entry.energy_j += energy_j;
    }

    report.per_opcode = per_opcode.into_iter().collect();
    Ok(report)
}
