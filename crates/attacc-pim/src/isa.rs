//! The AttAcc instruction set (§5.2): one `Att_inst` per API function.
//!
//! The host programs AttAcc through a CUDA/OpenCL-style offload model:
//! `AttAcc::SetModel` and `AttAcc::UpdateRequest` fill the config memory,
//! `AttAcc::MemCopy` moves Q/K/V vectors and results, and
//! `AttAcc::RunAttention` launches one head's attention. The
//! [`crate::AttAccController`] executes these instructions functionally.
//!
//! Beyond the paper's API the ISA carries the timing-relevant
//! instructions trace-driven execution needs (`attacc-trace` compiles
//! model graphs into these): [`AttInst::RunAttentionBatch`] launches a
//! whole head group, [`AttInst::DeclareKv`] registers KV shipped in bulk
//! from a prefill node, [`AttInst::EvictKv`] trims a head's window,
//! [`AttInst::ConfigPages`]/[`AttInst::MapPage`]/[`AttInst::UnmapPage`]
//! implement paged (blocked) KV residency, and [`AttInst::Barrier`]
//! marks an xPU↔PIM handoff point.
//!
//! Every instruction has a stable one-line text form ([`write_line`],
//! which [`fmt::Display`] calls) that the `attacc-trace` codec parses
//! back; [`AttInst`] is `Eq` under the codec's contract that vector
//! payloads are finite (the parser rejects NaN/Inf, so `PartialEq` is
//! total on codec-legal traces).

use std::fmt;

/// An instruction delivered to the AttAcc controller.
#[derive(Debug, Clone, PartialEq)]
pub enum AttInst {
    /// `AttAcc::SetModel`: configure head geometry. The config memory
    /// stores `N_head`, `d_head` and the maximum context length (§5.1),
    /// which sizes each head's physical KV extents.
    SetModel {
        /// Query heads per request.
        n_head: u32,
        /// Per-head dimension.
        d_head: usize,
        /// Maximum context length a request may reach.
        max_l: u64,
    },
    /// `AttAcc::UpdateRequest`: admit a request (KV length starts at 0) or
    /// remove a completed one, freeing its stacks.
    UpdateRequest {
        /// Request id.
        request: u64,
        /// `true` to remove, `false` to admit.
        remove: bool,
    },
    /// `AttAcc::MemCopy` toward AttAcc: append one token's K and V vectors
    /// to a head's matrices.
    AppendKv {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// New key vector (`d_head` values).
        k: Vec<f32>,
        /// New value vector (`d_head` values).
        v: Vec<f32>,
    },
    /// Bulk KV registration: `tokens` K/V vector pairs become resident on
    /// a head without their values crossing the instruction stream — the
    /// DMA path used when a prefill (Sum) node ships a finished KV block
    /// over the interconnect. The functional controller zero-fills the
    /// vectors (contents live in the DMA payload, not the trace); the
    /// timing executor charges the transfer and advances the context
    /// length.
    DeclareKv {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// Number of token KV pairs registered.
        tokens: u64,
    },
    /// `AttAcc::MemCopy` of the Q vector into the head's GEMV buffers.
    LoadQ {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// Query vector (`d_head` values).
        q: Vec<f32>,
    },
    /// `AttAcc::RunAttention`: execute score → softmax → context for one
    /// head using the loaded Q and resident KV.
    RunAttention {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
    },
    /// Batched `AttAcc::RunAttention` over a contiguous head group:
    /// heads `head0 .. head0 + n_heads` execute back-to-back, one command
    /// issue instead of `n_heads` (the §6.1 attention-level pipeline runs
    /// inside one launch).
    RunAttentionBatch {
        /// Owning request.
        request: u64,
        /// First head of the group.
        head0: u32,
        /// Number of consecutive heads launched.
        n_heads: u32,
    },
    /// `AttAcc::MemCopy` toward the host: read a head's context output.
    ReadOutput {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
    },
    /// Sliding-window eviction: drop a head's oldest KV vectors so at
    /// most `keep_last` tokens remain resident. Bookkeeping (context
    /// length, capacity accounting) follows head 0, mirroring
    /// [`AttInst::AppendKv`]'s lockstep convention.
    EvictKv {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// Tokens to retain (the attention window).
        keep_last: u64,
    },
    /// Enables paged (blocked) KV: subsequent attention launches stream
    /// only the KV pages a head has mapped. Pages partition each head's
    /// token sequence into fixed blocks of `tokens_per_page` tokens
    /// (page `p` covers tokens `p·tokens_per_page ..`).
    ConfigPages {
        /// Tokens per KV page.
        tokens_per_page: u64,
    },
    /// Marks one KV page of a head resident for attention.
    MapPage {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// Page index.
        page: u64,
    },
    /// Removes one KV page of a head from the attention stream (the page
    /// stays allocated; [`AttInst::EvictKv`] or request retirement frees
    /// capacity).
    UnmapPage {
        /// Owning request.
        request: u64,
        /// Head index.
        head: u32,
        /// Page index.
        page: u64,
    },
    /// xPU↔PIM synchronization marker: all preceding PIM work must drain
    /// before the host proceeds (the FC layers between attention layers
    /// run on the xPU). Functionally a no-op; trace executors use it as
    /// an attribution boundary.
    Barrier {
        /// Host-chosen tag identifying the sync point.
        tag: u32,
    },
}

/// `AttInst` equality is total in practice: the trace codec refuses
/// non-finite vector payloads (`NaN`/`Inf` never round-trip), so the
/// reflexivity `Eq` asserts holds on every codec-legal instruction.
impl Eq for AttInst {}

/// The stable opcode mnemonic of each instruction — the first token of
/// its [`fmt::Display`] line and the key trace reports aggregate by.
impl AttInst {
    /// Every opcode mnemonic, sorted; [`AttInst::opcode_index`] indexes
    /// it, so per-opcode tables can be plain arrays kept in mnemonic
    /// order.
    pub const OPCODES: [&'static str; 14] = [
        "admit",
        "append",
        "barrier",
        "config_pages",
        "declare_kv",
        "evict_kv",
        "load_q",
        "map_page",
        "read",
        "retire",
        "run",
        "run_batch",
        "set_model",
        "unmap_page",
    ];

    /// Position of this instruction's mnemonic in [`AttInst::OPCODES`].
    #[must_use]
    pub fn opcode_index(&self) -> usize {
        match self {
            AttInst::UpdateRequest { remove: false, .. } => 0,
            AttInst::AppendKv { .. } => 1,
            AttInst::Barrier { .. } => 2,
            AttInst::ConfigPages { .. } => 3,
            AttInst::DeclareKv { .. } => 4,
            AttInst::EvictKv { .. } => 5,
            AttInst::LoadQ { .. } => 6,
            AttInst::MapPage { .. } => 7,
            AttInst::ReadOutput { .. } => 8,
            AttInst::UpdateRequest { remove: true, .. } => 9,
            AttInst::RunAttention { .. } => 10,
            AttInst::RunAttentionBatch { .. } => 11,
            AttInst::SetModel { .. } => 12,
            AttInst::UnmapPage { .. } => 13,
        }
    }

    /// Opcode mnemonic (stable across releases; the trace text format).
    #[must_use]
    pub fn opcode(&self) -> &'static str {
        Self::OPCODES[self.opcode_index()]
    }
}

/// Writes ` key=n` with the digits formatted by hand (no `fmt` machinery
/// on the codec's hot path).
#[inline]
fn write_int<W: fmt::Write>(w: &mut W, key: &str, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_str(key)?;
    digits[start..].iter().try_for_each(|&d| w.write_char(char::from(d)))
}

fn write_vec<W: fmt::Write>(w: &mut W, key: &str, v: &[f32]) -> fmt::Result {
    w.write_str(key)?;
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            w.write_char(',')?;
        }
        // `{}` on f32 is the shortest representation that parses back to
        // the same bits, so the codec round-trips exactly.
        write!(w, "{x}")?;
    }
    Ok(())
}

/// Writes the canonical one-line trace form of `inst` (no newline):
/// `opcode key=value ...`, keys in a fixed order, floats in shortest
/// round-trip notation. This is the trace file format — both
/// [`fmt::Display`] and `attacc-trace`'s `Trace::to_text` go through it,
/// and `attacc-trace::parse_inst` inverts it.
///
/// # Errors
/// Propagates the writer's error.
pub fn write_line<W: fmt::Write>(w: &mut W, inst: &AttInst) -> fmt::Result {
    w.write_str(inst.opcode())?;
    match *inst {
        AttInst::SetModel { n_head, d_head, max_l } => {
            write_int(w, " n_head=", n_head.into())?;
            write_int(w, " d_head=", d_head as u64)?;
            write_int(w, " max_l=", max_l)
        }
        AttInst::UpdateRequest { request, .. } => write_int(w, " req=", request),
        AttInst::AppendKv { request, head, ref k, ref v } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())?;
            write_vec(w, " k=", k)?;
            write_vec(w, " v=", v)
        }
        AttInst::DeclareKv { request, head, tokens } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())?;
            write_int(w, " tokens=", tokens)
        }
        AttInst::LoadQ { request, head, ref q } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())?;
            write_vec(w, " q=", q)
        }
        AttInst::RunAttention { request, head } | AttInst::ReadOutput { request, head } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())
        }
        AttInst::RunAttentionBatch { request, head0, n_heads } => {
            write_int(w, " req=", request)?;
            write_int(w, " head0=", head0.into())?;
            write_int(w, " n_heads=", n_heads.into())
        }
        AttInst::EvictKv { request, head, keep_last } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())?;
            write_int(w, " keep_last=", keep_last)
        }
        AttInst::ConfigPages { tokens_per_page } => {
            write_int(w, " tokens_per_page=", tokens_per_page)
        }
        AttInst::MapPage { request, head, page } | AttInst::UnmapPage { request, head, page } => {
            write_int(w, " req=", request)?;
            write_int(w, " head=", head.into())?;
            write_int(w, " page=", page)
        }
        AttInst::Barrier { tag } => write_int(w, " tag=", tag.into()),
    }
}

/// The canonical one-line trace form, via [`write_line`].
impl fmt::Display for AttInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_line(f, self)
    }
}

/// Errors the controller can raise while executing instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstError {
    /// `SetModel` has not been executed yet.
    NotConfigured,
    /// The request is not resident in the config memory.
    UnknownRequest(u64),
    /// The head index exceeds the configured head count.
    UnknownHead(u32),
    /// A vector's length does not match `d_head`.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// `RunAttention` before any KV vectors were appended.
    EmptyKv,
    /// `RunAttention` with every resident token masked out (all pages
    /// unmapped, or the window evicted to zero).
    NothingMapped,
    /// `RunAttention` before the Q vector was loaded.
    MissingQ,
    /// `ReadOutput` before `RunAttention`.
    NoOutput,
    /// Admitting the request would exceed device KV capacity.
    CapacityExceeded,
    /// `MapPage`/`UnmapPage` before `ConfigPages`.
    PagingNotConfigured,
    /// `UnmapPage` of a page that is not mapped.
    PageNotMapped(u64),
    /// An error raised while replaying instruction `index` of a trace:
    /// trace executors wrap the underlying failure so it points at a
    /// line in the trace file (line = index + 1 plus any header lines).
    Trace {
        /// Zero-based index of the offending instruction in the trace.
        index: usize,
        /// The underlying failure.
        cause: Box<InstError>,
    },
}

impl InstError {
    /// Wraps an error with the trace-instruction index that raised it.
    /// Already-wrapped errors keep their original (innermost) index.
    #[must_use]
    pub fn at_index(self, index: usize) -> InstError {
        match self {
            InstError::Trace { .. } => self,
            other => InstError::Trace { index, cause: Box::new(other) },
        }
    }

    /// The trace-instruction index attached by [`InstError::at_index`],
    /// if any.
    #[must_use]
    pub fn trace_index(&self) -> Option<usize> {
        match self {
            InstError::Trace { index, .. } => Some(*index),
            _ => None,
        }
    }
}

impl fmt::Display for InstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstError::NotConfigured => write!(f, "SetModel has not been executed"),
            InstError::UnknownRequest(r) => write!(f, "request {r} is not resident"),
            InstError::UnknownHead(h) => write!(f, "head {h} exceeds the configured head count"),
            InstError::DimensionMismatch { expected, got } => {
                write!(f, "vector length {got} does not match d_head {expected}")
            }
            InstError::EmptyKv => write!(f, "attention launched with an empty KV cache"),
            InstError::NothingMapped => {
                write!(f, "attention launched with every resident token masked out")
            }
            InstError::MissingQ => write!(f, "attention launched before the Q vector was loaded"),
            InstError::NoOutput => write!(f, "no attention output available to read"),
            InstError::CapacityExceeded => write!(f, "device KV capacity exceeded"),
            InstError::PagingNotConfigured => {
                write!(f, "page instruction before ConfigPages")
            }
            InstError::PageNotMapped(p) => write!(f, "page {p} is not mapped"),
            InstError::Trace { index, cause } => {
                write!(f, "trace instruction #{index}: {cause}")
            }
        }
    }
}

impl std::error::Error for InstError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstError::Trace { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        for e in [
            InstError::NotConfigured,
            InstError::UnknownRequest(3),
            InstError::UnknownHead(9),
            InstError::DimensionMismatch { expected: 4, got: 5 },
            InstError::EmptyKv,
            InstError::NothingMapped,
            InstError::MissingQ,
            InstError::NoOutput,
            InstError::CapacityExceeded,
            InstError::PagingNotConfigured,
            InstError::PageNotMapped(7),
            InstError::EmptyKv.at_index(12),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn instructions_have_useful_debug() {
        let inst = AttInst::LoadQ {
            request: 1,
            head: 2,
            q: vec![0.5, 1.0],
        };
        assert!(format!("{inst:?}").contains("LoadQ"));
    }

    #[test]
    fn display_is_the_stable_trace_line() {
        let cases = [
            (
                AttInst::SetModel { n_head: 96, d_head: 128, max_l: 2048 },
                "set_model n_head=96 d_head=128 max_l=2048",
            ),
            (AttInst::UpdateRequest { request: 3, remove: false }, "admit req=3"),
            (AttInst::UpdateRequest { request: 3, remove: true }, "retire req=3"),
            (
                AttInst::AppendKv { request: 0, head: 2, k: vec![0.5, -1.25], v: vec![0.0, 3.0] },
                "append req=0 head=2 k=0.5,-1.25 v=0,3",
            ),
            (
                AttInst::DeclareKv { request: 1, head: 0, tokens: 2048 },
                "declare_kv req=1 head=0 tokens=2048",
            ),
            (AttInst::LoadQ { request: 0, head: 1, q: vec![1.5] }, "load_q req=0 head=1 q=1.5"),
            (AttInst::RunAttention { request: 0, head: 5 }, "run req=0 head=5"),
            (
                AttInst::RunAttentionBatch { request: 0, head0: 0, n_heads: 96 },
                "run_batch req=0 head0=0 n_heads=96",
            ),
            (AttInst::ReadOutput { request: 0, head: 5 }, "read req=0 head=5"),
            (
                AttInst::EvictKv { request: 0, head: 5, keep_last: 256 },
                "evict_kv req=0 head=5 keep_last=256",
            ),
            (AttInst::ConfigPages { tokens_per_page: 64 }, "config_pages tokens_per_page=64"),
            (AttInst::MapPage { request: 0, head: 5, page: 3 }, "map_page req=0 head=5 page=3"),
            (
                AttInst::UnmapPage { request: 0, head: 5, page: 3 },
                "unmap_page req=0 head=5 page=3",
            ),
            (AttInst::Barrier { tag: 7 }, "barrier tag=7"),
        ];
        let mut seen = [false; AttInst::OPCODES.len()];
        for (inst, line) in cases {
            assert_eq!(inst.to_string(), line);
            assert!(line.starts_with(inst.opcode()));
            seen[inst.opcode_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every mnemonic has an instruction");
        assert!(AttInst::OPCODES.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn integers_print_at_their_extremes() {
        let inst = AttInst::MapPage { request: u64::MAX, head: u32::MAX, page: 0 };
        assert_eq!(
            inst.to_string(),
            format!("map_page req={} head={} page=0", u64::MAX, u32::MAX)
        );
        assert_eq!(AttInst::Barrier { tag: 10 }.to_string(), "barrier tag=10");
    }

    #[test]
    fn eq_holds_on_finite_payloads() {
        let a = AttInst::LoadQ { request: 1, head: 2, q: vec![0.5, 1.0] };
        assert_eq!(a, a.clone());
        let b = AttInst::LoadQ { request: 1, head: 2, q: vec![0.5, 1.5] };
        assert_ne!(a, b);
    }

    #[test]
    fn trace_index_wraps_once() {
        let e = InstError::EmptyKv.at_index(4);
        assert_eq!(e.trace_index(), Some(4));
        assert_eq!(e.clone().at_index(9).trace_index(), Some(4));
        assert_eq!(InstError::EmptyKv.trace_index(), None);
        assert!(e.to_string().contains("#4"));
    }
}
