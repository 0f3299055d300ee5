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
//! Every instruction has a stable one-line text form. [`AttInst::LINES`]
//! spells it: per opcode, each field's lead (`declare_kv req=`, then
//! ` head=`, ` tokens=`) and the type of the value after it. The writer
//! ([`write_line`], which [`fmt::Display`] calls) and the `attacc-trace`
//! codec's reader both read that one table. [`AttInst`] is `Eq` under the
//! codec's contract that vector payloads are finite (the parser rejects
//! NaN/Inf, so `PartialEq` is total on codec-legal traces).
//!
//! An instruction is 32 bytes: each vector payload sits behind one thin
//! pointer (`Box<Vec<f32>>`), so the timing traces, which carry no
//! vectors, move half the bytes through every pass over a trace.

use std::fmt;

/// An instruction delivered to the AttAcc controller.
#[derive(Debug, Clone, PartialEq)]
pub enum AttInst {
    /// `AttAcc::SetModel`: configure head geometry. The config memory
    /// stores `N_head`, `d_head` and the maximum context length (§5.1),
    /// at which admission sizes every request.
    SetModel {
        /// Query heads per request.
        n_head: u32,
        /// Per-head dimension.
        d_head: usize,
        /// Maximum context length a request may reach.
        max_l: u64,
    },
    /// `AttAcc::UpdateRequest`: admit a request (KV length starts at 0) or
    /// remove a completed one, freeing its share of the KV capacity.
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
        k: Box<Vec<f32>>,
        /// New value vector (`d_head` values).
        v: Box<Vec<f32>>,
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
        q: Box<Vec<f32>>,
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
    /// most `keep_last` tokens remain resident. The request's context
    /// length in the config memory follows head 0, mirroring
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

// A timing trace holds about a million instructions and every pass over
// it (compile, parse, compare, replay) walks them all: keep them at 32
// bytes, vector payloads behind one pointer each.
const _: () = assert!(std::mem::size_of::<AttInst>() <= 32);

/// `AttInst` equality is total in practice: the trace codec refuses
/// non-finite vector payloads (`NaN`/`Inf` never round-trip), so the
/// reflexivity `Eq` asserts holds on every codec-legal instruction.
impl Eq for AttInst {}

/// How the value of a trace-line field is spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A decimal integer up to `u32::MAX`.
    U32,
    /// A decimal integer up to `usize::MAX`.
    Usize,
    /// A decimal integer up to `u64::MAX`.
    U64,
    /// Comma-separated finite `f32`s in shortest round-trip notation
    /// (none at all for an empty vector).
    F32s,
}

impl FieldKind {
    /// The largest value an integer field holds (`0` for a float list).
    #[must_use]
    pub const fn max(self) -> u64 {
        match self {
            FieldKind::U32 => u32::MAX as u64,
            FieldKind::Usize => usize::MAX as u64,
            FieldKind::U64 => u64::MAX,
            FieldKind::F32s => 0,
        }
    }
}

/// One field of a canonical trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The bytes before the value: the opcode, a space and `key=` for
    /// the first field of a line, ` key=` for each later one.
    pub lead: &'static str,
    /// How the value is spelled.
    pub kind: FieldKind,
}

impl Field {
    /// The key this field's lead names (`head` for ` head=`).
    #[must_use]
    pub fn key(&self) -> &'static str {
        let lead = self.lead;
        &lead[lead.rfind(' ').map_or(0, |i| i + 1)..lead.len() - 1]
    }
}

const fn field(lead: &'static str, kind: FieldKind) -> Field {
    Field { lead, kind }
}

/// The mnemonic that starts each line of `lines`: the first field's
/// lead up to its space.
const fn mnemonics<const N: usize>(lines: &[&'static [Field]; N]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < out.len() {
        let lead = lines[i][0].lead.as_bytes();
        let mut end = 0;
        while lead[end] != b' ' {
            end += 1;
        }
        out[i] = match std::str::from_utf8(lead.split_at(end).0) {
            Ok(mnemonic) => mnemonic,
            Err(_) => panic!("a mnemonic is ASCII"),
        };
        i += 1;
    }
    out
}

/// The stable opcode mnemonic of each instruction — the first token of
/// its [`fmt::Display`] line and the key trace reports aggregate by —
/// and the spelling of the rest of that line.
impl AttInst {
    /// The canonical spelling of every instruction line, indexed like
    /// [`AttInst::OPCODES`]: its fields in order, integers before float
    /// lists. [`write_line`] writes these leads and `attacc-trace`'s
    /// reader matches them; nothing else spells a line.
    pub const LINES: [&'static [Field]; 14] = {
        use FieldKind::{F32s, Usize, U32, U64};
        [
            &[field("admit req=", U64)],
            &[
                field("append req=", U64),
                field(" head=", U32),
                field(" k=", F32s),
                field(" v=", F32s),
            ],
            &[field("barrier tag=", U32)],
            &[field("config_pages tokens_per_page=", U64)],
            &[field("declare_kv req=", U64), field(" head=", U32), field(" tokens=", U64)],
            &[field("evict_kv req=", U64), field(" head=", U32), field(" keep_last=", U64)],
            &[field("load_q req=", U64), field(" head=", U32), field(" q=", F32s)],
            &[field("map_page req=", U64), field(" head=", U32), field(" page=", U64)],
            &[field("read req=", U64), field(" head=", U32)],
            &[field("retire req=", U64)],
            &[field("run req=", U64), field(" head=", U32)],
            &[field("run_batch req=", U64), field(" head0=", U32), field(" n_heads=", U32)],
            &[field("set_model n_head=", U32), field(" d_head=", Usize), field(" max_l=", U64)],
            &[field("unmap_page req=", U64), field(" head=", U32), field(" page=", U64)],
        ]
    };

    /// Every opcode mnemonic, sorted; [`AttInst::opcode_index`] indexes
    /// it, so per-opcode tables can be plain arrays kept in mnemonic
    /// order.
    pub const OPCODES: [&'static str; 14] = mnemonics(&Self::LINES);

    /// Position of this instruction's mnemonic in [`AttInst::OPCODES`].
    #[must_use]
    #[inline]
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

    /// The values of this instruction's line in [`AttInst::LINES`] order:
    /// the integer fields (trailing slots `0`), then the float lists
    /// (trailing slots empty).
    #[inline]
    fn fields(&self) -> ([u64; 3], [&[f32]; 2]) {
        match *self {
            AttInst::SetModel { n_head, d_head, max_l } => {
                ([n_head.into(), d_head as u64, max_l], [&[], &[]])
            }
            AttInst::UpdateRequest { request, .. } => ([request, 0, 0], [&[], &[]]),
            AttInst::AppendKv { request, head, ref k, ref v } => {
                ([request, head.into(), 0], [k, v])
            }
            AttInst::LoadQ { request, head, ref q } => ([request, head.into(), 0], [q, &[]]),
            AttInst::RunAttention { request, head } | AttInst::ReadOutput { request, head } => {
                ([request, head.into(), 0], [&[], &[]])
            }
            AttInst::RunAttentionBatch { request, head0, n_heads } => {
                ([request, head0.into(), n_heads.into()], [&[], &[]])
            }
            AttInst::DeclareKv { request, head, tokens: n }
            | AttInst::EvictKv { request, head, keep_last: n }
            | AttInst::MapPage { request, head, page: n }
            | AttInst::UnmapPage { request, head, page: n } => {
                ([request, head.into(), n], [&[], &[]])
            }
            AttInst::ConfigPages { tokens_per_page } => ([tokens_per_page, 0, 0], [&[], &[]]),
            AttInst::Barrier { tag } => ([tag.into(), 0, 0], [&[], &[]]),
        }
    }

    /// The instruction whose line has mnemonic `OPCODES[index]` and these
    /// values in [`AttInst::LINES`] order: `ints` for the integer fields,
    /// `floats` for the float lists (unused slots are ignored). `None`
    /// when `index` names no opcode or an integer exceeds its field's
    /// type.
    #[must_use]
    #[inline]
    pub fn from_fields(index: usize, ints: [u64; 3], floats: [Vec<f32>; 2]) -> Option<AttInst> {
        let [a, b, c] = ints;
        let [x, y] = floats;
        let narrow = |n: u64| u32::try_from(n).ok();
        Some(match index {
            0 => AttInst::UpdateRequest { request: a, remove: false },
            1 => AttInst::AppendKv { request: a, head: narrow(b)?, k: Box::new(x), v: Box::new(y) },
            2 => AttInst::Barrier { tag: narrow(a)? },
            3 => AttInst::ConfigPages { tokens_per_page: a },
            4 => AttInst::DeclareKv { request: a, head: narrow(b)?, tokens: c },
            5 => AttInst::EvictKv { request: a, head: narrow(b)?, keep_last: c },
            6 => AttInst::LoadQ { request: a, head: narrow(b)?, q: Box::new(x) },
            7 => AttInst::MapPage { request: a, head: narrow(b)?, page: c },
            8 => AttInst::ReadOutput { request: a, head: narrow(b)? },
            9 => AttInst::UpdateRequest { request: a, remove: true },
            10 => AttInst::RunAttention { request: a, head: narrow(b)? },
            11 => AttInst::RunAttentionBatch { request: a, head0: narrow(b)?, n_heads: narrow(c)? },
            12 => {
                AttInst::SetModel { n_head: narrow(a)?, d_head: usize::try_from(b).ok()?, max_l: c }
            }
            13 => AttInst::UnmapPage { request: a, head: narrow(b)?, page: c },
            _ => return None,
        })
    }
}

/// `00`, `01`, …, `99`: the two digits of every value below 100.
const DIGIT_PAIRS: &str = {
    const PAIRS: [u8; 200] = {
        let mut pairs = [0u8; 200];
        let mut n = 0;
        while n < 100 {
            pairs[2 * n] = b'0' + (n / 10) as u8;
            pairs[2 * n + 1] = b'0' + (n % 10) as u8;
            n += 1;
        }
        pairs
    };
    match std::str::from_utf8(&PAIRS) {
        Ok(pairs) => pairs,
        Err(_) => panic!("digits are ASCII"),
    }
};

/// The two digits of `n < 100`, leading zero included.
#[inline]
fn pair(n: u64) -> &'static str {
    let i = 2 * n as usize;
    &DIGIT_PAIRS[i..i + 2]
}

/// Writes `lead` and then the decimal digits of `n`: a lone leading
/// digit as one `char`, every other pair as a fixed 2-byte slice of
/// [`DIGIT_PAIRS`] (no `fmt` machinery on the codec's hot path).
#[inline]
fn write_int<W: fmt::Write>(w: &mut W, lead: &str, n: u64) -> fmt::Result {
    w.write_str(lead)?;
    // Base-100 digits below the leading one, least significant first.
    let mut pairs = [0u8; 9];
    let (mut len, mut rest) = (0, n);
    while rest >= 100 {
        pairs[len] = (rest % 100) as u8;
        rest /= 100;
        len += 1;
    }
    if rest < 10 {
        w.write_char(char::from(b'0' + rest as u8))?;
    } else {
        w.write_str(pair(rest))?;
    }
    pairs[..len].iter().rev().try_for_each(|&p| w.write_str(pair(p.into())))
}

fn write_floats<W: fmt::Write>(w: &mut W, lead: &str, v: &[f32]) -> fmt::Result {
    w.write_str(lead)?;
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

/// Writes the canonical one-line trace form of `inst` (no newline): each
/// field's lead from [`AttInst::LINES`] (`declare_kv req=` in one piece,
/// then ` head=` and ` tokens=`) followed by its value, integers in
/// decimal, floats in shortest round-trip notation. This is the trace
/// file format — both [`fmt::Display`] and `attacc-trace`'s
/// `Trace::to_text` go through it, and `attacc-trace`'s `Trace::parse`
/// and `parse_inst` invert it.
///
/// # Errors
/// Propagates the writer's error.
#[inline]
pub fn write_line<W: fmt::Write>(w: &mut W, inst: &AttInst) -> fmt::Result {
    let (ints, floats) = inst.fields();
    let (mut ints, mut floats) = (ints.into_iter(), floats.into_iter());
    AttInst::LINES[inst.opcode_index()].iter().try_for_each(|field| match field.kind {
        FieldKind::F32s => write_floats(w, field.lead, floats.next().unwrap_or_default()),
        _ => write_int(w, field.lead, ints.next().unwrap_or_default()),
    })
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
    /// Admitting the request would exceed device KV capacity (§3.2: each
    /// resident request sized at `max_l`), or a head would receive more
    /// than `max_l` tokens over its life.
    CapacityExceeded,
    /// `SetModel` with a zero `d_head` or `max_l`, or a `d_head` whose
    /// KV vector size in bytes overflows `u64`.
    InvalidModel,
    /// Admission of a request that is already resident.
    AlreadyResident(u64),
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
            InstError::InvalidModel => {
                write!(f, "SetModel needs a non-zero max_l and a non-zero, addressable d_head")
            }
            InstError::AlreadyResident(r) => write!(f, "request {r} is already resident"),
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
            InstError::InvalidModel,
            InstError::AlreadyResident(2),
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
            q: Box::new(vec![0.5, 1.0]),
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
                AttInst::AppendKv {
                    request: 0,
                    head: 2,
                    k: Box::new(vec![0.5, -1.25]),
                    v: Box::new(vec![0.0, 3.0]),
                },
                "append req=0 head=2 k=0.5,-1.25 v=0,3",
            ),
            (
                AttInst::DeclareKv { request: 1, head: 0, tokens: 2048 },
                "declare_kv req=1 head=0 tokens=2048",
            ),
            (
                AttInst::LoadQ { request: 0, head: 1, q: Box::new(vec![1.5]) },
                "load_q req=0 head=1 q=1.5",
            ),
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
        // Each digit count's first and last value, so every branch of the
        // two-digit table and the base-100 loop is crossed.
        let mut bounds = vec![0, u64::from(u32::MAX), u64::MAX];
        for digits in 1..20 {
            let low = 10u64.pow(digits - 1);
            bounds.extend([low, low * 10 - 1]);
        }
        bounds.extend([10u64.pow(19), 1_000, 100_001, 1_000_000_007]);
        for n in bounds {
            let inst = AttInst::DeclareKv { request: n, head: 0, tokens: n };
            assert_eq!(inst.to_string(), format!("declare_kv req={n} head=0 tokens={n}"));
        }
    }

    #[test]
    fn lines_spell_every_opcode() {
        use FieldKind::F32s;
        for (index, (line, mnemonic)) in AttInst::LINES.iter().zip(AttInst::OPCODES).enumerate() {
            assert!(line[0].lead.starts_with(&format!("{mnemonic} ")), "{line:?}");
            assert!(line[1..].iter().all(|f| f.lead.starts_with(' ')), "{line:?}");
            assert!(line.iter().all(|f| f.lead.ends_with('=')), "{line:?}");
            let ints = line.iter().filter(|f| f.kind != F32s).count();
            assert!(ints <= 3 && line.len() - ints <= 2, "{line:?}");
            assert!(line[ints..].iter().all(|f| f.kind == F32s), "integers first: {line:?}");
            // `from_fields` inverts `fields` with the values in distinct
            // slots, so the writer and the reader agree on every position.
            let inst = AttInst::from_fields(index, [1, 2, 3], [vec![0.5], vec![]]).unwrap();
            assert_eq!(inst.opcode_index(), index);
            let (ints, floats) = inst.fields();
            assert_eq!(AttInst::from_fields(index, ints, floats.map(<[f32]>::to_vec)), Some(inst));
        }
        assert_eq!(AttInst::from_fields(AttInst::OPCODES.len(), [0; 3], Default::default()), None);
        let past_u32 = u64::from(u32::MAX) + 1;
        assert_eq!(AttInst::from_fields(4, [0, past_u32, 0], Default::default()), None);
        assert_eq!((AttInst::LINES[4][0].key(), AttInst::LINES[4][1].key()), ("req", "head"));
    }

    #[test]
    fn eq_holds_on_finite_payloads() {
        let a = AttInst::LoadQ { request: 1, head: 2, q: Box::new(vec![0.5, 1.0]) };
        assert_eq!(a, a.clone());
        let b = AttInst::LoadQ { request: 1, head: 2, q: Box::new(vec![0.5, 1.5]) };
        assert_ne!(a, b);
    }

    #[test]
    fn trace_index_wraps_once() {
        let e = InstError::EmptyKv.at_index(4);
        assert!(matches!(e, InstError::Trace { index: 4, .. }));
        assert!(matches!(e.clone().at_index(9), InstError::Trace { index: 4, .. }));
        assert!(e.to_string().contains("#4"));
    }
}
