//! The trace file format: one [`AttInst`] per line, round-trippable.
//!
//! A trace is plain text. Blank lines and lines starting with `#` are
//! comments; every other line is the canonical [`std::fmt::Display`]
//! form of one instruction — `opcode key=value ...` with the keys in a
//! fixed order and float vectors comma-separated in Rust's shortest
//! round-trip notation (`{}` on `f32` prints the shortest decimal that
//! parses back to the same bits). The parser is strict: unknown
//! opcodes, missing or re-ordered keys, trailing garbage, and
//! non-finite floats (`NaN`/`inf` never appear in a well-formed trace)
//! are all errors naming the offending line. Strictness is what makes
//! `parse(format(t)) == t` and `format(parse(s)) == s` both hold
//! byte-for-byte — the property the round-trip suite pins.
//!
//! [`AttInst::LINES`] is the one table of canonical spellings. Formatting
//! goes through [`attacc_pim::isa::write_line`], which writes each
//! field's lead from it and then the digits, straight into one pre-sized
//! `String`. Parsing first matches the same bytes in place at each line
//! start: the opcode with its first key, then ` key=` and canonical
//! digits for each field, then `\n` or the end of the text. Anything
//! else — other whitespace (any Unicode whitespace separates fields, as
//! with `str::split_whitespace`), `\r\n`, a leading `+` or zero, an
//! out-of-range value, a wrong key, a float list — falls back to a token
//! cursor that reads the line field by field, lets `str::parse` decide
//! each value and builds the error message.

use attacc_pim::isa::{write_line, FieldKind};
use attacc_pim::AttInst;
use std::fmt;
use std::str::FromStr;

/// Initial `to_text` capacity per instruction: a timing-trace line such
/// as `declare_kv req=7 head=95 tokens=1` is about this long.
const LINE_BYTES_HINT: usize = 40;

/// The shortest instruction line, `admit req=0`, plus its newline.
const MIN_LINE_BYTES: usize = 12;

/// Where a line whose first and fourth bytes are `b0` and `b3` sits in
/// [`LEAD_HINT`].
const fn hint_slot(b0: u8, b3: u8) -> usize {
    ((b0 as usize & 0x1f) << 5) | (b3 as usize & 0x1f)
}

/// `1 +` the opcode index of each line's first lead at the
/// [`hint_slot`] of that lead's first and fourth bytes, `0` elsewhere.
/// Every opcode has a slot of its own; the in-place reader confirms a
/// hit against the whole lead.
const LEAD_HINT: [u8; 1024] = {
    let mut hint = [0u8; 1024];
    let mut i = 0;
    while i < AttInst::LINES.len() {
        let lead = AttInst::LINES[i][0].lead.as_bytes();
        let slot = hint_slot(lead[0], lead[3]);
        assert!(hint[slot] == 0, "two opcodes share a hint slot");
        hint[slot] = i as u8 + 1;
        i += 1;
    }
    hint
};

/// Canonical decimal digits at `at`: no sign, no leading zero, no
/// overflow. The value and the position after it.
#[inline]
fn canonical_digits(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    let first = bytes.get(at)?.wrapping_sub(b'0');
    if first > 9 {
        return None;
    }
    let (mut n, mut i) = (u64::from(first), at + 1);
    while let Some(d) = bytes.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        if n == 0 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(d))?;
        i += 1;
    }
    Some((n, i))
}

/// Reads the instruction line at `at` in place if it is spelled exactly
/// as [`write_line`] writes it and ends at `\n` or the end of `bytes`.
/// The instruction and the position of that end; `None` for any other
/// bytes, which the token cursor then reads.
#[inline]
fn canonical_line(bytes: &[u8], at: usize) -> Option<(AttInst, usize)> {
    let line = bytes.get(at..)?;
    let hint = LEAD_HINT[hint_slot(*line.first()?, *line.get(3)?)];
    let index = usize::from(hint).checked_sub(1)?;
    let fields = AttInst::LINES[index];
    let mut ints = [0u64; 3];
    let mut i = 0;
    for (value, field) in ints.iter_mut().zip(fields) {
        let lead = field.lead.as_bytes();
        if field.kind == FieldKind::F32s || line.get(i..i + lead.len())? != lead {
            return None;
        }
        (*value, i) = canonical_digits(line, i + lead.len())?;
    }
    if !matches!(line.get(i), None | Some(b'\n')) {
        return None;
    }
    Some((AttInst::from_fields(index, ints, Default::default())?, at + i))
}

/// A compiled instruction trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Instructions in execution order.
    pub insts: Vec<AttInst>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when the trace holds no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Renders the trace in the canonical text format (no comments, one
    /// instruction per line, trailing newline).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.insts.len() * LINE_BYTES_HINT);
        for inst in &self.insts {
            write_line(&mut out, inst).expect("writing to a String cannot fail");
            out.push('\n');
        }
        out
    }

    /// Parses a trace from text.
    ///
    /// # Errors
    /// Returns a [`TraceParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        // An upper bound on the instruction count, so the `Vec` never
        // regrows: capacity past the pushed instructions is never touched.
        let mut insts = Vec::with_capacity(text.len() / MIN_LINE_BYTES + 1);
        let mut cur = Cursor { s: text, pos: 0, eol: b'\n' };
        let mut line = 1;
        loop {
            if let Some((inst, end)) = canonical_line(text.as_bytes(), cur.pos) {
                insts.push(inst);
                cur.pos = end;
            } else {
                // A `\r` before the `\n` is whitespace to the cursor, so
                // `\r\n` files parse like `\n` files.
                cur.skip_ws();
                match text.as_bytes().get(cur.pos) {
                    None => break,
                    Some(b'\n') => {}
                    Some(b'#') => {
                        cur.pos = text[cur.pos..].find('\n').map_or(text.len(), |n| cur.pos + n);
                    }
                    Some(_) => {
                        let inst =
                            cur.inst().map_err(|message| TraceParseError { line, message })?;
                        insts.push(inst);
                    }
                }
            }
            // The cursor now sits on this line's `\n` or at the end.
            cur.pos += 1;
            line += 1;
        }
        Ok(Trace { insts })
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl FromStr for Trace {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Trace, TraceParseError> {
        Trace::parse(s)
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the input text.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// `char::is_whitespace` on an ASCII byte.
fn ascii_ws(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// A position in trace text. Fields are read in canonical order; each
/// reader first skips the whitespace before its field. Whitespace is
/// `char::is_whitespace` (the `split_whitespace` rule) except that the
/// byte `eol` ends the line: `\n` when reading a whole trace, and a byte
/// that never occurs in UTF-8 when reading a single line.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    eol: u8,
}

impl<'a> Cursor<'a> {
    /// Width in bytes of the non-ASCII character at `i`, and whether it
    /// is whitespace.
    #[cold]
    fn wide_char_at(&self, i: usize) -> (usize, bool) {
        let c = self.s[i..].chars().next().expect("cursor sits on a char boundary");
        (c.len_utf8(), c.is_whitespace())
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.s.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            if b == self.eol {
                break;
            } else if b.is_ascii() {
                if !ascii_ws(b) {
                    break;
                }
                i += 1;
            } else {
                let (width, ws) = self.wide_char_at(i);
                if !ws {
                    break;
                }
                i += width;
            }
        }
        self.pos = i;
    }

    /// The next whitespace-delimited token (empty at the end of the line).
    #[inline]
    fn token(&mut self) -> &'a str {
        self.skip_ws();
        let bytes = self.s.as_bytes();
        let start = self.pos;
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            if b.is_ascii() {
                if ascii_ws(b) {
                    break;
                }
                i += 1;
            } else {
                let (width, ws) = self.wide_char_at(i);
                if ws {
                    break;
                }
                i += width;
            }
        }
        self.pos = i;
        &self.s[start..i]
    }

    /// The raw value of the next field, which must be named `key`.
    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let tok = self.token();
        if tok.is_empty() {
            return Err(format!("missing field {key}"));
        }
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))?;
        if k != key {
            return Err(format!("expected field {key}, got {k}"));
        }
        Ok(v)
    }

    /// An unsigned integer field no larger than `max`.
    fn int(&mut self, key: &str, max: u64) -> Result<u64, String> {
        let v = self.value(key)?;
        v.parse::<u64>().ok().filter(|&n| n <= max).ok_or_else(|| format!("bad {key} value {v:?}"))
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
    fn end(&mut self) -> Result<(), String> {
        match self.token() {
            "" => Ok(()),
            extra => Err(format!("unexpected trailing field {extra:?}")),
        }
    }

    /// The instruction on the rest of the line, its fields read in
    /// [`AttInst::LINES`] order.
    fn inst(&mut self) -> Result<AttInst, String> {
        let mnemonic = self.token();
        if mnemonic.is_empty() {
            return Err("empty instruction".to_string());
        }
        let index = AttInst::OPCODES
            .binary_search(&mnemonic)
            .map_err(|_| format!("unknown opcode {mnemonic:?}"))?;
        let fields = AttInst::LINES[index];
        let (int_fields, float_fields) =
            fields.split_at(fields.partition_point(|f| f.kind != FieldKind::F32s));
        let (mut ints, mut floats) = ([0u64; 3], [Vec::new(), Vec::new()]);
        for (value, field) in ints.iter_mut().zip(int_fields) {
            *value = self.int(field.key(), field.kind.max())?;
        }
        for (value, field) in floats.iter_mut().zip(float_fields) {
            *value = self.vec_f32(field.key())?;
        }
        self.end()?;
        Ok(AttInst::from_fields(index, ints, floats).expect("every field is within its type"))
    }
}

/// Parses one canonical trace line into an instruction.
///
/// # Errors
/// Returns a message describing the first malformed field.
pub fn parse_inst(line: &str) -> Result<AttInst, String> {
    Cursor { s: line, pos: 0, eol: 0xff }.inst()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_instructions() -> Vec<AttInst> {
        vec![
            AttInst::SetModel { n_head: 96, d_head: 128, max_l: 2048 },
            AttInst::UpdateRequest { request: 0, remove: false },
            AttInst::AppendKv {
                request: 0,
                head: 3,
                k: Box::new(vec![0.5, -1.25, 3.0e-8]),
                v: Box::new(vec![0.0, -0.0, 1.0]),
            },
            AttInst::DeclareKv { request: 0, head: 3, tokens: 512 },
            AttInst::LoadQ { request: 0, head: 3, q: Box::new(vec![1.5, f32::MIN_POSITIVE]) },
            AttInst::RunAttention { request: 0, head: 3 },
            AttInst::RunAttentionBatch { request: 0, head0: 0, n_heads: 96 },
            AttInst::ReadOutput { request: 0, head: 3 },
            AttInst::EvictKv { request: 0, head: 3, keep_last: 256 },
            AttInst::ConfigPages { tokens_per_page: 64 },
            AttInst::MapPage { request: 0, head: 3, page: 7 },
            AttInst::UnmapPage { request: 0, head: 3, page: 7 },
            AttInst::Barrier { tag: 1 },
            AttInst::UpdateRequest { request: 0, remove: true },
        ]
    }

    #[test]
    fn every_opcode_round_trips() {
        let trace = Trace { insts: all_instructions() };
        let text = trace.to_text();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_text(), text, "format∘parse must be the identity");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\nbarrier tag=0\n  # indented comment\nrun req=1 head=2\n";
        let t: Trace = text.parse().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.insts[1], AttInst::RunAttention { request: 1, head: 2 });
    }

    #[test]
    fn shortest_float_notation_preserves_bits() {
        let vals = [0.1f32, -0.0, 1.0 / 3.0, f32::MAX, f32::MIN_POSITIVE, 2.5e-38];
        let inst = AttInst::LoadQ { request: 0, head: 0, q: Box::new(vals.to_vec()) };
        let back = parse_inst(&inst.to_string()).unwrap();
        let AttInst::LoadQ { q, .. } = back else { panic!("wrong opcode") };
        for (a, b) in vals.iter().zip(q.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let bad = [
            "warp req=0",                         // unknown opcode
            "run req=0",                          // missing field
            "run head=0 req=0",                   // wrong field order
            "run req=0 head=0 extra=1",           // trailing field
            "run req=-1 head=0",                  // bad integer
            "load_q req=0 head=0 q=1.0,NaN",      // non-finite float
            "load_q req=0 head=0 q=inf",          // non-finite float
            "load_q req=0 head=0 q=1.0,,2.0",     // empty element
            "barrier 7",                          // missing key=
        ];
        for line in bad {
            assert!(parse_inst(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn parse_error_points_at_the_line() {
        let err = Trace::parse("barrier tag=0\nbogus op\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_vectors_round_trip() {
        let inst = AttInst::LoadQ { request: 1, head: 0, q: Box::default() };
        assert_eq!(parse_inst(&inst.to_string()).unwrap(), inst);
    }
}
