//! Differential tests: the crate's codec and timing replay must agree
//! exactly with the straightforward reference implementations in
//! `oracle/` — the same text byte for byte, the same parse result
//! (instructions, or error line and message), and the same replay result
//! (report bits, or error and instruction index).

mod oracle;

use attacc_model::ModelConfig;
use attacc_pim::{AttInst, InstError};
use attacc_trace::{
    compile, execute_timing, head_cost, parse_inst, DecodeSchedule, KvPolicy, TimingConfig, Trace,
    TracePayload,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Finite f32s drawn uniformly from the bit space (an all-ones exponent
/// has one bit cleared, landing on a finite pattern).
fn arb_finite_f32() -> impl Strategy<Value = f32> {
    (u32::MIN..=u32::MAX).prop_map(|bits| {
        let bits = if (bits >> 23) & 0xff == 0xff { bits & !(1 << 23) } else { bits };
        f32::from_bits(bits)
    })
}

fn arb_vec_f32() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(arb_finite_f32(), 0..4)
}

/// Any instruction, integers over their full range.
fn arb_inst() -> impl Strategy<Value = AttInst> {
    let any_u64 = || u64::MIN..=u64::MAX;
    let any_u32 = || u32::MIN..=u32::MAX;
    prop_oneof![
        (any_u32(), any_u64(), any_u64()).prop_map(|(n_head, d_head, max_l)| {
            AttInst::SetModel { n_head, d_head: d_head as usize, max_l }
        }),
        (any_u64(), 0u32..2)
            .prop_map(|(request, remove)| AttInst::UpdateRequest { request, remove: remove == 1 }),
        (any_u64(), any_u32(), arb_vec_f32(), arb_vec_f32()).prop_map(|(request, head, k, v)| {
            AttInst::AppendKv { request, head, k: Box::new(k), v: Box::new(v) }
        }),
        (any_u64(), any_u32(), any_u64())
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (any_u64(), any_u32(), arb_vec_f32())
            .prop_map(|(request, head, q)| AttInst::LoadQ { request, head, q: Box::new(q) }),
        (any_u64(), any_u32()).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (any_u64(), any_u32(), any_u32()).prop_map(|(request, head0, n_heads)| {
            AttInst::RunAttentionBatch { request, head0, n_heads }
        }),
        (any_u64(), any_u32()).prop_map(|(request, head)| AttInst::ReadOutput { request, head }),
        (any_u64(), any_u32(), any_u64())
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
        any_u64().prop_map(|tokens_per_page| AttInst::ConfigPages { tokens_per_page }),
        (any_u64(), any_u32(), any_u64())
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (any_u64(), any_u32(), any_u64())
            .prop_map(|(request, head, page)| AttInst::UnmapPage { request, head, page }),
        any_u32().prop_map(|tag| AttInst::Barrier { tag }),
        // Small values too, so one- and two-digit integers are common.
        (0u64..10, 0u32..100, 0u64..10)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
    ]
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// Whitespace a mutation may put between fields: ASCII blanks, vertical
/// tab, form feed, and two non-ASCII Unicode spaces.
const SPACES: [&str; 7] = [" ", "\t", "\x0B", "\x0C", "\u{A0}", "\u{3000}", "\r"];

/// Replacement values for an integer field.
const INTS: [&str; 10] = [
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "+7",
    "++7",
    "-1",
    "+",
    "",
    "007",
];

/// Replacement values for a float-list field.
const FLOATS: [&str; 11] =
    ["", ",", "1.0,,2.0", "inf", "NaN", "-inf", "1e39", "+1.5", ".5", "1,", "0x10"];

/// Characters a mutation may insert anywhere.
const STRAY: [&str; 8] = ["=", ",", "#", "x", "é", "\u{2028}", "\u{85}", "\u{1680}"];

fn pick<'a>(options: &[&'a str], r: u64) -> &'a str {
    options[(r % options.len() as u64) as usize]
}

/// Byte ranges of the whitespace-separated fields of `line`.
fn fields(line: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices() {
        match (c.is_whitespace(), start) {
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, line.len()));
    }
    out
}

/// A char boundary of `line` chosen by `r` (the end included).
fn boundary(line: &str, r: u64) -> usize {
    let bounds: Vec<usize> = line.char_indices().map(|(i, _)| i).chain([line.len()]).collect();
    bounds[(r % bounds.len() as u64) as usize]
}

/// Applies mutation `kind` (with randomness `r`) to `lines`, each entry
/// one line including its terminator.
fn mutate(lines: &mut Vec<String>, kind: u32, r: u64) {
    if lines.is_empty() {
        return;
    }
    let at = (r % lines.len() as u64) as usize;
    let r2 = r >> 16;
    let body_len = lines[at].trim_end_matches(['\n', '\r']).len();
    let (body, end) = lines[at].split_at(body_len);
    let (mut body, end) = (body.to_string(), end.to_string());
    let fs = fields(&body);
    let field = (!fs.is_empty()).then(|| fs[(r2 % fs.len() as u64) as usize]);
    match kind {
        // A run of whitespace between fields, or around the line.
        0 => {
            let run: String = (0..1 + r2 % 3).map(|j| pick(&SPACES, r2 >> (4 * j))).collect();
            let pos = match fs.len() {
                0 | 1 => [0, body.len()][(r2 % 2) as usize],
                n => fs[(1 + r2 % (n as u64 - 1)) as usize].0,
            };
            body.insert_str(pos, &run);
        }
        // `\r\n` line endings.
        1 => {
            lines[at] = format!("{body}\r\n");
            return;
        }
        // A leading `+` on a value.
        2 => {
            if let Some(eq) = body.find('=') {
                body.insert(eq + 1, '+');
            }
        }
        // An integer value at or past a type's range.
        3 => {
            if let Some((s, e)) = field {
                if let Some(eq) = body[s..e].find('=') {
                    body.replace_range(s + eq + 1..e, pick(&INTS, r2 >> 8));
                }
            }
        }
        // Empty, doubled-comma and non-finite float lists.
        4 => {
            for key in [" k=", " v=", " q="] {
                if let Some(p) = body.find(key) {
                    let s = p + key.len();
                    let e = body[s..].find(' ').map_or(body.len(), |n| s + n);
                    body.replace_range(s..e, pick(&FLOATS, r2 >> 8));
                    break;
                }
            }
        }
        // Comment and blank lines.
        5 => {
            let extra = match r2 % 4 {
                0 => "# comment\n",
                1 => "   # indented comment with=fields\n",
                2 => "\n",
                _ => " \t\u{A0}\n",
            };
            lines.insert(at, extra.to_string());
            return;
        }
        // A truncated line.
        6 => body.truncate(boundary(&body, r2)),
        // Two fields swapped.
        7 => {
            if fs.len() >= 2 {
                let n = fs.len() as u64;
                let i = (r2 % n) as usize;
                let j = ((r2 % n + 1 + (r2 >> 8) % (n - 1)) % n) as usize;
                let (a, b) = (fs[i.min(j)], fs[i.max(j)]);
                let swapped = format!(
                    "{}{}{}{}{}",
                    &body[..a.0],
                    &body[b.0..b.1],
                    &body[a.1..b.0],
                    &body[a.0..a.1],
                    &body[b.1..]
                );
                body = swapped;
            }
        }
        // A stray character.
        8 => body.insert_str(boundary(&body, r2), pick(&STRAY, r2 >> 12)),
        // A deleted character.
        9 => {
            let p = boundary(&body, r2);
            if p < body.len() {
                body.remove(p);
            }
        }
        // A dropped field, or a final line without its newline.
        _ => {
            if let Some((s, e)) = field.filter(|_| r2.is_multiple_of(2)) {
                body.replace_range(s..e, "");
            } else if at + 1 == lines.len() {
                lines[at] = body;
                return;
            }
        }
    }
    lines[at] = body + &end;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn to_text_matches_the_reference_formatter(insts in prop::collection::vec(arb_inst(), 0..12)) {
        let trace = Trace { insts };
        prop_assert_eq!(trace.to_text(), oracle::to_text(&trace));
        for inst in &trace.insts {
            prop_assert_eq!(inst.to_string(), oracle::Line(inst).to_string());
        }
    }

    #[test]
    fn parse_matches_the_reference_parser_on_mutated_text(
        insts in prop::collection::vec(arb_inst(), 1..8),
        mutations in prop::collection::vec((0u32..11, u64::MIN..=u64::MAX), 0..5),
    ) {
        let canonical = oracle::to_text(&Trace { insts });
        let mut lines: Vec<String> = canonical.split_inclusive('\n').map(String::from).collect();
        for &(kind, r) in &mutations {
            mutate(&mut lines, kind, r);
        }
        let text = lines.concat();
        let (got, want) = (Trace::parse(&text), oracle::parse(&text));
        prop_assert!(got == want, "text {text:?}\n  got  {got:?}\n  want {want:?}");
        // A single line, or several read as one (`\n` is then plain
        // whitespace).
        for one in std::iter::once(text.as_str()).chain(text.lines()) {
            let (got, want) = (parse_inst(one), oracle::parse_inst(one));
            prop_assert!(got == want, "line {one:?}\n  got  {got:?}\n  want {want:?}");
        }
    }
}

#[test]
fn mutation_examples_agree_with_the_reference_parser() {
    let cases = [
        "run req=0 head=0\r\n",
        "run\u{A0}req=0\u{3000}head=0",
        "run req=+0 head=+1\n",
        "run req=0 head=4294967296\n",
        "declare_kv req=18446744073709551616 head=0 tokens=1\n",
        "load_q req=0 head=0 q=\n",
        "load_q req=0 head=0 q=1.0,,2.0\n",
        "load_q req=0 head=0 q=inf\n",
        "load_q req=0 head=0 q=NaN\n",
        "# only a comment\n\n   \n",
        "run req=0\n",
        "run head=0 req=0\n",
        "run req=0 head=0 extra=1\n",
        "run req==0 head=0\n",
        "run =0 head=0\n",
        "run req head=0\n",
        "run req=0é head=0\n",
        "barrier tag=1\nwarp req=0\n",
        "run req=0 head=0\n\u{85}\n",
        "",
        // Off the in-place reader's canonical bytes: a longer mnemonic,
        // other whitespace, a leading zero or `+`, integers past their
        // type, a last line without `\n`, `\r\n` endings.
        "declare_kvx req=0 head=0 tokens=1\n",
        "map_page\treq=0 head=0 page=1\n",
        "declare_kv req=0 head=0\u{3000}tokens=1\n",
        "evict_kv req=0 head=0 keep_last=007\n",
        "run_batch req=0 head0=+0 n_heads=96\n",
        "map_page req=0 head=4294967296 page=0\n",
        "unmap_page req=0 head=0 page=18446744073709551616\n",
        "barrier tag=0\ndeclare_kv req=1 head=2 tokens=3",
        "declare_kv req=0 head=0 tokens=1\r\nrun req=0 head=0\r\nwarp req=0\r\n",
    ];
    for text in cases {
        assert_eq!(Trace::parse(text), oracle::parse(text), "{text:?}");
        assert_eq!(parse_inst(text), oracle::parse_inst(text), "{text:?}");
    }
}

/// The codec on real compiler output: timing traces of GPT-3 under each
/// KV policy, so every opcode a compiled trace holds crosses the
/// in-place reader.
#[test]
fn compiled_traces_agree_with_the_reference_codec() {
    let model = ModelConfig::gpt3_175b();
    let policies = [
        KvPolicy::Full,
        KvPolicy::SlidingWindow { window: 256 },
        KvPolicy::Paged { tokens_per_page: 256, recent_pages: 2 },
    ];
    for policy in policies {
        for prompt_l in [512, 2048] {
            let schedule = DecodeSchedule::uniform(8, prompt_l, 4, policy, TracePayload::Timing);
            let trace = compile(&model, &schedule);
            let text = trace.to_text();
            assert!(text == oracle::to_text(&trace), "{policy:?}, L_in {prompt_l}");
            let parsed = Trace::parse(&text);
            assert!(parsed == oracle::parse(&text), "{policy:?}, L_in {prompt_l}");
            assert!(parsed.is_ok_and(|p| p == trace), "{policy:?}, L_in {prompt_l}");
        }
    }
}

// ---------------------------------------------------------------------
// Timing replay
// ---------------------------------------------------------------------

/// Instructions over a few requests, heads and pages, so streams collide
/// on the same state. Most touch requests 0 and 1 and heads 0 and 1,
/// which the usual prefix makes valid; the rest reach heads up to 7 in
/// any order, so a request's touched heads can be sparse. Bulk KV,
/// launches and page maps are weighted up so streams reach attention
/// before their first error.
fn arb_replay_inst() -> impl Strategy<Value = AttInst> {
    let (req, head) = (|| 0u64..2, || prop_oneof![0u32..2, 0u32..2, 0u32..2, 0u32..8]);
    prop_oneof![
        (1u32..9, 1usize..9, 1u64..64)
            .prop_map(|(n_head, d_head, max_l)| AttInst::SetModel { n_head, d_head, max_l }),
        (0u64..4).prop_map(|request| AttInst::UpdateRequest { request, remove: false }),
        (0u64..4).prop_map(|request| AttInst::UpdateRequest { request, remove: true }),
        (req(), 0u32..3).prop_map(|(request, head)| AttInst::AppendKv {
            request,
            head,
            k: Box::default(),
            v: Box::default(),
        }),
        (req(), head(), 0u64..40)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (req(), head(), 1u64..40)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (req(), 0u32..3, 0u32..2).prop_map(|(request, head, read)| match read {
            0 => AttInst::LoadQ { request, head, q: Box::default() },
            _ => AttInst::ReadOutput { request, head },
        }),
        (req(), head()).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (req(), head(), 0u32..3).prop_map(|(request, head0, n_heads)| {
            AttInst::RunAttentionBatch { request, head0, n_heads }
        }),
        (req(), 0u32..5).prop_map(|(request, n_heads)| {
            AttInst::RunAttentionBatch { request, head0: 0, n_heads }
        }),
        (req(), head(), 0u64..40)
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
        (0u64..8).prop_map(|tokens_per_page| AttInst::ConfigPages { tokens_per_page }),
        (req(), head(), 0u64..6)
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (req(), head(), 0u64..6)
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (req(), head(), 0u64..6)
            .prop_map(|(request, head, page)| AttInst::UnmapPage { request, head, page }),
        (0u32..4).prop_map(|tag| AttInst::Barrier { tag }),
    ]
}

/// A replayable stream, then random instructions. Seven times in eight
/// it opens with `set_model` and two admissions; on top of that, some
/// streams configure paging, and most declare KV on every head (mapping
/// page 0 when paged) so launches find context.
fn arb_stream(
    kinds: std::ops::Range<u32>,
    body: impl Strategy<Value = Vec<AttInst>>,
) -> impl Strategy<Value = Trace> {
    let prefix = (kinds, 2u32..5, 1usize..9, 0u64..8, 1u64..40);
    (prefix, body).prop_map(
        |((kind, n_head, d_head, tokens_per_page, tokens), body)| {
            let mut insts = Vec::new();
            if kind > 0 {
                insts.push(AttInst::SetModel { n_head, d_head, max_l: 64 });
                let paged = kind.is_multiple_of(2);
                if paged {
                    insts.push(AttInst::ConfigPages { tokens_per_page });
                }
                for request in 0..2 {
                    insts.push(AttInst::UpdateRequest { request, remove: false });
                    for head in (0..n_head).filter(|_| kind > 2) {
                        insts.push(AttInst::DeclareKv { request, head, tokens });
                        if paged {
                            insts.push(AttInst::MapPage { request, head, page: 0 });
                        }
                    }
                }
            }
            insts.extend(body);
            Trace { insts }
        },
    )
}

/// A KV-declaring prefix, then instructions that stay valid after it:
/// requests 0 and 1 stay admitted, heads 0 and 1 exist, no eviction
/// empties a head and no page is unmapped (nor mapped without paging),
/// so every launch runs and the report's floats get compared.
fn arb_live_stream() -> impl Strategy<Value = Trace> {
    arb_stream(3..8, prop::collection::vec(arb_live_inst(), 0..40)).prop_map(|mut trace| {
        let paged = trace.insts.iter().any(|i| i.opcode() == "config_pages");
        trace.insts.retain(|i| paged || i.opcode() != "map_page");
        trace
    })
}

/// The instructions of [`arb_live_stream`].
fn arb_live_inst() -> impl Strategy<Value = AttInst> {
    let (req, head) = (|| 0u64..2, || 0u32..2);
    prop_oneof![
        (req(), head(), 0u64..40)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (req(), head()).prop_map(|(request, head)| AttInst::AppendKv {
            request,
            head,
            k: Box::default(),
            v: Box::default(),
        }),
        (req(), head()).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (req(), 1u32..3).prop_map(|(request, n_heads)| {
            AttInst::RunAttentionBatch { request, head0: 0, n_heads }
        }),
        (req(), head(), 1u64..40)
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
        (req(), head(), 0u64..6)
            .prop_map(|(request, head, page)| AttInst::MapPage { request, head, page }),
        (req(), head()).prop_map(|(request, head)| AttInst::ReadOutput { request, head }),
        (0u32..4).prop_map(|tag| AttInst::Barrier { tag }),
    ]
}

/// Eight heads and two admitted requests, then KV, launches and evictions
/// on heads picked in any order, so a request's touched heads are sparse
/// and created out of order.
fn arb_sparse_heads() -> impl Strategy<Value = Trace> {
    let (req, head) = (|| 0u64..2, || 0u32..8);
    let inst = prop_oneof![
        (req(), head(), 1u64..40)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (req(), head(), 1u64..40)
            .prop_map(|(request, head, tokens)| AttInst::DeclareKv { request, head, tokens }),
        (req(), head()).prop_map(|(request, head)| AttInst::RunAttention { request, head }),
        (req(), head(), 1u64..40)
            .prop_map(|(request, head, keep_last)| AttInst::EvictKv { request, head, keep_last }),
    ];
    prop::collection::vec(inst, 0..40).prop_map(|body| {
        let mut insts = vec![
            AttInst::SetModel { n_head: 8, d_head: 8, max_l: 64 },
            AttInst::UpdateRequest { request: 0, remove: false },
            AttInst::UpdateRequest { request: 1, remove: false },
        ];
        insts.extend(body);
        Trace { insts }
    })
}

/// Replays `trace` through both implementations and requires the same
/// outcome, floats compared bit for bit (their `Debug` form is the
/// shortest round-trip decimal).
fn same_replay(trace: &Trace) -> Result<(), String> {
    let cfg = TimingConfig::paper();
    let got = execute_timing(&cfg, trace);
    let want = oracle::execute_timing(&cfg, trace);
    if got != want || format!("{got:?}") != format!("{want:?}") {
        return Err(format!("trace {:?}\n  got  {got:?}\n  want {want:?}", trace.insts));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn replay_matches_the_reference_on_random_streams(
        trace in arb_stream(0..8, prop::collection::vec(arb_replay_inst(), 0..40)),
    ) {
        same_replay(&trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn replay_matches_the_reference_on_live_streams(
        trace in arb_live_stream(),
    ) {
        same_replay(&trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn replay_matches_the_reference_on_sparse_heads(trace in arb_sparse_heads()) {
        same_replay(&trace).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn replay_scenarios_agree_with_the_reference() {
    let cfg = TimingConfig::paper();
    let setup = "set_model n_head=2 d_head=8 max_l=64\nadmit req=0\n";
    // Each body runs after `setup`; `Ok(l)` is one launch over `l` tokens.
    let cases: [(&str, Result<u64, InstError>); 11] = [
        // Re-admitting a live request keeps its KV.
        ("declare_kv req=0 head=0 tokens=5\nadmit req=0\nrun req=0 head=0\n", Ok(5)),
        // Retiring and re-admitting an id starts from an empty cache.
        (
            "declare_kv req=0 head=0 tokens=5\nretire req=0\nadmit req=0\nrun req=0 head=0\n",
            Err(InstError::EmptyKv.at_index(5)),
        ),
        // A second set_model forgets every request.
        (
            "declare_kv req=0 head=0 tokens=5\nset_model n_head=2 d_head=8 max_l=64\n\
             run req=0 head=0\n",
            Err(InstError::UnknownRequest(0).at_index(4)),
        ),
        ("unmap_page req=0 head=0 page=3\n", Err(InstError::PagingNotConfigured.at_index(2))),
        ("map_page req=0 head=0 page=3\n", Err(InstError::PagingNotConfigured.at_index(2))),
        (
            "config_pages tokens_per_page=4\nmap_page req=0 head=0 page=1\n\
             unmap_page req=0 head=0 page=3\n",
            Err(InstError::PageNotMapped(3).at_index(4)),
        ),
        (
            "config_pages tokens_per_page=4\ndeclare_kv req=0 head=0 tokens=5\nrun req=0 head=0\n",
            Err(InstError::NothingMapped.at_index(4)),
        ),
        (
            "declare_kv req=0 head=0 tokens=5\nrun_batch req=0 head0=0 n_heads=2\n",
            Err(InstError::EmptyKv.at_index(3)),
        ),
        // An empty head group launches nothing, so nothing is checked.
        ("run_batch req=9 head0=7 n_heads=0\n", Ok(0)),
        // Heads touched out of order keep their own state.
        (
            "declare_kv req=0 head=1 tokens=5\ndeclare_kv req=0 head=0 tokens=3\n\
             run req=0 head=1\n",
            Ok(5),
        ),
        ("declare_kv req=0 head=1 tokens=5\nrun req=0 head=0\n", Err(InstError::EmptyKv.at_index(3))),
    ];
    for (body, want) in cases {
        let trace = Trace::parse(&format!("{setup}{body}")).unwrap();
        same_replay(&trace).unwrap_or_else(|e| panic!("{e}"));
        let got = execute_timing(&cfg, &trace);
        match want {
            Ok(l) => {
                let report = got.unwrap_or_else(|e| panic!("{body:?}: {e}"));
                let expect = if l == 0 { 0.0 } else { head_cost(&cfg, l, 8).time_s };
                assert_eq!(report.attention_s.to_bits(), expect.to_bits(), "{body:?}");
            }
            Err(e) => assert_eq!(got.unwrap_err(), e, "{body:?}"),
        }
    }
}
