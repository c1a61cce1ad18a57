//! Engine-vs-filter differential testing: the `Engine`/`Session`
//! surface must reproduce the bare algorithm layer exactly — same
//! verdicts *and* same peak-bit space statistics — and its pull-based
//! event source must filter large documents without buffering them.

use frontier_xpath::filter::CompiledQuery;
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    html_soup_corpus, json_queries, json_records, random_document, soup_queries, HtmlSoupConfig,
    JsonRecordsConfig, RandomDocConfig,
};
use frontier_xpath::xml::StreamingParser;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Read;
use std::sync::Arc;

/// The same query pool the legacy differential suite sweeps.
const QUERIES: &[&str] = &[
    "/a[b and c]",
    "//a[b and c]",
    "/a[b > 5]",
    "/a[b]/c",
    "//a//b",
    "/a/b/c",
    "/a[c[.//e and f] and b > 5]",
    "/a[b = \"x\"]",
    "//a[b]/c[d]",
    "/a[.//b and c]",
    "//b[a and .//c]",
    "/a/*/b",
    "//a[b > 2 and c]",
    "/x[a and b and c and d]",
    "//c[.//a]",
    "/a[contains(b, \"x\")]",
];

const LINEAR_QUERIES: &[&str] = &["/a/b", "//a//b", "/a//b/c", "//x", "/a/*/b"];

/// Verdict AND peak-bit parity between `Engine` (Frontier backend) and
/// a bare `StreamFilter` over the seeded random-document generator.
#[test]
fn frontier_backend_matches_legacy_verdicts_and_bits() {
    let mut rng = SmallRng::seed_from_u64(0xE9611E);
    let cfg = RandomDocConfig {
        max_depth: 7,
        max_children: 4,
        names: ["a", "b", "c", "d", "e", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        text_values: vec![
            String::new(),
            "1".into(),
            "3".into(),
            "6".into(),
            "x".into(),
        ],
    };
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let engine = Engine::builder()
            .query(q.clone())
            .backend(Backend::Frontier)
            .build()
            .unwrap();
        for _ in 0..40 {
            let d = random_document(&mut rng, &cfg);
            let events = d.to_events();

            // One bare-filter pass yields both verdict and instrumented
            // stats (the filter itself is covered by `differential.rs`
            // and the proptest parity case below).
            let mut legacy = StreamFilter::new(&q).unwrap();
            let legacy_verdict = legacy.run_stream(&events).unwrap();
            let legacy_bits = legacy.stats().max_bits;

            // New: a fresh engine session over the same events.
            let verdicts = engine.run_events(&events).unwrap();
            assert_eq!(
                verdicts.matched(),
                &[legacy_verdict],
                "{src} on {}",
                d.to_xml()
            );
            assert_eq!(
                verdicts.peak_memory_bits(),
                &[legacy_bits],
                "peak bits diverged: {src} on {}",
                d.to_xml()
            );
        }
    }
}

/// The reader path (EventIter under the hood) agrees with the event path.
#[test]
fn run_reader_matches_run_events() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let cfg = RandomDocConfig::default();
    for src in QUERIES {
        let engine = Engine::builder().query_str(src).build().unwrap();
        for _ in 0..20 {
            let d = random_document(&mut rng, &cfg);
            let via_events = engine.run_events(&d.to_events()).unwrap();
            let via_reader = engine.run_reader(d.to_xml().as_bytes()).unwrap();
            assert_eq!(
                via_events.matched(),
                via_reader.matched(),
                "{src} on {}",
                d.to_xml()
            );
        }
    }
}

/// A one-query session's verdict and peak bits must be those of a bare
/// `StreamFilter` fed `events`.
fn assert_bare_parity(got: &Verdicts, q: &Query, events: &[Event], what: &str, doc: &str) {
    let mut bare = StreamFilter::new(q).unwrap();
    let verdict = bare.run_stream(events).unwrap();
    assert_eq!(got.matched(), &[verdict], "verdict: {what} on {doc}");
    assert_eq!(
        got.peak_memory_bits(),
        &[bare.stats().max_bits],
        "peak bits: {what} on {doc}"
    );
}

/// One-query `Frontier` sessions run a bare filter on the interned
/// reader path, and a reused session reproduces a bare `StreamFilter`
/// fed the same events exactly — verdict *and* peak bits — through
/// `run_reader` (XML) and `run_source` (HTML, JSON, NDJSON).
#[test]
fn one_query_reader_paths_match_bare_filter() {
    let mut rng = SmallRng::seed_from_u64(0x1F11);
    let cfg = RandomDocConfig::default();
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let engine = Engine::builder().query(q.clone()).build().unwrap();
        let mut session = engine.session();
        for _ in 0..20 {
            let d = random_document(&mut rng, &cfg);
            let xml = d.to_xml();
            let v = session.run_reader(xml.as_bytes()).unwrap();
            assert_bare_parity(&v, &q, &d.to_events(), src, &xml);
        }
    }

    let corpus = html_soup_corpus(&mut rng, &HtmlSoupConfig::default(), 16);
    for src in soup_queries() {
        let q = parse_query(&src).unwrap();
        let engine = Engine::builder().query(q.clone()).build().unwrap();
        let mut session = engine.session();
        let mut html = engine.html_source();
        for doc in &corpus {
            let v = session.run_source(&mut html, doc.html.as_bytes()).unwrap();
            assert_bare_parity(&v, &q, &parse_html(&doc.html), &src, &doc.html);
        }
    }

    // NDJSON lines are the records with their insignificant newlines
    // turned into spaces (a raw newline never occurs inside a string).
    let records = json_records(&mut rng, &JsonRecordsConfig::default(), 24);
    for src in json_queries() {
        let q = parse_query(&src).unwrap();
        let engine = Engine::builder().query(q.clone()).build().unwrap();
        let mut session = engine.session();
        let mut json = engine.json_source();
        for rec in &records {
            let v = session.run_source(&mut json, rec.json.as_bytes()).unwrap();
            assert_bare_parity(&v, &q, &parse_json(&rec.json).unwrap(), &src, &rec.json);
        }
        let mut ndjson = engine.ndjson_source();
        for group in records.chunks(3) {
            let lines: String = group
                .iter()
                .map(|r| format!("{}\n", r.json.replace('\n', " ")))
                .collect();
            let events: Vec<Event> = group
                .iter()
                .flat_map(|r| parse_json(&r.json).unwrap())
                .collect();
            let v = session.run_source(&mut ndjson, lines.as_bytes()).unwrap();
            assert_bare_parity(&v, &q, &events, &src, &lines);
        }
    }
}

/// A one-query selection session streams exactly what a one-query
/// reporting `MultiFilter` fed by a parser sharing its table streams —
/// the same matches (ordinals and spans) in the same order, with the
/// same verdict, peak bits and pending-position peak — on a reused
/// session.
#[test]
fn one_query_selection_streams_match_the_reporting_bank() {
    let mut rng = SmallRng::seed_from_u64(0x5E1EC7);
    let cfg = RandomDocConfig::default();
    let mut matched = 0usize;
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let engine = Engine::builder().query(q.clone()).select().build().unwrap();
        let mut session = engine.session();
        let mut bank =
            MultiFilter::from_compiled_reporting([CompiledQuery::compile(&q).unwrap()]).unwrap();
        let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols()));
        for _ in 0..20 {
            let xml = random_document(&mut rng, &cfg).to_xml();
            let mut got: Vec<Match> = Vec::new();
            let v = session.run_reader_to(xml.as_bytes(), &mut got).unwrap();
            let mut want: Vec<Match> = Vec::new();
            parser.reset();
            parser
                .drive_reader(xml.as_bytes(), &mut |ev, span| {
                    bank.process_sym_to(ev, span, &mut want)
                })
                .unwrap();
            assert_eq!(got, want, "{src} on {xml}");
            assert_eq!(v.matched(), &[bank.results()[0].unwrap()], "{src} on {xml}");
            assert_eq!(v.peak_memory_bits(), &[bank.stats()[0].max_bits]);
            assert_eq!(v.peak_pending_positions(), bank.peak_pending_positions());
            matched += got.len();
        }
    }
    assert!(matched > 50, "the corpus must produce matches: {matched}");
}

/// Every backend agrees with the reference evaluator on linear queries.
#[test]
fn all_backends_agree_with_reference_on_linear_queries() {
    let mut rng = SmallRng::seed_from_u64(0xBACE);
    let cfg = RandomDocConfig::default();
    for src in LINEAR_QUERIES {
        let q = parse_query(src).unwrap();
        let engines: Vec<Engine> = [
            Backend::Frontier,
            Backend::Nfa,
            Backend::LazyDfa,
            Backend::Buffering,
        ]
        .iter()
        .map(|&b| {
            Engine::builder()
                .query(q.clone())
                .backend(b)
                .build()
                .unwrap()
        })
        .collect();
        for _ in 0..25 {
            let d = random_document(&mut rng, &cfg);
            let reference = bool_eval(&q, &d).unwrap();
            let events = d.to_events();
            for engine in &engines {
                assert_eq!(
                    engine.run_events(&events).unwrap().any(),
                    reference,
                    "{src} via {:?} on {}",
                    engine.backend(),
                    d.to_xml()
                );
            }
        }
    }
}

/// A multi-query session agrees with per-query legacy runs, including
/// the short-circuiting `MultiFilter` bank.
#[test]
fn multi_query_session_agrees_with_legacy_bank() {
    let queries: Vec<Query> = QUERIES.iter().map(|s| parse_query(s).unwrap()).collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .build()
        .unwrap();
    let mut session = engine.session();
    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    let cfg = RandomDocConfig::default();
    for _ in 0..30 {
        let d = random_document(&mut rng, &cfg);
        let events = d.to_events();
        let verdicts = session.run_reader(d.to_xml().as_bytes()).unwrap();
        let mut bank = MultiFilter::new(&queries).unwrap();
        for e in &events {
            bank.process(e);
        }
        for (i, q) in queries.iter().enumerate() {
            let solo = StreamFilter::new(q).unwrap().run_stream(&events).unwrap();
            assert_eq!(
                verdicts.matched()[i],
                solo,
                "session: {} on {}",
                QUERIES[i],
                d.to_xml()
            );
            assert_eq!(
                bank.results()[i],
                Some(solo),
                "bank: {} on {}",
                QUERIES[i],
                d.to_xml()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Proptest-driven parity on (query, seed) pairs.
    #[test]
    fn engine_agrees_on_proptest_pairs(qi in 0..QUERIES.len(), seed in 0u64..100_000) {
        let q = parse_query(QUERIES[qi]).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let bare = StreamFilter::new(&q).unwrap().run_stream(&d.to_events()).unwrap();
        let engine = Engine::builder().query(q).build().unwrap();
        prop_assert_eq!(engine.run_str(&d.to_xml()).unwrap().any(), bare);
    }
}

/// A `Read` that synthesizes a huge catalog on the fly: the document
/// never exists in memory, so a bounded-memory pass over it proves the
/// engine is truly streaming end to end.
struct SyntheticCatalog {
    items: usize,
    emitted: usize,
    buffer: Vec<u8>,
    state: usize, // 0 = header, 1 = items, 2 = footer, 3 = done
}

impl SyntheticCatalog {
    fn new(items: usize) -> SyntheticCatalog {
        SyntheticCatalog {
            items,
            emitted: 0,
            buffer: Vec::new(),
            state: 0,
        }
    }
}

impl Read for SyntheticCatalog {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.buffer.is_empty() && self.state != 3 {
            match self.state {
                0 => {
                    self.buffer.extend_from_slice(b"<catalog>");
                    self.state = 1;
                }
                1 => {
                    if self.emitted < self.items {
                        let i = self.emitted;
                        self.buffer.extend_from_slice(
                            format!("<item><price>{}</price></item>", i % 500).as_bytes(),
                        );
                        self.emitted += 1;
                    } else {
                        self.state = 2;
                    }
                }
                2 => {
                    self.buffer.extend_from_slice(b"</catalog>");
                    self.state = 3;
                }
                _ => unreachable!(),
            }
        }
        let n = self.buffer.len().min(out.len());
        out[..n].copy_from_slice(&self.buffer[..n]);
        self.buffer.drain(..n);
        Ok(n)
    }
}

/// The acceptance-criteria scenario: a document far larger than any
/// buffer filters end-to-end through `run_reader` with flat peak memory
/// — no `Vec<Event>` (or the document itself) is ever materialized.
#[test]
fn event_iter_filters_large_document_without_buffering() {
    let engine = Engine::builder()
        .query_str("//item[price > 400]")
        .build()
        .unwrap();

    let small = engine.run_reader(SyntheticCatalog::new(500)).unwrap();
    let large = engine.run_reader(SyntheticCatalog::new(200_000)).unwrap();
    assert!(small.any() && large.any());
    // StartDocument/EndDocument + <catalog>…</catalog> + five events per
    // item (start, start, text, end, end).
    assert_eq!(large.events(), 2 + 2 + 5 * 200_000);

    // The filter's peak state is *identical* across a 400× size increase
    // — the O(FS(Q)·log d) guarantee holds through the whole API stack.
    // (A buffering pass over the same stream pays ~megabytes.)
    assert_eq!(
        small.total_peak_bits(),
        large.total_peak_bits(),
        "streaming memory must be flat in document size"
    );
    let buffering = Engine::builder()
        .query_str("//item[price > 400]")
        .backend(Backend::Buffering)
        .build()
        .unwrap();
    let buffered = buffering
        .run_reader(SyntheticCatalog::new(200_000))
        .unwrap();
    assert!(
        buffered.total_peak_bits() > 1_000 * large.total_peak_bits(),
        "buffer-all: {} bits, frontier: {} bits",
        buffered.total_peak_bits(),
        large.total_peak_bits()
    );
}
