//! Chunk-boundary transparency: every frontend must emit the *same*
//! event stream — names, payloads, and spans bit for bit — no matter
//! where the byte stream is cut. The byte-feed surfaces
//! (`feed_interned_bytes` on the XML, HTML, and JSON parsers) carry a
//! split UTF-8 scalar across chunks, so even a cut in the middle of a
//! multibyte character or an entity reference must neither panic nor
//! perturb the output.
//!
//! Exhaustive tests cut fixture documents at *every* byte offset (and
//! at every fixed chunk size up to a bound); proptests add randomly
//! chosen multi-cut points over randomly assembled documents.

use frontier_xpath::html::HtmlParser;
use frontier_xpath::json::JsonParser;
use frontier_xpath::xml::{escape_text, Event, Span, StreamingParser, SymEvent, Symbols};
use proptest::prelude::*;
use std::sync::Arc;

/// One recorded event stream: owned events with their spans.
type Recorded = Vec<(Event, Span)>;

/// Pins a closure to the higher-ranked signature `feed_interned_bytes`
/// expects (bound-to-a-variable closures otherwise infer one concrete
/// lifetime).
fn emitter<F: for<'a> FnMut(SymEvent<'a>, Span)>(f: F) -> F {
    f
}

/// Feeds `doc` to a fresh XML parser cut at the given (sorted, in
/// range) split offsets and records the full event stream.
fn xml_stream(doc: &[u8], splits: &[usize]) -> Recorded {
    let mut parser = StreamingParser::new();
    let symbols: Arc<Symbols> = Arc::clone(parser.symbols());
    let mut got: Recorded = Vec::new();
    {
        let mut emit = emitter(|ev: SymEvent<'_>, span| got.push((ev.to_owned(&symbols), span)));
        let mut at = 0;
        for &cut in splits {
            parser
                .feed_interned_bytes(&doc[at..cut], &mut emit)
                .unwrap();
            at = cut;
        }
        parser.feed_interned_bytes(&doc[at..], &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
    }
    got
}

/// As [`xml_stream`] for the HTML soup frontend.
fn html_stream(doc: &[u8], splits: &[usize]) -> Recorded {
    let mut parser = HtmlParser::new();
    let symbols: Arc<Symbols> = Arc::clone(parser.symbols());
    let mut got: Recorded = Vec::new();
    {
        let mut emit = emitter(|ev: SymEvent<'_>, span| got.push((ev.to_owned(&symbols), span)));
        let mut at = 0;
        for &cut in splits {
            parser
                .feed_interned_bytes(&doc[at..cut], &mut emit)
                .unwrap();
            at = cut;
        }
        parser.feed_interned_bytes(&doc[at..], &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
    }
    got
}

/// As [`xml_stream`] for the JSON frontend.
fn json_stream(doc: &[u8], splits: &[usize]) -> Recorded {
    let mut parser = JsonParser::new();
    let symbols: Arc<Symbols> = Arc::clone(parser.symbols());
    let mut got: Recorded = Vec::new();
    {
        let mut emit = emitter(|ev: SymEvent<'_>, span| got.push((ev.to_owned(&symbols), span)));
        let mut at = 0;
        for &cut in splits {
            parser
                .feed_interned_bytes(&doc[at..cut], &mut emit)
                .unwrap();
            at = cut;
        }
        parser.feed_interned_bytes(&doc[at..], &mut emit).unwrap();
        parser.finish_interned(&mut emit).unwrap();
    }
    got
}

/// Asserts that cutting `doc` at every single byte offset — including
/// mid-multibyte-character and mid-entity cuts — reproduces the batch
/// (no-cut) stream exactly, then sweeps every fixed chunk size ≤ 16.
fn assert_split_transparent(doc: &[u8], stream: fn(&[u8], &[usize]) -> Recorded) {
    let batch = stream(doc, &[]);
    assert!(!batch.is_empty(), "fixture produced events");
    for cut in 1..doc.len() {
        let split = stream(doc, &[cut]);
        assert_eq!(
            split,
            batch,
            "single cut at byte {cut} of {} changed the stream",
            doc.len()
        );
    }
    for size in 1..=16usize {
        let cuts: Vec<usize> = (1..doc.len()).filter(|i| i % size == 0).collect();
        let split = stream(doc, &cuts);
        assert_eq!(split, batch, "chunk size {size} changed the stream");
    }
}

/// XML fixture: 2-, 3-, and 4-byte UTF-8 scalars in text and attribute
/// values, plus named and numeric entity references — a cut can land
/// inside any of them.
const XML_DOC: &str = "<r a=\"caf\u{e9} \u{2022} &amp;\">\
  pre &lt;x&gt; &#x1F600; caf\u{e9}\
  <c b=\"&#65;\u{2014}\">\u{1F680} mid &amp;amp; text</c>\
  <d/>tail \u{2022}\u{e9}&quot;\
</r>";

/// HTML fixture: soup recovery plus lenient entities (bare `&`,
/// unknown references, numeric edge cases) around multibyte text.
const HTML_DOC: &str = "<ul class=\"caf\u{e9}\"><li>fish &amp; chips \u{2022}</li>\
<li>\u{1F600} &nbsp;&mdash; &#x48;i &bogus; bare & amp</li>\
<wbr><li>caf\u{e9} &#0; tail</li></ul>";

/// JSON fixture: multibyte scalars and escapes in keys and values — a
/// cut can land inside a `\uXXXX` escape or a multibyte scalar.
const JSON_DOC: &str =
    "{\"caf\u{e9}\": [1, -2.5e3, \"\u{1F680} \\u0041\\n\u{2022}\", true, null], \
\"\u{2014}k\": {\"inner\u{e9}\": \"caf\u{e9}\"}}";

#[test]
fn xml_every_split_point_matches_batch() {
    assert_split_transparent(XML_DOC.as_bytes(), xml_stream);
}

#[test]
fn html_every_split_point_matches_batch() {
    assert_split_transparent(HTML_DOC.as_bytes(), html_stream);
}

#[test]
fn json_every_split_point_matches_batch() {
    assert_split_transparent(JSON_DOC.as_bytes(), json_stream);
}

/// A cut inside a multibyte scalar leaves bytes in the carry; feeding
/// the rest later (even one byte at a time) must reassemble the scalar.
#[test]
fn single_byte_chunks_match_batch() {
    let xml = XML_DOC.as_bytes();
    let cuts: Vec<usize> = (1..xml.len()).collect();
    assert_eq!(xml_stream(xml, &cuts), xml_stream(xml, &[]));

    let html = HTML_DOC.as_bytes();
    let cuts: Vec<usize> = (1..html.len()).collect();
    assert_eq!(html_stream(html, &cuts), html_stream(html, &[]));

    let json = JSON_DOC.as_bytes();
    let cuts: Vec<usize> = (1..json.len()).collect();
    assert_eq!(json_stream(json, &cuts), json_stream(json, &[]));
}

/// Truncating the stream mid-scalar must surface as a UTF-8 error from
/// `finish_interned`, not a panic or silent acceptance.
#[test]
fn truncated_multibyte_tail_errors_at_finish() {
    let doc = "<r>caf\u{e9}</r>".as_bytes();
    // Cut off the last byte of the 2-byte `é` *and* the rest.
    let partial = &doc[..7]; // "<r>caf" + first byte of é
    let mut parser = StreamingParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    parser.feed_interned_bytes(partial, &mut emit).unwrap();
    assert!(parser.finish_interned(&mut emit).is_err());

    let mut html = HtmlParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    html.feed_interned_bytes(&"<p>\u{2022}".as_bytes()[..4], &mut emit)
        .unwrap();
    assert!(html.finish_interned(&mut emit).is_err());

    let mut json = JsonParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    json.feed_interned_bytes(&"\"\u{1F600}\"".as_bytes()[..3], &mut emit)
        .unwrap();
    assert!(json.finish_interned(&mut emit).is_err());
}

/// Invalid UTF-8 (a lone continuation byte) errors instead of panicking
/// on all three byte-feed frontends.
#[test]
fn invalid_utf8_errors_not_panics() {
    let bad: &[u8] = b"<r>ok\x80bad</r>";
    let mut parser = StreamingParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    assert!(parser.feed_interned_bytes(bad, &mut emit).is_err());

    let mut html = HtmlParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    assert!(html.feed_interned_bytes(b"<p>\x80</p>", &mut emit).is_err());

    let mut json = JsonParser::new();
    let mut emit = emitter(|_: SymEvent<'_>, _| {});
    assert!(json.feed_interned_bytes(b"\"\x80\"", &mut emit).is_err());
}

/// The read size of the engine's byte drivers.
const READ: usize = 8 * 1024;

/// Tokens far longer than one read: the tokenizers resume their scans
/// across feeds, so each long token is cut at every 8 KiB boundary,
/// shifted by every offset of a 16-byte window around it, and must
/// reproduce the whole-buffer stream.
fn assert_long_tokens_split_transparent(doc: &str, stream: fn(&[u8], &[usize]) -> Recorded) {
    let bytes = doc.as_bytes();
    assert!(bytes.len() > 3 * READ, "fixture spans several reads");
    let whole = stream(bytes, &[]);
    for shift in 0..16 {
        let cuts: Vec<usize> = (1..=bytes.len() / READ)
            .map(|k| k * READ + shift - 8)
            .filter(|&c| c < bytes.len())
            .collect();
        assert_eq!(
            stream(bytes, &cuts),
            whole,
            "cuts at 8 KiB boundaries {:+} changed the stream",
            shift as i64 - 8
        );
    }
}

/// `unit` repeated to just over `len` bytes.
fn long(unit: &str, len: usize) -> String {
    unit.repeat(len / unit.len() + 1)
}

#[test]
fn xml_long_tokens_split_transparent() {
    let n = 4 * READ;
    for doc in [
        // A quoted attribute value holding `>` (and the other quote).
        format!("<r a=\"{}\"><c/></r>", long("v>w'x\u{e9}", n)),
        format!("<r a='{}'/>", long("v>\"w", n)),
        // Comment, CDATA section and processing instruction.
        format!("<r><!--{}--><c/></r>", long("c>-d<e\u{2022}", n)),
        format!("<r><![CDATA[{}]]><c/></r>", long("d]>e<&f", n)),
        format!("<r><?pi {}?><c/></r>", long("p>q?r", n)),
        // Entities everywhere in a long text run: some reference
        // straddles every cut.
        format!("<r>{}</r>", long("xy&amp;z&#x41;\u{e9}&lt;", n)),
    ] {
        assert_long_tokens_split_transparent(&doc, xml_stream);
    }
}

#[test]
fn json_long_string_with_escapes_split_transparent() {
    let s = long("ab\\\"c\\u0041\\\\d\\n\u{e9}", 4 * READ);
    let doc = format!("{{\"s\": \"{s}\", \"n\": [-12.5e3, \"{s}\"]}}");
    assert_long_tokens_split_transparent(&doc, json_stream);
}

#[test]
fn html_long_tokens_split_transparent() {
    let n = 4 * READ;
    for doc in [
        format!(
            "<div title=\"{}\"><p>x</p></div>",
            long("v>w'x&amp;\u{e9}", n)
        ),
        format!("<div><p>{}</p></div>", long("t<1 &lt;u\u{2022}", n)),
        format!("<div><!--{}--><p>x</p></div>", long("c>-d", n)),
        format!("<div><script>{}</script><p>x</p></div>", long("a</b <", n)),
    ] {
        assert_long_tokens_split_transparent(&doc, html_stream);
    }
}

fn proptest_cases() -> u32 {
    std::env::var("FX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Turns a set of raw proptest offsets into sorted, deduped, in-range
/// cut points for a document of `len` bytes.
fn normalize_cuts(raw: &[usize], len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = raw
        .iter()
        .map(|&c| 1 + c % len.max(2).saturating_sub(1))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Random documents (unicode text, entity-bearing), random cut
    /// sets: the XML byte feed is split-transparent.
    #[test]
    fn xml_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600} ]{0,12}",
        attr in "[A-Z\u{e9}\u{2014}]{0,8}",
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!(
            "<r a=\"{}\">{}&amp; &#x1F680;<c>{}</c></r>",
            escape_text(&attr),
            escape_text(&text),
            escape_text(&text),
        );
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(xml_stream(bytes, &cuts), xml_stream(bytes, &[]));
    }

    /// Random soup (entities decoded leniently) at random cut sets.
    #[test]
    fn html_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600}& ]{0,12}",
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!("<ul><li>{text}&mdash;&#65;</li><li>{text}</li></ul>");
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(html_stream(bytes, &cuts), html_stream(bytes, &[]));
    }

    /// Random JSON strings (multibyte + escapes) at random cut sets.
    #[test]
    fn json_random_cuts_match_batch(
        text in "[a-z\u{e9}\u{2022}\u{1F600} ]{0,12}",
        n in -1000i64..1000,
        raw_cuts in prop::collection::vec(0usize..10_000, 0..8),
    ) {
        let doc = format!("{{\"k\u{e9}\": \"{text}\\u0041\", \"n\": {n}}}");
        let bytes = doc.as_bytes();
        let cuts = normalize_cuts(&raw_cuts, bytes.len());
        prop_assert_eq!(json_stream(bytes, &cuts), json_stream(bytes, &[]));
    }
}
