//! The zero-allocation guarantee of the interned event hot path: in
//! steady state — symbol table populated, scratch buffers warm — a
//! start/end element event performs **no heap allocation anywhere** on
//! the parse → intern → tag-dispatch path, for a single `StreamFilter`,
//! for the `IndexedBank`'s shared-trie walk, for the HTML-soup and JSON
//! frontends feeding the same filter alike, and for a one-query engine
//! session's `run_reader` / `run_source` drains.
//!
//! Measured with a counting `#[global_allocator]`; this file holds a
//! single test so no sibling test thread can pollute the counter.

use frontier_xpath::engine::Engine;
use frontier_xpath::filter::{CompiledQuery, IndexedBank, StreamFilter};
use frontier_xpath::html::HtmlParser;
use frontier_xpath::json::JsonParser;
use frontier_xpath::xml::{Span, StreamingParser, SymEvent, Symbols};
use frontier_xpath::xpath::parse_query;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation and reallocation made by *this thread*
/// (frees are irrelevant: a path that frees must have allocated). The
/// counter is thread-local so harness/watchdog threads cannot pollute
/// the measurement, and const-initialized so reading it inside the
/// allocator never recurses into allocation.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // TLS may be unavailable during thread teardown; skip counting then.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

/// Pins a closure to the higher-ranked `for<'a> FnMut(SymEvent<'a>, _)`
/// signature `feed_interned` expects (bound-to-a-variable closures
/// otherwise infer one concrete lifetime).
fn emitter<F: for<'a> FnMut(SymEvent<'a>, Span)>(f: F) -> F {
    f
}

#[test]
fn interned_hot_path_allocates_nothing_per_element_in_steady_state() {
    // --- Single filter: parse + filter over one endless document. ----
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/r/i[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut parser = StreamingParser::with_symbols(Arc::clone(&symbols));

    // One repeating body chunk: a start tag with an attribute, text, an
    // end tag — the tag-dispatch steady state.
    let chunk = r#"<i a="1">x</i><j/>"#;
    let mut count = 0u64;
    {
        let mut emit = emitter(|ev, span| {
            filter.process_sym(ev, span);
            count += 1;
        });
        parser.feed_interned("<r>", &mut emit).unwrap();
        // Warm-up: interns every name, grows every scratch buffer and
        // frontier/table capacity to its steady footprint.
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }

    let before = allocations();
    let steady = 1000u64;
    {
        let mut emit = emitter(|ev, span| {
            filter.process_sym(ev, span);
            count += 1;
        });
        for _ in 0..steady {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert!(count > 5 * steady, "events flowed: {count}");
    assert_eq!(
        after - before,
        0,
        "parse+filter start/end element dispatch must not allocate in \
         steady state ({} allocations over {steady} chunks)",
        after - before
    );

    // The stream stays live and correct: close it out and check the
    // verdict (every <i> carries @a).
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    parser.feed_interned("</r>", &mut emit).unwrap();
    parser.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Indexed bank: shared-trie dispatch with dormant groups. -----
    // None of the prefixes matches the document, so the whole bank
    // stays on the trie walk — the per-event cost the index promises.
    let queries: Vec<_> = [
        "/site/regions/asia/item[price > 10]",
        "/site/regions/europe/item[price > 10]",
        "/site/categories/category/name",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let mut bank = IndexedBank::new(&queries).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols()));
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    {
        let mut emit = emitter(|ev, span| bank.process_sym_to(ev, span, sink));
        parser.feed_interned("<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| bank.process_sym_to(ev, span, sink));
        for _ in 0..steady {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "indexed-bank trie dispatch must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );

    // --- HTML-soup frontend: tokenize + recover + filter. ------------
    // The chunk exercises the soup hot path: an attributed start tag,
    // text, an explicit end tag, and a void element.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/ul/li[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut html = HtmlParser::with_symbols(Arc::clone(&symbols));
    let chunk = r#"<li a="1">x</li><wbr>"#;
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        html.feed_interned("<ul>", &mut emit).unwrap();
        for _ in 0..64 {
            html.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            html.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "html soup tokenize+filter must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    html.feed_interned("</ul>", &mut emit).unwrap();
    html.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- JSON frontend: lex + map-to-elements + filter. --------------
    // Repeated members of the root object: object values become
    // elements, string and number scalars become text.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/json/i[a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut json = JsonParser::with_symbols(Arc::clone(&symbols));
    let chunk = r#""i":{"a":"x","n":17},"#;
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        json.feed_interned("{", &mut emit).unwrap();
        for _ in 0..64 {
            json.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            json.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "json lex+map+filter must not allocate in steady state \
         ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    json.feed_interned("}", &mut emit).unwrap();
    json.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Byte feed: SWAR structural scan + UTF-8 carry. --------------
    // The raw-byte surface layers chunk UTF-8 validation, the carry for
    // scalars split across reads, and the structural-index scan on top
    // of the same drain — none of which may allocate once the index
    // vector has grown to the chunk's delimiter count. Every iteration
    // cuts the chunk mid-multibyte-character so the carry is exercised
    // on the hot path, not just at boundaries.
    let symbols = Arc::new(Symbols::new());
    let q = parse_query("/r/i[@a]").unwrap();
    let compiled = CompiledQuery::compile_with(&q, Arc::clone(&symbols)).unwrap();
    let mut filter = StreamFilter::from_compiled(compiled);
    let mut parser = StreamingParser::with_symbols(Arc::clone(&symbols));
    let chunk = "<i a=\"1\">caf\u{e9}\u{2022}</i><j/>".as_bytes();
    let cut = 13; // one byte into the 2-byte `é`
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        parser.feed_interned_bytes(b"<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser
                .feed_interned_bytes(&chunk[..cut], &mut emit)
                .unwrap();
            parser
                .feed_interned_bytes(&chunk[cut..], &mut emit)
                .unwrap();
        }
    }
    let before = allocations();
    {
        let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
        for _ in 0..steady {
            parser
                .feed_interned_bytes(&chunk[..cut], &mut emit)
                .unwrap();
            parser
                .feed_interned_bytes(&chunk[cut..], &mut emit)
                .unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "byte feed (utf-8 carry + structural scan) must not allocate in \
         steady state ({} allocations over {steady} chunks)",
        after - before
    );
    let mut emit = emitter(|ev, span| filter.process_sym(ev, span));
    parser.feed_interned_bytes(b"</r>", &mut emit).unwrap();
    parser.finish_interned(&mut emit).unwrap();
    assert_eq!(filter.result(), Some(true));

    // --- Sharded worker hot path: frozen snapshot + batch ring. ------
    // The multi-core pipeline run end-to-end on this thread (the
    // counter is thread-local): a frozen-snapshot parser resolves names
    // lock-free, events are copied into an `EventBatch` (the producer
    // side of the broadcast ring), then replayed through a consumer
    // scratch buffer into a partitioned bank shard — the exact per-event
    // work a `run_bank_sharded` worker does. After warm-up grows the
    // batch arenas and the shard's trie scratch, the fill → replay →
    // clear cycle must be allocation-free: `clear()` retains capacity,
    // so a recycled batch never re-allocates.
    let queries: Vec<_> = [
        "/site/regions/asia/item[price > 10]",
        "/site/regions/europe/item[price > 10]",
        "/site/categories/category/name",
    ]
    .iter()
    .map(|s| parse_query(s).unwrap())
    .collect();
    let parent = IndexedBank::new(&queries).unwrap();
    let symbols = Arc::clone(parent.symbols());
    let mut shard = parent.partition(2).swap_remove(0);
    // Freeze after the bank compile interned the query vocabulary.
    let mut parser = StreamingParser::with_symbols(Arc::clone(&symbols))
        .lookup_only()
        .frozen();
    let mut batch = frontier_xpath::xml::EventBatch::new();
    let mut scratch = frontier_xpath::xml::AttrBuf::new();
    let chunk = r#"<i a="1">x</i><j/>"#;
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    {
        let mut emit = emitter(|ev, span| batch.push(&ev, span));
        parser.feed_interned("<r>", &mut emit).unwrap();
        for _ in 0..64 {
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
    }
    batch.replay(&mut scratch, |ev, span| {
        shard.process_sym_to(ev, span, sink)
    });
    batch.clear();
    let before = allocations();
    for _ in 0..steady {
        {
            let mut emit = emitter(|ev, span| batch.push(&ev, span));
            parser.feed_interned(chunk, &mut emit).unwrap();
        }
        batch.replay(&mut scratch, |ev, span| {
            shard.process_sym_to(ev, span, sink)
        });
        batch.clear();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "sharded worker path (frozen parse → batch fill → replay into a \
         bank shard) must not allocate in steady state ({} allocations \
         over {steady} cycles)",
        after - before
    );

    // --- Batched drain: `drive_batched` → `process_batch_to`. --------
    // The engine's default hot path since events became batch-native:
    // the parser fills its recycled `EventBatch` from reader chunks and
    // the bank walks each batch in one call. After warm-up grows the
    // batch arena, the io chunk, and the banks' scratch, a whole
    // drive — thousands of events, several batch hand-offs — must not
    // allocate at all: `clear()` retains arena capacity and
    // `process_batch_to` hoists its scratch out of the event loop.
    let queries: Vec<_> = ["/r/i[@a]", "/r/j"]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let mut bank = frontier_xpath::filter::MultiFilter::new(&queries).unwrap();
    // One shared table so one parse feeds both banks.
    let mut indexed = IndexedBank::new_with_symbols(&queries, Arc::clone(bank.symbols())).unwrap();
    let mut parser = StreamingParser::with_symbols(Arc::clone(bank.symbols())).lookup_only();
    // >BATCH_EVENTS events per document, so every drive spans several
    // batch hand-offs.
    let doc = format!("<r>{}</r>", r#"<i a="1">x</i><j/>"#.repeat(400));
    let sink = &mut |_: frontier_xpath::filter::Match| {};
    let mut batches = 0u64;
    for _ in 0..4 {
        parser.reset();
        parser
            .drive_batched(doc.as_bytes(), &mut |b| {
                bank.process_batch_to(b, sink);
                indexed.process_batch_to(b, sink);
            })
            .unwrap();
    }
    let before = allocations();
    let drives = 32u64;
    for _ in 0..drives {
        parser.reset();
        parser
            .drive_batched(doc.as_bytes(), &mut |b| {
                batches += 1;
                bank.process_batch_to(b, sink);
                indexed.process_batch_to(b, sink);
            })
            .unwrap();
    }
    let after = allocations();
    assert!(batches > drives, "each drive spans several batches");
    assert_eq!(
        after - before,
        0,
        "batched drive (parse → EventBatch → bank batch walk) must not \
         allocate in steady state ({} allocations over {drives} drives)",
        after - before
    );
    assert_eq!(bank.results(), vec![Some(true), Some(true)]);

    // --- One-query engine session: `run_reader` and `run_source`. -----
    // A one-query session drives its bare filter straight from the
    // tokenizer (XML) or through the zero-copy batch walk (HTML, JSON).
    // Each whole run allocates only its `Verdicts`, so once the session,
    // its parser and the sources are warm, a document eight times
    // longer must cost exactly as many allocations as a short one.
    let engine = Engine::builder().query_str("//r//i").build().unwrap();
    let mut session = engine.session();
    let mut html = engine.html_source();
    let mut json = engine.json_source();
    let xml_doc = |n: usize| format!("<r>{}</r>", r#"<i a="1">x</i><j/>"#.repeat(n));
    let html_doc = |n: usize| format!("<r>{}</r>", r#"<i a="1">x</i><wbr>"#.repeat(n));
    let json_doc = |n: usize| {
        let members = r#""i":{"a":"x","n":17},"#.repeat(n);
        format!("{{\"r\":{{{members}\"z\":0}}}}")
    };
    assert_flat_allocations("run_reader (xml)", xml_doc, |d| {
        session.run_reader(d.as_bytes()).unwrap().any()
    });
    assert_flat_allocations("run_source (html)", html_doc, |d| {
        session.run_source(&mut html, d.as_bytes()).unwrap().any()
    });
    assert_flat_allocations("run_source (json)", json_doc, |d| {
        session.run_source(&mut json, d.as_bytes()).unwrap().any()
    });
}

/// Warms `run` up on a long document built by `doc`, then asserts that a
/// run over 1600 records allocates exactly as often as one over 200:
/// whatever a whole run allocates, none of it is per element.
fn assert_flat_allocations(
    what: &str,
    doc: impl Fn(usize) -> String,
    mut run: impl FnMut(&str) -> bool,
) {
    let (short, long) = (doc(200), doc(1600));
    for _ in 0..4 {
        assert!(run(&long), "{what} warm-up");
    }
    let mut cost = |text: &str| {
        let before = allocations();
        assert!(run(text), "{what}");
        allocations() - before
    };
    let short_cost = cost(&short);
    let long_cost = cost(&long);
    assert_eq!(
        long_cost, short_cost,
        "one-query session {what} must not allocate per element in steady \
         state ({short_cost} allocations for 200 records, {long_cost} for 1600)"
    );
}
