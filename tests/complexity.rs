//! Linear-time worst case: per-tag cost must not grow with nesting
//! depth, and per-byte cost must not grow with token length.
//!
//! Each series times one input shape at size `n` and `4n` (best of
//! several runs, interleaved) and asserts `time(4n) / time(n) < 6`: a
//! linear pipeline reads ~4, a quadratic one ~16. Depth series run the
//! §8 filter under deep recursion on all three evaluation paths (the
//! single-filter session, the default `MultiFilter` bank and the
//! shared-prefix `IndexedBank`); token series push one long token
//! through each tokenizer in 8 KiB reads, so the token spans many feeds.
//!
//! Run optimized for stable ratios: `cargo test --release --test
//! complexity`.

use frontier_xpath::engine::{Engine, IndexPolicy};
use frontier_xpath::prelude::*;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Best-of runs per size; the two sizes alternate so a slow stretch of
/// a shared machine hits both.
const RUNS: usize = 7;
/// The largest `time(4n) / time(n)` accepted (linear is 4).
const MAX_RATIO: f64 = 6.0;
/// Fresh measurements before a series fails: a noise spike on a shared
/// machine can push one ratio past the bound, a quadratic path (~16)
/// fails every one.
const ATTEMPTS: usize = 3;

/// The tests here time themselves, so they run one at a time instead
/// of competing for cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The best wall time of `run`, repeated until it has taken at least a
/// few milliseconds (so timer granularity does not dominate).
fn once(run: &mut dyn FnMut()) -> Duration {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || start.elapsed() < Duration::from_millis(3) {
        run();
        reps += 1;
    }
    start.elapsed() / reps
}

/// Asserts `time(4n) / time(n) < MAX_RATIO` for `run` over the inputs
/// `make(n)` and `make(4n)`, in one of `ATTEMPTS` measurements.
fn assert_linear<T>(label: &str, n: usize, make: impl Fn(usize) -> T, run: impl Fn(&T)) {
    let (small, large) = (make(n), make(4 * n));
    let mut ratios = Vec::new();
    for _ in 0..ATTEMPTS {
        let (mut best_small, mut best_large) = (Duration::MAX, Duration::MAX);
        for _ in 0..RUNS {
            best_small = best_small.min(once(&mut || run(&small)));
            best_large = best_large.min(once(&mut || run(&large)));
        }
        let ratio = best_large.as_secs_f64() / best_small.as_secs_f64();
        if ratio < MAX_RATIO {
            return;
        }
        ratios.push(format!(
            "{ratio:.2} ({best_small:?} at n={n}, {best_large:?} at 4n)"
        ));
    }
    panic!("{label}: time(4n)/time(n) = {}", ratios.join("; "));
}

/// `<a>` nested `n` deep.
fn nested(n: usize) -> String {
    format!("{}{}", "<a>".repeat(n), "</a>".repeat(n))
}

fn engine(queries: &[&str], index: IndexPolicy) -> Engine {
    let mut b = Engine::builder().index(index);
    for q in queries {
        b = b.query_str(q);
    }
    b.build().unwrap()
}

/// A filler query no document here matches: it turns a one-query set
/// into a two-query bank.
const FILLER: &str = "//zz[y]";

#[test]
fn depth_scaling_is_linear_on_every_bank() {
    let _serial = serial();
    for q in ["//a[b]", "//a/a", "//a[.//b]"] {
        for (bank, engine) in [
            ("single", engine(&[q], IndexPolicy::None)),
            ("multi", engine(&[q, FILLER], IndexPolicy::None)),
            ("indexed", engine(&[q, FILLER], IndexPolicy::SharedPrefix)),
        ] {
            let mut session = engine.session();
            let session = std::cell::RefCell::new(&mut session);
            assert_linear(&format!("{q} on {bank}"), 1024, nested, |doc| {
                session.borrow_mut().run_reader(doc.as_bytes()).unwrap();
            });
        }
    }
}

#[test]
fn frontier_rows_are_the_papers_under_recursion() {
    // //a[b] over <a>ⁿ holds the root child's descendant record plus one
    // `b` record per open level: the row count the Theorem 8.8 bits
    // formula charges, whatever the table's layout.
    let q = parse_query("//a[b]").unwrap();
    for n in [1, 7, 300] {
        let mut f = StreamFilter::new(&q).unwrap();
        assert_eq!(f.run_stream(&parse_xml(&nested(n)).unwrap()), Some(false));
        assert_eq!(f.stats().max_rows, n + 1, "n = {n}");
    }
}

/// Builds a document around one long token.
type Wrap = fn(&str) -> String;

/// Lowercase filler of `n` bytes with a `\"`-safe period.
fn letters(n: usize) -> String {
    (0..n).map(|i| (b'a' + (i % 26) as u8) as char).collect()
}

#[test]
fn token_length_scaling_is_linear_in_every_tokenizer() {
    let _serial = serial();
    const N: usize = 128 * 1024;
    let xml = engine(&["/r[t]", "//r/u"], IndexPolicy::None);
    let xml_cases: [(&str, Wrap); 4] = [
        ("XML text", |s| format!("<r><t>{s}</t></r>")),
        ("XML attribute value", |s| format!("<r><t v=\"{s}\"/></r>")),
        ("XML comment", |s| format!("<r><!--{s}--><t/></r>")),
        ("XML CDATA", |s| format!("<r><![CDATA[{s}]]><t/></r>")),
    ];
    for (label, wrap) in xml_cases {
        let mut session = xml.session();
        let session = std::cell::RefCell::new(&mut session);
        assert_linear(
            label,
            N,
            |n| wrap(&letters(n)),
            |doc| {
                let v = session.borrow_mut().run_reader(doc.as_bytes()).unwrap();
                assert!(v.matched()[0]);
            },
        );
    }

    // Non-XML frontends run through a reused session and source, as a
    // long-lived engine does (fresh parsers would add per-run
    // allocation of multi-MB buffers to the measurement).
    let json = engine(&["/json[s]/k", "/json/absent"], IndexPolicy::None);
    let mut session = json.session();
    let session = std::cell::RefCell::new(&mut session);
    let source = std::cell::RefCell::new(json.json_source());
    assert_linear(
        "JSON string with escapes",
        N,
        |n| {
            let s = letters(n).replacen("a", "\\\"", n / 26);
            format!("{{\"s\": \"{s}\", \"k\": 1}}")
        },
        |doc| {
            let v = session
                .borrow_mut()
                .run_source(&mut *source.borrow_mut(), doc.as_bytes())
                .unwrap();
            assert!(v.matched()[0]);
        },
    );

    let html = engine(&["//div[p]", "//table"], IndexPolicy::None);
    let html_cases: [(&str, Wrap); 2] = [
        ("HTML text", |s| {
            format!("<html><body><div><p>{s}</p></div></body></html>")
        }),
        ("HTML attribute value", |s| {
            format!("<html><body><div title=\"{s}\"><p>x</p></div></body></html>")
        }),
    ];
    let mut session = html.session();
    let session = std::cell::RefCell::new(&mut session);
    let source = std::cell::RefCell::new(html.html_source());
    for (label, wrap) in html_cases {
        assert_linear(
            label,
            N,
            |n| wrap(&letters(n)),
            |doc| {
                let v = session
                    .borrow_mut()
                    .run_source(&mut *source.borrow_mut(), doc.as_bytes())
                    .unwrap();
                assert!(v.matched()[0]);
            },
        );
    }

    let ndjson = engine(&["/json[s]"], IndexPolicy::None);
    let mut session = ndjson.session();
    let session = std::cell::RefCell::new(&mut session);
    let source = std::cell::RefCell::new(ndjson.ndjson_source());
    assert_linear(
        "NDJSON record",
        N,
        |n| format!("{{\"k\": 1}}\n{{\"s\": \"{}\"}}\n", letters(n)),
        |stream| {
            let v = session
                .borrow_mut()
                .run_source(&mut *source.borrow_mut(), stream.as_bytes())
                .unwrap();
            assert!(v.matched()[0]);
        },
    );
}
