//! The traced run: per-layer numbers from spans around every call the
//! benchmark makes into a workspace crate, plus the tracing overhead
//! against an untraced twin of the same loop.
//!
//! Layers are the crates, named by their suffix (`xpath`, `engine`,
//! `xml`, `html`, `json`, `core`, `server`). Each stage below isolates
//! one layer on the workload's own documents: parse only, parse plus
//! per-query `StreamFilter`s, parse plus the shared-prefix `IndexedBank`,
//! the whole `Session`, and the server. Every row exists on every
//! workload: a layer the workload does not exercise is measured on the
//! workload that does, from the same seed — HTML and JSON on the `feeds`
//! corpus, the server on the `dissemination` inputs.

use crate::dissem;
use crate::inputs::{self, Frontend, Inputs, Job, QuerySet};
use crate::pipeline::{build_engines, parse_queries, source_for, JobResult, Passes, Runner};
use crate::stats::{self, median, Report};
use crate::trace::{Tracer, ROOT};
use fx_core::{CompiledQuery, IndexedBank, Match, StreamFilter};
use fx_engine::Engine;
use fx_xml::{AttrBuf, EventBatch, EventSource, ParseError, StreamingParser};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions traced for the `xpath` and `engine` build rows.
const BUILD_REPS: usize = 5;
/// Repetitions of each scaling probe; the ratio uses their medians.
const PROBE_REPS: usize = 3;
/// Alternating untraced/traced pass pairs at the least.
const MIN_OVERHEAD_PASSES: usize = 3;

/// Resets `source` and streams one document through it in batches.
fn drive(
    source: &mut dyn EventSource,
    mut doc: &[u8],
    consume: &mut dyn FnMut(&EventBatch),
) -> Result<(), ParseError> {
    source.reset();
    source.drive_batched(&mut doc, consume)
}

/// Accumulated parse-only counts of one frontend.
#[derive(Default)]
struct ParseCounts {
    bytes: u64,
    events: u64,
    batches: u64,
}

/// Parse-only passes with a counting consumer, each drive a span of the
/// frontend's layer. Returns per-frontend totals over all passes and
/// the counts of a single pass.
fn parse_only(
    tr: &mut Tracer,
    jobs: &[Job],
    qsets: &[QuerySet],
    engines: &[Engine],
    budget: Duration,
) -> ([ParseCounts; 3], [ParseCounts; 3]) {
    let mut parsers: Vec<Box<dyn EventSource>> = engines
        .iter()
        .zip(qsets)
        .map(|(e, qs)| source_for(e, qs.frontend))
        .collect();
    let mut total: [ParseCounts; 3] = Default::default();
    let mut one_pass: [ParseCounts; 3] = Default::default();
    let end = Instant::now() + budget;
    let mut pass = 0;
    while pass == 0 || Instant::now() < end {
        for job in jobs {
            let fe = qsets[job.qset].frontend;
            let slot = fe as usize;
            let (mut events, mut batches) = (0u64, 0u64);
            let id = tr.open(fe.layer(), "drive_batched", ROOT);
            let r = drive(
                parsers[job.qset].as_mut(),
                black_box(&job.doc[..]),
                &mut |b| {
                    events += b.len() as u64;
                    batches += 1;
                },
            );
            tr.close(id);
            black_box(r).expect("workload documents parse");
            let bytes = job.doc.len() as u64;
            for c in [
                Some(&mut total[slot]),
                (pass == 0).then_some(&mut one_pass[slot]),
            ]
            .into_iter()
            .flatten()
            {
                c.bytes += bytes;
                c.events += events;
                c.batches += batches;
            }
        }
        pass += 1;
    }
    (total, one_pass)
}

/// One `StreamFilter` per query with the default bank's short-circuit:
/// a filter stops receiving events once its verdict is decided,
/// re-checked only when its match progress moves.
struct Filters {
    filters: Vec<StreamFilter>,
    decided: Vec<Option<bool>>,
    progress: Vec<u64>,
    open: usize,
    /// Event×filter pairs fed.
    fed: u64,
}

impl Filters {
    fn new(compiled: &[Arc<CompiledQuery>]) -> Filters {
        Filters {
            filters: compiled
                .iter()
                .map(|c| StreamFilter::from_shared(Arc::clone(c)))
                .collect(),
            decided: vec![None; compiled.len()],
            progress: vec![0; compiled.len()],
            open: compiled.len(),
            fed: 0,
        }
    }

    /// Feeds one batch of a single document's events.
    fn batch(&mut self, b: &EventBatch, scratch: &mut AttrBuf) {
        if self.open == 0 {
            return;
        }
        b.replay_control(0, scratch, |ev, span| {
            for i in 0..self.filters.len() {
                if self.decided[i].is_some() {
                    continue;
                }
                let f = &mut self.filters[i];
                f.process_sym(ev, span);
                self.fed += 1;
                let progress = f.match_progress();
                if progress != self.progress[i] {
                    self.progress[i] = progress;
                    self.decided[i] = f.decided();
                    self.open -= usize::from(self.decided[i].is_some());
                }
            }
            self.open > 0
        });
    }
}

/// The stages below the session for every query set, built once: a
/// parser on the engine's symbol table, the queries compiled for
/// per-query `StreamFilter`s, and (XML sets) a filtering `IndexedBank`.
struct Stages {
    parsers: Vec<Box<dyn EventSource>>,
    compiled: Vec<Vec<Arc<CompiledQuery>>>,
    banks: Vec<Option<IndexedBank>>,
    scratch: AttrBuf,
}

impl Stages {
    fn new(qsets: &[QuerySet], engines: &[Engine]) -> Stages {
        let per_set = || engines.iter().zip(qsets);
        Stages {
            parsers: per_set()
                .map(|(e, qs)| source_for(e, qs.frontend))
                .collect(),
            compiled: per_set()
                .map(|(e, qs)| {
                    parse_queries(&qs.queries)
                        .iter()
                        .map(|q| {
                            Arc::new(
                                CompiledQuery::compile_with(q, Arc::clone(e.symbols()))
                                    .expect("generated queries compile"),
                            )
                        })
                        .collect()
                })
                .collect(),
            banks: per_set()
                .map(|(e, qs)| {
                    (qs.frontend == Frontend::Xml).then(|| {
                        IndexedBank::new_with_symbols(
                            &parse_queries(&qs.queries),
                            Arc::clone(e.symbols()),
                        )
                        .expect("generated queries index")
                    })
                })
                .collect(),
            scratch: AttrBuf::new(),
        }
    }

    /// Parse plus per-query `StreamFilter`s (see [`Filters`]), each
    /// batch a `core` span under a per-document span. Returns (ns,
    /// event×filter pairs fed).
    fn filters(&mut self, tr: &mut Tracer, job: &Job) -> (u64, u64) {
        let mut filters = Filters::new(&self.compiled[job.qset]);
        let scratch = &mut self.scratch;
        let t0 = Instant::now();
        let parent = tr.open("bench", "parse+filters", ROOT);
        let r = drive(
            self.parsers[job.qset].as_mut(),
            black_box(&job.doc[..]),
            &mut |b| {
                let id = tr.open("core", "StreamFilter::process_sym", parent);
                filters.batch(b, scratch);
                tr.close(id);
            },
        );
        tr.close(parent);
        let ns = t0.elapsed().as_nanos() as u64;
        black_box(r).expect("workload documents parse");
        black_box(&filters.decided);
        (ns, filters.fed)
    }

    /// Parse plus the query set's `IndexedBank`, each
    /// `process_batch_to` a `core` span. Returns (ns, events).
    fn bank(&mut self, tr: &mut Tracer, job: &Job) -> (u64, u64) {
        let bank = self.banks[job.qset]
            .as_mut()
            .expect("XML query sets have a bank");
        let mut events = 0;
        let t0 = Instant::now();
        let parent = tr.open("bench", "parse+bank", ROOT);
        let r = drive(
            self.parsers[job.qset].as_mut(),
            black_box(&job.doc[..]),
            &mut |b| {
                let id = tr.open("core", "IndexedBank::process_batch_to", parent);
                bank.process_batch_to(b, &mut |m: Match| {
                    black_box(m);
                });
                tr.close(id);
                events += b.len() as u64;
            },
        );
        tr.close(parent);
        let ns = t0.elapsed().as_nanos() as u64;
        black_box(r).expect("workload documents parse");
        black_box(bank.matching_queries());
        (ns, events)
    }

    /// Parse plus one `StreamFilter` fed every event, as a one-query
    /// session runs it (no short-circuit). Returns ns.
    fn single(&mut self, tr: &mut Tracer, job: &Job) -> u64 {
        let mut filter = StreamFilter::from_shared(Arc::clone(&self.compiled[job.qset][0]));
        let scratch = &mut self.scratch;
        let t0 = Instant::now();
        let parent = tr.open("bench", "parse+filter", ROOT);
        let r = drive(
            self.parsers[job.qset].as_mut(),
            black_box(&job.doc[..]),
            &mut |b| {
                let id = tr.open("core", "StreamFilter::process_batch", parent);
                filter.process_batch(b, scratch);
                tr.close(id);
            },
        );
        tr.close(parent);
        let ns = t0.elapsed().as_nanos() as u64;
        black_box(r).expect("workload documents parse");
        black_box(filter.result());
        ns
    }

    /// The stage directly below the session of `job`'s engine: the
    /// shared-prefix bank, a bare filter for one query, or the
    /// short-circuiting filters of the default multi-query bank.
    fn below_session(&mut self, tr: &mut Tracer, job: &Job, shared_prefix: bool) -> u64 {
        if shared_prefix {
            self.bank(tr, job).0
        } else if self.compiled[job.qset].len() == 1 {
            self.single(tr, job)
        } else {
            self.filters(tr, job).0
        }
    }

    /// Bank-level counters accumulated over every bank run so far.
    fn bank_counts(&self) -> BankCounts {
        let mut counts = BankCounts::default();
        let mut activations = 0u64;
        for bank in self.banks.iter().flatten() {
            let s = bank.space_stats();
            activations += s.activations;
            counts.events += s.events;
            counts.peak_instances = counts.peak_instances.max(s.peak_instances);
            counts.residual_builds += bank.residual_builds();
        }
        counts.activation_rate = activations as f64 / counts.events.max(1) as f64;
        counts
    }
}

/// Bank-level counters of the shared-prefix stage.
#[derive(Default)]
struct BankCounts {
    events: u64,
    activation_rate: f64,
    peak_instances: usize,
    residual_builds: u64,
}

/// Indices of the XML jobs (the only ones the filter, bank and server
/// stages take).
fn xml_jobs(inputs: &Inputs) -> Vec<usize> {
    (0..inputs.jobs.len())
        .filter(|&i| inputs.qsets[inputs.jobs[i].qset].frontend == Frontend::Xml)
        .collect()
}

/// The session's own share per XML document: each document runs
/// through `Session::run_reader` and then through the stage below it
/// (see [`Stages::below_session`]), back to
/// back so drift in machine speed hits both alike; per document the
/// medians over repetitions are subtracted. ns per document, averaged
/// over documents.
fn session_share(
    tr: &mut Tracer,
    inputs: &Inputs,
    runner: &mut Runner,
    stages: &mut Stages,
    budget: Duration,
) -> f64 {
    let jobs = xml_jobs(inputs);
    let mut session = vec![Vec::new(); jobs.len()];
    let mut below = vec![Vec::new(); jobs.len()];
    let end = Instant::now() + budget;
    while session.first().is_some_and(|s| s.len() < PROBE_REPS) || Instant::now() < end {
        for (k, &i) in jobs.iter().enumerate() {
            let job = &inputs.jobs[i];
            let parent = tr.open("bench", "session_share", ROOT);
            let t0 = Instant::now();
            let id = tr.open("engine", "Session::run_reader", parent);
            black_box(runner.run(job)).expect("workload documents parse");
            tr.close(id);
            session[k].push(t0.elapsed().as_nanos() as f64);
            let shared = inputs.qsets[job.qset].shared_prefix;
            below[k].push(stages.below_session(tr, job, shared) as f64);
            tr.close(parent);
        }
    }
    let diffs: Vec<f64> = session
        .iter()
        .zip(&below)
        .map(|(s, b)| median(s) - median(b))
        .collect();
    diffs.iter().sum::<f64>() / diffs.len().max(1) as f64
}

fn probe_text(len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(0x7e57);
    let text: String = (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect();
    format!("<r><t>{text}</t></r>").into_bytes()
}

fn probe_nested(depth: usize) -> Vec<u8> {
    let mut s = "<a>".repeat(depth);
    s.push_str(&"</a>".repeat(depth));
    s.into_bytes()
}

/// time(4n) / time(n) of `f`, each the median of `PROBE_REPS` runs.
fn scaling(mut f: impl FnMut(usize) -> u64, n: usize) -> f64 {
    let mut t = |n| {
        let xs: Vec<f64> = (0..PROBE_REPS).map(|_| f(n) as f64).collect();
        median(&xs)
    };
    let small = t(n);
    t(4 * n) / small.max(1.0)
}

/// XML parse-only time of one text node of `len` bytes, in ns.
fn token_probe(tr: &mut Tracer, len: usize) -> u64 {
    let doc = probe_text(len);
    let mut parser = StreamingParser::new();
    let id = tr.open("xml", "drive_batched(probe)", ROOT);
    let t0 = Instant::now();
    let r = parser.drive_batched(black_box(&doc[..]), &mut |b| {
        black_box(b.len());
    });
    let ns = t0.elapsed().as_nanos() as u64;
    tr.close(id);
    r.expect("probe parses");
    ns
}

/// `//a[b]` filter time (core spans only) over `<a>` nested `depth`
/// deep, in ns.
fn depth_probe(tr: &mut Tracer, depth: usize) -> u64 {
    let doc = probe_nested(depth);
    let compiled = Arc::new(
        CompiledQuery::compile(&fx_xpath::parse_query("//a[b]").expect("probe query parses"))
            .expect("probe query compiles"),
    );
    let mut parser = StreamingParser::with_symbols(Arc::clone(compiled.symbols())).lookup_only();
    let mut filter = StreamFilter::from_shared(compiled);
    let mut scratch = AttrBuf::new();
    let mut ns = 0u64;
    let parent = tr.open("bench", "depth_probe", ROOT);
    parser
        .drive_batched(&doc[..], &mut |b| {
            let id = tr.open("core", "StreamFilter::process_batch(probe)", parent);
            let t0 = Instant::now();
            filter.process_batch(b, &mut scratch);
            ns += t0.elapsed().as_nanos() as u64;
            tr.close(id);
        })
        .expect("probe parses");
    tr.close(parent);
    assert_eq!(
        filter.result(),
        Some(false),
        "//a[b] never matches without b"
    );
    ns
}

/// The traced run of any workload.
pub fn run(inputs: &Inputs, seed: u64, seconds: f64) -> (Report, Tracer) {
    let mut rep = Report::new();
    let mut tr = Tracer::new();
    let rss0 = stats::status_kb("VmRSS").unwrap_or(0);
    stats::reset_peak_rss();
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    // Set-up layers.
    let mut engines = Vec::new();
    for _ in 0..BUILD_REPS {
        drop(engines);
        engines = build_engines(&inputs.qsets, Some(&mut tr));
    }
    let n_queries: usize = inputs.qsets.iter().map(|q| q.queries.len()).sum();
    let parse_us =
        tr.total_ns("xpath", "parse_query") as f64 / 1e3 / (BUILD_REPS * n_queries.max(1)) as f64;
    let build_ms = tr.total_ns("engine", "build") as f64 / 1e6 / BUILD_REPS as f64;

    // Whole-session passes: the correctness gate and the overhead row.
    let mut runner = Runner::new(&engines, &inputs.qsets);
    let first: Vec<Option<JobResult>> = inputs
        .jobs
        .iter()
        .map(|j| runner.run(j).ok().map(JobResult::from))
        .collect();
    crate::check::verdicts(inputs, &first, &mut rep);
    // Untraced and traced passes alternate, so drift in machine speed
    // falls on both sides of the overhead ratio alike.
    let (mut plain, mut traced) = (Passes::default(), Passes::default());
    let end = Instant::now() + budget(0.4);
    while traced.pass_s.len() < MIN_OVERHEAD_PASSES || Instant::now() < end {
        plain.pass(&mut runner, &inputs.jobs, &first, None);
        traced.pass(&mut runner, &inputs.jobs, &first, Some(&mut tr));
    }
    rep.attempted += plain.attempted + traced.attempted;
    rep.failed += plain.failed + traced.failed;
    let overhead_pct = (median(&traced.pass_s) / median(&plain.pass_s) - 1.0) * 100.0;
    let xml = xml_jobs(inputs);

    // Parse-only, per frontend; frontends this workload lacks come from
    // the feeds corpus of the same seed.
    let (mut total, one_pass) =
        parse_only(&mut tr, &inputs.jobs, &inputs.qsets, &engines, budget(0.1));
    if total[Frontend::Html as usize].bytes == 0 || total[Frontend::Json as usize].bytes == 0 {
        let feeds = inputs::generate("feeds", seed).expect("feeds is a workload");
        let keep: Vec<Job> = feeds
            .jobs
            .iter()
            .filter(|j| {
                let fe = feeds.qsets[j.qset].frontend;
                fe != Frontend::Xml && total[fe as usize].bytes == 0
            })
            .cloned()
            .collect();
        let feed_engines = build_engines(&feeds.qsets, None);
        let (mut extra, _) = parse_only(&mut tr, &keep, &feeds.qsets, &feed_engines, budget(0.05));
        for fe in [Frontend::Html, Frontend::Json] {
            if total[fe as usize].bytes == 0 {
                total[fe as usize] = std::mem::take(&mut extra[fe as usize]);
            }
        }
    }
    let ns_per_byte = |fe: Frontend| {
        tr.total_ns(fe.layer(), "drive_batched") as f64 / total[fe as usize].bytes.max(1) as f64
    };
    let (xml_ns_b, html_ns_b, json_ns_b) = (
        ns_per_byte(Frontend::Xml),
        ns_per_byte(Frontend::Html),
        ns_per_byte(Frontend::Json),
    );
    let xml_counts = &one_pass[Frontend::Xml as usize];
    let symbols: usize = engines
        .iter()
        .zip(&inputs.qsets)
        .filter(|(_, qs)| qs.frontend == Frontend::Xml)
        .map(|(e, _)| e.symbols().len())
        .sum();

    // Filter and bank stages, and the session's own share above them.
    // Default-bank query sets run the filter stage over every document;
    // the budget only trims the 1024-filter runs of shared-prefix sets.
    let mut stages = Stages::new(&inputs.qsets, &engines);
    let mut pairs = 0u64;
    let filter_end = Instant::now() + budget(0.1);
    for &i in &xml {
        let job = &inputs.jobs[i];
        if inputs.qsets[job.qset].shared_prefix && pairs > 0 && Instant::now() >= filter_end {
            continue;
        }
        pairs += stages.filters(&mut tr, job).1;
    }
    let filter_ns_event =
        tr.total_ns("core", "StreamFilter::process_sym") as f64 / pairs.max(1) as f64;
    for &i in &xml {
        stages.bank(&mut tr, &inputs.jobs[i]);
    }
    let bank = stages.bank_counts();
    let bank_ns_event =
        tr.total_ns("core", "IndexedBank::process_batch_to") as f64 / bank.events.max(1) as f64;
    let session_ns_doc = session_share(&mut tr, inputs, &mut runner, &mut stages, budget(0.1));

    // Complexity probes: fixed inputs, the same on every workload.
    let token_4x = scaling(|n| token_probe(&mut tr, n), 512 << 10);
    let depth_4x = scaling(|n| depth_probe(&mut tr, n), 1024);

    // Server layer: the dissemination workload's open and closed loops,
    // shortened; other workloads borrow its inputs from the same seed.
    let borrowed;
    let d = match &inputs.dissem {
        Some(d) => d,
        None => {
            borrowed = inputs::generate("dissemination", seed)
                .and_then(|i| i.dissem)
                .expect("dissemination is a workload");
            &borrowed
        }
    };
    let (server, handle, subs) = dissem::start(&d.queries, Some(&mut tr));
    let phases = (seconds * 0.15, seconds * 0.1);
    let out = dissem::serve(&handle, &subs, &d.pool, &d.churn, phases, Some(&mut tr));
    let errors = dissem::teardown(server, &handle, subs, Some(&mut tr));
    let hwm = stats::status_kb("VmHWM").unwrap_or(0);
    rep.failed += errors;
    dissem::check_outcome(&d.queries, &d.pool, &out, &mut rep);
    let published = (out.n_open + out.n_sat).max(1);
    let closed = tr
        .spans_named("bench", "closed_loop")
        .next()
        .unwrap_or(ROOT);
    let publish_us = tr.durations_us_under("server", "ShardedHandle::publish", closed);

    let fail_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.metric(
        "deliver_p99_us",
        stats::quantile(&out.lat_us, 0.99),
        "us",
        out.lat_us.len() as u64,
    );
    let n_xml = xml.len() as u64;
    rep.metric("xml.parse_ns_per_byte", xml_ns_b, "ns/B", total[0].bytes);
    rep.metric("xml.events", xml_counts.events as f64, "count", n_xml);
    rep.metric("xml.batches", xml_counts.batches as f64, "count", n_xml);
    rep.metric("xml.symbols", symbols as f64, "count", 1);
    rep.metric("xml.token_scaling_4x", token_4x, "ratio", PROBE_REPS as u64);
    rep.metric(
        "html.tokenize_ns_per_byte",
        html_ns_b,
        "ns/B",
        total[1].bytes,
    );
    rep.metric(
        "json.tokenize_ns_per_byte",
        json_ns_b,
        "ns/B",
        total[2].bytes,
    );
    rep.metric(
        "core.filter_ns_per_event",
        filter_ns_event,
        "ns/event",
        pairs,
    );
    rep.metric(
        "core.depth_scaling_4x",
        depth_4x,
        "ratio",
        PROBE_REPS as u64,
    );
    rep.metric(
        "core.bank_ns_per_event",
        bank_ns_event,
        "ns/event",
        bank.events,
    );
    rep.metric(
        "core.activation_rate",
        bank.activation_rate,
        "1/event",
        bank.events,
    );
    rep.metric(
        "core.peak_instances",
        bank.peak_instances as f64,
        "count",
        1,
    );
    rep.metric(
        "core.residual_builds",
        bank.residual_builds as f64,
        "count",
        1,
    );
    rep.metric("engine.session_ns_per_doc", session_ns_doc, "ns/doc", n_xml);
    rep.metric("engine.build_ms", build_ms, "ms", BUILD_REPS as u64);
    rep.metric(
        "xpath.parse_us_per_query",
        parse_us,
        "us",
        (BUILD_REPS * n_queries) as u64,
    );
    let sub_us = tr.durations_us("server", "ShardedHandle::subscribe");
    let unsub_us = tr.durations_us("server", "ShardedHandle::unsubscribe");
    rep.metric(
        "server.subscribe_us",
        median(&sub_us),
        "us",
        sub_us.len() as u64,
    );
    rep.metric(
        "server.unsubscribe_us",
        median(&unsub_us),
        "us",
        unsub_us.len() as u64,
    );
    rep.metric(
        "server.publish_block_us",
        publish_us.iter().sum::<f64>() / publish_us.len().max(1) as f64,
        "us",
        publish_us.len() as u64,
    );
    rep.metric(
        "server.backlog_docs_max",
        out.backlog_max as f64,
        "count",
        out.n_open,
    );
    rep.metric(
        "server.deliveries_per_doc",
        out.stats.deliveries as f64 / published as f64,
        "1/doc",
        published,
    );
    rep.metric(
        "server.dropped",
        out.stats.dropped_deliveries as f64,
        "count",
        published,
    );
    rep.metric("gen.late_ms_max", out.late_us_max / 1e3, "ms", out.n_open);
    rep.metric(
        "trace.overhead_pct",
        overhead_pct,
        "%",
        traced.pass_s.len() as u64,
    );
    rep.metric("fail_ratio", fail_ratio, "ratio", rep.attempted);
    rep.metric(
        "mem.rss_rise_mb",
        hwm.saturating_sub(rss0) as f64 / 1024.0,
        "MB",
        1,
    );
    if inputs.dissem.is_none() {
        rep.notes.push(format!(
            "server rows and deliver_p99_us: the dissemination inputs of seed {seed}"
        ));
    }
    (rep, tr)
}
