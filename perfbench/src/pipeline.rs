//! Engines, sessions, and the single-threaded bytes→verdicts run of the
//! `feeds`, `bank-1024` and `hostile` workloads.

use crate::check;
use crate::inputs::{Frontend, Inputs, Job, QuerySet};
use crate::stats::{self, median, Report};
use crate::trace::{Tracer, ROOT};
use fx_engine::{Engine, EngineError, IndexPolicy, Session, Verdicts};
use fx_xml::{EventSource, StreamingParser};
use fx_xpath::Query;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `setup_s` sample runs set-ups back to back for at least
/// `SETUP_BATCH` and takes their mean: a small query set builds in tens
/// of µs, where a single timed build is mostly timer and allocator
/// noise. `SETUP_SAMPLES` samples precede the timed loop; more follow
/// between passes, one every `SETUP_EVERY`, so the fastest sample can
/// come from any stretch of the run, as the documents' best times do.
const SETUP_BATCH: Duration = Duration::from_millis(2);
const SETUP_SAMPLES: usize = 10;
const SETUP_EVERY: Duration = Duration::from_millis(100);
/// Timed passes over the corpus at the least, however long they take.
const MIN_PASSES: usize = 3;

/// Builds the engine of one query set. This is the only place the
/// benchmark chooses a bank: the shared-prefix bank is opt-in through
/// the builder's index policy; everything else runs the default engine.
pub fn build_engine(queries: Vec<Query>, shared_prefix: bool) -> Result<Engine, EngineError> {
    let builder = Engine::builder().queries(queries);
    if shared_prefix {
        builder.index(IndexPolicy::SharedPrefix).build()
    } else {
        builder.build()
    }
}

/// Parses query strings the generators produced (they always parse).
pub fn parse_queries(queries: &[String]) -> Vec<Query> {
    queries
        .iter()
        .map(|q| fx_xpath::parse_query(q).expect("generated queries parse"))
        .collect()
}

/// Parses and builds every query set's engine once; with a tracer, each
/// call is a span.
pub fn build_engines(qsets: &[QuerySet], mut tracer: Option<&mut Tracer>) -> Vec<Engine> {
    qsets
        .iter()
        .map(|qs| {
            let queries: Vec<Query> = qs
                .queries
                .iter()
                .map(|q| {
                    Tracer::span_opt(&mut tracer, "xpath", "parse_query", ROOT, || {
                        fx_xpath::parse_query(black_box(q))
                    })
                    .expect("generated queries parse")
                })
                .collect();
            Tracer::span_opt(&mut tracer, "engine", "build", ROOT, || {
                build_engine(queries, qs.shared_prefix)
            })
            .expect("generated query sets build")
        })
        .collect()
}

/// One `setup_s` sample: parse and build every engine, again and again
/// until `SETUP_BATCH` has passed. Returns the last engines and the mean
/// seconds per set-up (each including the drop of the one before).
fn setup_sample(inputs: &Inputs) -> (Vec<Engine>, f64) {
    let t0 = Instant::now();
    let mut n = 0u32;
    loop {
        let engines = black_box(build_engines(&inputs.qsets, None));
        n += 1;
        let elapsed = t0.elapsed();
        if elapsed >= SETUP_BATCH {
            return (engines, elapsed.as_secs_f64() / f64::from(n));
        }
    }
}

/// A frontend bound to an engine's symbol table in lookup-only mode: the
/// engine's own HTML/JSON sources, or an XML `StreamingParser` on the
/// same table for the traced run's stages.
pub fn source_for(engine: &Engine, frontend: Frontend) -> Box<dyn EventSource> {
    match frontend {
        Frontend::Xml => {
            Box::new(StreamingParser::with_symbols(Arc::clone(engine.symbols())).lookup_only())
        }
        Frontend::Html => Box::new(engine.html_source()),
        Frontend::Json => Box::new(engine.json_source()),
    }
}

/// One reused session per query set, plus a reused frontend for the
/// sets read through `Session::run_source` (XML uses `run_reader`).
pub struct Runner {
    sessions: Vec<Session>,
    sources: Vec<Option<Box<dyn EventSource>>>,
}

/// What one document produced: its verdicts and the paper's space
/// measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    pub matched: Vec<bool>,
    pub bits: u64,
}

impl From<Verdicts> for JobResult {
    fn from(v: Verdicts) -> JobResult {
        JobResult {
            matched: v.matched().to_vec(),
            bits: v.total_peak_bits(),
        }
    }
}

impl Runner {
    pub fn new(engines: &[Engine], qsets: &[QuerySet]) -> Runner {
        Runner {
            sessions: engines.iter().map(Engine::session).collect(),
            sources: engines
                .iter()
                .zip(qsets)
                .map(|(e, qs)| (qs.frontend != Frontend::Xml).then(|| source_for(e, qs.frontend)))
                .collect(),
        }
    }

    /// Streams one document through its query set's session.
    pub fn run(&mut self, job: &Job) -> Result<Verdicts, EngineError> {
        let doc: &[u8] = black_box(&job.doc[..]);
        let session = &mut self.sessions[job.qset];
        match &mut self.sources[job.qset] {
            None => session.run_reader(doc),
            Some(source) => session.run_source(source.as_mut(), doc),
        }
    }

    /// The session's call name, as a trace span.
    pub fn call(&self, job: &Job) -> &'static str {
        match self.sources[job.qset] {
            None => "Session::run_reader",
            Some(_) => "Session::run_source",
        }
    }
}

/// Timings of repeated passes over a workload's jobs.
#[derive(Default)]
pub struct Passes {
    /// Per pass: seconds.
    pub pass_s: Vec<f64>,
    /// Per document run: microseconds.
    pub doc_us: Vec<f64>,
    /// Runs attempted and failed (errors or verdicts differing from the
    /// first pass).
    pub attempted: u64,
    pub failed: u64,
}

impl Passes {
    /// Each document's best (fastest) run time over the passes, µs, for
    /// `n_jobs` documents run in order on every pass. On a shared host
    /// other tenants slow whole stretches of a run; a document's best
    /// time over hundreds of passes is what repeats from run to run.
    pub fn best_per_doc(&self, n_jobs: usize) -> Vec<f64> {
        (0..n_jobs)
            .map(|j| {
                let us: Vec<f64> = self
                    .doc_us
                    .iter()
                    .skip(j)
                    .step_by(n_jobs)
                    .copied()
                    .collect();
                stats::min(&us)
            })
            .collect()
    }

    /// One timed pass over `jobs`. With a tracer, each session call is
    /// also a span — the traced twin of the same loop.
    pub fn pass(
        &mut self,
        runner: &mut Runner,
        jobs: &[Job],
        first: &[Option<JobResult>],
        mut tracer: Option<&mut Tracer>,
    ) {
        let p0 = Instant::now();
        for (job, expect) in jobs.iter().zip(first) {
            let t0 = Instant::now();
            let call = runner.call(job);
            let got = Tracer::span_opt(&mut tracer, "engine", call, ROOT, || runner.run(job));
            self.doc_us.push(stats::us(t0.elapsed()));
            self.attempted += 1;
            // Verdicts must repeat exactly. Peak bits need not: a reused
            // HTML/JSON session reports a running maximum across
            // documents (see perfbench/README.md).
            let got = black_box(got).ok().map(|v| v.matched().to_vec());
            if got.as_ref() != expect.as_ref().map(|e| &e.matched) {
                self.failed += 1;
            }
        }
        self.pass_s.push(p0.elapsed().as_secs_f64());
    }
}

/// The untraced end-to-end run of a single-threaded workload.
pub fn run(inputs: &Inputs, seconds: f64) -> Report {
    let mut rep = Report::new();
    let rss0 = stats::status_kb("VmRSS").unwrap_or(0);
    stats::reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut engines = Vec::new();
    while setup_s.len() < SETUP_SAMPLES {
        drop(engines);
        let (built, secs) = setup_sample(inputs);
        engines = built;
        setup_s.push(secs);
    }
    let mut runner = Runner::new(&engines, &inputs.qsets);
    // Warm-up pass: fills caches and the reused parsers' buffers; its
    // outputs are the ones checked against the reference, and every
    // timed pass must reproduce them.
    let first: Vec<Option<JobResult>> = inputs
        .jobs
        .iter()
        .map(|j| runner.run(j).ok().map(JobResult::from))
        .collect();
    let mut passes = Passes::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last_setup = Instant::now();
    while passes.pass_s.len() < MIN_PASSES || Instant::now() < end {
        passes.pass(&mut runner, &inputs.jobs, &first, None);
        if last_setup.elapsed() >= SETUP_EVERY {
            setup_s.push(black_box(setup_sample(inputs)).1);
            last_setup = Instant::now();
        }
    }
    let hwm = stats::status_kb("VmHWM").unwrap_or(0);

    check::verdicts(inputs, &first, &mut rep);

    let bytes = inputs.bytes() as f64;
    let docs = inputs.jobs.len() as f64;
    let n_pass = passes.pass_s.len() as u64;
    let n_docs = passes.doc_us.len() as u64;
    let bits = first.iter().flatten().map(|r| r.bits).max().unwrap_or(0);
    let doc_best = passes.best_per_doc(inputs.jobs.len());
    let best_s = doc_best.iter().sum::<f64>() / 1e6;
    rep.metric("throughput_mb_s", bytes / best_s / 1e6, "MB/s", n_pass);
    rep.metric("saturated_docs_per_s", docs / best_s, "docs/s", n_pass);
    rep.metric("deliver_p50_us", stats::geomean(&doc_best), "us", n_docs);
    rep.metric("setup_s", stats::min(&setup_s), "s", setup_s.len() as u64);
    rep.metric("state_bits_peak", bits as f64, "bits", first.len() as u64);
    rep.metric("rss_peak_mb", hwm as f64 / 1024.0, "MB", 1);
    rep.attempted = passes.attempted;
    rep.failed = passes.failed;
    rep.notes.push(format!(
        "closed loop, one thread, reused sessions: {n_pass} passes of {} docs; per-document \
         best times; median pass {:.2} MB/s; deliver_p50_us is the geometric mean \
         of per-document bytes-in to verdicts-out latency",
        inputs.jobs.len(),
        bytes / median(&passes.pass_s) / 1e6,
    ));
    if inputs.jobs.len() <= 8 {
        let per_job: Vec<String> = doc_best
            .iter()
            .map(|us| format!("{:.2}", us / 1e3))
            .collect();
        rep.notes
            .push(format!("per-document best ms: {}", per_job.join(" ")));
    }
    rep.notes.push(format!(
        "rss: {:.1} MB after input generation, peak {:.1} MB (rise {:.1} MB)",
        rss0 as f64 / 1024.0,
        hwm as f64 / 1024.0,
        hwm.saturating_sub(rss0) as f64 / 1024.0
    ));
    rep
}
