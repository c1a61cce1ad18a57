//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a workspace crate's public
//! function: its layer (the crate suffix: `xml`, `core`, `engine`, …),
//! the call's name, the span that caused it, and its start and duration
//! relative to the tracer's epoch. Spans stay in memory while the run
//! measures and are written out as TSV when it ends.

use std::io::Write as _;
use std::time::Instant;

/// Sentinel parent id for a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a span and returns its id; [`Tracer::close`] ends it.
    pub fn open(&mut self, layer: &'static str, call: &'static str, parent: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            layer,
            call,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.dur_ns = now - span.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, call, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a span when there is a tracer, bare otherwise:
    /// the one place the traced and untraced twins of a loop differ.
    pub fn span_opt<T>(
        tracer: &mut Option<&mut Tracer>,
        layer: &'static str,
        call: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer.as_deref_mut() {
            Some(tr) => tr.span(layer, call, parent, f),
            None => f(),
        }
    }

    fn matching<'a>(
        &'a self,
        layer: &'a str,
        call: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.call == call)
    }

    /// Total nanoseconds spent in spans of `layer::call`.
    pub fn total_ns(&self, layer: &str, call: &str) -> u64 {
        self.matching(layer, call).map(|s| s.dur_ns).sum()
    }

    /// Durations (µs) of every span of `layer::call`.
    pub fn durations_us(&self, layer: &str, call: &str) -> Vec<f64> {
        self.matching(layer, call)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Durations (µs) of the `layer::call` spans whose parent is
    /// `parent`.
    pub fn durations_us_under(&self, layer: &str, call: &str, parent: u32) -> Vec<f64> {
        self.matching(layer, call)
            .filter(|s| s.parent == parent)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Ids of the `layer::call` spans.
    pub fn spans_named<'a>(
        &'a self,
        layer: &'a str,
        call: &'a str,
    ) -> impl Iterator<Item = u32> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.layer == layer && s.call == call)
            .map(|(i, _)| i as u32)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as `id parent layer call start_ns dur_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tcall\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.call, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
