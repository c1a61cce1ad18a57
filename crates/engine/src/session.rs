//! Per-document evaluation state: [`Session`], its [`Verdicts`], the
//! selection [`Outcome`], and the convenience [`MatchCollector`] sink.

use crate::builder::Mode;
use crate::error::EngineError;
use crate::evaluator::Evaluator;
use fx_core::{IndexedBank, Match, MatchSink, StreamFilter};
use fx_xml::{
    AttrBuf, Attribute, Event, EventBatch, EventIter, EventSource, Span, StreamingParser, Sym,
    SymEvent, Symbols,
};
use std::io::Read;
use std::sync::Arc;

/// The mutable half of the engine: filters mid-document.
///
/// A session is fed incrementally — [`Session::push`] one event at a
/// time, or [`Session::run_reader`] to drive a whole document from any
/// byte source without ever materializing it. `Frontier` sessions parse
/// with the engine's symbol table and take interned events straight
/// from the tokenizer; the automata and buffering baselines pull owned
/// events through [`EventIter`]. After `EndDocument` (or `finish()`), the same
/// session can be reused for the next document: the next
/// `StartDocument` resets every filter's per-document state while
/// keeping amortizable state (such as the lazy DFA's memoized
/// transition table) warm.
///
/// On a [`Mode::Select`] engine the session additionally *streams
/// matches*: every confirmed output node is delivered to a
/// [`MatchSink`] (the `_to` entry points) the moment its ancestor
/// chain resolves. The sink-less entry points collect matches
/// internally instead, for retrieval via [`Session::finish_outcome`].
///
/// Multi-query `Frontier` filtering sessions run on the
/// short-circuiting [`fx_core::MultiFilter`] bank: filters whose
/// verdict is already decided (accepted — or rejected at the root tag,
/// the dominant dissemination case) stop seeing events. Verdicts are
/// unaffected; a decided filter's peak-bit statistic simply freezes at
/// its decision point. Single-query `Frontier` sessions hold a bare
/// [`StreamFilter`] (reporting on [`Mode::Select`]) that sees every
/// event, so their statistics are bit-for-bit identical to a bare
/// filter run. Selection sessions never short-circuit — full
/// evaluation must examine every candidate.
pub struct Session {
    inner: SessionInner,
    events: u64,
    mode: Mode,
    /// The engine's symbol table: the reader entry points parse with it
    /// so events reach every `Frontier` session — one filter or a bank —
    /// pre-interned (zero per-event name lookups, zero per-event
    /// allocation on the tag-dispatch path).
    symbols: Arc<Symbols>,
    /// The session's reusable lookup-only parser for the interned
    /// reader path: reset per document, its scratch buffers, name memo
    /// and read buffer stay warm across a reused session's documents.
    parser: Option<StreamingParser>,
    /// Matches confirmed through the sink-less entry points, held for
    /// [`Session::finish_outcome`]; cleared at each `StartDocument`.
    collected: Vec<Match>,
}

pub(crate) enum SessionInner {
    /// One evaluator per query: the automata and buffering baselines.
    Each(Vec<Box<dyn Evaluator>>),
    /// A one-query `Frontier` session: the bare filter (reporting on
    /// [`Mode::Select`]), fed every event, plus the attribute scratch
    /// its batch replay borrows.
    Single {
        filter: Box<StreamFilter>,
        scratch: AttrBuf,
    },
    /// The (optionally reporting) frontier bank.
    Bank(fx_core::MultiFilter),
    /// The shared-prefix indexed bank
    /// ([`crate::IndexPolicy::SharedPrefix`]): common query prefixes
    /// evaluated once per event, per-query state only below activated
    /// divergence points.
    Indexed(Box<fx_core::IndexedBank>),
}

impl SessionInner {
    fn push(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        match self {
            SessionInner::Each(evs) => {
                for ev in evs {
                    ev.process(event);
                }
            }
            SessionInner::Single { filter, .. } => {
                filter.process_spanned(event, span);
                filter.drain_matches(0, sink);
            }
            SessionInner::Bank(bank) => bank.process_to(event, span, sink),
            SessionInner::Indexed(bank) => bank.process_to(event, span, sink),
        }
    }

    /// Whether this session can consume interned events natively (every
    /// `Frontier` session); `Each` evaluators (the automata and
    /// buffering baselines) keep the owned-event surface.
    fn supports_interned(&self) -> bool {
        !matches!(self, SessionInner::Each(_))
    }

    /// Whole-batch dispatch: one virtual call hands a run of events to
    /// the bank, which walks it with per-event scratch hoisted out of
    /// the loop (and, for the multi-filter bank, skips the rest of a
    /// batch once every filter is decided).
    fn push_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        match self {
            SessionInner::Single { filter, scratch } => {
                filter.process_batch_to(batch, scratch, 0, sink)
            }
            SessionInner::Bank(bank) => bank.process_batch_to(batch, sink),
            SessionInner::Indexed(bank) => bank.process_batch_to(batch, sink),
            SessionInner::Each(_) => unreachable!("interned path gated by supports_interned"),
        }
    }
}

impl Session {
    pub(crate) fn new(inner: SessionInner, mode: Mode, symbols: Arc<Symbols>) -> Session {
        Session {
            inner,
            events: 0,
            mode,
            symbols,
            parser: None,
            collected: Vec::new(),
        }
    }

    /// Wraps a live [`IndexedBank`] — typically one grown through
    /// [`IndexedBank::subscribe`] — in a session, inheriting the bank's
    /// symbol table and reporting mode. This is the entry point for
    /// long-running dissemination services (`fx-server`): the bank stays
    /// reachable through [`Session::indexed_bank`] /
    /// [`Session::indexed_bank_mut`] so queries can churn between
    /// documents while the session keeps its parser warm across
    /// [`Session::run_reader_to`] calls.
    pub fn from_indexed(bank: IndexedBank) -> Session {
        let mode = if bank.is_reporting() {
            Mode::Select
        } else {
            Mode::Filter
        };
        let symbols = Arc::clone(bank.symbols());
        Session::new(SessionInner::Indexed(Box::new(bank)), mode, symbols)
    }

    /// The underlying [`IndexedBank`] of a session built with
    /// [`crate::IndexPolicy::SharedPrefix`] or
    /// [`Session::from_indexed`]; `None` otherwise.
    pub fn indexed_bank(&self) -> Option<&IndexedBank> {
        match &self.inner {
            SessionInner::Indexed(bank) => Some(bank),
            _ => None,
        }
    }

    /// Mutable access to the underlying [`IndexedBank`], for subscribing
    /// and unsubscribing queries on a live session. Churn is safe at any
    /// time but only fully effective from the next document; apply it
    /// between documents (see `IndexedBank::subscribe`).
    pub fn indexed_bank_mut(&mut self) -> Option<&mut IndexedBank> {
        match &mut self.inner {
            SessionInner::Indexed(bank) => Some(bank),
            _ => None,
        }
    }

    /// Invalidates the warm parser's memoized name verdicts. Must be
    /// called after subscribing queries on a live session
    /// ([`Session::indexed_bank_mut`] + `IndexedBank::subscribe`): the
    /// lookup-only reader path memoizes unknown-name verdicts, and a new
    /// subscription can intern names an earlier document already
    /// memoized as unknown. No-op when no reader has run yet.
    ///
    /// On a [`Session::freeze_parser`] session this additionally
    /// re-takes the frozen symbol snapshot, so names the churn interned
    /// become visible to this session's reader. In a multi-worker pool
    /// every worker session must refresh its *own* memo when it applies
    /// a churn command — another worker's refresh does nothing for this
    /// one (see the multi-worker caveat on `fx_xml::SymCache`).
    pub fn refresh_symbol_memo(&mut self) {
        if let Some(parser) = &mut self.parser {
            parser.invalidate_name_memo();
        }
    }

    /// Switches the session's warm reader onto a **frozen snapshot** of
    /// the engine's symbol table ([`fx_xml::SymbolsSnapshot`]): from the
    /// next document on, the reader path resolves names lock-free
    /// against the snapshot instead of read-locking the shared table.
    /// This is the per-worker mode of the sharded runners
    /// ([`crate::Engine::run_sharded`] and the sharded dissemination
    /// server), where N sessions parse concurrently against one engine
    /// — the engine-owned mutable table stays single-writer while
    /// worker reads touch no lock at all.
    ///
    /// The snapshot is a point-in-time view: after subscribing queries
    /// on a live bank, call [`Session::refresh_symbol_memo`] to re-take
    /// it (churn is the only event that grows the table, since frozen
    /// readers run lookup-only).
    pub fn freeze_parser(&mut self) {
        let parser = self.parser.take().unwrap_or_else(|| {
            StreamingParser::with_symbols(Arc::clone(&self.symbols)).lookup_only()
        });
        self.parser = Some(parser.frozen());
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        match &self.inner {
            SessionInner::Each(evs) => evs.len(),
            SessionInner::Single { .. } => 1,
            SessionInner::Bank(bank) => bank.len(),
            SessionInner::Indexed(bank) => bank.len(),
        }
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine mode this session was spawned with.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The indexed bank's space/activation breakdown — shared-trie bits,
    /// per-group residual bits, exact bank total, activation counts and
    /// the shared-residual pool size (see [`fx_core::IndexSpaceStats`]).
    /// `None` on sessions not built with
    /// [`crate::IndexPolicy::SharedPrefix`]; for those, the per-query
    /// figures in [`Verdicts::peak_memory_bits`] are already exact.
    pub fn index_stats(&self) -> Option<fx_core::IndexSpaceStats> {
        match &self.inner {
            SessionInner::Indexed(bank) => Some(bank.space_stats()),
            _ => None,
        }
    }

    /// Feeds one SAX event to every filter whose verdict is still open.
    /// Streams must carry the full document framing (`StartDocument` …
    /// `EndDocument`), which is what every `fx_xml` source produces.
    ///
    /// On a selection session, matches this event confirms are collected
    /// internally for [`Session::finish_outcome`]; hand-pushed events
    /// carry no source offsets, so their matches have [`Span::EMPTY`].
    /// Use [`Session::push_spanned_to`] to stream matches to a sink with
    /// real spans.
    pub fn push(&mut self, event: &Event) {
        self.push_spanned(event, Span::EMPTY);
    }

    /// [`Session::push`] with the event's source byte span (from
    /// [`fx_xml::SpannedEvents`] or [`fx_xml::parse_spanned`]), so
    /// collected matches carry real source ranges.
    pub fn push_spanned(&mut self, event: &Event, span: Span) {
        if matches!(event, Event::StartDocument) {
            self.collected.clear();
        }
        self.events += 1;
        let Session {
            inner, collected, ..
        } = self;
        inner.push(event, span, collected);
    }

    /// Feeds one event, routing any matches it confirms to `sink`
    /// (selection sessions; filtering sessions never call the sink).
    pub fn push_to(&mut self, event: &Event, sink: &mut dyn MatchSink) {
        self.push_spanned_to(event, Span::EMPTY, sink);
    }

    /// [`Session::push_to`] with the event's source byte span: the full
    /// incremental-selection entry point. Matches reach `sink` the
    /// moment the frontier resolves their ancestor chains — possibly
    /// many events before `EndDocument`.
    pub fn push_spanned_to(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        if matches!(event, Event::StartDocument) {
            self.collected.clear();
        }
        self.events += 1;
        self.inner.push(event, span, sink);
    }

    /// Collects the per-query verdicts of the document just streamed.
    ///
    /// Errors with [`EngineError::IncompleteDocument`] if `EndDocument`
    /// has not been pushed. The session remains usable for the next
    /// document afterwards.
    pub fn finish(&mut self) -> Result<Verdicts, EngineError> {
        let (matched, peak_bits, peak_pending) = match &self.inner {
            SessionInner::Each(evs) => {
                let mut matched = Vec::with_capacity(evs.len());
                let mut peak_bits = Vec::with_capacity(evs.len());
                for ev in evs {
                    matched.push(ev.verdict().ok_or(EngineError::IncompleteDocument)?);
                    peak_bits.push(ev.peak_memory_bits());
                }
                let peak_pending = vec![0; evs.len()];
                (matched, peak_bits, peak_pending)
            }
            SessionInner::Single { filter, .. } => (
                vec![filter.result().ok_or(EngineError::IncompleteDocument)?],
                vec![filter.stats().max_bits],
                vec![filter.peak_pending_positions()],
            ),
            SessionInner::Bank(bank) => {
                let mut matched = Vec::with_capacity(bank.len());
                for r in bank.results() {
                    matched.push(r.ok_or(EngineError::IncompleteDocument)?);
                }
                let peak_bits = bank.stats().iter().map(|s| s.max_bits).collect();
                (matched, peak_bits, bank.peak_pending_positions())
            }
            SessionInner::Indexed(bank) => {
                let mut matched = Vec::with_capacity(bank.len());
                for r in bank.results() {
                    matched.push(r.ok_or(EngineError::IncompleteDocument)?);
                }
                (
                    matched,
                    bank.peak_memory_bits(),
                    bank.peak_pending_positions(),
                )
            }
        };
        Ok(Verdicts {
            matched,
            peak_bits,
            peak_pending,
            events: self.events,
        })
    }

    /// [`Session::finish`], additionally returning the matches the
    /// sink-less entry points collected since the last `StartDocument`,
    /// grouped per query: the batch face of selection.
    pub fn finish_outcome(&mut self) -> Result<Outcome, EngineError> {
        let verdicts = self.finish()?;
        let mut matches: Vec<Vec<Match>> = (0..verdicts.len()).map(|_| Vec::new()).collect();
        for m in self.collected.drain(..) {
            matches[m.query].push(m);
        }
        Ok(Outcome { verdicts, matches })
    }

    /// Streams one whole document from `reader` and finishes: the
    /// true-streaming entry point. Memory is bounded by the read chunk,
    /// the largest single XML token, and the filters' own state — never
    /// by document size. (On selection sessions, prefer
    /// [`Session::run_reader_to`] or [`Session::run_reader_outcome`],
    /// which do not discard the matches.)
    pub fn run_reader<R: Read>(&mut self, reader: R) -> Result<Verdicts, EngineError> {
        self.drive_collected(reader)?;
        self.finish()
    }

    /// Streams one whole document from `reader`, delivering each match
    /// to `sink` *as it is confirmed*, and finishes with the verdicts.
    /// This is the dissemination hot path: subscribers see matches while
    /// the document is still streaming, with byte spans to act on.
    pub fn run_reader_to<R: Read>(
        &mut self,
        reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        if self.inner.supports_interned() {
            self.drive_interned(reader, sink)?;
        } else {
            let mut events = EventIter::new(reader);
            while let Some(item) = events.next_spanned() {
                let (event, span) = item?;
                self.push_spanned_to(&event, span, sink);
            }
        }
        self.finish()
    }

    /// Streams one whole document from `reader` and returns the full
    /// [`Outcome`] — verdicts plus the collected per-query matches.
    pub fn run_reader_outcome<R: Read>(&mut self, reader: R) -> Result<Outcome, EngineError> {
        self.drive_collected(reader)?;
        self.finish_outcome()
    }

    /// [`Session::run_reader`] generalized over the event frontend:
    /// streams one whole document from `reader` through `source` — any
    /// [`EventSource`] (the XML [`StreamingParser`], `fx-html`'s soup
    /// tokenizer, `fx-json`'s record adapter, …) — and finishes with
    /// the verdicts.
    ///
    /// The source should share the engine's symbol table (build it with
    /// `with_symbols(engine.symbols().clone()).lookup_only()`, or use
    /// `Engine::html_source` / `Engine::json_source`): then interned
    /// events flow straight into the frontier banks with no per-event
    /// allocation, exactly like the XML reader path. A source carrying
    /// a *different* table still evaluates correctly — its events are
    /// materialized and re-resolved per event, at owned-event cost.
    pub fn run_source<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
    ) -> Result<Verdicts, EngineError> {
        self.drive_source_collected(source, &mut reader)?;
        self.finish()
    }

    /// [`Session::run_source`], delivering each match to `sink` *as it
    /// is confirmed* — [`Session::run_reader_to`] for non-XML frontends.
    pub fn run_source_to<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<Verdicts, EngineError> {
        self.drive_source(source, &mut reader, sink)?;
        self.finish()
    }

    /// [`Session::run_source`], returning the full [`Outcome`] —
    /// verdicts plus the collected per-query matches.
    pub fn run_source_outcome<R: Read>(
        &mut self,
        source: &mut dyn EventSource,
        mut reader: R,
    ) -> Result<Outcome, EngineError> {
        self.drive_source_collected(source, &mut reader)?;
        self.finish_outcome()
    }

    fn drive_source_collected(
        &mut self,
        source: &mut dyn EventSource,
        reader: &mut dyn Read,
    ) -> Result<(), EngineError> {
        // Same outbox dance as `drive_collected`: one drive is one
        // document, so clearing up front equals clearing at its
        // `StartDocument`.
        self.collected.clear();
        let mut collected = std::mem::take(&mut self.collected);
        let result = self.drive_source(source, reader, &mut collected);
        self.collected = collected;
        result
    }

    /// The frontend-generic drive loop. Interned-capable sessions fed
    /// by a source sharing the engine's table take the same zero-copy
    /// path as [`Session::drive_interned`]; everything else (automata
    /// baselines, foreign tables) converts each event to its owned form
    /// through the *source's* table, mapping [`Sym::UNKNOWN`] — a name
    /// a lookup-only source saw but never interned — to a sentinel that
    /// cannot collide with any query's vocabulary (if it could, the
    /// name would have been interned at compile time and would not be
    /// unknown).
    fn drive_source(
        &mut self,
        source: &mut dyn EventSource,
        reader: &mut dyn Read,
        sink: &mut dyn MatchSink,
    ) -> Result<(), EngineError> {
        source.reset();
        let shares_table = Arc::ptr_eq(source.symbols(), &self.symbols);
        let Session {
            inner,
            collected,
            events,
            ..
        } = self;
        if inner.supports_interned() && shares_table {
            // A drive is exactly one document, so clearing the outbox up
            // front equals clearing at its `StartDocument` — which lets
            // the hot loop take whole batches with no per-event check.
            collected.clear();
            return source
                .drive_batched(reader, &mut |batch| {
                    *events += batch.len() as u64;
                    inner.push_batch(batch, sink);
                })
                .map_err(EngineError::from);
        }
        let symbols = Arc::clone(source.symbols());
        source
            .drive(reader, &mut |ev, span| {
                if matches!(ev, SymEvent::StartDocument) {
                    collected.clear();
                }
                *events += 1;
                let event = owned_from_sym(&symbols, &ev);
                inner.push(&event, span, sink);
            })
            .map_err(EngineError::from)
    }

    fn drive_collected<R: Read>(&mut self, reader: R) -> Result<(), EngineError> {
        if self.inner.supports_interned() {
            // Collect into the session's own outbox: drop the previous
            // document's matches (a drive is exactly one document, so
            // clearing up front equals clearing at its `StartDocument`)
            // and run the shared interned loop with the outbox as sink.
            self.collected.clear();
            let mut collected = std::mem::take(&mut self.collected);
            let result = self.drive_interned(reader, &mut collected);
            self.collected = collected;
            return result;
        }
        let mut events = EventIter::new(reader);
        while let Some(item) = events.next_spanned() {
            let (event, span) = item?;
            self.push_spanned(&event, span);
        }
        Ok(())
    }

    /// The zero-copy reader loop: parse with the engine's shared symbol
    /// table and dispatch interned events straight into the bank — no
    /// owned `Event` is ever materialized, and in steady state no
    /// allocation happens per element event anywhere on the path.
    ///
    /// Events move in **batches**: the parser fills a reusable
    /// arena-backed [`EventBatch`] per structural-index pass and the
    /// bank walks each run in one call
    /// ([`fx_core::MultiFilter::process_batch_to`] /
    /// [`fx_core::IndexedBank::process_batch_to`]), so the callback
    /// boundary is paid once per batch instead of once per event. A
    /// one-query session skips the batch buffer entirely: its filter is
    /// fused into the tokenizer's monomorphized emit chain, with no
    /// dynamic call anywhere on the per-event path, and a reporting
    /// filter hands its matches to the sink after every event.
    fn drive_interned<R: Read>(
        &mut self,
        reader: R,
        sink: &mut dyn MatchSink,
    ) -> Result<(), EngineError> {
        // Lookup-only: document names outside the compiled query
        // vocabulary collapse to `Sym::UNKNOWN` instead of growing
        // the engine-wide table, so a long-lived engine's memory
        // stays bounded by its queries, never by document content.
        // The parser itself is kept across documents (reset per drive)
        // so its scratch buffers and name memo stay warm.
        let mut parser = self.parser.take().unwrap_or_else(|| {
            StreamingParser::with_symbols(Arc::clone(&self.symbols)).lookup_only()
        });
        parser.reset();
        // A drive is exactly one document: clearing the outbox up front
        // equals clearing at its `StartDocument`.
        self.collected.clear();
        let Session { inner, events, .. } = self;
        let result = match inner {
            SessionInner::Single { filter, .. } => parser
                .drive_reader(reader, &mut |ev, span| {
                    *events += 1;
                    filter.process_sym(ev, span);
                    filter.drain_matches(0, sink);
                })
                .map_err(EngineError::from),
            _ => parser
                .drive_batched(reader, &mut |batch| {
                    *events += batch.len() as u64;
                    inner.push_batch(batch, sink);
                })
                .map_err(EngineError::from),
        };
        self.parser = Some(parser);
        result
    }
}

/// What [`Sym::UNKNOWN`] resolves to on the owned-event fallback path:
/// a name a lookup-only source could not resolve is by construction
/// outside every query's vocabulary, and U+FFFD is not a name-start
/// character in any frontend, so this sentinel can never equal a node
/// test — the evaluators reject it exactly as they would the real name.
const UNKNOWN_NAME: &str = "\u{fffd}unknown";

/// Materializes an interned event through `symbols` (the table the
/// source issued its syms from), collapsing unresolvable names to
/// [`UNKNOWN_NAME`]. This is [`SymEvent::to_owned`] made total over
/// lookup-only streams.
fn owned_from_sym(symbols: &Symbols, ev: &SymEvent<'_>) -> Event {
    let resolve = |sym: Sym| {
        if sym == Sym::UNKNOWN {
            UNKNOWN_NAME.to_string()
        } else {
            symbols.resolve(sym)
        }
    };
    match *ev {
        SymEvent::StartDocument => Event::StartDocument,
        SymEvent::EndDocument => Event::EndDocument,
        SymEvent::StartElement { name, attributes } => Event::StartElement {
            name: resolve(name),
            attributes: attributes
                .iter()
                .map(|a| Attribute {
                    name: resolve(a.name),
                    value: a.value.clone(),
                })
                .collect(),
        },
        SymEvent::EndElement { name } => Event::EndElement {
            name: resolve(name),
        },
        SymEvent::Text { content } => Event::Text {
            content: content.to_string(),
        },
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("queries", &self.len())
            .field("mode", &self.mode)
            .field("events", &self.events)
            .finish()
    }
}

/// Everything one document produced on a selection engine: the boolean
/// [`Verdicts`] plus, per query, the confirmed [`Match`]es in
/// confirmation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    verdicts: Verdicts,
    matches: Vec<Vec<Match>>,
}

impl Outcome {
    /// The per-query boolean verdicts and space statistics.
    pub fn verdicts(&self) -> &Verdicts {
        &self.verdicts
    }

    /// The matches query `query` confirmed, in confirmation order (use
    /// [`Outcome::ordinals`] for document order).
    pub fn matches(&self, query: usize) -> &[Match] {
        &self.matches[query]
    }

    /// All matches across the bank, in confirmation order per query.
    pub fn all_matches(&self) -> impl Iterator<Item = &Match> {
        self.matches.iter().flatten()
    }

    /// Total number of confirmed matches across all queries.
    pub fn total_matches(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }

    /// The selected element ordinals of query `query`, sorted into
    /// document order — directly comparable with `fx_eval::full_eval`
    /// ground truth.
    pub fn ordinals(&self, query: usize) -> Vec<u64> {
        let mut o: Vec<u64> = self.matches[query].iter().map(|m| m.ordinal).collect();
        o.sort_unstable();
        o
    }

    /// Decomposes into `(verdicts, per-query matches)`.
    pub fn into_parts(self) -> (Verdicts, Vec<Vec<Match>>) {
        (self.verdicts, self.matches)
    }
}

/// The convenience collecting [`MatchSink`]: accumulates every match,
/// preserving confirmation order.
///
/// ```
/// use fx_engine::{Engine, MatchCollector, Mode};
///
/// let engine = Engine::builder()
///     .query_str("//item[price > 300]/name")
///     .mode(Mode::Select)
///     .build()
///     .unwrap();
/// let mut sink = MatchCollector::new();
/// let xml = "<r><item><price>400</price><name>a</name></item></r>";
/// engine.session().run_reader_to(xml.as_bytes(), &mut sink).unwrap();
/// assert_eq!(sink.len(), 1);
/// assert_eq!(sink.matches()[0].span.slice(xml), Some("<name>a</name>"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MatchCollector {
    matches: Vec<Match>,
}

impl MatchCollector {
    /// An empty collector.
    pub fn new() -> MatchCollector {
        MatchCollector::default()
    }

    /// The collected matches, in confirmation order.
    pub fn matches(&self) -> &[Match] {
        &self.matches
    }

    /// Consumes the collector, returning the matches.
    pub fn into_matches(self) -> Vec<Match> {
        self.matches
    }

    /// The collected ordinals of query `query`, sorted into document
    /// order.
    pub fn ordinals(&self, query: usize) -> Vec<u64> {
        let mut o: Vec<u64> = self
            .matches
            .iter()
            .filter(|m| m.query == query)
            .map(|m| m.ordinal)
            .collect();
        o.sort_unstable();
        o
    }

    /// Number of collected matches.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Empties the collector (e.g. between documents of a reused
    /// session).
    pub fn clear(&mut self) {
        self.matches.clear();
    }
}

impl MatchSink for MatchCollector {
    fn on_match(&mut self, m: Match) {
        self.matches.push(m);
    }
}

/// Per-query outcomes of one document, plus the logical-memory measure
/// the paper's bounds are stated in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    matched: Vec<bool>,
    peak_bits: Vec<u64>,
    peak_pending: Vec<usize>,
    events: u64,
}

impl Verdicts {
    /// Per-query verdicts, in registration order.
    pub fn matched(&self) -> &[bool] {
        &self.matched
    }

    /// Whether any query matched.
    pub fn any(&self) -> bool {
        self.matched.iter().any(|&m| m)
    }

    /// Whether every query matched.
    pub fn all(&self) -> bool {
        self.matched.iter().all(|&m| m)
    }

    /// Iterates the indices of the matching queries without allocating —
    /// the per-document dissemination fan-out loop should use this
    /// rather than [`Verdicts::matching_queries`].
    pub fn matching(&self) -> impl Iterator<Item = usize> + '_ {
        self.matched
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
    }

    /// Indices of the matching queries, collected into a `Vec`.
    pub fn matching_queries(&self) -> Vec<usize> {
        self.matching().collect()
    }

    /// Per-query peak logical filter state, in bits.
    pub fn peak_memory_bits(&self) -> &[u64] {
        &self.peak_bits
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// — the extra memory selection pays over filtering, which the
    /// paper's follow-up (\[5\]) proves unavoidable. All zeros on
    /// filtering sessions.
    pub fn peak_pending_positions(&self) -> &[usize] {
        &self.peak_pending
    }

    /// Aggregate peak logical filter state across the bank, in bits.
    pub fn total_peak_bits(&self) -> u64 {
        self.peak_bits.iter().sum()
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.matched.len()
    }

    /// True for an empty bank (unreachable via [`crate::Engine`]).
    pub fn is_empty(&self) -> bool {
        self.matched.is_empty()
    }

    /// Events processed by the session so far (cumulative across
    /// documents when the session is reused).
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use crate::{Backend, Engine, EngineError, IndexPolicy, Verdicts};

    /// Space statistics are per document: a session that already ran a
    /// deep document reports the next one exactly as a fresh session
    /// does — on every frontend, for one query and for both banks.
    #[test]
    fn reused_sessions_report_per_document_space() {
        let xml = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let html = |depth: usize| {
            format!(
                "<html><body>{}<p>x</p>{}</body></html>",
                "<div>".repeat(depth),
                "</div>".repeat(depth)
            )
        };
        let json = |depth: usize| {
            format!(
                "{{\"a\": {}{{\"b\": 1}}{}}}",
                "{\"a\": ".repeat(depth),
                "}".repeat(depth)
            )
        };
        let ndjson = |depth: usize| format!("{}\n", json(depth));
        type Doc<'a> = &'a dyn Fn(usize) -> String;
        let frontends: [(&str, &[&str], Doc); 4] = [
            ("xml", &["//a[b]", "//a/a", "/zz"], &xml),
            ("html", &["//div[p]", "//div/div", "//zz"], &html),
            ("json", &["//a[b]", "//a/a", "/zz"], &json),
            ("ndjson", &["//a[b]", "//a/a", "/zz"], &ndjson),
        ];
        for (frontend, queries, doc) in frontends {
            for (bank, n, index) in [
                ("single", 1, IndexPolicy::None),
                ("multi", 3, IndexPolicy::None),
                ("indexed", 3, IndexPolicy::SharedPrefix),
            ] {
                let mut builder = Engine::builder().index(index);
                for q in &queries[..n] {
                    builder = builder.query_str(q);
                }
                let engine = builder.build().unwrap();
                let run = |session: &mut super::Session, text: &str| -> Verdicts {
                    let bytes = text.as_bytes();
                    match frontend {
                        "xml" => session.run_reader(bytes),
                        "html" => session.run_source(&mut engine.html_source(), bytes),
                        "json" => session.run_source(&mut engine.json_source(), bytes),
                        _ => session.run_source(&mut engine.ndjson_source(), bytes),
                    }
                    .unwrap()
                };
                let mut reused = engine.session();
                run(&mut reused, &doc(6));
                let again = run(&mut reused, &doc(1));
                let fresh = run(&mut engine.session(), &doc(1));
                assert_eq!(
                    again.peak_memory_bits(),
                    fresh.peak_memory_bits(),
                    "{frontend} on the {bank} bank"
                );
            }
        }
    }

    #[test]
    fn push_finish_lifecycle() {
        let engine = Engine::builder().query_str("/a[b > 5]").build().unwrap();
        let mut session = engine.session();
        // finish() before EndDocument is an error, not a panic.
        for e in &fx_xml::parse("<a><b>6</b></a>").unwrap()[..3] {
            session.push(e);
        }
        assert!(matches!(
            session.finish(),
            Err(EngineError::IncompleteDocument)
        ));
        // Completing the stream delivers verdicts.
        for e in &fx_xml::parse("<a><b>6</b></a>").unwrap()[3..] {
            session.push(e);
        }
        let v = session.finish().unwrap();
        assert_eq!(v.matched(), &[true]);
        assert!(v.total_peak_bits() > 0);
    }

    #[test]
    fn session_reuse_across_documents() {
        let engine = Engine::builder()
            .query_str("/doc[title]")
            .query_str("/doc[price > 100]")
            .build()
            .unwrap();
        let mut session = engine.session();
        let v1 = session
            .run_reader("<doc><title>t</title><price>150</price></doc>".as_bytes())
            .unwrap();
        assert_eq!(v1.matching_queries(), vec![0, 1]);
        let v2 = session
            .run_reader("<doc><title>t</title></doc>".as_bytes())
            .unwrap();
        assert_eq!(v2.matching_queries(), vec![0]);
        assert!(v2.events() > v1.events(), "event counter is cumulative");
    }

    #[test]
    fn malformed_documents_surface_parse_errors() {
        let engine = Engine::builder().query_str("/a").build().unwrap();
        let err = engine.run_str("<a><b></a>").unwrap_err();
        assert!(matches!(err, EngineError::Parse(_)), "{err}");
    }

    #[test]
    fn selection_outcome_routes_matches_per_query() {
        let engine = Engine::builder()
            .query_str("/doc/item")
            .query_str("//note")
            .mode(crate::Mode::Select)
            .build()
            .unwrap();
        let xml = "<doc><item/><note/><item/></doc>";
        let outcome = engine.select_str(xml).unwrap();
        assert_eq!(outcome.verdicts().matched(), &[true, true]);
        // Ordinals: doc=0, item=1, note=2, item=3.
        assert_eq!(outcome.ordinals(0), vec![1, 3]);
        assert_eq!(outcome.ordinals(1), vec![2]);
        assert_eq!(outcome.total_matches(), 3);
        for m in outcome.all_matches() {
            let text = m.span.slice(xml).unwrap();
            assert!(text == "<item/>" || text == "<note/>", "{text}");
        }
    }

    #[test]
    fn selection_and_filter_modes_agree_on_verdicts() {
        let srcs = ["/doc/item", "//a[b]/c", "//missing"];
        let xml = "<doc><item/><a><b/><c/></a></doc>";
        let filter = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .build()
            .unwrap();
        let select = Engine::builder()
            .queries(srcs.iter().map(|s| fx_xpath::parse_query(s).unwrap()))
            .select()
            .build()
            .unwrap();
        assert_eq!(
            filter.run_str(xml).unwrap().matched(),
            select.select_str(xml).unwrap().verdicts().matched()
        );
    }

    #[test]
    fn selection_session_reuse_clears_collected_matches() {
        let engine = Engine::builder()
            .query_str("//b")
            .mode(crate::Mode::Select)
            .build()
            .unwrap();
        let mut session = engine.session();
        let o1 = session
            .run_reader_outcome("<a><b/><b/></a>".as_bytes())
            .unwrap();
        assert_eq!(o1.ordinals(0), vec![1, 2]);
        let o2 = session
            .run_reader_outcome("<a><b/></a>".as_bytes())
            .unwrap();
        assert_eq!(
            o2.ordinals(0),
            vec![1],
            "first document's matches must not leak"
        );
    }

    #[test]
    fn selection_tracks_peak_pending_positions() {
        let n = 40usize;
        // All <b> candidates stay pending on the late <x/>…
        let pending_heavy = format!("<a>{}<x/></a>", "<b/>".repeat(n));
        // …whereas immediately-resolved matches never occupy the buffer.
        let resolved = format!("<a>{}</a>", "<b/>".repeat(n));
        let engine = Engine::builder()
            .query_str("/a[x]/b")
            .select()
            .build()
            .unwrap();
        let v = engine.select_str(&pending_heavy).unwrap();
        assert!(v.verdicts().peak_pending_positions()[0] >= n);
        assert_eq!(v.total_matches(), n);

        let free = Engine::builder().query_str("//b").select().build().unwrap();
        let v = free.select_str(&resolved).unwrap();
        assert_eq!(v.total_matches(), n);
        assert_eq!(v.verdicts().peak_pending_positions(), &[0]);

        // Filtering sessions report no pending-position cost at all.
        let f = Engine::builder().query_str("/a[x]/b").build().unwrap();
        assert_eq!(
            f.run_str(&pending_heavy).unwrap().peak_pending_positions(),
            &[0]
        );
    }

    #[test]
    fn push_to_streams_matches_with_empty_spans() {
        let engine = Engine::builder().query_str("//b").select().build().unwrap();
        let mut session = engine.session();
        let mut got: Vec<crate::Match> = Vec::new();
        for e in &fx_xml::parse("<a><b/></a>").unwrap() {
            session.push_to(e, &mut got);
        }
        session.finish().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ordinal, 1);
        assert_eq!(got[0].span, fx_xml::Span::EMPTY);
    }

    #[test]
    fn reader_path_keeps_the_symbol_table_bounded() {
        // The engine-wide table holds the query vocabulary only: a
        // stream of documents with ever-fresh element names must not
        // grow it (the reader path parses in lookup-only mode).
        let engine = Engine::builder()
            .query_str("/doc[title]")
            .query_str("//doc/item")
            .build()
            .unwrap();
        let before = engine.symbols().len();
        let mut session = engine.session();
        for i in 0..50 {
            let xml = format!("<doc><title/><u{i}><v{i}/></u{i}></doc>");
            session.run_reader(xml.as_bytes()).unwrap();
        }
        assert_eq!(
            engine.symbols().len(),
            before,
            "document names leaked into the engine table"
        );
        // And the queries still evaluate correctly against such docs.
        let v = session
            .run_reader("<doc><title/><item/><w99/></doc>".as_bytes())
            .unwrap();
        assert_eq!(v.matched(), &[true, true]);
    }

    #[test]
    fn lazy_dfa_table_stays_warm_across_documents() {
        let engine = Engine::builder()
            .query_str("//a//b")
            .backend(Backend::LazyDfa)
            .build()
            .unwrap();
        let mut session = engine.session();
        let v1 = session.run_reader("<a><b/></a>".as_bytes()).unwrap();
        let v2 = session.run_reader("<a><b/></a>".as_bytes()).unwrap();
        assert!(v1.any() && v2.any());
        // Memoized table persists, so peak memory does not restart at 0.
        assert!(v2.total_peak_bits() >= v1.total_peak_bits());
    }
}
