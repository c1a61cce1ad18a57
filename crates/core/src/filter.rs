//! The streaming XPath filtering algorithm of Section 8.
//!
//! The algorithm gradually constructs a matching of the document with the
//! query on a *frontier* of the query (§8.1). When a `startElement` event
//! arrives for a document node `x`, every frontier record `u` for which `x`
//! is a *candidate match* spawns records for `u`'s children; when the
//! matching `endElement` arrives, those child records decide whether `x`
//! turned into a *real match* for `u`. The document matches the query iff
//! the query root's children are all matched at `endDocument`.
//!
//! The implementation follows the pseudocode of Figs. 20–21, with two
//! corrections documented in `DESIGN.md`:
//!
//! 1. *match-flag clobbering*: Fig. 21 line 28 sets `urec.matched := m`,
//!    which under recursion lets a failed outer candidate erase an inner
//!    candidate's success; we accumulate `matched ∨= m`;
//! 2. *buffer-offset overwrite*: Fig. 20 line 8 stores a single
//!    `strValueStart` per record, which nested candidacies of a
//!    descendant-axis leaf overwrite; we keep a stack of offsets.
//!
//! Neither changes the space complexity (Thm 8.8): the offset stack depth
//! is bounded by the path recursion depth `r`, which the theorem already
//! charges per record.
//!
//! ## Layout: per-level runs
//!
//! The frontier table holds exactly the paper's rows, but not as one flat
//! list. A child-axis record is a candidate only at its own level, and
//! the records of level `l + 1` are all spawned by the open element at
//! level `l` and die at its close. So child- and attribute-axis records
//! live in one flat vector cut into **per-level runs** (a stack of run
//! boundaries, one per open level), and descendant-axis records, which
//! stay candidates at every deeper level, live in a second level-ordered
//! vector threaded into one newest-first chain per query node. A start
//! tag touches its own level's run plus the chains of the descendant
//! nodes whose node test it passes; an end tag folds and pops the top
//! run. Per-tag cost is therefore O(records at this level + descendant
//! records selected), independent of the document depth — the stack
//! discipline of the XFilter/YFilter runtime stacks.

use crate::reporter::{Frame, Match, MatchSink, Reporter};
use crate::space::SpaceStats;
use fx_eval::truth::{constraining_predicate, TruthError};
use fx_xml::{
    AttrBuf, Event, EventBatch, EventRef, SaxHandler, Span, Sym, SymAttr, SymCache, SymEvent,
    Symbols,
};
use fx_xpath::{Axis, Expr, NodeTest, Query, QueryNodeId};
use std::fmt;
use std::sync::Arc;

/// Why a query cannot be handled by the streaming filter. The algorithm
/// supports every leaf-only-value-restricted univariate conjunctive query
/// (§8 intro).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsupportedQuery {
    /// A predicate is not a conjunction of atomic predicates.
    NotConjunctive(QueryNodeId),
    /// An atomic predicate has more than one variable.
    NotUnivariate(QueryNodeId),
    /// An internal node is value-restricted.
    NotLeafOnlyValueRestricted(QueryNodeId),
    /// Position reporting was requested but the output node is reached
    /// via an attribute axis (attributes carry no element ordinal).
    AttributeOutput,
}

impl fmt::Display for UnsupportedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsupportedQuery::NotConjunctive(u) => {
                write!(f, "predicate of {u} is not conjunctive")
            }
            UnsupportedQuery::NotUnivariate(u) => {
                write!(f, "predicate of {u} is not univariate")
            }
            UnsupportedQuery::NotLeafOnlyValueRestricted(u) => {
                write!(f, "internal node {u} is value-restricted")
            }
            UnsupportedQuery::AttributeOutput => {
                write!(
                    f,
                    "position reporting does not support attribute output nodes"
                )
            }
        }
    }
}

impl std::error::Error for UnsupportedQuery {}

/// A compiled query node: the per-node data the event handlers consult.
#[derive(Debug, Clone)]
struct CNode {
    axis: Axis,
    ntest: NodeTest,
    /// The node test resolved against the compiled query's [`Symbols`]
    /// table: `None` for a wildcard, otherwise the interned name. The
    /// per-event node-test check is a single integer compare against
    /// this — never a string compare.
    sym: Option<Sym>,
    children: Vec<u32>,
    /// For leaves: the constraining atomic predicate and its variable, or
    /// `None` when `TRUTH(u) = S` (any candidate is a real match).
    leaf_predicate: Option<(Expr, QueryNodeId)>,
    is_leaf: bool,
}

impl CNode {
    /// Whether an element or attribute named `name` passes this node's
    /// test. [`Sym::UNKNOWN`] (a name the table never interned) fails
    /// every named test and passes every wildcard, exactly like a fresh
    /// name would.
    #[inline]
    fn passes(&self, name: Sym) -> bool {
        match self.sym {
            None => true,
            Some(s) => s == name,
        }
    }
}

/// Resolves a node test against a symbol table (`None` = wildcard).
fn intern_ntest(symbols: &Symbols, ntest: &NodeTest) -> Option<Sym> {
    match ntest {
        NodeTest::Wildcard => None,
        NodeTest::Name(n) => Some(symbols.intern(n)),
    }
}

/// The compiled form of a query accepted by the filter.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    nodes: Vec<CNode>,
    parents: Vec<u32>,
    root_children: Vec<u32>,
    /// The succession chain from the root to `OUT(Q)` (excluding the
    /// root). `out_path[m-1]` is the output node.
    pub(crate) out_path: Vec<u32>,
    /// For each node: its 1-based index on the output path, if any.
    pub(crate) path_index: Vec<Option<u16>>,
    /// For each 1-based output-path index: whether that step has a
    /// child axis (precomputed so spawning a filter from shared compiled
    /// state allocates nothing).
    pub(crate) out_axes_child: Vec<bool>,
    /// The descendant-axis nodes: the only ones whose records can be
    /// candidates below their own level.
    desc_nodes: Vec<u32>,
    /// Whether some leaf carries a value predicate (buffers its string
    /// value): without one, end tags close no leaf candidacy.
    has_pred_leaves: bool,
    size: usize,
    source: String,
    /// The symbol table the node tests were resolved against. Events
    /// must reach the filter as syms from this same table (the owned
    /// [`Event`] entry points convert through it automatically).
    symbols: Arc<Symbols>,
}

impl CompiledQuery {
    /// Compiles `q` against a fresh private [`Symbols`] table,
    /// verifying it lies in the supported fragment. To share one table
    /// across a bank (so one event conversion serves every query), use
    /// [`CompiledQuery::compile_with`].
    pub fn compile(q: &Query) -> Result<CompiledQuery, UnsupportedQuery> {
        CompiledQuery::compile_with(q, Arc::new(Symbols::new()))
    }

    /// Compiles `q`, interning its node tests into `symbols`.
    pub fn compile_with(
        q: &Query,
        symbols: Arc<Symbols>,
    ) -> Result<CompiledQuery, UnsupportedQuery> {
        // Fragment checks (§8: leaf-only-value-restricted univariate
        // conjunctive).
        for u in q.all_nodes() {
            if let Some(p) = q.predicate(u) {
                for c in p.conjuncts() {
                    if !fx_eval::is_atomic(c) {
                        return Err(UnsupportedQuery::NotConjunctive(u));
                    }
                    if c.vars().len() > 1 {
                        return Err(UnsupportedQuery::NotUnivariate(u));
                    }
                }
            }
        }
        let mut nodes = Vec::with_capacity(q.len());
        for u in q.all_nodes() {
            let leaf_predicate = match constraining_predicate(q, u) {
                Ok(p) => p.map(|(var, e)| (e, var)),
                Err(TruthError::NotUnivariate { node }) => {
                    return Err(UnsupportedQuery::NotUnivariate(node))
                }
                Err(TruthError::NotAtomic { node }) => {
                    return Err(UnsupportedQuery::NotConjunctive(node))
                }
                Err(TruthError::Eval(_)) => None,
            };
            let is_leaf = q.is_leaf(u);
            if !is_leaf && leaf_predicate.is_some() {
                return Err(UnsupportedQuery::NotLeafOnlyValueRestricted(u));
            }
            let ntest = q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard);
            nodes.push(CNode {
                axis: q.axis(u).unwrap_or(Axis::Child),
                sym: intern_ntest(&symbols, &ntest),
                ntest,
                children: q.children(u).iter().map(|c| c.0).collect(),
                leaf_predicate: if is_leaf { leaf_predicate } else { None },
                is_leaf,
            });
        }
        let root_children = nodes[0].children.clone();
        let parents = q
            .all_nodes()
            .map(|u| q.parent(u).unwrap_or(q.root()).0)
            .collect();
        let mut out_path = Vec::new();
        let mut path_index = vec![None; q.len()];
        let mut cur = q.root();
        while let Some(next) = q.successor(cur) {
            out_path.push(next.0);
            path_index[next.index()] = Some(out_path.len() as u16);
            cur = next;
        }
        let out_axes_child = out_path
            .iter()
            .map(|&n| nodes[n as usize].axis != Axis::Descendant)
            .collect();
        let desc_nodes = (0..nodes.len() as u32)
            .filter(|&u| nodes[u as usize].axis == Axis::Descendant)
            .collect();
        let has_pred_leaves = nodes.iter().any(|n| n.leaf_predicate.is_some());
        Ok(CompiledQuery {
            nodes,
            parents,
            root_children,
            out_path,
            path_index,
            out_axes_child,
            desc_nodes,
            has_pred_leaves,
            size: q.len(),
            source: fx_xpath::to_xpath(q),
            symbols,
        })
    }

    /// The symbol table this query's node tests are resolved against.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Re-resolves the node tests against `symbols` (a no-op when it is
    /// already this query's table). Banks call this to unify queries
    /// compiled against different private tables onto one shared table,
    /// so a single per-event conversion serves the whole bank.
    pub fn bind(&mut self, symbols: &Arc<Symbols>) {
        if Arc::ptr_eq(&self.symbols, symbols) {
            return;
        }
        for n in &mut self.nodes {
            n.sym = intern_ntest(symbols, &n.ntest);
        }
        self.symbols = Arc::clone(symbols);
    }

    /// The query size `|Q|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The XPath text the query was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The `(node-test sym, axis)` pairs of the query root's children —
    /// the records a fresh filter starts with. The indexed bank derives
    /// *dormancy triggers* from these: until some event selects one of
    /// them, a residual instance provably holds no state beyond its
    /// initial records and need not exist at all.
    pub(crate) fn root_child_specs(&self) -> impl Iterator<Item = (Option<Sym>, Axis)> + '_ {
        self.root_children
            .iter()
            .map(|&c| (self.nodes[c as usize].sym, self.nodes[c as usize].axis))
    }

    /// Whether the query can run in *reporting* (selection) mode:
    /// position reporting requires an element output node, since
    /// attributes carry no element ordinal.
    pub fn reporting_supported(&self) -> Result<(), UnsupportedQuery> {
        if self
            .out_path
            .iter()
            .any(|&n| self.nodes[n as usize].axis == Axis::Attribute)
        {
            return Err(UnsupportedQuery::AttributeOutput);
        }
        Ok(())
    }
}

/// One row of the frontier table (§8.2), extended with the offset stack.
#[derive(Debug, Clone)]
pub struct FrontierRecord {
    /// The query node this record tracks (`ref`).
    pub node: u32,
    /// Has a real match been found (`matched`)?
    pub matched: bool,
    /// The document level at which a child-axis candidate must appear;
    /// for descendant-axis records, the insertion level (candidates may be
    /// deeper).
    pub level: usize,
    /// Buffer offsets of the string values of currently-open candidacies
    /// (leaf records only). Innermost last.
    pub str_starts: Vec<usize>,
}

/// The streaming filter: feed it SAX events through
/// [`StreamFilter::process`] (or [`StreamFilter::process_spanned`], to
/// stamp reported matches with source byte spans) and read the verdict
/// at `endDocument`.
#[derive(Debug, Clone)]
pub struct StreamFilter {
    /// The compiled query, behind an [`Arc`] so many filters (e.g. the
    /// residual instances the indexed bank spawns per activation) share
    /// one compilation: constructing a filter from an existing handle is
    /// a reference-count bump, never a recompilation or deep clone.
    query: Arc<CompiledQuery>,
    /// All mutable per-document state, split from `query` so the event
    /// handlers borrow the compiled query and the state disjointly —
    /// no per-event `Arc` traffic, no cloning of compiled nodes.
    st: FilterState,
    /// Reused attribute buffer for the owned-event conversion layer.
    attr_scratch: AttrBuf,
    /// Lock-free name-lookup memo for the owned-event conversion layer.
    name_cache: SymCache,
}

/// The mutable half of a [`StreamFilter`]: the frontier table and every
/// per-document accumulator, plus the reused per-event scratch buffers
/// that keep the handlers allocation-free in steady state.
#[derive(Debug, Clone)]
struct FilterState {
    /// Child- and attribute-axis records, cut into one contiguous run per
    /// open document level: run `k` is `recs[runs[k]..runs[k + 1]]` (the
    /// top run extends to the end). Such a record is a candidate only at
    /// exactly its own level, so a tag reads its level's run alone.
    recs: Vec<FrontierRecord>,
    /// Run boundaries: `runs.len() == current_level + 1` at all times.
    runs: Vec<usize>,
    /// Descendant-axis records in insertion order — hence level order, so
    /// the records of the innermost open level are always a suffix.
    desc: Vec<DescRecord>,
    /// Per query node: the index in `desc` of its newest record, or
    /// [`NO_REC`] — the head of the node's chain through
    /// [`DescRecord::prev`].
    desc_top: Vec<u32>,
    buffer: String,
    buffer_refs: usize,
    current_level: usize,
    stats: SpaceStats,
    result: Option<bool>,
    /// Full-evaluation extension: present in reporting mode only.
    reporter: Option<Reporter>,
    /// Ordinal of the next element start (reporting mode).
    element_ordinal: u64,
    /// Old `matched` values of child-axis records removed at candidacy
    /// start, so reporting mode can restore them at reinsertion (keyed by
    /// (node, level), stack discipline).
    removed_matched: Vec<(u32, usize, bool)>,
    /// Bumped whenever some record's `matched` flag turns true; lets the
    /// multi-query bank re-run the (recursive) early-decision check only
    /// when it could possibly have changed.
    match_progress: u64,
    /// Reused per-event scratch: records spawned at a `startElement`.
    scratch_insert: Vec<FrontierRecord>,
    /// Reused per-event scratch: `(parent, all_matched, pred_matched)`
    /// fold results of an `endElement`.
    scratch_groups: Vec<(u32, bool, bool)>,
    /// The arguments of the last delivered `SpaceStats::observe` call:
    /// `(rows, stack entries, buffer bytes, level)`. A snapshot whose
    /// components are all ≤ these is dominated (the bits formula is
    /// monotone in every argument), so it cannot move any maximum and
    /// is skipped — most events of a steady stream don't re-enter the
    /// observation arithmetic at all.
    observe_snap: (usize, usize, usize, usize),
}

/// The end of a descendant-axis chain.
const NO_REC: u32 = u32::MAX;

/// A descendant-axis frontier row plus the link to the previous record
/// of the same query node.
#[derive(Debug, Clone)]
struct DescRecord {
    rec: FrontierRecord,
    prev: u32,
}

impl StreamFilter {
    /// Creates a filter for a supported query.
    pub fn new(q: &Query) -> Result<StreamFilter, UnsupportedQuery> {
        Ok(StreamFilter::from_compiled(CompiledQuery::compile(q)?))
    }

    /// Creates a filter from an already-compiled query (cheap; used by the
    /// multi-query engine to share compilation).
    pub fn from_compiled(query: CompiledQuery) -> StreamFilter {
        StreamFilter::from_shared(Arc::new(query))
    }

    /// Creates a filter from a *shared* compiled query: a reference-count
    /// bump plus empty per-document state — no recompilation, no deep
    /// clone, no per-step allocation. This is the indexed bank's
    /// activation hot path (one call per residual instance spawned).
    pub fn from_shared(query: Arc<CompiledQuery>) -> StreamFilter {
        let size = query.size();
        StreamFilter {
            query,
            st: FilterState {
                recs: Vec::new(),
                runs: Vec::new(),
                desc: Vec::new(),
                desc_top: Vec::new(),
                buffer: String::new(),
                buffer_refs: 0,
                current_level: 0,
                stats: SpaceStats::new(size),
                result: None,
                reporter: None,
                element_ordinal: 0,
                removed_matched: Vec::new(),
                match_progress: 0,
                scratch_insert: Vec::new(),
                scratch_groups: Vec::new(),
                observe_snap: (0, 0, 0, 0),
            },
            attr_scratch: AttrBuf::new(),
            name_cache: SymCache::new(),
        }
    }

    /// Creates a filter in *reporting* mode: besides the boolean verdict,
    /// it reports the element ordinals (0-based `startElement` positions)
    /// of the nodes `FULLEVAL(Q, D)` selects. This is the full-evaluation
    /// extension the paper sketches in §1; it buffers unresolved candidate
    /// positions, the cost the paper's follow-up \[5\] proves unavoidable.
    pub fn new_reporting(q: &Query) -> Result<StreamFilter, UnsupportedQuery> {
        StreamFilter::from_compiled_reporting(CompiledQuery::compile(q)?)
    }

    /// Reporting-mode filter from an already-compiled query (cheap; used
    /// by the multi-query bank and the engine's selection mode).
    pub fn from_compiled_reporting(query: CompiledQuery) -> Result<StreamFilter, UnsupportedQuery> {
        StreamFilter::from_shared_reporting(Arc::new(query))
    }

    /// Reporting-mode filter from a *shared* compiled query — the
    /// selection-mode counterpart of [`StreamFilter::from_shared`].
    pub fn from_shared_reporting(
        query: Arc<CompiledQuery>,
    ) -> Result<StreamFilter, UnsupportedQuery> {
        query.reporting_supported()?;
        let mut f = StreamFilter::from_shared(query);
        f.st.reporter = Some(Reporter::default());
        Ok(f)
    }

    /// One-shot full evaluation: the ordinals of selected elements.
    pub fn run_reporting(q: &Query, events: &[Event]) -> Result<Vec<u64>, UnsupportedQuery> {
        let mut f = StreamFilter::new_reporting(q)?;
        f.process_all(events);
        Ok(f.matched_positions()
            .expect("endDocument delivers positions"))
    }

    /// In reporting mode, after `endDocument`: the sorted element
    /// ordinals selected by `FULLEVAL(Q, D)` that have **not** been
    /// drained through [`StreamFilter::drain_matches`].
    ///
    /// This is the legacy batch accessor, now a thin wrapper over the
    /// reporter's collecting outbox: when nothing drains matches
    /// incrementally (the `run_reporting` path) every confirmed position
    /// accumulates there and this returns the complete result set.
    pub fn matched_positions(&self) -> Option<Vec<u64>> {
        match (&self.st.reporter, self.st.result) {
            (Some(rep), Some(_)) => Some(rep.results()),
            _ => None,
        }
    }

    /// Drains every match confirmed since the last drain into `sink`,
    /// stamped with bank index `query`. The engine calls this after each
    /// event, so matches reach the consumer the moment the paper's
    /// frontier resolves their ancestor chains — not at `endDocument`.
    ///
    /// No-op in filtering (non-reporting) mode.
    pub fn drain_matches(&mut self, query: usize, sink: &mut dyn MatchSink) {
        if let Some(rep) = &mut self.st.reporter {
            for (ordinal, span) in rep.drain_outbox() {
                sink.on_match(Match {
                    query,
                    ordinal,
                    span,
                });
            }
        }
    }

    /// Peak number of simultaneously buffered *unresolved* candidate
    /// positions (reporting mode) — the \[5\] buffering cost. Matches whose
    /// ancestor chains already resolved are emitted immediately and never
    /// counted here.
    pub fn peak_pending_positions(&self) -> usize {
        self.st.reporter.as_ref().map_or(0, |r| r.max_pendings)
    }

    /// True when this filter reports positions (selection mode).
    pub fn is_reporting(&self) -> bool {
        self.st.reporter.is_some()
    }

    /// Feeds a slice of events.
    pub fn process_all(&mut self, events: &[Event]) {
        for e in events {
            self.process(e);
        }
    }

    /// Feeds a whole stream and returns the verdict — the same shape as
    /// the automata baselines' `run_stream`, so comparative tests can
    /// treat all engines uniformly.
    pub fn run_stream(&mut self, events: &[Event]) -> Option<bool> {
        self.process_all(events);
        self.result()
    }

    /// Feeds one event without span information (matches then carry
    /// [`Span::EMPTY`]). Sources that know byte offsets use
    /// [`StreamFilter::process_spanned`].
    pub fn process(&mut self, event: &Event) {
        self.process_spanned(event, Span::EMPTY);
    }

    /// Feeds one event together with its source byte span, so reporting
    /// mode can stamp each confirmed match with the element's full
    /// source range (start tag through end tag).
    ///
    /// This is the owned-event conversion layer: the name is resolved
    /// to a [`Sym`] through the compiled query's table (a read-only
    /// lookup) and dispatch proceeds on integers. Sources that already
    /// hold interned events (`fx_xml::StreamingParser::feed_interned`)
    /// should call [`StreamFilter::process_sym`] directly and skip the
    /// lookup.
    pub fn process_spanned(&mut self, event: &Event, span: Span) {
        self.process_ref(event.as_ref(), span);
    }

    /// [`StreamFilter::process_spanned`] over a borrowed
    /// [`EventRef`] — no owned `Event` needs to exist. Names are
    /// resolved through a per-filter lock-free [`SymCache`]; unknown
    /// names become [`Sym::UNKNOWN`] and fail every named node test.
    pub fn process_ref(&mut self, event: EventRef<'_>, span: Span) {
        match event {
            EventRef::StartDocument => self.process_sym(SymEvent::StartDocument, span),
            EventRef::EndDocument => self.process_sym(SymEvent::EndDocument, span),
            EventRef::StartElement { name, attributes } => {
                let sym = self.name_cache.lookup(self.query.symbols(), name);
                if attributes.is_empty() {
                    self.process_sym(
                        SymEvent::StartElement {
                            name: sym,
                            attributes: &[],
                        },
                        span,
                    );
                } else {
                    let mut scratch = std::mem::take(&mut self.attr_scratch);
                    let attrs = scratch.fill_from_cached(
                        &mut self.name_cache,
                        self.query.symbols(),
                        attributes,
                    );
                    self.process_sym(
                        SymEvent::StartElement {
                            name: sym,
                            attributes: attrs,
                        },
                        span,
                    );
                    self.attr_scratch = scratch;
                }
            }
            EventRef::EndElement { name } => {
                let sym = self.name_cache.lookup(self.query.symbols(), name);
                self.process_sym(SymEvent::EndElement { name: sym }, span);
            }
            EventRef::Text { content } => self.process_sym(SymEvent::Text { content }, span),
        }
    }

    /// Feeds one *interned* event: the allocation-free hot path. The
    /// event's syms must come from this filter's compiled table
    /// ([`CompiledQuery::symbols`]) — feed the same table to the parser
    /// (`StreamingParser::with_symbols`) and the names meet as equal
    /// integers.
    pub fn process_sym(&mut self, event: SymEvent<'_>, span: Span) {
        // Disjoint borrows: the compiled query is read, the state is
        // mutated — no per-event refcount traffic, no cloning.
        let q: &CompiledQuery = &self.query;
        let st = &mut self.st;
        match event {
            SymEvent::StartDocument => st.start_document(q),
            SymEvent::EndDocument => st.end_document(q),
            SymEvent::StartElement { name, attributes } => {
                st.start_element(q, name, attributes, span)
            }
            SymEvent::EndElement { name } => st.end_element(q, name, span),
            SymEvent::Text { content } => st.text(content),
        }
        st.stats.events += 1;
        // `buffer_refs` counts the open leaf candidacies, which is
        // exactly the total of per-record offset-stack entries.
        let snap = (
            st.recs.len() + st.desc.len(),
            st.buffer_refs,
            st.buffer.len(),
            st.current_level,
        );
        let dominated = snap.0 <= st.observe_snap.0
            && snap.1 <= st.observe_snap.1
            && snap.2 <= st.observe_snap.2
            && snap.3 <= st.observe_snap.3;
        if !dominated {
            // The snapshot must be a tuple that was actually observed —
            // a pointwise max of several would dominate points whose
            // bits exceed every real observation.
            st.observe_snap = snap;
            st.stats.observe(snap.0, snap.1, snap.2, snap.3);
        }
    }

    /// Feeds a whole interned [`EventBatch`] in one call: the batch is
    /// replayed into [`StreamFilter::process_sym`] with the attribute
    /// `scratch` hoisted out of the per-event loop, so the filter sees
    /// exactly the per-event stream but pays the call boundary once per
    /// run. The batch's syms must come from the same table as the
    /// compiled query.
    pub fn process_batch(&mut self, batch: &EventBatch, scratch: &mut AttrBuf) {
        batch.replay(scratch, |ev, span| self.process_sym(ev, span));
    }

    /// [`StreamFilter::process_batch`] with confirmed matches drained
    /// **once per batch** instead of once per event. The reporter's
    /// outbox is a FIFO, so a single filter's match order is exactly
    /// that of the per-event drain — only the sink-call granularity is
    /// amortized. (The multi-filter bank keeps per-event draining to
    /// preserve cross-filter match interleaving.)
    pub fn process_batch_to(
        &mut self,
        batch: &EventBatch,
        scratch: &mut AttrBuf,
        query: usize,
        sink: &mut dyn MatchSink,
    ) {
        self.process_batch(batch, scratch);
        self.drain_matches(query, sink);
    }

    /// The verdict, available after `endDocument`.
    pub fn result(&self) -> Option<bool> {
        self.st.result
    }

    /// Early decision: `Some(verdict)` as soon as the verdict can no
    /// longer change, even mid-document.
    ///
    /// In filtering mode the `matched` flags of the query root's child
    /// records are monotone (a real match is never revoked), so once
    /// every root child is matched the document is accepted regardless
    /// of the remaining events; conversely, a child-axis root child the
    /// root element failed to select can never match, deciding the
    /// document rejected at its very first tag. The multi-query bank
    /// uses both to stop feeding decided filters — the XFilter-style
    /// hot-path win. Reporting mode never decides early (every candidate
    /// must still be examined), and an undecided filter reports `None`
    /// until `endDocument`.
    pub fn decided(&self) -> Option<bool> {
        if self.st.result.is_some() {
            return self.st.result;
        }
        if self.st.reporter.is_some() {
            return None;
        }
        if self
            .query
            .root_children
            .iter()
            .all(|&v| self.st.satisfied_at(&self.query, v, 0))
        {
            return Some(true);
        }
        // Early FALSE: a child-axis root child's only possible candidate
        // is the document root element. While we are inside the root
        // (`current_level > 0`), a level-0 child-axis record still present
        // and unmatched with no open candidacy means the root's start tag
        // did not select it — its node test failed — so it can never
        // match and the conjunction is dead. This is the dominant
        // dissemination case: most `/doc[...]`-shaped filters die on the
        // root tag of a non-matching document.
        if self.st.current_level > 0 {
            let impossible = self.st.run(0).iter().any(|r| {
                !r.matched
                    && r.str_starts.is_empty()
                    && self.query.nodes[r.node as usize].axis == Axis::Child
            });
            if impossible {
                return Some(false);
            }
        }
        None
    }

    /// Monotone counter of decision-relevant transitions within the
    /// current document: match flags turning true, plus the root
    /// element's start (which can kill child-axis filters early).
    /// [`StreamFilter::decided`] can only flip on such a transition, so
    /// callers polling it per event (the multi-query bank) re-check only
    /// when this value moved — keeping the polling off the hot path.
    pub fn match_progress(&self) -> u64 {
        self.st.match_progress
    }

    /// Fast-forwards a freshly-started filter to document level
    /// `level`, as if it had processed `level` enclosing start tags
    /// none of which selected any record. Sound exactly when that is
    /// true — the indexed bank's dormant activations guarantee it (the
    /// first *selecting* event is the one that wakes the instance), in
    /// which case the skipped events could only have moved the level,
    /// the ordinal counter (compensated via the bank's ordinal offset)
    /// and the space statistics (intentionally not charged: the state
    /// genuinely never existed). In reporting mode the missed ancestors
    /// get empty frames — correct, since none of them was a candidate.
    pub(crate) fn fast_forward(&mut self, level: usize) {
        self.st.current_level = level;
        // The skipped levels hold no records: empty runs.
        for _ in 0..level {
            self.st.runs.push(self.st.recs.len());
        }
        if let Some(rep) = &mut self.st.reporter {
            for _ in 0..level {
                rep.open_element(Frame::default());
            }
        }
    }

    /// The space statistics of the current (or last) document: every
    /// `StartDocument` starts them afresh, so a filter reused across
    /// documents reports each one exactly as a new filter would.
    pub fn stats(&self) -> &SpaceStats {
        &self.st.stats
    }

    /// Peak logical memory, in bits — shorthand for `stats().max_bits`,
    /// mirroring the automata baselines' accessor of the same name.
    pub fn peak_memory_bits(&self) -> u64 {
        self.st.stats.max_bits
    }

    /// The rows of the frontier table (for tracing, cf. Fig. 22): the
    /// child- and attribute-axis runs from the outermost level in, then
    /// the descendant-axis records in insertion order.
    pub fn frontier(&self) -> impl Iterator<Item = &FrontierRecord> + '_ {
        self.st
            .recs
            .iter()
            .chain(self.st.desc.iter().map(|d| &d.rec))
    }

    /// Renders a frontier record's node test (for traces).
    pub fn ntest_of(&self, node: u32) -> String {
        self.query.nodes[node as usize].ntest.to_string()
    }
}

/// The event handlers (Figs. 20–21), on the mutable half: each takes
/// the compiled query as a plain borrow, so reading node data and
/// mutating the frontier cost nothing beyond the work itself.
impl FilterState {
    /// The child- and attribute-axis records of document level `level`
    /// (empty for a level that is not open).
    fn run(&self, level: usize) -> &[FrontierRecord] {
        match self.runs.get(level) {
            Some(&from) => {
                let to = self.runs.get(level + 1).copied().unwrap_or(self.recs.len());
                &self.recs[from..to]
            }
            None => &[],
        }
    }

    /// The records of descendant-axis query node `u`, newest first.
    fn chain(&self, u: u32) -> impl Iterator<Item = &FrontierRecord> + '_ {
        let mut i = self.desc_top[u as usize];
        std::iter::from_fn(move || {
            let d = self.desc.get(i as usize)?;
            i = d.prev;
            Some(&d.rec)
        })
    }

    /// See [`StreamFilter::decided`]: whether query node `u`, expected
    /// at frontier level `level`, is already guaranteed a real match.
    /// Either its record is matched, or `u` is mid-candidacy (child-axis
    /// records leave the table then) and every child is satisfied one
    /// level deeper — in which case the candidacy's close is guaranteed
    /// to fold `u` to matched, because matched flags are monotone in
    /// filtering mode.
    fn satisfied_at(&self, q: &CompiledQuery, u: u32, level: usize) -> bool {
        let n = &q.nodes[u as usize];
        let matched = if n.axis == Axis::Descendant {
            self.chain(u).any(|r| r.level == level && r.matched)
        } else {
            self.run(level).iter().any(|r| r.node == u && r.matched)
        };
        if matched {
            return true;
        }
        if n.is_leaf || n.axis == Axis::Attribute {
            return false;
        }
        n.children
            .iter()
            .all(|&c| self.satisfied_at(q, c, level + 1))
    }

    fn start_document(&mut self, q: &CompiledQuery) {
        // The document root is, by definition, the unique candidate match
        // for ROOT(Q); its children enter the frontier at level 0.
        self.recs.clear();
        self.runs.clear();
        self.runs.push(0);
        // Unlink the chains of the records still open (the root
        // children's, after a complete document).
        for d in self.desc.drain(..) {
            self.desc_top[d.rec.node as usize] = NO_REC;
        }
        self.desc_top.resize(q.nodes.len(), NO_REC);
        self.buffer.clear();
        self.buffer_refs = 0;
        self.current_level = 0;
        self.result = None;
        self.element_ordinal = 0;
        self.removed_matched.clear();
        self.match_progress = 0;
        // Space statistics are per document ("one filter execution").
        self.stats = SpaceStats::new(q.size());
        self.observe_snap = (0, 0, 0, 0);
        if let Some(rep) = &mut self.reporter {
            rep.reset();
            rep.max_pendings = 0;
        }
        for &v in &q.root_children {
            let rec = FrontierRecord {
                node: v,
                matched: false,
                level: 0,
                str_starts: Vec::new(),
            };
            insert(q, &mut self.recs, &mut self.desc, &mut self.desc_top, rec);
        }
    }

    fn start_element(&mut self, q: &CompiledQuery, name: Sym, attributes: &[SymAttr], span: Span) {
        let lvl = self.current_level;
        let ordinal = self.element_ordinal;
        self.element_ordinal += 1;
        if lvl == 0 {
            // The root element's start is decision-relevant even when no
            // match flag moves: an unselected child-axis root child is
            // dead from here on (see `decided`).
            self.match_progress += 1;
        }
        let reporting = self.reporter.is_some();
        let mut frame = reporting.then(|| Frame {
            ordinal,
            span_start: span.start,
            ..Frame::default()
        });
        // Select the frontier records for which this element is a
        // candidate match (Fig. 20 lines 1–4) and process each selection
        // in place. Spawned records are staged in reused scratch and
        // enter the table after both scans, so neither scan sees them.
        // In reporting mode, records on the output path stay candidates
        // even after a real match was found elsewhere: full evaluation
        // must examine *every* candidate, not stop at the first.
        debug_assert!(self.scratch_insert.is_empty());
        debug_assert_eq!(self.runs.len(), lvl + 1);
        let FilterState {
            recs,
            runs,
            desc,
            desc_top,
            buffer,
            buffer_refs,
            stats,
            match_progress,
            removed_matched,
            scratch_insert,
            ..
        } = self;
        let mut sel = Select {
            lvl,
            attributes,
            buffer_len: buffer.len(),
            buffer_refs,
            match_progress,
            stats,
            spawned: scratch_insert,
            removed: reporting.then_some(removed_matched),
            frame: frame.as_mut(),
        };

        // Descendant-axis records: every open one was inserted at a level
        // ≤ `lvl`, so the node test alone selects. A node's chain runs
        // newest first, and for internal and unrestricted-leaf nodes the
        // matched records form its oldest segment (they turn matched all
        // at once, and later insertions start unmatched), so the walk
        // stops at the first matched one. Predicate leaves match record
        // by record and are walked whole.
        for &u in &q.desc_nodes {
            let n = &q.nodes[u as usize];
            if !n.passes(name) {
                continue;
            }
            let every = reporting && q.path_index[u as usize].is_some();
            let prefix = n.leaf_predicate.is_none();
            let mut i = desc_top[u as usize];
            while i != NO_REC {
                let d = &mut desc[i as usize];
                i = d.prev;
                if d.rec.matched && !every {
                    if prefix {
                        break;
                    }
                    continue;
                }
                sel.select(q, &mut d.rec);
            }
        }

        // Child-axis records of this level (attribute-axis rows are never
        // candidates). Internal ones leave the table for the candidacy
        // (Fig. 20 lines 10–11): the run is compacted in place.
        let base = runs[lvl];
        let mut keep = base;
        for i in base..recs.len() {
            let node = recs[i].node as usize;
            let n = &q.nodes[node];
            let selected = n.axis == Axis::Child
                && n.passes(name)
                && (!recs[i].matched || (reporting && q.path_index[node].is_some()));
            if !(selected && sel.select(q, &mut recs[i])) {
                recs.swap(keep, i);
                keep += 1;
            }
        }
        recs.truncate(keep);

        // The spawned records form the new level's run.
        runs.push(recs.len());
        if !scratch_insert.is_empty() {
            for rec in scratch_insert.drain(..) {
                insert(q, recs, desc, desc_top, rec);
            }
        }
        self.current_level = lvl + 1;
        if let (Some(rep), Some(frame)) = (&mut self.reporter, frame) {
            rep.open_element(frame);
        }
    }

    fn value_in_truth(node: &CNode, value: &str) -> bool {
        match &node.leaf_predicate {
            None => true,
            Some((expr, var)) => fx_xpath::eval_with_binding(expr, *var, value).unwrap_or(false),
        }
    }

    fn text(&mut self, content: &str) {
        if self.buffer_refs > 0 {
            self.buffer.push_str(content);
        }
    }

    fn end_element(&mut self, q: &CompiledQuery, name: Sym, span: Span) {
        // Saturate on malformed streams (the paper lets algorithms behave
        // arbitrarily on them, but we must not crash: the lower-bound
        // prober feeds crossed prefix/suffix pairs that may be malformed).
        self.current_level = self.current_level.saturating_sub(1);
        let lvl = self.current_level;
        let reporting = self.reporter.is_some();
        let out_node = q.out_path.last().copied();
        let mut out_leaf_value: Option<bool> = None;
        let FilterState {
            recs,
            runs,
            desc,
            desc_top,
            buffer,
            buffer_refs,
            stats,
            match_progress,
            removed_matched,
            scratch_groups,
            ..
        } = self;
        // 1. Leaf records whose candidacy ends here: evaluate the buffered
        //    string value against TRUTH(u) (Fig. 21 lines 2–10). Child-axis
        //    leaves of this level sit in its run; descendant-axis leaves
        //    inserted at or above it are on their chains.
        if q.has_pred_leaves {
            let mut close = Close {
                buffer,
                buffer_refs,
                match_progress: &mut *match_progress,
                stats,
                out_leaf_value: &mut out_leaf_value,
            };
            let from = runs[lvl];
            let to = runs.get(lvl + 1).copied().unwrap_or(recs.len());
            for rec in &mut recs[from..to] {
                let n = &q.nodes[rec.node as usize];
                if n.axis == Axis::Child && n.leaf_predicate.is_some() && n.passes(name) {
                    close.close(n, rec, reporting && Some(rec.node) == out_node);
                }
            }
            for &u in &q.desc_nodes {
                let n = &q.nodes[u as usize];
                if !(n.leaf_predicate.is_some() && n.passes(name)) {
                    continue;
                }
                let mut i = desc_top[u as usize];
                while i != NO_REC {
                    let d = &mut desc[i as usize];
                    i = d.prev;
                    if d.rec.level <= lvl {
                        close.close(n, &mut d.rec, reporting && Some(u) == out_node);
                    }
                }
            }
        }

        // 2. Child records of candidates ending at this element — exactly
        //    the closing level's run and the descendant-axis suffix
        //    inserted there: group by parent, conjoin their matched
        //    flags, pop them, and fold into the parent record (Fig. 21
        //    lines 11–29, with `matched ∨= m`).
        debug_assert!(scratch_groups.is_empty());
        if runs.len() > lvl + 1 {
            let top = runs.pop().expect("checked above");
            let mut first_desc = desc.len();
            while first_desc > 0 && desc[first_desc - 1].rec.level > lvl {
                first_desc -= 1;
            }
            let mut group = |rec: &FrontierRecord| {
                let p = q.parents[rec.node as usize];
                // The successor child does not participate in the
                // *predicate* conjunction (it is the output-path
                // continuation).
                let successor =
                    q.path_index[p as usize].and_then(|idx| q.out_path.get(idx as usize).copied());
                let pred = rec.matched || Some(rec.node) == successor;
                match scratch_groups.iter_mut().find(|g| g.0 == p) {
                    Some(g) => {
                        g.1 &= rec.matched;
                        g.2 &= pred;
                    }
                    None => scratch_groups.push((p, rec.matched, pred)),
                }
            };
            recs[top..].iter().for_each(&mut group);
            desc[first_desc..].iter().for_each(|d| group(&d.rec));
            recs.truncate(top);
            while desc.len() > first_desc {
                let d = desc.pop().expect("non-empty suffix");
                desc_top[d.rec.node as usize] = d.prev;
            }
        }
        for &(p, all_matched, _) in scratch_groups.iter() {
            if all_matched {
                *match_progress += 1;
            }
            if q.nodes[p as usize].axis == Axis::Descendant {
                // Every live record of p was a candidate for this element
                // (under parent recursion, one per open candidacy):
                // accumulate into all of them — the unmatched newest
                // segment of the chain.
                if all_matched {
                    let mut i = desc_top[p as usize];
                    while i != NO_REC && !desc[i as usize].rec.matched {
                        desc[i as usize].rec.matched = true;
                        i = desc[i as usize].prev;
                    }
                }
            } else {
                // Reinsert the temporarily-removed child-axis record. In
                // reporting mode a matched record may have been re-spawned
                // for a later candidate; restore its previous flag.
                let was_matched = reporting
                    && match removed_matched
                        .iter()
                        .rposition(|&(n, l, _)| n == p && l == lvl)
                    {
                        Some(pos) => removed_matched.remove(pos).2,
                        None => false,
                    };
                recs.push(FrontierRecord {
                    node: p,
                    matched: was_matched || all_matched,
                    level: lvl,
                    str_starts: Vec::new(),
                });
            }
        }
        // Removals this element's candidacy recorded and no group
        // reclaimed (duplicate records of one node) end with it.
        while removed_matched.last().is_some_and(|&(_, l, _)| l == lvl) {
            removed_matched.pop();
        }
        if let Some(rep) = &mut self.reporter {
            rep.close_element(
                scratch_groups,
                out_leaf_value,
                &q.out_path,
                &q.out_axes_child,
                span.end,
            );
        }
        scratch_groups.clear();
    }

    fn end_document(&mut self, q: &CompiledQuery) {
        // The document root is a real match for ROOT(Q) iff every child of
        // ROOT(Q) found a real match. Their records sit at level 0.
        let verdict = q.root_children.iter().all(|&v| {
            if q.nodes[v as usize].axis == Axis::Descendant {
                self.chain(v).any(|r| r.matched)
            } else {
                self.run(0).iter().any(|r| r.node == v && r.matched)
            }
        });
        self.result = Some(verdict);
    }
}

/// Appends a record to the top run, or — descendant axis — to its
/// node's chain.
fn insert(
    q: &CompiledQuery,
    recs: &mut Vec<FrontierRecord>,
    desc: &mut Vec<DescRecord>,
    desc_top: &mut [u32],
    rec: FrontierRecord,
) {
    if q.nodes[rec.node as usize].axis == Axis::Descendant {
        let node = rec.node as usize;
        let prev = desc_top[node];
        desc_top[node] = u32::try_from(desc.len()).expect("frontier rows fit u32 indices");
        desc.push(DescRecord { rec, prev });
    } else {
        recs.push(rec);
    }
}

/// What a `startElement` updates besides the selected records: borrowed
/// field by field, so the record scans can hold the table mutably.
struct Select<'a> {
    lvl: usize,
    attributes: &'a [SymAttr],
    buffer_len: usize,
    buffer_refs: &'a mut usize,
    match_progress: &'a mut u64,
    stats: &'a mut SpaceStats,
    /// Records spawned one level down, inserted after the scans.
    spawned: &'a mut Vec<FrontierRecord>,
    /// Reporting mode: the flags of child-axis records leaving the table.
    removed: Option<&'a mut Vec<(u32, usize, bool)>>,
    frame: Option<&'a mut Frame>,
}

impl Select<'_> {
    /// Fig. 20 for one selected record: a leaf begins buffering (or,
    /// when unrestricted, matches outright); an internal node spawns its
    /// children one level down. Returns whether the record leaves the
    /// table for the candidacy (child-axis internal nodes).
    fn select(&mut self, q: &CompiledQuery, rec: &mut FrontierRecord) -> bool {
        let node = rec.node;
        let n = &q.nodes[node as usize];
        if let Some(frame) = &mut self.frame {
            if let Some(idx) = q.path_index[node as usize] {
                if !frame.candidates.contains(&idx) {
                    frame.candidates.push(idx);
                }
                if n.is_leaf && n.leaf_predicate.is_none() && idx as usize == q.out_path.len() {
                    frame.out_leaf_unrestricted = true;
                }
            }
        }
        if n.is_leaf {
            if n.leaf_predicate.is_some() {
                *self.buffer_refs += 1;
                rec.str_starts.push(self.buffer_len);
            } else {
                // TRUTH(u) = S: any candidate is a real match; decide
                // now and skip buffering.
                rec.matched = true;
                *self.match_progress += 1;
            }
            return false;
        }
        for &v in &n.children {
            let vn = &q.nodes[v as usize];
            let mut matched = false;
            if vn.axis == Axis::Attribute {
                // Attributes arrive with this very start tag: resolve
                // immediately.
                matched = self.attributes.iter().any(|a| {
                    vn.passes(a.name)
                        && vn.children.is_empty()
                        && FilterState::value_in_truth(vn, &a.value)
                });
                if let Some(w) = self
                    .attributes
                    .iter()
                    .find(|a| vn.passes(a.name))
                    .map(|a| a.value.chars().count())
                {
                    self.stats.observe_text_width(w);
                }
                if matched {
                    *self.match_progress += 1;
                }
            }
            self.spawned.push(FrontierRecord {
                node: v,
                matched,
                level: self.lvl + 1,
                str_starts: Vec::new(),
            });
        }
        if n.axis == Axis::Child {
            if let Some(removed) = &mut self.removed {
                removed.push((node, self.lvl, rec.matched));
            }
            return true;
        }
        false
    }
}

/// What an `endElement` updates while closing leaf candidacies.
struct Close<'a> {
    buffer: &'a mut String,
    buffer_refs: &'a mut usize,
    match_progress: &'a mut u64,
    stats: &'a mut SpaceStats,
    out_leaf_value: &'a mut Option<bool>,
}

impl Close<'_> {
    /// Fig. 21 lines 2–10 for one leaf record whose node test the
    /// closing element passed: if a candidacy is open, pop its buffer
    /// offset and evaluate the string value. `out_leaf` marks the output
    /// node in reporting mode, whose value is needed even once matched.
    fn close(&mut self, n: &CNode, rec: &mut FrontierRecord, out_leaf: bool) {
        let Some(start) = rec.str_starts.pop() else {
            return;
        };
        let value = &self.buffer[start..];
        self.stats.observe_text_width(value.chars().count());
        if !rec.matched || out_leaf {
            let ok = FilterState::value_in_truth(n, value);
            rec.matched |= ok;
            if ok {
                *self.match_progress += 1;
            }
            if out_leaf {
                *self.out_leaf_value = Some(ok);
            }
        }
        *self.buffer_refs -= 1;
        if *self.buffer_refs == 0 {
            self.buffer.clear();
        }
    }
}

impl SaxHandler for StreamFilter {
    fn start_document(&mut self) {
        self.process_ref(EventRef::StartDocument, Span::EMPTY);
    }
    fn end_document(&mut self) {
        self.process_ref(EventRef::EndDocument, Span::EMPTY);
    }
    fn start_element(&mut self, name: &str, attributes: &[fx_xml::Attribute]) {
        self.process_ref(EventRef::StartElement { name, attributes }, Span::EMPTY);
    }
    fn end_element(&mut self, name: &str) {
        self.process_ref(EventRef::EndElement { name }, Span::EMPTY);
    }
    fn text(&mut self, content: &str) {
        self.process_ref(EventRef::Text { content }, Span::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    fn filter(qs: &str, xml: &str) -> bool {
        let q = parse_query(qs).unwrap();
        let events = fx_xml::parse(xml).unwrap();
        StreamFilter::new(&q).unwrap().run_stream(&events).unwrap()
    }

    fn agree(qs: &str, xml: &str) {
        let q = parse_query(qs).unwrap();
        let d = fx_dom::Document::from_xml(xml).unwrap();
        let expected = fx_eval::bool_eval(&q, &d).unwrap();
        let events = fx_xml::parse(xml).unwrap();
        let got = StreamFilter::new(&q).unwrap().run_stream(&events).unwrap();
        assert_eq!(got, expected, "{qs} on {xml}");
    }

    #[test]
    fn paper_fig22_query_on_matching_document() {
        assert!(filter(
            "/a[c[.//e and f] and b]",
            "<a><c><d/><e/><f/></c><b/><c/></a>"
        ));
    }

    #[test]
    fn paper_theorem_queries() {
        agree(
            "/a[c[.//e and f] and b > 5]",
            "<a><c><e/><f/></c><b>6</b></a>",
        );
        agree(
            "/a[c[.//e and f] and b > 5]",
            "<a><b>6</b><c><f/><f/></c></a>",
        );
        agree("//a[b and c]", "<a><b/><a><b/><a/><c/></a></a>");
        agree("//a[b and c]", "<a><b/><a><a/><c/></a></a>");
        agree("/a/b", "<a><Z><Z/></Z><b/><Z><Z/></Z></a>");
        agree("/a/b", "<a><Z><Z/><b/><Z/></Z></a>");
    }

    #[test]
    fn recursion_does_not_clobber_inner_match() {
        // Erratum #1: the inner <a> matches; a later outer failure must
        // not reset the flag.
        agree("//a[b and c]", "<a><a><b/><c/></a></a>");
        assert!(filter("//a[b and c]", "<a><a><b/><c/></a></a>"));
        // And deeper stacks of failures around a success.
        assert!(filter("//a[b and c]", "<a><a><a><b/><c/></a></a><x/></a>"));
    }

    #[test]
    fn recursive_leaf_buffer_offsets() {
        // Erratum #2: Q = //a[.//e > 5] on <a><e>7<e>3</e></e></a> — the
        // outer e's value "73" passes even though the inner "3" fails.
        agree("//a[.//e > 5]", "<a><e>7<e>3</e></e></a>");
        assert!(filter("//a[.//e > 5]", "<a><e>7<e>3</e></e></a>"));
        // Inner passes, outer fails (outer strval "09" = 9 > 5 too, so use
        // the reference agreement to keep the oracle honest).
        agree("//a[.//e > 5]", "<a><e>0<e>9</e></e></a>");
        // Neither passes: outer strval "01" = 1, inner "1".
        assert!(!filter("//a[.//e > 5]", "<a><e>0<e>1</e></e></a>"));
        agree("//a[.//e > 5]", "<a><e>0<e>1</e></e></a>");
    }

    #[test]
    fn value_predicates() {
        agree("/a[b > 5]", "<a><b>3</b><b>7</b></a>");
        agree("/a[b > 5]", "<a><b>3</b><b>5</b></a>");
        agree("/a[b = \"xy\"]", "<a><b>x<c>y</c></b></a>");
        agree(
            "/a[contains(b, \"needle\")]",
            "<a><b>hay needle stack</b></a>",
        );
        agree("/a[contains(b, \"needle\")]", "<a><b>haystack</b></a>");
    }

    #[test]
    fn attribute_queries() {
        agree("/a[@id = 7]", r#"<a id="7"/>"#);
        agree("/a[@id = 7]", r#"<a id="8"/>"#);
        agree("/a/@id", r#"<a id="7"/>"#);
        agree("/a/@id", "<a/>");
        agree("/a[@id and b]", r#"<a id="1"><b/></a>"#);
        agree("//a[@k = \"v\"]", r#"<r><a k="x"/><a k="v"/></r>"#);
    }

    #[test]
    fn wildcards() {
        agree("/a/*/b", "<a><x><b/></x></a>");
        agree("/a/*/b", "<a><b/></a>");
        agree("/a[*/b > 5]", "<a><q><b>9</b></q></a>");
    }

    #[test]
    fn sibling_candidates_sequential() {
        agree("/a/b[c]", "<a><b><x/></b><b><c/></b></a>");
        agree("/a/b[c]", "<a><b><x/></b><b><y/></b></a>");
    }

    #[test]
    fn deep_documents() {
        // /a/b must not fire on deeper b's.
        let deep = format!("<a>{}<b/>{}</a>", "<Z>".repeat(30), "</Z>".repeat(30));
        agree("/a/b", &deep);
        let inside = format!(
            "<a>{}{}</a>",
            "<Z>".repeat(30),
            "<b/>".to_owned() + &"</Z>".repeat(30)
        );
        agree("/a/b", &inside);
    }

    #[test]
    fn frontier_stays_at_fs_for_fig22_query() {
        // FS(/a[c[.//e and f] and b]) = 3; the frontier table must never
        // exceed 3 rows (§8.4: "As the frontier size is 3 for this query,
        // there are at most 3 tuples in the system").
        let q = parse_query("/a[c[.//e and f] and b]").unwrap();
        let events = fx_xml::parse("<a><c><d/><e/><f/></c><b/><c/></a>").unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&events);
        assert_eq!(f.result(), Some(true));
        assert!(f.stats().max_rows <= 3, "max rows = {}", f.stats().max_rows);
    }

    #[test]
    fn frontier_grows_with_recursion_depth() {
        // On documents of recursion depth r, the table holds Θ(r) rows.
        let q = parse_query("//a[b and c]").unwrap();
        let mut sizes = Vec::new();
        for r in [1usize, 4, 16] {
            let xml = format!("{}{}", "<a><b/>".repeat(r), "</a>".repeat(r));
            let events = fx_xml::parse(&xml).unwrap();
            let mut f = StreamFilter::new(&q).unwrap();
            f.process_all(&events);
            sizes.push(f.stats().max_rows);
        }
        assert!(sizes[1] > sizes[0]);
        assert!(sizes[2] > sizes[1]);
        assert!(sizes[2] >= 16, "{sizes:?}");
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        for src in ["/a[b or c]", "/a[not(b)]", "/a[b > c]", "/a[b[c] > 5]"] {
            let q = parse_query(src).unwrap();
            assert!(StreamFilter::new(&q).is_err(), "{src}");
        }
    }

    #[test]
    fn empty_and_trivial_documents() {
        agree("/a", "<a/>");
        agree("/a", "<b/>");
        agree("//x", "<a><b><x/></b></a>");
        agree("//x", "<a><b/></a>");
    }

    #[test]
    fn text_outside_buffering_is_free() {
        let q = parse_query("/a[b]").unwrap();
        let xml = format!("<a><c>{}</c><b/></a>", "t".repeat(1000));
        let events = fx_xml::parse(&xml).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&events);
        assert_eq!(f.result(), Some(true));
        // No leaf record was buffering under <c> (b is unrestricted), so
        // the buffer stays empty.
        assert_eq!(f.stats().max_buffer_bytes, 0);
    }

    #[test]
    fn buffer_is_released_after_use() {
        let q = parse_query("/a[b > 5 and c]").unwrap();
        let xml = "<a><b>123456</b><c/></a>";
        let events = fx_xml::parse(xml).unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        for e in &events {
            f.process(e);
        }
        assert_eq!(f.result(), Some(true));
        assert_eq!(f.stats().max_buffer_bytes, 6);
        assert!(
            f.st.buffer.is_empty(),
            "buffer must be reset when refcount hits 0"
        );
    }

    #[test]
    fn repeated_runs_reset_state() {
        let q = parse_query("/a[b]").unwrap();
        let yes = fx_xml::parse("<a><b/></a>").unwrap();
        let no = fx_xml::parse("<a><c/></a>").unwrap();
        let mut f = StreamFilter::new(&q).unwrap();
        f.process_all(&yes);
        assert_eq!(f.result(), Some(true));
        f.process_all(&no);
        assert_eq!(f.result(), Some(false));
        f.process_all(&yes);
        assert_eq!(f.result(), Some(true));
    }
}
