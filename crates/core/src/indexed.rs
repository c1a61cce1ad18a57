//! The shared-prefix **indexed multi-query bank**: YFilter-style work
//! sharing for the selective-dissemination workload (\[1\] in the paper).
//!
//! [`crate::MultiFilter`] fans every event out to an independent
//! [`StreamFilter`] per query, so per-event cost is Θ(n) in bank size.
//! [`IndexedBank`] instead canonicalizes each query's succession chain
//! (`fx_analysis::canonical_steps`), inserts the chains into a prefix
//! **trie**, and walks the trie **once** per event: a trie node shared by
//! a thousand queries owns a single frontier-table segment — one record
//! per open occurrence of its path — no matter how many queries hang
//! below it. Per-query state exists only at *divergence points*: when a
//! document element completes a query group's shared prefix, the bank
//! spawns a **residual instance** (a plain [`StreamFilter`] over the
//! query's remainder, re-rooted at that element) that sees only the
//! events inside the activating element's subtree and retires at its
//! close. Queries whose whole chain is predicate-free live entirely in
//! the trie and need no instance at all.
//!
//! Per-event cost is therefore `O(shared trie records + live residual
//! instances)` instead of `O(bank size)` — and the shared state follows
//! the document's stack discipline: the trie records form per-level
//! runs (a start tag reads its own level's run plus the armed
//! descendant-axis trie nodes), dormant activations sit in one
//! level-ordered stack per compiled residual, and live instances are
//! ordered by root level, so closing an element pops its level instead
//! of scanning everything, and neither cost grows with nesting depth.
//! Queries whose prefix the
//! document never exhibits cost **zero** per event, and equivalent
//! queries (equal `fx_analysis::canonical_key`, e.g. commutative
//! predicate reorderings) are evaluated once and fanned out. On
//! overlapping query families this makes per-event work grow sublinearly
//! with bank size; on banks with no shared structure (every prefix
//! empty) it degrades gracefully to the naive bank's behaviour, with the
//! same decided-filter short-circuiting.
//!
//! ## Shared residuals
//!
//! Residual remainders are compiled **once per canonical residual form
//! per bank**, not once per group: every distinct
//! `fx_analysis::canonical_residual_key` owns a single
//! [`CompiledResidual`] in the bank's pool, shared across *all* trie
//! groups whose remainders render to that form — even groups diverging
//! from entirely different prefixes (`/asia/item[price > 5]` and
//! `/europe/item[5 < price]` share one compiled remainder). Activation
//! at a divergence point is therefore allocation-free with respect to
//! compiled state: spawning a residual instance bumps an [`Arc`]
//! refcount and initializes empty per-instance state — no recompilation,
//! no deep clone, no per-step allocation
//! ([`IndexedBank::residual_builds`] counts exactly one build per
//! canonical form, and stays flat however many instances spawn).
//!
//! ## Space attribution
//!
//! Shared state is attributed back to queries so the indexed bank's
//! space statistics are comparable with [`crate::MultiFilter`]'s:
//! [`IndexedBank::peak_memory_bits`] splits each group's peak residual-
//! instance bits evenly across the group's members and the shared trie's
//! peak frontier-segment bits evenly across the queries whose prefixes
//! live in the trie (integer remainders go to the lowest-ranked
//! sharers), so the per-query figures sum **exactly** to
//! [`IndexedBank::total_max_bits`] — the bank-level total of
//! `peak shared-trie bits + Σ per-group instance peaks`, measured in the
//! same Theorem 8.8 frontier-row units as [`crate::SpaceStats`].
//!
//! ## Query churn
//!
//! The bank is **mutable**: [`IndexedBank::subscribe`] registers one
//! more standing query in O(|query|) — the canonical chain extends the
//! live trie in place, no existing group or slot is renumbered, and the
//! remainder reuses the shared residual pool whenever its canonical form
//! was already compiled. [`IndexedBank::unsubscribe`] tombstones the
//! slot; a group left without members is tombstoned with it (activation
//! sites skip it for the cost of one emptiness check) and its pooled
//! filters are released so the residual pool's `Arc` refcounts drop
//! naturally. Tombstones are folded away by [`IndexedBank::compact`] —
//! run automatically once their density crosses the
//! [`CompactionPolicy`] threshold — which rebuilds the trie and slot
//! table from the surviving subscriptions while *moving* the existing
//! compiled residuals into the new pool: churn never recompiles the
//! bank, and [`IndexedBank::residual_builds`] moves only when a
//! genuinely new canonical form first appears.
//!
//! Correctness rests on the decomposition `BOOLEVAL(Q, D) = ∨ₓ
//! BOOLEVAL(Q', subtree(x))` (and the analogous union for `FULLEVAL`)
//! over the candidates `x` of the predicate-free prefix — predicates
//! cannot constrain prefix nodes, so matches distribute over the
//! divergence point — and is proven against [`crate::MultiFilter`] by
//! `tests/indexed_differential.rs` (verdicts *and* routed match streams,
//! ordinals, spans and bank indices included); churned banks are proven
//! equivalent to from-scratch banks over the surviving queries by
//! `tests/churn_differential.rs`.

use crate::filter::{CompiledQuery, StreamFilter, UnsupportedQuery};
use crate::reporter::{Match, MatchSink};
use crate::space::bits_for;
use fx_analysis::CanonicalForm;
use fx_xml::{AttrBuf, Event, EventBatch, EventRef, Span, Sym, SymCache, SymEvent, Symbols};
use fx_xpath::{Axis, Expr, NodeTest, Query, QueryNodeId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The record/node code standing for a wildcard node test. Interned
/// sym ids never reach it (the table asserts well below `u32::MAX - 1`)
/// and [`Sym::UNKNOWN`] is `u32::MAX`, so the three-way name check is
/// two integer compares with no `Option` unwrapping.
const WILDCARD_CODE: u32 = u32::MAX - 1;

/// The dense dispatch code of a node test: its interned sym id, or
/// [`WILDCARD_CODE`].
fn sym_code(sym: Option<Sym>) -> u32 {
    match sym {
        None => WILDCARD_CODE,
        Some(s) => s.index() as u32,
    }
}

/// Process-wide count of [`CompiledResidual`] constructions, for
/// measurement harnesses (the multi_query bench reports builds per
/// bank). Tests should prefer the race-free per-bank
/// [`IndexedBank::residual_builds`].
static RESIDUAL_BUILDS: AtomicU64 = AtomicU64::new(0);

/// A compiled residual remainder, built **once** per canonical residual
/// form per bank and shared — behind an [`Arc`] — by every group and
/// every activation that needs it. Spawning an instance from one is a
/// refcount bump; the compiled automaton is never cloned or rebuilt.
#[derive(Debug, Clone)]
pub struct CompiledResidual {
    compiled: Arc<CompiledQuery>,
    key: String,
}

impl CompiledResidual {
    fn build(compiled: CompiledQuery, key: String) -> CompiledResidual {
        RESIDUAL_BUILDS.fetch_add(1, Ordering::Relaxed);
        CompiledResidual {
            compiled: Arc::new(compiled),
            key,
        }
    }

    /// The shared compiled form.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// The `fx_analysis::canonical_residual_key` this pool entry is
    /// deduplicated under.
    pub fn canonical_key(&self) -> &str {
        &self.key
    }

    /// Process-wide number of compiled-residual builds so far. Sample
    /// before/after a bank build (single-threaded harnesses only) to
    /// verify the one-build-per-canonical-form invariant; activations
    /// never move this counter.
    pub fn total_builds() -> u64 {
        RESIDUAL_BUILDS.load(Ordering::Relaxed)
    }
}

/// One node of the shared-prefix trie: a canonical (axis, node-test)
/// step. All queries whose canonical chains run through this step share
/// this node — and thus share the per-event work of tracking it.
#[derive(Debug, Clone)]
struct TrieNode {
    axis: Axis,
    ntest: NodeTest,
    /// The node test's dense dispatch code ([`sym_code`]): the open
    /// frontier records inline it, so the per-event shared-segment scan
    /// touches a flat record array only — no trie chasing, no string
    /// hashing or comparison.
    code: u32,
    children: Vec<u32>,
    /// Groups whose entire chain ends here: a predicate-free linear
    /// query. An activation of this node *is* a match; no per-query
    /// state is ever needed.
    terminal: Vec<u32>,
    /// Groups that diverge here: activation spawns one residual
    /// instance per group, rooted at the activating element.
    residual: Vec<u32>,
}

/// A stable handle to one subscribed query, returned by
/// [`IndexedBank::subscribe`]. Ids are unique for the bank's whole
/// lifetime: they survive [`IndexedBank::compact`] (which renumbers
/// *slots*, not subscriptions) and are never reused after
/// [`IndexedBank::unsubscribe`]. Translate to the current bank slot —
/// the `query` field of routed [`Match`]es — with
/// [`IndexedBank::slot_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

impl SubscriptionId {
    /// The raw id (monotone in registration order).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value ([`SubscriptionId::as_u64`]).
    ///
    /// Ids are assigned by [`IndexedBank::subscribe`] as the
    /// deterministic sequence 0, 1, 2, … (incremented only on success),
    /// so a coordinator that mirrors the subscribe stream — the sharded
    /// server broadcasting one churn command to N workers — can predict
    /// the id every replica will assign and hand it to callers without
    /// waiting for a worker round-trip. Constructing an id the bank
    /// never issued is safe: every lookup treats unknown ids as
    /// already-withdrawn.
    pub fn from_raw(raw: u64) -> SubscriptionId {
        SubscriptionId(raw)
    }
}

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// When [`IndexedBank::unsubscribe`] folds tombstoned slots away
/// automatically (see [`IndexedBank::compact`]). Compaction costs one
/// pass over the surviving subscriptions (no recompilation), so the
/// default waits for tombstones to outnumber half the slot table —
/// amortized O(1/ratio) slot moves per unsubscribe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Never auto-compact below this many tombstoned slots.
    pub min_tombstones: usize,
    /// Auto-compact when tombstoned slots exceed this fraction of all
    /// slots. Set it at or above `1.0` to disable automatic compaction
    /// (explicit [`IndexedBank::compact`] calls still work).
    pub max_tombstone_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            min_tombstones: 16,
            max_tombstone_ratio: 0.5,
        }
    }
}

/// A set of bank queries with identical canonical form, evaluated once.
#[derive(Debug, Clone)]
struct Group {
    /// Bank indices (registration order) sharing this canonical form.
    /// Empty for a **tombstoned** group (every member unsubscribed):
    /// the group's trie linkage stays in place until compaction, but
    /// every activation site skips it.
    members: Vec<usize>,
    /// Index into the bank's [`CompiledResidual`] pool of the compiled
    /// remainder below the shared prefix (`None` for terminal groups).
    /// Groups with canonically-equal remainders share one pool entry,
    /// even across different trie paths.
    residual: Option<u32>,
    /// Whether the shared prefix contains a descendant-axis step, in
    /// which case nested activations can confirm the same output element
    /// twice and reported ordinals must be deduplicated per document.
    needs_dedup: bool,
    /// Whether the sharable prefix is empty (a `root_groups` member):
    /// such queries hold no trie state, so the shared-trie bits are not
    /// attributed to them.
    document_rooted: bool,
}

/// A live residual evaluation: one query group below one activation.
#[derive(Debug, Clone)]
struct Instance {
    group: u32,
    filter: StreamFilter,
    /// Instance-local element ordinals plus this offset are global
    /// document ordinals (the subtree's ordinals are contiguous).
    ordinal_offset: u64,
    /// Document level of the activating element; `-1` for
    /// document-rooted instances (groups with an empty sharable prefix).
    root_level: i64,
    /// Last observed [`StreamFilter::match_progress`], so the (filter
    /// mode) early-decision check runs only on transitions.
    progress: u64,
    /// This instance's bits as last folded into its group's live total
    /// (the filter's monotone `max_bits`); deltas keep the total exact
    /// in O(1) per touched instance.
    noted_bits: u64,
    /// Likewise for the reporter's pending-candidate count (the
    /// filter's monotone `peak_pending_positions`).
    noted_pending: usize,
}

/// One open occurrence of a trie path in the shared frontier segment.
/// The node test's dispatch code and axis are denormalized out of the
/// trie so the per-event scan is a linear pass over a flat array of
/// 12-byte records doing integer compares — the hot loop the symbol
/// table exists for. Its insertion level is the index of the run it
/// sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrieRec {
    /// The trie node this record tracks.
    node: u32,
    /// The node's [`sym_code`].
    code: u32,
    /// Whether the node's axis is `Descendant`.
    descendant: bool,
}

/// A *dormant* activation: a divergence point was reached for `group`
/// at `root_level`, but no residual instance exists yet. Until some
/// event inside the activation subtree actually selects one of the
/// residual's root records (see [`ResidualTriggers`]), an instance
/// would provably hold nothing beyond its initial frontier records —
/// so the bank holds this 16-byte entry instead of a live filter, and
/// events cost the dormant group two integer compares instead of a
/// full filter step. Activations whose subtree never exhibits a
/// matching child retire without the instance ever existing.
#[derive(Debug, Clone, Copy)]
struct Dormant {
    group: u32,
    /// Document level of the activating element; `-1` for
    /// document-rooted groups.
    root_level: i64,
}

/// The wake-up conditions of a residual form's dormant activations:
/// one `(dispatch code, is-descendant)` pair per root-child record of
/// the compiled residual. A start event at relative depth `rel` inside
/// the activation subtree fires iff some pair matches the event's name
/// code (or is a wildcard) and either is descendant-axis or `rel == 0`.
#[derive(Debug, Clone)]
struct ResidualTriggers {
    specs: Vec<(u32, bool)>,
}

/// Derives a compiled residual's dormant wake-up specs. Attribute-axis
/// root children contribute **no** trigger: an attribute resolves only
/// off its parent's start tag, and a residual's root stands for the
/// activating element (or the virtual document root), whose tag precedes
/// the instance's event window — so such a child can never be satisfied
/// by any event the instance would see. An activation whose every root
/// child is attribute-axis therefore sleeps forever, which is exactly
/// the always-false verdict the (previously eager) instance computed
/// the expensive way.
fn triggers_for(compiled: &CompiledQuery) -> ResidualTriggers {
    let specs = compiled
        .root_child_specs()
        .filter_map(|(sym, axis)| match axis {
            Axis::Attribute => None,
            Axis::Descendant => Some((sym_code(sym), true)),
            _ => Some((sym_code(sym), false)),
        })
        .collect();
    ResidualTriggers { specs }
}

/// An indexed bank of streaming filters sharing one event feed *and*
/// the evaluation of common query prefixes.
///
/// The surface mirrors [`crate::MultiFilter`]: feed events through
/// [`IndexedBank::process`] / [`IndexedBank::process_to`], read
/// per-query verdicts from [`IndexedBank::results`] or
/// [`IndexedBank::matching`], and (in reporting mode) receive each
/// confirmed [`Match`] stamped with the bank index of the query that
/// selected it. Verdicts and routed matches are event-for-event
/// equivalent to the naive bank; only the work sharing differs.
#[derive(Debug, Clone)]
pub struct IndexedBank {
    trie: Vec<TrieNode>,
    groups: Vec<Group>,
    /// The shared-residual pool: one entry per **canonical residual
    /// form**, `Arc`-shared by every group and activation that needs it.
    /// Cloning the bank (one clone per engine session) bumps refcounts;
    /// nothing is ever recompiled.
    residuals: Vec<CompiledResidual>,
    /// Number of [`CompiledResidual`] builds this bank performed: one
    /// per canonical residual form first subscribed, and flat across
    /// any amount of processing *and churn over known forms*
    /// (activations, unsubscribes and compactions only move refcounts).
    built_residuals: u64,
    /// Groups with an empty sharable prefix, spawned at `StartDocument`
    /// as document-rooted instances (the naive-bank degenerate case).
    root_groups: Vec<u32>,
    /// Bank index (slot) → group index.
    query_group: Vec<u32>,
    /// Canonical query key → group index: the incremental grouping
    /// table [`IndexedBank::subscribe`] dedups into.
    group_of_key: HashMap<String, u32>,
    /// Canonical residual form → pool index: the cross-group dedup.
    pool_of_key: HashMap<String, u32>,
    /// Per pool entry, the number of live (non-tombstoned) groups
    /// referencing it; an entry at zero keeps only its compiled `Arc`
    /// (its filter free-list is dropped on the spot) until a compaction
    /// pass drops the entry itself.
    residual_uses: Vec<u32>,
    /// Subscription id → current slot, for every live subscription.
    subs: HashMap<u64, usize>,
    /// Slot → subscription id (stale for tombstoned slots).
    slot_sub: Vec<u64>,
    /// Slot liveness: `false` marks a tombstone awaiting compaction.
    slot_alive: Vec<bool>,
    /// Slot → the subscribed query, retained so compaction can rebuild
    /// the index without consulting the caller (and without
    /// recompiling: compiled forms are carried over by canonical key).
    slot_query: Vec<Query>,
    /// Next subscription id (monotone; never reused).
    next_sub: u64,
    /// Number of tombstoned slots ([`CompactionPolicy`] trigger).
    dead_slots: usize,
    /// When unsubscribe folds tombstones away automatically.
    policy: CompactionPolicy,
    /// Number of compaction passes performed.
    compactions: u64,
    /// The bank's shared symbol table: trie node tests and every
    /// compiled residual resolve against it, so one per-event
    /// conversion (or an already-interned event from a parser sharing
    /// the table) serves the whole bank.
    symbols: Arc<Symbols>,
    reporting: bool,
    /// Whether residuals share the canonical-form pool (false only for
    /// the unpooled differential-testing reference).
    pooled: bool,
    /// Per-group ownership mask of a bank shard produced by
    /// [`IndexedBank::partition`] (`None` for every unsharded bank:
    /// the bank owns all of its groups). A shard runs the shared trie
    /// walk and the dormancy bookkeeping for **every** group — that is
    /// what keeps its record/dormant trajectories, and hence the
    /// shared-segment space accounting, identical to the unsharded
    /// bank's — but spawns residual instances, confirms terminals and
    /// routes matches only for the groups it owns.
    shard_owned: Option<Vec<bool>>,

    // -- per-document state -------------------------------------------------
    /// The shared frontier segment: one record per open occurrence of a
    /// trie path, with the node test's dispatch code and axis inlined.
    /// Records are pushed one level at a time and dropped when their
    /// level closes, so the segment is a stack of per-level runs.
    records: Vec<TrieRec>,
    /// Start of each open level's run in `records`
    /// (`record_runs.len() == current_level + 1`).
    record_runs: Vec<usize>,
    /// Per trie node: its number of live descendant-axis records. Only
    /// a child-axis record's own level can select it, but a
    /// descendant-axis node is selected at any depth while it has a
    /// record — so the walk reads the top run plus `desc_armed`.
    desc_live: Vec<u32>,
    /// The descendant-axis trie nodes with live records.
    desc_armed: Vec<u32>,
    /// Live residual instances, ordered by `root_level`: those rooted at
    /// a closing element are a suffix, retired by popping.
    instances: Vec<Instance>,
    /// Reused per-event scratch: trie nodes the current start tag
    /// activated.
    scratch_activated: Vec<u32>,
    /// Reused attribute buffer for the owned-event conversion layer.
    attr_scratch: AttrBuf,
    /// Reused match-drain buffer for instance feeding/retirement, so the
    /// per-event hot path never allocates a fresh drain vector.
    drain_scratch: Vec<(u64, Span)>,
    /// Lock-free name-lookup memo for the owned-event conversion layer.
    name_cache: SymCache,
    /// Dormant activations (see [`Dormant`]) per compiled residual, each
    /// stack ordered by `root_level`: divergence points reached whose
    /// residual instances have not been woken yet. A start tag wakes a
    /// whole stack (a descendant-axis trigger fires at any depth) or its
    /// top level (a child-axis trigger fires only directly below the
    /// activation), and a closing element pops its level off each stack.
    dormant: Vec<Vec<Dormant>>,
    /// The residuals with a non-empty dormant stack.
    dormant_armed: Vec<u32>,
    /// Total dormant activations (the sum of the stacks' lengths).
    dormant_len: usize,
    /// Set when a filtering-mode group accepts: its dormant activations
    /// are dropped at the next start tag, before any can wake.
    dormant_purge: bool,
    /// Reused scratch: the dormant activations a start tag wakes.
    scratch_woken: Vec<Dormant>,
    /// Per compiled-residual wake-up specs for dormant activations.
    residual_triggers: Vec<ResidualTriggers>,
    /// Retired residual-instance filters, pooled per compiled-residual
    /// id: spawning an activation pops one (metrics reset, state reset
    /// by its `StartDocument`) instead of allocating fresh frontier and
    /// scratch buffers — the instance churn of a busy document touches
    /// the allocator only until the pool warms.
    free_filters: Vec<Vec<StreamFilter>>,
    current_level: u32,
    element_ordinal: u64,
    /// Terminal activations awaiting their close tag (for the span):
    /// `(level, group, ordinal, span start)`, stack-ordered.
    open_terminals: Vec<(u32, u32, u64, u64)>,
    /// Per-group verdict accumulator (monotone within a document).
    group_true: Vec<bool>,
    /// Per-group ordinals already reported this document (allocated only
    /// for groups with `needs_dedup`).
    emitted: Vec<HashSet<u64>>,
    /// Whether `EndDocument` has been seen for the current document.
    finished: bool,

    // -- statistics ---------------------------------------------------------
    /// Per-group peak filter bits: the maximum, over time, of the *sum*
    /// of this group's simultaneously-live instance bits — overlapping
    /// activations (nested descendant prefixes) are charged together,
    /// exactly as one naive filter's frontier holds all simultaneous
    /// candidates at once.
    peak_bits: Vec<u64>,
    /// Per-group bits currently live: the sum of `noted_bits` over the
    /// group's live instances.
    live_bits: Vec<u64>,
    /// Per-group peak pending (unresolved-candidate) positions —
    /// simultaneously-live instances summed, like `peak_bits`, so the
    /// figure is comparable with one naive filter buffering all of the
    /// group's candidacies at once.
    peak_pending: Vec<usize>,
    /// Per-group pending positions currently live (sum of
    /// `noted_pending` over live instances).
    live_pending: Vec<usize>,
    /// Peak number of shared trie records.
    peak_records: usize,
    /// Peak logical size of the shared frontier segment, in bits — one
    /// row per record, `log|trie| + log d + O(1)` bits per row (the
    /// Theorem 8.8 units of [`crate::SpaceStats`]).
    peak_trie_bits: u64,
    /// Peak number of simultaneously live residual instances.
    peak_instances: usize,
    /// Total residual instances spawned (the activation count).
    activations: u64,
    /// Total events processed.
    events: u64,
}

/// A bank-level breakdown of the indexed path's logical memory and
/// activation behaviour, in the Theorem 8.8 units of
/// [`crate::SpaceStats`] — read it from [`IndexedBank::space_stats`] (or
/// `Session::index_stats` at the engine layer) after a document to
/// compare indexed-vs-naive space, not just time. The space peaks
/// (`shared_trie_bits`, `residual_bits`, `total_bits`, `peak_records`)
/// are the current document's, like every filter's statistics;
/// `peak_instances`, `activations` and `events` accumulate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSpaceStats {
    /// Peak bits of the shared trie's frontier segment (rows shared by
    /// every query whose prefix runs through them).
    pub shared_trie_bits: u64,
    /// Sum of per-group peak residual-instance bits, where a group's
    /// peak counts its simultaneously-live instances *together* (each
    /// group counted once, however many queries it fans out to).
    pub residual_bits: u64,
    /// `shared_trie_bits + residual_bits` — equals the sum of the
    /// per-query attribution [`IndexedBank::peak_memory_bits`] exactly.
    pub total_bits: u64,
    /// Peak number of shared trie frontier records.
    pub peak_records: usize,
    /// Peak number of simultaneously live residual instances.
    pub peak_instances: usize,
    /// Total residual instances spawned (each an `Arc` bump, never a
    /// compile).
    pub activations: u64,
    /// Total events processed.
    pub events: u64,
    /// Distinct canonical query groups.
    pub groups: usize,
    /// Distinct canonical residual forms (= compiled-residual builds).
    pub residual_pool: usize,
}

impl IndexSpaceStats {
    /// Residual instances spawned per event — the activation rate the
    /// index keeps low by sharing prefixes (non-activated prefixes spawn
    /// nothing).
    pub fn activation_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.activations as f64 / self.events as f64
        }
    }

    /// Combines per-shard stats from an [`IndexedBank::partition`] run
    /// over one event stream into the figures of the equivalent
    /// unsharded bank. Field by field:
    ///
    /// - `residual_bits` and `activations` **sum** — each group's
    ///   instances live in exactly one shard, and its owning shard's
    ///   trajectory for them is event-for-event the unsharded one, so
    ///   both sums are exact (in reporting *and* filtering mode).
    /// - `shared_trie_bits`, `peak_records`, `events`, `groups` and
    ///   `residual_pool` take the **max** — every shard walks the same
    ///   shared segment over the same stream, so in reporting mode all
    ///   shards agree and the max is the exact common value. (In
    ///   filtering mode a non-owning shard may retain dormancy entries
    ///   past a group's accept, so the max can exceed the unsharded
    ///   `shared_trie_bits`, never undershoot it.)
    /// - `peak_instances` **sums**, which is an upper bound, not the
    ///   exact unsharded figure: per-shard peaks may occur at
    ///   different events, and a sum of per-shard maxima bounds the
    ///   maximum of the sum from above. The exact joint peak is not
    ///   recoverable from per-shard summaries.
    /// - `total_bits` is recomputed as `shared_trie_bits +
    ///   residual_bits` of the merged figures.
    ///
    /// Merging an empty slice yields the default (all-zero) stats.
    pub fn merge_sharded(shards: &[IndexSpaceStats]) -> IndexSpaceStats {
        let mut out = IndexSpaceStats::default();
        for s in shards {
            out.shared_trie_bits = out.shared_trie_bits.max(s.shared_trie_bits);
            out.residual_bits += s.residual_bits;
            out.peak_records = out.peak_records.max(s.peak_records);
            out.peak_instances += s.peak_instances;
            out.activations += s.activations;
            out.events = out.events.max(s.events);
            out.groups = out.groups.max(s.groups);
            out.residual_pool = out.residual_pool.max(s.residual_pool);
        }
        out.total_bits = out.shared_trie_bits + out.residual_bits;
        out
    }
}

impl IndexedBank {
    /// Compiles and indexes a bank of filtering queries; fails on the
    /// first unsupported one (with its bank index), exactly like
    /// [`crate::MultiFilter::new`].
    pub fn new(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, true, Arc::new(Symbols::new()))
    }

    /// [`IndexedBank::new`] interning into a caller-supplied symbol
    /// table — the engine passes its own so parser-side interned events
    /// dispatch straight into the trie.
    pub fn new_with_symbols(
        queries: &[Query],
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, true, symbols)
    }

    /// Compiles and indexes a *selection* bank: every query runs in
    /// reporting mode and [`IndexedBank::process_to`] routes each
    /// confirmed match to the sink with its query's bank index. Fails
    /// with the index of the first query whose output node cannot be
    /// reported.
    pub fn new_reporting(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, true, true, Arc::new(Symbols::new()))
    }

    /// [`IndexedBank::new_reporting`] interning into a caller-supplied
    /// symbol table.
    pub fn new_reporting_with_symbols(
        queries: &[Query],
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, true, true, symbols)
    }

    /// A filtering bank that skips the shared-residual pool: every
    /// residual-bearing group compiles a private, freshly-built (non-Arc
    /// -shared) remainder. This is the differential-testing reference
    /// that proves pooling changes nothing observable (see the
    /// `indexed_differential` proptests); production code wants
    /// [`IndexedBank::new`].
    pub fn new_unpooled(queries: &[Query]) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        IndexedBank::build(queries, false, false, Arc::new(Symbols::new()))
    }

    fn build(
        queries: &[Query],
        reporting: bool,
        pooled: bool,
        symbols: Arc<Symbols>,
    ) -> Result<IndexedBank, (usize, UnsupportedQuery)> {
        let mut bank = IndexedBank::empty(reporting, pooled, symbols);
        for (i, q) in queries.iter().enumerate() {
            bank.subscribe(q).map_err(|e| (i, e))?;
        }
        Ok(bank)
    }

    /// An empty mutable bank; queries arrive through
    /// [`IndexedBank::subscribe`]. (Construction-time queries are
    /// subscriptions too — ids are assigned in registration order.)
    fn empty(reporting: bool, pooled: bool, symbols: Arc<Symbols>) -> IndexedBank {
        IndexedBank {
            trie: vec![TrieNode {
                axis: Axis::Child,
                ntest: NodeTest::Wildcard,
                code: WILDCARD_CODE,
                children: Vec::new(),
                terminal: Vec::new(),
                residual: Vec::new(),
            }],
            groups: Vec::new(),
            residuals: Vec::new(),
            built_residuals: 0,
            root_groups: Vec::new(),
            query_group: Vec::new(),
            group_of_key: HashMap::new(),
            pool_of_key: HashMap::new(),
            residual_uses: Vec::new(),
            subs: HashMap::new(),
            slot_sub: Vec::new(),
            slot_alive: Vec::new(),
            slot_query: Vec::new(),
            next_sub: 0,
            dead_slots: 0,
            policy: CompactionPolicy::default(),
            compactions: 0,
            symbols,
            reporting,
            pooled,
            shard_owned: None,
            records: Vec::new(),
            record_runs: vec![0],
            desc_live: Vec::new(),
            desc_armed: Vec::new(),
            instances: Vec::new(),
            scratch_activated: Vec::new(),
            attr_scratch: AttrBuf::new(),
            drain_scratch: Vec::new(),
            name_cache: SymCache::new(),
            dormant: Vec::new(),
            dormant_armed: Vec::new(),
            dormant_len: 0,
            dormant_purge: false,
            scratch_woken: Vec::new(),
            residual_triggers: Vec::new(),
            free_filters: Vec::new(),
            current_level: 0,
            element_ordinal: 0,
            open_terminals: Vec::new(),
            group_true: Vec::new(),
            emitted: Vec::new(),
            finished: false,
            peak_bits: Vec::new(),
            live_bits: Vec::new(),
            peak_pending: Vec::new(),
            live_pending: Vec::new(),
            peak_records: 0,
            peak_trie_bits: 0,
            peak_instances: 0,
            activations: 0,
            events: 0,
        }
    }

    // -- query churn --------------------------------------------------------

    /// Registers one more standing query, **incrementally** and in
    /// O(|query|): the canonical chain is derived once, the shared
    /// prefix extends the live trie in place (no existing group, slot
    /// or record is renumbered), and the remainder reuses the shared
    /// residual pool whenever its canonical form is already compiled —
    /// [`IndexedBank::residual_builds`] moves only when a genuinely new
    /// form first appears, never for churn over known shapes, and the
    /// bank as a whole is never recompiled.
    ///
    /// Call between documents: the new query takes effect at the next
    /// `StartDocument` (mid-document calls are safe but the query's
    /// view of the in-flight document is partial).
    ///
    /// # Panics
    ///
    /// On a shard produced by [`IndexedBank::partition`]: shards are
    /// read-only snapshots of the parent's subscription set (churn
    /// would desynchronize the group-ownership masks). Churn the
    /// parent bank, then re-partition.
    pub fn subscribe(&mut self, q: &Query) -> Result<SubscriptionId, UnsupportedQuery> {
        assert!(
            self.shard_owned.is_none(),
            "subscribe on a bank shard: churn the parent bank and re-partition"
        );
        let id = SubscriptionId(self.next_sub);
        self.insert_slot(q, id, None)?;
        self.next_sub += 1;
        // Compiling the query may have interned names an earlier
        // document's owned-event conversion memoized as unknown — drop
        // those verdicts so the new query sees them. (Reader-path
        // consumers own their parser's memo; see
        // `StreamingParser::invalidate_name_memo`.)
        self.name_cache.clear();
        Ok(id)
    }

    /// Withdraws a subscription in O(group size): the slot is
    /// tombstoned (live slots do not move), its group loses a member,
    /// and a group left empty is tombstoned with it — its live
    /// evaluation state is dropped on the spot, and a pool entry left
    /// without live groups releases its pooled filters so the shared
    /// residual's `Arc` refcounts drop back to the compiled entry
    /// alone. Nothing is recompiled; the inert trie linkage is folded
    /// away by the next [`IndexedBank::compact`] (automatic per
    /// [`CompactionPolicy`]).
    ///
    /// Returns `false` for unknown or already-withdrawn ids.
    ///
    /// # Panics
    ///
    /// On a shard produced by [`IndexedBank::partition`] (see
    /// [`IndexedBank::subscribe`]).
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        assert!(
            self.shard_owned.is_none(),
            "unsubscribe on a bank shard: churn the parent bank and re-partition"
        );
        let Some(slot) = self.subs.remove(&id.0) else {
            return false;
        };
        self.slot_alive[slot] = false;
        self.dead_slots += 1;
        let g = self.query_group[slot] as usize;
        if let Some(pos) = self.groups[g].members.iter().position(|&m| m == slot) {
            self.groups[g].members.swap_remove(pos);
        }
        if self.groups[g].members.is_empty() {
            self.drop_group_state(g);
            if let Some(rid) = self.groups[g].residual {
                let rid = rid as usize;
                self.residual_uses[rid] -= 1;
                if self.residual_uses[rid] == 0 {
                    // Each pooled filter holds an `Arc` of the compiled
                    // residual: dropping the free-list now leaves the
                    // pool entry as the form's last reference.
                    self.free_filters[rid].clear();
                }
            }
            // Historical peaks leave with the group's last owner, so
            // the per-query attribution keeps summing exactly over the
            // queries that still exist.
            self.peak_bits[g] = 0;
            self.peak_pending[g] = 0;
            self.group_true[g] = false;
        }
        self.maybe_compact();
        true
    }

    /// Folds every tombstoned slot away: rebuilds the trie, groups and
    /// slot table from the surviving subscriptions — renumbering
    /// **slots** only; [`SubscriptionId`]s are stable and re-resolve
    /// through [`IndexedBank::slot_of`] — and drops residual-pool
    /// entries no surviving group references. The pass *moves* the
    /// existing compiled residuals into the rebuilt pool (`Arc`
    /// clones) and skips re-validation, so it performs **zero** query
    /// compilations: [`IndexedBank::residual_builds`] is unchanged.
    ///
    /// Only effective between documents (mid-document calls return
    /// `false` and change nothing). Returns `true` when a rebuild
    /// happened.
    ///
    /// # Panics
    ///
    /// On a shard produced by [`IndexedBank::partition`] (the rebuild
    /// renumbers groups, which would desynchronize the ownership
    /// mask); see [`IndexedBank::subscribe`].
    pub fn compact(&mut self) -> bool {
        assert!(
            self.shard_owned.is_none(),
            "compact on a bank shard: churn the parent bank and re-partition"
        );
        // "Between documents" ⇔ nothing processed yet, or the last
        // document ran to `EndDocument`.
        if self.dead_slots == 0 || !(self.events == 0 || self.finished) {
            return false;
        }
        debug_assert!(self.instances.is_empty() && self.dormant_len == 0);
        // Carry compiled residual forms and per-group history (peaks
        // and the last document's verdicts) across the rebuild, keyed
        // by canonical form.
        let residuals = std::mem::take(&mut self.residuals);
        let pool_keys = std::mem::take(&mut self.pool_of_key);
        let warm: HashMap<String, CompiledResidual> = pool_keys
            .into_iter()
            .map(|(k, r)| (k, residuals[r as usize].clone()))
            .collect();
        let old_groups = std::mem::take(&mut self.group_of_key);
        let mut carry: HashMap<String, (u64, usize, bool)> = HashMap::new();
        for (key, g) in old_groups {
            let gi = g as usize;
            if !self.groups[gi].members.is_empty() {
                carry.insert(
                    key,
                    (
                        self.peak_bits[gi],
                        self.peak_pending[gi],
                        self.group_true[gi],
                    ),
                );
            }
        }
        let slot_query = std::mem::take(&mut self.slot_query);
        let slot_sub = std::mem::take(&mut self.slot_sub);
        let slot_alive = std::mem::take(&mut self.slot_alive);
        let survivors: Vec<(u64, Query)> = slot_query
            .into_iter()
            .zip(slot_sub)
            .zip(slot_alive)
            .filter_map(|((q, sub), alive)| alive.then_some((sub, q)))
            .collect();

        self.trie.truncate(1);
        self.trie[0].children.clear();
        self.groups.clear();
        self.root_groups.clear();
        self.query_group.clear();
        self.subs.clear();
        self.residual_uses.clear();
        self.residual_triggers.clear();
        self.free_filters.clear();
        self.dormant.clear();
        self.group_true.clear();
        self.emitted.clear();
        self.peak_bits.clear();
        self.live_bits.clear();
        self.peak_pending.clear();
        self.live_pending.clear();
        self.clear_records();
        self.open_terminals.clear();
        self.dead_slots = 0;

        for (sub, q) in survivors {
            self.insert_slot(&q, SubscriptionId(sub), Some(&warm))
                .expect("surviving queries were validated at subscribe");
        }
        let restored: Vec<(u32, (u64, usize, bool))> = self
            .group_of_key
            .iter()
            .filter_map(|(key, &g)| carry.get(key).map(|&h| (g, h)))
            .collect();
        for (g, (peak_bits, peak_pending, was_true)) in restored {
            let gi = g as usize;
            self.peak_bits[gi] = peak_bits;
            self.peak_pending[gi] = peak_pending;
            self.group_true[gi] = was_true;
        }
        self.compactions += 1;
        true
    }

    fn maybe_compact(&mut self) {
        if self.dead_slots >= self.policy.min_tombstones
            && (self.dead_slots as f64)
                > self.policy.max_tombstone_ratio * self.query_group.len() as f64
        {
            self.compact();
        }
    }

    // -- bank sharding ------------------------------------------------------

    /// Splits the bank into `shards` sub-banks for parallel evaluation
    /// of **one** event stream: each shard is a full structural clone
    /// (same trie, groups, residual pool and symbol table) carrying a
    /// group-ownership mask, with every group owned by exactly one
    /// shard (greedily balanced by member count). Feed the identical
    /// interned event sequence to every shard — on separate threads,
    /// via `fx_xml::EventBatch` broadcast — then combine: per-slot
    /// verdicts and matches come from the shard that
    /// [`IndexedBank::owns_slot`], and per-shard
    /// [`IndexedBank::space_stats`] merge through
    /// [`IndexSpaceStats::merge_sharded`].
    ///
    /// **Equivalence.** Every shard runs the shared trie walk and the
    /// dormancy bookkeeping for all groups — the shared-segment
    /// trajectory (records *and* dormant activations) is identical in
    /// every shard and identical to this bank's, so in reporting mode
    /// `shared_trie_bits`/`peak_records` are exact, not estimates.
    /// Only residual-instance spawning, terminal confirmation and
    /// match routing are gated by ownership, so each group's
    /// instance-side behaviour (verdicts, matches, `peak_bits`,
    /// activation counts) in its owning shard is event-for-event what
    /// the unsharded bank computes. In filtering mode the accepted-
    /// group short-circuit is ownership-local — a non-owning shard
    /// keeps dormancy entries the unsharded bank would have dropped
    /// after the group accepted — so a shard's `shared_trie_bits` may
    /// exceed (never undershoot) the unsharded figure; verdicts are
    /// unaffected.
    ///
    /// Shards are read-only snapshots of the subscription set: churn
    /// ([`IndexedBank::subscribe`] / [`IndexedBank::unsubscribe`] /
    /// [`IndexedBank::compact`]) panics on a shard — churn the parent
    /// and re-partition. Per-document state and statistics are reset
    /// in every shard, so merged stats account exactly the documents
    /// processed after the split. Call between documents.
    ///
    /// `shards` is clamped to at least 1; asking for more shards than
    /// live groups yields trailing shards that own nothing (they still
    /// track the shared segment — harmless, but wasted work).
    pub fn partition(&self, shards: usize) -> Vec<IndexedBank> {
        let shards = shards.max(1);
        // Greedy balance: heaviest group first, onto the lightest
        // shard. Weight 1 + |members| — a group costs its instance
        // churn plus per-member match fan-out; tombstoned groups
        // weigh nothing and are skipped at every activation site
        // anyway.
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by_key(|&g| std::cmp::Reverse(self.groups[g].members.len()));
        let mut load = vec![0usize; shards];
        let mut owner = vec![0usize; self.groups.len()];
        for g in order {
            let lightest = (0..shards).min_by_key(|&s| load[s]).unwrap_or(0);
            owner[g] = lightest;
            if !self.groups[g].members.is_empty() {
                load[lightest] += 1 + self.groups[g].members.len();
            }
        }
        (0..shards)
            .map(|s| {
                let mut shard = self.clone();
                shard.shard_owned = Some(owner.iter().map(|&o| o == s).collect());
                shard.reset_processing_state();
                shard
            })
            .collect()
    }

    /// Whether this bank owns group `g` — always true for an
    /// unsharded bank, and true for exactly one shard of a
    /// [`IndexedBank::partition`] per group.
    #[inline]
    fn owns_group(&self, g: usize) -> bool {
        match &self.shard_owned {
            None => true,
            Some(mask) => mask[g],
        }
    }

    /// Whether this bank owns the group of slot `slot` — the shard
    /// whose [`IndexedBank::results`] entry, routed matches and
    /// per-group statistics are authoritative for that query. Always
    /// true for an unsharded bank.
    pub fn owns_slot(&self, slot: usize) -> bool {
        self.owns_group(self.query_group[slot] as usize)
    }

    /// Whether this bank is a shard of an [`IndexedBank::partition`].
    pub fn is_shard(&self) -> bool {
        self.shard_owned.is_some()
    }

    /// Clears per-document evaluation state and zeroes every
    /// statistic, so a freshly partitioned shard accounts only what
    /// it processes after the split.
    fn reset_processing_state(&mut self) {
        self.clear_records();
        while let Some(inst) = self.instances.pop() {
            self.recycle(inst);
        }
        self.clear_dormant();
        self.open_terminals.clear();
        self.scratch_activated.clear();
        self.current_level = 0;
        self.element_ordinal = 0;
        self.finished = false;
        self.group_true.fill(false);
        for s in &mut self.emitted {
            s.clear();
        }
        self.peak_bits.fill(0);
        self.live_bits.fill(0);
        self.peak_pending.fill(0);
        self.live_pending.fill(0);
        self.peak_records = 0;
        self.peak_trie_bits = 0;
        self.peak_instances = 0;
        self.activations = 0;
        self.events = 0;
    }

    /// The shared insertion path of [`IndexedBank::subscribe`] and
    /// [`IndexedBank::compact`]: registers `q` in the next slot under
    /// subscription `id`. `warm` carries a previous incarnation's
    /// residual pool (keyed by canonical form) so compaction
    /// revalidates and recompiles nothing.
    fn insert_slot(
        &mut self,
        q: &Query,
        id: SubscriptionId,
        warm: Option<&HashMap<String, CompiledResidual>>,
    ) -> Result<(), UnsupportedQuery> {
        // Validate the full query exactly like the naive bank (skipped
        // on compaction, which reinserts already-validated queries and
        // compiles only on a warm-pool miss — which reinsertion of a
        // pooled bank never hits).
        let mut compiled = None;
        if warm.is_none() {
            let c = CompiledQuery::compile_with(q, Arc::clone(&self.symbols))?;
            if self.reporting {
                c.reporting_supported()?;
            }
            compiled = Some(c);
        }
        let slot = self.query_group.len();
        let form = CanonicalForm::of(q);
        let g = match self.group_of_key.get(&form.key) {
            Some(&g) => {
                self.join_group(g, slot);
                g
            }
            None => self.insert_group(q, form, slot, compiled, warm)?,
        };
        self.query_group.push(g);
        self.slot_sub.push(id.0);
        self.slot_alive.push(true);
        self.slot_query.push(q.clone());
        self.subs.insert(id.0, slot);
        Ok(())
    }

    /// Adds `slot` to the existing group `g`, reviving it if
    /// tombstoned (its trie linkage was never removed; it only needs
    /// its pool entry's use count back).
    fn join_group(&mut self, g: u32, slot: usize) {
        let gi = g as usize;
        if self.groups[gi].members.is_empty() {
            if let Some(rid) = self.groups[gi].residual {
                self.residual_uses[rid as usize] += 1;
            }
        }
        self.groups[gi].members.push(slot);
    }

    /// Creates the group for a canonical form the bank has not seen:
    /// walks/extends the trie along the sharable prefix and wires the
    /// remainder into the residual pool. O(|query|) — the trie walk
    /// touches one node per prefix step, and appended nodes/groups
    /// never renumber existing ones.
    fn insert_group(
        &mut self,
        q: &Query,
        form: CanonicalForm,
        slot: usize,
        compiled: Option<CompiledQuery>,
        warm: Option<&HashMap<String, CompiledResidual>>,
    ) -> Result<u32, UnsupportedQuery> {
        let steps = &form.steps;
        let k = form.sharable;
        let mut node = 0u32;
        let mut needs_dedup = false;
        for step in &steps[..k] {
            needs_dedup |= step.axis == Axis::Descendant;
            node = match self.trie[node as usize]
                .children
                .iter()
                .copied()
                .find(|&c| {
                    self.trie[c as usize].axis == step.axis
                        && self.trie[c as usize].ntest == step.ntest
                }) {
                Some(c) => c,
                None => {
                    let id = self.trie.len() as u32;
                    let code = match &step.ntest {
                        NodeTest::Wildcard => WILDCARD_CODE,
                        NodeTest::Name(n) => sym_code(Some(self.symbols.intern(n))),
                    };
                    self.trie.push(TrieNode {
                        axis: step.axis,
                        ntest: step.ntest.clone(),
                        code,
                        children: Vec::new(),
                        terminal: Vec::new(),
                        residual: Vec::new(),
                    });
                    self.trie[node as usize].children.push(id);
                    id
                }
            };
        }
        let g = self.groups.len() as u32;
        if k == steps.len() && k > 0 {
            self.trie[node as usize].terminal.push(g);
            self.push_group(Group {
                members: vec![slot],
                residual: None,
                needs_dedup,
                document_rooted: false,
            });
        } else {
            // A document-rooted remainder (k == 0) is the whole query;
            // its residual form is the full canonical key, so a root
            // group can still share its compiled form with a trie
            // group whose remainder renders identically.
            let rkey = form.residual_key(k);
            let r = match self.pool_hit(&rkey, warm) {
                Some(r) => r,
                None => {
                    // Genuinely new canonical form: compile it (for
                    // k == 0 the subscribe path already has it).
                    let rc = match (k, compiled) {
                        (0, Some(c)) => c,
                        _ => {
                            let residual = if k == 0 {
                                q.clone()
                            } else {
                                residual_query(q, k)
                            };
                            let rc =
                                CompiledQuery::compile_with(&residual, Arc::clone(&self.symbols))?;
                            if self.reporting {
                                rc.reporting_supported()?;
                            }
                            rc
                        }
                    };
                    self.built_residuals += 1;
                    self.intern(CompiledResidual::build(rc, rkey))
                }
            };
            if k == 0 {
                self.root_groups.push(g);
                self.push_group(Group {
                    members: vec![slot],
                    residual: Some(r),
                    needs_dedup: false,
                    document_rooted: true,
                });
            } else {
                self.trie[node as usize].residual.push(g);
                self.push_group(Group {
                    members: vec![slot],
                    residual: Some(r),
                    needs_dedup,
                    document_rooted: false,
                });
            }
        }
        self.group_of_key.insert(form.key, g);
        Ok(g)
    }

    /// Looks up a canonical residual form: first in the live pool,
    /// then in a compaction's warm pool (a hit there moves the entry —
    /// an `Arc` clone, never a build — into the live pool). Unpooled
    /// banks skip both, so every group owns a private fresh build.
    fn pool_hit(
        &mut self,
        rkey: &str,
        warm: Option<&HashMap<String, CompiledResidual>>,
    ) -> Option<u32> {
        if !self.pooled {
            return None;
        }
        if let Some(&r) = self.pool_of_key.get(rkey) {
            self.residual_uses[r as usize] += 1;
            return Some(r);
        }
        warm.and_then(|w| w.get(rkey))
            .cloned()
            .map(|res| self.intern(res))
    }

    /// Adds a pool entry (with one use), registering its dormant
    /// wake-up triggers and its (empty) filter free-list.
    fn intern(&mut self, res: CompiledResidual) -> u32 {
        let r = self.residuals.len() as u32;
        self.pool_of_key.insert(res.key.clone(), r);
        self.residual_triggers.push(triggers_for(res.compiled()));
        self.free_filters.push(Vec::new());
        self.dormant.push(Vec::new());
        self.residual_uses.push(1);
        self.residuals.push(res);
        r
    }

    /// Appends a group, growing every per-group parallel array.
    fn push_group(&mut self, group: Group) {
        self.groups.push(group);
        self.group_true.push(false);
        self.emitted.push(HashSet::new());
        self.peak_bits.push(0);
        self.live_bits.push(0);
        self.peak_pending.push(0);
        self.live_pending.push(0);
    }

    /// Drops a tombstoned group's live per-document state: open
    /// residual instances, dormant activations and pending terminal
    /// spans (a mid-document unsubscribe simply stops evaluating).
    fn drop_group_state(&mut self, g: usize) {
        let mut i = 0;
        while i < self.instances.len() {
            if self.instances[i].group as usize == g {
                self.note_stats(i);
                self.instances.remove(i);
            } else {
                i += 1;
            }
        }
        self.retain_dormant(|d| d.group as usize != g);
        self.open_terminals
            .retain(|&(_, og, _, _)| og as usize != g);
        self.live_bits[g] = 0;
        self.live_pending[g] = 0;
    }

    /// The stable id of the subscription currently occupying `slot`
    /// (`None` for tombstoned or out-of-range slots) — the inverse of
    /// [`IndexedBank::slot_of`], for translating a routed [`Match`]'s
    /// bank index back to its subscriber.
    pub fn subscription_of(&self, slot: usize) -> Option<SubscriptionId> {
        (self.slot_alive.get(slot) == Some(&true)).then(|| SubscriptionId(self.slot_sub[slot]))
    }

    /// The current slot (bank index) of a subscription, `None` once
    /// unsubscribed. Slots are stable except across
    /// [`IndexedBank::compact`].
    pub fn slot_of(&self, id: SubscriptionId) -> Option<usize> {
        self.subs.get(&id.0).copied()
    }

    /// Number of live (non-tombstoned) subscriptions.
    pub fn live_subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Number of tombstoned slots awaiting compaction.
    pub fn tombstoned_slots(&self) -> usize {
        self.dead_slots
    }

    /// Number of compaction passes performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The automatic compaction policy (see [`CompactionPolicy`]).
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Replaces the automatic compaction policy.
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// Number of registered slots — live subscriptions plus tombstones
    /// awaiting compaction ([`IndexedBank::live_subscriptions`] counts
    /// the live ones alone). Per-slot vectors such as
    /// [`IndexedBank::results`] have this length.
    pub fn len(&self) -> usize {
        self.query_group.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.query_group.is_empty()
    }

    /// True when this bank reports positions (built via
    /// [`IndexedBank::new_reporting`]).
    pub fn is_reporting(&self) -> bool {
        self.reporting
    }

    /// Number of distinct canonical query groups (each evaluated once).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct canonical residual forms in the shared pool —
    /// at most the number of residual-bearing groups, and strictly less
    /// whenever remainders repeat across trie groups.
    pub fn residual_pool_size(&self) -> usize {
        self.residuals.len()
    }

    /// Number of [`CompiledResidual`] builds this bank performed:
    /// exactly one per canonical residual form, at the form's first
    /// subscription. Processing any number of documents, spawning any
    /// number of residual instances, and any amount of churn over
    /// already-known forms — unsubscribes, compactions, re-subscribes
    /// — leave this unchanged: that is the no-recompilation guarantee
    /// the mutable bank is built around.
    pub fn residual_builds(&self) -> u64 {
        self.built_residuals
    }

    /// Total residual instances spawned so far (cumulative across
    /// documents) — each one an `Arc` bump plus empty instance state.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Total events processed so far (cumulative across documents).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Number of shared trie nodes (excluding the virtual root).
    pub fn shared_nodes(&self) -> usize {
        self.trie.len() - 1
    }

    /// Currently live residual instances (per-query state that exists
    /// only below activated divergence points).
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    /// Peak number of simultaneously live residual instances.
    pub fn peak_live_instances(&self) -> usize {
        self.peak_instances
    }

    /// Peak number of shared trie frontier records.
    pub fn peak_shared_records(&self) -> usize {
        self.peak_records
    }

    /// Feeds one event to the index (no span information; reported
    /// matches carry [`Span::EMPTY`]).
    pub fn process(&mut self, event: &Event) {
        self.process_to(event, Span::EMPTY, &mut |_: Match| {});
    }

    /// Feeds one event with its source span, routing any matches it
    /// confirmed to `sink` — each stamped with the bank index of the
    /// query that selected it. Filtering-mode banks never call the sink.
    pub fn process_to(&mut self, event: &Event, span: Span, sink: &mut dyn MatchSink) {
        // One conversion to the interned form serves the shared trie
        // walk and every live residual instance — and it is lazy about
        // what it converts: only start tags need their name resolved
        // for the trie, attributes and end-tag names are consumed by
        // residual instances alone, so with no instance live they are
        // not even looked up.
        match event.as_ref() {
            EventRef::StartElement { name, attributes } => {
                let sym = self.name_cache.lookup(&self.symbols, name);
                if attributes.is_empty() || (self.instances.is_empty() && self.dormant_len == 0) {
                    // No instance will see this start tag's attributes
                    // (instances spawned *at* it never receive it, and
                    // only a live or woken instance ever reads them).
                    self.process_sym_to(
                        SymEvent::StartElement {
                            name: sym,
                            attributes: &[],
                        },
                        span,
                        sink,
                    );
                } else {
                    let mut scratch = std::mem::take(&mut self.attr_scratch);
                    let attrs =
                        scratch.fill_from_cached(&mut self.name_cache, &self.symbols, attributes);
                    self.process_sym_to(
                        SymEvent::StartElement {
                            name: sym,
                            attributes: attrs,
                        },
                        span,
                        sink,
                    );
                    self.attr_scratch = scratch;
                }
            }
            EventRef::EndElement { name } => {
                // The trie drops records by level, not by name; only
                // live instances compare the end tag's name.
                let sym = if self.instances.is_empty() {
                    Sym::UNKNOWN
                } else {
                    self.name_cache.lookup(&self.symbols, name)
                };
                self.process_sym_to(SymEvent::EndElement { name: sym }, span, sink);
            }
            EventRef::StartDocument => self.process_sym_to(SymEvent::StartDocument, span, sink),
            EventRef::EndDocument => self.process_sym_to(SymEvent::EndDocument, span, sink),
            EventRef::Text { content } => {
                self.process_sym_to(SymEvent::Text { content }, span, sink)
            }
        }
    }

    /// [`IndexedBank::process_to`] over an already-interned event (syms
    /// from the bank's table, [`IndexedBank::symbols`]) — the zero-copy
    /// hot path a `StreamingParser` sharing the table feeds directly.
    pub fn process_sym_to(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        self.events += 1;
        match event {
            SymEvent::StartDocument => self.start_document(),
            SymEvent::StartElement { name, .. } => self.start_element(event, name, span, sink),
            SymEvent::EndElement { .. } => self.end_element(event, span, sink),
            SymEvent::Text { .. } => {
                self.feed_instances(event, span, self.current_level as i64, sink)
            }
            SymEvent::EndDocument => self.end_document(sink),
        }
    }

    /// [`IndexedBank::process_sym_to`] over a whole [`EventBatch`]: the
    /// batch-granular hot path. One bank call walks the entire run with
    /// the replay attribute scratch hoisted out of the per-event loop;
    /// event order, match routing, verdicts, and space accounting are
    /// exactly those of the per-event feed.
    pub fn process_batch_to(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let mut scratch = std::mem::take(&mut self.attr_scratch);
        batch.replay(&mut scratch, |ev, span| self.process_sym_to(ev, span, sink));
        self.attr_scratch = scratch;
    }

    /// The bank's shared symbol table: hand it to
    /// `fx_xml::StreamingParser::with_symbols` so parsed events arrive
    /// already interned and [`IndexedBank::process_sym_to`] dispatches
    /// without any per-event name lookup.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Per-query verdicts (available after `endDocument`, or earlier for
    /// groups that short-circuited to an accept), indexed by slot.
    /// Entries for tombstoned slots are unspecified — translate live
    /// subscriptions through [`IndexedBank::slot_of`] instead of
    /// iterating blindly after churn.
    pub fn results(&self) -> Vec<Option<bool>> {
        self.query_group
            .iter()
            .map(|&g| {
                if self.group_true[g as usize] {
                    Some(true)
                } else if self.finished {
                    Some(false)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Iterates the slots of the live queries the last document
    /// matched, without allocating (tombstoned slots never report).
    pub fn matching(&self) -> impl Iterator<Item = usize> + '_ {
        self.query_group
            .iter()
            .enumerate()
            .filter_map(|(i, &g)| (self.slot_alive[i] && self.group_true[g as usize]).then_some(i))
    }

    /// Indices of the queries the last document matched, collected.
    pub fn matching_queries(&self) -> Vec<usize> {
        self.matching().collect()
    }

    /// Per-query **attributed** peak bits of the current document, comparable with
    /// [`crate::MultiFilter`]'s per-filter figures: each group's peak
    /// residual-instance bits are split evenly across the group's
    /// members, and the shared trie's peak bits evenly across the
    /// queries whose prefixes live in the trie (integer remainders go to
    /// the lowest-ranked sharers), so the vector sums **exactly** to
    /// [`IndexedBank::total_max_bits`]. Queries whose prefix never
    /// activated are charged only their share of the trie. Under real
    /// sharing (families of queries per trie path) a query's attribution
    /// sits well below what a standalone [`crate::StreamFilter`] run of
    /// the same query would cost; with only a handful of sharers the
    /// trie share — whose rows cost `log|trie|` where a lone filter's
    /// cost `log|Q|` — can exceed a solo run's figure by a bit or two.
    pub fn peak_memory_bits(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.query_group.len()];
        for (g, group) in self.groups.iter().enumerate() {
            split_evenly(self.peak_bits[g], &group.members, &mut out);
        }
        // The trie sharers (everything alive except empty-prefix root
        // groups) are derived on demand: churn moves slots in and out
        // of the sharing set, and attribution is a finish-time read,
        // not a hot path.
        let sharers: Vec<usize> = self
            .query_group
            .iter()
            .enumerate()
            .filter(|&(i, &g)| self.slot_alive[i] && !self.groups[g as usize].document_rooted)
            .map(|(i, _)| i)
            .collect();
        if sharers.is_empty() {
            // Every trie query unsubscribed mid-life: the segment's
            // history has no natural owner left, so spread it over
            // whatever is still alive to keep the attribution summing
            // exactly to the bank total.
            let alive: Vec<usize> = (0..self.query_group.len())
                .filter(|&i| self.slot_alive[i])
                .collect();
            split_evenly(self.peak_trie_bits, &alive, &mut out);
        } else {
            split_evenly(self.peak_trie_bits, &sharers, &mut out);
        }
        out
    }

    /// Per-query peak counts of buffered unresolved candidate positions
    /// (all zero for filtering-mode banks) — the \[5\] selection cost.
    /// A query reports its group's peak, which counts the group's
    /// simultaneously-live instances together (one naive filter would
    /// buffer all those candidacies in a single reporter).
    pub fn peak_pending_positions(&self) -> Vec<usize> {
        self.query_group
            .iter()
            .map(|&g| self.peak_pending[g as usize])
            .collect()
    }

    /// Aggregate peak logical state across the bank, in bits: the peak
    /// shared-trie segment plus the sum of per-group instance peaks
    /// (shared state counted **once** — that is the point of the index).
    /// Directly comparable with [`crate::MultiFilter::total_max_bits`],
    /// which sums per-filter peaks the same way; equals the sum of
    /// [`IndexedBank::peak_memory_bits`] exactly.
    pub fn total_max_bits(&self) -> u64 {
        self.peak_trie_bits + self.peak_bits.iter().sum::<u64>()
    }

    /// The bank-level space/activation breakdown (see
    /// [`IndexSpaceStats`]).
    pub fn space_stats(&self) -> IndexSpaceStats {
        let residual_bits = self.peak_bits.iter().sum::<u64>();
        IndexSpaceStats {
            shared_trie_bits: self.peak_trie_bits,
            residual_bits,
            total_bits: self.peak_trie_bits + residual_bits,
            peak_records: self.peak_records,
            peak_instances: self.peak_instances,
            activations: self.activations,
            events: self.events,
            groups: self.groups.len(),
            residual_pool: self.residuals.len(),
        }
    }

    // -- event handlers -----------------------------------------------------

    fn start_document(&mut self) {
        self.clear_records();
        self.clear_dormant();
        while let Some(inst) = self.instances.pop() {
            self.recycle(inst);
        }
        self.live_bits.fill(0);
        self.live_pending.fill(0);
        // Space peaks are per document, like every filter's statistics.
        self.peak_bits.fill(0);
        self.peak_pending.fill(0);
        self.peak_records = 0;
        self.peak_trie_bits = 0;
        self.open_terminals.clear();
        self.current_level = 0;
        self.element_ordinal = 0;
        self.finished = false;
        for v in &mut self.group_true {
            *v = false;
        }
        for s in &mut self.emitted {
            s.clear();
        }
        for ci in 0..self.trie[0].children.len() {
            let c = self.trie[0].children[ci];
            self.push_record(c);
        }
        // Empty-prefix groups run as document-rooted activations:
        // exactly the naive bank's per-query filters (short-circuiting
        // included), except they stay dormant until the document shows
        // a root-record match — the naive bank's dominant root-tag
        // early-reject case costs two integer compares here.
        for gi in 0..self.root_groups.len() {
            let g = self.root_groups[gi];
            if self.groups[g as usize].members.is_empty() {
                continue; // tombstoned, awaiting compaction
            }
            self.activate(g, -1);
        }
        self.note_trie_peak();
    }

    fn start_element(
        &mut self,
        event: SymEvent<'_>,
        name: Sym,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        let lvl = self.current_level;
        // Feed instances rooted strictly above this element first; the
        // instances this element spawns below must not see its start tag
        // (they are rooted *at* it).
        self.feed_instances(event, span, lvl as i64, sink);
        // Wake any dormant activation this start tag triggers (the
        // woken instance receives this very event as its first);
        // activations registered *by* this element below are appended
        // afterwards and correctly sleep through it.
        let code = name.index() as u32;
        if self.dormant_len > 0 {
            self.trigger_dormant(event, code, lvl, span, sink);
        }

        // Walk the shared segment once: which trie nodes does this
        // element activate? A child-axis record can be selected only by
        // an element on its own level — the top run — while an armed
        // descendant-axis node is selected at any depth; both checks are
        // integer compares (level, dispatch code).
        self.scratch_activated.clear();
        for &t in &self.desc_armed {
            let c = self.trie[t as usize].code;
            if c == WILDCARD_CODE || c == code {
                self.scratch_activated.push(t);
            }
        }
        let top = self.record_runs[lvl as usize];
        for rec in &self.records[top..] {
            if !rec.descendant
                && (rec.code == WILDCARD_CODE || rec.code == code)
                && !self.scratch_activated.contains(&rec.node)
            {
                self.scratch_activated.push(rec.node);
            }
        }
        // The activated nodes' children open the next level's run.
        let run = self.records.len();
        self.record_runs.push(run);
        for ai in 0..self.scratch_activated.len() {
            let t = self.scratch_activated[ai];
            for ci in 0..self.trie[t as usize].children.len() {
                let c = self.trie[t as usize].children[ci];
                if !self.records[run..].iter().any(|r| r.node == c) {
                    self.push_record(c);
                }
            }
            for gi in 0..self.trie[t as usize].terminal.len() {
                let g = self.trie[t as usize].terminal[gi];
                if self.groups[g as usize].members.is_empty() {
                    continue; // tombstoned, awaiting compaction
                }
                if !self.owns_group(g as usize) {
                    continue; // another shard confirms this group
                }
                if self.reporting {
                    self.open_terminals
                        .push((lvl, g, self.element_ordinal, span.start));
                } else {
                    self.accept(g as usize);
                }
            }
            for gi in 0..self.trie[t as usize].residual.len() {
                let g = self.trie[t as usize].residual[gi];
                if self.groups[g as usize].members.is_empty() {
                    continue; // tombstoned, awaiting compaction
                }
                // Decided-group short-circuit: a filtering group already
                // accepted needs no further instances.
                if !self.reporting && self.group_true[g as usize] {
                    continue;
                }
                self.activate(g, lvl as i64);
            }
        }
        self.element_ordinal += 1;
        self.current_level = lvl + 1;
        self.note_trie_peak();
    }

    /// Updates the shared-segment peaks: record count, and the segment's
    /// logical size in bits — one row per record, each a trie-node
    /// reference plus an insertion level plus O(1) flags, mirroring
    /// [`crate::SpaceStats::bits_per_row`]'s `log|Q| + log d + 1` shape
    /// with the trie standing in for the query.
    fn note_trie_peak(&mut self) {
        self.peak_records = self.peak_records.max(self.records.len());
        let row_bits = (bits_for(self.trie.len().saturating_sub(1))
            + bits_for(self.current_level as usize)
            + 1) as u64;
        // Dormant activations are bank state too: charge each as one
        // shared-segment row (a group reference plus a level — the same
        // shape as a trie record).
        let rows = (self.records.len() + self.dormant_len) as u64;
        self.peak_trie_bits = self.peak_trie_bits.max(rows * row_bits);
    }

    fn end_element(&mut self, event: SymEvent<'_>, span: Span, sink: &mut dyn MatchSink) {
        let new_level = self.current_level.saturating_sub(1);
        // Instances strictly inside see the end tag; the ones rooted at
        // the closing element get `EndDocument` instead, below.
        self.feed_instances(event, span, new_level as i64, sink);
        self.current_level = new_level;

        // Retire instances rooted at the closing element: the suffix of
        // the root-ordered instance list.
        while self
            .instances
            .last()
            .is_some_and(|inst| inst.root_level == new_level as i64)
        {
            self.retire_last(sink);
        }

        // Drop shared records spawned inside the closing element (its
        // child level's run), and dormant activations rooted at it —
        // their subtree ended with no wake-up, so their verdicts are
        // (correctly) still false and the instance never needed to exist.
        if self.record_runs.len() > new_level as usize + 1 {
            let run = self.record_runs.pop().expect("checked above");
            self.truncate_records(run);
        }
        let mut ai = 0;
        while ai < self.dormant_armed.len() {
            let stack = &mut self.dormant[self.dormant_armed[ai] as usize];
            while stack
                .last()
                .is_some_and(|d| d.root_level == new_level as i64)
            {
                stack.pop();
                self.dormant_len -= 1;
            }
            if stack.is_empty() {
                self.dormant_armed.swap_remove(ai);
            } else {
                ai += 1;
            }
        }

        // Terminal activations of the closing element: the span is now
        // complete, and — the chain being predicate-free — the match is
        // definitely confirmed.
        while let Some(&(l, g, ordinal, start)) = self.open_terminals.last() {
            if l != new_level {
                break;
            }
            self.open_terminals.pop();
            self.emit(g as usize, ordinal, Span::new(start, span.end), sink);
        }
    }

    fn end_document(&mut self, sink: &mut dyn MatchSink) {
        while !self.instances.is_empty() {
            self.retire_last(sink);
        }
        self.clear_dormant();
        self.finished = true;
    }

    /// Appends an open-occurrence record for trie node `t` to the top
    /// run, inlining its dispatch code and axis.
    fn push_record(&mut self, t: u32) {
        let node = &self.trie[t as usize];
        let descendant = node.axis == Axis::Descendant;
        self.records.push(TrieRec {
            node: t,
            code: node.code,
            descendant,
        });
        if descendant {
            if self.desc_live.len() <= t as usize {
                self.desc_live.resize(self.trie.len(), 0);
            }
            if self.desc_live[t as usize] == 0 {
                self.desc_armed.push(t);
            }
            self.desc_live[t as usize] += 1;
        }
    }

    /// Drops the records from index `run` on (whole closing levels).
    fn truncate_records(&mut self, run: usize) {
        while self.records.len() > run {
            let rec = self.records.pop().expect("non-empty suffix");
            if rec.descendant {
                let t = rec.node as usize;
                self.desc_live[t] -= 1;
                if self.desc_live[t] == 0 {
                    let at = self
                        .desc_armed
                        .iter()
                        .position(|&a| a as usize == t)
                        .expect("live descendant node is armed");
                    self.desc_armed.swap_remove(at);
                }
            }
        }
    }

    /// Empties the shared segment, leaving the document-level run open.
    fn clear_records(&mut self) {
        self.records.clear();
        self.record_runs.clear();
        self.record_runs.push(0);
        self.desc_live.clear();
        self.desc_armed.clear();
    }

    /// Drops every dormant activation.
    fn clear_dormant(&mut self) {
        for &rid in &self.dormant_armed {
            self.dormant[rid as usize].clear();
        }
        self.dormant_armed.clear();
        self.dormant_len = 0;
        self.dormant_purge = false;
    }

    /// Keeps only the dormant activations `keep` accepts.
    fn retain_dormant(&mut self, mut keep: impl FnMut(&Dormant) -> bool) {
        let mut ai = 0;
        while ai < self.dormant_armed.len() {
            let stack = &mut self.dormant[self.dormant_armed[ai] as usize];
            let before = stack.len();
            stack.retain(&mut keep);
            self.dormant_len -= before - stack.len();
            if stack.is_empty() {
                self.dormant_armed.swap_remove(ai);
            } else {
                ai += 1;
            }
        }
    }

    /// Records a group's acceptance (monotone within a document). In
    /// filtering mode its dormant activations become pure overhead and
    /// are dropped at the next start tag.
    fn accept(&mut self, g: usize) {
        if !self.group_true[g] {
            self.group_true[g] = true;
            self.dormant_purge = true;
        }
    }

    // -- instance plumbing --------------------------------------------------

    /// Registers an activation of group `g` rooted at `root_level`: a
    /// dormant 16-byte entry, woken by the first event that would
    /// select one of the residual's root records. Every residual form
    /// is dormancy-eligible — attribute-axis root children, which the
    /// wake check does not model, are provably unsatisfiable inside the
    /// activation subtree (see [`triggers_for`]), so skipping their
    /// triggers loses nothing.
    fn activate(&mut self, g: u32, root_level: i64) {
        let rid = self.groups[g as usize]
            .residual
            .expect("only residual groups activate");
        let stack = &mut self.dormant[rid as usize];
        if stack.is_empty() {
            self.dormant_armed.push(rid);
        }
        stack.push(Dormant {
            group: g,
            root_level,
        });
        self.dormant_len += 1;
    }

    /// Wakes every dormant activation the current start tag triggers:
    /// the woken instance is fast-forwarded to its relative depth (the
    /// skipped events provably left it untouched — nothing selected)
    /// and fed this event as its first. Per residual, a matching
    /// descendant-axis trigger wakes the whole stack and a matching
    /// child-axis trigger only the activations rooted at the parent
    /// level (relative depth 0); other stacks are not touched.
    fn trigger_dormant(
        &mut self,
        event: SymEvent<'_>,
        code: u32,
        lvl: u32,
        span: Span,
        sink: &mut dyn MatchSink,
    ) {
        if std::mem::take(&mut self.dormant_purge) && !self.reporting {
            // Accepted groups need no instance — drop their entries.
            let accepted = std::mem::take(&mut self.group_true);
            self.retain_dormant(|d| !accepted[d.group as usize]);
            self.group_true = accepted;
        }
        let mut woken = std::mem::take(&mut self.scratch_woken);
        let mut ai = 0;
        while ai < self.dormant_armed.len() {
            let rid = self.dormant_armed[ai] as usize;
            let fires = |desc: bool| {
                self.residual_triggers[rid]
                    .specs
                    .iter()
                    .any(|&(c, d)| d == desc && (c == WILDCARD_CODE || c == code))
            };
            let stack = &mut self.dormant[rid];
            let from = if fires(true) {
                0
            } else if fires(false) {
                stack.partition_point(|d| d.root_level + 1 < lvl as i64)
            } else {
                ai += 1;
                continue;
            };
            debug_assert!(
                stack.last().is_some_and(|d| d.root_level < lvl as i64),
                "dormant entries live above the event"
            );
            self.dormant_len -= stack.len() - from;
            woken.extend(stack.drain(from..));
            if stack.is_empty() {
                self.dormant_armed.swap_remove(ai);
            } else {
                ai += 1;
            }
        }
        for &d in &woken {
            let g = d.group as usize;
            if !self.reporting && self.group_true[g] {
                continue; // accepted by an instance woken before it
            }
            // A shard tracks dormancy for every group (shared-segment
            // parity) but wakes instances only for its own: the entry
            // is consumed exactly when the unsharded bank would
            // consume it, and the owning shard does the work.
            if !self.owns_group(g) {
                continue;
            }
            let rel = (lvl as i64 - d.root_level - 1) as usize;
            let idx = self.spawn_instance_at(d.group, self.element_ordinal, d.root_level, rel);
            if self.feed_one(idx, event, span, sink) {
                self.remove_instance(idx);
            }
        }
        woken.clear();
        self.scratch_woken = woken;
    }

    /// Spawns one residual instance: an `Arc` bump on the group's pooled
    /// [`CompiledResidual`] plus empty per-instance state, fast-forwarded
    /// to relative depth `fast_forward` (0 for eager spawns). No
    /// compilation, no deep clone, no per-step allocation — the hot path
    /// the shared pool exists for. Returns the instance's index.
    fn spawn_instance_at(
        &mut self,
        g: u32,
        ordinal_offset: u64,
        root_level: i64,
        fast_forward: usize,
    ) -> usize {
        let rid = self.groups[g as usize]
            .residual
            .expect("only residual groups spawn instances");
        // A pooled filter's `StartDocument` below resets its frontier
        // and its statistics alike.
        let mut filter = match self.free_filters[rid as usize].pop() {
            Some(pooled) => pooled,
            None => {
                let compiled = Arc::clone(&self.residuals[rid as usize].compiled);
                if self.reporting {
                    StreamFilter::from_shared_reporting(compiled)
                        .expect("reporting support validated at build")
                } else {
                    StreamFilter::from_shared(compiled)
                }
            }
        };
        filter.process_sym(SymEvent::StartDocument, Span::EMPTY);
        if fast_forward > 0 {
            filter.fast_forward(fast_forward);
        }
        let noted_bits = filter.stats().max_bits;
        let noted_pending = filter.peak_pending_positions();
        // Keep the list ordered by root level (a woken activation is
        // usually the innermost, so this is almost always a push).
        let at = self
            .instances
            .partition_point(|inst| inst.root_level <= root_level);
        self.instances.insert(
            at,
            Instance {
                group: g,
                filter,
                ordinal_offset,
                root_level,
                progress: 0,
                noted_bits,
                noted_pending,
            },
        );
        let gi = g as usize;
        self.live_bits[gi] += noted_bits;
        self.peak_bits[gi] = self.peak_bits[gi].max(self.live_bits[gi]);
        self.live_pending[gi] += noted_pending;
        self.peak_pending[gi] = self.peak_pending[gi].max(self.live_pending[gi]);
        self.activations += 1;
        self.peak_instances = self.peak_instances.max(self.instances.len());
        at
    }

    /// Feeds `event` to every instance rooted strictly above `threshold`
    /// (the level the event occurs at), draining matches and applying
    /// the decided-filter short-circuit in filtering mode. Removed
    /// instances are compacted out in place, keeping the root order.
    fn feed_instances(
        &mut self,
        event: SymEvent<'_>,
        span: Span,
        threshold: i64,
        sink: &mut dyn MatchSink,
    ) {
        let mut keep = 0;
        for i in 0..self.instances.len() {
            let g = self.instances[i].group as usize;
            // An accepted group's verdict cannot change, so its instance
            // is pure overhead (same rationale as MultiFilter's
            // decided-filter skip).
            let done = (!self.reporting && self.group_true[g])
                || (threshold > self.instances[i].root_level
                    && self.feed_one(i, event, span, sink));
            if done {
                self.note_stats(i);
            } else {
                self.instances.swap(keep, i);
                keep += 1;
            }
        }
        while self.instances.len() > keep {
            let inst = self.instances.pop().expect("non-empty suffix");
            self.recycle(inst);
        }
    }

    /// Feeds `event` to instance `i` with full bookkeeping (match
    /// draining, decided short-circuit, space-delta folding). Returns
    /// `true` when the instance decided and must be removed.
    fn feed_one(
        &mut self,
        i: usize,
        event: SymEvent<'_>,
        span: Span,
        sink: &mut dyn MatchSink,
    ) -> bool {
        let g = self.instances[i].group as usize;
        let mut drained = std::mem::take(&mut self.drain_scratch);
        drained.clear();
        let mut decided = None;
        {
            let inst = &mut self.instances[i];
            inst.filter.process_sym(event, span);
            if self.reporting {
                inst.filter
                    .drain_matches(0, &mut |m: Match| drained.push((m.ordinal, m.span)));
            } else {
                let p = inst.filter.match_progress();
                if p != inst.progress {
                    inst.progress = p;
                    decided = inst.filter.decided();
                    // The early-reject branch of `decided()` assumes
                    // level-0 child-axis candidates are exhausted
                    // after one element — true only for a document's
                    // unique root. An element-rooted instance sees
                    // every child of its activation element at level
                    // 0, so for it only the (monotone) accept is
                    // decisive.
                    if decided == Some(false) && inst.root_level >= 0 {
                        decided = None;
                    }
                }
            }
        }
        // Fold the instance's growth into its group's live totals, so
        // the group peaks charge simultaneously-live instances
        // *together* — overlapping activations cost what one naive
        // filter would holding all their candidates at once.
        let grown = self.instances[i].filter.stats().max_bits;
        let prev = self.instances[i].noted_bits;
        if grown > prev {
            self.instances[i].noted_bits = grown;
            self.live_bits[g] += grown - prev;
            self.peak_bits[g] = self.peak_bits[g].max(self.live_bits[g]);
        }
        let pending = self.instances[i].filter.peak_pending_positions();
        let prev = self.instances[i].noted_pending;
        if pending > prev {
            self.instances[i].noted_pending = pending;
            self.live_pending[g] += pending - prev;
            self.peak_pending[g] = self.peak_pending[g].max(self.live_pending[g]);
        }
        if !drained.is_empty() {
            let offset = self.instances[i].ordinal_offset;
            for &(o, sp) in &drained {
                self.emit(g, o + offset, sp, sink);
            }
            drained.clear();
        }
        self.drain_scratch = drained;
        if decided == Some(true) {
            self.accept(g);
        }
        decided.is_some()
    }

    /// Records instance `i`'s statistics and removes it, keeping the
    /// root order.
    fn remove_instance(&mut self, i: usize) {
        self.note_stats(i);
        let inst = self.instances.remove(i);
        self.recycle(inst);
    }

    /// Sends `EndDocument` to the last instance, harvests its verdict
    /// and any final matches, records statistics, and removes it.
    fn retire_last(&mut self, sink: &mut dyn MatchSink) {
        let i = self.instances.len() - 1;
        let g = self.instances[i].group as usize;
        let mut drained = std::mem::take(&mut self.drain_scratch);
        drained.clear();
        let verdict;
        {
            let inst = &mut self.instances[i];
            inst.filter.process_sym(SymEvent::EndDocument, Span::EMPTY);
            if self.reporting {
                inst.filter
                    .drain_matches(0, &mut |m: Match| drained.push((m.ordinal, m.span)));
            }
            verdict = inst.filter.result();
        }
        let offset = self.instances[i].ordinal_offset;
        for &(o, sp) in &drained {
            self.emit(g, o + offset, sp, sink);
        }
        drained.clear();
        self.drain_scratch = drained;
        if verdict == Some(true) {
            self.accept(g);
        }
        self.remove_instance(i);
    }

    /// Returns a removed instance's filter to the per-residual pool for
    /// the next activation to reuse.
    fn recycle(&mut self, inst: Instance) {
        if let Some(rid) = self.groups[inst.group as usize].residual {
            self.free_filters[rid as usize].push(inst.filter);
        }
    }

    /// Folds instance `i`'s final statistics into its group's peaks and
    /// releases its contribution to the group's live totals. Call
    /// immediately before removing the instance.
    fn note_stats(&mut self, i: usize) {
        let g = self.instances[i].group as usize;
        let bits = self.instances[i].filter.stats().max_bits;
        let prev = self.instances[i].noted_bits;
        if bits > prev {
            self.live_bits[g] += bits - prev;
        }
        self.peak_bits[g] = self.peak_bits[g].max(self.live_bits[g]);
        self.live_bits[g] -= bits;
        let pending = self.instances[i].filter.peak_pending_positions();
        let prev = self.instances[i].noted_pending;
        if pending > prev {
            self.live_pending[g] += pending - prev;
        }
        self.peak_pending[g] = self.peak_pending[g].max(self.live_pending[g]);
        self.live_pending[g] -= pending;
    }

    /// Routes one confirmed match to every member of group `g`,
    /// deduplicating ordinals for groups whose descendant-axis prefixes
    /// allow nested activations to confirm the same element twice.
    fn emit(&mut self, g: usize, ordinal: u64, span: Span, sink: &mut dyn MatchSink) {
        self.accept(g);
        if !self.reporting {
            return;
        }
        if self.groups[g].needs_dedup && !self.emitted[g].insert(ordinal) {
            return;
        }
        for &m in &self.groups[g].members {
            sink.on_match(Match {
                query: m,
                ordinal,
                span,
            });
        }
    }
}

/// Adds `bits` to `out`, split evenly across the bank indices in
/// `sharers`; the integer remainder goes one extra bit apiece to the
/// lowest-ranked sharers, so the split sums back to `bits` exactly. An
/// empty sharer list only arises when `bits` is already zero (a bank
/// with no trie never pushes a record).
fn split_evenly(bits: u64, sharers: &[usize], out: &mut [u64]) {
    if sharers.is_empty() || bits == 0 {
        return;
    }
    let k = sharers.len() as u64;
    let (base, rem) = (bits / k, bits % k);
    for (rank, &i) in sharers.iter().enumerate() {
        out[i] += base + u64::from((rank as u64) < rem);
    }
}

/// Builds the residual query of `q` below a sharable prefix of length
/// `skip`: the subtree rooted at chain node `u_{skip+1}`, re-rooted so
/// its first step is relative to a prefix-activation element.
fn residual_query(q: &Query, skip: usize) -> Query {
    let mut chain = Vec::new();
    let mut cur = q.root();
    while let Some(n) = q.successor(cur) {
        chain.push(n);
        cur = n;
    }
    let start = chain[skip];
    let mut rq = Query::new();
    let root = rq.root();
    let mut map: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    copy_subtree(q, start, &mut rq, root, &mut map);
    rq.set_successor(root, map[&start]);
    rq
}

fn copy_subtree(
    q: &Query,
    u: QueryNodeId,
    rq: &mut Query,
    parent: QueryNodeId,
    map: &mut HashMap<QueryNodeId, QueryNodeId>,
) {
    let id = rq.add_node(
        parent,
        q.axis(u).unwrap_or(Axis::Child),
        q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard),
    );
    map.insert(u, id);
    for c in q.children(u).to_vec() {
        copy_subtree(q, c, rq, id, map);
    }
    if let Some(s) = q.successor(u) {
        rq.set_successor(id, map[&s]);
    }
    if let Some(p) = q.predicate(u) {
        let remapped = remap_expr(p, map);
        rq.set_predicate(id, remapped);
    }
}

fn remap_expr(e: &Expr, map: &HashMap<QueryNodeId, QueryNodeId>) -> Expr {
    match e {
        Expr::Const(v) => Expr::Const(v.clone()),
        Expr::Var(v) => Expr::Var(map[v]),
        Expr::Comp(op, a, b) => Expr::Comp(
            *op,
            Box::new(remap_expr(a, map)),
            Box::new(remap_expr(b, map)),
        ),
        Expr::Arith(op, a, b) => Expr::Arith(
            *op,
            Box::new(remap_expr(a, map)),
            Box::new(remap_expr(b, map)),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(remap_expr(a, map))),
        Expr::And(a, b) => Expr::And(Box::new(remap_expr(a, map)), Box::new(remap_expr(b, map))),
        Expr::Or(a, b) => Expr::Or(Box::new(remap_expr(a, map)), Box::new(remap_expr(b, map))),
        Expr::Not(a) => Expr::Not(Box::new(remap_expr(a, map))),
        Expr::Call(f, args) => Expr::Call(*f, args.iter().map(|a| remap_expr(a, map)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::MultiFilter;
    use fx_xpath::parse_query;

    fn bank(srcs: &[&str]) -> (IndexedBank, MultiFilter) {
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        (
            IndexedBank::new(&queries).unwrap(),
            MultiFilter::new(&queries).unwrap(),
        )
    }

    fn feed_both(ib: &mut IndexedBank, mf: &mut MultiFilter, xml: &str) {
        for e in &fx_xml::parse(xml).unwrap() {
            ib.process(e);
            mf.process(e);
        }
        assert_eq!(ib.results(), mf.results(), "{xml}");
    }

    #[test]
    fn shared_prefix_families_agree_with_naive_bank() {
        let (mut ib, mut mf) = bank(&[
            "/site/regions/asia/item",
            "/site/regions/asia/item[price > 100]",
            "/site/regions/europe/item",
            "/site/regions/europe/item[shipping]",
            "//category//name",
            "/doc[title]",
        ]);
        // Trie sharing: the two asia queries share site/regions/asia, the
        // europe ones site/regions/europe → well under 6 separate chains.
        assert!(ib.shared_nodes() <= 8, "{}", ib.shared_nodes());
        for xml in [
            "<site><regions><asia><item><price>150</price></item></asia></regions></site>",
            "<site><regions><europe><item><shipping/></item></europe></regions></site>",
            "<site><categories><category><name>x</name></category></categories></site>",
            "<doc><title>t</title></doc>",
            "<other/>",
        ] {
            feed_both(&mut ib, &mut mf, xml);
        }
    }

    #[test]
    fn equivalent_queries_share_one_group() {
        let queries: Vec<Query> = ["/a[b and c]/d", "/a[c and b]/d", "/a[b and c and b]/d"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 1, "commutative reorderings share a group");
        for e in &fx_xml::parse("<a><c/><b/><d/></a>").unwrap() {
            ib.process(e);
        }
        assert_eq!(ib.results(), vec![Some(true); 3]);
        assert_eq!(ib.matching_queries(), vec![0, 1, 2]);
    }

    #[test]
    fn non_activated_prefixes_cost_no_instances() {
        let (mut ib, _) = bank(&[
            "/site/regions/asia/item[price > 10]",
            "/site/regions/europe/item[price > 10]",
            "/site/regions/africa/item[price > 10]",
        ]);
        let xml = format!(
            "<site><regions><asia>{}</asia></regions></site>",
            "<item><price>50</price></item>".repeat(20)
        );
        for e in &fx_xml::parse(&xml).unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.results(),
            vec![Some(true), Some(false), Some(false)],
            "verdicts"
        );
        // Only the asia group ever spawned per-query state, and only one
        // of its items is open at a time.
        assert_eq!(ib.peak_live_instances(), 1);
    }

    #[test]
    fn reporting_matches_route_with_bank_indices_and_spans() {
        let srcs = ["/r/a/b", "/r/a/b[c]", "//b"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new_reporting(&queries).unwrap();
        let compiled = queries
            .iter()
            .map(|q| CompiledQuery::compile(q).unwrap())
            .collect::<Vec<_>>();
        let mut mf = MultiFilter::from_compiled_reporting(compiled).unwrap();
        let xml = "<r><a><b><c/></b><b/></a><b/></r>";
        let mut got: Vec<Match> = Vec::new();
        let mut want: Vec<Match> = Vec::new();
        for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
            ib.process_to(&event, span, &mut got);
            mf.process_to(&event, span, &mut want);
        }
        assert_eq!(ib.results(), mf.results());
        let norm = |v: &[Match]| {
            let mut v: Vec<(usize, u64, Span)> =
                v.iter().map(|m| (m.query, m.ordinal, m.span)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&got), norm(&want), "{xml}");
        for m in &got {
            assert!(m.span.slice(xml).unwrap().starts_with("<b"), "{m:?}");
        }
    }

    #[test]
    fn nested_descendant_activations_deduplicate() {
        let queries = vec![parse_query("//a//b").unwrap()];
        let mut ib = IndexedBank::new_reporting(&queries).unwrap();
        let xml = "<a><a><b/><b/></a></a>";
        let mut got: Vec<u64> = Vec::new();
        for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
            ib.process_to(&event, span, &mut |m: Match| got.push(m.ordinal));
        }
        got.sort_unstable();
        assert_eq!(got, vec![2, 3], "each b reported exactly once");
        assert_eq!(ib.results(), vec![Some(true)]);
    }

    #[test]
    fn session_reuse_resets_per_document_state() {
        let (mut ib, mut mf) = bank(&["/r[a]", "//b[c]", "/r/a/b"]);
        feed_both(&mut ib, &mut mf, "<r><a><b/></a></r>");
        feed_both(&mut ib, &mut mf, "<x><b><c/></b></x>");
        feed_both(&mut ib, &mut mf, "<r><z/></r>");
    }

    #[test]
    fn rejects_unsupported_with_index() {
        let queries: Vec<Query> = ["/a[b]", "/a[not(b)]"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let err = IndexedBank::new(&queries).unwrap_err();
        assert_eq!(err.0, 1);
        let queries: Vec<Query> = ["/a/b", "/a/@id"]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let err = IndexedBank::new_reporting(&queries).unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(err.1, UnsupportedQuery::AttributeOutput);
    }

    #[test]
    fn cross_group_equal_residuals_compile_once() {
        let srcs = [
            "/hub/asia/item[price > 5]/name",
            "/hub/europe/item[5 < price]/name",
            "/hub/africa/item[price > 5]/name",
            "/hub/asia/other",
        ];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 4, "distinct full queries stay distinct");
        assert_eq!(
            ib.residual_pool_size(),
            1,
            "the three flipped/region variants share one canonical residual form"
        );
        assert_eq!(ib.residual_builds(), 1, "exactly one build per form");
        // Heavy activation: every repeated <asia>/<europe> divergence
        // element spawns a fresh instance (none ever accepts, so the
        // decided-group short-circuit cannot kick in) — many instances,
        // zero further builds.
        let asia = "<asia><item><price>2</price><name/></item></asia>".repeat(15);
        let europe = "<europe><item><price>2</price><name/></item></europe>".repeat(10);
        let xml = format!("<hub>{asia}{europe}<asia><other/></asia></hub>");
        for e in &fx_xml::parse(&xml).unwrap() {
            ib.process(e);
        }
        assert!(ib.activations() >= 25, "{}", ib.activations());
        assert_eq!(ib.residual_builds(), 1, "activation never compiles");
        assert_eq!(
            ib.results(),
            vec![Some(false), Some(false), Some(false), Some(true)]
        );
        // The unpooled reference compiles one remainder per group but
        // observes the same verdicts.
        let mut reference = IndexedBank::new_unpooled(&queries).unwrap();
        assert_eq!(reference.residual_builds(), 3, "one fresh build per group");
        for e in &fx_xml::parse(&xml).unwrap() {
            reference.process(e);
        }
        assert_eq!(reference.results(), ib.results());
    }

    #[test]
    fn root_and_trie_groups_share_equal_residual_forms() {
        let srcs = ["//t[u]", "/hub//t[u]"];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        assert_eq!(ib.group_count(), 2);
        assert_eq!(
            ib.residual_pool_size(),
            1,
            "a document-rooted remainder and a trie remainder with the \
             same canonical form share one compiled build"
        );
        let mut mf = MultiFilter::new(&queries).unwrap();
        for xml in [
            "<hub><t><u/></t></hub>",
            "<x><t><u/></t></x>",
            "<hub><a><t><u/></t></a></hub>",
            "<hub><t/></hub>",
        ] {
            feed_both(&mut ib, &mut mf, xml);
        }
    }

    #[test]
    fn attributed_bits_sum_exactly_to_the_bank_total() {
        let (mut ib, _) = bank(&[
            "/site/a/item[p > 1]",
            "/site/a/item[1 < p]",
            "/site/b/item[p > 1]",
            "/site/a/leaf",
            "//x[y]",
        ]);
        for xml in [
            "<site><a><item><p>2</p></item><leaf/></a><b><item><p>0</p></item></b></site>",
            "<site><a><x><y/></x></a></site>",
            "<other/>",
        ] {
            for e in &fx_xml::parse(xml).unwrap() {
                ib.process(e);
            }
        }
        let per = ib.peak_memory_bits();
        assert_eq!(
            per.iter().sum::<u64>(),
            ib.total_max_bits(),
            "attribution must be exact: {per:?}"
        );
        let stats = ib.space_stats();
        assert_eq!(stats.total_bits, ib.total_max_bits());
        assert_eq!(
            stats.residual_bits + stats.shared_trie_bits,
            stats.total_bits
        );
        assert!(stats.shared_trie_bits > 0, "the trie held records");
        assert!(stats.activations > 0 && stats.events > 0);
        assert!(stats.activation_rate() > 0.0 && stats.activation_rate() < 1.0);
        // The two equivalent queries share a group, so their attribution
        // differs by at most the 1-bit remainder.
        assert!(per[0].abs_diff(per[1]) <= 1, "{per:?}");
    }

    #[test]
    fn overlapping_same_group_instances_are_charged_together() {
        // /hub//t/x[y] on d nested <t> elements: d residual instances of
        // the *same* group are live at once (one per open <t>). The
        // group peak must charge them together — the honest equivalent
        // of one naive filter's frontier holding all d candidacies —
        // not just the largest single instance.
        let residual_bits_at = |d: usize| {
            let queries = vec![parse_query("/hub//t/x[y]").unwrap()];
            let mut ib = IndexedBank::new(&queries).unwrap();
            // Every <t> carries a *direct* <x/> child, so each of the d
            // dormant activations genuinely wakes (dormancy would
            // otherwise — correctly — never materialize the outer
            // instances, whose x can only sit deeper than one level);
            // the x carries no y, so no instance ever accepts and none
            // is short-circuited away before the peak.
            let xml = format!("<hub>{}{}</hub>", "<t><x/>".repeat(d), "</t>".repeat(d));
            for e in &fx_xml::parse(&xml).unwrap() {
                ib.process(e);
            }
            assert_eq!(ib.results(), vec![Some(false)]);
            assert_eq!(ib.peak_live_instances(), d);
            ib.space_stats().residual_bits
        };
        let one = residual_bits_at(1);
        let eight = residual_bits_at(8);
        assert!(
            eight >= 4 * one,
            "8 simultaneous instances must cost several times one: {eight} vs {one}"
        );

        // Same for the selection buffering cost: the <x> candidacy is
        // unresolved while <m>'s predicate awaits its <z/>, and with a
        // descendant residual every nested instance buffers it, so the
        // group's pending peak must count them together.
        let pending_at = |d: usize| {
            let queries = vec![parse_query("/hub//t//m[z]/x").unwrap()];
            let mut ib = IndexedBank::new_reporting(&queries).unwrap();
            let xml = format!(
                "<hub>{}<m><x/><z/></m>{}</hub>",
                "<t>".repeat(d),
                "</t>".repeat(d)
            );
            for (event, span) in fx_xml::parse_spanned(&xml).unwrap() {
                ib.process_to(&event, span, &mut |_: Match| {});
            }
            ib.peak_pending_positions()[0]
        };
        let one = pending_at(1);
        assert!(one >= 1, "the open <x> candidacy buffers: {one}");
        let six = pending_at(6);
        assert!(
            six >= 4 * one,
            "6 simultaneous instances must buffer several candidacies: {six} vs {one}"
        );
    }

    #[test]
    fn attribute_rooted_residuals_stay_dormant() {
        // /@id's residual root child is attribute-axis: unsatisfiable
        // inside any activation subtree (the virtual root has no start
        // tag), so the activation must sleep forever instead of
        // spawning the old eager instance — same verdicts, zero
        // instances.
        let (mut ib, mut mf) = bank(&["/@id", "/hub/item/@id"]);
        feed_both(&mut ib, &mut mf, r#"<hub id="3"><item id="7"/></hub>"#);
        feed_both(&mut ib, &mut mf, "<hub><item/></hub>");
        assert_eq!(
            ib.peak_live_instances(),
            1,
            "only the woken /hub residual materializes; /@id never does"
        );
    }

    #[test]
    fn subscribe_extends_a_live_bank_without_recompiling_known_forms() {
        let mut ib =
            IndexedBank::new(&[parse_query("/site/asia/item[price > 5]").unwrap()]).unwrap();
        let builds = ib.residual_builds();
        // A new prefix with an already-known canonical remainder: trie
        // grows, pool does not.
        let b = ib
            .subscribe(&parse_query("/site/europe/item[5 < price]").unwrap())
            .unwrap();
        assert_eq!(ib.residual_builds(), builds, "known form: no compile");
        assert_eq!(ib.live_subscriptions(), 2);
        // A genuinely new form compiles exactly once.
        let c = ib
            .subscribe(&parse_query("/site/asia/leaf").unwrap())
            .unwrap();
        for e in
            &fx_xml::parse("<site><europe><item><price>9</price></item></europe></site>").unwrap()
        {
            ib.process(e);
        }
        assert_eq!(ib.results()[ib.slot_of(b).unwrap()], Some(true));
        assert_eq!(ib.results()[ib.slot_of(c).unwrap()], Some(false));
        // Fresh-bank parity for the same surviving set.
        let queries: Vec<Query> = [
            "/site/asia/item[price > 5]",
            "/site/europe/item[5 < price]",
            "/site/asia/leaf",
        ]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
        let mut fresh = IndexedBank::new(&queries).unwrap();
        for e in
            &fx_xml::parse("<site><europe><item><price>9</price></item></europe></site>").unwrap()
        {
            fresh.process(e);
        }
        assert_eq!(fresh.results(), ib.results());
    }

    #[test]
    fn unsubscribe_tombstones_and_compaction_folds_them_away() {
        let srcs = [
            "/hub/asia/item[price > 5]/name",
            "/hub/europe/item[5 < price]/name",
            "/hub/asia/other",
            "//t[u]",
        ];
        let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
        let mut ib = IndexedBank::new(&queries).unwrap();
        let builds = ib.residual_builds();
        let ids: Vec<SubscriptionId> = (0..4).map(|s| ib.subscription_of(s).unwrap()).collect();
        assert!(ib.unsubscribe(ids[1]));
        assert!(!ib.unsubscribe(ids[1]), "double unsubscribe is a no-op");
        assert_eq!(ib.live_subscriptions(), 3);
        assert_eq!(ib.tombstoned_slots(), 1);
        // The tombstoned query no longer matches or routes.
        let xml = "<hub><europe><item><price>9</price><name/></item></europe>\
                   <asia><other/></asia></hub>";
        for e in &fx_xml::parse(xml).unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.matching().collect::<Vec<_>>(),
            vec![2],
            "dead slot 1 must not report"
        );
        // Compaction renumbers slots, keeps ids, recompiles nothing.
        assert!(ib.compact());
        assert_eq!(ib.len(), 3);
        assert_eq!(ib.tombstoned_slots(), 0);
        assert_eq!(ib.residual_builds(), builds, "compaction never compiles");
        assert_eq!(ib.slot_of(ids[0]), Some(0));
        assert_eq!(ib.slot_of(ids[1]), None);
        assert_eq!(ib.slot_of(ids[2]), Some(1));
        assert_eq!(ib.subscription_of(1), Some(ids[2]));
        // Verdicts of the last document survive the fold.
        assert_eq!(ib.results(), vec![Some(false), Some(true), Some(false)]);
        // The unreferenced europe remainder left the pool.
        assert!(ib.residual_pool_size() <= 2, "{}", ib.residual_pool_size());
        // And the compacted bank still evaluates like a fresh one.
        let surviving: Vec<Query> = [srcs[0], srcs[2], srcs[3]]
            .iter()
            .map(|s| parse_query(s).unwrap())
            .collect();
        let mut fresh = IndexedBank::new(&surviving).unwrap();
        for xml in [
            xml,
            "<t><u/></t>",
            "<hub><asia><item><price>9</price><name/></item></asia></hub>",
        ] {
            for e in &fx_xml::parse(xml).unwrap() {
                ib.process(e);
                fresh.process(e);
            }
            assert_eq!(ib.results(), fresh.results(), "{xml}");
        }
    }

    #[test]
    fn resubscribing_a_tombstoned_form_revives_its_group() {
        let mut ib = IndexedBank::new(&[parse_query("/a/item[p]").unwrap()]).unwrap();
        let builds = ib.residual_builds();
        let first = ib.subscription_of(0).unwrap();
        assert!(ib.unsubscribe(first));
        // Same canonical form again: the tombstoned group revives —
        // no new group, no new compile.
        let again = ib.subscribe(&parse_query("/a/item[p]").unwrap()).unwrap();
        assert_ne!(again, first, "ids are never reused");
        assert_eq!(ib.group_count(), 1);
        assert_eq!(ib.residual_builds(), builds);
        for e in &fx_xml::parse("<a><item><p/></item></a>").unwrap() {
            ib.process(e);
        }
        assert_eq!(
            ib.matching().collect::<Vec<_>>(),
            vec![ib.slot_of(again).unwrap()]
        );
    }

    #[test]
    fn automatic_compaction_honours_the_policy() {
        let mut ib = IndexedBank::new(&[]).unwrap();
        ib.set_compaction_policy(CompactionPolicy {
            min_tombstones: 4,
            max_tombstone_ratio: 0.5,
        });
        let keep = ib.subscribe(&parse_query("/keep/me").unwrap()).unwrap();
        let mut churned = Vec::new();
        for i in 0..6 {
            let q = parse_query(&format!("/fam{i}/item[p > {i}]")).unwrap();
            churned.push(ib.subscribe(&q).unwrap());
        }
        let builds = ib.residual_builds();
        for id in churned {
            ib.unsubscribe(id);
        }
        // The 4th tombstone crosses the threshold (4 ≥ 4 and 4 > 0.5·7)
        // and auto-compacts; the last two stay below it.
        assert_eq!(ib.compactions(), 1, "threshold crossed ⇒ auto-compact");
        assert_eq!(ib.tombstoned_slots(), 2);
        // An explicit compact ignores the policy and folds the rest.
        assert!(ib.compact());
        assert_eq!(ib.tombstoned_slots(), 0);
        assert_eq!(ib.len(), 1);
        assert_eq!(ib.slot_of(keep), Some(0));
        assert_eq!(ib.residual_builds(), builds, "churn never recompiles");
        assert_eq!(
            ib.residual_pool_size(),
            0,
            "every churned remainder released its pool entry"
        );
    }

    #[test]
    fn mid_document_churn_is_safe_and_lands_next_document() {
        let (mut ib, mut mf) = bank(&["/r[a]", "//b[c]"]);
        let events = fx_xml::parse("<r><a/><b><c/></b></r>").unwrap();
        for (n, e) in events.iter().enumerate() {
            ib.process(e);
            mf.process(e);
            if n == 2 {
                // Mid-document: subscribe a new query and withdraw an
                // existing one. Neither may disturb the in-flight
                // evaluation of the untouched query.
                ib.subscribe(&parse_query("/r/a").unwrap()).unwrap();
                let id = ib.subscription_of(1).unwrap();
                ib.unsubscribe(id);
            }
        }
        assert_eq!(ib.results()[0], Some(true));
        // Next document, everything is in effect.
        let survivors = ["/r[a]", "/r/a"];
        let (mut fresh, _) = bank(&survivors);
        for e in &fx_xml::parse("<r><a/></r>").unwrap() {
            ib.process(e);
            fresh.process(e);
        }
        let by_id: Vec<Option<bool>> = (0..ib.len())
            .filter(|&s| ib.subscription_of(s).is_some())
            .map(|s| ib.results()[s])
            .collect();
        assert_eq!(by_id, fresh.results());
    }

    #[test]
    fn attribute_chains_stay_with_the_residual() {
        // /hub/item/@id: the @id resolves from <item>'s start tag, so the
        // sharable prefix must stop at /hub.
        let (mut ib, mut mf) = bank(&["/hub/item/@id", "/hub/item[@id = 7]"]);
        feed_both(&mut ib, &mut mf, r#"<hub><item id="7"/></hub>"#);
        feed_both(&mut ib, &mut mf, r#"<hub><item id="8"/></hub>"#);
        feed_both(&mut ib, &mut mf, "<hub><item/></hub>");
    }
}
