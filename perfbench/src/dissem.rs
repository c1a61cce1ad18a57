//! The dissemination run: a `ShardedServer` with one worker, driven by
//! an open-loop publisher (fixed rate, latency measured from each
//! document's due time) and then a closed-loop saturation phase.
//!
//! Threads: the calling thread publishes, churns and drains every
//! mailbox between publishes; the server adds its worker and merger.
//! With one server worker no parallel speed-up is claimed.

use crate::check;
use crate::inputs::Inputs;
use crate::pipeline::parse_queries;
use crate::stats::{self, quantile, Report};
use crate::trace::{Tracer, ROOT};
use fx_server::{ServerConfig, ServerStats, ShardedHandle, ShardedServer, Subscription};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop publish rate of the dissemination workload: about a
/// quarter of the single-worker saturation rate measured at the commit
/// this benchmark was introduced on (~16k docs/s).
const OPEN_RATE_PER_S: f64 = 4000.0;
/// A churn pair (one subscribe, one unsubscribe) every this many
/// open-loop documents.
const CHURN_EVERY: u64 = 16;
/// Server set-ups timed per run for `setup_s` (each starts a server and
/// subscribes every standing query): half before the serve phases, the
/// last of them serving, and half after, so the fastest can come from
/// either end of the run.
const SERVER_SETUPS: usize = 16;
/// The closed loop is cut into this many equal windows. Window rates
/// swing within a run (from about 15k to 27k docs/s on the two-vCPU host
/// of the first baseline, switching every second or so, as the server's
/// threads and the publisher share two cores): the slow end repeats from
/// run to run, the share of fast windows does not. The reported rate is
/// the `SAT_QUANTILE` of the window rates.
const SAT_WINDOWS: u32 = 32;
const SAT_QUANTILE: f64 = 0.1;
/// Documents the publisher lets await their deliveries at most: half the
/// server's default document queue.
const IN_FLIGHT: u64 = 32;
const WINDOW_WAIT: Duration = Duration::from_millis(100);
/// Drain pause after a round that found every mailbox empty.
const IDLE_BACKOFF: Duration = Duration::from_micros(20);
/// Longest wait for outstanding deliveries before they count as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// What one serve phase observed.
pub struct ServeOutcome {
    /// Open-loop deliveries: due time → receipt, µs.
    pub lat_us: Vec<f64>,
    pub late_us_max: f64,
    pub n_open: u64,
    pub n_sat: u64,
    pub sat_s: f64,
    pub sat_bytes: u64,
    /// Closed-loop documents per second in each of `SAT_WINDOWS` equal
    /// windows.
    pub sat_window_docs_s: Vec<f64>,
    /// Deliveries received per standing subscription.
    pub received: Vec<u64>,
    /// Times each pool document was published.
    pub sent: Vec<u64>,
    /// Deliveries to churn subscriptions (expected: none).
    pub churn_deliveries: u64,
    pub churn_pairs: u64,
    pub backlog_max: u64,
    pub stats: ServerStats,
    /// Handle calls that returned an error.
    pub errors: u64,
    /// Deliveries still missing when the drain timed out.
    pub timed_out: bool,
}

/// Starts a one-worker server, subscribes every query, and waits until
/// the worker has applied them all (a stats barrier).
pub fn start(
    queries: &[String],
    mut tracer: Option<&mut Tracer>,
) -> (ShardedServer, ShardedHandle, Vec<Subscription>) {
    let server = ShardedServer::start(ServerConfig::default(), 1);
    let handle = server.handle();
    let subs = parse_queries(queries)
        .into_iter()
        .map(|q| {
            Tracer::span_opt(
                &mut tracer,
                "server",
                "ShardedHandle::subscribe",
                ROOT,
                || handle.subscribe(q),
            )
            .expect("generated queries subscribe")
        })
        .collect();
    handle.stats().expect("a fresh server answers stats");
    (server, handle, subs)
}

/// Drains every mailbox from the publishing thread itself, between
/// publishes: no extra thread competes with the server for the cores.
struct Drainer<'a> {
    subs: &'a [Subscription],
    counts: Vec<u64>,
    received: u64,
    /// Highest `doc_seq + 1` any delivery carried (0: none yet).
    seen: u64,
    lat_us: Vec<f64>,
    t_open: Instant,
    period_ns: u64,
    n_open: u64,
}

impl Drainer<'_> {
    /// One pass over every mailbox; returns the deliveries taken.
    fn round(&mut self) -> u64 {
        let mut got = 0;
        for (i, s) in self.subs.iter().enumerate() {
            while let Some(d) = s.try_recv() {
                let now = Instant::now();
                self.counts[i] += 1;
                got += 1;
                if d.doc_seq < self.n_open {
                    let due = self.t_open + Duration::from_nanos(self.period_ns * d.doc_seq);
                    self.lat_us
                        .push(stats::us(now.saturating_duration_since(due)));
                }
                self.seen = self.seen.max(d.doc_seq + 1);
            }
        }
        self.received += got;
        got
    }

    /// Drains until `due`, yielding the core after every empty round.
    /// Sleeping instead would add timer slack to every measured receipt
    /// (it doubled the median on a two-core machine); the open loop
    /// leaves the server's threads most of the other core.
    fn until(&mut self, due: Instant) {
        while Instant::now() < due {
            if self.round() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Drains until fewer than `IN_FLIGHT` documents before `seq` await
    /// their deliveries, so `publish` never blocks while mailboxes fill
    /// (a blocked publisher drains nothing and the server would drop
    /// deliveries). Gives up after `WINDOW_WAIT`, since a document that
    /// selects nothing never advances `seen`.
    fn window(&mut self, seq: u64) {
        let t0 = Instant::now();
        while seq >= self.seen + IN_FLIGHT && t0.elapsed() < WINDOW_WAIT {
            if self.round() == 0 {
                std::thread::sleep(IDLE_BACKOFF);
            }
        }
    }

    /// Drains every delivery the server has made so far (a stats
    /// barrier gives the count). `false` on timeout.
    fn barrier(&mut self, handle: &ShardedHandle) -> (ServerStats, bool) {
        let stats = handle.stats().unwrap_or_default();
        let t0 = Instant::now();
        while self.received < stats.deliveries {
            if t0.elapsed() > DRAIN_TIMEOUT {
                return (stats, false);
            }
            if self.round() == 0 {
                std::thread::sleep(IDLE_BACKOFF);
            }
        }
        (stats, true)
    }
}

/// Publishes `pool` round-robin: an open-loop phase of `open_s` seconds
/// at `OPEN_RATE_PER_S` with a churn pair every `CHURN_EVERY` documents,
/// then a closed-loop phase of `sat_s` seconds, draining `subs` between
/// publishes.
pub fn serve(
    handle: &ShardedHandle,
    subs: &[Subscription],
    pool: &[Arc<[u8]>],
    churn: &[String],
    (open_s, sat_s): (f64, f64),
    mut tracer: Option<&mut Tracer>,
) -> ServeOutcome {
    let period_ns = (1e9 / OPEN_RATE_PER_S) as u64;
    let n_open = (open_s * OPEN_RATE_PER_S) as u64;
    let churn_queries = parse_queries(churn);
    let mut out = ServeOutcome {
        lat_us: Vec::new(),
        late_us_max: 0.0,
        n_open,
        n_sat: 0,
        sat_s: 0.0,
        sat_bytes: 0,
        sat_window_docs_s: Vec::new(),
        received: Vec::new(),
        sent: vec![0; pool.len()],
        churn_deliveries: 0,
        churn_pairs: 0,
        backlog_max: 0,
        stats: ServerStats::default(),
        errors: 0,
        timed_out: false,
    };
    let t_open = Instant::now() + Duration::from_millis(2);
    let mut drainer = Drainer {
        subs,
        counts: vec![0; subs.len()],
        received: 0,
        seen: 0,
        lat_us: Vec::with_capacity(1 << 16),
        t_open,
        period_ns,
        n_open,
    };

    // Open loop: document i is due at t_open + i·period whatever
    // happened to earlier ones.
    let phase = open_phase(&mut tracer, "open_loop");
    let mut live_churn: Option<Subscription> = None;
    for i in 0..n_open {
        let due = t_open + Duration::from_nanos(period_ns * i);
        drainer.until(due);
        drainer.window(i);
        let late = stats::us(Instant::now().saturating_duration_since(due));
        out.late_us_max = out.late_us_max.max(late);
        out.backlog_max = out.backlog_max.max(i.saturating_sub(drainer.seen));
        publish(handle, pool, i, phase, &mut tracer, &mut out);
        if i % CHURN_EVERY == 0 && !churn_queries.is_empty() {
            let q = churn_queries[(out.churn_pairs as usize) % churn_queries.len()].clone();
            out.churn_pairs += 1;
            let sub = Tracer::span_opt(
                &mut tracer,
                "server",
                "ShardedHandle::subscribe",
                phase,
                || handle.subscribe(q),
            );
            match sub {
                Ok(sub) => {
                    if let Some(old) = live_churn.replace(sub) {
                        out.errors +=
                            withdraw(handle, &old, &mut tracer, phase, &mut out.churn_deliveries);
                    }
                }
                Err(_) => out.errors += 1,
            }
        }
    }
    if let Some(old) = live_churn.take() {
        out.errors += withdraw(handle, &old, &mut tracer, phase, &mut out.churn_deliveries);
    }
    close_phase(&mut tracer, phase);
    let (_, ok) = drainer.barrier(handle);
    out.timed_out |= !ok;

    // Closed loop: publish as fast as backpressure allows, draining
    // between publishes.
    let phase = open_phase(&mut tracer, "closed_loop");
    let t_sat = Instant::now();
    let window = Duration::from_secs_f64(sat_s) / SAT_WINDOWS;
    let mut w_docs = vec![0u64; SAT_WINDOWS as usize];
    let mut seq = n_open;
    loop {
        let k = (t_sat.elapsed().as_nanos() / window.as_nanos()) as usize;
        let Some(count) = w_docs.get_mut(k) else {
            break;
        };
        *count += 1;
        drainer.window(seq);
        out.sat_bytes += publish(handle, pool, seq, phase, &mut tracer, &mut out);
        drainer.round();
        seq += 1;
    }
    let (stats, ok) = drainer.barrier(handle);
    out.sat_s = t_sat.elapsed().as_secs_f64();
    close_phase(&mut tracer, phase);
    out.timed_out |= !ok;
    out.n_sat = seq - n_open;
    out.sat_window_docs_s = w_docs
        .iter()
        .map(|&n| n as f64 / window.as_secs_f64())
        .collect();
    out.stats = stats;
    out.received = drainer.counts;
    out.lat_us = drainer.lat_us;
    out
}

/// Publishes pool document `seq mod len` (a span under `phase` when
/// traced) and returns its size.
fn publish(
    handle: &ShardedHandle,
    pool: &[Arc<[u8]>],
    seq: u64,
    phase: u32,
    tracer: &mut Option<&mut Tracer>,
    out: &mut ServeOutcome,
) -> u64 {
    let k = (seq % pool.len() as u64) as usize;
    let doc = Arc::clone(&pool[k]);
    let r = Tracer::span_opt(tracer, "server", "ShardedHandle::publish", phase, || {
        handle.publish(doc)
    });
    out.sent[k] += 1;
    out.errors += u64::from(r.is_err());
    pool[k].len() as u64
}

fn open_phase(tracer: &mut Option<&mut Tracer>, name: &'static str) -> u32 {
    match tracer.as_deref_mut() {
        Some(tr) => tr.open("bench", name, ROOT),
        None => ROOT,
    }
}

fn close_phase(tracer: &mut Option<&mut Tracer>, id: u32) {
    if let Some(tr) = tracer.as_deref_mut() {
        tr.close(id);
    }
}

/// Unsubscribes a churn subscription, counting what it received (it
/// never matches). Returns the number of failed calls.
fn withdraw(
    handle: &ShardedHandle,
    sub: &Subscription,
    tracer: &mut Option<&mut Tracer>,
    parent: u32,
    delivered: &mut u64,
) -> u64 {
    let r = Tracer::span_opt(
        tracer,
        "server",
        "ShardedHandle::unsubscribe",
        parent,
        || handle.unsubscribe(sub.id()),
    );
    *delivered += sub.delivered();
    u64::from(!matches!(r, Ok(true)))
}

/// Unsubscribes every standing subscription and shuts the server down.
/// Returns the number of failed unsubscribes.
pub fn teardown(
    server: ShardedServer,
    handle: &ShardedHandle,
    subs: Vec<Subscription>,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let mut errors = 0;
    for sub in &subs {
        let r = Tracer::span_opt(
            &mut tracer,
            "server",
            "ShardedHandle::unsubscribe",
            ROOT,
            || handle.unsubscribe(sub.id()),
        );
        errors += u64::from(!matches!(r, Ok(true)));
    }
    drop(subs);
    server.shutdown();
    errors
}

/// Checks a serve outcome against Select-mode engine match counts and
/// tallies attempted/failed operations into `rep`.
pub fn check_outcome(queries: &[String], pool: &[Arc<[u8]>], out: &ServeOutcome, rep: &mut Report) {
    let per_doc = check::delivery_counts(queries, pool);
    let mut missing = 0u64;
    for (q, &got) in out.received.iter().enumerate() {
        let want: u64 = per_doc
            .iter()
            .zip(&out.sent)
            .map(|(counts, &n)| counts[q] * n)
            .sum();
        if got != want {
            missing += want.saturating_sub(got);
            rep.mismatch(format!(
                "subscription {q} ({}) received {got} deliveries, expected {want}",
                queries[q]
            ));
        }
    }
    if out.churn_deliveries != 0 {
        rep.mismatch(format!(
            "churn subscriptions received {} deliveries, expected none",
            out.churn_deliveries
        ));
    }
    if out.timed_out {
        rep.mismatch("deliveries still outstanding after the drain timeout".into());
    }
    let published = out.n_open + out.n_sat;
    let dropped = out.stats.dropped_deliveries;
    if dropped > 0 || out.stats.parse_errors > 0 {
        rep.mismatch(format!(
            "server dropped {dropped} deliveries and rejected {} documents",
            out.stats.parse_errors
        ));
    }
    rep.attempted += published + queries.len() as u64 + 2 * out.churn_pairs;
    rep.failed += out.errors + dropped + out.stats.parse_errors + missing;
}

/// The untraced end-to-end run of the `dissemination` workload.
pub fn run(inputs: &Inputs, seconds: f64) -> Report {
    let d = inputs.dissem.as_ref().expect("dissemination inputs");
    let mut rep = Report::new();
    let rss0 = stats::status_kb("VmRSS").unwrap_or(0);
    stats::reset_peak_rss();

    let mut setup_s = Vec::with_capacity(SERVER_SETUPS);
    let mut set_up = || {
        let t0 = Instant::now();
        let running = black_box(start(&d.queries, None));
        setup_s.push(t0.elapsed().as_secs_f64());
        running
    };
    for _ in 1..SERVER_SETUPS / 2 {
        let (server, handle, subs) = set_up();
        teardown(server, &handle, subs, None);
    }
    let (server, handle, subs) = set_up();
    let out = serve(
        &handle,
        &subs,
        &d.pool,
        &d.churn,
        (seconds * 0.6, seconds * 0.4),
        None,
    );
    let hwm = stats::status_kb("VmHWM").unwrap_or(0);
    let errors = teardown(server, &handle, subs, None);
    rep.failed += errors;
    for _ in 0..SERVER_SETUPS / 2 {
        let (server, handle, subs) = set_up();
        teardown(server, &handle, subs, None);
    }

    check_outcome(&d.queries, &d.pool, &out, &mut rep);
    let bits = bank_bits(inputs);

    let n_lat = out.lat_us.len() as u64;
    // Bytes scale by the phase's mean document size.
    let docs_s = quantile(&out.sat_window_docs_s, SAT_QUANTILE);
    let mean_doc = out.sat_bytes as f64 / out.n_sat.max(1) as f64;
    let windows = out.sat_window_docs_s.len() as u64;
    rep.metric("throughput_mb_s", docs_s * mean_doc / 1e6, "MB/s", windows);
    rep.metric("saturated_docs_per_s", docs_s, "docs/s", windows);
    rep.metric("deliver_p50_us", quantile(&out.lat_us, 0.5), "us", n_lat);
    rep.metric("setup_s", stats::min(&setup_s), "s", setup_s.len() as u64);

    rep.metric("state_bits_peak", bits as f64, "bits", d.pool.len() as u64);
    rep.metric("rss_peak_mb", hwm as f64 / 1024.0, "MB", 1);
    rep.notes.push(format!(
        "open loop {:.0} docs/s for {} docs (generator late by at most {:.3} ms, backlog max {} docs), \
         then closed loop {} docs in {:.3} s ({:.0} docs/s overall, drained); {} churn pairs; \
         1 server worker, publisher drains",
        OPEN_RATE_PER_S,
        out.n_open,
        out.late_us_max / 1e3,
        out.backlog_max,
        out.n_sat,
        out.sat_s,
        out.n_sat as f64 / out.sat_s,
        out.churn_pairs
    ));
    rep.notes.push(format!(
        "deliveries {} (dropped {}), p99 due-to-receipt {:.1} us (a traced-run row); \
         state_bits_peak from the shared-prefix engine over the pool",
        out.stats.deliveries,
        out.stats.dropped_deliveries,
        quantile(&out.lat_us, 0.99)
    ));
    rep.notes.push(format!(
        "rss: {:.1} MB after input generation, peak {:.1} MB (rise {:.1} MB)",
        rss0 as f64 / 1024.0,
        hwm as f64 / 1024.0,
        hwm.saturating_sub(rss0) as f64 / 1024.0
    ));
    rep
}

/// The paper's space measure for the dissemination queries: peak bank
/// bits of the shared-prefix filtering engine, maximised over the pool.
fn bank_bits(inputs: &Inputs) -> u64 {
    let engines = crate::pipeline::build_engines(&inputs.qsets, None);
    let mut runner = crate::pipeline::Runner::new(&engines, &inputs.qsets);
    inputs
        .jobs
        .iter()
        .filter_map(|j| runner.run(j).ok())
        .map(|v| v.total_peak_bits())
        .max()
        .unwrap_or(0)
}
