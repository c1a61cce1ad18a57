//! Seeded input generation for the four workloads.
//!
//! Every input is a pure function of `(workload, seed)`. Generation runs
//! before anything is timed; the program under test only ever sees the
//! generated bytes.

use fx_workloads as wl;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["feeds", "bank-1024", "dissemination", "hostile"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    Xml,
    Html,
    Json,
}

impl Frontend {
    /// The crate suffix the frontend lives in (the trace layer name).
    pub fn layer(self) -> &'static str {
        match self {
            Frontend::Xml => "xml",
            Frontend::Html => "html",
            Frontend::Json => "json",
        }
    }
}

/// One compiled bank: the queries a set of documents runs against.
#[derive(Debug, Clone)]
pub struct QuerySet {
    pub frontend: Frontend,
    pub queries: Vec<String>,
    /// Build the engine on the shared-prefix bank instead of the
    /// default one.
    pub shared_prefix: bool,
}

/// How a job's verdicts are checked.
#[derive(Debug, Clone)]
pub enum Witness {
    /// Well-formed XML spelling of the document's tree: verdicts must
    /// equal `fx_eval::bool_eval` on its `fx-dom` tree.
    Dom(String),
    /// Verdicts known by construction.
    Known(Vec<bool>),
    /// Verdicts must equal independent per-query `StreamFilter` runs.
    Filters,
}

/// One document run against one query set.
#[derive(Debug, Clone)]
pub struct Job {
    pub qset: usize,
    pub doc: Arc<[u8]>,
    pub witness: Witness,
}

/// The dissemination workload's server-side inputs.
#[derive(Debug, Clone)]
pub struct Dissem {
    /// The standing subscriptions (all registered before publishing).
    pub queries: Vec<String>,
    /// Churn queries: subscribed and withdrawn while documents flow.
    /// Each shares a family prefix but never matches, so its expected
    /// delivery count is zero.
    pub churn: Vec<String>,
    /// Documents published round-robin.
    pub pool: Vec<Arc<[u8]>>,
}

#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: &'static str,
    pub qsets: Vec<QuerySet>,
    pub jobs: Vec<Job>,
    pub dissem: Option<Dissem>,
}

impl Inputs {
    pub fn bytes(&self) -> usize {
        self.jobs.iter().map(|j| j.doc.len()).sum()
    }

    pub fn describe(&self) -> String {
        let mut by_frontend = Vec::new();
        for fe in [Frontend::Xml, Frontend::Html, Frontend::Json] {
            let docs: Vec<usize> = self
                .jobs
                .iter()
                .filter(|j| self.qsets[j.qset].frontend == fe)
                .map(|j| j.doc.len())
                .collect();
            if !docs.is_empty() {
                by_frontend.push(format!(
                    "{} {} docs {}..{} B",
                    fe.layer(),
                    docs.len(),
                    docs.iter().min().unwrap_or(&0),
                    docs.iter().max().unwrap_or(&0)
                ));
            }
        }
        let queries: usize = self.qsets.iter().map(|q| q.queries.len()).sum();
        let mut s = format!(
            "inputs: {}; {} queries in {} sets; {} B total",
            by_frontend.join(", "),
            queries,
            self.qsets.len(),
            self.bytes()
        );
        if let Some(d) = &self.dissem {
            let pool: usize = d.pool.iter().map(|p| p.len()).sum();
            s.push_str(&format!(
                "; server: {} subscriptions, {} churn queries, pool {} docs avg {} B",
                d.queries.len(),
                d.churn.len(),
                d.pool.len(),
                pool / d.pool.len().max(1)
            ));
        }
        s
    }
}

/// Generates a workload's inputs; `None` for an unknown name.
pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match workload {
        "feeds" => Some(feeds(&mut rng)),
        "bank-1024" => Some(bank_1024(&mut rng)),
        "dissemination" => Some(dissemination(&mut rng)),
        "hostile" => Some(hostile(&mut rng)),
        _ => None,
    }
}

/// XMark-lite documents in the feeds workload.
const FEEDS_XML_DOCS: usize = 64;
/// HTML-soup pages in the feeds workload.
const FEEDS_HTML_DOCS: usize = 32;
/// JSON records in the feeds workload.
const FEEDS_JSON_DOCS: usize = 128;

fn feeds(rng: &mut SmallRng) -> Inputs {
    let xml_queries = wl::standing_queries()
        .into_iter()
        .map(|(_, q)| fx_xpath::to_xpath(&q))
        .collect();
    let qsets = vec![
        QuerySet {
            frontend: Frontend::Xml,
            queries: xml_queries,
            shared_prefix: false,
        },
        QuerySet {
            frontend: Frontend::Html,
            queries: wl::soup_queries(),
            shared_prefix: false,
        },
        QuerySet {
            frontend: Frontend::Json,
            queries: wl::json_queries(),
            shared_prefix: false,
        },
    ];
    let cfg = wl::XmarkConfig {
        items: 80,
        auctions: 40,
        people: 40,
        category_depth: 4,
    };
    let mut jobs = Vec::new();
    for _ in 0..FEEDS_XML_DOCS {
        let xml = wl::auction_site(rng, &cfg).to_xml();
        jobs.push(Job {
            qset: 0,
            doc: xml.as_bytes().into(),
            witness: Witness::Dom(xml),
        });
    }
    for page in wl::html_soup_corpus(rng, &wl::HtmlSoupConfig::default(), FEEDS_HTML_DOCS) {
        jobs.push(Job {
            qset: 1,
            doc: page.html.as_bytes().into(),
            witness: Witness::Dom(page.xml),
        });
    }
    for rec in wl::json_records(rng, &wl::JsonRecordsConfig::default(), FEEDS_JSON_DOCS) {
        jobs.push(Job {
            qset: 2,
            doc: rec.json.as_bytes().into(),
            witness: Witness::Dom(rec.xml),
        });
    }
    Inputs {
        workload: "feeds",
        qsets,
        jobs,
        dissem: None,
    }
}

/// Families × members of the 1024-query shared-prefix banks.
const FAMILIES: usize = 64;
const MEMBERS: usize = 16;
const PREFIX_DEPTH: usize = 3;
/// Target size of a bank-1024 document (there is one per family pair,
/// `FAMILIES` in all).
const BANK_DOC_BYTES: usize = 10 * 1024;

/// Seed of the 1024-query bank. The bank is the service's standing
/// configuration, fixed across runs so the paper-space metric compares
/// like with like; documents vary with `--seed`.
const BANK_SEED: u64 = 0xfb_1024;

fn prefix_bank() -> wl::SharedPrefixBank {
    wl::random_shared_prefix_bank(
        &mut SmallRng::seed_from_u64(BANK_SEED),
        &wl::SharedPrefixBankConfig {
            families: FAMILIES,
            queries_per_family: MEMBERS,
            prefix_depth: PREFIX_DEPTH,
            cross_family_tails: false,
        },
    )
}

fn query_strings(bank: &wl::SharedPrefixBank) -> Vec<String> {
    bank.queries.iter().map(fx_xpath::to_xpath).collect()
}

/// `FAMILIES` distinct pairs of families in which every family appears
/// exactly twice: the seed picks the pairing and the order, while every
/// seed wakes the same families equally often.
fn family_pairs(rng: &mut SmallRng) -> Vec<(usize, usize)> {
    let mut slots: Vec<usize> = (0..FAMILIES).chain(0..FAMILIES).collect();
    loop {
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.gen_range(0..=i));
        }
        let pairs: Vec<(usize, usize)> = slots.chunks(2).map(|c| (c[0], c[1])).collect();
        let distinct: BTreeSet<(usize, usize)> =
            pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        if distinct.len() == pairs.len() && pairs.iter().all(|&(a, b)| a != b) {
            return pairs;
        }
    }
}

fn bank_1024(rng: &mut SmallRng) -> Inputs {
    let bank = prefix_bank();
    let jobs = family_pairs(rng)
        .into_iter()
        .map(|(a, b)| {
            // Half of each active family is witnessed; a little inert
            // padding per family.
            let one = bank.document(&[a, b], MEMBERS / 2, 4).len();
            let copies = (BANK_DOC_BYTES / one).max(1);
            let xml = bank.document_repeated(&[a, b], MEMBERS / 2, 4, copies);
            Job {
                qset: 0,
                doc: xml.as_bytes().into(),
                witness: Witness::Filters,
            }
        })
        .collect();
    Inputs {
        workload: "bank-1024",
        qsets: vec![QuerySet {
            frontend: Frontend::Xml,
            queries: query_strings(&bank),
            shared_prefix: true,
        }],
        jobs,
        dissem: None,
    }
}

/// Distinct documents the dissemination publisher cycles through.
const POOL_DOCS: usize = 512;
/// Witnessed members per dissemination document (sets its size, about
/// 340 B, and its deliveries, about one per witnessed member).
const POOL_WITNESSES: usize = 10;
/// Distinct churn queries (reused, so churn never grows the pools).
const CHURN_QUERIES: usize = 8;

fn dissemination(rng: &mut SmallRng) -> Inputs {
    let bank = prefix_bank();
    let pool: Vec<Arc<[u8]>> = (0..POOL_DOCS)
        .map(|_| {
            let f = rng.gen_range(0..FAMILIES);
            bank.document(&[f], POOL_WITNESSES, 0).as_bytes().into()
        })
        .collect();
    let churn = (0..CHURN_QUERIES)
        .map(|k| {
            let f = rng.gen_range(0..FAMILIES);
            format!("{}/tchurn{k}[u > 1]", bank.prefixes[f])
        })
        .collect();
    let queries = query_strings(&bank);
    // The layer sweep and the session check run the pool through the
    // same 1024 queries on the shared-prefix engine.
    let jobs = pool
        .iter()
        .map(|doc| Job {
            qset: 0,
            doc: Arc::clone(doc),
            witness: Witness::Filters,
        })
        .collect();
    Inputs {
        workload: "dissemination",
        qsets: vec![QuerySet {
            frontend: Frontend::Xml,
            queries: queries.clone(),
            shared_prefix: true,
        }],
        jobs,
        dissem: Some(Dissem {
            queries,
            churn,
            pool,
        }),
    }
}

/// Nesting depth of the `//a[b]` document (no `b`: the frontier holds
/// one open candidate per level and the verdict is false).
const DEEP_PRED: usize = 4 * 1024;
/// Nesting depth of the `//a/a` document (verdict true).
const DEEP_CHAIN: usize = 4 * 1024;
/// Length of the XML text node, the JSON string and the HTML attribute.
/// Side by side on a shared two-core host, twice these sizes spread
/// about ±10% run to run (cache pressure from neighbours), these ±4%.
const LONG_XML_TEXT: usize = 1 << 20;
const LONG_JSON_STRING: usize = 512 << 10;
const LONG_HTML_ATTR: usize = 256 << 10;

fn letters(rng: &mut SmallRng, len: usize) -> String {
    (0..len)
        .map(|_| match rng.gen_range(0..27u8) {
            26 => ' ',
            c => char::from(b'a' + c),
        })
        .collect()
}

fn nested(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 7);
    for _ in 0..depth {
        s.push_str("<a>");
    }
    for _ in 0..depth {
        s.push_str("</a>");
    }
    s
}

fn hostile(rng: &mut SmallRng) -> Inputs {
    let mut qsets = Vec::new();
    let mut jobs = Vec::new();
    let mut add = |frontend, queries: &[&str], doc: String, known: &[bool]| {
        qsets.push(QuerySet {
            frontend,
            queries: queries.iter().map(|q| q.to_string()).collect(),
            shared_prefix: false,
        });
        jobs.push(Job {
            qset: qsets.len() - 1,
            doc: doc.as_bytes().into(),
            witness: Witness::Known(known.to_vec()),
        });
    };
    add(Frontend::Xml, &["//a[b]"], nested(DEEP_PRED), &[false]);
    add(Frontend::Xml, &["//a/a"], nested(DEEP_CHAIN), &[true]);
    let text = letters(rng, LONG_XML_TEXT);
    add(
        Frontend::Xml,
        &["/r[t]", "//r/u"],
        format!("<r><t>{text}</t></r>"),
        &[true, false],
    );
    let s = letters(rng, LONG_JSON_STRING);
    add(
        Frontend::Json,
        &["/json[s]/k", "/json/absent"],
        format!("{{\"s\": \"{s}\", \"k\": 1}}"),
        &[true, false],
    );
    let v = letters(rng, LONG_HTML_ATTR);
    add(
        Frontend::Html,
        &["//div[p]", "//table"],
        format!("<html><body><div title=\"{v}\"><p>x</p></div></body></html>"),
        &[true, false],
    );
    Inputs {
        workload: "hostile",
        qsets,
        jobs,
        dissem: None,
    }
}
