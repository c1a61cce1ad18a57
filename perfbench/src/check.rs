//! The correctness gate: references computed independently of the
//! timed path, outside any timed region.

use crate::inputs::{Inputs, Witness};
use crate::pipeline::{parse_queries, JobResult};
use crate::stats::Report;
use fx_core::{CompiledQuery, StreamFilter};
use fx_engine::{Engine, Mode};
use fx_xml::{AttrBuf, StreamingParser, Symbols};
use std::sync::Arc;

/// Checks every job's verdicts (`results[i]` for `inputs.jobs[i]`)
/// against its witness.
pub fn verdicts(inputs: &Inputs, results: &[Option<JobResult>], rep: &mut Report) {
    let by_filters = filter_reference(inputs);
    for (i, (job, got)) in inputs.jobs.iter().zip(results).enumerate() {
        let queries = &inputs.qsets[job.qset].queries;
        let want: Vec<bool> = match &job.witness {
            Witness::Known(v) => v.clone(),
            Witness::Dom(xml) => {
                let dom = fx_dom::Document::from_xml(xml).expect("witness XML is well-formed");
                parse_queries(queries)
                    .iter()
                    .map(|q| fx_eval::bool_eval(q, &dom).expect("reference evaluates"))
                    .collect()
            }
            Witness::Filters => by_filters[i].clone().unwrap_or_default(),
        };
        match got {
            Some(r) if r.matched == want => {}
            Some(r) => rep.mismatch(format!(
                "{} job {i}: verdicts {:?} != reference {:?}",
                inputs.workload,
                ones(&r.matched),
                ones(&want)
            )),
            None => rep.mismatch(format!("{} job {i}: run failed", inputs.workload)),
        }
    }
}

fn ones(v: &[bool]) -> Vec<usize> {
    v.iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| i)
        .collect()
}

/// Independent per-query `StreamFilter` runs for every `Filters`-witness
/// job: one filter per query, compiled on its own, fed the document's
/// event batches.
fn filter_reference(inputs: &Inputs) -> Vec<Option<Vec<bool>>> {
    let mut out = vec![None; inputs.jobs.len()];
    for (qi, qs) in inputs.qsets.iter().enumerate() {
        let jobs: Vec<usize> = (0..inputs.jobs.len())
            .filter(|&i| {
                inputs.jobs[i].qset == qi && matches!(inputs.jobs[i].witness, Witness::Filters)
            })
            .collect();
        if jobs.is_empty() {
            continue;
        }
        let symbols = Arc::new(Symbols::new());
        let compiled: Vec<Arc<CompiledQuery>> = parse_queries(&qs.queries)
            .iter()
            .map(|q| {
                Arc::new(
                    CompiledQuery::compile_with(q, Arc::clone(&symbols))
                        .expect("generated queries compile"),
                )
            })
            .collect();
        let mut parser = StreamingParser::with_symbols(symbols).lookup_only();
        let mut scratch = AttrBuf::new();
        for i in jobs {
            let mut filters: Vec<StreamFilter> = compiled
                .iter()
                .map(|c| StreamFilter::from_shared(Arc::clone(c)))
                .collect();
            parser.reset();
            let ok = parser
                .drive_batched(&inputs.jobs[i].doc[..], &mut |batch| {
                    for f in filters.iter_mut() {
                        f.process_batch(batch, &mut scratch);
                    }
                })
                .is_ok();
            out[i] = ok.then(|| {
                filters
                    .iter()
                    .map(|f| f.result().expect("decided at endDocument"))
                    .collect()
            });
        }
    }
    out
}

/// Per-query match counts of one Select-mode default engine run over
/// each document: the expected per-subscription delivery counts of a
/// dissemination server subscribed to the same queries.
pub fn delivery_counts(queries: &[String], docs: &[Arc<[u8]>]) -> Vec<Vec<u64>> {
    let engine = Engine::builder()
        .queries(parse_queries(queries))
        .mode(Mode::Select)
        .build()
        .expect("generated queries build in select mode");
    let mut session = engine.session();
    docs.iter()
        .map(|doc| {
            let outcome = session
                .run_reader_outcome(&doc[..])
                .expect("pool documents parse");
            (0..queries.len())
                .map(|q| outcome.matches(q).len() as u64)
                .collect()
        })
        .collect()
}
