//! Execution tracing in the style of Fig. 22: after every event, a
//! snapshot of the frontier table as `(level, ntest, matched)` tuples.

use crate::filter::{StreamFilter, UnsupportedQuery};
use fx_xml::Event;
use fx_xpath::Query;
use std::fmt::Write;

/// One frontier tuple, as printed in Fig. 22.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// The `level` attribute of the record.
    pub level: usize,
    /// The record's node test, rendered.
    pub ntest: String,
    /// The `matched` flag (0/1 in the figure).
    pub matched: bool,
}

/// The state after one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The event, in the paper's notation.
    pub event: String,
    /// The document level at which it happened.
    pub level: usize,
    /// The frontier tuples after processing it.
    pub frontier: Vec<Tuple>,
}

/// Runs the filter and records a [`TraceStep`] per event. Returns the
/// steps and the verdict.
pub fn trace(q: &Query, events: &[Event]) -> Result<(Vec<TraceStep>, bool), UnsupportedQuery> {
    let mut f = StreamFilter::new(q)?;
    let mut steps = Vec::with_capacity(events.len());
    // The level an element event "happens at" (Fig. 22): a start tag at
    // the pre-increment level, an end tag at the post-decrement level.
    let mut lvl = 0usize;
    for e in events {
        let event_level = match e {
            Event::StartElement { .. } => {
                let at = lvl;
                lvl += 1;
                at
            }
            Event::EndElement { .. } => {
                lvl = lvl.saturating_sub(1);
                lvl
            }
            _ => lvl,
        };
        f.process(e);
        let frontier = f
            .frontier()
            .map(|r| Tuple {
                level: r.level,
                ntest: f.ntest_of(r.node),
                matched: r.matched,
            })
            .collect();
        steps.push(TraceStep {
            event: e.notation(),
            level: event_level,
            frontier,
        });
    }
    let verdict = f.result().expect("trace runs must end with endDocument");
    Ok((steps, verdict))
}

/// Renders a trace as a fixed-width table (one row per event), matching
/// the presentation of Fig. 22.
pub fn render(steps: &[TraceStep]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<14} frontier (level, ntest, matched)",
        "#", "event"
    );
    for (i, s) in steps.iter().enumerate() {
        let tuples: Vec<String> = s
            .frontier
            .iter()
            .map(|t| format!("({},{},{})", t.level, t.ntest, u8::from(t.matched)))
            .collect();
        let _ = writeln!(out, "{:<6} {:<14} [{}]", i, s.event, tuples.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    /// The Fig. 22 scenario: Q = /a[c[.//e and f] and b] on a document
    /// with a non-matching <d>, a matching first <c>, and an ignored
    /// second <c>.
    #[test]
    fn fig22_style_trace() {
        let q = parse_query("/a[c[.//e and f] and b]").unwrap();
        let events = fx_xml::parse("<a><c><d/><e/><f/></c><b/><c/></a>").unwrap();
        let (steps, verdict) = trace(&q, &events).unwrap();
        assert!(verdict);
        // Frontier never exceeds 3 tuples (the figure's array of 3; the
        // paper: "As the frontier size is 3 for this query, there are at
        // most 3 tuples in the system").
        assert!(steps.iter().all(|s| s.frontier.len() <= 3));
        // After startDocument: one unmatched tuple for the root's
        // successor `a` at level 0.
        assert_eq!(steps[0].frontier.len(), 1);
        assert!(steps[0].frontier.iter().all(|t| !t.matched && t.level == 0));
        // Inside <c>, the frontier holds (b, e, f) — the largest frontier.
        assert_eq!(steps[2].frontier.len(), 3);
        // Event 3 is startElement(d) (indices: 0=〈$〉 1=〈a〉 2=〈c〉 3=〈d〉):
        // d matches nothing; the frontier is unchanged ("we increase the
        // level by one but keep the frontier intact", §8.4).
        assert_eq!(steps[2].frontier, steps[3].frontier);
        assert_eq!(steps[3].level, 2);
        // After the first 〈/c〉 (index 9), c is matched.
        let after_c = &steps[9].frontier;
        assert!(after_c.iter().any(|t| t.ntest == "c" && t.matched));
        // The second 〈c〉 (index 12) is ignored because c is already
        // matched ("instead of processing the new c document node, we
        // ignore it", §8.4).
        assert_eq!(steps[11].frontier, steps[12].frontier);
        // Final state: the root's successor is matched (flag = 1, §8.4).
        let last = steps.last().unwrap();
        assert_eq!(last.frontier.len(), 1);
        assert!(last.frontier.iter().all(|t| t.matched));
    }

    #[test]
    fn render_is_stable() {
        let q = parse_query("/a[b]").unwrap();
        let events = fx_xml::parse("<a><b/></a>").unwrap();
        let (steps, _) = trace(&q, &events).unwrap();
        let text = render(&steps);
        assert!(text.contains("(1,b,1)"), "{text}");
        assert!(text.contains("(0,a,1)"), "{text}");
        assert!(text.lines().count() == steps.len() + 1);
    }
}
