//! Bench-side spans around the calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is its span minus the part of that interval its child spans
//! cover. Where the program reports a phase only as a duration (a
//! [`repair_core::PhaseBreakdown`], or the IO time a
//! [`crate::countio::CountingIo`] measured), the phase becomes a synthetic
//! child: the children of one span are laid end to end from its start, so
//! they cover exactly their total duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that caused it, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer-qualified name, e.g. `storage.ingest`.
    pub name: String,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

/// A span still open, with where its next synthetic child starts.
struct Open {
    id: u32,
    next_child_ns: u64,
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    request: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turn recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|o| o.id),
            request: self.request,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(Open {
            id,
            next_child_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(open) = self.open.pop() {
            self.spans[open.id as usize].end_ns = end_ns;
        }
    }

    /// Record a phase the program measured itself, `dur` long, as a child
    /// of the innermost open span. Zero-length phases are skipped.
    pub fn child(&mut self, name: &str, dur: Duration) {
        if !self.enabled || dur.is_zero() {
            return;
        }
        let Some(open) = self.open.last_mut() else {
            return;
        };
        let start_ns = open.next_child_ns;
        let end_ns = start_ns + dur.as_nanos() as u64;
        open.next_child_ns = end_ns;
        let parent = open.id;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            request: self.request,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals, clipped to the span. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per span name: the spans' total time and total self time, in
/// nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Aggregate `spans` by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.clone()).or_default();
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "core.repair", 0, 100),
            // Overlapping children cover 10..50 once, not twice.
            span(1, Some(0), "datalog.eval", 10, 40),
            span(2, Some(0), "provenance.process", 30, 50),
            // A child poking out of its parent only counts inside it.
            span(3, Some(0), "sat.solve", 90, 120),
            // Grandchildren do not reduce the grandparent's self time.
            span(4, Some(1), "storage.disk", 10, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(0, None, "core.repair", 0, 10),
            span(1, Some(0), "datalog.eval", 0, 4),
            span(2, None, "core.repair", 20, 30),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["core.repair"],
            NameTotals {
                total_ns: 20,
                self_ns: 16
            }
        );
        assert_eq!(t["datalog.eval"].self_ns, 4);
    }

    #[test]
    fn synthetic_children_are_laid_end_to_end() {
        let mut tr = Tracer::new(true);
        tr.next_request();
        tr.enter("core.repair");
        tr.child("datalog.eval", Duration::from_nanos(5));
        tr.child("provenance.process", Duration::ZERO);
        tr.child("sat.solve", Duration::from_nanos(7));
        tr.exit();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[2].end_ns - s[2].start_ns, 7);
        assert!(s.iter().all(|x| x.request == 1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter("core.repair");
        tr.child("datalog.eval", Duration::from_nanos(5));
        tr.exit();
        assert!(tr.spans().is_empty());
    }
}
