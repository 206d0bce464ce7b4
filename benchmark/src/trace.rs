//! Spans recorded from the benchmark's own files, around its calls into the
//! layers (choosing-metrics §4): kept in memory, written as Chrome-trace JSON
//! when the run ends.
//!
//! A span is added *after* it happened, with explicit timestamps: the interesting
//! boundaries (`prepare`, `kernel`) are crossed on pool worker threads inside a
//! `Runtime::run` closure, which hands its `Instant`s back to the thread that
//! owns the [`Tracer`]. With tracing off every call is a branch on one bool.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span (0 = no span / tracing off).
pub type SpanId = u64;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Request (serve) or rep (batch) identifier shared by one unit of work.
    pub req: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Counter values snapshotted at a span boundary.
#[derive(Clone, Debug)]
pub struct CounterSample {
    pub at_ns: u64,
    pub values: Vec<(&'static str, f64)>,
}

/// Chrome-trace files stop at this many spans (the rest are counted, and still
/// enter the self-time totals): a 20 s serve run records ~10⁵ requests.
const MAX_WRITTEN_SPANS: usize = 20_000;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    next_id: SpanId,
    pub spans: Vec<Span>,
    pub counters: Vec<CounterSample>,
}

impl Tracer {
    /// A tracer for thread `tid`; `origin` is shared by all tracers of a run so
    /// their timestamps line up. Span ids are striped by `tid` to stay unique.
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Tracer {
        Tracer {
            enabled,
            origin,
            tid,
            next_id: 1,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id so children can name their parent before it has ended.
    pub fn reserve(&mut self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = (self.tid as u64) << 40 | self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn add_with_id(
        &mut self,
        id: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            tid: self.tid,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Records a finished span, returning its id.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        let id = self.reserve();
        self.add_with_id(id, name, start, end, parent, req);
        id
    }

    /// Snapshots counters at a boundary.
    pub fn counters(&mut self, at: Instant, values: Vec<(&'static str, f64)>) {
        if self.enabled {
            let at_ns = self.ns(at);
            self.counters.push(CounterSample { at_ns, values });
        }
    }

    /// Absorbs another thread's records.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
    }
}

/// Total self time per span name: each span's duration minus the part of its
/// interval covered by its children (overlapping children are not counted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *totals.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    totals
}

/// Renders the Chrome-trace document (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span], counters: &[CounterSample], meta: Json) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let mut events: Vec<Json> = spans
        .iter()
        .take(MAX_WRITTEN_SPANS)
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.tid as u64)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::from(s.id)),
                        ("parent", Json::from(s.parent)),
                        ("req", Json::from(s.req)),
                    ]),
                ),
            ])
        })
        .collect();
    events.extend(counters.iter().map(|c| {
        Json::obj([
            ("name", Json::str("counters")),
            ("ph", Json::str("C")),
            ("ts", us(c.at_ns)),
            ("pid", Json::from(1u64)),
            (
                "args",
                Json::obj(c.values.iter().map(|&(k, v)| (k, Json::Num(v)))),
            ),
        ])
    }));
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
        (
            "spansDropped",
            Json::from(spans.len().saturating_sub(MAX_WRITTEN_SPANS)),
        ),
        ("metadata", meta),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 0,
            tid: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("run", 1, 0, 0, 100),
            span("prepare", 2, 1, 10, 30),
            span("kernel", 3, 1, 30, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], 20);
        assert_eq!(t["prepare"], 20);
        assert_eq!(t["kernel"], 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("p", 1, 0, 100, 200),
            span("c", 2, 1, 90, 150),  // starts before the parent: clipped
            span("c", 3, 1, 140, 180), // overlaps its sibling by 10
            span("c", 4, 1, 190, 250), // ends after the parent: clipped
        ];
        // Covered: [100,150) + [150,180) + [190,200) = 90.
        assert_eq!(self_times(&spans)["p"], 10);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![span("k", 1, 0, 0, 5), span("k", 2, 0, 10, 17)];
        assert_eq!(self_times(&spans)["k"], 12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_ids_are_striped_by_thread() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0, 0);
        assert_eq!(off.add("x", t0, t0, 0, 0), 0);
        off.counters(t0, vec![("a", 1.0)]);
        assert!(off.spans.is_empty() && off.counters.is_empty());

        let mut a = Tracer::new(true, t0, 1);
        let mut b = Tracer::new(true, t0, 2);
        let parent = a.reserve();
        let child = a.add("kernel", t0, t0 + Duration::from_nanos(50), parent, 7);
        a.add_with_id(parent, "run", t0, t0 + Duration::from_nanos(80), 0, 7);
        let other = b.add("run", t0, t0, 0, 8);
        assert!(parent != child && child != other && parent != other);
        a.merge(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(self_times(&a.spans)["run"], 30);
        let doc = chrome_trace(&a.spans, &a.counters, Json::Null);
        assert_eq!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
            3
        );
    }
}
