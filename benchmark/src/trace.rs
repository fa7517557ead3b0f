//! Spans recorded by the benchmark's own code around its calls into each
//! layer's public functions. Nothing inside the crates is instrumented.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part of it its child spans cover;
//! recording is single-threaded, so children never overlap.

use crate::clock::{self, Stamp};
use crate::json::Value;
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work done inside (messages, inputs, campaigns).
    pub count: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store.
pub struct Tracer {
    origin: Stamp,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: clock::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records a span around `f`; spans begun inside `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            layer,
            start_ns: 0,
            end_ns: 0,
            count,
        });
        self.open.push(id);
        self.spans[id].start_ns = clock::now().nanos_since(self.origin);
        let out = f(self);
        self.spans[id].end_ns = clock::now().nanos_since(self.origin);
        self.open.pop();
        out
    }

    /// A span with no children: the common case around one library call.
    pub fn leaf<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(layer, name, count, |_| f())
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded since `mark` (a previous `spans().len()`).
    #[must_use]
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// The trace file's content.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        Value::obj([
            (
                "layer_self_ns",
                Value::Obj(
                    layer_self_times(&self.spans)
                        .into_iter()
                        .map(|(layer, ns)| (layer.to_string(), Value::Num(ns as f64)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("id", Value::Num(s.id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                                ("name", Value::str(s.name.as_str())),
                                ("layer", Value::str(s.layer)),
                                ("start_ns", Value::Num(s.start_ns as f64)),
                                ("end_ns", Value::Num(s.end_ns as f64)),
                                ("self_ns", Value::Num(self_ns[s.id] as f64)),
                                ("count", Value::Num(s.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span, indexed by position in `spans`: duration
/// minus the durations of the spans naming it as parent. `spans` must be
/// a whole recording (ids equal positions).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed by layer.
#[must_use]
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_insert(0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer,
            start_ns: start,
            end_ns: end,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // campaign 0..100
        //   walk 10..70
        //     encode 20..30, decode 30..45
        //   probe 70..90
        let spans = vec![
            span(0, None, "facade.campaign", 0, 100),
            span(1, Some(0), "core.scheme", 10, 70),
            span(2, Some(1), "grid.codec", 20, 30),
            span(3, Some(1), "grid.codec", 30, 45),
            span(4, Some(0), "hash", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 10, 15, 20]);
        let by_layer = layer_self_times(&spans);
        assert_eq!(by_layer["facade.campaign"], 20);
        assert_eq!(by_layer["core.scheme"], 35);
        assert_eq!(by_layer["grid.codec"], 25);
        assert_eq!(by_layer["hash"], 20);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.span("a", "outer", 1, |t| {
            t.leaf("b", "first", 1, || ());
            t.span("b", "second", 2, |t| t.leaf("c", "inner", 1, || ()));
        });
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let total: u64 = self_times(t.spans()).iter().sum();
        assert_eq!(total, t.spans()[0].duration_ns());
    }
}
