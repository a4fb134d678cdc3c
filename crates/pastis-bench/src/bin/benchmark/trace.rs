//! Spans recorded from outside the program, around its public calls.
//!
//! The traced pass is single-threaded on the harness side, so spans nest
//! like a call stack: the open span when a new one starts is its parent,
//! and the children of a span never overlap one another.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.epoch.elapsed().as_micros() as u64,
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.epoch.elapsed().as_micros() as u64;
        out
    }

    /// Spans recorded so far; the next span gets this index.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span in microseconds: its duration minus the time its
/// child spans cover.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_us - s.start_us);
        }
    }
    own
}

/// Self seconds summed by span name, over the spans below `root`.
pub fn self_seconds_under(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let own = self_times_us(spans);
    let mut by_name = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut up = s.parent;
        while up.is_some_and(|p| p != root) {
            up = spans[up.expect("checked")].parent;
        }
        if up == Some(root) {
            *by_name.entry(s.name.clone()).or_insert(0.0) += own[i] as f64 / 1e6;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 - 30 - 40; a: 30 - 10; grandchildren do not count twice.
        assert_eq!(self_times_us(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_seconds_sum_by_name_below_one_root() {
        let spans = [
            span("replay", 0, 1_000_000, None),
            span("spgemm", 0, 200_000, Some(0)),
            span("align", 200_000, 700_000, Some(0)),
            span("spgemm", 700_000, 900_000, Some(0)),
            span("other", 0, 5, None),
        ];
        let by = self_seconds_under(&spans, 0);
        assert_eq!(by.len(), 2);
        assert!((by["spgemm"] - 0.4).abs() < 1e-9);
        assert!((by["align"] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_like_a_stack() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| t.span("leaf", |_| ()));
        });
        let spans = t.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }
}
