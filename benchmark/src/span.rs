//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the library is switched on: a span is a pair of
//! `Instant` reads in this crate, kept in a `Vec` and written out once
//! when the traced run ends.

use netsim::Json;
use std::time::Instant;

/// One recorded interval, in host nanoseconds since the recorder's
/// origin. `parent` indexes the span that was open when this one
/// started; `request` ties the spans of one visit/trace/cell together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled recorder (the untraced run) does no clock
/// reads and stores nothing, so the same workload code serves both runs.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Append an already-measured span (tests and merged recorders).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Sum of the durations of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval covered by its direct children. Children are clipped to
    /// the parent and their union is taken, so overlapping children are
    /// not subtracted twice.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let parent = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = parent.start_ns;
        for (s, e) in kids {
            let from = s.max(cursor);
            if e > from {
                covered += e - from;
                cursor = e;
            }
        }
        parent.duration_ns() - covered
    }

    /// Self time summed over every span called `name`.
    pub fn self_total_ns(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64)
            .sum()
    }

    /// The spans as a JSON array (written to `out/trace-<workload>.json`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let parent = match s.parent {
                        Some(p) => Json::from(p as u64),
                        None => Json::Null,
                    };
                    Json::obj()
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", parent)
                        .set("request", s.request)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut s = Spans::on();
        let root = s.push(sp("root", 0, 100, None));
        // [10,40) and [30,60) overlap: union covers 50, not 60.
        s.push(sp("a", 10, 40, Some(root)));
        s.push(sp("b", 30, 60, Some(root)));
        // Fully nested in the union already: adds nothing.
        s.push(sp("c", 35, 38, Some(root)));
        // Sticks out past the parent: clipped to [90,100).
        s.push(sp("d", 90, 130, Some(root)));
        assert_eq!(s.self_ns(root), 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let mut s = Spans::on();
        let root = s.push(sp("root", 0, 100, None));
        let kid = s.push(sp("kid", 20, 60, Some(root)));
        s.push(sp("grandkid", 30, 50, Some(kid)));
        assert_eq!(s.self_ns(root), 60);
        assert_eq!(s.self_ns(kid), 20);
    }

    #[test]
    fn scope_nests_and_records_parents() {
        let mut s = Spans::on();
        s.scope("outer", 7, |s| {
            s.scope("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let all = s.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "outer");
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].request, 7);
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.scope("x", 0, |_| 5), 5);
        assert!(s.all().is_empty());
    }
}
