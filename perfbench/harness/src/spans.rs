//! In-memory timing spans around calls into the analyzer's public API.
//!
//! A span records its name, start, end and the span that caused it (its
//! parent). Spans are only appended to a `Vec` while the run is timed and
//! are written out when it ends. A layer's self time is a span's duration
//! minus the part of it that its child spans cover.

use psa_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled recorder runs the closures and records
/// nothing, so the same job code serves the timed and the traced run.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self_ns(&self.spans)
    }

    /// The spans as a JSON array (`[name, parent, start_ns, end_ns]` rows).
    pub fn to_json(&self) -> Json {
        self.spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_string()),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                    Json::Int(s.start_ns as i128),
                    Json::Int(s.end_ns as i128),
                ])
            })
            .collect()
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed by name.
pub fn self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", None, 0, 100),
            span("engine", Some(0), 10, 30),
            span("engine", Some(0), 20, 40), // overlaps the first child
            span("report", Some(0), 50, 60),
            span("json", Some(3), 52, 55),
            span("late", Some(0), 95, 120), // runs past its parent's end
        ];
        let s = self_ns(&spans);
        assert_eq!(s["job"], 100 - 30 - 10 - 5);
        assert_eq!(s["engine"], 20 + 20);
        assert_eq!(s["report"], 10 - 3);
        assert_eq!(s["json"], 3);
        assert_eq!(s["late"], 25);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut on = Spans::new(true);
        let v = on.span("outer", |s| s.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = &on.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let total: u64 = on.self_ns().values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);

        let mut off = Spans::new(false);
        assert_eq!(off.span("outer", |s| s.span("inner", |_| 7)), 7);
        assert!(off.spans.is_empty());
    }
}
