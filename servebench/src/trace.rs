//! In-memory span recording for the traced run.
//!
//! Each worker owns a [`Tracer`]; spans nest by call order on that worker.
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per span. Spans are merged and written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::{self, int, obj, opt_int};

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (worker in the high 32 bits).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// What was called.
    pub name: &'static str,
    /// Schedule position of the request the call served, if any.
    pub request: Option<u64>,
    /// Start, in nanoseconds since the run epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-worker span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    worker: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `worker`, timing against `epoch`.
    pub fn new(enabled: bool, epoch: Instant, worker: u32) -> Self {
        Tracer { enabled, epoch, worker: u64::from(worker), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: (self.worker << 32) | idx as u64,
            parent,
            name,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (in `unit_ns` units) of every span called `name`.
pub fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / unit_ns).collect()
}

/// Self time of every span: its duration minus the part of it its
/// children cover (overlapping children are counted once). Returned in
/// `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, descending.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_default() += t;
    }
    let mut out: Vec<(&'static str, u64)> = totals.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out
}

/// Writes `spans` as JSON lines (one span per line, with its self time).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let line = obj([
            ("id", int(s.id)),
            ("parent", opt_int(s.parent)),
            ("name", json::s(s.name)),
            ("request", opt_int(s.request)),
            ("start_ns", int(s.start_ns)),
            ("end_ns", int(s.end_ns)),
            ("self_ns", int(self_ns)),
        ]);
        writeln!(out, "{}", json::text(&line))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", request: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps 2: [10, 50) covered once
            span(4, Some(1), 90, 120), // clipped to the parent's end
            span(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn leaf_and_childless_spans_keep_their_duration() {
        let spans = vec![span(1, None, 5, 9), span(2, None, 9, 9)];
        assert_eq!(self_times(&spans), vec![4, 0]);
    }

    #[test]
    fn tracer_nests_spans_and_records_requests() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.scope("outer", Some(7), |t| {
            t.scope("inner", Some(7), |_| {});
            t.scope("inner", None, |_| {});
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id >> 32, 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_eq!(spans[1].request, Some(7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.scope("x", None, |_| 5), 5);
        assert!(t.into_spans().is_empty());
    }
}
