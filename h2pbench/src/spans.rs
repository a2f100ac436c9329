//! In-memory spans recorded around the benchmark's calls into the
//! program's public API (traced mode only).
//!
//! A span has a name (`<layer>.<call>`, the layer named after its
//! crate), start and end in nanoseconds since the log was opened, an
//! optional parent and an optional request id. Spans stay in memory
//! until the run ends and are then written out as JSON lines. A
//! layer's self time is its spans' durations minus the part of each
//! interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

/// The span log. A disabled log records nothing and never reads the
/// clock.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    /// The open root span's id (0: none); spans recorded without a
    /// parent are parented on it.
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside the root span `name`: every span recorded
    /// meanwhile without a parent becomes its child, so the root's self
    /// time is the benchmark's own time outside any program call.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.root.store(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.root.store(0, Ordering::Relaxed);
        self.record(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: None,
            request: None,
        });
        out
    }

    fn parent_or_root(&self, parent: Option<u64>) -> Option<u64> {
        parent.or_else(|| match self.root.load(Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        })
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (to parent child spans on), or `None` when the log is disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.parent_or_root(parent);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        out
    }

    /// Records a span measured elsewhere (e.g. by a client thread),
    /// with times taken from [`Instant`]s.
    pub fn record_between(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(Span {
            id,
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: self.parent_or_root(parent),
            request,
        });
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = serde_json::json!({
                "id": s.id,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "request": s.request,
            });
            writeln!(out, "{}", serde_json::to_string(&line).unwrap_or_default())?;
        }
        out.flush()
    }
}

/// Per-name totals: count, total duration and self time (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = totals.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children overlap (10..40, 30..50) and one
        // pokes past the parent's end (90..120).
        let spans = [
            span(1, "core.run", 0, 100, None),
            span(2, "cooling.optimize", 10, 40, Some(1)),
            span(3, "cooling.optimize", 30, 50, Some(1)),
            span(4, "server.lookup", 90, 120, Some(1)),
        ];
        let totals = self_times(&spans);
        let run = totals["core.run"];
        assert_eq!(
            (run.count, run.total_ns, run.self_ns),
            (1, 100, 100 - 40 - 10)
        );
        let opt = totals["cooling.optimize"];
        assert_eq!((opt.count, opt.total_ns, opt.self_ns), (2, 50, 50));
    }

    #[test]
    fn spans_without_a_parent_hang_off_the_root() {
        let log = SpanLog::new(true);
        log.root("bench.run", || {
            log.span("core.run", None, None, |_| ());
        });
        log.span("core.run", None, None, |_| ());
        let spans = log.spans();
        let root = spans.iter().find(|s| s.name == "bench.run").unwrap();
        assert_eq!(spans[0].parent, Some(root.id));
        assert_eq!(spans[2].parent, None, "no root is open any more");
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let got = log.span("core.run", None, None, |id| id);
        assert_eq!(got, None);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn enabled_log_links_children_to_parents() {
        let log = SpanLog::new(true);
        log.span("core.run", None, Some(7), |id| {
            log.span("cooling.optimize", id, Some(7), |_| ());
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "cooling.optimize").unwrap();
        let parent = spans.iter().find(|s| s.name == "core.run").unwrap();
        assert_eq!(child.parent, Some(parent.id));
        assert_eq!(child.request, Some(7));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }
}
