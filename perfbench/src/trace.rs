//! Outside-in span tracing: the benchmark wraps each call it makes into a
//! crate's public API in a span. Spans live in memory and are written out
//! when the run ends. A disabled tracer records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (0 = set-up).
    pub op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span prefix of the stage replays: re-invocations made only to time a
/// stage, absent from the untraced run.
pub const REPLAY_PREFIX: &str = "replay.";

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_epoch(enabled, Instant::now())
    }

    /// A tracer sharing another's time origin (one per client thread).
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and, defensively, any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = end_ns;
        }
    }

    /// Opens the root span of operation `op` (ids start at 1).
    pub fn begin_op(&mut self, op: u64) -> SpanId {
        self.op = op;
        self.open("op")
    }

    /// Adds to a per-layer counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Sets a per-layer gauge (last value wins).
    pub fn set(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.counters.insert(name, v);
        }
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans and counters into this one (client
    /// threads record separately and merge after joining).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span's duration minus the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += d as f64 / 1e6;
            t.self_ms += d.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of every span with this name, sorted.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Total ms spent in stage-replay spans.
    pub fn replay_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(REPLAY_PREFIX))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let op = t.begin_op(1);
        let a = t.open("a");
        std::thread::sleep(std::time::Duration::from_millis(3));
        let b = t.open("b");
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.close(b);
        t.close(a);
        t.close(op);
        let totals = t.totals();
        let a = totals["a"];
        let b = totals["b"];
        assert!((a.self_ms - (a.total_ms - b.total_ms)).abs() < 1e-9);
        assert!(b.self_ms == b.total_ms && b.total_ms >= 3.0);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.spans().iter().all(|s| s.op == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op(1);
        let s = t.open("x");
        t.count("c", 1.0);
        t.close(s);
        t.close(op);
        assert!(t.spans().is_empty() && t.counters().is_empty());
    }
}
