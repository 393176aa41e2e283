//! Layer spans recorded by the benchmark around its calls into the
//! program.
//!
//! Every timed operation is a root span (layer `other`); calls into a
//! layer nest under it. A span's *self* time is its duration minus the
//! part of its interval that child spans cover, so per operation the
//! layers' self times plus `other` add up to the operation's wall time.
//! Spans are kept in memory and written out when the run ends. With
//! tracing off, [`Tracer::op`] and [`Tracer::span`] only call their
//! closure.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::alloc;
use crate::json::{obj, Json};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the call went into (`xmlparse`, `engine.run`, ...).
    pub layer: &'static str,
    /// What was called (query id, request class, ...).
    pub name: String,
    /// The operation (root span) this span belongs to; all spans of one
    /// operation share it, like a request id.
    pub op: u64,
    /// Index of the enclosing span, `None` for an operation root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// Per-layer self time and allocations of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCost {
    /// Self time, nanoseconds.
    pub ns: u64,
    /// Self allocations.
    pub allocs: u64,
    /// Self allocated bytes.
    pub alloc_bytes: u64,
}

/// The span recorder. One per thread; merge with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<(usize, u64, u64)>,
    next_op: u64,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a plain closure call.
    pub fn new(on: bool) -> Tracer {
        Tracer::with_epoch(on, Instant::now(), 0)
    }

    /// A recorder sharing `epoch` with others, numbering its operations
    /// from `first_op` (so per-thread recorders never reuse an id).
    pub fn with_epoch(on: bool, epoch: Instant, first_op: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: first_op,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A [`xqa::Clock`] on this tracer's epoch, so the engine's own
    /// trace events land on the same time line as the spans.
    pub fn clock(&self) -> Arc<dyn xqa::Clock> {
        Arc::new(EpochClock(self.epoch))
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` as one operation: a root span that starts a new id.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        assert!(self.stack.is_empty(), "operations do not nest");
        self.next_op += 1;
        self.span("other", name, f)
    }

    /// Run `f` as a call into `layer`, nested in the open span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let (allocs, bytes) = alloc::snapshot();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            op: self.next_op,
            parent: self.stack.last().map(|&(i, _, _)| i),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push((idx, allocs, bytes));
        let out = f(self);
        let (idx, allocs0, bytes0) = self.stack.pop().expect("span stack underflow");
        let (allocs, bytes) = alloc::snapshot();
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = allocs - allocs0;
        span.alloc_bytes = bytes - bytes0;
        out
    }

    /// The open span's index, start time and allocation snapshot.
    pub fn open_span(&self) -> Option<(usize, u64, (u64, u64))> {
        self.stack
            .last()
            .map(|&(i, a, b)| (i, self.spans[i].start_ns, (a, b)))
    }

    /// Record a span whose interval was measured elsewhere (the
    /// engine's parse event, an operator profile, a server-side flight
    /// record) as a child of `parent`, clipped to the parent's interval
    /// once the parent closes.
    pub fn child(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &str,
        interval: (u64, u64),
        allocs: (u64, u64),
    ) {
        if !self.on {
            return;
        }
        let op = self.spans[parent].op;
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            op,
            parent: Some(parent),
            start_ns: interval.0,
            end_ns: interval.1.max(interval.0),
            allocs: allocs.0,
            alloc_bytes: allocs.1,
        });
    }

    /// Take over another recorder's spans (same epoch, disjoint ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.next_op = self.next_op.max(other.next_op);
    }

    /// Self time and allocations of every span, in span order. Each
    /// span is first clipped to its parent's (clipped) interval — a
    /// parallel operator profile reports CPU time that can overhang its
    /// run span — then the union of its children is subtracted, so self
    /// times never go negative and add up to the root's wall time.
    pub fn self_costs(&self) -> Vec<LayerCost> {
        let mut clipped: Vec<(u64, u64)> = Vec::with_capacity(self.spans.len());
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let interval = match s.parent {
                // Parents are recorded before their children.
                Some(p) => {
                    children[p].push(i);
                    let (ps, pe) = clipped[p];
                    let start = s.start_ns.clamp(ps, pe);
                    (start, s.end_ns.clamp(start, pe))
                }
                None => (s.start_ns, s.end_ns),
            };
            clipped.push(interval);
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (start, end) = clipped[i];
                let mut covered: Vec<(u64, u64)> =
                    children[i].iter().map(|&c| clipped[c]).collect();
                covered.sort_unstable();
                let mut union = 0;
                let mut cursor = start;
                for (a, b) in covered {
                    let a = a.max(cursor);
                    if b > a {
                        union += b - a;
                        cursor = b;
                    }
                }
                let child_allocs: u64 = children[i].iter().map(|&c| self.spans[c].allocs).sum();
                let child_bytes: u64 = children[i].iter().map(|&c| self.spans[c].alloc_bytes).sum();
                LayerCost {
                    ns: (end - start) - union,
                    allocs: s.allocs.saturating_sub(child_allocs),
                    alloc_bytes: s.alloc_bytes.saturating_sub(child_bytes),
                }
            })
            .collect()
    }

    /// Per operation: its root span's name and wall time, and the self
    /// cost of each layer under it (the root's own self time is the
    /// `other` layer).
    pub fn per_op(&self) -> BTreeMap<u64, OpCosts> {
        let costs = self.self_costs();
        let mut ops: BTreeMap<u64, OpCosts> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&costs) {
            let entry = ops.entry(s.op).or_default();
            if s.parent.is_none() {
                entry.name = s.name.clone();
                entry.wall_ns = s.end_ns - s.start_ns;
            }
            let layer = entry.layers.entry(s.layer).or_default();
            layer.ns += c.ns;
            layer.allocs += c.allocs;
            layer.alloc_bytes += c.alloc_bytes;
        }
        ops
    }

    /// All spans as JSON, for the run's trace file.
    pub fn to_json(&self) -> Json {
        let costs = self.self_costs();
        Json::Arr(
            self.spans
                .iter()
                .zip(&costs)
                .map(|(s, c)| {
                    obj([
                        ("op", Json::from(s.op)),
                        ("layer", Json::from(s.layer)),
                        ("name", Json::from(s.name.as_str())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("self_ns", Json::from(c.ns)),
                        ("allocs", Json::from(s.allocs)),
                        ("alloc_bytes", Json::from(s.alloc_bytes)),
                    ])
                })
                .collect(),
        )
    }
}

/// One operation's wall time and per-layer self costs.
#[derive(Debug, Clone, Default)]
pub struct OpCosts {
    /// The root span's name.
    pub name: String,
    /// The root span's duration.
    pub wall_ns: u64,
    /// Self cost per layer (`other` = the root's uncovered time).
    pub layers: BTreeMap<&'static str, LayerCost>,
}

impl OpCosts {
    /// How far the layers' self times miss the wall time (0 when the
    /// spans nest properly).
    pub fn coverage_error_ns(&self) -> u64 {
        let sum: u64 = self.layers.values().map(|c| c.ns).sum();
        sum.abs_diff(self.wall_ns)
    }
}

#[derive(Debug)]
struct EpochClock(Instant);

impl xqa::Clock for EpochClock {
    fn now_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_wall_time() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            t.span("a", "x", |t| {
                let (p, start, _) = t.open_span().unwrap();
                t.child(p, "b", "inner", (start, start + 10), (0, 0));
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            t.span("c", "y", |_| ());
        });
        let ops = t.per_op();
        let op = ops.values().next().unwrap();
        assert_eq!(op.coverage_error_ns(), 0);
        assert_eq!(op.layers["b"].ns, 10);
        assert!(op.layers["a"].ns > 0);
        assert!(op.layers.contains_key("other"));
    }

    #[test]
    fn overhanging_children_are_clipped() {
        let mut t = Tracer::new(true);
        t.op("op", |t| {
            let (p, start, _) = t.open_span().unwrap();
            t.child(
                p,
                "cpu",
                "worker-sum",
                (start, start + u64::MAX / 4),
                (0, 0),
            );
        });
        let op = t.per_op().into_values().next().unwrap();
        assert_eq!(op.coverage_error_ns(), 0);
        assert_eq!(op.layers["cpu"].ns, op.wall_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.op("op", |t| t.span("a", "x", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
