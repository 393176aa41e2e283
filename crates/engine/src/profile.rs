//! Per-operator query profiling.
//!
//! The pipeline in [`crate::pipeline`] self-measures when profiling is
//! enabled on the [`crate::DynamicContext`]: every operator is wrapped
//! in an instrumentation decorator that counts batches and tuples and
//! accumulates wall time from a [`Clock`] injected through the context.
//! Production code uses the [`MonotonicClock`]; tests inject a
//! [`TickClock`] so golden `explain analyze` output is deterministic.
//!
//! One FLWOR execution produces a [`PipelineProfile`]; nested FLWORs
//! (or a FLWOR re-entered inside a function) record once per execution
//! and merge by plan signature into the context's [`QueryProfile`],
//! which renders as `explain analyze` text or machine-readable JSON.

use crate::context::EvalStatsSnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A monotonic nanosecond clock, injectable so profiled runs can be
/// made deterministic in tests.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds since an arbitrary per-clock origin; never decreases.
    fn now_nanos(&self) -> u64;
}

/// The production clock: [`Instant`] elapsed since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at the moment of construction.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock: every reading advances by a fixed tick, so
/// profiled durations depend only on the number of clock reads — stable
/// across machines, suitable for golden tests.
#[derive(Debug)]
pub struct TickClock {
    tick_nanos: u64,
    reads: AtomicU64,
}

impl TickClock {
    /// A clock that advances `tick_nanos` per reading.
    pub fn new(tick_nanos: u64) -> TickClock {
        TickClock {
            tick_nanos,
            reads: AtomicU64::new(0),
        }
    }
}

impl Clock for TickClock {
    fn now_nanos(&self) -> u64 {
        let reads = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        reads * self.tick_nanos
    }
}

/// The operator kinds of the streaming pipeline (the eight planned
/// clause operators plus the `ReturnAt` sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `for $v (at $i)? in e`: fan-out scan.
    ForScan,
    /// `let $v := e`: 1:1 binder.
    LetBind,
    /// `where e`: streaming filter.
    Filter,
    /// `count $v`: ordinal binder.
    CountBind,
    /// Window clause scan.
    WindowScan,
    /// `group by`: hash-aggregation breaker.
    GroupConsume,
    /// `order by`: sort (or bounded-heap) breaker.
    OrderBy,
    /// Unnested join probe (`let` binding or existential filter):
    /// streams tuples against a once-materialized build table.
    HashJoin,
    /// The sink: binds `return at` ordinals, evaluates the return expr.
    ReturnAt,
}

impl OpKind {
    /// Every operator kind, in pipeline order of introduction.
    pub const ALL: [OpKind; 9] = [
        OpKind::ForScan,
        OpKind::LetBind,
        OpKind::Filter,
        OpKind::CountBind,
        OpKind::WindowScan,
        OpKind::GroupConsume,
        OpKind::OrderBy,
        OpKind::HashJoin,
        OpKind::ReturnAt,
    ];

    /// The operator's display name (matches `explain` plan rendering).
    pub fn as_str(&self) -> &'static str {
        match self {
            OpKind::ForScan => "ForScan",
            OpKind::LetBind => "LetBind",
            OpKind::Filter => "Filter",
            OpKind::CountBind => "CountBind",
            OpKind::WindowScan => "WindowScan",
            OpKind::GroupConsume => "GroupConsume",
            OpKind::OrderBy => "OrderBy",
            OpKind::HashJoin => "HashJoin",
            OpKind::ReturnAt => "ReturnAt",
        }
    }

    /// Whether this operator is a pipeline breaker that buffers its
    /// whole input before emitting (the `[materializes]` tag).
    pub fn materializes(&self) -> bool {
        matches!(self, OpKind::GroupConsume | OpKind::OrderBy)
    }
}

/// Measured counters for one operator across one pipeline's executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Which operator.
    pub kind: OpKind,
    /// Plan detail, e.g. `limit=10` for a bounded order-by.
    pub detail: String,
    /// Batches the operator emitted (for `ReturnAt`: batches consumed).
    pub batches: u64,
    /// Tuples the operator consumed from its input.
    pub tuples_in: u64,
    /// Tuples the operator emitted (for `ReturnAt`: output ordinals).
    pub tuples_out: u64,
    /// Self wall time (cumulative time minus the input's share).
    pub nanos: u64,
    /// The planner's row estimate for this operator (tuples it was
    /// expected to emit), stamped by [`crate::estimate::stamp_estimates`].
    /// `None` when the planner had no basis for an estimate.
    pub estimate: Option<u64>,
}

impl OpProfile {
    /// The plan label, matching `explain`'s rendering: operator name,
    /// detail, and the `[heap]` / `[materializes]` breaker tag.
    pub fn label(&self) -> String {
        let mut s = String::from(self.kind.as_str());
        if !self.detail.is_empty() {
            let _ = write!(s, "({})", self.detail);
        }
        match self.kind {
            OpKind::GroupConsume => s.push_str(" [materializes]"),
            OpKind::OrderBy if self.detail.is_empty() => s.push_str(" [materializes]"),
            OpKind::OrderBy => s.push_str(" [heap]"),
            _ => {}
        }
        s
    }

    /// Whether this operator buffered its input (breaker).
    pub fn materializes(&self) -> bool {
        self.kind.materializes()
    }

    /// The estimation quality factor `max(est/actual, actual/est)`,
    /// with both sides clamped to ≥ 1 so empty operators don't divide
    /// by zero. 1.0 is a perfect estimate; `None` when the planner
    /// recorded no estimate for this operator.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.estimate?.max(1) as f64;
        let actual = self.tuples_out.max(1) as f64;
        Some((est / actual).max(actual / est))
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"op\":\"{}\",\"detail\":\"{}\",\"materializes\":{},\
             \"batches\":{},\"tuples_in\":{},\"tuples_out\":{},\"time_ns\":{}",
            self.kind.as_str(),
            self.detail,
            self.materializes(),
            self.batches,
            self.tuples_in,
            self.tuples_out,
            self.nanos
        );
        if let (Some(est), Some(q)) = (self.estimate, self.q_error()) {
            let _ = write!(s, ",\"est\":{est},\"q_error\":{q:.2}");
        }
        s.push('}');
        s
    }

    fn merge(&mut self, other: &OpProfile) {
        self.batches += other.batches;
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.nanos += other.nanos;
        // Repeated executions of one plan share one estimate.
        self.estimate = self.estimate.or(other.estimate);
    }
}

/// One node of a query's span timeline: a named interval on the
/// profiling clock with nested child spans. Pipelines lay their
/// per-operator child spans out cumulatively by self time (the pipeline
/// ran the operators interleaved, so exact per-operator intervals don't
/// exist).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: `"pipeline #N"`, an operator label, or a compile phase
    /// name.
    pub name: String,
    /// Interval start on the profiling clock (nanoseconds).
    pub start_nanos: u64,
    /// Interval end on the profiling clock (nanoseconds).
    pub end_nanos: u64,
    /// Nested spans, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span.
    pub fn leaf(name: impl Into<String>, start_nanos: u64, end_nanos: u64) -> Span {
        Span {
            name: name.into(),
            start_nanos,
            end_nanos,
            children: Vec::new(),
        }
    }

    /// The span's duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// The machine-readable form (recursive).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            crate::trace::json_escape(&self.name),
            self.start_nanos,
            self.end_nanos
        );
        if !self.children.is_empty() {
            let children: Vec<String> = self.children.iter().map(|c| c.to_json()).collect();
            let _ = write!(s, ",\"children\":[{}]", children.join(","));
        }
        s.push('}');
        s
    }
}

/// The worst cardinality misestimate of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Misestimate {
    /// The offending operator's plan label.
    pub label: String,
    /// What the planner expected.
    pub estimated: u64,
    /// What the run produced.
    pub actual: u64,
    /// `max(est/actual, actual/est)`, clamped sides (see
    /// [`OpProfile::q_error`]).
    pub q_error: f64,
}

/// The measured operator chain of one FLWOR pipeline. Repeated
/// executions of the same plan (a FLWOR nested under an outer `for`, or
/// inside a function called many times) merge into one entry with
/// `executions` counting the runs and the counters summing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineProfile {
    /// How many times this pipeline ran.
    pub executions: u64,
    /// Per-operator counters, source first, `ReturnAt` sink last.
    pub ops: Vec<OpProfile>,
}

impl PipelineProfile {
    /// The plan signature: operator labels joined with ` -> `. Matches
    /// the plan line rendered by `explain`.
    pub fn signature(&self) -> String {
        let labels: Vec<String> = self.ops.iter().map(|op| op.label()).collect();
        labels.join(" -> ")
    }

    /// Total self time across all operators.
    pub fn total_nanos(&self) -> u64 {
        self.ops.iter().map(|op| op.nanos).sum()
    }

    fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|op| op.to_json()).collect();
        format!(
            "{{\"signature\":\"{}\",\"executions\":{},\"total_ns\":{},\"ops\":[{}]}}",
            self.signature(),
            self.executions,
            self.total_nanos(),
            ops.join(",")
        )
    }
}

/// The profile of a whole query: every distinct pipeline that executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Pipelines in first-execution order.
    pub pipelines: Vec<PipelineProfile>,
    /// The evaluation-counter delta over the profiled run(s).
    pub counters: EvalStatsSnapshot,
    /// Execution span timeline: one root span per recorded pipeline
    /// execution (capped at [`QueryProfile::MAX_SPANS`] to stay
    /// compact), with per-operator child spans.
    pub spans: Vec<Span>,
}

impl QueryProfile {
    /// Retained span cap: a query that re-enters a pipeline thousands
    /// of times keeps only the first executions' timelines.
    pub const MAX_SPANS: usize = 64;

    /// Whether any pipeline was recorded.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// The single worst cardinality misestimate across every operator
    /// of every pipeline, or `None` when nothing carried an estimate.
    pub fn worst_misestimate(&self) -> Option<Misestimate> {
        self.pipelines
            .iter()
            .flat_map(|p| &p.ops)
            .filter_map(|op| {
                op.q_error().map(|q| Misestimate {
                    label: op.label(),
                    estimated: op.estimate.unwrap_or(0),
                    actual: op.tuples_out,
                    q_error: q,
                })
            })
            .max_by(|a, b| a.q_error.total_cmp(&b.q_error))
    }

    /// Merge another pipeline execution into the profile: same plan
    /// signature → counters sum; new signature → new entry.
    pub fn merge(&mut self, p: PipelineProfile) {
        let sig = p.signature();
        for existing in &mut self.pipelines {
            if existing.signature() == sig {
                existing.executions += p.executions;
                for (a, b) in existing.ops.iter_mut().zip(&p.ops) {
                    a.merge(b);
                }
                return;
            }
        }
        self.pipelines.push(p);
    }

    /// The machine-readable form: one JSON object, no dependencies.
    pub fn to_json(&self) -> String {
        let pipelines: Vec<String> = self.pipelines.iter().map(|p| p.to_json()).collect();
        let spans: Vec<String> = self.spans.iter().map(|s| s.to_json()).collect();
        let worst = match self.worst_misestimate() {
            Some(m) => format!(
                "{{\"op\":\"{}\",\"est\":{},\"actual\":{},\"q_error\":{:.2}}}",
                crate::trace::json_escape(&m.label),
                m.estimated,
                m.actual,
                m.q_error
            ),
            None => "null".to_string(),
        };
        let mut out = format!("{{\"pipelines\":[{}],", pipelines.join(","));
        self.counters.write_json_members(&mut out);
        let _ = write!(
            out,
            ",\"worst_misestimate\":{worst},\"spans\":[{}]}}",
            spans.join(",")
        );
        out
    }
}

/// The per-run profile collector hung off a [`crate::DynamicContext`].
/// Interior-mutable so the pipeline can record through `&self`.
#[derive(Debug, Default)]
pub struct Profiler {
    profile: Mutex<QueryProfile>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Record one pipeline execution (merged by plan signature).
    pub fn record(&self, p: PipelineProfile) {
        self.profile.lock().expect("profiler poisoned").merge(p);
    }

    /// Record one execution's span timeline. Dropped silently past
    /// [`QueryProfile::MAX_SPANS`] retained roots.
    pub fn add_span(&self, span: Span) {
        let mut p = self.profile.lock().expect("profiler poisoned");
        if p.spans.len() < QueryProfile::MAX_SPANS {
            p.spans.push(span);
        }
    }

    /// Fold a run's evaluation-counter delta into the profile.
    pub fn add_counters(&self, delta: &EvalStatsSnapshot) {
        self.profile
            .lock()
            .expect("profiler poisoned")
            .counters
            .add(delta);
    }

    /// Drain the collected profile, leaving the profiler empty.
    pub fn take(&self) -> QueryProfile {
        std::mem::take(&mut *self.profile.lock().expect("profiler poisoned"))
    }

    /// A copy of the collected profile without draining it.
    pub fn snapshot(&self) -> QueryProfile {
        self.profile.lock().expect("profiler poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, detail: &str, tuples_out: u64) -> OpProfile {
        OpProfile {
            kind,
            detail: detail.into(),
            batches: 1,
            tuples_in: 1,
            tuples_out,
            nanos: 100,
            estimate: None,
        }
    }

    #[test]
    fn tick_clock_is_deterministic() {
        let c = TickClock::new(1_000);
        assert_eq!(c.now_nanos(), 1_000);
        assert_eq!(c.now_nanos(), 2_000);
        assert_eq!(c.now_nanos(), 3_000);
    }

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn labels_match_explain_tags() {
        assert_eq!(op(OpKind::ForScan, "", 5).label(), "ForScan");
        assert_eq!(
            op(OpKind::GroupConsume, "", 2).label(),
            "GroupConsume [materializes]"
        );
        assert_eq!(op(OpKind::OrderBy, "", 2).label(), "OrderBy [materializes]");
        assert_eq!(
            op(OpKind::OrderBy, "limit=3", 2).label(),
            "OrderBy(limit=3) [heap]"
        );
    }

    #[test]
    fn only_breakers_materialize() {
        for kind in OpKind::ALL {
            assert_eq!(
                kind.materializes(),
                matches!(kind, OpKind::GroupConsume | OpKind::OrderBy),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn merge_by_signature_sums_counters() {
        let run = || PipelineProfile {
            executions: 1,
            ops: vec![op(OpKind::ForScan, "", 10), op(OpKind::ReturnAt, "", 10)],
        };
        let mut q = QueryProfile::default();
        q.merge(run());
        q.merge(run());
        q.merge(PipelineProfile {
            executions: 1,
            ops: vec![op(OpKind::LetBind, "", 1), op(OpKind::ReturnAt, "", 1)],
        });
        assert_eq!(q.pipelines.len(), 2);
        assert_eq!(q.pipelines[0].executions, 2);
        assert_eq!(q.pipelines[0].ops[0].tuples_out, 20);
        assert_eq!(q.pipelines[0].ops[0].nanos, 200);
        assert_eq!(q.pipelines[1].executions, 1);
    }

    #[test]
    fn profiler_take_drains() {
        let p = Profiler::new();
        p.record(PipelineProfile {
            executions: 1,
            ops: vec![op(OpKind::ForScan, "", 1)],
        });
        assert!(!p.snapshot().is_empty());
        assert!(!p.take().is_empty());
        assert!(p.take().is_empty());
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        let mut o = op(OpKind::ForScan, "", 10);
        assert_eq!(o.q_error(), None);
        o.estimate = Some(10);
        assert_eq!(o.q_error(), Some(1.0));
        o.estimate = Some(40); // over-estimate 4x
        assert_eq!(o.q_error(), Some(4.0));
        o.estimate = Some(2); // under-estimate 5x: same scale
        assert_eq!(o.q_error(), Some(5.0));
        o.tuples_out = 0; // empty actual clamps to 1, no div-by-zero
        assert_eq!(o.q_error(), Some(2.0));
    }

    #[test]
    fn worst_misestimate_picks_the_largest_q() {
        let mut q = QueryProfile::default();
        let mut scan = op(OpKind::ForScan, "", 100);
        scan.estimate = Some(10);
        let mut filter = op(OpKind::Filter, "", 50);
        filter.estimate = Some(40);
        q.merge(PipelineProfile {
            executions: 1,
            ops: vec![scan, filter],
        });
        let worst = q.worst_misestimate().expect("has estimates");
        assert_eq!(worst.label, "ForScan");
        assert_eq!((worst.estimated, worst.actual), (10, 100));
        assert_eq!(worst.q_error, 10.0);
        assert!(QueryProfile::default().worst_misestimate().is_none());
    }

    #[test]
    fn span_json_nests() {
        let mut root = Span::leaf("pipeline #0", 1_000, 9_000);
        root.children.push(Span::leaf("ForScan", 1_000, 5_000));
        let json = root.to_json();
        assert_eq!(
            json,
            "{\"name\":\"pipeline #0\",\"start_ns\":1000,\"end_ns\":9000,\
             \"children\":[{\"name\":\"ForScan\",\"start_ns\":1000,\"end_ns\":5000}]}"
        );
        assert_eq!(root.duration_nanos(), 8_000);
    }

    #[test]
    fn profiler_caps_retained_spans() {
        let p = Profiler::new();
        for i in 0..(QueryProfile::MAX_SPANS + 10) {
            p.add_span(Span::leaf(format!("s{i}"), 0, 1));
        }
        assert_eq!(p.snapshot().spans.len(), QueryProfile::MAX_SPANS);
    }

    #[test]
    fn json_shape() {
        let mut q = QueryProfile::default();
        q.merge(PipelineProfile {
            executions: 1,
            ops: vec![op(OpKind::OrderBy, "limit=3", 3)],
        });
        let json = q.to_json();
        assert!(json.starts_with("{\"pipelines\":["));
        assert!(json.contains("\"op\":\"OrderBy\""));
        assert!(json.contains("\"detail\":\"limit=3\""));
        assert!(json.contains("\"materializes\":true"));
        assert!(json.contains("\"time_ns\":100"));
        // No estimates recorded: per-op est keys absent, worst null.
        assert!(!json.contains("\"est\":"));
        assert!(json.contains("\"worst_misestimate\":null"));
        assert!(json.contains("\"spans\":[]"));
        // The counter delta sits between the pipelines and the worst
        // misestimate, the seven historical profile keys in order.
        let keys = [
            "pipelines",
            "seq_items_copied",
            "seq_clones_shared",
            "scan_index_hits",
            "scan_index_tuples",
            "scan_walk_tuples",
            "expr_compiled",
            "expr_fallback",
            "join_build_tuples",
            "worst_misestimate",
        ];
        let at: Vec<usize> = keys
            .iter()
            .map(|k| json.find(&format!("\"{k}\":")).expect(k))
            .collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{json}");

        let mut scan = op(OpKind::ForScan, "", 6);
        scan.estimate = Some(3);
        q.merge(PipelineProfile {
            executions: 1,
            ops: vec![scan],
        });
        q.spans.push(Span::leaf("pipeline #0", 0, 100));
        let json = q.to_json();
        assert!(json.contains("\"est\":3,\"q_error\":2.00"), "{json}");
        assert!(
            json.contains("\"worst_misestimate\":{\"op\":\"ForScan\",\"est\":3,\"actual\":6,\"q_error\":2.00}"),
            "{json}"
        );
        assert!(
            json.contains("\"spans\":[{\"name\":\"pipeline #0\""),
            "{json}"
        );
    }
}
