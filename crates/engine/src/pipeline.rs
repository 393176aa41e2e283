//! The pull-based streaming FLWOR pipeline.
//!
//! Realizes the paper's §3.1 tuple stream as a Volcano-style operator
//! pipeline (the architecture VXQuery showed is what makes an XQuery
//! engine scale) instead of materializing a `Vec<Tuple>` snapshot after
//! every clause:
//!
//! - [`TupleSource`] is the pull interface. Operators exchange *batches*
//!   of tuples ([`BATCH`] at a time) to amortize dynamic dispatch.
//! - A [`Tuple`] is copy-on-write: a small delta of `(slot, value)`
//!   bindings layered over the shared parent frame, instead of a full
//!   frame snapshot. Cloning a tuple clones a handful of [`Sequence`]
//!   handles — O(1) each, sharing the backing storage.
//! - `ForScan`, `LetBind`, `Filter`, `CountBind` and `WindowScan`
//!   stream; [`GroupConsume`] and [`OrderBy`] are pipeline *breakers*
//!   that drain their input before emitting.
//! - When the top-k rewrite ([`crate::rewrite::pushdown_topk`]) has set
//!   [`OrderByIr::limit`], `OrderBy` keeps a bounded binary heap of k
//!   tuples instead of sorting the whole input: O(n log k) comparisons,
//!   O(k) kept tuples.
//!
//! In-place slot writes are sound because the compiler never reuses slot
//! numbers: dropping a binding from scope only hides it, so every
//! binding in a body has a globally unique slot ([`Ir::Quantified`]
//! evaluation already relies on the same contract).

use crate::bytecode::{ExprPlan, ExprProgram};
use crate::context::EvalStats;
use crate::error::{EngineError, EngineResult};
use crate::eval::{opt_atomic, untyped_to_string, Env, Interpreter};
use crate::ir::*;
use crate::keys::{atomic_key, GroupIndex};
use crate::profile::{OpKind, OpProfile, PipelineProfile, Span};
use crate::types::matches_seq_type;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use xqa_xdm::sequence::SequenceIntoIter;
use xqa_xdm::{
    deep_equal, effective_boolean_value, AtomicValue, ErrorCode, Item, Sequence, SequenceBuilder,
};

use crate::flwor::{compare_order_keys, sort_keyed, OrderKeys};

/// Tuples per batch. Large enough to amortize the virtual `next_batch`
/// call, small enough that a streaming chain stays cache-resident.
pub(crate) const BATCH: usize = 64;

/// A tuple's position in the input of an `order by`: the tie-breaker
/// that makes the top-k heap keep exactly the first k tuples of a full
/// stable sort.
type Tag = usize;

/// A copy-on-write tuple: bindings this FLWOR has made, layered over the
/// shared parent frame. Slots absent from the delta hold their parent
/// values in `env.slots`, which no pipeline operator ever overwrites.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tuple {
    delta: Vec<(Slot, Sequence)>,
}

impl Tuple {
    /// Bind `slot` in this tuple (replacing an existing binding: the
    /// compiler can re-bind a slot only for the same variable).
    fn bind(&mut self, slot: Slot, value: Sequence) {
        for entry in &mut self.delta {
            if entry.0 == slot {
                entry.1 = value;
                return;
            }
        }
        self.delta.push((slot, value));
    }

    /// Install this tuple's bindings into the frame before evaluating a
    /// per-tuple expression. O(|delta|) `Sequence` clones.
    fn apply(&self, env: &mut Env) {
        for (slot, value) in &self.delta {
            env.slots[*slot] = value.clone();
        }
    }
}

/// The Volcano-style pull interface: `Ok(Some(batch))` (possibly empty)
/// while tuples remain, `Ok(None)` once exhausted.
pub(crate) trait TupleSource {
    /// Pull the next batch of tuples.
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>>;
}

type BoxSource<'p> = Box<dyn TupleSource + 'p>;

/// Evaluate a FLWOR through the pipeline and materialize its result.
pub(crate) fn run(interp: &Interpreter, f: &FlworIr, env: &mut Env) -> EngineResult<Sequence> {
    let mut parts: Vec<Sequence> = Vec::new();
    drive(interp, f, env, &mut |part| {
        parts.push(part);
        Ok(())
    })?;
    Ok(match parts.len() {
        1 => parts.pop().expect("one part"),
        // Joining the per-batch parts moves each result item once; it is
        // result assembly, not evaluation, so it counts no sequence
        // copies and the counters match a streamed run's.
        _ => parts.into_iter().flatten().collect(),
    })
}

/// Batch sink for the streaming execution path: receives each
/// non-empty result batch in pipeline order. An `Err` aborts the run
/// (used by the serving layer to propagate socket write failures).
pub(crate) type EmitBatch<'e> = dyn FnMut(&[Item]) -> EngineResult<()> + 'e;

/// Streaming twin of [`run`]: each batch's return-expression output is
/// handed to `emit` as soon as the batch is pulled, instead of being
/// materialized. Returns the total number of items emitted.
pub(crate) fn run_streaming(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    emit: &mut EmitBatch,
) -> EngineResult<u64> {
    let mut items = 0u64;
    drive(interp, f, env, &mut |part| {
        items += part.len() as u64;
        emit(&part)
    })?;
    Ok(items)
}

/// Feed an already materialized sequence through `emit` in
/// [`BATCH`]-sized chunks: how a streaming caller delivers a query body
/// that is not a FLWOR (there is no tuple pipeline to tap).
pub(crate) fn emit_sequence(seq: &Sequence, emit: &mut EmitBatch) -> EngineResult<u64> {
    for chunk in seq.chunks(BATCH) {
        if !chunk.is_empty() {
            emit(chunk)?;
        }
    }
    Ok(seq.len() as u64)
}

/// The one FLWOR driver: lower every clause onto the pipeline root
/// (each operator wrapped in an [`Instrumented`] decorator when the
/// dynamic context is profiling), then drain the chain through the
/// [`ReturnAt`] sink, which hands each batch's non-empty return values
/// to `sink`. Materialized and streamed runs differ only in `sink`, so
/// they evaluate — and count — exactly the same work.
fn drive(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    sink: &mut dyn FnMut(Sequence) -> EngineResult<()>,
) -> EngineResult<()> {
    debug_assert_eq!(f.plan.len(), f.clauses.len());
    let profiler = interp.dynamic.profiler().cloned();
    let mut counters: Vec<Rc<OpCounters>> = Vec::new();
    let mut source: BoxSource = Box::new(Singleton { done: false });
    for (i, clause) in f.clauses.iter().enumerate() {
        source = clause_source(clause, flwor_plan(f, i), join_ir(f, i), source);
        if profiler.is_some() {
            let c = Rc::new(OpCounters::default());
            counters.push(Rc::clone(&c));
            source = Box::new(Instrumented {
                input: source,
                counters: c,
            });
        }
    }
    let ret = ReturnAt {
        at: f.return_at,
        expr: &f.return_expr,
    };
    let Some(profiler) = profiler else {
        return ret.drain(source, interp, env, sink).map(drop);
    };
    let clock = Arc::clone(interp.dynamic.clock());
    let start = clock.now_nanos();
    let sink_stats = ret.drain(source, interp, env, sink)?;
    let total = clock.now_nanos().saturating_sub(start);
    let p = build_profile(f, &counters, sink_stats, total);
    profiler.add_span(pipeline_span(&p, start, total));
    profiler.record(p);
    Ok(())
}

/// The clause's compiled-expression plan, tolerating the empty table
/// tree mode and engine-less compilation leave behind.
fn flwor_plan(f: &FlworIr, i: usize) -> Option<&ExprPlan> {
    f.programs.get(i).and_then(Option::as_ref)
}

/// Per-operator expression-evaluation state: the compiled bytecode
/// program when lowering produced one, the register scratch it runs in
/// (sized once, reused across every tuple the operator sees), and
/// locally batched counter updates flushed to the shared stats block
/// once per output batch instead of once per tuple.
///
/// Programs are total — they raise exactly the errors the tree-walker
/// would — so an operator holding a `Compiled` plan never consults the
/// interpreter for its expression. `Interpreted` means lowering
/// declined the expression at compile time: the tree-walker evaluates
/// it and each evaluation counts as an `expr_fallback`. `None` (tree
/// mode, or IR that never went through lowering) counts nothing.
struct ExprEval<'p> {
    program: Option<&'p ExprProgram>,
    counts_fallback: bool,
    regs: Vec<Sequence>,
    n_compiled: u64,
    n_fallback: u64,
}

impl<'p> ExprEval<'p> {
    fn new(plan: Option<&'p ExprPlan>) -> ExprEval<'p> {
        let (program, counts_fallback) = match plan {
            Some(ExprPlan::Compiled(p)) => (Some(p), false),
            Some(ExprPlan::Interpreted) => (None, true),
            None => (None, false),
        };
        ExprEval {
            program,
            counts_fallback,
            regs: vec![Sequence::Empty; program.map_or(0, |p| p.reg_count())],
            n_compiled: 0,
            n_fallback: 0,
        }
    }

    /// Evaluate the clause expression against the current env frame,
    /// through the program when one was compiled.
    fn eval(&mut self, expr: &Ir, interp: &Interpreter, env: &mut Env) -> EngineResult<Sequence> {
        match self.program {
            Some(p) => {
                self.n_compiled += 1;
                p.eval(interp, env, &mut self.regs)
            }
            None => {
                if self.counts_fallback {
                    self.n_fallback += 1;
                }
                interp.eval(expr, env)
            }
        }
    }

    /// Flush locally accumulated evaluation counts to the stats block.
    fn flush(&mut self, stats: &EvalStats) {
        if self.n_compiled > 0 {
            stats.add_expr_compiled(self.n_compiled);
            self.n_compiled = 0;
        }
        if self.n_fallback > 0 {
            stats.add_expr_fallback(self.n_fallback);
            self.n_fallback = 0;
        }
    }
}

/// Lower one clause onto `input`, yielding the clause's operator.
/// `plan` is the clause's entry in [`FlworIr::programs`] (None for
/// clause kinds without a single lowerable expression, or in tree
/// mode). A clause whose plan slot the join-unnesting rewrite marked
/// [`PlanOpIr::HashJoin`] lowers to the hash-join operator instead of
/// its nested form; `join` carries that annotation.
fn clause_source<'p>(
    clause: &'p ClauseIr,
    plan: Option<&'p ExprPlan>,
    join: Option<&'p JoinIr>,
    input: BoxSource<'p>,
) -> BoxSource<'p> {
    if let Some(j) = join {
        return Box::new(HashJoin {
            input,
            j,
            table: None,
        });
    }
    match clause {
        ClauseIr::For {
            slot,
            at_slot,
            ty,
            expr,
        } => Box::new(ForScan {
            input,
            slot: *slot,
            at_slot: *at_slot,
            ty: ty.as_ref(),
            expr,
            expr_eval: ExprEval::new(plan),
            batch: Vec::new().into_iter(),
            items: Sequence::Empty.into_iter(),
            item_pos: 0,
            base: Tuple::default(),
            input_done: false,
        }),
        ClauseIr::Let { slot, ty, expr } => Box::new(LetBind {
            input,
            slot: *slot,
            ty: ty.as_ref(),
            expr,
            expr_eval: ExprEval::new(plan),
        }),
        ClauseIr::Where(cond) => Box::new(Filter {
            input,
            cond,
            expr_eval: ExprEval::new(plan),
        }),
        ClauseIr::Count { slot } => Box::new(CountBind {
            input,
            slot: *slot,
            n: 0,
        }),
        ClauseIr::Window(w) => Box::new(WindowScan { input, w }),
        ClauseIr::GroupBy(g) => Box::new(GroupConsume {
            input,
            g,
            output: Vec::new().into_iter(),
            consumed: false,
        }),
        ClauseIr::OrderBy(ob) => Box::new(OrderBy {
            input,
            ob,
            output: Vec::new().into_iter(),
            consumed: false,
        }),
    }
}

/// Interior-mutable counters for one instrumented operator. `Rc<Cell>`
/// (not atomics) because one pipeline runs on one thread and
/// [`TupleSource`] is not `Send`.
#[derive(Debug, Default)]
struct OpCounters {
    batches: Cell<u64>,
    tuples_out: Cell<u64>,
    /// Cumulative time spent in this operator *and everything upstream*
    /// of it (`next_batch` pulls recursively); self time is recovered by
    /// subtracting the input operator's cumulative time.
    cum_nanos: Cell<u64>,
}

/// Decorator that meters the operator below it: batches, tuples and
/// wall time per `next_batch` call, read from the injected clock.
struct Instrumented<'p> {
    input: BoxSource<'p>,
    counters: Rc<OpCounters>,
}

impl TupleSource for Instrumented<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let clock = interp.dynamic.clock();
        let start = clock.now_nanos();
        let result = self.input.next_batch(interp, env);
        let elapsed = clock.now_nanos().saturating_sub(start);
        let c = &self.counters;
        c.cum_nanos.set(c.cum_nanos.get() + elapsed);
        if let Ok(Some(batch)) = &result {
            c.batches.set(c.batches.get() + 1);
            c.tuples_out.set(c.tuples_out.get() + batch.len() as u64);
        }
        result
    }
}

/// Assemble the measured operator chain for one pipeline execution.
/// Self time per operator = its cumulative time minus its input's;
/// tuples_in = the input operator's tuples_out (the `Singleton` root
/// seeds exactly one tuple).
fn build_profile(
    f: &FlworIr,
    counters: &[Rc<OpCounters>],
    sink_stats: SinkStats,
    total_nanos: u64,
) -> PipelineProfile {
    let mut ops = Vec::with_capacity(counters.len() + 1);
    let mut upstream_out = 1u64;
    let mut upstream_cum = 0u64;
    for (i, (clause, c)) in f.clauses.iter().zip(counters).enumerate() {
        let cum = c.cum_nanos.get();
        ops.push(OpProfile {
            kind: clause_op_kind(clause, join_ir(f, i)),
            detail: clause_op_detail(clause, join_ir(f, i)),
            batches: c.batches.get(),
            tuples_in: upstream_out,
            tuples_out: c.tuples_out.get(),
            nanos: cum.saturating_sub(upstream_cum),
            estimate: f.estimates.get(i).copied().flatten(),
        });
        upstream_out = c.tuples_out.get();
        upstream_cum = cum;
    }
    ops.push(OpProfile {
        kind: OpKind::ReturnAt,
        detail: String::new(),
        batches: sink_stats.batches,
        tuples_in: upstream_out,
        tuples_out: sink_stats.tuples,
        nanos: total_nanos.saturating_sub(upstream_cum),
        estimate: f.estimates.get(f.clauses.len()).copied().flatten(),
    });
    PipelineProfile { executions: 1, ops }
}

/// Lay an execution's operator chain out as a span timeline.
/// The pipeline interleaves its operators batch-at-a-time, so exact
/// per-operator intervals don't exist; the children are placed
/// end-to-end by measured self time instead, preserving durations.
fn pipeline_span(p: &PipelineProfile, start_nanos: u64, total_nanos: u64) -> Span {
    let mut root = Span::leaf("pipeline", start_nanos, start_nanos + total_nanos);
    let mut at = start_nanos;
    for op in &p.ops {
        let end = at + op.nanos;
        root.children.push(Span::leaf(op.label(), at, end));
        at = end;
    }
    root
}

fn clause_op_kind(clause: &ClauseIr, join: Option<&JoinIr>) -> OpKind {
    if join.is_some() {
        return OpKind::HashJoin;
    }
    match clause {
        ClauseIr::For { .. } => OpKind::ForScan,
        ClauseIr::Let { .. } => OpKind::LetBind,
        ClauseIr::Where(_) => OpKind::Filter,
        ClauseIr::Count { .. } => OpKind::CountBind,
        ClauseIr::Window(_) => OpKind::WindowScan,
        ClauseIr::GroupBy(_) => OpKind::GroupConsume,
        ClauseIr::OrderBy(_) => OpKind::OrderBy,
    }
}

fn clause_op_detail(clause: &ClauseIr, join: Option<&JoinIr>) -> String {
    if let Some(j) = join {
        return j.key_desc.clone();
    }
    match clause {
        ClauseIr::OrderBy(ob) => match ob.limit {
            Some(k) => format!("limit={k}"),
            None => String::new(),
        },
        // A `for` over an index-annotated path advertises the access
        // path so `explain analyze` shows where tuples came from.
        ClauseIr::For { expr, .. } => match expr {
            Ir::Path(p) if p.access != AccessPathIr::Walk => {
                let name = match p.steps.first() {
                    Some(StepIr::Axis {
                        test: NodeTestIr::Name(q),
                        ..
                    }) => q.to_string(),
                    _ => "?".to_string(),
                };
                match &p.access {
                    AccessPathIr::IndexValueEq { child, .. } => {
                        format!("index scan //{name}[{child}=..]")
                    }
                    _ => format!("index scan //{name}"),
                }
            }
            _ => String::new(),
        },
        _ => String::new(),
    }
}

/// The pipeline root: one tuple with no bindings (the incoming frame).
struct Singleton {
    done: bool,
}

impl TupleSource for Singleton {
    fn next_batch(&mut self, _: &Interpreter, _: &mut Env) -> EngineResult<Option<Vec<Tuple>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(vec![Tuple::default()]))
    }
}

/// `for $v (at $i)? in e`: fan out one tuple per item. Resumable: a
/// half-expanded binding sequence carries over to the next batch, so a
/// million-item `for` still emits [`BATCH`]-sized batches.
struct ForScan<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    at_slot: Option<Slot>,
    ty: Option<&'p SeqTypeIr>,
    expr: &'p Ir,
    expr_eval: ExprEval<'p>,
    batch: std::vec::IntoIter<Tuple>,
    items: SequenceIntoIter,
    item_pos: i64,
    base: Tuple,
    input_done: bool,
}

impl TupleSource for ForScan<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let mut out = Vec::new();
        loop {
            for item in self.items.by_ref() {
                if let Some(ty) = self.ty {
                    let single = [item.clone()];
                    if !matches_seq_type(&single, ty) {
                        return Err(EngineError::dynamic(
                            ErrorCode::XPTY0004,
                            "for-binding value does not match its declared type",
                        ));
                    }
                }
                self.item_pos += 1;
                let mut t = self.base.clone();
                t.bind(self.slot, Sequence::One(item));
                if let Some(at) = self.at_slot {
                    t.bind(at, Sequence::one(self.item_pos));
                }
                out.push(t);
                if out.len() >= BATCH {
                    interp.dynamic.stats.add_tuples_produced(out.len() as u64);
                    self.expr_eval.flush(&interp.dynamic.stats);
                    return Ok(Some(out));
                }
            }
            match self.batch.next() {
                Some(base) => {
                    base.apply(env);
                    self.items = self.expr_eval.eval(self.expr, interp, env)?.into_iter();
                    self.item_pos = 0;
                    self.base = base;
                }
                None if self.input_done => {
                    interp.dynamic.stats.add_tuples_produced(out.len() as u64);
                    self.expr_eval.flush(&interp.dynamic.stats);
                    return Ok(if out.is_empty() { None } else { Some(out) });
                }
                None => match self.input.next_batch(interp, env)? {
                    Some(b) => self.batch = b.into_iter(),
                    None => self.input_done = true,
                },
            }
        }
    }
}

/// `let $v := e`: 1:1 streaming binder.
struct LetBind<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    ty: Option<&'p SeqTypeIr>,
    expr: &'p Ir,
    expr_eval: ExprEval<'p>,
}

impl TupleSource for LetBind<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(mut batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        for t in &mut batch {
            t.apply(env);
            let seq = self.expr_eval.eval(self.expr, interp, env)?;
            if let Some(ty) = self.ty {
                if !matches_seq_type(&seq, ty) {
                    return Err(EngineError::dynamic(
                        ErrorCode::XPTY0004,
                        "let-binding value does not match its declared type",
                    ));
                }
            }
            t.bind(self.slot, seq);
        }
        self.expr_eval.flush(&interp.dynamic.stats);
        Ok(Some(batch))
    }
}

/// `where e`: streaming filter.
struct Filter<'p> {
    input: BoxSource<'p>,
    cond: &'p Ir,
    expr_eval: ExprEval<'p>,
}

impl TupleSource for Filter<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for t in batch {
            t.apply(env);
            let v = self.expr_eval.eval(self.cond, interp, env)?;
            if effective_boolean_value(&v).map_err(EngineError::from)? {
                out.push(t);
            }
        }
        interp
            .dynamic
            .stats
            .add_tuples_pruned_filter((before - out.len()) as u64);
        self.expr_eval.flush(&interp.dynamic.stats);
        Ok(Some(out))
    }
}

// ──────────────────────── hash join ────────────────────────
//
// The join-unnesting rewrite (`crate::rewrite::detect_join_unnest`)
// marks a `let $m := for $y in SRC where KEY-pred return $y` clause or
// a `where some $y in SRC satisfies KEY-pred` clause whose SRC is
// independent of the enclosing bindings. The operator here replaces
// the per-tuple nested loop: SRC is materialized *once per FLWOR
// execution*, its key atoms bucketed by the canonical-key machinery of
// `crate::keys`, and each probing tuple does one hash lookup plus an
// exact verifying comparison per candidate. A predicate that is a
// conjunction of equalities (`$y/a = $a and $y/b = $b`) is one
// composite key: an item is bucketed under every combination of its
// conjuncts' atoms, and a candidate must match on every conjunct.
//
// Output is byte-identical to the nested plan, including errors:
//
// - The build is lazy (first probing tuple). Zero probing tuples never
//   evaluate SRC — exactly like the nested loop.
// - Bucket hits are *candidates only*: equal values always share a
//   canonical key, the converse is verified with the real `eq`, and
//   candidates are visited in build order, so a many-match `let` binds
//   its items in SRC order.
// - Comparisons that could *raise* never take the hash path. Atoms are
//   partitioned into comparison classes (string/untyped, the numeric
//   tower, boolean, date, dateTime); within one class `=`/`eq` is
//   total, across classes it can error. A build side that mixes
//   classes or raised evaluating any key, and any probing tuple whose
//   atoms fall outside the build's class or whose probe key raised,
//   fall back to a literal nested-loop scan of the materialized items —
//   same values, same errors, same error order as the nested plan
//   (including where `and` short-circuits past a raising conjunct).

/// Comparison classes: `=`/`eq` between two atoms of the same class
/// never raises, and value equality implies canonical-key equality.
const CLASS_STRING: u8 = 1 << 0;
const CLASS_NUMERIC: u8 = 1 << 1;
const CLASS_BOOLEAN: u8 = 1 << 2;
const CLASS_DATE: u8 = 1 << 3;
const CLASS_DATETIME: u8 = 1 << 4;

fn atom_class(v: &AtomicValue) -> u8 {
    match v {
        // Untyped atomics compare as strings against strings (both
        // comparison kinds), so they share the string class; against
        // any other class they cast — which can raise — so mixing
        // routes to the fallback scan.
        AtomicValue::String(_) | AtomicValue::Untyped(_) => CLASS_STRING,
        AtomicValue::Integer(_) | AtomicValue::Decimal(_) | AtomicValue::Double(_) => CLASS_NUMERIC,
        AtomicValue::Boolean(_) => CLASS_BOOLEAN,
        AtomicValue::Date(_) => CLASS_DATE,
        AtomicValue::DateTime(_) => CLASS_DATETIME,
    }
}

/// `eq` between two atoms of one comparison class (the only pairing
/// the class gate admits). NaN stays unequal to itself, matching both
/// comparison kinds.
fn atom_eq(a: &AtomicValue, b: &AtomicValue) -> bool {
    let a = untyped_to_string(a.clone());
    let b = untyped_to_string(b.clone());
    matches!(
        xqa_xdm::value_compare(&a, &b, xqa_xdm::CompOp::Eq),
        Ok(true)
    )
}

/// Existential match: any (probe atom, build atom) pair equal.
fn atoms_match(probe: &[AtomicValue], build: &[AtomicValue]) -> bool {
    probe.iter().any(|p| build.iter().any(|b| atom_eq(p, b)))
}

/// One side of a join key, atomized per conjunct (aligned with
/// [`JoinIr::keys`]).
type KeyTuple = Vec<Vec<AtomicValue>>;

/// A composite-key match: every conjunct matches existentially.
fn keys_match(probe: &KeyTuple, build: &KeyTuple) -> bool {
    probe.iter().zip(build).all(|(p, b)| atoms_match(p, b))
}

/// Most bucket keys one composite key tuple may fan out to (the
/// product of its conjuncts' atom counts). A tuple beyond it takes the
/// scan path rather than flooding the table; single-conjunct keys are
/// exempt, as their key count is just their atom count.
const MAX_COMPOSITE_KEYS: usize = 1024;

fn too_many_combinations(keys: &KeyTuple) -> bool {
    keys.len() > 1
        && keys
            .iter()
            .try_fold(1usize, |n, atoms| n.checked_mul(atoms.len()))
            .is_none_or(|n| n > MAX_COMPOSITE_KEYS)
}

/// Call `f` with every canonical bucket key of a key tuple: the cross
/// product of the conjuncts' atom keys, each terminated by a separator.
/// Equal tuples always produce equal strings; the converse may fail
/// (callers verify candidates with [`keys_match`]). A conjunct without
/// atoms yields no key — it can never compare equal.
fn composite_keys(keys: &[Vec<AtomicValue>], scratch: &mut String, f: &mut impl FnMut(&str)) {
    let Some((atoms, rest)) = keys.split_first() else {
        f(scratch);
        return;
    };
    let len = scratch.len();
    for a in atoms {
        atomic_key(a, scratch);
        scratch.push('\u{1f}');
        composite_keys(rest, scratch, f);
        scratch.truncate(len);
    }
}

/// The materialized build side of one hash join.
struct JoinTable {
    /// SRC items in evaluation order.
    items: Vec<Item>,
    /// Per item, the atomized key tuple (aligned with `items`;
    /// truncated and unused when `scan_only`).
    keys: Vec<KeyTuple>,
    /// Canonical composite key → ascending indices of items carrying it.
    buckets: HashMap<String, Vec<usize>>,
    /// Per conjunct, the union of every build atom's class bit.
    classes: Vec<u8>,
    /// Every probe must take the verbatim nested-loop scan: a build key
    /// raised, a conjunct's build atoms span comparison classes, or an
    /// item's composite key fans out past [`MAX_COMPOSITE_KEYS`].
    scan_only: bool,
}

/// The join annotation for clause `i`, if the rewrite attached one.
fn join_ir(f: &FlworIr, i: usize) -> Option<&JoinIr> {
    f.joins.get(i).and_then(Option::as_ref)
}

/// One side (`build` or `probe`) of every conjunct, evaluated against
/// the current env and atomized under each comparison's rules: a value
/// comparison admits at most one atom, a general comparison atomizes
/// the whole sequence. Stops at the first conjunct that raises.
fn eval_key_tuple(
    j: &JoinIr,
    side: fn(&JoinKeyIr) -> &Ir,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<KeyTuple> {
    j.keys
        .iter()
        .map(|k| {
            let seq = interp.eval(side(k), env)?;
            if k.value_comp {
                Ok(opt_atomic(&seq, "value comparison")?.into_iter().collect())
            } else {
                Ok(seq.iter().map(Item::atomize).collect())
            }
        })
        .collect()
}

/// Evaluate SRC and materialize the build table: key, classify and
/// bucket every item in SRC order, so each bucket's indices ascend.
///
/// A build key that raises (or fans out past [`MAX_COMPOSITE_KEYS`])
/// stops keying and makes the table scan-only. The error does not
/// surface here: whether and when it would in the nested plan depends
/// on the probe (a `some` stops at its first preceding match, an `and`
/// at its first false conjunct), so the per-probe scan re-raises it at
/// exactly the nested position.
fn build_join_table(j: &JoinIr, interp: &Interpreter, env: &mut Env) -> EngineResult<JoinTable> {
    let items: Vec<Item> = interp.eval(&j.build_src, env)?.into_iter().collect();
    let mut table = JoinTable {
        keys: Vec::with_capacity(items.len()),
        items,
        buckets: HashMap::new(),
        classes: vec![0; j.keys.len()],
        scan_only: false,
    };
    let mut scratch = String::new();
    for (idx, item) in table.items.iter().enumerate() {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        let keys = match eval_key_tuple(j, |k| &k.build, interp, env) {
            Ok(keys) if !too_many_combinations(&keys) => keys,
            _ => {
                table.scan_only = true;
                break;
            }
        };
        for (class, atoms) in table.classes.iter_mut().zip(&keys) {
            for a in atoms {
                *class |= atom_class(a);
            }
        }
        let buckets = &mut table.buckets;
        composite_keys(&keys, &mut scratch, &mut |key| match buckets.get_mut(key) {
            // One item may produce the same composite key twice; its
            // index is pushed once.
            Some(bucket) if bucket.last() == Some(&idx) => {}
            Some(bucket) => bucket.push(idx),
            None => {
                buckets.insert(key.to_owned(), vec![idx]);
            }
        });
        table.keys.push(keys);
    }
    if table.classes.iter().any(|c| c.count_ones() > 1) {
        table.scan_only = true;
    }
    interp
        .dynamic
        .stats
        .add_join_build_tuples(table.items.len() as u64);
    Ok(table)
}

/// The probe key tuple for the current tuple, or `None` when this
/// tuple must take the fallback scan: the table is scan-only, a probe
/// key raised (the nested plan raises it only if it is ever compared —
/// the scan replays exactly that), an atom falls outside its
/// conjunct's build class (a real pair comparison could raise), or the
/// composite key fans out past [`MAX_COMPOSITE_KEYS`].
fn probe_keys(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> Option<KeyTuple> {
    if table.scan_only {
        return None;
    }
    let keys = eval_key_tuple(j, |k| &k.probe, interp, env).ok()?;
    // A conjunct whose build atoms are all empty (class 0) can never
    // pair with anything: no comparison happens, so any probe atom is
    // safe there (and matches nothing).
    let in_class = keys
        .iter()
        .zip(&table.classes)
        .all(|(atoms, &class)| class == 0 || atoms.iter().all(|a| atom_class(a) == class));
    (in_class && !too_many_combinations(&keys)).then_some(keys)
}

/// Candidate build indices for a probe: the union of its composite
/// keys' buckets, ascending (build order) and deduplicated.
fn join_candidates(table: &JoinTable, keys: &KeyTuple) -> Vec<usize> {
    let mut cands: Vec<usize> = Vec::new();
    composite_keys(keys, &mut String::new(), &mut |key| {
        if let Some(bucket) = table.buckets.get(key) {
            cands.extend_from_slice(bucket);
        }
    });
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// One `let`-side probe: the matching build items in SRC order.
fn probe_let(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Sequence> {
    if table.items.is_empty() {
        // The nested loop iterates nothing and never touches the
        // probe-side expression.
        return Ok(Sequence::Empty);
    }
    let Some(keys) = probe_keys(j, table, interp, env) else {
        return scan_let(j, table, interp, env);
    };
    interp.dynamic.stats.add_join_hash_probes(1);
    let mut out = SequenceBuilder::new();
    for idx in join_candidates(table, &keys) {
        if keys_match(&keys, &table.keys[idx]) {
            out.push(table.items[idx].clone());
        }
    }
    Ok(out.build())
}

/// One semi-join probe: does any build item match?
fn probe_semi(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<bool> {
    if table.items.is_empty() {
        return Ok(false);
    }
    let Some(keys) = probe_keys(j, table, interp, env) else {
        return scan_semi(j, table, interp, env);
    };
    interp.dynamic.stats.add_join_hash_probes(1);
    Ok(join_candidates(table, &keys)
        .into_iter()
        .any(|idx| keys_match(&keys, &table.keys[idx])))
}

/// Verbatim replay of the nested `for $y in SRC where pred return $y`
/// loop over the materialized items: same values, same errors, same
/// error order (SRC is constructor-free, so materializing it once
/// preserves item — and node — identity).
fn scan_let(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<Sequence> {
    let mut out = SequenceBuilder::new();
    for item in &table.items {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        let v = interp.eval(&j.pred, env)?;
        if effective_boolean_value(&v).map_err(EngineError::from)? {
            out.push(item.clone());
        }
    }
    Ok(out.build())
}

/// Verbatim replay of `some $y in SRC satisfies pred`: first match
/// wins, and — exactly like the quantifier — an erroring predicate
/// only raises if no earlier item matched.
fn scan_semi(
    j: &JoinIr,
    table: &JoinTable,
    interp: &Interpreter,
    env: &mut Env,
) -> EngineResult<bool> {
    for item in &table.items {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        if interp.eval_ebv(&j.pred, env)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The hash-join operator: a streaming binder (`let` shape) or filter
/// (`some` shape) probing its build table. Each pipeline run lowers the
/// clause once, so the table lives exactly as long as the enclosing
/// bindings it was built under.
struct HashJoin<'p> {
    input: BoxSource<'p>,
    j: &'p JoinIr,
    /// Built on the first probe. A build error is kept and replayed on
    /// every later probe, as re-evaluating SRC would raise it again.
    table: Option<Result<JoinTable, EngineError>>,
}

impl TupleSource for HashJoin<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let j = self.j;
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for mut t in batch {
            t.apply(env);
            let table = self
                .table
                .get_or_insert_with(|| build_join_table(j, interp, env))
                .as_ref()
                .map_err(EngineError::clone)?;
            match &j.kind {
                JoinKindIr::LetMany { slot, ty } => {
                    let seq = probe_let(j, table, interp, env)?;
                    if let Some(ty) = ty {
                        if !matches_seq_type(&seq, ty) {
                            return Err(EngineError::dynamic(
                                ErrorCode::XPTY0004,
                                "let-binding value does not match its declared type",
                            ));
                        }
                    }
                    t.bind(*slot, seq);
                    out.push(t);
                }
                JoinKindIr::ExistsSemi => {
                    if probe_semi(j, table, interp, env)? {
                        out.push(t);
                    }
                }
            }
        }
        if matches!(j.kind, JoinKindIr::ExistsSemi) {
            interp
                .dynamic
                .stats
                .add_tuples_pruned_filter((before - out.len()) as u64);
        }
        Ok(Some(out))
    }
}

/// `count $v`: bind the 1-based ordinal at this pipeline point.
struct CountBind<'p> {
    input: BoxSource<'p>,
    slot: Slot,
    n: i64,
}

impl TupleSource for CountBind<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(mut batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        for t in &mut batch {
            self.n += 1;
            t.bind(self.slot, Sequence::one(self.n));
        }
        Ok(Some(batch))
    }
}

/// Window clause: delegates the boundary-condition machinery to the
/// materializing [`Interpreter::apply_window`] one input tuple at a
/// time, then converts the full-frame outputs back into deltas (only
/// the window slot and the condition-variable slots can have changed).
/// Windows are not a hot path; correctness over allocation thrift.
struct WindowScan<'p> {
    input: BoxSource<'p>,
    w: &'p WindowIr,
}

impl TupleSource for WindowScan<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        let Some(batch) = self.input.next_batch(interp, env)? else {
            return Ok(None);
        };
        let mut out = Vec::new();
        for t in batch {
            t.apply(env);
            let frame = env.slots.clone();
            let windows = interp.apply_window(self.w, vec![frame.clone()], env)?;
            // apply_window leaves the frame moved-out; restore it.
            env.slots = frame;
            for full in windows {
                let mut nt = t.clone();
                bind_from_frame(&mut nt, &full, self.w.slot);
                bind_cond_slots(&mut nt, &full, &self.w.start);
                if let Some(end) = &self.w.end {
                    bind_cond_slots(&mut nt, &full, end);
                }
                out.push(nt);
            }
        }
        interp.dynamic.stats.add_tuples_produced(out.len() as u64);
        Ok(Some(out))
    }
}

fn bind_from_frame(t: &mut Tuple, frame: &[Sequence], slot: Slot) {
    t.bind(slot, frame[slot].clone());
}

fn bind_cond_slots(t: &mut Tuple, frame: &[Sequence], cond: &WindowCondIr) {
    for slot in [
        cond.item_slot,
        cond.at_slot,
        cond.previous_slot,
        cond.next_slot,
    ]
    .into_iter()
    .flatten()
    {
        bind_from_frame(t, frame, slot);
    }
}

/// `group by ... nest ...`: pipeline breaker. Drains the input into a
/// hash aggregation ([`GroupIndex`], scratch-buffer key building), then
/// emits one tuple per group in first-appearance order.
struct GroupConsume<'p> {
    input: BoxSource<'p>,
    g: &'p GroupByIr,
    output: std::vec::IntoIter<Tuple>,
    consumed: bool,
}

struct GroupState {
    /// One key sequence per grouping variable.
    keys: Vec<Sequence>,
    /// The first member tuple (source of outer-variable values for the
    /// output tuple; pre-group slots in it are hidden by the compiler's
    /// §3.2 scope rule).
    base: Tuple,
    /// Collected nest entries: per nest binding, per member.
    nests: Vec<Vec<(OrderKeys, Sequence)>>,
}

impl GroupConsume<'_> {
    fn consume(&mut self, interp: &Interpreter, env: &mut Env) -> EngineResult<()> {
        let g = self.g;
        let stats = &interp.dynamic.stats;
        let has_using = g.keys.iter().any(|k| k.using.is_some());
        let mut groups: Vec<GroupState> = Vec::new();
        let mut index = GroupIndex::new();
        let mut scratch = String::new();
        let mut consumed = 0u64;

        while let Some(batch) = self.input.next_batch(interp, env)? {
            consumed += batch.len() as u64;
            for t in batch {
                t.apply(env);
                let mut key_vals: Vec<Sequence> = Vec::with_capacity(g.keys.len());
                for key in &g.keys {
                    key_vals.push(interp.eval(&key.expr, env)?);
                }
                let mut nest_vals: Vec<(OrderKeys, Sequence)> = Vec::with_capacity(g.nests.len());
                for nest in &g.nests {
                    let value = interp.eval(&nest.expr, env)?;
                    let okeys = match &nest.order_by {
                        Some(ob) => interp.order_keys(&ob.specs, env)?,
                        None => Vec::new(),
                    };
                    nest_vals.push((okeys, value));
                }

                let group_idx = if has_using {
                    // Custom equality (§3.3): linear scan with the
                    // user-supplied comparator for `using` keys and
                    // deep-equal for the rest.
                    let mut found = None;
                    'groups: for (gi, group) in groups.iter().enumerate() {
                        for (key, (stored, candidate)) in
                            g.keys.iter().zip(group.keys.iter().zip(&key_vals))
                        {
                            let equal = match key.using {
                                Some(fid) => {
                                    let result = interp.call_user_values(
                                        fid,
                                        vec![stored.clone(), candidate.clone()],
                                    )?;
                                    effective_boolean_value(&result).map_err(EngineError::from)?
                                }
                                None => deep_equal(stored, candidate),
                            };
                            if !equal {
                                continue 'groups;
                            }
                        }
                        found = Some(gi);
                        break;
                    }
                    found
                } else {
                    index
                        .find_or_insert_buf(&mut scratch, &key_vals, groups.len(), |i| {
                            groups[i].keys.as_slice()
                        })
                        .ok()
                };

                match group_idx {
                    Some(gi) => {
                        for (slot, entry) in groups[gi].nests.iter_mut().zip(nest_vals) {
                            slot.push(entry);
                        }
                    }
                    None => {
                        groups.push(GroupState {
                            keys: key_vals,
                            base: t,
                            nests: nest_vals.into_iter().map(|e| vec![e]).collect(),
                        });
                    }
                }
            }
        }

        stats.add_tuples_grouped(consumed);
        stats.add_groups_emitted(groups.len() as u64);

        self.output = emit_groups(g, groups)?.into_iter();
        Ok(())
    }
}

/// One output tuple per group, in first-appearance order (stable,
/// matching the materializing path): bind the key slots and the sorted,
/// concatenated nest sequences onto each group's base tuple.
fn emit_groups(g: &GroupByIr, groups: Vec<GroupState>) -> EngineResult<Vec<Tuple>> {
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        let mut t = group.base;
        for (key, vals) in g.keys.iter().zip(group.keys) {
            t.bind(key.slot, vals);
        }
        for (nest, mut entries) in g.nests.iter().zip(group.nests) {
            if let Some(ob) = &nest.order_by {
                sort_keyed(&mut entries, &ob.specs)?;
            }
            let mut seq = SequenceBuilder::new();
            for (_, vals) in entries {
                // Nest values concatenate into one flat sequence —
                // "merged and lose their individual identity" (§3.1).
                // A single-member nest adopts its value's storage whole.
                seq.append(vals);
            }
            t.bind(nest.slot, seq.build());
        }
        out.push(t);
    }
    Ok(out)
}

impl TupleSource for GroupConsume<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        if !self.consumed {
            self.consumed = true;
            self.consume(interp, env)?;
        }
        Ok(drain_batch(&mut self.output))
    }
}

/// `order by`: pipeline breaker. Full stable sort, or — when the top-k
/// rewrite set a limit — a bounded binary heap that keeps only the k
/// least tuples seen so far.
struct OrderBy<'p> {
    input: BoxSource<'p>,
    ob: &'p OrderByIr,
    output: std::vec::IntoIter<Tuple>,
    consumed: bool,
}

impl OrderBy<'_> {
    fn consume(&mut self, interp: &Interpreter, env: &mut Env) -> EngineResult<()> {
        let specs = &self.ob.specs;
        let sorted = match self.ob.limit {
            Some(k) => {
                let mut heap = TopKHeap::new(specs, k);
                let mut pruned = 0u64;
                let mut seq = 0usize;
                while let Some(batch) = self.input.next_batch(interp, env)? {
                    for t in batch {
                        t.apply(env);
                        let keys = interp.order_keys(specs, env)?;
                        // An offer against a full heap prunes exactly one
                        // tuple: the newcomer (rejected) or an eviction.
                        let was_full = heap.saturated();
                        heap.offer(keys, seq, t)?;
                        seq += 1;
                        if was_full {
                            pruned += 1;
                        }
                    }
                }
                interp.dynamic.stats.add_tuples_pruned_topk(pruned);
                heap.into_sorted()?
            }
            None => {
                let mut keyed: Vec<(OrderKeys, Tuple)> = Vec::new();
                while let Some(batch) = self.input.next_batch(interp, env)? {
                    for t in batch {
                        t.apply(env);
                        let keys = interp.order_keys(specs, env)?;
                        keyed.push((keys, t));
                    }
                }
                sort_keyed(&mut keyed, specs)?;
                keyed.into_iter().map(|(_, t)| t).collect()
            }
        };
        self.output = sorted.into_iter();
        Ok(())
    }
}

impl TupleSource for OrderBy<'_> {
    fn next_batch(
        &mut self,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<Option<Vec<Tuple>>> {
        if !self.consumed {
            self.consumed = true;
            self.consume(interp, env)?;
        }
        Ok(drain_batch(&mut self.output))
    }
}

/// Emit up to [`BATCH`] tuples from a breaker's buffered output.
fn drain_batch(output: &mut std::vec::IntoIter<Tuple>) -> Option<Vec<Tuple>> {
    let mut out = Vec::with_capacity(BATCH.min(output.len()));
    for t in output.by_ref() {
        out.push(t);
        if out.len() >= BATCH {
            break;
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// A bounded max-heap of the k least `(keys, tag)` entries, with a
/// *fallible* comparator (order keys of mixed type raise `XPTY0004`,
/// which `std::collections::BinaryHeap` cannot propagate — hence the
/// hand-rolled sift loops). The [`Tag`] breaks ties by input order, so
/// the survivors are exactly the first k of a full stable sort.
struct TopKHeap<'p> {
    specs: &'p [OrderSpecIr],
    k: usize,
    /// Max-heap: `entries[0]` is the greatest survivor.
    entries: Vec<(OrderKeys, Tag, Tuple)>,
}

impl<'p> TopKHeap<'p> {
    fn new(specs: &'p [OrderSpecIr], k: usize) -> Self {
        TopKHeap {
            specs,
            k,
            entries: Vec::with_capacity(k.min(1024)),
        }
    }

    /// Whether the heap is full (every further offer prunes a tuple).
    fn saturated(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// Is entry `a` strictly greater than `b` under (keys, tag)?
    fn greater(
        &self,
        a: &(OrderKeys, Tag, Tuple),
        b: &(OrderKeys, Tag, Tuple),
    ) -> EngineResult<bool> {
        Ok(match compare_order_keys(&a.0, &b.0, self.specs)? {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => a.1 > b.1,
        })
    }

    /// Offer a tuple; returns whether it was kept.
    fn offer(&mut self, keys: OrderKeys, tag: Tag, tuple: Tuple) -> EngineResult<bool> {
        let entry = (keys, tag, tuple);
        if self.k == 0 {
            return Ok(false);
        }
        if self.entries.len() < self.k {
            self.entries.push(entry);
            self.sift_up(self.entries.len() - 1)?;
            return Ok(true);
        }
        if self.greater(&entry, &self.entries[0])? {
            // Not among the k least: reject.
            return Ok(false);
        }
        self.entries[0] = entry;
        self.sift_down(0)?;
        Ok(true)
    }

    fn sift_up(&mut self, mut i: usize) -> EngineResult<()> {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.greater(&self.entries[i], &self.entries[parent])? {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn sift_down(&mut self, mut i: usize) -> EngineResult<()> {
        let n = self.entries.len();
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && self.greater(&self.entries[child], &self.entries[largest])? {
                    largest = child;
                }
            }
            if largest == i {
                return Ok(());
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }

    /// The surviving tuples in ascending (keys, tag) order.
    fn into_sorted(self) -> EngineResult<Vec<Tuple>> {
        let specs = self.specs;
        let mut entries = self.entries;
        sort_tagged(&mut entries, specs)?;
        Ok(entries.into_iter().map(|(_, _, t)| t).collect())
    }
}

/// Stable sort of tagged entries by (order keys, tag), capturing the
/// first comparator failure instead of unwinding mid-sort.
fn sort_tagged(entries: &mut [(OrderKeys, Tag, Tuple)], specs: &[OrderSpecIr]) -> EngineResult<()> {
    let mut failure: Option<EngineError> = None;
    entries.sort_by(|a, b| {
        if failure.is_some() {
            return Ordering::Equal;
        }
        match compare_order_keys(&a.0, &b.0, specs) {
            Ok(Ordering::Equal) => a.1.cmp(&b.1),
            Ok(ord) => ord,
            Err(e) => {
                failure = Some(e);
                Ordering::Equal
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The pipeline sink: pulls tuples, binds the §4 output ordinal
/// (`return at $rank`, numbered *after* any order by) and evaluates the
/// return expression per tuple.
struct ReturnAt<'p> {
    at: Option<Slot>,
    expr: &'p Ir,
}

/// What the sink consumed: the operator-level counters for `ReturnAt`'s
/// row in the profile.
#[derive(Debug, Default, Clone, Copy)]
struct SinkStats {
    batches: u64,
    tuples: u64,
}

impl ReturnAt<'_> {
    /// Pull every batch, evaluate the return expression per tuple into
    /// one `Sequence` per batch, and hand each non-empty one to `sink`
    /// as soon as its batch is processed — so a streamed run's first
    /// result bytes leave before later batches are pulled.
    fn drain(
        &self,
        mut source: BoxSource<'_>,
        interp: &Interpreter,
        env: &mut Env,
        sink: &mut dyn FnMut(Sequence) -> EngineResult<()>,
    ) -> EngineResult<SinkStats> {
        let mut stats = SinkStats::default();
        let mut ordinal = 0i64;
        while let Some(batch) = source.next_batch(interp, env)? {
            stats.batches += 1;
            stats.tuples += batch.len() as u64;
            let mut out = SequenceBuilder::new();
            for t in batch {
                t.apply(env);
                ordinal += 1;
                if let Some(at) = self.at {
                    env.slots[at] = Sequence::one(ordinal);
                }
                out.append(interp.eval(self.expr, env)?);
            }
            let part = out.build();
            if !part.is_empty() {
                sink(part)?;
            }
        }
        Ok(stats)
    }
}
