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
use crate::context::{EvalStats, Focus};
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
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use xqa_xdm::sequence::SequenceIntoIter;
use xqa_xdm::{
    deep_equal, effective_boolean_value, AtomicValue, ErrorCode, Item, Sequence, SequenceBuilder,
};

use crate::flwor::{compare_order_keys, sort_keyed, OrderKeys};

/// Tuples per batch. Large enough to amortize the virtual `next_batch`
/// call, small enough that a streaming chain stays cache-resident.
pub(crate) const BATCH: usize = 64;

/// Items per morsel: the unit of work claimed by parallel workers from
/// the outermost `for` binding sequence. Large enough that a claim (one
/// atomic increment plus a slice copy) is noise, small enough to
/// load-balance skewed per-item work across threads.
pub(crate) const MORSEL: usize = 1024;

/// Global position of a tuple in the serial stream: (morsel index,
/// emission ordinal within the morsel). Morsels are contiguous chunks
/// and each morsel's chain runs serially, so sorting by tag restores
/// exactly the serial tuple order — the stable-sort / first-appearance
/// tie-breaking the serial path gets for free.
type Tag = (usize, usize);

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

/// Evaluate a FLWOR through the streaming pipeline. When profiling is
/// enabled on the dynamic context, every operator is wrapped in an
/// [`Instrumented`] decorator and the measured chain is recorded into
/// the context's profiler after the run.
///
/// A parallel-eligible chain (see [`crate::ir::parallel_eligible`])
/// running where more than one thread is available evaluates the outer
/// `for` binding sequence up front: inputs larger than one [`MORSEL`]
/// go to the morsel-parallel executor, smaller ones feed the already
/// evaluated items through the ordinary serial chain.
pub(crate) fn run(interp: &Interpreter, f: &FlworIr, env: &mut Env) -> EngineResult<Sequence> {
    debug_assert_eq!(f.plan.len(), f.clauses.len());
    if f.parallel && interp.parallel_ok {
        let threads = crate::resolve_threads(interp.query.threads);
        if threads > 1 {
            let items = eval_outer_for(interp, f, env)?;
            if items.len() > MORSEL {
                return run_parallel(interp, f, env, items, threads);
            }
            return run_serial(interp, f, env, Some(items));
        }
    }
    run_serial(interp, f, env, None)
}

/// Evaluate a parallel-eligible FLWOR's outer `for` binding sequence up
/// front, through the same [`ExprEval`] (and so the same counters) the
/// serial chain's `ForScan` would use — the evaluation counts must not
/// depend on the thread count.
fn eval_outer_for(interp: &Interpreter, f: &FlworIr, env: &mut Env) -> EngineResult<Sequence> {
    let ClauseIr::For { expr, .. } = &f.clauses[0] else {
        unreachable!("parallel-eligible FLWOR starts with a for clause");
    };
    let mut expr_eval = ExprEval::new(flwor_plan(f, 0));
    let items = expr_eval.eval(expr, interp, env);
    expr_eval.flush(interp.stats);
    items
}

/// The single-threaded pipeline: the exact legacy execution path. When
/// `seed` carries an already evaluated outer binding sequence (the
/// too-small-to-split parallel fallback), the outermost `ForScan`
/// starts pre-seeded instead of evaluating its expression again.
fn run_serial(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    mut seed: Option<Sequence>,
) -> EngineResult<Sequence> {
    let profiler = interp.dynamic.profiler().cloned();
    let mut counters: Vec<Rc<OpCounters>> = Vec::new();
    let cells = join_cells(f);
    let mut source: BoxSource = Box::new(Singleton { done: false });
    for (i, clause) in f.clauses.iter().enumerate() {
        source = match (i, seed.take(), clause) {
            (
                0,
                Some(items),
                ClauseIr::For {
                    slot,
                    at_slot,
                    ty,
                    expr,
                },
            ) => Box::new(ForScan {
                input: source,
                slot: *slot,
                at_slot: *at_slot,
                ty: ty.as_ref(),
                expr,
                expr_eval: ExprEval::new(flwor_plan(f, 0)),
                batch: Vec::new().into_iter(),
                items: items.into_iter(),
                item_pos: 0,
                base: Tuple::default(),
                input_done: true,
            }),
            (_, _, clause) => {
                clause_source(clause, flwor_plan(f, i), join_at(f, &cells, i), source)
            }
        };
        if profiler.is_some() {
            let c = Rc::new(OpCounters::default());
            counters.push(Rc::clone(&c));
            source = Box::new(Instrumented {
                input: source,
                counters: c,
            });
        }
    }
    let sink = ReturnAt {
        at: f.return_at,
        expr: &f.return_expr,
    };
    match profiler {
        None => sink.execute(source, interp, env).map(|(seq, _)| seq),
        Some(profiler) => {
            let clock = Arc::clone(interp.dynamic.clock());
            let start = clock.now_nanos();
            let (seq, sink_stats) = sink.execute(source, interp, env)?;
            let total = clock.now_nanos().saturating_sub(start);
            let p = build_profile(f, &counters, sink_stats, total);
            profiler.add_span(serial_span(&p, start, total));
            profiler.record(p);
            Ok(seq)
        }
    }
}

/// Batch sink for the streaming execution path: receives each
/// non-empty result batch in pipeline order. An `Err` aborts the run
/// (used by the serving layer to propagate socket write failures).
pub(crate) type EmitBatch<'e> = dyn FnMut(&[Item]) -> EngineResult<()> + 'e;

/// Streaming twin of [`run`]: instead of materializing the full result
/// `Sequence`, each pipeline batch's return-expression output is handed
/// to `emit` as soon as the batch is pulled. Returns the total number
/// of items emitted.
///
/// The morsel-parallel executor's deterministic merges need the whole
/// result before anything can be emitted in order, so the parallel path
/// materializes exactly as [`run`] does and then feeds the merged
/// sequence out in [`BATCH`]-sized chunks — the emitted bytes match the
/// serial path either way.
pub(crate) fn run_streaming(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    emit: &mut EmitBatch,
) -> EngineResult<u64> {
    debug_assert_eq!(f.plan.len(), f.clauses.len());
    if f.parallel && interp.parallel_ok {
        let threads = crate::resolve_threads(interp.query.threads);
        if threads > 1 {
            let items = eval_outer_for(interp, f, env)?;
            if items.len() > MORSEL {
                let seq = run_parallel(interp, f, env, items, threads)?;
                return emit_sequence(&seq, emit);
            }
            return run_serial_stream(interp, f, env, Some(items), emit);
        }
    }
    run_serial_stream(interp, f, env, None, emit)
}

/// Feed an already materialized sequence through `emit` in
/// [`BATCH`]-sized chunks. Used wherever a streaming caller hits a
/// path that must materialize (parallel merges, non-FLWOR bodies).
pub(crate) fn emit_sequence(seq: &Sequence, emit: &mut EmitBatch) -> EngineResult<u64> {
    for chunk in seq.chunks(BATCH) {
        if !chunk.is_empty() {
            emit(chunk)?;
        }
    }
    Ok(seq.len() as u64)
}

/// Streaming twin of [`run_serial`]: identical operator chain and
/// profiling, but the sink emits per-batch instead of building one
/// `Sequence`.
fn run_serial_stream(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    mut seed: Option<Sequence>,
    emit: &mut EmitBatch,
) -> EngineResult<u64> {
    let profiler = interp.dynamic.profiler().cloned();
    let mut counters: Vec<Rc<OpCounters>> = Vec::new();
    let cells = join_cells(f);
    let mut source: BoxSource = Box::new(Singleton { done: false });
    for (i, clause) in f.clauses.iter().enumerate() {
        source = match (i, seed.take(), clause) {
            (
                0,
                Some(items),
                ClauseIr::For {
                    slot,
                    at_slot,
                    ty,
                    expr,
                },
            ) => Box::new(ForScan {
                input: source,
                slot: *slot,
                at_slot: *at_slot,
                ty: ty.as_ref(),
                expr,
                expr_eval: ExprEval::new(flwor_plan(f, 0)),
                batch: Vec::new().into_iter(),
                items: items.into_iter(),
                item_pos: 0,
                base: Tuple::default(),
                input_done: true,
            }),
            (_, _, clause) => {
                clause_source(clause, flwor_plan(f, i), join_at(f, &cells, i), source)
            }
        };
        if profiler.is_some() {
            let c = Rc::new(OpCounters::default());
            counters.push(Rc::clone(&c));
            source = Box::new(Instrumented {
                input: source,
                counters: c,
            });
        }
    }
    let sink = ReturnAt {
        at: f.return_at,
        expr: &f.return_expr,
    };
    match profiler {
        None => sink.stream(source, interp, env, emit).map(|(n, _)| n),
        Some(profiler) => {
            let clock = Arc::clone(interp.dynamic.clock());
            let start = clock.now_nanos();
            let (items, sink_stats) = sink.stream(source, interp, env, emit)?;
            let total = clock.now_nanos().saturating_sub(start);
            let p = build_profile(f, &counters, sink_stats, total);
            profiler.add_span(serial_span(&p, start, total));
            profiler.record(p);
            Ok(items)
        }
    }
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
/// its nested form; `join` carries the annotation plus the run-scoped
/// build-table cell shared by every lowering of the same clause.
fn clause_source<'p>(
    clause: &'p ClauseIr,
    plan: Option<&'p ExprPlan>,
    join: Option<(&'p JoinIr, JoinCell)>,
    input: BoxSource<'p>,
) -> BoxSource<'p> {
    if let Some((j, cell)) = join {
        return Box::new(HashJoin {
            input,
            j,
            cell,
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
    PipelineProfile {
        executions: 1,
        workers: 1,
        ops,
    }
}

/// Lay a serial execution's operator chain out as a span timeline.
/// The pipeline interleaves its operators batch-at-a-time, so exact
/// per-operator intervals don't exist; the children are placed
/// end-to-end by measured self time instead, preserving durations.
fn serial_span(p: &PipelineProfile, start_nanos: u64, total_nanos: u64) -> Span {
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
                    interp.stats.add_tuples_produced(out.len() as u64);
                    self.expr_eval.flush(interp.stats);
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
                    interp.stats.add_tuples_produced(out.len() as u64);
                    self.expr_eval.flush(interp.stats);
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
        self.expr_eval.flush(interp.stats);
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
            .stats
            .add_tuples_pruned_filter((before - out.len()) as u64);
        self.expr_eval.flush(interp.stats);
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

/// The per-run, per-clause build cell. Serial runs own one privately;
/// parallel runs share it across workers, so whichever worker probes
/// first builds and the rest (and the coordinator's replay chain)
/// reuse the table — or replay the build's error.
type JoinCell = Arc<OnceLock<Result<Arc<JoinTable>, EngineError>>>;

/// One cell per clause carrying a join annotation, created per
/// pipeline execution (enclosing bindings are fixed for the duration
/// of one `run`, so the table is reusable exactly within it).
fn join_cells(f: &FlworIr) -> Vec<Option<JoinCell>> {
    f.joins
        .iter()
        .map(|j| j.as_ref().map(|_| JoinCell::default()))
        .collect()
}

/// The join annotation + cell for clause `i`, if the rewrite attached
/// one (the argument `clause_source` consumes).
fn join_at<'p>(
    f: &'p FlworIr,
    cells: &[Option<JoinCell>],
    i: usize,
) -> Option<(&'p JoinIr, JoinCell)> {
    let j = f.joins.get(i)?.as_ref()?;
    let cell = cells.get(i)?.clone()?;
    Some((j, cell))
}

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

/// A run of build items keyed and bucketed (with global indices): the
/// unit of work of the serial build and of each parallel build worker.
struct KeyedItems {
    keys: Vec<KeyTuple>,
    buckets: HashMap<String, Vec<usize>>,
    classes: Vec<u8>,
    /// Keying stopped early: the table must be scan-only. A key that
    /// raises does not surface here — whether and when it would have in
    /// the nested plan depends on the probe (a `some` stops at its
    /// first preceding match, an `and` at its first false conjunct), so
    /// the per-probe scan re-raises it at exactly the nested position.
    scan_only: bool,
}

/// Key, classify and bucket `items`, whose first element has global
/// index `base`.
fn key_items(
    j: &JoinIr,
    interp: &Interpreter,
    env: &mut Env,
    items: &[Item],
    base: usize,
) -> KeyedItems {
    let mut out = KeyedItems {
        keys: Vec::with_capacity(items.len()),
        buckets: HashMap::new(),
        classes: vec![0; j.keys.len()],
        scan_only: false,
    };
    let mut scratch = String::new();
    for (off, item) in items.iter().enumerate() {
        env.slots[j.build_slot] = Sequence::One(item.clone());
        let keys = match eval_key_tuple(j, |k| &k.build, interp, env) {
            Ok(keys) if !too_many_combinations(&keys) => keys,
            _ => {
                out.scan_only = true;
                break;
            }
        };
        for (class, atoms) in out.classes.iter_mut().zip(&keys) {
            for a in atoms {
                *class |= atom_class(a);
            }
        }
        let idx = base + off;
        composite_keys(
            &keys,
            &mut scratch,
            &mut |key| match out.buckets.get_mut(key) {
                // One item may produce the same composite key twice; its
                // index is pushed once.
                Some(bucket) if bucket.last() == Some(&idx) => {}
                Some(bucket) => bucket.push(idx),
                None => {
                    out.buckets.insert(key.to_owned(), vec![idx]);
                }
            },
        );
        out.keys.push(keys);
    }
    out
}

/// Evaluate SRC and materialize the build table. With `threads > 1`
/// and more than one morsel of items, the items are chunked across
/// scoped worker threads that key their chunk, then the chunks merge
/// in order — per-key index lists stay ascending, so probe results are
/// identical to the serial build.
fn build_join_table(
    j: &JoinIr,
    interp: &Interpreter,
    env: &mut Env,
    threads: usize,
) -> EngineResult<JoinTable> {
    let src = interp.eval(&j.build_src, env)?;
    let items: Vec<Item> = src.into_iter().collect();
    let parts = if threads <= 1 || items.len() <= MORSEL {
        vec![key_items(j, interp, env, &items, 0)]
    } else {
        let chunk = items.len().div_ceil(threads);
        let worker_stats: Vec<EvalStats> = (0..items.len().div_ceil(chunk))
            .map(|_| EvalStats::default())
            .collect();
        let parts = std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .zip(&worker_stats)
                .enumerate()
                .map(|(ci, (chunk_items, ws))| {
                    let winterp = interp.fork(ws);
                    let mut wenv = Env {
                        slots: env.slots.clone(),
                        focus: env.focus.clone(),
                    };
                    s.spawn(move || key_items(j, &winterp, &mut wenv, chunk_items, ci * chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join build worker panicked"))
                .collect()
        });
        for ws in &worker_stats {
            interp.stats.add_snapshot(&ws.snapshot());
        }
        parts
    };
    let mut table = JoinTable {
        keys: Vec::with_capacity(items.len()),
        items,
        buckets: HashMap::new(),
        classes: vec![0; j.keys.len()],
        scan_only: false,
    };
    for part in parts {
        for (class, c) in table.classes.iter_mut().zip(&part.classes) {
            *class |= c;
        }
        table.keys.extend(part.keys);
        if table.buckets.is_empty() {
            table.buckets = part.buckets;
        } else {
            for (key, idxs) in part.buckets {
                table.buckets.entry(key).or_default().extend(idxs);
            }
        }
        if part.scan_only {
            // Scan-only regardless of which chunk noticed first: the
            // flag depends only on the (deterministic) key values.
            table.scan_only = true;
            break;
        }
    }
    if table.classes.iter().any(|c| c.count_ones() > 1) {
        table.scan_only = true;
    }
    interp.stats.add_join_build_tuples(table.items.len() as u64);
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
    interp.stats.add_join_hash_probes(1);
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
    interp.stats.add_join_hash_probes(1);
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
/// (`some` shape) probing the shared build table.
struct HashJoin<'p> {
    input: BoxSource<'p>,
    j: &'p JoinIr,
    cell: JoinCell,
    /// Resolved handle, cached after the first probe.
    table: Option<Arc<JoinTable>>,
}

impl HashJoin<'_> {
    /// The build table, building it on first use (and replaying the
    /// build's error on every later probe, as re-evaluating SRC would).
    fn table(&mut self, interp: &Interpreter, env: &mut Env) -> EngineResult<Arc<JoinTable>> {
        if let Some(t) = &self.table {
            return Ok(Arc::clone(t));
        }
        let built = self
            .cell
            .get_or_init(|| build_join_table(self.j, interp, env, 1).map(Arc::new))
            .clone()?;
        self.table = Some(Arc::clone(&built));
        Ok(built)
    }
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
        let before = batch.len();
        let mut out = Vec::with_capacity(before);
        for mut t in batch {
            t.apply(env);
            let table = self.table(interp, env)?;
            match &self.j.kind {
                JoinKindIr::LetMany { slot, ty } => {
                    let seq = probe_let(self.j, &table, interp, env)?;
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
                    if probe_semi(self.j, &table, interp, env)? {
                        out.push(t);
                    }
                }
            }
        }
        if matches!(self.j.kind, JoinKindIr::ExistsSemi) {
            interp
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
        interp.stats.add_tuples_produced(out.len() as u64);
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
        let stats = &interp.stats;
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
                        heap.offer(keys, (0, seq), t)?;
                        seq += 1;
                        if was_full {
                            pruned += 1;
                        }
                    }
                }
                interp.stats.add_tuples_pruned_topk(pruned);
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
/// hand-rolled sift loops). The [`Tag`] breaks ties by global input
/// order, so the survivors are exactly the first k of a full stable
/// sort — on the serial path tags are `(0, seq)`, in a parallel worker
/// they carry the morsel index.
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

    /// The raw surviving entries (the parallel merge sorts them with the
    /// other workers' survivors before dropping the tags).
    fn into_entries(self) -> Vec<(OrderKeys, Tag, Tuple)> {
        self.entries
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

// ──────────────────── morsel-driven parallelism ────────────────────
//
// A parallel-eligible chain (outer `for`, then only tuple-local
// streaming clauses up to at most one breaker) is split at the breaker:
// workers claim [`MORSEL`]-sized chunks of the outer binding sequence
// from a shared atomic counter and run their own clone of the streaming
// chain into a *partitioned* breaker state (per-worker hash tables or
// top-k heaps). The coordinator merges the partials back into the exact
// serial tuple order — every tuple carries a [`Tag`] — and feeds any
// clauses after the breaker, plus the `return` sink, serially.

/// A per-worker group: [`GroupState`] plus the tags the merge needs to
/// restore serial first-appearance order and per-group nest order.
struct WGroup {
    keys: Vec<Sequence>,
    base: Tuple,
    /// Tag of the group's first member seen by this worker; the merged
    /// group keeps the base/keys of the globally smallest tag.
    first: Tag,
    /// Per nest binding, per member: tagged so merged entries can be
    /// re-sorted into serial arrival order before any nest `order by`.
    nests: Vec<Vec<(Tag, OrderKeys, Sequence)>>,
}

/// What one worker hands back to the coordinator.
enum WorkerOutput {
    /// No breaker, no `return at`: fully evaluated per-morsel output
    /// fragments, keyed by morsel index for ordered concatenation.
    Seqs(Vec<(usize, Sequence)>),
    /// No breaker but `return at $rank`: tagged tuples; ranks are
    /// assigned by the serial sink after the order-restoring merge.
    Tuples(Vec<(Tag, Tuple)>),
    /// Partitioned hash aggregation for a `group by` breaker.
    Groups(Vec<WGroup>),
    /// Locally sorted run (or top-k survivors) for an `order by`.
    Runs(Vec<(OrderKeys, Tag, Tuple)>),
}

/// A plain-data snapshot of one [`OpCounters`] (`Rc` is not `Send`, so
/// workers snapshot before returning).
#[derive(Debug, Clone, Copy, Default)]
struct CounterSnap {
    batches: u64,
    tuples_out: u64,
    cum_nanos: u64,
}

/// Everything a worker thread reports back.
struct WorkerReport {
    /// The partial output, or the first error with the index of the
    /// morsel that raised it (the coordinator keeps the smallest).
    output: Result<WorkerOutput, (usize, EngineError)>,
    /// Per-chain-operator counter snapshots (empty when not profiling).
    counters: Vec<CounterSnap>,
    /// Wall time this worker spent in its claim loop (0 when not
    /// profiling — no clock reads off the profiled path).
    loop_nanos: u64,
    /// The loop's (start, end) readings on the shared profiling clock,
    /// for the span timeline (`None` when not profiling).
    loop_span: Option<(u64, u64)>,
}

/// A worker's breaker-side accumulator, chosen from the clause at the
/// split point.
enum Acc<'p> {
    Seqs(Vec<(usize, Sequence)>),
    Tuples(Vec<(Tag, Tuple)>),
    Groups {
        g: &'p GroupByIr,
        groups: Vec<WGroup>,
        index: GroupIndex,
        scratch: String,
        consumed: u64,
    },
    TopK {
        heap: TopKHeap<'p>,
        pruned: u64,
    },
    Runs {
        entries: Vec<(OrderKeys, Tag, Tuple)>,
        specs: &'p [OrderSpecIr],
    },
}

/// Coordinator-side source replaying merged breaker output into the
/// clauses after the split point (and the sink).
struct Replay {
    output: std::vec::IntoIter<Tuple>,
}

impl TupleSource for Replay {
    fn next_batch(&mut self, _: &Interpreter, _: &mut Env) -> EngineResult<Option<Vec<Tuple>>> {
        Ok(drain_batch(&mut self.output))
    }
}

/// Morsel-parallel execution of an eligible FLWOR over an already
/// evaluated outer binding sequence.
fn run_parallel(
    interp: &Interpreter,
    f: &FlworIr,
    env: &mut Env,
    items: Sequence,
    threads: usize,
) -> EngineResult<Sequence> {
    // The split point: the first breaker, or the whole chain. Clauses
    // after the breaker (and the sink) run serially on the merged,
    // serial-order stream, so they need no eligibility restrictions of
    // their own.
    let cut = f
        .clauses
        .iter()
        .position(|c| matches!(c, ClauseIr::GroupBy(_) | ClauseIr::OrderBy(_)))
        .unwrap_or(f.clauses.len());
    let morsel_count = items.len().div_ceil(MORSEL);
    let workers = threads.min(morsel_count);
    let cells = join_cells(f);
    // Pre-build a join table sitting directly behind the outer `for`
    // with the morsel-partitioned parallel build. Safe to build eagerly
    // only there: the outer binding has items (> MORSEL) and an
    // untyped `for` cannot raise before its first tuple probes, so the
    // build side is certain to be evaluated; behind any later clause a
    // filter or a raising expression could mean it never is, and those
    // joins stay lazy (first probing worker builds into the shared
    // cell).
    if let Some(j) = join_ir(f, 1) {
        if matches!(&f.clauses[0], ClauseIr::For { ty: None, .. }) {
            if let Some(cell) = cells[1].as_ref() {
                let built = build_join_table(j, interp, env, threads).map(Arc::new);
                let _ = cell.set(built);
            }
        }
    }
    let profiler = interp.dynamic.profiler().cloned();
    let profiling = profiler.is_some();
    let clock = profiling.then(|| Arc::clone(interp.dynamic.clock()));
    let total_start = clock.as_ref().map(|c| c.now_nanos());

    let next = AtomicUsize::new(0);
    let error_floor = AtomicUsize::new(usize::MAX);
    // One private stats sink per worker, merged once after the join:
    // a single `add_snapshot` call per worker per query instead of
    // contended per-batch atomics on the shared sink.
    let worker_stats: Vec<EvalStats> = (0..workers).map(|_| EvalStats::default()).collect();
    let items_ref: &[Item] = &items;
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for ws in &worker_stats {
            // Interpreter is Send but not Sync (its recursion-depth
            // Cell): fork on the coordinator, move into the thread.
            let winterp = interp.fork(ws);
            let wslots = env.slots.clone();
            let wfocus = env.focus.clone();
            let next = &next;
            let error_floor = &error_floor;
            let cells = &cells;
            handles.push(s.spawn(move || {
                run_worker(
                    winterp,
                    f,
                    cut,
                    items_ref,
                    morsel_count,
                    next,
                    error_floor,
                    wslots,
                    wfocus,
                    profiling,
                    cells,
                )
            }));
        }
        for h in handles {
            reports.push(h.join().expect("parallel pipeline worker panicked"));
        }
    });
    for ws in &worker_stats {
        interp.stats.add_snapshot(&ws.snapshot());
    }

    let mut outputs: Vec<WorkerOutput> = Vec::with_capacity(workers);
    let mut snaps: Vec<Vec<CounterSnap>> = Vec::with_capacity(workers);
    let mut worker_loop_nanos = 0u64;
    let mut worker_spans: Vec<Span> = Vec::new();
    let mut first_error: Option<(usize, EngineError)> = None;
    for (wid, r) in reports.into_iter().enumerate() {
        worker_loop_nanos += r.loop_nanos;
        if let Some((s, e)) = r.loop_span {
            worker_spans.push(Span {
                name: "worker".to_string(),
                start_nanos: s,
                end_nanos: e,
                worker: Some(wid as u64),
                children: Vec::new(),
            });
        }
        snaps.push(r.counters);
        match r.output {
            Ok(o) => outputs.push(o),
            // Keep the error from the smallest morsel index: tuple
            // results are independent, so that is exactly the error the
            // serial pipeline would have raised first.
            Err((m, e)) => match &first_error {
                Some((fm, _)) if *fm <= m => {}
                _ => first_error = Some((m, e)),
            },
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    let merge_start = clock.as_ref().map(|c| c.now_nanos());

    if cut == f.clauses.len() && f.return_at.is_none() {
        // Fully streamed: concatenate per-morsel fragments in order.
        let mut frags: Vec<(usize, Sequence)> = Vec::new();
        for o in outputs {
            let WorkerOutput::Seqs(v) = o else {
                unreachable!("worker output mode mismatch");
            };
            frags.extend(v);
        }
        frags.sort_unstable_by_key(|(m, _)| *m);
        let mut out = SequenceBuilder::new();
        for (_, frag) in frags {
            out.append(frag);
        }
        let out = out.build();
        if let (Some(profiler), Some(clock), Some(start)) = (&profiler, &clock, total_start) {
            let merge_nanos = clock
                .now_nanos()
                .saturating_sub(merge_start.unwrap_or_default());
            let total = clock.now_nanos().saturating_sub(start);
            profiler.add_span(parallel_span(
                start,
                start + total,
                worker_spans,
                merge_start.unwrap_or_default(),
                merge_nanos,
            ));
            profiler.record(build_parallel_profile(
                f,
                cut,
                workers,
                &snaps,
                worker_loop_nanos,
                merge_nanos,
                None,
                None,
                total,
            ));
        }
        return Ok(out);
    }

    // Merge the partials back into the exact serial-order tuple stream.
    let merged: Vec<Tuple> = if cut == f.clauses.len() {
        // No breaker, but `return at` needs globally ranked tuples.
        let mut tagged: Vec<(Tag, Tuple)> = Vec::new();
        for o in outputs {
            let WorkerOutput::Tuples(v) = o else {
                unreachable!("worker output mode mismatch");
            };
            tagged.extend(v);
        }
        tagged.sort_unstable_by_key(|(tag, _)| *tag);
        tagged.into_iter().map(|(_, t)| t).collect()
    } else {
        match &f.clauses[cut] {
            ClauseIr::GroupBy(g) => {
                let mut merged: Vec<WGroup> = Vec::new();
                let mut index = GroupIndex::new();
                let mut scratch = String::new();
                for o in outputs {
                    let WorkerOutput::Groups(groups) = o else {
                        unreachable!("worker output mode mismatch");
                    };
                    for wg in groups {
                        let hit = index
                            .find_or_insert_buf(&mut scratch, &wg.keys, merged.len(), |i| {
                                merged[i].keys.as_slice()
                            })
                            .ok();
                        match hit {
                            Some(gi) => {
                                let dst = &mut merged[gi];
                                for (slot, mut entries) in dst.nests.iter_mut().zip(wg.nests) {
                                    slot.append(&mut entries);
                                }
                                if wg.first < dst.first {
                                    // Serial semantics: the group's base
                                    // tuple and key values come from its
                                    // globally first member. The keys are
                                    // deep-equal (same canonical string),
                                    // so the index stays valid.
                                    dst.first = wg.first;
                                    dst.keys = wg.keys;
                                    dst.base = wg.base;
                                }
                            }
                            None => merged.push(wg),
                        }
                    }
                }
                // First-appearance order across the whole input.
                merged.sort_unstable_by_key(|wg| wg.first);
                interp.stats.add_groups_emitted(merged.len() as u64);
                let mut states = Vec::with_capacity(merged.len());
                for wg in merged {
                    let mut nests = Vec::with_capacity(wg.nests.len());
                    for mut entries in wg.nests {
                        // Serial arrival order first; any nest `order by`
                        // then stable-sorts on top (emit_groups).
                        entries.sort_unstable_by_key(|e| e.0);
                        nests.push(
                            entries
                                .into_iter()
                                .map(|(_, okeys, v)| (okeys, v))
                                .collect::<Vec<_>>(),
                        );
                    }
                    states.push(GroupState {
                        keys: wg.keys,
                        base: wg.base,
                        nests,
                    });
                }
                emit_groups(g, states)?
            }
            ClauseIr::OrderBy(ob) => {
                let mut entries: Vec<(OrderKeys, Tag, Tuple)> = Vec::new();
                for o in outputs {
                    let WorkerOutput::Runs(v) = o else {
                        unreachable!("worker output mode mismatch");
                    };
                    entries.extend(v);
                }
                sort_tagged(&mut entries, &ob.specs)?;
                if let Some(k) = ob.limit {
                    if entries.len() > k {
                        // Workers already counted their local prunes;
                        // the cross-worker survivors cut here complete
                        // the serial total of n − k.
                        interp
                            .stats
                            .add_tuples_pruned_topk((entries.len() - k) as u64);
                        entries.truncate(k);
                    }
                }
                entries.into_iter().map(|(_, _, t)| t).collect()
            }
            _ => unreachable!("cut points at a breaker clause"),
        }
    };
    let merge_nanos = match (&clock, merge_start) {
        (Some(c), Some(s)) => c.now_nanos().saturating_sub(s),
        _ => 0,
    };

    let has_breaker = cut < f.clauses.len();
    let mut source: BoxSource = Box::new(Replay {
        output: merged.into_iter(),
    });
    let replay_counter = (profiling && has_breaker).then(|| Rc::new(OpCounters::default()));
    if let Some(c) = &replay_counter {
        source = Box::new(Instrumented {
            input: source,
            counters: Rc::clone(c),
        });
    }
    let mut down_counters: Vec<Rc<OpCounters>> = Vec::new();
    if has_breaker {
        for (j, clause) in f.clauses[cut + 1..].iter().enumerate() {
            source = clause_source(
                clause,
                flwor_plan(f, cut + 1 + j),
                join_at(f, &cells, cut + 1 + j),
                source,
            );
            if profiling {
                let c = Rc::new(OpCounters::default());
                down_counters.push(Rc::clone(&c));
                source = Box::new(Instrumented {
                    input: source,
                    counters: c,
                });
            }
        }
    }
    let sink = ReturnAt {
        at: f.return_at,
        expr: &f.return_expr,
    };
    let (seq, sink_stats) = sink.execute(source, interp, env)?;
    if let (Some(profiler), Some(clock), Some(start)) = (&profiler, &clock, total_start) {
        let total = clock.now_nanos().saturating_sub(start);
        profiler.add_span(parallel_span(
            start,
            start + total,
            worker_spans,
            merge_start.unwrap_or_default(),
            merge_nanos,
        ));
        profiler.record(build_parallel_profile(
            f,
            cut,
            workers,
            &snaps,
            worker_loop_nanos,
            merge_nanos,
            replay_counter
                .as_ref()
                .map(|c| (c.as_ref(), down_counters.as_slice())),
            Some(sink_stats),
            total,
        ));
    }
    Ok(seq)
}

/// One worker thread: claim morsels until the input (or the error
/// floor) is exhausted, streaming each through a private chain into the
/// breaker-side accumulator.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    interp: Interpreter,
    f: &FlworIr,
    cut: usize,
    items: &[Item],
    morsel_count: usize,
    next: &AtomicUsize,
    error_floor: &AtomicUsize,
    slots: Vec<Sequence>,
    focus: Option<Focus>,
    profiling: bool,
    cells: &[Option<JoinCell>],
) -> WorkerReport {
    let clock = profiling.then(|| Arc::clone(interp.dynamic.clock()));
    let loop_start = clock.as_ref().map(|c| c.now_nanos());
    let mut env = Env { slots, focus };
    let counters: Option<Vec<Rc<OpCounters>>> =
        profiling.then(|| (0..cut).map(|_| Rc::new(OpCounters::default())).collect());
    let mut acc = match (f.clauses.get(cut), f.return_at) {
        (None, None) => Acc::Seqs(Vec::new()),
        (None, Some(_)) => Acc::Tuples(Vec::new()),
        (Some(ClauseIr::GroupBy(g)), _) => Acc::Groups {
            g,
            groups: Vec::new(),
            index: GroupIndex::new(),
            scratch: String::new(),
            consumed: 0,
        },
        (Some(ClauseIr::OrderBy(ob)), _) => match ob.limit {
            Some(k) => Acc::TopK {
                heap: TopKHeap::new(&ob.specs, k),
                pruned: 0,
            },
            None => Acc::Runs {
                entries: Vec::new(),
                specs: &ob.specs,
            },
        },
        (Some(_), _) => unreachable!("cut points at a breaker clause"),
    };
    let mut result: Result<(), (usize, EngineError)> = Ok(());
    loop {
        let m = next.fetch_add(1, AtomicOrdering::Relaxed);
        // Claims are monotonic, so every index below a claimed `m` is
        // already owned by someone; past the error floor there is no
        // point doing work whose output will be discarded.
        if m >= morsel_count || m > error_floor.load(AtomicOrdering::Relaxed) {
            break;
        }
        if let Err(e) = process_morsel(
            &interp, f, cut, items, m, &mut env, &mut acc, &counters, cells,
        ) {
            error_floor.fetch_min(m, AtomicOrdering::Relaxed);
            result = Err((m, e));
            break;
        }
    }
    // Fold breaker-local tallies into this worker's private stats sink
    // exactly once (the coordinator merges each sink with one
    // add_snapshot call).
    let output = match result {
        Err(e) => Err(e),
        Ok(()) => match acc {
            Acc::Seqs(v) => Ok(WorkerOutput::Seqs(v)),
            Acc::Tuples(v) => Ok(WorkerOutput::Tuples(v)),
            Acc::Groups {
                groups, consumed, ..
            } => {
                interp.stats.add_tuples_grouped(consumed);
                Ok(WorkerOutput::Groups(groups))
            }
            Acc::TopK { heap, pruned } => {
                interp.stats.add_tuples_pruned_topk(pruned);
                Ok(WorkerOutput::Runs(heap.into_entries()))
            }
            Acc::Runs { mut entries, specs } => match sort_tagged(&mut entries, specs) {
                Ok(()) => Ok(WorkerOutput::Runs(entries)),
                Err(e) => {
                    let m = entries.iter().map(|e| e.1 .0).min().unwrap_or(0);
                    error_floor.fetch_min(m, AtomicOrdering::Relaxed);
                    Err((m, e))
                }
            },
        },
    };
    let counters = counters
        .map(|cs| {
            cs.iter()
                .map(|c| CounterSnap {
                    batches: c.batches.get(),
                    tuples_out: c.tuples_out.get(),
                    cum_nanos: c.cum_nanos.get(),
                })
                .collect()
        })
        .unwrap_or_default();
    let (loop_nanos, loop_span) = match (&clock, loop_start) {
        (Some(c), Some(s)) => {
            let end = c.now_nanos();
            (end.saturating_sub(s), Some((s, end)))
        }
        _ => (0, None),
    };
    // Drain this thread's sequence-copy counters into the worker's
    // private sink so the coordinator's single add_snapshot merge picks
    // them up (the thread dies with the scope; counts would be lost).
    let (copied, shared) = xqa_xdm::take_seq_counters();
    interp.stats.add_seq_counters(copied, shared);
    WorkerReport {
        output,
        counters,
        loop_nanos,
        loop_span,
    }
}

/// Stream one morsel through a fresh clone of the pre-breaker chain
/// into the worker's accumulator. The seeded `ForScan` starts its `at`
/// ordinals at the morsel's global offset, so positional variables are
/// identical to the serial run.
#[allow(clippy::too_many_arguments)]
fn process_morsel(
    interp: &Interpreter,
    f: &FlworIr,
    cut: usize,
    items: &[Item],
    m: usize,
    env: &mut Env,
    acc: &mut Acc,
    counters: &Option<Vec<Rc<OpCounters>>>,
    cells: &[Option<JoinCell>],
) -> EngineResult<()> {
    let lo = m * MORSEL;
    let hi = items.len().min(lo + MORSEL);
    // ForScan owns its item iterator, so the morsel slice is cloned
    // into the worker here; `Item` is an Arc-backed handle.
    let morsel = Sequence::from_slice(&items[lo..hi]);
    let ClauseIr::For {
        slot,
        at_slot,
        ty,
        expr,
    } = &f.clauses[0]
    else {
        unreachable!("parallel-eligible FLWOR starts with a for clause");
    };
    let mut source: BoxSource = Box::new(ForScan {
        input: Box::new(Singleton { done: true }),
        slot: *slot,
        at_slot: *at_slot,
        ty: ty.as_ref(),
        expr,
        expr_eval: ExprEval::new(flwor_plan(f, 0)),
        batch: Vec::new().into_iter(),
        items: morsel.into_iter(),
        item_pos: lo as i64,
        base: Tuple::default(),
        input_done: true,
    });
    if let Some(cs) = counters {
        source = Box::new(Instrumented {
            input: source,
            counters: Rc::clone(&cs[0]),
        });
    }
    for (i, clause) in f.clauses[1..cut].iter().enumerate() {
        source = clause_source(
            clause,
            flwor_plan(f, i + 1),
            join_at(f, cells, i + 1),
            source,
        );
        if let Some(cs) = counters {
            source = Box::new(Instrumented {
                input: source,
                counters: Rc::clone(&cs[i + 1]),
            });
        }
    }
    let mut seq_in_morsel = 0usize;
    match acc {
        Acc::Seqs(frags) => {
            let mut frag = SequenceBuilder::new();
            while let Some(batch) = source.next_batch(interp, env)? {
                for t in batch {
                    t.apply(env);
                    frag.append(interp.eval(&f.return_expr, env)?);
                }
            }
            frags.push((m, frag.build()));
        }
        Acc::Tuples(tuples) => {
            while let Some(batch) = source.next_batch(interp, env)? {
                for t in batch {
                    tuples.push(((m, seq_in_morsel), t));
                    seq_in_morsel += 1;
                }
            }
        }
        Acc::Groups {
            g,
            groups,
            index,
            scratch,
            consumed,
        } => {
            while let Some(batch) = source.next_batch(interp, env)? {
                *consumed += batch.len() as u64;
                for t in batch {
                    t.apply(env);
                    let mut key_vals: Vec<Sequence> = Vec::with_capacity(g.keys.len());
                    for key in &g.keys {
                        key_vals.push(interp.eval(&key.expr, env)?);
                    }
                    let tag = (m, seq_in_morsel);
                    seq_in_morsel += 1;
                    let mut nest_vals: Vec<(Tag, OrderKeys, Sequence)> =
                        Vec::with_capacity(g.nests.len());
                    for nest in &g.nests {
                        let value = interp.eval(&nest.expr, env)?;
                        let okeys = match &nest.order_by {
                            Some(ob) => interp.order_keys(&ob.specs, env)?,
                            None => Vec::new(),
                        };
                        nest_vals.push((tag, okeys, value));
                    }
                    let hit = index
                        .find_or_insert_buf(scratch, &key_vals, groups.len(), |i| {
                            groups[i].keys.as_slice()
                        })
                        .ok();
                    match hit {
                        Some(gi) => {
                            for (slot, entry) in groups[gi].nests.iter_mut().zip(nest_vals) {
                                slot.push(entry);
                            }
                        }
                        None => {
                            groups.push(WGroup {
                                keys: key_vals,
                                base: t,
                                first: tag,
                                nests: nest_vals.into_iter().map(|e| vec![e]).collect(),
                            });
                        }
                    }
                }
            }
        }
        Acc::TopK { heap, pruned } => {
            while let Some(batch) = source.next_batch(interp, env)? {
                for t in batch {
                    t.apply(env);
                    let keys = interp.order_keys(heap.specs, env)?;
                    let was_full = heap.saturated();
                    heap.offer(keys, (m, seq_in_morsel), t)?;
                    seq_in_morsel += 1;
                    if was_full {
                        *pruned += 1;
                    }
                }
            }
        }
        Acc::Runs { entries, specs } => {
            while let Some(batch) = source.next_batch(interp, env)? {
                for t in batch {
                    t.apply(env);
                    let keys = interp.order_keys(specs, env)?;
                    entries.push((keys, (m, seq_in_morsel), t));
                    seq_in_morsel += 1;
                }
            }
        }
    }
    Ok(())
}

/// The span timeline of a parallel execution: the real loop interval
/// of every morsel worker (attributed by worker id) plus the
/// coordinator's merge interval, under one pipeline root.
fn parallel_span(
    start_nanos: u64,
    end_nanos: u64,
    workers: Vec<Span>,
    merge_start: u64,
    merge_nanos: u64,
) -> Span {
    let mut root = Span::leaf("pipeline", start_nanos, end_nanos);
    root.children = workers;
    root.children
        .push(Span::leaf("merge", merge_start, merge_start + merge_nanos));
    root
}

/// Assemble the profile of a parallel pipeline execution. Rows for the
/// worker-side chain sum the per-worker counters, so their batch and
/// tuple counts are exact and their nanos are *CPU time across all
/// workers* (the pipeline total stays wall time; `workers` in the
/// profile flags the discrepancy for renderers). The breaker row, when
/// present, collects the workers' accumulator time, the coordinator
/// merge and the replay drain.
#[allow(clippy::too_many_arguments)]
fn build_parallel_profile(
    f: &FlworIr,
    cut: usize,
    workers: usize,
    snaps: &[Vec<CounterSnap>],
    worker_loop_nanos: u64,
    merge_nanos: u64,
    breaker: Option<(&OpCounters, &[Rc<OpCounters>])>,
    sink_stats: Option<SinkStats>,
    total_nanos: u64,
) -> PipelineProfile {
    let mut ops = Vec::with_capacity(f.clauses.len() + 1);
    let mut upstream_out = 1u64;
    for (i, clause) in f.clauses[..cut].iter().enumerate() {
        let mut batches = 0u64;
        let mut out = 0u64;
        let mut self_nanos = 0u64;
        for w in snaps {
            batches += w[i].batches;
            out += w[i].tuples_out;
            let prev = if i > 0 { w[i - 1].cum_nanos } else { 0 };
            self_nanos += w[i].cum_nanos.saturating_sub(prev);
        }
        ops.push(OpProfile {
            kind: clause_op_kind(clause, join_ir(f, i)),
            detail: clause_op_detail(clause, join_ir(f, i)),
            batches,
            tuples_in: upstream_out,
            tuples_out: out,
            nanos: self_nanos,
            estimate: f.estimates.get(i).copied().flatten(),
        });
        upstream_out = out;
    }
    // Worker time not spent pulling the chain went into the breaker
    // accumulator (or, with no breaker, the return expression).
    let top_cum: u64 = snaps.iter().map(|w| w[cut - 1].cum_nanos).sum();
    let acc_nanos = worker_loop_nanos.saturating_sub(top_cum);
    if let Some((replay, down)) = breaker {
        let clause = &f.clauses[cut];
        ops.push(OpProfile {
            kind: clause_op_kind(clause, join_ir(f, cut)),
            detail: clause_op_detail(clause, join_ir(f, cut)),
            batches: replay.batches.get(),
            tuples_in: upstream_out,
            tuples_out: replay.tuples_out.get(),
            nanos: acc_nanos + merge_nanos + replay.cum_nanos.get(),
            estimate: f.estimates.get(cut).copied().flatten(),
        });
        upstream_out = replay.tuples_out.get();
        let mut prev_cum = replay.cum_nanos.get();
        for (j, (clause, c)) in f.clauses[cut + 1..].iter().zip(down).enumerate() {
            let cum = c.cum_nanos.get();
            ops.push(OpProfile {
                kind: clause_op_kind(clause, join_ir(f, cut + 1 + j)),
                detail: clause_op_detail(clause, join_ir(f, cut + 1 + j)),
                batches: c.batches.get(),
                tuples_in: upstream_out,
                tuples_out: c.tuples_out.get(),
                nanos: cum.saturating_sub(prev_cum),
                estimate: f.estimates.get(cut + 1 + j).copied().flatten(),
            });
            upstream_out = c.tuples_out.get();
            prev_cum = cum;
        }
    }
    let (sink_batches, sink_tuples) = match sink_stats {
        Some(s) => (s.batches, s.tuples),
        // No sink ran on the coordinator: the workers evaluated the
        // return expression; mirror the chain's top row.
        None => (snaps.iter().map(|w| w[cut - 1].batches).sum(), upstream_out),
    };
    let accounted: u64 = ops.iter().map(|o| o.nanos).sum();
    let sink_nanos = match sink_stats {
        None => acc_nanos + merge_nanos,
        Some(_) => total_nanos.saturating_sub(accounted),
    };
    ops.push(OpProfile {
        kind: OpKind::ReturnAt,
        detail: String::new(),
        batches: sink_batches,
        tuples_in: upstream_out,
        tuples_out: sink_tuples,
        nanos: sink_nanos,
        estimate: f.estimates.get(f.clauses.len()).copied().flatten(),
    });
    PipelineProfile {
        executions: 1,
        workers: workers as u64,
        ops,
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
    fn execute(
        &self,
        mut source: BoxSource<'_>,
        interp: &Interpreter,
        env: &mut Env,
    ) -> EngineResult<(Sequence, SinkStats)> {
        let mut out = SequenceBuilder::new();
        let mut stats = SinkStats::default();
        let mut ordinal = 0i64;
        while let Some(batch) = source.next_batch(interp, env)? {
            stats.batches += 1;
            stats.tuples += batch.len() as u64;
            for t in batch {
                t.apply(env);
                ordinal += 1;
                if let Some(at) = self.at {
                    env.slots[at] = Sequence::one(ordinal);
                }
                out.append(interp.eval(self.expr, env)?);
            }
        }
        Ok((out.build(), stats))
    }

    /// Streaming variant of [`execute`](Self::execute): the return
    /// expression's output for each input batch is built into its own
    /// small `Sequence` and emitted as soon as the batch is processed,
    /// so the first result bytes leave before later batches are pulled.
    fn stream(
        &self,
        mut source: BoxSource<'_>,
        interp: &Interpreter,
        env: &mut Env,
        emit: &mut EmitBatch,
    ) -> EngineResult<(u64, SinkStats)> {
        let mut stats = SinkStats::default();
        let mut ordinal = 0i64;
        let mut items = 0u64;
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
            let seq = out.build();
            if !seq.is_empty() {
                items += seq.len() as u64;
                emit(&seq)?;
            }
        }
        Ok((items, stats))
    }
}
