//! # xqa-engine — compiler and evaluator
//!
//! Compiles the XQuery subset (plus the SIGMOD'05 `group by` / output
//! numbering extensions) to an IR and evaluates it over
//! [`xqa_xdm`] values.
//!
//! ```
//! use xqa_engine::{Engine, DynamicContext};
//! use xqa_xmlparse::parse_document;
//!
//! let doc = parse_document("<bib><book><price>10</price></book></bib>").unwrap();
//! let engine = Engine::new();
//! let query = engine.compile("sum(//book/price)").unwrap();
//! let mut ctx = DynamicContext::new();
//! ctx.set_context_document(&doc);
//! let result = query.run(&ctx).unwrap();
//! assert_eq!(result[0].string_value(), "10");
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod casts;
pub mod compile;
pub mod context;
pub mod error;
pub mod estimate;
mod eval;
pub mod explain;
mod flwor;
pub mod fold;
pub mod functions;
pub mod ir;
pub mod keys;
mod pipeline;
pub mod profile;
pub mod rewrite;
pub mod trace;
pub mod types;

pub use context::{Counter, CounterField, DynamicContext, EvalStats, EvalStatsSnapshot, Focus};
pub use error::{EngineError, EngineResult};
pub use explain::plan_fingerprint;
pub use profile::{Clock, Misestimate, MonotonicClock, OpKind, QueryProfile, Span, TickClock};
pub use trace::{TraceEvent, TracePhase, TraceRing, TraceSink, Tracer};

use xqa_frontend::parse_query;
use xqa_xdm::Sequence;

/// Engine configuration.
///
/// `PartialEq`/`Eq`/`Hash` are derived so options can key a prepared-plan
/// cache together with the query text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineOptions {
    /// Detect the `distinct-values` + self-join pattern (Table 1's "Q"
    /// template) and rewrite it into an explicit `group by` plan. Off by
    /// default, matching the paper's experimental setup ("no rewrites
    /// were performed to detect the group-by implied in the query").
    pub detect_implicit_groupby: bool,
    /// Fold constant subexpressions at compile time (on by default;
    /// never changes results, only when work happens).
    pub constant_folding: bool,
    /// Push `[position() le k]`-style bounds over an `order by` FLWOR
    /// into the sort as a `limit`, so the streaming path runs a bounded
    /// top-k heap instead of a full sort (on by default; never changes
    /// results — the residual predicate stays in place).
    pub topk_pushdown: bool,
    /// How leading `descendant::T` path steps are executed (see
    /// [`AccessPathMode`]). `Auto` (the default) consults the catalog
    /// statistics attached to the engine; the `XQA_FORCE_ACCESS_PATH`
    /// environment variable (`walk` | `index`) overrides at compile time.
    pub access_path: AccessPathMode,
    /// How FLWOR clause expressions are evaluated (see [`ExprEvalMode`]).
    /// `Auto` (the default) compiles the scalar subset to register
    /// programs; the `XQA_FORCE_EXPR_EVAL` environment variable
    /// (`bytecode` | `tree`) overrides at compile time.
    pub expr_eval: ExprEvalMode,
    /// How joinable nested-FLWOR equality predicates are executed (see
    /// [`JoinMode`]). `Auto` (the default) consults catalog statistics;
    /// the `XQA_FORCE_JOIN` environment variable (`hash` | `nested`)
    /// overrides at compile time, mirroring `XQA_FORCE_ACCESS_PATH`.
    pub join: JoinMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            detect_implicit_groupby: false,
            constant_folding: true,
            topk_pushdown: true,
            access_path: AccessPathMode::Auto,
            expr_eval: ExprEvalMode::Auto,
            join: JoinMode::Auto,
        }
    }
}

/// Plan-time access-path policy for `//T` descendant scans and simple
/// value predicates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AccessPathMode {
    /// Decide from catalog statistics: index-annotate a scan only when
    /// statistics are attached and favor the index (selective name, or a
    /// value predicate the typed-value index can answer exactly). With
    /// no statistics attached every plan keeps the tree walk, so plans
    /// compiled without a catalog behave exactly as before.
    #[default]
    Auto,
    /// Never annotate: always tree-walk.
    Walk,
    /// Annotate every eligible scan shape regardless of statistics; the
    /// runtime still falls back to the walk per document when no store
    /// covers it or the value index cannot answer exactly.
    Index,
}

impl AccessPathMode {
    /// The wire/CLI name (`auto` | `walk` | `index`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AccessPathMode::Auto => "auto",
            AccessPathMode::Walk => "walk",
            AccessPathMode::Index => "index",
        }
    }

    /// Parse a wire/CLI name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<AccessPathMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(AccessPathMode::Auto),
            "walk" => Some(AccessPathMode::Walk),
            "index" => Some(AccessPathMode::Index),
            _ => None,
        }
    }
}

/// The effective access-path mode: `XQA_FORCE_ACCESS_PATH` (`walk` |
/// `index`) wins over the engine option.
pub fn resolve_access_path(requested: AccessPathMode) -> AccessPathMode {
    if let Ok(v) = std::env::var("XQA_FORCE_ACCESS_PATH") {
        if let Some(mode) = AccessPathMode::parse(&v) {
            return mode;
        }
    }
    requested
}

/// Plan-time expression-evaluation policy for FLWOR clause expressions
/// (`for` bindings, `let` values, `where` conditions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExprEvalMode {
    /// Compile the scalar subset to register programs (the bytecode
    /// path); expressions outside the subset stay on the tree-walker
    /// per expression, silently. Currently identical to `Bytecode` —
    /// the lowering itself decides per expression.
    #[default]
    Auto,
    /// Same as `Auto`: lower everything the scalar subset covers.
    Bytecode,
    /// Never lower: every expression evaluates on the IR tree-walker
    /// (the pre-bytecode behavior, kept as the differential baseline).
    Tree,
}

impl ExprEvalMode {
    /// The wire/CLI name (`auto` | `bytecode` | `tree`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ExprEvalMode::Auto => "auto",
            ExprEvalMode::Bytecode => "bytecode",
            ExprEvalMode::Tree => "tree",
        }
    }

    /// Parse a wire/CLI name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<ExprEvalMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(ExprEvalMode::Auto),
            "bytecode" => Some(ExprEvalMode::Bytecode),
            "tree" => Some(ExprEvalMode::Tree),
            _ => None,
        }
    }
}

/// The effective expression-evaluation mode: `XQA_FORCE_EXPR_EVAL`
/// (`bytecode` | `tree`) wins over the engine option, mirroring
/// [`resolve_access_path`]. Unknown values are ignored, not errors.
pub fn resolve_expr_eval(requested: ExprEvalMode) -> ExprEvalMode {
    if let Ok(v) = std::env::var("XQA_FORCE_EXPR_EVAL") {
        if let Some(mode) = ExprEvalMode::parse(&v) {
            return mode;
        }
    }
    requested
}

/// Plan-time policy for joinable nested-FLWOR equality predicates
/// (an inner `for $y in <independent source> where $x/k eq $y/k`
/// binding, or its `some $y satisfies` existential form).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum JoinMode {
    /// Decide from catalog statistics: unnest to a `HashJoin` only when
    /// statistics are attached and the build side is either unknown or
    /// small enough to materialize ([`MAX_HASH_BUILD_ROWS`]). With no
    /// statistics attached every plan keeps the nested-loop evaluation,
    /// so plans compiled without a catalog behave exactly as before.
    #[default]
    Auto,
    /// Unnest every eligible join shape regardless of statistics; the
    /// runtime still falls back to an ordered build scan per probe when
    /// atom classes make hashing unable to reproduce comparison errors.
    Hash,
    /// Never unnest: always re-evaluate the inner FLWOR per tuple.
    Nested,
}

/// `Auto` declines to build a hash table the planner expects to exceed
/// this many rows (it would trade O(n·m) time for an oversized
/// materialization); `Hash` ignores the bound.
pub const MAX_HASH_BUILD_ROWS: u64 = 10_000_000;

impl JoinMode {
    /// The wire/CLI name (`auto` | `hash` | `nested`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinMode::Auto => "auto",
            JoinMode::Hash => "hash",
            JoinMode::Nested => "nested",
        }
    }

    /// Parse a wire/CLI name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<JoinMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(JoinMode::Auto),
            "hash" => Some(JoinMode::Hash),
            "nested" => Some(JoinMode::Nested),
            _ => None,
        }
    }
}

/// The effective join mode: `XQA_FORCE_JOIN` (`hash` | `nested`) wins
/// over the engine option, mirroring [`resolve_access_path`]. Unknown
/// values are ignored, not errors.
pub fn resolve_join(requested: JoinMode) -> JoinMode {
    if let Ok(v) = std::env::var("XQA_FORCE_JOIN") {
        if let Some(mode) = JoinMode::parse(&v) {
            return mode;
        }
    }
    requested
}

/// The number of threads one query runs on: always 1. Queries execute
/// single-threaded; the argument is ignored and no environment is read.
/// Kept for callers that record it as run metadata.
pub fn resolve_threads(_: usize) -> usize {
    1
}

/// The kind of optimizer rewrite a [`RewriteNote`] records. The wire
/// names (`as_str`) key the service's rewrite-fired counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteKind {
    /// `distinct-values` self-join rewritten to explicit `group by`.
    ImplicitGroupBy,
    /// Constant subexpressions folded at compile time.
    ConstantFolding,
    /// Positional bound pushed into `order by` as a heap limit.
    TopKPushdown,
    /// `descendant-or-self::node()/child::T` fused to `descendant::T`.
    PathFusion,
    /// `//T` scan or value predicate annotated to resolve against the
    /// document store's label-range / typed-value indexes.
    IndexScan,
    /// Nested-FLWOR equality predicate over an independent source
    /// unnested into a `HashJoin` pipeline operator.
    JoinUnnest,
}

impl RewriteKind {
    /// Every rewrite kind, in compilation order.
    pub const ALL: [RewriteKind; 6] = [
        RewriteKind::ImplicitGroupBy,
        RewriteKind::ConstantFolding,
        RewriteKind::TopKPushdown,
        RewriteKind::PathFusion,
        RewriteKind::IndexScan,
        RewriteKind::JoinUnnest,
    ];

    /// The wire name of the rewrite.
    pub fn as_str(&self) -> &'static str {
        match self {
            RewriteKind::ImplicitGroupBy => "implicit-groupby",
            RewriteKind::ConstantFolding => "constant-folding",
            RewriteKind::TopKPushdown => "topk-pushdown",
            RewriteKind::PathFusion => "path-fusion",
            RewriteKind::IndexScan => "index-scan",
            RewriteKind::JoinUnnest => "join-unnest",
        }
    }
}

/// One optimizer rewrite that fired during compilation: a typed kind
/// plus a human-readable description saying what happened and where.
///
/// Derefs to the description `str`, so string-style call sites
/// (`note.contains(...)`, `format!("{note}")`) keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteNote {
    /// Which rewrite fired.
    pub kind: RewriteKind,
    /// What it did, and in which location (query body / global / function).
    pub detail: String,
}

impl std::ops::Deref for RewriteNote {
    type Target = str;

    fn deref(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for RewriteNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// The query engine: compiles query text into executable plans.
#[derive(Debug, Default, Clone)]
pub struct Engine {
    options: EngineOptions,
    /// Catalog statistics the access-path planner consults, attached by
    /// the service/CLI after loading documents. `None` = no catalog →
    /// `Auto` keeps every plan on the tree walk.
    statistics: Option<std::sync::Arc<xqa_storage::CatalogStatistics>>,
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with explicit options.
    pub fn with_options(options: EngineOptions) -> Engine {
        Engine {
            options,
            statistics: None,
        }
    }

    /// Attach catalog statistics for plan-time access-path decisions.
    pub fn set_statistics(
        &mut self,
        stats: std::sync::Arc<xqa_storage::CatalogStatistics>,
    ) -> &mut Self {
        self.statistics = Some(stats);
        self
    }

    /// Builder form of [`Engine::set_statistics`].
    pub fn with_statistics(
        mut self,
        stats: std::sync::Arc<xqa_storage::CatalogStatistics>,
    ) -> Self {
        self.statistics = Some(stats);
        self
    }

    /// The attached catalog statistics, if any.
    pub fn statistics(&self) -> Option<&std::sync::Arc<xqa_storage::CatalogStatistics>> {
        self.statistics.as_ref()
    }

    /// The active options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Parse and compile a query.
    pub fn compile(&self, source: &str) -> EngineResult<PreparedQuery> {
        self.compile_traced(source, None)
    }

    /// Parse and compile a query, emitting parse / rewrite-fired /
    /// compile trace events through `tracer` when one is given.
    pub fn compile_traced(
        &self,
        source: &str,
        tracer: Option<&Tracer>,
    ) -> EngineResult<PreparedQuery> {
        let note = |kind: RewriteKind| move |detail: String| RewriteNote { kind, detail };
        let mut module = parse_query(source)?;
        if let Some(t) = tracer {
            t.emit(
                TracePhase::Parse,
                format!("parsed {} byte(s) of query text", source.len()),
            );
        }
        let mut rewrites: Vec<RewriteNote> = Vec::new();
        if self.options.detect_implicit_groupby {
            rewrites.extend(
                rewrite::detect_implicit_groupby(&mut module)
                    .into_iter()
                    .map(note(RewriteKind::ImplicitGroupBy)),
            );
        }
        let mut compiled = compile::compile(&module)?;
        if self.options.constant_folding {
            let folds = fold::fold_query(&mut compiled);
            if folds > 0 {
                rewrites.push(RewriteNote {
                    kind: RewriteKind::ConstantFolding,
                    detail: format!("constant folding: {folds} subexpression(s) folded"),
                });
            }
        }
        if self.options.topk_pushdown {
            // After folding, so literal bounds like `le 5 + 5` are
            // visible. The limit only changes how the order-by runs;
            // the residual predicate stays in place.
            rewrites.extend(
                rewrite::pushdown_topk(&mut compiled)
                    .into_iter()
                    .map(note(RewriteKind::TopKPushdown)),
            );
        }
        // Always-sound plan normalization: `//T` scans one descendant
        // pass instead of materializing every node of the subtree.
        rewrites.extend(
            rewrite::fuse_descendant_paths(&mut compiled)
                .into_iter()
                .map(note(RewriteKind::PathFusion)),
        );
        // After fusion, so `//T` is visible as a `descendant::T` step.
        rewrites.extend(
            rewrite::annotate_index_scans(
                &mut compiled,
                resolve_access_path(self.options.access_path),
                self.statistics.as_deref(),
            )
            .into_iter()
            .map(note(RewriteKind::IndexScan)),
        );
        // Join unnesting runs after index annotation so the build-side
        // cardinality gate sees the final access paths.
        rewrites.extend(
            rewrite::detect_join_unnest(
                &mut compiled,
                resolve_join(self.options.join),
                self.statistics.as_deref(),
            )
            .into_iter()
            .map(note(RewriteKind::JoinUnnest)),
        );
        // Cardinality estimation runs after every plan-shaping rewrite
        // (it reads top-k limits and access-path annotations) and
        // before expression compilation (which only fills programs).
        estimate::stamp_estimates(&mut compiled, self.statistics.as_deref());
        // Expression compilation runs last: every earlier rewrite
        // (folding, top-k pushdown, path fusion, index annotation)
        // mutates the IR the programs are lowered from.
        if resolve_expr_eval(self.options.expr_eval) != ExprEvalMode::Tree {
            let summary = bytecode::lower_query(&mut compiled);
            if let Some(t) = tracer {
                if !(summary.lowered.is_empty() && summary.interpreted.is_empty()) {
                    t.emit(
                        TracePhase::CompileExpr,
                        format!(
                            "expr bytecode: lowered {} [{}], interpreted {} [{}]",
                            summary.lowered.len(),
                            summary.lowered.join(", "),
                            summary.interpreted.len(),
                            summary.interpreted.join(", "),
                        ),
                    );
                }
            }
        }
        if let Some(t) = tracer {
            for r in &rewrites {
                t.emit(
                    TracePhase::RewriteFired,
                    format!("{}: {}", r.kind.as_str(), r.detail),
                );
            }
            t.emit(
                TracePhase::Compile,
                format!(
                    "compiled: {} global(s), {} function(s), frame size {}, streaming pipeline",
                    compiled.globals.len(),
                    compiled.functions.len(),
                    compiled.frame_size,
                ),
            );
        }
        let fingerprint = explain::plan_fingerprint(&compiled);
        Ok(PreparedQuery {
            compiled,
            rewrites,
            fingerprint,
        })
    }
}

/// A compiled, reusable query.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    compiled: ir::CompiledQuery,
    rewrites: Vec<RewriteNote>,
    fingerprint: u64,
}

impl PreparedQuery {
    /// Evaluate against a dynamic context.
    pub fn run(&self, ctx: &DynamicContext) -> EngineResult<Sequence> {
        eval::execute(&self.compiled, ctx)
    }

    /// Evaluate while streaming result items to `sink` batch by batch
    /// instead of materializing the full result sequence. Returns the
    /// total number of items handed to the sink.
    ///
    /// The error tells the caller exactly how far the stream got: a
    /// [`StreamError::BeforeFirstItem`] means nothing reached the sink
    /// (the caller may still produce an ordinary error response), while
    /// [`StreamError::MidStream`] / [`StreamError::Sink`] mean output
    /// was already handed over and the transport must signal truncation
    /// itself (e.g. by closing a chunked HTTP response without the
    /// terminal chunk).
    pub fn run_streaming(
        &self,
        ctx: &DynamicContext,
        sink: &mut dyn FnMut(&[xqa_xdm::Item]) -> std::io::Result<()>,
    ) -> Result<u64, StreamError> {
        let mut emitted: u64 = 0;
        let mut sink_error: Option<std::io::Error> = None;
        let result = eval::execute_streaming(&self.compiled, ctx, &mut |items| {
            match sink(items) {
                Ok(()) => {
                    emitted += items.len() as u64;
                    Ok(())
                }
                Err(e) => {
                    // Remember the transport failure and abort the
                    // pipeline through the engine's error channel; the
                    // classification below turns it back into `Sink`.
                    sink_error = Some(e);
                    Err(EngineError::dynamic(
                        xqa_xdm::ErrorCode::Other,
                        "result sink failed",
                    ))
                }
            }
        });
        match result {
            Ok(items) => Ok(items),
            Err(_) if sink_error.is_some() => Err(StreamError::Sink {
                error: sink_error.expect("sink error recorded"),
                items_emitted: emitted,
            }),
            Err(e) if emitted == 0 => Err(StreamError::BeforeFirstItem(e)),
            Err(e) => Err(StreamError::MidStream {
                error: e,
                items_emitted: emitted,
            }),
        }
    }

    /// Evaluate and serialize incrementally: each streamed batch is
    /// serialized with the engine's standard sequence serialization
    /// (single spaces between adjacent atomics, carried across batch
    /// boundaries) and handed to `write` as a text chunk. The
    /// concatenated chunks are byte-identical to serializing the
    /// materialized result of [`run`](Self::run).
    pub fn run_serialized(
        &self,
        ctx: &DynamicContext,
        write: &mut dyn FnMut(&str) -> std::io::Result<()>,
    ) -> Result<StreamStats, StreamError> {
        let mut ser = xqa_xmlparse::SequenceSerializer::new(Default::default());
        let mut buf = String::new();
        let mut stats = StreamStats::default();
        let items = self.run_streaming(ctx, &mut |items| {
            buf.clear();
            ser.push(items, &mut buf);
            if !buf.is_empty() {
                stats.chunks += 1;
                stats.bytes += buf.len() as u64;
                write(&buf)?;
            }
            Ok(())
        })?;
        stats.items = items;
        Ok(stats)
    }

    /// The stable plan fingerprint (see
    /// [`explain::plan_fingerprint`]): identical exactly when the
    /// optimizer produced the same rewritten plan, even for textually
    /// different query sources.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The optimizer rewrites that fired during compilation, with what
    /// they did and where.
    pub fn applied_rewrites(&self) -> &[RewriteNote] {
        &self.rewrites
    }

    /// The compiled IR (for inspection/explain).
    pub fn compiled(&self) -> &ir::CompiledQuery {
        &self.compiled
    }

    /// Render the compiled plan as an indented operator tree.
    pub fn explain(&self) -> String {
        explain::explain_query(&self.compiled)
    }

    /// Render a measured profile (from a profiling-enabled run of this
    /// query) as `explain analyze` text.
    pub fn explain_analyze(&self, profile: &QueryProfile) -> String {
        explain::explain_analyze(profile)
    }
}

/// How far a streaming run ([`PreparedQuery::run_streaming`] /
/// [`PreparedQuery::run_serialized`]) got before failing. The serving
/// layer branches on this: before the first item it can still send an
/// ordinary error response; after, it can only truncate the stream.
#[derive(Debug)]
pub enum StreamError {
    /// The query failed before any item reached the sink; nothing has
    /// been written and a normal error response is still possible.
    BeforeFirstItem(EngineError),
    /// The query failed after `items_emitted` items were handed over;
    /// the transport must signal truncation to the client.
    MidStream {
        /// The engine error that aborted the pipeline.
        error: EngineError,
        /// Items already delivered to the sink before the failure.
        items_emitted: u64,
    },
    /// The sink itself failed (e.g. the client hung up mid-response).
    Sink {
        /// The I/O error the sink returned.
        error: std::io::Error,
        /// Items already delivered to the sink before the failure.
        items_emitted: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BeforeFirstItem(e) => write!(f, "{e}"),
            StreamError::MidStream {
                error,
                items_emitted,
            } => write!(f, "{error} (after {items_emitted} items streamed)"),
            StreamError::Sink {
                error,
                items_emitted,
            } => write!(f, "result sink failed after {items_emitted} items: {error}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Summary of a completed [`PreparedQuery::run_serialized`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Result items streamed.
    pub items: u64,
    /// Non-empty serialized chunks handed to the writer.
    pub chunks: u64,
    /// Total serialized bytes.
    pub bytes: u64,
}

#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// The cross-thread contract the service layer relies on: documents,
    /// items, contexts and compiled plans may be shared freely between
    /// worker threads.
    #[test]
    fn shared_types_are_send_and_sync() {
        assert_send_sync::<xqa_xdm::Document>();
        assert_send_sync::<xqa_xdm::NodeHandle>();
        assert_send_sync::<xqa_xdm::Item>();
        assert_send_sync::<DynamicContext>();
        assert_send_sync::<EvalStats>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<Engine>();
    }
}
