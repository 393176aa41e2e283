//! The repository benchmark for xqa.
//!
//! One command (`python3 perfbench/run.py`) builds this package,
//! generates a workload's inputs from a seed in a separate process,
//! then runs the workload through xqa's public APIs and prints its
//! end-to-end metrics, or with `--trace 1` its per-layer metrics.
//! `README.md` in this package lists the workloads, the metrics and
//! which per-layer metric is expected to move which end-to-end one.

pub mod alloc;
pub mod cli;
pub mod client;
pub mod gen;
pub mod ingest;
pub mod json;
pub mod oracle;
pub mod report;
pub mod section6;
pub mod serve;
pub mod stats;
pub mod trace;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use xqa::service::DocumentCatalog;
use xqa::{DynamicContext, Engine, EngineOptions, PreparedQuery, TraceEvent, TracePhase};

use crate::report::OpStats;
use crate::trace::Tracer;

/// A parsed, indexed document and an engine configured the way
/// `xqa run` configures it: default options plus catalog statistics.
pub struct Loaded {
    /// The catalog holding the document and its indexes.
    pub catalog: DocumentCatalog,
    /// The engine.
    pub engine: Engine,
    /// Nodes in the document.
    pub nodes: usize,
}

impl Loaded {
    /// A fresh evaluation context over the catalog; `profile` turns on
    /// the engine's per-operator profile.
    pub fn context(&self, profile: bool) -> DynamicContext {
        let mut ctx = self.catalog.new_context();
        if profile {
            ctx.enable_profiling();
        }
        ctx
    }
}

/// XML text in memory → queryable: `parse_document`, then
/// `DocumentCatalog::build_indexes`.
pub fn load(xml: &str, t: &mut Tracer) -> Result<Loaded, String> {
    let doc = t
        .span("xmlparse", "parse_document", |_| xqa::parse_document(xml))
        .map_err(|e| format!("parse: {e}"))?;
    let nodes = doc.len();
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(doc);
    let statistics = t.span("storage", "build_indexes", |_| catalog.build_indexes());
    Ok(Loaded {
        catalog,
        engine: Engine::with_options(EngineOptions::default()).with_statistics(statistics),
        nodes,
    })
}

/// Remembers when (and after how many allocations) the engine's
/// compile emitted its parse event, so the frontend's share of a
/// compile becomes a span of its own.
#[derive(Debug, Default)]
struct ParseMark(Mutex<Option<(u64, u64, u64)>>);

impl xqa::TraceSink for ParseMark {
    fn emit(&self, event: TraceEvent) {
        if event.phase == TracePhase::Parse {
            let (allocs, bytes) = alloc::snapshot();
            let mut mark = self.0.lock().expect("parse mark poisoned");
            mark.get_or_insert((event.ts_nanos, allocs, bytes));
        }
    }
}

/// `Engine::compile`, with the frontend parse split out when tracing.
pub fn compile(
    engine: &Engine,
    source: &str,
    name: &str,
    t: &mut Tracer,
) -> Result<PreparedQuery, String> {
    t.span("engine.compile", name, |t| {
        if !t.is_on() {
            return engine.compile(source);
        }
        let mark = Arc::new(ParseMark::default());
        let tracer = xqa::Tracer::new(0, t.clock(), Arc::clone(&mark) as _);
        let query = engine.compile_traced(source, Some(&tracer));
        let parsed = *mark.0.lock().expect("parse mark poisoned");
        if let (Some((parent, start, (a0, b0))), Some((end, a1, b1))) = (t.open_span(), parsed) {
            t.child(
                parent,
                "frontend",
                "parse_query",
                (start, end),
                (a1 - a0, b1 - b0),
            );
        }
        query
    })
    .map_err(|e| format!("compile: {e}"))
}

/// Compile, run and serialize one query. When tracing, also returns
/// its counter deltas, operator profile and serialized size.
pub fn execute(
    loaded: &Loaded,
    ctx: &DynamicContext,
    source: &str,
    name: &str,
    t: &mut Tracer,
) -> Result<(String, OpStats), String> {
    let query = compile(&loaded.engine, source, name, t)?;
    let mut stats = OpStats::default();
    let before = t.is_on().then(|| ctx.stats.snapshot());
    let result = t
        .span("engine.run", name, |t| {
            let result = query.run(ctx);
            if let Some(profile) = ctx.take_profile().filter(|_| t.is_on()) {
                // Lay the operators' self times out under the run span,
                // as the engine's own explain-analyze timeline does.
                if let Some((parent, mut cursor, _)) = t.open_span() {
                    for op in profile.pipelines.iter().flat_map(|p| &p.ops) {
                        let name = format!("op.{}", op.kind.as_str());
                        t.child(
                            parent,
                            "engine.op",
                            &name,
                            (cursor, cursor + op.nanos),
                            (0, 0),
                        );
                        cursor += op.nanos;
                    }
                }
                stats.add_profile(&profile);
            }
            result
        })
        .map_err(|e| format!("run: {e}"))?;
    if let Some(before) = before {
        stats.add_counters(&before, &ctx.stats.snapshot());
    }
    let text = t.span("serialize", name, |_| xqa::serialize_sequence(&result));
    if t.is_on() {
        *stats
            .counts
            .entry("serialize.bytes".to_string())
            .or_default() += text.len() as u64;
    }
    Ok((text, stats))
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
