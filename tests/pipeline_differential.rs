//! Differential tests for the streaming tuple pipeline.
//!
//! A FLWOR runs on one driver whose sink either materializes the result
//! or streams it batch by batch. Every query here is evaluated both
//! ways, each from a fresh context: a profiled materialized `run` (which
//! also asserts that instrumentation never changes results and that
//! every FLWOR records its operator pipeline) and an unprofiled
//! `run_streaming`. The serialized results (or the errors) must be
//! byte-identical and the whole evaluator counter snapshot must match.

use xqa::{
    serialize_sequence, DynamicContext, Engine, EngineOptions, EvalStatsSnapshot, PreparedQuery,
    StreamError,
};

/// A run's observable outcome: the serialized result or the error, and
/// the context's counters afterwards.
type Outcome = (Result<String, String>, EvalStatsSnapshot);

fn run_materialized(plan: &PreparedQuery, mut ctx: DynamicContext, query: &str) -> Outcome {
    ctx.enable_profiling();
    let out = plan.run(&ctx).map_err(|e| e.to_string());
    if out.is_ok() {
        let profile = ctx.take_profile().expect("profiling was enabled");
        assert!(
            !profile.is_empty(),
            "no pipeline profile recorded for:\n{query}"
        );
        for pipeline in &profile.pipelines {
            assert!(!pipeline.ops.is_empty(), "empty pipeline in profile");
        }
    }
    (
        out.map(|seq| serialize_sequence(&seq)),
        ctx.stats.snapshot(),
    )
}

fn run_streamed(plan: &PreparedQuery, ctx: DynamicContext) -> Outcome {
    let mut items = Vec::new();
    let out = plan.run_streaming(&ctx, &mut |batch| {
        items.extend_from_slice(batch);
        Ok(())
    });
    let out = match out {
        Ok(_) => Ok(serialize_sequence(&items)),
        Err(StreamError::BeforeFirstItem(e) | StreamError::MidStream { error: e, .. }) => {
            Err(e.to_string())
        }
        Err(e @ StreamError::Sink { .. }) => panic!("the collecting sink never fails: {e}"),
    };
    (out, ctx.stats.snapshot())
}

/// Evaluate `query` under `engine` materialized and streamed, each from
/// a fresh `ctx()`, assert the two outcomes are identical, and return
/// the shared result (or error).
fn assert_modes_identical_with(
    engine: &Engine,
    query: &str,
    ctx: fn() -> DynamicContext,
) -> Result<String, String> {
    let plan = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"));
    let (materialized, counters) = run_materialized(&plan, ctx(), query);
    let (streamed, streamed_counters) = run_streamed(&plan, ctx());
    assert_eq!(
        materialized, streamed,
        "materialized and streamed runs disagree for:\n{query}"
    );
    assert_eq!(
        counters, streamed_counters,
        "materialized and streamed runs count differently for:\n{query}"
    );
    materialized
}

fn assert_identical_ctx(query: &str, ctx: fn() -> DynamicContext) {
    assert_modes_identical_with(&Engine::new(), query, ctx)
        .unwrap_or_else(|e| panic!("run: {e}\n{query}"));
}

fn assert_identical(query: &str) {
    assert_identical_ctx(query, DynamicContext::new);
}

fn orders_ctx() -> DynamicContext {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 120,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx
}

// ---- grouping ---------------------------------------------------------

#[test]
fn groupby_single_key() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        orders_ctx,
    );
}

#[test]
fn groupby_two_keys() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/returnflag into $rf, $li/linestatus into $ls \
         nest $li/quantity into $qs \
         order by string($rf), string($ls) \
         return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>",
        orders_ctx,
    );
}

#[test]
fn groupby_ordered_nest() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li/shipdate order by string($li/shipdate) into $ds \
         order by string($m) \
         return <g>{string($m)}:{string($ds[1])}..{string($ds[last()])}</g>",
        orders_ctx,
    );
}

#[test]
fn groupby_custom_equality() {
    assert_identical_ctx(
        "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
         { deep-equal($a, $b) }; \
         for $li in //order/lineitem \
         group by $li/shipmode into $m using local:eq \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        orders_ctx,
    );
}

#[test]
fn groupby_post_group_let_and_where() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         let $n := count($items) \
         where $n ge 10 \
         order by $n descending, string($m) \
         return <g>{string($m)}:{$n}</g>",
        orders_ctx,
    );
}

// ---- ranking ----------------------------------------------------------

#[test]
fn rank_query_unbounded() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         order by number($li/extendedprice) descending \
         return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>",
        orders_ctx,
    );
}

#[test]
fn rank_query_topk() {
    assert_identical_ctx(
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 10]",
        orders_ctx,
    );
}

#[test]
fn rank_groups_topk() {
    assert_identical_ctx(
        "(for $li in //order/lineitem \
          group by $li/shipmode into $m \
          nest $li into $items \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}</g>)\
         [position() le 3]",
        orders_ctx,
    );
}

// ---- windows ----------------------------------------------------------

#[test]
fn tumbling_window() {
    assert_identical(
        "for tumbling window $w in (1 to 50) \
         start at $s when $s mod 7 = 1 \
         return <w>{sum($w)}</w>",
    );
}

#[test]
fn tumbling_window_with_end_condition() {
    assert_identical(
        "for tumbling window $w in (2, 4, 6, 1, 3, 8, 10, 5) \
         start $s when $s mod 2 = 0 \
         end $e when $e mod 2 = 1 \
         return <w>{$w}</w>",
    );
}

#[test]
fn sliding_window_with_rank() {
    assert_identical(
        "for sliding window $w in (1 to 12) \
         start at $s when true() \
         only end at $e when $e = $s + 2 \
         return at $r <w r=\"{$r}\">{sum($w)}</w>",
    );
}

// ---- plain FLWOR shapes ----------------------------------------------

#[test]
fn for_let_where_count() {
    assert_identical(
        "for $x in (5, 3, 8, 1, 9, 2) \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    );
}

#[test]
fn nested_flwor_in_let() {
    assert_identical(
        "for $x in 1 to 5 \
         let $below := for $y in 1 to 5 where $y lt $x return $y \
         return <r>{$x}|{count($below)}</r>",
    );
}

#[test]
fn empty_for_input() {
    assert_identical("for $x in () order by $x return at $r <r>{$r}</r>");
}

#[test]
fn multiple_for_clauses() {
    assert_identical(
        "for $x in (1, 2, 3) \
         for $y in (\"a\", \"b\") \
         order by $y, $x descending \
         return <r>{$y}{$x}</r>",
    );
}

// ---- large inputs -----------------------------------------------------
//
// The corpora below, and inputs long enough to cross many batches at
// every operator, replayed through the same materialized-vs-streamed
// harness.

/// The orders-document corpus shared by the mode, access-path, and
/// expression-bytecode differentials.
const ORDERS_CORPUS: [&str; 8] = [
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        "for $li in //order/lineitem \
         group by $li/returnflag into $rf, $li/linestatus into $ls \
         nest $li/quantity into $qs \
         order by string($rf), string($ls) \
         return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>",
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li/shipdate order by string($li/shipdate) into $ds \
         order by string($m) \
         return <g>{string($m)}:{string($ds[1])}..{string($ds[last()])}</g>",
        "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
         { deep-equal($a, $b) }; \
         for $li in //order/lineitem \
         group by $li/shipmode into $m using local:eq \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         let $n := count($items) \
         where $n ge 10 \
         order by $n descending, string($m) \
         return <g>{string($m)}:{$n}</g>",
        "for $li in //order/lineitem \
         order by number($li/extendedprice) descending \
         return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>",
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 10]",
        "(for $li in //order/lineitem \
          group by $li/shipmode into $m \
          nest $li into $items \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}</g>)\
         [position() le 3]",
];

/// The document-free corpus shared by the same differentials.
const PLAIN_CORPUS: [&str; 7] = [
    "for tumbling window $w in (1 to 50) \
         start at $s when $s mod 7 = 1 \
         return <w>{sum($w)}</w>",
    "for tumbling window $w in (2, 4, 6, 1, 3, 8, 10, 5) \
         start $s when $s mod 2 = 0 \
         end $e when $e mod 2 = 1 \
         return <w>{$w}</w>",
    "for sliding window $w in (1 to 12) \
         start at $s when true() \
         only end at $e when $e = $s + 2 \
         return at $r <w r=\"{$r}\">{sum($w)}</w>",
    "for $x in (5, 3, 8, 1, 9, 2) \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    "for $x in 1 to 5 \
         let $below := for $y in 1 to 5 where $y lt $x return $y \
         return <r>{$x}|{count($below)}</r>",
    "for $x in () order by $x return at $r <r>{$r}</r>",
    "for $x in (1, 2, 3) \
         for $y in (\"a\", \"b\") \
         order by $y, $x descending \
         return <r>{$y}{$x}</r>",
];

/// The orders and document-free corpora through the harness.
#[test]
fn parallel_corpus_differential() {
    for query in ORDERS_CORPUS {
        assert_identical_ctx(query, orders_ctx);
    }
    for query in PLAIN_CORPUS {
        assert_identical(query);
    }
}

#[test]
fn parallel_large_streamed_chain() {
    // No breaker: the return values of every batch, in order.
    assert_identical(
        "for $x in 1 to 4000 \
         let $y := $x * 3 \
         where $y mod 7 = 0 \
         return <r>{$y}</r>",
    );
}

#[test]
fn parallel_large_positional_at() {
    // `at` ordinals keep counting across batches.
    assert_identical(
        "for $x at $i in 2 to 4001 \
         where $x mod 997 = 0 \
         return <r>{$i}:{$x}</r>",
    );
}

#[test]
fn parallel_large_rank_without_order() {
    // No breaker but `return at`: ranks keep counting across batches.
    assert_identical(
        "for $x in 1 to 3000 \
         where $x mod 2 = 0 \
         return at $r <r>{$r}:{$x}</r>",
    );
}

#[test]
fn parallel_large_group_by_deep_equal_keys() {
    // Sequence-valued grouping keys exercise the deep-equal fallback of
    // the group hash table; with no order by, group order is first
    // appearance.
    assert_identical(
        "for $x in 1 to 5000 \
         group by ($x mod 7, $x mod 3) into $k \
         nest $x into $xs \
         return <g>{$k[1]}-{$k[2]}|{count($xs)}|{sum($xs)}</g>",
    );
}

#[test]
fn parallel_large_group_by_ordered_nest() {
    assert_identical(
        "for $x in 1 to 5000 \
         group by $x mod 11 into $k \
         nest $x order by $x mod 13, $x into $xs \
         order by $k \
         return <g>{$k}|{$xs[1]}|{$xs[last()]}</g>",
    );
}

#[test]
fn parallel_large_top_k_ties_and_rank() {
    // Massive ties on the sort key: the heap's survivors and their
    // ranks follow the stable order (tags break ties by input position).
    assert_identical(
        "(for $x in 1 to 5000 \
          order by $x mod 10 \
          return at $r <r rank=\"{$r}\">{$x}</r>)[position() le 25]",
    );
}

#[test]
fn parallel_large_full_sort_stability() {
    assert_identical(
        "for $x in 1 to 3000 \
         order by $x mod 4 \
         return <r>{$x}</r>",
    );
}

#[test]
fn parallel_large_groupby_then_downstream_clauses() {
    // Clauses after the breaker (let/where/order by) stream over its
    // output.
    assert_identical(
        "for $x in 1 to 5000 \
         group by $x mod 17 into $k \
         nest $x into $xs \
         let $n := count($xs) \
         where $k mod 2 = 0 \
         order by $n descending, $k \
         return <g>{$k}:{$n}</g>",
    );
}

#[test]
fn parallel_error_matches_serial() {
    // Both runs surface the error of the first failing tuple, even
    // though later tuples would also fail.
    let err = assert_modes_identical_with(
        &Engine::new(),
        "for $x in 1 to 3000 return $x idiv ($x - 1500)",
        DynamicContext::new,
    )
    .expect_err("the query must fail");
    assert!(err.contains("division by zero"), "{err}");
}

// ---- access paths -----------------------------------------------------
//
// Every query below is evaluated with the access path forced to `walk`
// and forced to `index`, against a context whose documents carry
// indexed stores. Both serialized results must be byte-identical: the
// index path is a pure access-method substitution, never a semantic
// one.

fn indexed_orders_ctx() -> (
    xqa::DynamicContext,
    std::sync::Arc<xqa::storage::CatalogStatistics>,
) {
    let mut ctx = orders_ctx();
    ctx.index_documents();
    let stats = std::sync::Arc::new(xqa::storage::CatalogStatistics::from_stores(
        ctx.stores().map(std::sync::Arc::as_ref),
    ));
    (ctx, stats)
}

fn assert_access_paths_identical(
    query: &str,
    ctx: &xqa::DynamicContext,
    stats: &std::sync::Arc<xqa::storage::CatalogStatistics>,
) {
    use xqa::AccessPathMode;
    let [walk, index] = [AccessPathMode::Walk, AccessPathMode::Index].map(|mode| {
        let engine = Engine::with_options(EngineOptions {
            access_path: mode,
            ..Default::default()
        })
        .with_statistics(std::sync::Arc::clone(stats));
        let plan = engine
            .compile(query)
            .unwrap_or_else(|e| panic!("compile ({mode:?}): {e}\n{query}"));
        let out = plan
            .run(ctx)
            .unwrap_or_else(|e| panic!("run ({mode:?}): {e}\n{query}"));
        serialize_sequence(&out)
    });
    assert_eq!(walk, index, "walk and index disagree for:\n{query}");
}

/// The paper-workload corpus replayed as a walk-vs-index differential.
/// Descendant scans, string and numeric value predicates, predicates
/// the value index must refuse (non-leaf children, inequalities), and
/// FLWOR pipelines above them all serialize byte-identically whichever
/// access path resolves the scan.
#[test]
fn access_path_corpus_differential() {
    let (ctx, stats) = indexed_orders_ctx();
    for query in ACCESS_PATH_CORPUS {
        assert_access_paths_identical(query, &ctx, &stats);
    }
}

/// The paper-workload access-path corpus, shared with the
/// expression-bytecode differential below.
const ACCESS_PATH_CORPUS: [&str; 13] = [
    // plain descendant scans, high and low selectivity
    "count(//lineitem)",
    "count(//order)",
    "for $m in //shipmode return string($m)",
    // value-eq predicates: string probe, numeric probe, empty result
    "count(//lineitem[returnflag = \"A\"])",
    "count(//lineitem[quantity = 10])",
    "count(//lineitem[quantity = 999999])",
    "for $li in //lineitem[linestatus = \"O\"] return string($li/partkey)",
    // value index must refuse: non-leaf child, inequality, doubled preds
    "count(//order[customer = \"x\"])",
    "count(//lineitem[quantity > 10])",
    "count(//lineitem[quantity = 10][returnflag = \"A\"])",
    // descendant scan feeding the paper's grouping pipeline
    "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    // value predicate below a top-k ranking pipeline
    "(for $li in //lineitem[returnflag = \"R\"] \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 5]",
    // nested rescan: the inner path is re-annotated per tuple
    "for $m in distinct-values(//lineitem/shipmode) \
         let $n := count(//lineitem[shipmode = $m]) \
         order by string($m) \
         return <g>{string($m)}:{$n}</g>",
];

/// The forced-index corpus must actually exercise the index: a run with
/// everything forced to `index` records index hits, and the same
/// queries forced to `walk` record none.
#[test]
fn access_path_differential_takes_the_index() {
    use xqa::AccessPathMode;
    let (ctx, stats) = indexed_orders_ctx();
    let query = "count(//lineitem[quantity = 10]) + count(//lineitem)";
    let run = |mode: AccessPathMode| {
        let engine = Engine::with_options(EngineOptions {
            access_path: mode,
            ..Default::default()
        })
        .with_statistics(std::sync::Arc::clone(&stats));
        let before = ctx.stats.snapshot();
        engine
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        let after = ctx.stats.snapshot();
        (
            after.scan_index_hits - before.scan_index_hits,
            after.scan_walk_tuples - before.scan_walk_tuples,
        )
    };
    let (index_hits, _) = run(AccessPathMode::Index);
    assert!(
        index_hits >= 2,
        "forced index run recorded {index_hits} hits"
    );
    let (walk_hits, walk_tuples) = run(AccessPathMode::Walk);
    assert_eq!(walk_hits, 0, "forced walk run must not touch the index");
    assert!(walk_tuples > 0, "forced walk run must tree-walk");
}

// ---- expression bytecode ----------------------------------------------
//
// Every query in the corpora above is evaluated with scalar expression
// evaluation forced to `bytecode` and forced to `tree`. Both serialized
// results must be byte-identical: a compiled program is a pure
// evaluation-method substitution for the tree-walker, never a semantic
// one.

fn engine_with_expr_eval(mode: xqa::ExprEvalMode) -> Engine {
    Engine::with_options(EngineOptions {
        expr_eval: mode,
        ..Default::default()
    })
}

fn assert_expr_evals_identical(query: &str, ctx: &DynamicContext) {
    use xqa::ExprEvalMode;
    let [bytecode, tree] = [ExprEvalMode::Bytecode, ExprEvalMode::Tree].map(|mode| {
        let plan = engine_with_expr_eval(mode)
            .compile(query)
            .unwrap_or_else(|e| panic!("compile ({mode:?}): {e}\n{query}"));
        let before = ctx.stats.snapshot();
        let out = plan
            .run(ctx)
            .unwrap_or_else(|e| panic!("run ({mode:?}): {e}\n{query}"));
        let comparisons = ctx.stats.snapshot().comparisons - before.comparisons;
        (serialize_sequence(&out), comparisons)
    });
    assert_eq!(
        bytecode.0, tree.0,
        "bytecode and tree disagree for:\n{query}"
    );
    // The type-specialized comparison fast paths must count exactly the
    // comparisons the tree-walker's kernels count.
    assert_eq!(
        bytecode.1, tree.1,
        "bytecode and tree comparison counts diverge for:\n{query}"
    );
}

/// The orders and document-free corpora replayed as a bytecode-vs-tree
/// differential.
#[test]
fn expr_eval_corpus_differential() {
    for query in ORDERS_CORPUS {
        assert_expr_evals_identical(query, &orders_ctx());
    }
    for query in PLAIN_CORPUS {
        assert_expr_evals_identical(query, &DynamicContext::new());
    }
}

/// The access-path corpus replayed the same way against an indexed
/// context: path-heavy queries mostly decline lowering, so this leg
/// pins the fallback boundary (compiled clause next to an interpreted
/// one) to identical output.
#[test]
fn expr_eval_access_path_corpus_differential() {
    let (ctx, _stats) = indexed_orders_ctx();
    for query in ACCESS_PATH_CORPUS {
        assert_expr_evals_identical(query, &ctx);
    }
}

/// Large inputs, where one compiled program's register scratch is
/// reused across many batches.
#[test]
fn expr_eval_parallel_morsel_differential() {
    let corpus = [
        "for $x in 1 to 4000 \
         let $y := $x * 3 \
         where $y mod 7 = 0 \
         return <r>{$y}</r>",
        "for $x at $i in 2 to 4001 \
         where $x mod 997 = 0 \
         return <r>{$i}:{$x}</r>",
        "for $x in 1 to 5000 \
         group by $x mod 7 into $k \
         nest $x into $xs \
         order by $k \
         return <g>{$k}|{count($xs)}|{sum($xs)}</g>",
        "(for $x in 1 to 5000 \
          order by $x mod 10 \
          return at $r <r rank=\"{$r}\">{$x}</r>)[position() le 25]",
    ];
    for query in corpus {
        assert_expr_evals_identical(query, &DynamicContext::new());
    }
}

/// Forced-bytecode runs on queries whose for/let/where clauses are all
/// in the scalar subset must actually execute compiled programs — and
/// forced-tree runs must execute none.
#[test]
fn forced_bytecode_actually_compiles() {
    use xqa::ExprEvalMode;
    // The process-wide override deliberately defeats per-engine modes,
    // so the tree-side zero assertions below would be wrong under it.
    if std::env::var_os("XQA_FORCE_EXPR_EVAL").is_some() {
        return;
    }
    let lowering_corpus = [
        "for $x in 1 to 100 where $x mod 3 = 0 return $x",
        "for $x in 1 to 50 let $y := $x * 2 + 1 where $y > 20 return $y",
        "for $x in 1 to 20 \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    ];
    let ctx = DynamicContext::new();
    for query in lowering_corpus {
        let before = ctx.stats.snapshot();
        engine_with_expr_eval(ExprEvalMode::Bytecode)
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        let mid = ctx.stats.snapshot();
        engine_with_expr_eval(ExprEvalMode::Tree)
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        let after = ctx.stats.snapshot();
        assert!(
            mid.expr_compiled > before.expr_compiled,
            "forced bytecode executed no compiled programs for:\n{query}"
        );
        assert_eq!(
            mid.expr_fallback, before.expr_fallback,
            "fully-lowerable query recorded fallbacks for:\n{query}"
        );
        assert_eq!(
            after.expr_compiled, mid.expr_compiled,
            "forced tree executed compiled programs for:\n{query}"
        );
        assert_eq!(
            after.expr_fallback, mid.expr_fallback,
            "tree mode must not count fallbacks for:\n{query}"
        );
    }
}

// ---- join unnesting ----------------------------------------------------
//
// Every query below is evaluated with the join strategy forced to
// `hash` and forced to `nested`. Both serialized results must be
// byte-identical: the hash join is a pure join-method substitution for
// the nested loop, never a semantic one. Every corpus entry is a
// joinable shape, so the hash-mode plans are additionally required to
// carry the `[hash join ...]` annotation (unless the process-wide
// `XQA_FORCE_JOIN` override is in play). The hash plan then also goes
// through the materialized-vs-streamed harness.

fn engine_with_join(mode: xqa::JoinMode) -> Engine {
    Engine::with_options(EngineOptions {
        join: mode,
        ..Default::default()
    })
}

fn assert_join_modes_identical(query: &str, ctx: fn() -> DynamicContext) {
    use xqa::JoinMode;
    let forced = std::env::var_os("XQA_FORCE_JOIN").is_some();
    let [hash, nested] = [JoinMode::Hash, JoinMode::Nested].map(|mode| {
        let plan = engine_with_join(mode)
            .compile(query)
            .unwrap_or_else(|e| panic!("compile ({mode:?}): {e}\n{query}"));
        if mode == JoinMode::Hash && !forced {
            assert!(
                plan.explain().contains("[hash join"),
                "hash mode did not unnest:\n{query}\n{}",
                plan.explain()
            );
        }
        let out = plan
            .run(&ctx())
            .unwrap_or_else(|e| panic!("run ({mode:?}): {e}\n{query}"));
        serialize_sequence(&out)
    });
    assert_eq!(hash, nested, "hash and nested disagree for:\n{query}");
    assert_modes_identical_with(&engine_with_join(JoinMode::Hash), query, ctx)
        .unwrap_or_else(|e| panic!("run: {e}\n{query}"));
}

/// Joinable shapes over the orders document: the paper's §6 self-join
/// baseline, `eq` and reversed-operand variants, a numeric key, the
/// existential semi-join, a join feeding a top-k ranking pipeline, and
/// Table 1's two-key `Q` (a conjunctive, composite-key join).
const JOIN_CORPUS: [&str; 7] = [
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $li/shipmode eq $m return $li \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $m = $li/shipmode return $li \
         order by string($m) \
         return <g>{count($items)}</g>",
    "for $q in distinct-values(//order/lineitem/quantity) \
         let $ls := for $li in //order/lineitem where $li/quantity = $q return $li \
         order by number($q) \
         return <g>{string($q)}:{count($ls)}</g>",
    "for $o in //order \
         where some $li in //order/lineitem[returnflag = \"R\"] satisfies \
             $li/shipmode = $o/lineitem[1]/shipmode \
         return <o>{count($o/lineitem)}</o>",
    "(for $m in distinct-values(//order/lineitem/shipmode) \
          let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}:{count($items)}</g>)\
         [position() le 3]",
    "for $a in distinct-values(//order/lineitem/shipinstruct), \
             $b in distinct-values(//order/lineitem/shipmode) \
         let $items := for $i in //order/lineitem \
                       where $i/shipinstruct = $a and $i/shipmode = $b return $i \
         where exists($items) \
         return <r>{$a, $b, count($items)}</r>",
];

#[test]
fn join_corpus_differential() {
    for query in JOIN_CORPUS {
        assert_join_modes_identical(query, orders_ctx);
    }
}

/// Large document-free shapes where the probe side (and in some the
/// build side) spans many batches, so one build table serves every
/// probing batch.
const JOIN_LARGE_CORPUS: [&str; 4] = [
    "for $x in 1 to 3000 \
         let $m := for $y in (2, 4, 6, 8) where $y = $x mod 10 return $y \
         return <r>{$x}:{count($m)}</r>",
    "for $x in 1 to 1200 \
         let $m := for $y in 1 to 3000 where $y = $x * 2 return $y \
         return count($m)",
    "for $x in 1 to 3000 \
         where some $y in (3, 5, 7) satisfies $y = $x mod 11 \
         return $x",
    "for $x in 1 to 3000 \
         let $m := for $y in 1 to 2000 \
                   where $y mod 7 = $x mod 7 and $y mod 5 eq $x mod 3 return $y \
         return <r>{$x}:{count($m)}:{$m[1]}</r>",
];

#[test]
fn join_large_morsel_differential() {
    for query in JOIN_LARGE_CORPUS {
        assert_join_modes_identical(query, DynamicContext::new);
    }
}

/// Forced-hash runs must actually take the hash path — the build and
/// probe counters move — and forced-nested runs must leave them alone.
#[test]
fn join_differential_takes_the_hash_path() {
    use xqa::JoinMode;
    // The process-wide override deliberately defeats per-engine modes,
    // so the nested-side zero assertions below would be wrong under it.
    if std::env::var_os("XQA_FORCE_JOIN").is_some() {
        return;
    }
    let ctx = orders_ctx();
    let query = JOIN_CORPUS[0];
    let before = ctx.stats.snapshot();
    engine_with_join(JoinMode::Hash)
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect("run");
    let mid = ctx.stats.snapshot();
    engine_with_join(JoinMode::Nested)
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect("run");
    let after = ctx.stats.snapshot();
    assert!(
        mid.join_hash_probes > before.join_hash_probes,
        "forced hash recorded no probes"
    );
    assert!(
        mid.join_build_tuples > before.join_build_tuples,
        "forced hash recorded no build tuples"
    );
    assert_eq!(
        after.join_hash_probes, mid.join_hash_probes,
        "forced nested must not probe a hash table"
    );
    assert_eq!(
        after.join_build_tuples, mid.join_build_tuples,
        "forced nested must not build a hash table"
    );
}

/// A query mixing lowerable and unloweable clauses records both
/// counters: the scalar `where` compiles while the path-valued `for`
/// binding falls back.
#[test]
fn mixed_query_counts_compiled_and_fallback() {
    use xqa::ExprEvalMode;
    if std::env::var_os("XQA_FORCE_EXPR_EVAL").is_some() {
        return;
    }
    let ctx = orders_ctx();
    let query = "for $li in //order/lineitem \
                 let $q := number($li/quantity) \
                 where $q >= 0 \
                 return $li/partkey";
    let before = ctx.stats.snapshot();
    engine_with_expr_eval(ExprEvalMode::Bytecode)
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect("run");
    let after = ctx.stats.snapshot();
    assert!(
        after.expr_compiled > before.expr_compiled,
        "the scalar where clause must run compiled"
    );
    assert!(
        after.expr_fallback > before.expr_fallback,
        "the path-valued for and function-calling let must fall back"
    );
}
