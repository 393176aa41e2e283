//! The join-unnesting rewrite end to end: detection, explain
//! annotations, hash execution vs. the nested-loop plan, the mode
//! gate, and the join counters.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test`.

use std::sync::Arc;

use xqa_engine::{DynamicContext, Engine, EngineOptions, JoinMode, RewriteKind};
use xqa_storage::CatalogStatistics;
use xqa_xmlparse::serialize_sequence;

/// Orders with repeating ship modes: the paper's §6 self-join shape.
const DOC: &str = "<r>\
     <order><lineitem><shipmode>AIR</shipmode><qty>1</qty></lineitem>\
            <lineitem><shipmode>RAIL</shipmode><qty>2</qty></lineitem></order>\
     <order><lineitem><shipmode>AIR</shipmode><qty>3</qty></lineitem>\
            <lineitem><shipmode>SHIP</shipmode><qty>4</qty></lineitem></order>\
     <order><lineitem><shipmode>RAIL</shipmode><qty>5</qty></lineitem>\
            <lineitem><shipmode>AIR</shipmode><qty>6</qty></lineitem></order>\
     </r>";

/// The paper's baseline self-join: one inner FLWOR per distinct key.
const SELF_JOIN: &str = "for $a in distinct-values(//order/lineitem/shipmode) \
     let $items := for $i in //order/lineitem where $i/shipmode = $a return $i \
     order by string($a) \
     return <g m=\"{$a}\">{count($items)}</g>";

/// The existential formulation: a semi-join filter.
const SEMI_JOIN: &str = "for $o in //order \
     where some $i in //order/lineitem[qty > 4] satisfies \
         $i/shipmode = $o/lineitem[1]/shipmode \
     return count($o/lineitem)";

fn ctx() -> DynamicContext {
    let doc = xqa_xmlparse::parse_document(DOC).expect("parse");
    let mut c = DynamicContext::new();
    c.set_context_document(&doc);
    c
}

fn indexed_ctx() -> (DynamicContext, Arc<CatalogStatistics>) {
    let mut c = ctx();
    c.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(c.stores().map(Arc::as_ref)));
    (c, stats)
}

fn engine(join: JoinMode) -> Engine {
    Engine::with_options(EngineOptions {
        join,
        ..Default::default()
    })
}

fn run(e: &Engine, c: &DynamicContext, query: &str) -> String {
    serialize_sequence(&e.compile(query).expect("compile").run(c).expect("run"))
}

#[test]
fn hash_mode_annotates_the_let_shape() {
    let plan = engine(JoinMode::Hash).compile(SELF_JOIN).expect("compile");
    let text = plan.explain();
    assert!(text.contains("[hash join key="), "{text}");
    assert!(text.contains("HashJoin(key="), "{text}");
    assert!(
        plan.applied_rewrites()
            .iter()
            .any(|n| n.kind == RewriteKind::JoinUnnest),
        "no join-unnest rewrite note: {:?}",
        plan.applied_rewrites()
    );
}

#[test]
fn hash_mode_annotates_the_existential_shape() {
    let plan = engine(JoinMode::Hash).compile(SEMI_JOIN).expect("compile");
    let text = plan.explain();
    assert!(text.contains("[hash join key="), "{text}");
    assert!(text.contains("HashJoin(key="), "{text}");
}

#[test]
fn nested_mode_never_annotates() {
    for query in [SELF_JOIN, SEMI_JOIN] {
        let plan = engine(JoinMode::Nested).compile(query).expect("compile");
        assert!(!plan.explain().contains("hash join"), "{}", plan.explain());
    }
}

#[test]
fn auto_without_statistics_stays_nested() {
    let plan = engine(JoinMode::Auto).compile(SELF_JOIN).expect("compile");
    assert!(!plan.explain().contains("hash join"), "{}", plan.explain());
}

#[test]
fn auto_with_statistics_annotates() {
    let (_, stats) = indexed_ctx();
    let plan = engine(JoinMode::Auto)
        .with_statistics(stats)
        .compile(SELF_JOIN)
        .expect("compile");
    assert!(
        plan.explain().contains("[hash join key="),
        "{}",
        plan.explain()
    );
}

#[test]
fn hash_and_nested_agree_on_the_self_join() {
    let c = ctx();
    assert_eq!(
        run(&engine(JoinMode::Hash), &c, SELF_JOIN),
        run(&engine(JoinMode::Nested), &c, SELF_JOIN),
    );
}

#[test]
fn hash_and_nested_agree_on_the_semi_join() {
    let c = ctx();
    assert_eq!(
        run(&engine(JoinMode::Hash), &c, SEMI_JOIN),
        run(&engine(JoinMode::Nested), &c, SEMI_JOIN),
    );
}

#[test]
fn forced_hash_fires_the_join_counters() {
    let c = ctx();
    let before = c.stats.snapshot();
    run(&engine(JoinMode::Hash), &c, SELF_JOIN);
    let after = c.stats.snapshot();
    assert!(
        after.join_hash_probes > before.join_hash_probes,
        "no hash probes recorded"
    );
    assert!(
        after.join_build_tuples > before.join_build_tuples,
        "no build tuples recorded"
    );
}

#[test]
fn nested_mode_leaves_the_join_counters_at_zero() {
    let c = ctx();
    let before = c.stats.snapshot();
    run(&engine(JoinMode::Nested), &c, SELF_JOIN);
    let after = c.stats.snapshot();
    assert_eq!(after.join_hash_probes, before.join_hash_probes);
    assert_eq!(after.join_build_tuples, before.join_build_tuples);
}

/// A probe whose atoms sit outside the build side's comparison class
/// must raise exactly what the nested plan raises (the fallback scan),
/// not silently miss.
#[test]
fn mixed_type_keys_keep_nested_error_behavior() {
    let query = "for $a in (1, 2) \
         let $m := for $y in ('x', 'y') where $y = $a return $y \
         return count($m)";
    let c = DynamicContext::new();
    let hash = engine(JoinMode::Hash)
        .compile(query)
        .expect("compile")
        .run(&c);
    let nested = engine(JoinMode::Nested)
        .compile(query)
        .expect("compile")
        .run(&c);
    match (hash, nested) {
        (Err(h), Err(n)) => assert_eq!(h.to_string(), n.to_string()),
        (h, n) => panic!("expected both plans to raise, got {h:?} vs {n:?}"),
    }
}

/// Untyped document text joins against untyped text: the common case,
/// and the one the string comparison class keeps on the hash path.
#[test]
fn untyped_keys_match_across_collections() {
    let query = "for $o in //order \
         let $m := for $i in //order/lineitem where $i/shipmode = $o/lineitem[1]/shipmode \
                   return $i \
         return count($m)";
    let c = ctx();
    assert_eq!(
        run(&engine(JoinMode::Hash), &c, query),
        run(&engine(JoinMode::Nested), &c, query),
    );
}

/// An empty build side must not evaluate the probe expression — the
/// nested loop never does.
#[test]
fn empty_build_side_binds_empty() {
    let query = "for $a in (1, 2, 3) \
         let $m := for $y in //nosuch where $y = $a return $y \
         return count($m)";
    let c = ctx();
    assert_eq!(run(&engine(JoinMode::Hash), &c, query), "0 0 0");
    assert_eq!(run(&engine(JoinMode::Nested), &c, query), "0 0 0");
}

// ---- composite (conjunctive) keys ---------------------------------------

/// Lineitems carrying the three Table-1 grouping elements; the last
/// one has two `shipmode` children.
const TWO_KEY_DOC: &str = "<r>\
     <order><lineitem><shipinstruct>NONE</shipinstruct><shipmode>AIR</shipmode><tax>0.01</tax><qty>1</qty></lineitem>\
            <lineitem><shipinstruct>COD</shipinstruct><shipmode>RAIL</shipmode><tax>0.02</tax><qty>2</qty></lineitem></order>\
     <order><lineitem><shipinstruct>NONE</shipinstruct><shipmode>AIR</shipmode><tax>0.02</tax><qty>3</qty></lineitem>\
            <lineitem><shipinstruct>NONE</shipinstruct><shipmode>SHIP</shipmode><tax>0.01</tax><qty>4</qty></lineitem></order>\
     <order><lineitem><shipinstruct>COD</shipinstruct><shipmode>RAIL</shipmode><tax>0.01</tax><qty>5</qty></lineitem>\
            <lineitem><shipinstruct>COD</shipinstruct><shipmode>AIR</shipmode><shipmode>SHIP</shipmode><tax>0.02</tax><qty>6</qty></lineitem></order>\
     </r>";

/// Table 1's two-key `Q` template over `(a, b)`.
fn two_key_q(a: &str, b: &str) -> String {
    format!(
        "for $a in distinct-values(//order/lineitem/{a}), \
             $b in distinct-values(//order/lineitem/{b}) \
         let $items := for $i in //order/lineitem \
                       where $i/{a} = $a and $i/{b} = $b return $i \
         where exists($items) \
         return <r>{{$a, $b, count($items)}}</r>"
    )
}

/// The existential two-conjunct formulation, mixing `eq` and `=`.
const TWO_KEY_SEMI: &str = "for $o in //order \
     where some $i in //order/lineitem satisfies \
         $i/shipinstruct eq $o/lineitem[1]/shipinstruct and $i/shipmode = 'SHIP' \
     return count($o/lineitem)";

fn two_key_ctx() -> DynamicContext {
    let doc = xqa_xmlparse::parse_document(TWO_KEY_DOC).expect("parse");
    let mut c = DynamicContext::new();
    c.set_context_document(&doc);
    c
}

/// Run under `join`: the serialized result, or the error code and
/// message.
fn outcome(join: JoinMode, c: &DynamicContext, query: &str) -> String {
    let e = Engine::with_options(EngineOptions {
        join,
        ..Default::default()
    });
    match e.compile(query).expect("compile").run(c) {
        Ok(seq) => serialize_sequence(&seq),
        Err(err) => format!("error {:?}: {err}", err.code()),
    }
}

/// The hash join agrees with the nested loop; returns that outcome.
fn agreed_outcome(c: &DynamicContext, query: &str) -> String {
    let baseline = outcome(JoinMode::Nested, c, query);
    assert_eq!(
        outcome(JoinMode::Hash, c, query),
        baseline,
        "hash disagrees with nested for:\n{query}"
    );
    baseline
}

fn two_key_shapes() -> Vec<String> {
    vec![
        two_key_q("shipinstruct", "shipmode"),
        two_key_q("shipinstruct", "tax"),
        TWO_KEY_SEMI.to_string(),
    ]
}

#[test]
fn conjunctive_keys_are_annotated_under_hash_and_auto() {
    let mut c = two_key_ctx();
    c.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(c.stores().map(Arc::as_ref)));
    for query in two_key_shapes() {
        for e in [
            engine(JoinMode::Hash),
            engine(JoinMode::Auto).with_statistics(Arc::clone(&stats)),
        ] {
            let text = e.compile(&query).expect("compile").explain();
            assert!(text.contains("[hash join key="), "{query}\n{text}");
            assert!(text.contains("HashJoin(key="), "{query}\n{text}");
        }
    }
}

#[test]
fn composite_key_renders_both_sides_as_tuples() {
    let plan = engine(JoinMode::Hash)
        .compile(&two_key_q("shipinstruct", "shipmode"))
        .expect("compile");
    let text = plan.explain();
    assert!(
        text.contains("key=($slot0, $slot1) = ($slot2/shipinstruct, $slot2/shipmode)"),
        "{text}"
    );
}

#[test]
fn conjunctive_keys_match_the_nested_plan() {
    let c = two_key_ctx();
    for query in two_key_shapes() {
        let out = agreed_outcome(&c, &query);
        assert!(!out.starts_with("error"), "{query}: {out}");
    }
}

#[test]
fn conjunctive_keys_take_the_hash_path() {
    let c = two_key_ctx();
    let before = c.stats.snapshot();
    run(
        &engine(JoinMode::Hash),
        &c,
        &two_key_q("shipinstruct", "shipmode"),
    );
    let after = c.stats.snapshot();
    // 2 distinct shipinstructs × 3 distinct shipmodes, one probe each.
    assert_eq!(after.join_hash_probes - before.join_hash_probes, 6);
    assert_eq!(after.join_build_tuples - before.join_build_tuples, 6);
}

/// The lineitem with two `shipmode` children joins under either of
/// them, like the existential `=` it replaces.
#[test]
fn multi_valued_conjunct_matches_existentially() {
    let c = two_key_ctx();
    let query = "for $b in ('AIR', 'SHIP', 'RAIL') \
         let $m := for $i in //order/lineitem \
                   where $i/shipinstruct = 'COD' and $i/shipmode = $b return $i/qty \
         return <g m=\"{$b}\">{data($m)}</g>";
    assert_eq!(
        agreed_outcome(&c, query),
        "<g m=\"AIR\">6</g><g m=\"SHIP\">6</g><g m=\"RAIL\">2 5</g>"
    );
}

/// Probe atoms outside the second conjunct's build class fall back to
/// the scan, which raises the nested plan's error.
#[test]
fn mixed_classes_in_second_conjunct_raise_like_nested() {
    let c = DynamicContext::new();
    let query = "for $a in (1, 2) \
         let $m := for $y in (1, 2, 3) where $y = $a and $y = 'x' return $y \
         return count($m)";
    let out = agreed_outcome(&c, query);
    assert!(out.starts_with("error XPTY0004"), "{out}");
}

/// A second-conjunct probe key that raises is only reached when the
/// first conjunct matches: no error when nothing matches, the nested
/// plan's error when something does — in both join shapes.
#[test]
fn raising_second_probe_key_follows_and_short_circuit() {
    let c = two_key_ctx();
    for (a, raises) in [("'NOPE'", false), ("'COD'", true)] {
        let let_join = format!(
            "for $a in ({a}) \
             let $m := for $i in //order/lineitem \
                       where $i/shipinstruct = $a and $i/qty = xs:integer($a) return $i \
             return count($m)"
        );
        let semi_join = format!(
            "for $a in ({a}) \
             where some $i in //order/lineitem satisfies \
                 $i/shipinstruct = $a and $i/qty = xs:integer($a) \
             return $a"
        );
        for query in [let_join, semi_join] {
            let out = agreed_outcome(&c, &query);
            assert_eq!(out.starts_with("error FORG0001"), raises, "{query}: {out}");
        }
    }
}

/// One non-equality conjunct turns the whole predicate down.
#[test]
fn non_equality_conjunct_declines() {
    let query = "for $a in distinct-values(//order/lineitem/shipmode) \
         let $m := for $i in //order/lineitem where $i/shipmode = $a and $i/qty > 3 return $i \
         return count($m)";
    let plan = engine(JoinMode::Hash).compile(query).expect("compile");
    assert!(!plan.explain().contains("hash join"), "{}", plan.explain());
    agreed_outcome(&two_key_ctx(), query);
}

/// The composite key's ndv is the product of its conjuncts' leaf ndvs
/// (2 × 3, within |build| = 6), so the semi-join gets a join estimate
/// — capped at its 3 input tuples — instead of the 1/2 fallback.
#[test]
fn composite_key_semi_join_is_estimated() {
    let mut c = two_key_ctx();
    c.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(c.stores().map(Arc::as_ref)));
    let plan = engine(JoinMode::Auto)
        .with_statistics(stats)
        .compile(TWO_KEY_SEMI)
        .expect("compile");
    c.enable_profiling();
    plan.run(&c).expect("run");
    let profile = c.take_profile().expect("profiling was enabled");
    let text = plan.explain_analyze(&profile);
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("HashJoin("))
        .unwrap_or_else(|| panic!("no HashJoin operator:\n{text}"));
    assert!(line.contains("est/actual=3/3"), "{text}");
}

/// A build item whose composite key would fan out to more bucket keys
/// than the table admits (40 × 40 atoms here) sends every probe down
/// the verbatim scan instead — same answers, no hash probes.
#[test]
fn oversized_composite_key_falls_back_to_the_scan() {
    let query = "for $a in (3, 7), $b in (4, 9) \
         let $m := for $y in (1, 2, 3) \
                   where (for $z in 1 to 40 return $y + $z) = $a \
                     and (for $z in 1 to 40 return $y * $z) = $b \
                   return $y \
         return <r>{$a}:{$b}:{$m}</r>";
    let c = DynamicContext::new();
    let before = c.stats.snapshot();
    let out = agreed_outcome(&c, query);
    assert_eq!(
        out,
        "<r>3:4:1 2</r><r>3:9:1</r><r>7:4:1 2</r><r>7:9:1 3</r>"
    );
    let after = c.stats.snapshot();
    assert_eq!(after.join_hash_probes, before.join_hash_probes);
    assert!(after.join_build_tuples > before.join_build_tuples);
}
