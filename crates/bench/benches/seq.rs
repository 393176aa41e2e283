//! Sequence-representation benches: grouping/nesting queries that used
//! to deep-copy item vectors on every `let` binding, tuple snapshot and
//! group-nest append, measured under the copy-on-write `Sequence`.
//!
//! Each record carries a `seq` summary next to the wall-clock figures:
//!
//! - `items_copied` — items cloned into newly allocated backing storage
//!   during one evaluation;
//! - `clones_shared` — items whose copy a shared `Many` clone avoided;
//! - `baseline_items_copied` — what the old `Vec<Item>` representation
//!   would have copied for the same run (every shared clone was a full
//!   copy there, so the baseline is the sum of the two counters);
//! - `reduction_pct` — the headline claim: how much of the baseline
//!   copying the sharing eliminated.

use xqa::Engine;
use xqa_bench::harness::Harness;
use xqa_bench::Dataset;

/// The paper's central shape: group lineitems, nest the full items.
fn group_nest_query() -> &'static str {
    "for $li in //order/lineitem \
     group by $li/shipmode into $m \
     nest $li into $items \
     order by string($m) \
     return <g>{string($m)}:{count($items)}</g>"
}

/// Two keys, two nests: every group carries two accumulated sequences.
fn group_two_nests_query() -> &'static str {
    "for $li in //order/lineitem \
     group by $li/returnflag into $rf, $li/linestatus into $ls \
     nest $li/quantity into $qs \
     order by string($rf), string($ls) \
     return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>"
}

/// Post-group `let`/`where` re-bind the nested sequence repeatedly —
/// the slot-copy path that O(1) clones turn into refcount bumps.
fn group_rebind_query() -> &'static str {
    "for $li in //order/lineitem \
     group by $li/shipmode into $m \
     nest $li into $items \
     let $n := count($items) \
     let $again := $items \
     where $n ge 1 \
     order by $n descending, string($m) \
     return <g>{string($m)}:{count($again)}</g>"
}

/// One run, returning the copy-counter deltas.
fn measure_counters(query: &str, dataset: &Dataset) -> (u64, u64) {
    let engine = Engine::new();
    let plan = engine.compile(query).expect("compiles");
    let ctx = dataset.context();
    let before = ctx.stats.snapshot();
    plan.run(&ctx).expect("runs");
    let after = ctx.stats.snapshot();
    (
        after.seq_items_copied - before.seq_items_copied,
        after.seq_clones_shared - before.seq_clones_shared,
    )
}

fn bench_one(group: &mut Harness, label: &str, query: &str, dataset: &Dataset) {
    let (copied, shared) = measure_counters(query, dataset);
    let baseline = copied + shared;
    let reduction_pct = if baseline == 0 {
        0.0
    } else {
        100.0 * shared as f64 / baseline as f64
    };
    println!(
        "{label}: items_copied={copied} clones_shared={shared} \
         baseline_items_copied={baseline} reduction={reduction_pct:.1}%"
    );
    group.annotate(
        "seq",
        format!(
            "{{\"items_copied\": {copied}, \"clones_shared\": {shared}, \
             \"baseline_items_copied\": {baseline}, \"reduction_pct\": {reduction_pct:.1}}}"
        ),
    );
    let engine = Engine::new();
    let plan = engine.compile(query).expect("compiles");
    let ctx = dataset.context();
    group.bench(label, || {
        plan.run(&ctx).expect("runs");
    });
}

fn main() {
    let mut group = Harness::group("seq/group_nest");
    for lineitems in [2_000usize, 8_000, 16_000] {
        let dataset = Dataset::generate(lineitems);
        bench_one(
            &mut group,
            &format!("n{lineitems}"),
            group_nest_query(),
            &dataset,
        );
    }

    let dataset = Dataset::generate(8_000);
    let mut group = Harness::group("seq/group_shapes");
    bench_one(&mut group, "two_nests", group_two_nests_query(), &dataset);
    bench_one(&mut group, "rebind", group_rebind_query(), &dataset);

    if let Ok(path) = std::env::var("BENCH_JSON") {
        xqa_bench::harness::write_json(&path).expect("write bench json");
        println!("\nbench records written to {path}");
    }
}
