//! What a run measured, and the per-layer metrics derived from a
//! traced phase.

use std::collections::BTreeMap;

use xqa::{EvalStatsSnapshot, OpKind, QueryProfile};

use crate::json::{obj, Json};
use crate::stats::median;
use crate::trace::Tracer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value (a median unless the name says otherwise).
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, iterations, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The gated end-to-end metrics (see `END_TO_END`).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures by their descriptive
    /// names, with sample counts (printed and recorded, not gated).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Per-layer metrics that do not apply to this workload, and why.
    pub not_applicable: Vec<(String, String)>,
    /// Workload facts for the run record.
    pub facts: Vec<(String, Json)>,
    /// The traced phase's spans (traced runs only).
    pub spans: Option<Json>,
}

impl Report {
    /// Count one operation, failing it when `result` is an error.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Record a fact for the run record.
    pub fn fact(&mut self, key: &str, value: impl Into<Json>) {
        self.facts.push((key.to_string(), value.into()));
    }
}

/// The gated end-to-end metrics every workload reports, in order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("light_p50_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Operator kinds with per-layer metrics.
pub const OP_KINDS: [OpKind; 7] = [
    OpKind::ForScan,
    OpKind::LetBind,
    OpKind::Filter,
    OpKind::GroupConsume,
    OpKind::OrderBy,
    OpKind::HashJoin,
    OpKind::ReturnAt,
];

/// Engine counters reported per operation, as `engine.<name>`.
pub const ENGINE_COUNTERS: [&str; 11] = [
    "nodes_visited",
    "comparisons",
    "tuples_grouped",
    "groups_emitted",
    "scan_walk_tuples",
    "scan_index_tuples",
    "expr_compiled",
    "expr_fallback",
    "join_build_tuples",
    "join_hash_probes",
    "seq_items_copied",
];

/// Per-layer times that some workload cannot produce (it has no such
/// operator, no server, or serializes inside the server). They read 0
/// there on every run, so they stay in the printed report and the run
/// record but are left out of the result line.
pub const PARTIAL_LAYER_TIMES: [&str; 10] = [
    "op.LetBind.self_ms",
    "op.LetBind.ns_per_tuple",
    "op.OrderBy.self_ms",
    "op.OrderBy.ns_per_tuple",
    "op.HashJoin.self_ms",
    "op.HashJoin.ns_per_tuple",
    "serialize.ms",
    "serialize.mb_per_s",
    "service.server_ms",
    "service.http_us",
];

/// Every per-layer metric a traced run reports, in order, with units.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("xmlparse.parse_ms", "ms"),
        ("xmlparse.mb_per_s", "MB/s"),
        ("xmlparse.nodes", "count"),
        ("xmlparse.alloc.count", "count"),
        ("xmlparse.alloc.bytes", "bytes"),
        ("storage.index_ms", "ms"),
        ("storage.index_bytes_per_xml_byte", "ratio"),
        ("storage.alloc.count", "count"),
        ("storage.alloc.bytes", "bytes"),
        ("frontend.parse_us", "us"),
        ("frontend.alloc.count", "count"),
        ("frontend.alloc.bytes", "bytes"),
        ("engine.compile_us", "us"),
        ("engine.compile.alloc.count", "count"),
        ("engine.compile.alloc.bytes", "bytes"),
        ("engine.run_ms", "ms"),
        ("engine.run.alloc.count", "count"),
        ("engine.run.alloc.bytes", "bytes"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for c in ENGINE_COUNTERS {
        names.push((format!("engine.{c}"), "count"));
    }
    names.push(("engine.index_tuple_ratio".to_string(), "ratio"));
    names.push(("engine.expr_compiled_ratio".to_string(), "ratio"));
    for k in OP_KINDS {
        names.push((format!("op.{}.self_ms", k.as_str()), "ms"));
        names.push((format!("op.{}.tuples_out", k.as_str()), "count"));
        names.push((format!("op.{}.ns_per_tuple", k.as_str()), "ns"));
    }
    for (n, u) in [
        ("serialize.ms", "ms"),
        ("serialize.bytes", "bytes"),
        ("serialize.mb_per_s", "MB/s"),
        ("serialize.alloc.count", "count"),
        ("serialize.alloc.bytes", "bytes"),
        ("service.server_ms", "ms"),
        ("service.http_us", "us"),
        ("service.plan_cache_hit_rate", "ratio"),
        ("service.shed", "count"),
        ("service.timeouts", "count"),
        ("service.mid_stream_aborts", "count"),
        ("service.alloc.count", "count"),
        ("service.alloc.bytes", "bytes"),
        ("other.ms", "ms"),
        ("trace.uncovered_ops", "count"),
        ("trace.overhead_light", "ratio"),
        ("trace.overhead_heavy", "ratio"),
        ("trace.nonrepeating_counters", "count"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// Work counts (which must repeat exactly run to run) and operator
/// self times of one operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Counter deltas and `op.<Kind>.tuples_out`, by metric name.
    pub counts: BTreeMap<String, u64>,
    /// Operator self time, ns, by `op.<Kind>`.
    pub op_ns: BTreeMap<String, u64>,
}

impl OpStats {
    /// Add the counter delta `after - before`.
    pub fn add_counters(&mut self, before: &EvalStatsSnapshot, after: &EvalStatsSnapshot) {
        let values = |s: &EvalStatsSnapshot| {
            [
                s.nodes_visited,
                s.comparisons,
                s.tuples_grouped,
                s.groups_emitted,
                s.scan_walk_tuples,
                s.scan_index_tuples,
                s.expr_compiled,
                s.expr_fallback,
                s.join_build_tuples,
                s.join_hash_probes,
                s.seq_items_copied,
            ]
        };
        for ((name, a), b) in ENGINE_COUNTERS
            .iter()
            .zip(values(after))
            .zip(values(before))
        {
            *self.counts.entry(format!("engine.{name}")).or_default() += a - b;
        }
    }

    /// Add another operation's counts and times to this one.
    pub fn merge(&mut self, other: OpStats) {
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in other.op_ns {
            *self.op_ns.entry(k).or_default() += v;
        }
    }

    /// Add counters from a served flight record's `stats` object.
    pub fn add_counters_json(&mut self, stats: &Json) {
        for c in ENGINE_COUNTERS {
            let v = stats.get(c).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            *self.counts.entry(format!("engine.{c}")).or_default() += v;
        }
    }

    /// Add an operator profile's per-kind tuples and self times.
    pub fn add_profile(&mut self, profile: &QueryProfile) {
        for op in profile.pipelines.iter().flat_map(|p| &p.ops) {
            self.add_op(op.kind.as_str(), op.tuples_out, op.nanos);
        }
    }

    /// Add a served flight record's `profile` object.
    pub fn add_profile_json(&mut self, profile: &Json) {
        for p in profile.get("pipelines").map_or(&[][..], Json::as_arr) {
            for op in p.get("ops").map_or(&[][..], Json::as_arr) {
                let kind = op.get("op").and_then(Json::as_str).unwrap_or("?");
                let num = |k: &str| op.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                self.add_op(kind, num("tuples_out"), num("time_ns"));
            }
        }
    }

    fn add_op(&mut self, kind: &str, tuples_out: u64, nanos: u64) {
        *self
            .counts
            .entry(format!("op.{kind}.tuples_out"))
            .or_default() += tuples_out;
        *self.op_ns.entry(format!("op.{kind}")).or_default() += nanos;
    }

    /// Operator self time summed over kinds (the pipelines' run time).
    pub fn pipeline_ns(&self) -> u64 {
        self.op_ns.values().sum()
    }
}

/// What a traced phase collected beyond its spans.
#[derive(Debug, Default)]
pub struct TracedPhase {
    /// Work counts and operator times per operation, keyed by the
    /// operation's name; operations of one name must repeat exactly.
    pub stats: BTreeMap<String, Vec<OpStats>>,
}

impl TracedPhase {
    /// Record one operation's stats.
    pub fn push(&mut self, op: &str, stats: OpStats) {
        self.stats.entry(op.to_string()).or_default().push(stats);
    }
}

/// Facts the per-layer derivation needs from the workload.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// Prefix of the operations whose per-operation layer totals are
    /// reported (one name per distinct operation; totals sum over
    /// names, so serve-mix reports one pass over its analytic set).
    pub main_ops: &'static str,
    /// XML bytes parsed per `xmlparse` call.
    pub xml_bytes: usize,
    /// Nodes in the parsed document.
    pub nodes: usize,
    /// Index heap bytes of the built catalog.
    pub index_bytes: u64,
}

/// Derive the per-layer metrics from a traced phase's spans and stats.
pub fn layer_metrics(
    tracer: &Tracer,
    phase: &TracedPhase,
    inputs: LayerInputs,
    report: &mut Report,
) {
    let ops = tracer.per_op();
    let costs = tracer.self_costs();
    let main: Vec<_> = ops
        .values()
        .filter(|o| o.name.starts_with(inputs.main_ops))
        .collect();
    let names: Vec<&str> = {
        let mut n: Vec<&str> = main.iter().map(|o| o.name.as_str()).collect();
        n.sort_unstable();
        n.dedup();
        n
    };
    // Per-operation layer time: median over the operations of each
    // name, summed over names. `xmlparse` and `storage` also count the
    // set-up operations, which are where those layers run.
    let per_op_ms = |layers: &[&str], all_ops: bool| -> Option<(f64, usize)> {
        let pool: Vec<_> = if all_ops {
            ops.values().collect()
        } else {
            main.clone()
        };
        let mut groups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for o in &pool {
            let ns: Vec<u64> = layers
                .iter()
                .filter_map(|l| o.layers.get(l).map(|c| c.ns))
                .collect();
            if !ns.is_empty() {
                groups
                    .entry(if all_ops { "all" } else { o.name.as_str() })
                    .or_default()
                    .push(ns.iter().sum::<u64>() as f64 / 1e6);
            }
        }
        let n = groups.values().map(Vec::len).sum();
        (n > 0).then(|| (groups.values().filter_map(|v| median(v)).sum(), n))
    };
    // Per-call medians over every span of a layer.
    let per_call = |layer: &str, f: &dyn Fn(&crate::trace::LayerCost) -> f64| {
        let v: Vec<f64> = tracer
            .spans()
            .iter()
            .zip(&costs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, c)| f(c))
            .collect();
        median(&v).map(|m| (m, v.len()))
    };
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: Option<(f64, usize)>| {
        if let Some((value, n)) = v {
            out.push(Metric::new(name, unit, value, n));
        }
    };
    let parse_ms = per_op_ms(&["xmlparse"], true);
    put("xmlparse.parse_ms", "ms", parse_ms);
    put(
        "xmlparse.mb_per_s",
        "MB/s",
        parse_ms.map(|(ms, n)| (inputs.xml_bytes as f64 / 1e6 / (ms / 1e3), n)),
    );
    put("xmlparse.nodes", "count", Some((inputs.nodes as f64, 1)));
    put("storage.index_ms", "ms", per_op_ms(&["storage"], true));
    put(
        "storage.index_bytes_per_xml_byte",
        "ratio",
        Some((
            inputs.index_bytes as f64 / inputs.xml_bytes.max(1) as f64,
            1,
        )),
    );
    put(
        "frontend.parse_us",
        "us",
        per_call("frontend", &|c| c.ns as f64 / 1e3),
    );
    put(
        "engine.compile_us",
        "us",
        per_call("engine.compile", &|c| c.ns as f64 / 1e3),
    );
    put(
        "engine.run_ms",
        "ms",
        per_op_ms(&["engine.run", "engine.op"], false),
    );
    put("serialize.ms", "ms", per_op_ms(&["serialize"], false));
    put("other.ms", "ms", per_op_ms(&["other"], false));
    for layer in [
        "xmlparse",
        "storage",
        "frontend",
        "engine.compile",
        "engine.run",
        "serialize",
    ] {
        put(
            &format!("{layer}.alloc.count"),
            "count",
            per_call(layer, &|c| c.allocs as f64),
        );
        put(
            &format!("{layer}.alloc.bytes"),
            "bytes",
            per_call(layer, &|c| c.alloc_bytes as f64),
        );
    }
    let uncovered = ops.values().filter(|o| o.coverage_error_ns() > 0).count();
    put(
        "trace.uncovered_ops",
        "count",
        Some((uncovered as f64, ops.len())),
    );

    // Counts: the first operation of each name, summed over names,
    // after checking every repeat of that name matches exactly.
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut op_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut nonrepeating: Vec<String> = Vec::new();
    let mut samples = 0;
    for name in &names {
        let Some(runs) = phase.stats.get(*name) else {
            continue;
        };
        samples += runs.len();
        for (counter, v) in &runs[0].counts {
            if runs.iter().any(|r| r.counts.get(counter) != Some(v)) {
                nonrepeating.push(format!("{name}: {counter}"));
            }
            *totals.entry(counter.clone()).or_default() += *v as f64;
        }
        let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in runs {
            for (k, ns) in &r.op_ns {
                kinds.entry(k).or_default().push(*ns as f64 / 1e6);
            }
        }
        for (k, v) in kinds {
            *op_ms.entry(k.to_string()).or_default() += median(&v).unwrap_or(0.0);
        }
    }
    if samples > 0 {
        for c in ENGINE_COUNTERS {
            let name = format!("engine.{c}");
            put(&name, "count", totals.get(&name).map(|v| (*v, samples)));
        }
        let t = |k: &str| totals.get(&format!("engine.{k}")).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| (a + b > 0.0).then(|| (a / (a + b), samples));
        put(
            "engine.index_tuple_ratio",
            "ratio",
            ratio(t("scan_index_tuples"), t("scan_walk_tuples")),
        );
        put(
            "engine.expr_compiled_ratio",
            "ratio",
            ratio(t("expr_compiled"), t("expr_fallback")),
        );
        for k in OP_KINDS {
            let kind = k.as_str();
            let tuples = totals.get(&format!("op.{kind}.tuples_out")).copied();
            let ms = op_ms.get(&format!("op.{kind}")).copied();
            put(
                &format!("op.{kind}.self_ms"),
                "ms",
                ms.map(|v| (v, samples)),
            );
            put(
                &format!("op.{kind}.tuples_out"),
                "count",
                tuples.map(|v| (v, samples)),
            );
            if let (Some(ms), Some(tuples)) = (ms, tuples) {
                put(
                    &format!("op.{kind}.ns_per_tuple"),
                    "ns",
                    (tuples > 0.0).then(|| (ms * 1e6 / tuples, samples)),
                );
            }
        }
        if let Some(bytes) = totals.get("serialize.bytes") {
            put("serialize.bytes", "bytes", Some((*bytes, samples)));
            if let Some(ms) = out
                .iter()
                .find(|m| m.name == "serialize.ms")
                .map(|m| m.value)
            {
                out.push(Metric::new(
                    "serialize.mb_per_s",
                    "MB/s",
                    bytes / 1e6 / (ms / 1e3),
                    samples,
                ));
            }
        }
    }
    out.push(Metric::new(
        "trace.nonrepeating_counters",
        "count",
        nonrepeating.len() as f64,
        samples,
    ));
    report.fact(
        "nonrepeating_counters",
        Json::Arr(nonrepeating.into_iter().map(Json::from).collect()),
    );
    report.layers.extend(out);
}

/// The tracing overhead: the ratio of the traced to the untraced
/// median, minus 1 (0 when either sample set is empty).
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
        _ => 0.0,
    }
}

/// Fill in every per-layer metric the run did not produce with 0 and a
/// reason, so each traced run reports the full list.
pub fn complete_layers(report: &mut Report, default_reason: &str) {
    for (name, unit) in per_layer_names() {
        if !report.layers.iter().any(|m| m.name == name) {
            report.layers.push(Metric::new(name.clone(), unit, 0.0, 0));
            if !report.not_applicable.iter().any(|(n, _)| *n == name) {
                report
                    .not_applicable
                    .push((name, default_reason.to_string()));
            }
        }
    }
    let order = per_layer_names();
    report
        .layers
        .sort_by_key(|m| order.iter().position(|(n, _)| *n == m.name));
}

/// The JSON form of a metric list.
pub fn metrics_json(metrics: &[Metric], with_samples: bool) -> Json {
    obj(metrics.iter().map(|m| {
        let mut members = vec![
            ("value".to_string(), Json::from(m.value)),
            ("unit".to_string(), Json::from(m.unit)),
        ];
        if with_samples {
            members.push(("samples".to_string(), Json::from(m.samples)));
        }
        (m.name.clone(), Json::Obj(members))
    }))
}
