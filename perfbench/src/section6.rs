//! `section6`: the paper's Section-6 experiment. One in-process caller
//! runs, in a closed loop, pass pairs: three passes of the six Table-1
//! `Qgb` queries, then one pass of the six `Q` (distinct-values
//! self-join) queries, each query compiled, run and serialized. Every
//! pair starts from a fresh set-up (parse and index).

use std::time::Instant;

use xqa_bench::{q_query, qgb_query, EXPERIMENTS};

use crate::gen::Inputs;
use crate::json::Json;
use crate::report::{layer_metrics, overhead, LayerInputs, Metric, OpStats, Report, TracedPhase};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, execute, load, secs, Loaded};

/// Fewest pass pairs a phase measures, however short `--seconds` is.
const MIN_PAIRS: usize = 3;
/// `Qgb` passes per pass pair. A `Qgb` pass takes about a tenth of the
/// time of a `Q` pass, so it is repeated for more samples.
const QGB_PASSES: usize = 3;

/// Timings of one phase.
#[derive(Debug, Default)]
struct Phase {
    setup_s: Vec<f64>,
    qgb_ms: Vec<f64>,
    q_ms: Vec<f64>,
    queries: u64,
    busy_s: f64,
    /// Nodes and index bytes of the last set-up's document.
    nodes: usize,
    index_bytes: u64,
}

/// Run one pass pair (all `Qgb`, then all `Q`), timing each pass and
/// checking every result after the timed part.
fn pair(
    inputs: &Inputs,
    loaded: &Loaded,
    ctx: &xqa::DynamicContext,
    t: &mut Tracer,
    phase: &mut Phase,
    traced: &mut TracedPhase,
    report: &mut Report,
) {
    let mut outputs: Vec<(String, Result<String, String>, f64)> = Vec::new();
    let mut stats = OpStats::default();
    let passes = std::iter::repeat_n(("Qgb", qgb_query as fn(&[&str]) -> String), QGB_PASSES)
        .chain([("Q", q_query as fn(&[&str]) -> String)]);
    t.op("table1-pass", |t| {
        for (prefix, template) in passes {
            for e in EXPERIMENTS {
                let name = format!("{prefix}{}", &e.id[1..]);
                let source = template(e.keys);
                let start = Instant::now();
                let result = execute(loaded, ctx, &source, &name, t);
                let elapsed = secs(start);
                let text = result.map(|(text, s)| {
                    stats.merge(s);
                    text
                });
                outputs.push((name, text, elapsed));
            }
        }
    });
    if t.is_on() {
        traced.push("table1-pass", stats);
    }
    let (qgb_all, q) = outputs.split_at(QGB_PASSES * EXPERIMENTS.len());
    for pass in qgb_all.chunks(EXPERIMENTS.len()) {
        phase
            .qgb_ms
            .push(pass.iter().map(|o| o.2).sum::<f64>() * 1e3);
    }
    phase.q_ms.push(q.iter().map(|o| o.2).sum::<f64>() * 1e3);
    phase.busy_s += outputs.iter().map(|o| o.2).sum::<f64>();
    phase.queries += outputs.len() as u64;
    for pass in qgb_all.chunks(EXPERIMENTS.len()) {
        for (i, (name, result, _)) in pass.iter().enumerate() {
            let check = result
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|body| crate::oracle::check_qgb(inputs, i, body));
            report.outcome(name, check);
        }
    }
    for (i, ((_, gb, _), (name, q, _))) in qgb_all.iter().zip(q).enumerate() {
        let check = match (q, gb) {
            (Ok(body), Ok(gb_body)) => crate::oracle::check_q(inputs, i, body, gb_body),
            // The failed Qgb is already counted; check Q on its own.
            (Ok(body), Err(_)) => crate::oracle::check_q(inputs, i, body, body),
            (Err(e), _) => Err(e.clone()),
        };
        report.outcome(name, check);
    }
}

fn run_phase(
    inputs: &Inputs,
    seconds: f64,
    t: &mut Tracer,
    traced: &mut TracedPhase,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.q_ms.len() < MIN_PAIRS || secs(start) < seconds {
        // A fresh set-up before every pair spreads the set-up samples
        // over the whole run; the previous document is already dropped,
        // so only one is resident at a time.
        let begin = Instant::now();
        let loaded = t.op("setup", |t| load(&inputs.xml, t))?;
        phase.setup_s.push(secs(begin));
        phase.nodes = loaded.nodes;
        phase.index_bytes = loaded.catalog.index_bytes();
        let ctx = loaded.context(t.is_on());
        pair(inputs, &loaded, &ctx, t, &mut phase, traced, report);
    }
    Ok(phase)
}

/// Run the workload for `seconds`; with `traced`, half of the time
/// untraced (the overhead baseline) and half traced.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let base = match run_phase(
        inputs,
        budget,
        &mut Tracer::new(false),
        &mut TracedPhase::default(),
        &mut report,
    ) {
        Ok(p) => p,
        Err(e) => {
            report.outcome("setup", Err(e));
            return report;
        }
    };
    let setup_s = &base.setup_s;
    let (qgb, q) = (median(&base.qgb_ms), median(&base.q_ms));
    report.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(setup_s).unwrap_or(0.0),
            setup_s.len(),
        ),
        Metric::new("light_p50_ms", "ms", qgb.unwrap_or(0.0), base.qgb_ms.len()),
        Metric::new("heavy_p50_ms", "ms", q.unwrap_or(0.0), base.q_ms.len()),
        Metric::new(
            "ops_per_s",
            "1/s",
            base.queries as f64 / base.busy_s,
            base.queries as usize,
        ),
    ];
    report.detail = vec![
        Metric::new("qgb_pass_ms", "ms", qgb.unwrap_or(0.0), base.qgb_ms.len()),
        Metric::new("q_pass_ms", "ms", q.unwrap_or(0.0), base.q_ms.len()),
    ];
    report.fact(
        "groups",
        EXPERIMENTS.iter().map(|e| e.groups).sum::<usize>(),
    );
    report.fact(
        "setup_s_samples",
        Json::Arr(setup_s.iter().map(|&v| Json::from(v)).collect()),
    );
    report.fact(
        "qgb_pass_ms_samples",
        Json::Arr(base.qgb_ms.iter().map(|&v| Json::from(v)).collect()),
    );
    report.fact(
        "q_pass_ms_samples",
        Json::Arr(base.q_ms.iter().map(|&v| Json::from(v)).collect()),
    );
    if traced {
        let mut t = Tracer::new(true);
        alloc::set_counting(true);
        let mut phase_stats = TracedPhase::default();
        let p = match run_phase(inputs, budget, &mut t, &mut phase_stats, &mut report) {
            Ok(p) => p,
            Err(e) => {
                report.outcome("setup", Err(e));
                return report;
            }
        };
        alloc::set_counting(false);
        report.layers.push(Metric::new(
            "trace.overhead_light",
            "ratio",
            overhead(&p.qgb_ms, &base.qgb_ms),
            p.qgb_ms.len(),
        ));
        report.layers.push(Metric::new(
            "trace.overhead_heavy",
            "ratio",
            overhead(&p.q_ms, &base.q_ms),
            p.q_ms.len(),
        ));
        layer_metrics(
            &t,
            &phase_stats,
            LayerInputs {
                main_ops: "table1-pass",
                xml_bytes: inputs.xml.len(),
                nodes: p.nodes,
                index_bytes: p.index_bytes,
            },
            &mut report,
        );
        report.spans = Some(t.to_json());
    }
    report
}
