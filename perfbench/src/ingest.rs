//! `ingest-scan`: the `xqa run` shape on a document far larger than CPU
//! caches. Each iteration parses the XML text, builds the indexes, then
//! compiles, runs and serializes the four scan queries.

use std::time::Instant;

use crate::gen::{Inputs, SCAN_QUERIES};
use crate::json::Json;
use crate::report::{layer_metrics, overhead, LayerInputs, Metric, OpStats, Report, TracedPhase};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, execute, load, secs};

/// Fewest iterations a phase measures, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Streaming queries (no pipeline breaker): the light class.
const LIGHT: [&str; 2] = ["filter_scan", "count"];

/// Timings of one phase.
#[derive(Debug, Default)]
struct Phase {
    setup_s: Vec<f64>,
    light_ms: Vec<f64>,
    heavy_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    busy_s: f64,
    /// Nodes and index bytes of the last iteration's document.
    nodes: usize,
    index_bytes: u64,
}

fn run_phase(
    inputs: &Inputs,
    seconds: f64,
    min_iterations: usize,
    t: &mut Tracer,
    traced: &mut TracedPhase,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while phase.scan_ms.len() < min_iterations || secs(start) < seconds {
        let mut outputs: Vec<(&str, Result<String, String>, f64)> = Vec::new();
        let mut stats = OpStats::default();
        let iteration = Instant::now();
        let loaded = t.op("iteration", |t| {
            let loaded = load(&inputs.xml, t)?;
            let setup = secs(iteration);
            let ctx = loaded.context(t.is_on());
            for (name, source) in SCAN_QUERIES {
                let q_start = Instant::now();
                let result = execute(&loaded, &ctx, source, name, t);
                let elapsed = secs(q_start);
                outputs.push((
                    name,
                    result.map(|(text, s)| {
                        stats.merge(s);
                        text
                    }),
                    elapsed,
                ));
            }
            Ok::<_, String>((loaded, setup))
        });
        let total = secs(iteration);
        let (loaded, setup) = match loaded {
            Ok(l) => l,
            Err(e) => {
                report.outcome("load", Err(e));
                return phase;
            }
        };
        phase.nodes = loaded.nodes;
        phase.index_bytes = loaded.catalog.index_bytes();
        drop(loaded);
        if t.is_on() {
            traced.push("iteration", stats);
        }
        let class_ms = |light: bool| {
            outputs
                .iter()
                .filter(|o| LIGHT.contains(&o.0) == light)
                .map(|o| o.2)
                .sum::<f64>()
                * 1e3
        };
        phase.setup_s.push(setup);
        phase.light_ms.push(class_ms(true));
        phase.heavy_ms.push(class_ms(false));
        phase
            .scan_ms
            .push(outputs.iter().map(|o| o.2).sum::<f64>() * 1e3);
        phase.busy_s += total;
        for (name, result, _) in outputs {
            let check = result.and_then(|body| crate::oracle::check_scan(inputs, name, &body));
            report.outcome(name, check);
        }
    }
    phase
}

/// Run the workload for `seconds`; with `traced`, half of the time
/// untraced (the overhead baseline) and half traced.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let min = if traced { 2 } else { MIN_ITERATIONS };
    let base = run_phase(
        inputs,
        budget,
        min,
        &mut Tracer::new(false),
        &mut TracedPhase::default(),
        &mut report,
    );
    let iterations = base.scan_ms.len();
    report.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&base.setup_s).unwrap_or(0.0),
            iterations,
        ),
        Metric::new(
            "light_p50_ms",
            "ms",
            median(&base.light_ms).unwrap_or(0.0),
            iterations,
        ),
        Metric::new(
            "heavy_p50_ms",
            "ms",
            median(&base.heavy_ms).unwrap_or(0.0),
            iterations,
        ),
        Metric::new(
            "ops_per_s",
            "1/s",
            iterations as f64 / base.busy_s,
            iterations,
        ),
    ];
    report.detail = vec![Metric::new(
        "scan_pass_ms",
        "ms",
        median(&base.scan_ms).unwrap_or(0.0),
        iterations,
    )];
    for (key, samples) in [
        ("setup_s_samples", &base.setup_s),
        ("light_ms_samples", &base.light_ms),
        ("heavy_ms_samples", &base.heavy_ms),
    ] {
        report.fact(
            key,
            Json::Arr(samples.iter().map(|&v| Json::from(v)).collect()),
        );
    }
    if traced {
        let mut t = Tracer::new(true);
        let mut phase_stats = TracedPhase::default();
        alloc::set_counting(true);
        let p = run_phase(inputs, budget, 2, &mut t, &mut phase_stats, &mut report);
        alloc::set_counting(false);
        report.layers.push(Metric::new(
            "trace.overhead_light",
            "ratio",
            overhead(&p.light_ms, &base.light_ms),
            p.light_ms.len(),
        ));
        report.layers.push(Metric::new(
            "trace.overhead_heavy",
            "ratio",
            overhead(&p.heavy_ms, &base.heavy_ms),
            p.heavy_ms.len(),
        ));
        layer_metrics(
            &t,
            &phase_stats,
            LayerInputs {
                main_ops: "iteration",
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
