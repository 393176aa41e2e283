//! `serve-mix`: a `Server` with the shipped default `ServiceConfig`
//! over the generated document, loaded by keep-alive clients in a
//! closed loop. About four requests in five are point lookups whose
//! fresh literals overflow the plan cache, so every lookup compiles;
//! the rest come from a fixed analytic set that stays cached.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use xqa::service::{DocumentCatalog, Server, ServiceConfig};

use crate::client::Client;
use crate::gen::{analytic_queries, Class, Inputs};
use crate::json::Json;
use crate::report::{layer_metrics, overhead, LayerInputs, Metric, OpStats, Report, TracedPhase};
use crate::stats::{median, quantile, tail_supported};
use crate::trace::Tracer;
use crate::{alloc, compile, execute, load, secs, Loaded};

/// Load segments per phase. Each runs on a freshly started server, so
/// the set-up samples (`setup_s` is their median) spread over the run
/// and only one server's document is resident at a time.
const SEGMENTS: usize = 3;
/// Closed-loop client connections (at most the core count of the
/// 2-core hosts this was sized on).
pub const CLIENTS: usize = 2;
/// Lookup texts compiled in process during a traced run to split
/// compile time into frontend parse and engine compile.
const COMPILE_PROBES: usize = 200;

/// XML text in memory → serving: `parse_document`, then `Server::start`
/// (which indexes its copy of the catalog).
fn start(xml: &str, t: &mut Tracer) -> Result<Server, String> {
    let doc = t
        .span("xmlparse", "parse_document", |_| xqa::parse_document(xml))
        .map_err(|e| format!("parse: {e}"))?;
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(doc);
    t.span("service", "Server::start", |_| {
        Server::start("127.0.0.1:0", &catalog, ServiceConfig::default())
    })
    .map_err(|e| format!("start: {e}"))
}

/// `/metrics` counters (unlabelled lines only), over a fresh connection.
fn server_metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let mut client = Client::new(addr);
    let response = client
        .send("GET", "/metrics", "", None)
        .map_err(|e| format!("/metrics: {e}"))?;
    Ok(response
        .body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect())
}

/// What one client measured.
#[derive(Debug, Default)]
struct ClientLog {
    lookup_ms: Vec<f64>,
    analytic_ms: Vec<f64>,
    analytic_by_query: BTreeMap<usize, Vec<f64>>,
    /// Per traced request: client round trip and server latency, µs.
    round_trips: Vec<(f64, f64)>,
    cached_plans: BTreeMap<&'static str, (u64, u64)>,
    outcomes: Vec<(String, Result<(), String>)>,
    last_done: Option<Instant>,
    sent: BTreeSet<usize>,
    tracer: Option<Tracer>,
    stats: Vec<(String, OpStats)>,
}

/// Fetch the flight record of request `id` and nest it under the
/// request's `http` span: server latency, then the operator pipelines.
fn nest_flight_record(
    client: &mut Client,
    id: &str,
    http_span: usize,
    t: &mut Tracer,
    log: &mut ClientLog,
    name: &str,
    class: &'static str,
) -> Result<(), String> {
    let response = client
        .send("GET", &format!("/debug/query/{id}"), "", None)
        .map_err(|e| format!("/debug/query: {e}"))?;
    let record = Json::parse(&response.body).map_err(|e| format!("flight record: {e}"))?;
    let server_ns = record
        .get("latency_us")
        .and_then(Json::as_f64)
        .ok_or("flight record without latency")?
        * 1e3;
    let cached = record.get("cached_plan") == Some(&Json::Bool(true));
    let entry = log.cached_plans.entry(class).or_default();
    if cached {
        entry.0 += 1;
    } else {
        entry.1 += 1;
    }
    let http = &t.spans()[http_span];
    let (start, end) = (http.start_ns, http.end_ns);
    let wire = (end - start) as f64 - server_ns;
    log.round_trips
        .push(((end - start) as f64 / 1e3, server_ns / 1e3));
    // The server's clock is not the client's: centre the server span
    // in the round trip, leaving the wire time on either side.
    let server_start = start + (wire.max(0.0) / 2.0) as u64;
    let server_end = server_start + server_ns as u64;
    let server_span = t.spans().len();
    t.child(
        http_span,
        "service",
        "server",
        (server_start, server_end),
        (0, 0),
    );
    let mut stats = OpStats::default();
    if let Some(profile) = record.get("profile").filter(|p| **p != Json::Null) {
        stats.add_profile_json(profile);
    }
    let pipeline_ns = stats.pipeline_ns();
    if pipeline_ns > 0 {
        t.child(
            server_span,
            "engine.op",
            "pipelines",
            (server_start, server_start + pipeline_ns),
            (0, 0),
        );
    }
    if class == "analytic" {
        if let Some(s) = record.get("stats").filter(|s| **s != Json::Null) {
            stats.add_counters_json(s);
        }
        log.stats.push((name.to_string(), stats));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    k: usize,
    first_op: u64,
    addr: SocketAddr,
    inputs: &Inputs,
    expected: &HashMap<&str, (usize, String)>,
    next: &AtomicUsize,
    deadline: Instant,
    traced: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::new(addr);
    let mut t = match traced {
        Some(epoch) => Tracer::with_epoch(true, epoch, first_op),
        None => Tracer::new(false),
    };
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let req = &inputs.requests[i % inputs.requests.len()];
        let id = format!("c{k}-{i}");
        let (class, name, want, query_no) = match req.class {
            Class::Lookup => {
                log.sent.insert(i % inputs.requests.len());
                (
                    "lookup",
                    "lookup".to_string(),
                    Some(req.expected.as_str()),
                    0,
                )
            }
            Class::Analytic => {
                let (n, body) = expected
                    .get(req.query.as_str())
                    .map(|(n, b)| (*n, Some(b.as_str())))
                    .unwrap_or((usize::MAX, None));
                ("analytic", format!("analytic:{n}"), body, n)
            }
        };
        let root = t.spans().len();
        let start = Instant::now();
        let response = t.op(&name, |t| {
            t.span("service", "http", |_| {
                client.send("POST", "/query", &req.query, Some(&id))
            })
        });
        let ms = secs(start) * 1e3;
        let check = match response {
            Ok(r) if r.status != 200 => Err(format!("status {}: {}", r.status, r.body.trim())),
            Ok(r) => match want {
                Some(w) if w == r.body => Ok(()),
                Some(_) => Err(format!("wrong body for {}", req.query)),
                None => Err(format!("no expected answer for {}", req.query)),
            },
            Err(e) => Err(format!("io: {e}")),
        };
        if check.is_ok() {
            log.last_done = Some(Instant::now());
            match req.class {
                Class::Lookup => log.lookup_ms.push(ms),
                Class::Analytic => {
                    log.analytic_ms.push(ms);
                    log.analytic_by_query.entry(query_no).or_default().push(ms);
                }
            }
        }
        if t.is_on() && check.is_ok() {
            if let Err(e) =
                nest_flight_record(&mut client, &id, root + 1, &mut t, &mut log, &name, class)
            {
                log.outcomes.push(("flight record".to_string(), Err(e)));
            }
        }
        log.outcomes.push((name, check));
    }
    if t.is_on() {
        log.tracer = Some(t);
    }
    log
}

/// One closed-loop load phase.
#[derive(Debug, Default)]
struct Phase {
    setup_s: Vec<f64>,
    lookup_ms: Vec<f64>,
    analytic_ms: Vec<f64>,
    analytic_by_query: BTreeMap<usize, Vec<f64>>,
    completed: usize,
    busy_s: f64,
    distinct_lookups: usize,
    /// `/metrics` counter deltas summed over the segments.
    metrics: BTreeMap<String, f64>,
    round_trips: Vec<(f64, f64)>,
    cached_plans: BTreeMap<&'static str, (u64, u64)>,
    allocs: (u64, u64),
}

impl Phase {
    fn metric(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
    }
}

/// Send each analytic query once, filling the plan cache and checking
/// the answers.
fn warm_up(addr: SocketAddr, expected: &HashMap<&str, (usize, String)>, report: &mut Report) {
    let mut client = Client::new(addr);
    let mut queries: Vec<(&str, &(usize, String))> =
        expected.iter().map(|(q, e)| (*q, e)).collect();
    queries.sort_by_key(|(_, (n, _))| *n);
    for (query, (_, body)) in queries {
        let check = match client.send("POST", "/query", query, None) {
            Ok(r) if r.status == 200 && r.body == *body => Ok(()),
            Ok(r) => Err(format!("warm-up status {}", r.status)),
            Err(e) => Err(format!("warm-up: {e}")),
        };
        report.outcome("warm-up", check);
    }
}

fn load_phase(
    inputs: &Inputs,
    expected: &HashMap<&str, (usize, String)>,
    seconds: f64,
    mut traced: Option<(&mut Tracer, &mut TracedPhase)>,
    report: &mut Report,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut sent = BTreeSet::new();
    let mut merged: Option<Tracer> = None;
    let mut stats: Vec<(String, OpStats)> = Vec::new();
    let next = AtomicUsize::new(0);
    for segment in 0..SEGMENTS {
        let begin = Instant::now();
        let server = match traced.as_mut() {
            Some((t, _)) => t.op("setup", |t| start(&inputs.xml, t))?,
            None => start(&inputs.xml, &mut Tracer::new(false))?,
        };
        phase.setup_s.push(secs(begin));
        let addr = server.local_addr();
        warm_up(addr, expected, report);
        let before = server_metrics(addr)?;
        let epoch = traced.as_ref().map(|(t, _)| t.epoch());
        let allocs0 = alloc::snapshot();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / SEGMENTS as f64);
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|k| {
                    let next = &next;
                    // Disjoint operation ids for every client of every segment.
                    let first_op = ((segment * CLIENTS + k + 1) as u64) << 40;
                    s.spawn(move || {
                        client_loop(k, first_op, addr, inputs, expected, next, deadline, epoch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let allocs1 = alloc::snapshot();
        phase.allocs.0 += allocs1.0 - allocs0.0;
        phase.allocs.1 += allocs1.1 - allocs0.1;
        let mut last = start;
        for log in logs {
            phase.lookup_ms.extend(&log.lookup_ms);
            phase.analytic_ms.extend(&log.analytic_ms);
            for (n, v) in log.analytic_by_query {
                phase.analytic_by_query.entry(n).or_default().extend(v);
            }
            phase.round_trips.extend(&log.round_trips);
            for (k, (hit, miss)) in log.cached_plans {
                let e = phase.cached_plans.entry(k).or_default();
                e.0 += hit;
                e.1 += miss;
            }
            sent.extend(log.sent);
            last = last.max(log.last_done.unwrap_or(start));
            for (what, result) in log.outcomes {
                report.outcome(&what, result);
            }
            if let Some(t) = log.tracer {
                match &mut merged {
                    Some(m) => m.absorb(t),
                    None => merged = Some(t),
                }
            }
            stats.extend(log.stats);
        }
        phase.busy_s += (last - start).as_secs_f64();
        let after = server_metrics(addr)?;
        for (k, v) in &after {
            *phase.metrics.entry(k.clone()).or_default() +=
                v - before.get(k).copied().unwrap_or(0.0);
        }
    }
    if let Some((t, phase_stats)) = traced {
        if let Some(m) = merged {
            t.absorb(m);
        }
        for (name, s) in stats {
            phase_stats.push(&name, s);
        }
    }
    phase.completed = phase.lookup_ms.len() + phase.analytic_ms.len();
    phase.distinct_lookups = sent
        .iter()
        .map(|&i| inputs.requests[i].query.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    Ok(phase)
}

/// Run the workload for `seconds`; with `traced`, half of the time
/// untraced (the overhead baseline) and half traced.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(inputs, seconds, traced, &mut report) {
        report.outcome("serve-mix", Err(e));
    }
    report
}

fn run_inner(
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    // The oracle for analytic requests: the same queries run in process,
    // before any timing, over an identically configured engine. It is
    // dropped before the servers start, so peak RSS counts one document.
    let mut t = Tracer::new(traced);
    alloc::set_counting(traced);
    let reference: Loaded = t.op("reference", |t| load(&inputs.xml, t))?;
    let ctx = reference.context(false);
    let mut expected: HashMap<&str, (usize, String)> = HashMap::new();
    let analytic = analytic_queries();
    for (n, q) in analytic.iter().enumerate() {
        let (body, _) = execute(&reference, &ctx, q, "analytic", &mut Tracer::new(false))?;
        expected.insert(q.as_str(), (n, body));
    }
    if traced {
        for req in inputs
            .requests
            .iter()
            .filter(|r| r.class == Class::Lookup)
            .take(COMPILE_PROBES)
        {
            t.op("compile-probe", |t| {
                compile(&reference.engine, &req.query, "lookup", t)
            })?;
        }
    }
    alloc::set_counting(false);
    let (nodes, index_bytes) = (reference.nodes, reference.catalog.index_bytes());
    drop(ctx);
    drop(reference);

    let budget = if traced { seconds / 2.0 } else { seconds };
    let base = load_phase(inputs, &expected, budget, None, report)?;
    let capacity = ServiceConfig::default().plan_cache_capacity;
    let hits = base.metric("xqa_plan_cache_hits_total");
    let misses = base.metric("xqa_plan_cache_misses_total");
    report.fact("requests_in_list", inputs.requests.len());
    report.fact("distinct_lookup_texts_sent", base.distinct_lookups);
    report.fact("plan_cache_capacity", capacity);
    report.fact("plan_cache_hits", hits);
    report.fact("plan_cache_misses", misses);
    report.fact(
        "lookup_miss_path_exercised",
        base.distinct_lookups > capacity && misses >= base.lookup_ms.len() as f64,
    );
    report.fact("server_query_errors", base.metric("xqa_query_errors_total"));
    report.fact("server_shed", base.metric("xqa_requests_shed_total"));
    report.fact("server_timeouts", base.metric("xqa_request_timeouts_total"));
    report.fact(
        "setup_s_samples",
        Json::Arr(base.setup_s.iter().map(|&v| Json::from(v)).collect()),
    );
    let refused = base.metric("xqa_requests_shed_total")
        + base.metric("xqa_request_timeouts_total")
        + base.metric("xqa_mid_stream_aborts_total");
    if refused > 0.0 {
        report.outcome(
            "server",
            Err(format!("{refused} shed, timed-out or aborted request(s)")),
        );
    }

    // The analytic queries differ in cost and each run draws them in
    // slightly different proportions, so the pooled median can jump
    // between them; the gated figure is the mean of their medians.
    let per_query: Vec<f64> = (0..analytic.len())
        .filter_map(|n| median(base.analytic_by_query.get(&n)?))
        .collect();
    let heavy = per_query.iter().sum::<f64>() / per_query.len().max(1) as f64;
    let lookups = base.lookup_ms.len();
    let analytics = base.analytic_ms.len();
    let req_per_s = base.completed as f64 / base.busy_s;
    report.end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&base.setup_s).unwrap_or(0.0),
            base.setup_s.len(),
        ),
        Metric::new(
            "light_p50_ms",
            "ms",
            median(&base.lookup_ms).unwrap_or(0.0),
            lookups,
        ),
        Metric::new("heavy_p50_ms", "ms", heavy, analytics),
        Metric::new("ops_per_s", "1/s", req_per_s, base.completed),
    ];
    report.detail = vec![
        Metric::new(
            "lookup_p50_ms",
            "ms",
            median(&base.lookup_ms).unwrap_or(0.0),
            lookups,
        ),
        Metric::new(
            "analytic_p50_ms",
            "ms",
            median(&base.analytic_ms).unwrap_or(0.0),
            analytics,
        ),
        Metric::new("req_per_s", "req/s", req_per_s, base.completed),
    ];
    for (n, samples) in &base.analytic_by_query {
        report.detail.push(Metric::new(
            format!("analytic{n}_p50_ms"),
            "ms",
            median(samples).unwrap_or(0.0),
            samples.len(),
        ));
    }
    for (class, samples, wanted) in [
        ("lookup", &base.lookup_ms, 0.99_f64),
        ("analytic", &base.analytic_ms, 0.9),
    ] {
        let pct = (wanted * 100.0).round();
        let tail = tail_supported(samples.len(), wanted)
            .then(|| quantile(samples, wanted))
            .flatten();
        match tail {
            Some(v) => report.detail.push(Metric::new(
                format!("{class}_p{pct}_ms"),
                "ms",
                v,
                samples.len(),
            )),
            None => report.fact(
                &format!("{class}_p{pct}_ms"),
                format!(
                    "not reported: {} samples leave fewer than ten above it",
                    samples.len()
                ),
            ),
        }
    }

    if traced {
        alloc::set_counting(true);
        let mut phase_stats = TracedPhase::default();
        let p = load_phase(
            inputs,
            &expected,
            budget,
            Some((&mut t, &mut phase_stats)),
            report,
        )?;
        alloc::set_counting(false);
        let hits = p.metric("xqa_plan_cache_hits_total");
        let misses = p.metric("xqa_plan_cache_misses_total");
        let server_ms: Vec<f64> = p.round_trips.iter().map(|r| r.1 / 1e3).collect();
        let http_us: Vec<f64> = p.round_trips.iter().map(|r| r.0 - r.1).collect();
        let n = p.completed.max(1) as f64;
        report.layers.extend([
            Metric::new(
                "trace.overhead_light",
                "ratio",
                overhead(&p.lookup_ms, &base.lookup_ms),
                p.lookup_ms.len(),
            ),
            Metric::new(
                "trace.overhead_heavy",
                "ratio",
                overhead(&p.analytic_ms, &base.analytic_ms),
                p.analytic_ms.len(),
            ),
            Metric::new(
                "service.server_ms",
                "ms",
                median(&server_ms).unwrap_or(0.0),
                server_ms.len(),
            ),
            Metric::new(
                "service.http_us",
                "us",
                median(&http_us).unwrap_or(0.0),
                http_us.len(),
            ),
            Metric::new(
                "service.plan_cache_hit_rate",
                "ratio",
                hits / (hits + misses).max(1.0),
                (hits + misses) as usize,
            ),
            Metric::new(
                "service.shed",
                "count",
                p.metric("xqa_requests_shed_total"),
                1,
            ),
            Metric::new(
                "service.timeouts",
                "count",
                p.metric("xqa_request_timeouts_total"),
                1,
            ),
            Metric::new(
                "service.mid_stream_aborts",
                "count",
                p.metric("xqa_mid_stream_aborts_total"),
                1,
            ),
            Metric::new(
                "service.alloc.count",
                "count",
                p.allocs.0 as f64 / n,
                p.completed,
            ),
            Metric::new(
                "service.alloc.bytes",
                "bytes",
                p.allocs.1 as f64 / n,
                p.completed,
            ),
        ]);
        report.fact(
            "traced_cached_plan",
            Json::Obj(
                p.cached_plans
                    .iter()
                    .map(|(k, (hit, miss))| {
                        (
                            k.to_string(),
                            crate::json::obj([
                                ("cached", Json::from(*hit)),
                                ("compiled", Json::from(*miss)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        );
        layer_metrics(
            &t,
            &phase_stats,
            LayerInputs {
                main_ops: "analytic:",
                xml_bytes: inputs.xml.len(),
                nodes,
                index_bytes,
            },
            report,
        );
        for name in [
            "serialize.ms",
            "serialize.bytes",
            "serialize.mb_per_s",
            "serialize.alloc.count",
            "serialize.alloc.bytes",
        ] {
            report.not_applicable.push((
                name.to_string(),
                "served responses are serialized inside the server's streamed run \
                 (part of service.server_ms)"
                    .to_string(),
            ));
        }
        for name in ["engine.run.alloc.count", "engine.run.alloc.bytes"] {
            report.not_applicable.push((
                name.to_string(),
                "server-side allocations are counted per request in service.alloc.*".to_string(),
            ));
        }
        report.spans = Some(t.to_json());
    }
    Ok(())
}
