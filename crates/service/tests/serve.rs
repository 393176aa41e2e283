//! End-to-end test of the HTTP service over real sockets: parallel
//! clients, mixed cached/novel queries, and metrics aggregation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use xqa_engine::{DynamicContext, Engine};
use xqa_service::{DocumentCatalog, Server, ServiceConfig};
use xqa_workload::{generate_orders, OrdersConfig};
use xqa_xmlparse::serialize_sequence;

/// Reassemble a chunked transfer-encoded body into its payload.
fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        if size == 0 {
            break;
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..]; // skip the chunk's trailing CRLF
    }
    out
}

/// Split a raw response into (head, status, de-chunked body). Raw
/// requests in this file ask for `Connection: close` so
/// `read_to_string` terminates.
fn parse_response(response: &str) -> (String, u16, String) {
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(&body)
    } else {
        body
    };
    (head, status, body)
}

fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (_, status, body) = parse_response(&response);
    (status, body)
}

fn post_query(addr: SocketAddr, query: &str) -> (u16, String) {
    post_query_at(addr, "/query", query).1
}

/// POST `query` to `target`, returning the raw head (status line plus
/// headers) alongside (status, body) so tests can inspect headers.
fn post_query_at(addr: SocketAddr, target: &str, query: &str) -> (String, (u16, String)) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{query}",
                query.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, status, body) = parse_response(&response);
    (head, (status, body))
}

/// The value of `header` in a response head, if present.
fn header_value(head: &str, header: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case(header)
            .then(|| value.trim().to_string())
    })
}

/// The flat `"stats":{...}` object embedded in a profiled response.
fn stats_object(body: &str) -> &str {
    let start = body.find("\"stats\":{").expect("stats object") + "\"stats\":".len();
    let end = body[start..].find('}').expect("stats closes") + start + 1;
    &body[start..end]
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn metric(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

/// One-shot reference evaluation, exactly what the CLI does for
/// `xqa -q QUERY -i FILE`: fresh engine, fresh context, compact
/// serialization.
fn one_shot(catalog: &DocumentCatalog, query: &str) -> String {
    let engine = Engine::new();
    let plan = engine.compile(query).expect("reference compile");
    let ctx: DynamicContext = catalog.new_context();
    serialize_sequence(&plan.run(&ctx).expect("reference run"))
}

/// The paper's analytics shapes, as served traffic: a `group by` /
/// `nest ... into` aggregation and a `return at $rank` numbering query.
const GROUPBY_QUERY: &str = "for $litem in //order/lineitem \
     group by $litem/shipmode into $mode \
     nest $litem into $items \
     order by $mode \
     return <r>{string($mode)}: {count($items)}</r>";

const RANK_QUERY: &str = "for $litem in //order/lineitem \
     order by number($litem/quantity) descending \
     return at $rank <top>{$rank}: {string($litem/quantity)}</top>";

#[test]
fn parallel_clients_match_one_shot_results_and_metrics_aggregate() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(300)));
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // 20 requests, 18 of them from concurrent client threads: the two
    // analytics queries are repeated (so their second-and-later runs
    // hit the plan cache), the rest are novel per-thread arithmetic.
    let mut requests: Vec<String> = Vec::new();
    for _ in 0..4 {
        requests.push(GROUPBY_QUERY.to_string());
        requests.push(RANK_QUERY.to_string());
    }
    for i in 0..12 {
        requests.push(format!("sum(//order/lineitem/quantity) + {i}"));
    }
    assert!(requests.len() >= 16);

    let expected: Vec<String> = requests.iter().map(|q| one_shot(&catalog, q)).collect();

    // The first run of each repeated query goes alone: two concurrent
    // first runs of one text would both miss the cache and compile (by
    // design), which would make the hit count below depend on timing.
    let (first, rest) = requests.split_at(2);
    let mut bodies: Vec<String> = first
        .iter()
        .map(|q| {
            let (status, body) = post_query(addr, q);
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    bodies.extend(std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter()
            .map(|q| s.spawn(move || post_query(addr, q)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, body) = h.join().expect("client thread");
                assert_eq!(status, 200, "{body}");
                body
            })
            .collect::<Vec<_>>()
    }));

    for (i, (got, want)) in bodies.iter().zip(&expected).enumerate() {
        assert_eq!(
            got,
            want,
            "request {i} ({})",
            &requests[i][..40.min(requests[i].len())]
        );
    }

    // Group-by output sanity: the orders workload uses the TPC-H
    // shipmode domain of seven values.
    assert_eq!(bodies[0].matches("<r>").count(), 7);
    // Rank numbering starts at 1.
    assert!(bodies[1].starts_with("<top>1: "), "{}", &bodies[1]);

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "xqa_query_requests_total") as u64, 20);
    assert_eq!(metric(&metrics, "xqa_query_ok_total") as u64, 20);
    assert_eq!(metric(&metrics, "xqa_query_errors_total") as u64, 0);
    // 14 distinct queries -> 6 cache hits out of 20 lookups.
    assert_eq!(metric(&metrics, "xqa_plan_cache_hits_total") as u64, 6);
    assert_eq!(metric(&metrics, "xqa_plan_cache_misses_total") as u64, 14);
    assert!(metric(&metrics, "xqa_plan_cache_hit_rate") > 0.0);
    assert_eq!(metric(&metrics, "xqa_query_latency_us_count") as u64, 20);
    // The group-by queries ran through the grouping operator; the
    // per-request snapshots folded into the service totals.
    assert!(metric(&metrics, "xqa_eval_tuples_grouped_total") > 0.0);
    assert!(metric(&metrics, "xqa_eval_groups_emitted_total") > 0.0);
    // Per-operator tuple totals come from the per-request profiles:
    // every query ran a ForScan, and 4 group-by runs emitted 7 groups
    // each through GroupConsume.
    assert!(metric(&metrics, "xqa_op_tuples_total{op=\"ForScan\"}") > 0.0);
    assert_eq!(
        metric(&metrics, "xqa_op_tuples_total{op=\"GroupConsume\"}") as u64,
        4 * 7
    );
    // All `//order/lineitem` plans fused their descendant steps; the
    // counter counts compilations (14 misses), not requests.
    let fused = metric(&metrics, "xqa_rewrite_fired_total{rewrite=\"path-fusion\"}") as u64;
    assert!((1..=14).contains(&fused), "fused = {fused}");
    // No positional bounds in this traffic, so no top-k pushdown.
    assert_eq!(
        metric(
            &metrics,
            "xqa_rewrite_fired_total{rewrite=\"topk-pushdown\"}"
        ) as u64,
        0
    );
    // Latency quantiles are served precomputed from the histogram.
    for q in ["0.5", "0.95", "0.99"] {
        let v = metric(
            &metrics,
            &format!("xqa_query_latency_quantile_us{{quantile=\"{q}\"}}"),
        );
        assert!(v > 0.0, "quantile {q} = {v}");
    }
    // The histogram is annotated for Prometheus scrapers, and the old
    // ad-hoc mean gauge is gone.
    assert!(metrics.contains("# TYPE xqa_query_latency_us histogram"));
    assert!(!metrics.contains("xqa_query_latency_mean_us"));

    server.shutdown();
}

#[test]
fn concurrent_profiled_requests_report_disjoint_stats() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(200)));
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Solo baselines: with a fresh context per request, a query's stats
    // depend only on the query, so a concurrent run must reproduce them
    // exactly — any cross-request bleed shows up as a diff.
    let queries = [GROUPBY_QUERY, RANK_QUERY];
    let baselines: Vec<(String, String)> = queries
        .iter()
        .map(|q| {
            let (_, (status, body)) = post_query_at(addr, "/query?profile=true", q);
            assert_eq!(status, 200, "{body}");
            (stats_object(&body).to_string(), body)
        })
        .collect();

    let heads_and_bodies: Vec<(usize, String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let (head, (status, body)) =
                        post_query_at(addr, "/query?profile=true", queries[i % 2]);
                    assert_eq!(status, 200, "{body}");
                    (i % 2, head, body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen_ids = std::collections::HashSet::new();
    for (which, head, body) in &heads_and_bodies {
        assert_eq!(
            stats_object(body),
            baselines[*which].0,
            "stats interleaved for query {which}"
        );
        let id: u64 = header_value(head, "X-Request-Id")
            .expect("request id header")
            .parse()
            .expect("numeric request id");
        assert!(seen_ids.insert(id), "request id {id} reused");
    }

    // The profiled body names the pipeline operators and carries the
    // serialized result alongside.
    let groupby_body = &baselines[0].1;
    for op in ["ForScan", "GroupConsume", "OrderBy", "ReturnAt"] {
        assert!(
            groupby_body.contains(&format!("\"op\":\"{op}\"")),
            "{op} missing in {groupby_body}"
        );
    }
    assert!(
        groupby_body.contains("\"request_id\":\"1\""),
        "{groupby_body}"
    );
    assert!(groupby_body.contains("\"result\":\""), "{groupby_body}");

    server.shutdown();
}

#[test]
fn flight_recorder_on_and_off_serve_byte_identical_bodies() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(200)));
    let start = |capacity: usize| {
        Server::start(
            "127.0.0.1:0",
            &catalog,
            ServiceConfig {
                workers: 2,
                flight_recorder_capacity: capacity,
                ..Default::default()
            },
        )
        .expect("start server")
    };
    let with_recorder = start(64);
    let without_recorder = start(0);

    // Identical traffic against both servers: the recorder observes
    // requests, it must never change what they return — including
    // error bodies, modulo nothing (request ids are client-pinned).
    let queries = [
        GROUPBY_QUERY,
        RANK_QUERY,
        "sum(//order/lineitem/quantity)",
        "1 +",
    ];
    for (i, q) in queries.iter().enumerate() {
        let send = |addr: SocketAddr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(
                    format!(
                        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                         X-Request-Id: diff-{i}\r\nContent-Length: {}\r\n\r\n{q}",
                        q.len()
                    )
                    .as_bytes(),
                )
                .expect("send");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            let (_, _, body) = parse_response(&response);
            body
        };
        let on = send(with_recorder.local_addr());
        let off = send(without_recorder.local_addr());
        assert_eq!(on, off, "query {i} diverged with the recorder on");
    }

    // And the recorder did actually observe the on-server's traffic.
    let (_, debug) = get(with_recorder.local_addr(), "/debug/queries");
    assert!(debug.contains("\"request_id\":\"diff-0\""), "{debug}");
    let (_, debug_off) = get(without_recorder.local_addr(), "/debug/queries");
    assert!(debug_off.contains("\"records\":[]"), "{debug_off}");

    with_recorder.shutdown();
    without_recorder.shutdown();
}

#[test]
fn mixed_good_and_bad_traffic_is_isolated_per_request() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context_xml("<r><v>5</v><v>6</v></r>").unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                assert_eq!(post_query(addr, "sum(//v)"), (200, "11".to_string()));
                let (status, body) = post_query(addr, "1 +");
                assert_eq!(status, 400);
                assert!(body.contains("\"kind\":\"compile\""));
                assert_eq!(post_query(addr, "count(//v)"), (200, "2".to_string()));
            });
        }
    });

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "xqa_query_requests_total") as u64, 12);
    assert_eq!(metric(&metrics, "xqa_query_ok_total") as u64, 8);
    assert_eq!(metric(&metrics, "xqa_query_errors_total") as u64, 4);
    assert_eq!(metric(&metrics, "xqa_worker_panics_total") as u64, 0);
    assert_eq!(get(addr, "/healthz").0, 200);

    server.shutdown();
}

/// The flat `{"name":value,...}` stats object as (name, value) pairs.
fn stats_pairs(stats: &str) -> Vec<(String, u64)> {
    stats
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .map(|member| {
            let (name, value) = member.split_once(':').expect("name:value");
            (
                name.trim_matches('"').to_string(),
                value.parse().expect("counter value"),
            )
        })
        .collect()
}

fn orders_server(lineitems: usize) -> Server {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(
        lineitems,
    )));
    Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("start server")
}

#[test]
fn runtime_failures_keep_their_counters() {
    let server = orders_server(50);
    let addr = server.local_addr();
    // Visits every lineitem, then raises: the work is real even though
    // the request fails. Once streamed (the default), once buffered.
    let query = "if (count(//order/lineitem) gt 0) then error() else 0";
    for (id, target) in [("fail-1", "/query"), ("fail-2", "/query?stream=false")] {
        let (status, body) = http(
            addr,
            &format!(
                "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 X-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n{query}",
                query.len()
            ),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"runtime\""), "{body}");
    }

    let (_, metrics) = get(addr, "/metrics");
    let visited = metric(&metrics, "xqa_eval_nodes_visited_total") as u64;
    assert!(visited > 0, "failed requests' work missing:\n{metrics}");
    assert_eq!(metric(&metrics, "xqa_query_errors_total") as u64, 2);

    let mut recorded = 0;
    for id in ["fail-1", "fail-2"] {
        let (status, record) = get(addr, &format!("/debug/query/{id}"));
        assert_eq!(status, 200, "{record}");
        assert!(record.contains("\"ok\":false"), "{record}");
        let nodes = stats_pairs(stats_object(&record))
            .into_iter()
            .find(|(name, _)| name == "nodes_visited")
            .expect("nodes_visited in the record's stats")
            .1;
        assert!(nodes > 0, "{record}");
        recorded += nodes;
    }
    assert_eq!(recorded, visited, "totals are the sum of the two records");

    server.shutdown();
}

#[test]
fn every_counter_is_on_metrics_once_and_sums_the_request_stats() {
    let server = orders_server(200);
    let addr = server.local_addr();
    let queries = [
        GROUPBY_QUERY,
        RANK_QUERY,
        "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
         where count($items) gt 1 \
         return count($items)",
        "(for $li in //order/lineitem \
          where number($li/quantity) ge 20 \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)[position() le 3]",
    ];
    let mut sums: std::collections::BTreeMap<String, u64> = Default::default();
    for query in queries {
        let (_, (status, body)) = post_query_at(addr, "/query?profile=true", query);
        assert_eq!(status, 200, "{body}");
        for (name, value) in stats_pairs(stats_object(&body)) {
            *sums.entry(name).or_default() += value;
        }
    }

    let (_, metrics) = get(addr, "/metrics");
    let counters: Vec<_> = xqa_engine::EvalStatsSnapshot::default().fields().collect();
    assert_eq!(sums.len(), counters.len(), "stats JSON names every counter");
    for (name, metric_name, help, _) in counters {
        let lines_starting = |prefix: &str| {
            metrics
                .lines()
                .filter(|l| l.starts_with(prefix))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            lines_starting(&format!("# HELP {metric_name} ")),
            [format!("# HELP {metric_name} {help}")],
            "{metrics}"
        );
        assert_eq!(
            lines_starting(&format!("# TYPE {metric_name} ")),
            [format!("# TYPE {metric_name} counter")],
            "{metrics}"
        );
        assert_eq!(
            lines_starting(&format!("{metric_name} ")),
            [format!("{metric_name} {}", sums[name])],
            "{name}: /metrics differs from the summed request stats"
        );
    }
    assert!(
        sums["join_hash_probes"] > 0,
        "the join query took the hash path"
    );
    assert!(sums["tuples_pruned_topk"] > 0, "the top-k query pruned");

    server.shutdown();
}
