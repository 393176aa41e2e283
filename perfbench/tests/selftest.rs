//! Self-tests of the benchmark: seeded generation, the plan-cache
//! shape of the served mix, and oracles that reject corrupted results.

use std::collections::{BTreeSet, HashMap};

use xqa::service::ServiceConfig;
use xqa_perfbench::gen::{self, analytic_queries, Class, Inputs, Workload, SCAN_QUERIES};
use xqa_perfbench::oracle;
use xqa_perfbench::report::per_layer_names;
use xqa_perfbench::trace::Tracer;
use xqa_perfbench::{execute, load};

/// Small documents keep the debug-build engine fast.
const LINEITEMS: usize = 600;

#[test]
fn generator_is_deterministic_per_seed() {
    for w in Workload::ALL {
        let a = gen::generate(w, 7, LINEITEMS);
        assert_eq!(a, gen::generate(w, 7, LINEITEMS), "{}", w.name());
        assert_ne!(a.xml, gen::generate(w, 8, LINEITEMS).xml, "{}", w.name());
        assert!(a.lineitems > LINEITEMS / 2);
    }
}

#[test]
fn inputs_round_trip_through_files() {
    let dir = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
    for w in Workload::ALL {
        let inputs = gen::generate(w, 3, LINEITEMS);
        gen::write(&inputs, &dir).unwrap();
        assert_eq!(gen::read(&dir).unwrap(), inputs, "{}", w.name());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lookups_overflow_the_plan_cache_and_the_analytic_set_fits() {
    let capacity = ServiceConfig::default().plan_cache_capacity;
    let inputs = gen::generate(Workload::ServeMix, 11, Workload::ServeMix.lineitems());
    let reqs = &inputs.requests;
    let lookups: Vec<&str> = reqs
        .iter()
        .filter(|r| r.class == Class::Lookup)
        .map(|r| r.query.as_str())
        .collect();
    let distinct: BTreeSet<&str> = lookups.iter().copied().collect();
    assert!(
        distinct.len() > 10 * capacity,
        "{} distinct lookups",
        distinct.len()
    );
    // Under LRU a text misses when more than `capacity` other texts
    // were used since its last use; an analytic text hits when fewer
    // were. Clients wrap around the list, so check it cyclically.
    let mut last: HashMap<&str, usize> = HashMap::new();
    let n = reqs.len();
    for i in 0..2 * n {
        let r = &reqs[i % n];
        if let Some(&prev) = last.get(r.query.as_str()) {
            // Distinct texts used in between, counted up to capacity + 1.
            let mut between: BTreeSet<&str> = BTreeSet::new();
            for j in prev + 1..i {
                between.insert(reqs[j % n].query.as_str());
                if between.len() > capacity {
                    break;
                }
            }
            match r.class {
                Class::Lookup => assert!(
                    between.len() > capacity,
                    "lookup {} recurs within the cache's reach",
                    r.query
                ),
                Class::Analytic => assert!(
                    between.len() < capacity,
                    "analytic query evicted between uses"
                ),
            }
        }
        last.insert(r.query.as_str(), i);
    }
    let analytic = reqs.iter().filter(|r| r.class == Class::Analytic).count();
    let share = analytic as f64 / n as f64;
    assert!((0.15..0.25).contains(&share), "analytic share {share}");
    assert!(analytic_queries().len() < capacity);
}

/// Run `source` in process and serialize its result.
fn answer(inputs: &Inputs, source: &str) -> String {
    let loaded = load(&inputs.xml, &mut Tracer::new(false)).unwrap();
    let ctx = loaded.context(false);
    execute(&loaded, &ctx, source, "q", &mut Tracer::new(false))
        .unwrap()
        .0
}

/// Replace the first decimal digit after `marker` with another digit.
fn bump_digit_after(body: &str, marker: &str) -> String {
    let at = body.find(marker).expect("marker present") + marker.len();
    let (i, c) = body[at..]
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .expect("a digit follows");
    let d = c.to_digit(10).unwrap();
    let mut out = body.to_string();
    out.replace_range(at + i..at + i + 1, &((d + 1) % 10).to_string());
    out
}

#[test]
fn section6_oracle_rejects_corrupted_results() {
    let inputs = gen::generate(Workload::Section6, 5, LINEITEMS);
    for (i, e) in xqa_bench::EXPERIMENTS.iter().enumerate() {
        let qgb = answer(&inputs, &xqa_bench::qgb_query(e.keys));
        let q = answer(&inputs, &xqa_bench::q_query(e.keys));
        oracle::check_qgb(&inputs, i, &qgb).unwrap();
        oracle::check_q(&inputs, i, &q, &qgb).unwrap();
        let last_row = qgb.rfind("<r>").unwrap();
        assert!(oracle::check_qgb(&inputs, i, &qgb[..last_row]).is_err());
        let miscounted = bump_digit_after(&qgb, &format!("</{}>", e.keys[e.keys.len() - 1]));
        assert!(oracle::check_qgb(&inputs, i, &miscounted).is_err());
        let q_bad = bump_digit_after(&q, "<r>");
        assert!(oracle::check_q(&inputs, i, &q_bad, &qgb).is_err());
    }
}

#[test]
fn ingest_scan_oracle_rejects_corrupted_results() {
    let inputs = gen::generate(Workload::IngestScan, 5, LINEITEMS);
    for (name, source) in SCAN_QUERIES {
        let body = answer(&inputs, source);
        oracle::check_scan(&inputs, name, &body).unwrap();
        let corrupted = match name {
            "group_partkey" => bump_digit_after(&body, ":"),
            "filter_scan" => body[body.find("</r>").unwrap() + 4..].to_string(),
            "topk_price" => bump_digit_after(&body, "price=\""),
            _ => (inputs.lineitems + 1).to_string(),
        };
        assert!(
            oracle::check_scan(&inputs, name, &corrupted).is_err(),
            "{name} accepted a corrupted result"
        );
    }
}

#[test]
fn serve_mix_rejects_corrupted_answers() {
    let mut inputs = gen::generate(Workload::ServeMix, 5, LINEITEMS);
    let report = xqa_perfbench::serve::run(&inputs, 0.5, false);
    assert!(report.attempted > 3, "{report:?}");
    assert_eq!(report.failed, 0, "{:?}", report.errors);
    // Corrupt every lookup's expected answer: each served lookup fails.
    for r in inputs
        .requests
        .iter_mut()
        .filter(|r| r.class == Class::Lookup)
    {
        r.expected.push('x');
    }
    let report = xqa_perfbench::serve::run(&inputs, 0.5, false);
    assert!(report.failed > 0, "corrupted lookups passed");
}

#[test]
fn traced_runs_report_every_layer_metric_and_add_up() {
    let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    for w in Workload::ALL {
        let inputs = gen::generate(w, 9, LINEITEMS);
        let mut report = match w {
            Workload::Section6 => xqa_perfbench::section6::run(&inputs, 0.1, true),
            Workload::IngestScan => xqa_perfbench::ingest::run(&inputs, 0.1, true),
            Workload::ServeMix => xqa_perfbench::serve::run(&inputs, 0.6, true),
        };
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.errors);
        xqa_perfbench::report::complete_layers(&mut report, "n/a");
        let names: Vec<String> = report.layers.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, want, "{}", w.name());
        let get = |n: &str| report.layers.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("trace.uncovered_ops"), 0.0, "{}", w.name());
        assert_eq!(get("trace.nonrepeating_counters"), 0.0, "{}", w.name());
        assert!(get("engine.run_ms") > 0.0, "{}", w.name());
        assert!(get("op.ForScan.tuples_out") > 0.0, "{}", w.name());
    }
}
