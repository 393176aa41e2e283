//! Seeded input generation. Everything a run checks against — XML
//! text, request list and expected answers — is produced here, from the
//! seed alone, before any timing starts, and written to files so the
//! measured process receives only the generated text and request list.
//! The expected answers come from walking the generated XDM tree in
//! Rust, never from the engine under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use xqa_workload::{generate_orders, DetRng, OrdersConfig};

/// Lineitems in the section6 and serve-mix documents (~8.5 MB of XML).
pub const SMALL_LINEITEMS: usize = 16_000;
/// Lineitems in the ingest-scan document (~53 MB of XML).
pub const LARGE_LINEITEMS: usize = 100_000;
/// Requests in a serve-mix request list; clients wrap around it when a
/// run outlasts it (lookup texts then recur, still far apart enough to
/// miss the plan cache).
pub const SERVE_REQUESTS: usize = 8_000;
/// Share of serve-mix requests that are analytic.
pub const ANALYTIC_SHARE: f64 = 0.2;

/// The ingest-scan queries, run in this order every iteration.
pub const SCAN_QUERIES: [(&str, &str); 4] = [
    (
        "group_partkey",
        "for $li in //order/lineitem \
         group by $li/partkey into $k \
         nest $li/quantity into $qs \
         return <g>{data($k)}:{count($qs)}</g>",
    ),
    (
        "filter_scan",
        "for $li in //order/lineitem \
         where number($li/quantity) ge 45 \
         return <r>{data($li/partkey)}</r>",
    ),
    (
        "topk_price",
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <top rank=\"{$r}\" price=\"{data($li/extendedprice)}\">{data($li/partkey)}</top>)\
         [position() le 10]",
    ),
    ("count", "count(//order/lineitem)"),
];

/// The fixed analytic request set of serve-mix: a Table-1 `Qgb`, a
/// `return at` top-k and a selective filter.
pub fn analytic_queries() -> [String; 3] {
    [
        xqa_bench::qgb_query(&["shipmode"]),
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <top rank=\"{$r}\">{data($li/partkey)}</top>)[position() le 10]"
            .to_string(),
        "for $li in //order/lineitem \
         where number($li/quantity) ge 49 \
         return <r>{data($li/partkey)}</r>"
            .to_string(),
    ]
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Section-6 experiment: six `Qgb`/`Q` pairs.
    Section6,
    /// Parse, index and scan a document far larger than CPU caches.
    IngestScan,
    /// A served mix of point lookups and analytic requests.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Section6, Workload::IngestScan, Workload::ServeMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Section6 => "section6",
            Workload::IngestScan => "ingest-scan",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The document size the workload runs on.
    pub fn lineitems(self) -> usize {
        match self {
            Workload::IngestScan => LARGE_LINEITEMS,
            _ => SMALL_LINEITEMS,
        }
    }
}

/// Request class in serve-mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A point lookup with a fresh literal.
    Lookup,
    /// One of the fixed analytic queries.
    Analytic,
}

/// One serve-mix request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Lookup or analytic.
    pub class: Class,
    /// The query text sent as the body.
    pub query: String,
    /// The expected response body for lookups (analytic answers are
    /// computed in process before timing starts).
    pub expected: String,
}

/// Expected answers for the ingest-scan queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOracle {
    /// Partkeys of lineitems with quantity ≥ 45, in document order.
    pub filter_partkeys: Vec<String>,
    /// Lineitems per partkey.
    pub partkey_counts: BTreeMap<String, u64>,
    /// Every (extendedprice, partkey) whose price is at least the
    /// tenth-largest, largest first.
    pub top: Vec<(String, String)>,
}

/// A generated workload input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inputs {
    /// The seed everything was derived from.
    pub seed: u64,
    /// The document as XML text.
    pub xml: String,
    /// Lineitems in the document.
    pub lineitems: usize,
    /// Orders in the document.
    pub orders: usize,
    /// Section6: per experiment (in `EXPERIMENTS` order), the group key
    /// tuples and their lineitem counts.
    pub groups: Vec<BTreeMap<Vec<String>, u64>>,
    /// Ingest-scan: expected query answers.
    pub scan: ScanOracle,
    /// Serve-mix: the request list.
    pub requests: Vec<Request>,
}

#[derive(Debug, Default)]
struct Lineitem {
    fields: BTreeMap<String, String>,
}

impl Lineitem {
    fn get(&self, name: &str) -> &str {
        self.fields.get(name).map_or("", String::as_str)
    }
}

/// Generate the inputs of `workload` for `seed` over a document of
/// about `lineitems` lineitems.
pub fn generate(workload: Workload, seed: u64, lineitems: usize) -> Inputs {
    let doc = generate_orders(&OrdersConfig::with_total_lineitems(lineitems).seed(seed));
    let xml = xqa::serialize_node(&doc.root());
    let mut items: Vec<Lineitem> = Vec::new();
    let mut orders: Vec<(String, String)> = Vec::new();
    for root in doc.root().children() {
        for order in root.children() {
            let mut key = String::new();
            let mut total = String::new();
            for child in order.children() {
                match child.name().map(|n| n.local_part()) {
                    Some("orderkey") => key = child.string_value(),
                    Some("totalprice") => total = child.string_value(),
                    Some("lineitem") => {
                        let mut li = Lineitem::default();
                        for field in child.children() {
                            if let Some(name) = field.name() {
                                li.fields
                                    .insert(name.local_part().to_string(), field.string_value());
                            }
                        }
                        items.push(li);
                    }
                    _ => {}
                }
            }
            orders.push((key, total));
        }
    }
    let mut inputs = Inputs {
        seed,
        xml,
        lineitems: items.len(),
        orders: orders.len(),
        ..Inputs::default()
    };
    match workload {
        Workload::Section6 => {
            inputs.groups = xqa_bench::EXPERIMENTS
                .iter()
                .map(|e| {
                    let mut groups = BTreeMap::new();
                    for li in &items {
                        let key = e.keys.iter().map(|k| li.get(k).to_string()).collect();
                        *groups.entry(key).or_insert(0) += 1;
                    }
                    groups
                })
                .collect();
        }
        Workload::IngestScan => inputs.scan = scan_oracle(&items),
        Workload::ServeMix => inputs.requests = requests(seed, &items, &orders),
    }
    inputs
}

fn scan_oracle(items: &[Lineitem]) -> ScanOracle {
    let mut oracle = ScanOracle::default();
    for li in items {
        let qty: u32 = li.get("quantity").parse().expect("generated quantity");
        if qty >= 45 {
            oracle.filter_partkeys.push(li.get("partkey").to_string());
        }
        *oracle
            .partkey_counts
            .entry(li.get("partkey").to_string())
            .or_insert(0) += 1;
    }
    let mut priced: Vec<(f64, &Lineitem)> = items
        .iter()
        .map(|li| {
            (
                li.get("extendedprice").parse().expect("generated price"),
                li,
            )
        })
        .collect();
    priced.sort_by(|a, b| b.0.total_cmp(&a.0));
    if let Some(&(tenth, _)) = priced.get(9).or(priced.last()) {
        oracle.top = priced
            .iter()
            .take_while(|(p, _)| *p >= tenth)
            .map(|(_, li)| {
                (
                    li.get("extendedprice").to_string(),
                    li.get("partkey").to_string(),
                )
            })
            .collect();
    }
    oracle
}

/// The serve-mix request list: about one request in five is analytic;
/// the rest are lookups by partkey (two thirds) or orderkey, each with
/// a literal not used before in the list while unused keys remain.
fn requests(seed: u64, items: &[Lineitem], orders: &[(String, String)]) -> Vec<Request> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5eed_5e7e_0000_0001);
    let mut by_partkey: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for li in items {
        by_partkey
            .entry(li.get("partkey"))
            .or_default()
            .push(li.get("quantity"));
    }
    let mut partkeys: Vec<&str> = by_partkey.keys().copied().collect();
    shuffle(&mut rng, &mut partkeys);
    let mut order_idx: Vec<usize> = (0..orders.len()).collect();
    shuffle(&mut rng, &mut order_idx);
    let analytic = analytic_queries();
    let (mut next_part, mut next_order) = (0usize, 0usize);
    (0..SERVE_REQUESTS)
        .map(|_| {
            if rng.gen_bool(ANALYTIC_SHARE) {
                Request {
                    class: Class::Analytic,
                    query: analytic[rng.gen_range(0..analytic.len())].clone(),
                    expected: String::new(),
                }
            } else if rng.gen_bool(2.0 / 3.0) {
                let key = partkeys[next_part % partkeys.len()];
                next_part += 1;
                let mut expected = String::new();
                for q in &by_partkey[key] {
                    let _ = write!(expected, "<quantity>{q}</quantity>");
                }
                Request {
                    class: Class::Lookup,
                    query: format!("//lineitem[partkey = {key}]/quantity"),
                    expected,
                }
            } else {
                let (key, total) = &orders[order_idx[next_order % order_idx.len()]];
                next_order += 1;
                Request {
                    class: Class::Lookup,
                    query: format!("//order[orderkey = {key}]/totalprice"),
                    expected: format!("<totalprice>{total}</totalprice>"),
                }
            }
        })
        .collect()
}

fn shuffle<T>(rng: &mut DetRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Write `inputs` under `dir` (`doc.xml`, `oracle.tsv`, `requests.tsv`).
pub fn write(inputs: &Inputs, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("doc.xml"), &inputs.xml)?;
    let mut oracle = String::new();
    let _ = writeln!(oracle, "seed\t{}", inputs.seed);
    let _ = writeln!(oracle, "lineitems\t{}", inputs.lineitems);
    let _ = writeln!(oracle, "orders\t{}", inputs.orders);
    for (i, groups) in inputs.groups.iter().enumerate() {
        for (keys, n) in groups {
            let _ = writeln!(oracle, "group\t{i}\t{n}\t{}", keys.join("\t"));
        }
    }
    for pk in &inputs.scan.filter_partkeys {
        let _ = writeln!(oracle, "filter\t{pk}");
    }
    for (pk, n) in &inputs.scan.partkey_counts {
        let _ = writeln!(oracle, "partkey\t{pk}\t{n}");
    }
    for (price, pk) in &inputs.scan.top {
        let _ = writeln!(oracle, "top\t{price}\t{pk}");
    }
    std::fs::write(dir.join("oracle.tsv"), oracle)?;
    let mut reqs = String::new();
    for r in &inputs.requests {
        let class = match r.class {
            Class::Lookup => "L",
            Class::Analytic => "A",
        };
        let _ = writeln!(reqs, "{class}\t{}\t{}", r.query, r.expected);
    }
    std::fs::write(dir.join("requests.tsv"), reqs)?;
    // Written last: its presence marks a complete input set.
    std::fs::write(dir.join("done"), "")
}

/// Read inputs written by [`write`].
pub fn read(dir: &Path) -> Result<Inputs, String> {
    let load = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("cannot read {}: {e}", dir.join(name).display()))
    };
    let mut inputs = Inputs {
        xml: load("doc.xml")?,
        ..Inputs::default()
    };
    let bad = |line: &str| format!("malformed oracle line: {line:?}");
    for line in load("oracle.tsv")?.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(line))
        };
        match f[0] {
            "seed" => inputs.seed = num(1)?,
            "lineitems" => inputs.lineitems = num(1)? as usize,
            "orders" => inputs.orders = num(1)? as usize,
            "group" if f.len() >= 4 => {
                let exp = num(1)? as usize;
                if inputs.groups.len() <= exp {
                    inputs.groups.resize(exp + 1, BTreeMap::new());
                }
                let keys = f[3..].iter().map(|s| s.to_string()).collect();
                inputs.groups[exp].insert(keys, num(2)?);
            }
            "filter" if f.len() == 2 => inputs.scan.filter_partkeys.push(f[1].to_string()),
            "partkey" if f.len() == 3 => {
                inputs.scan.partkey_counts.insert(f[1].to_string(), num(2)?);
            }
            "top" if f.len() == 3 => inputs.scan.top.push((f[1].to_string(), f[2].to_string())),
            _ => return Err(bad(line)),
        }
    }
    for line in load("requests.tsv")?.lines() {
        let f: Vec<&str> = line.splitn(3, '\t').collect();
        let class = match f[0] {
            "L" => Class::Lookup,
            "A" => Class::Analytic,
            _ => return Err(bad(line)),
        };
        inputs.requests.push(Request {
            class,
            query: f.get(1).ok_or_else(|| bad(line))?.to_string(),
            expected: f.get(2).unwrap_or(&"").to_string(),
        });
    }
    Ok(inputs)
}
