//! Minimal std-only benchmark harness (Criterion-style reporting
//! without the dependency, so the workspace builds offline).
//!
//! Each `[[bench]]` target sets `harness = false` and drives this from
//! a plain `main`. Timing protocol: one untimed warm-up, then enough
//! iterations to fill a fixed measurement budget (at least
//! [`MIN_ITERS`]), reporting mean and minimum wall-clock time.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum timed iterations per benchmark.
pub const MIN_ITERS: u32 = 5;

/// Per-benchmark measurement budget.
const BUDGET: Duration = Duration::from_millis(500);

/// A named group of benchmarks, printed as a table.
pub struct Harness {
    group: String,
    /// Annotations attached to the next recorded measurement.
    pending: Vec<(String, String)>,
}

impl Harness {
    /// Start a group (prints its header).
    pub fn group(name: &str) -> Harness {
        println!("\n== {name} ==");
        Harness {
            group: name.to_string(),
            pending: Vec::new(),
        }
    }

    /// Attach an already-serialized JSON value under `key` to the next
    /// recorded measurement (e.g. copy-counter summaries in the seq
    /// bench). Annotations are drained by the next `bench*` call.
    pub fn annotate(&mut self, key: &str, json: String) {
        self.pending.push((key.to_string(), json));
    }

    /// Run one benchmark: warm up, estimate, then measure. Returns the
    /// mean wall-clock time per iteration.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) -> Duration {
        self.bench_with_profile(name, None, f)
    }

    /// Push a derived, untimed record (e.g. a ratio computed from two
    /// measured means). Pending [`Harness::annotate`] values attach to
    /// it, so figures like `speedup_vs_walk` land in `BENCH_*.json` as
    /// their own rows.
    pub fn record_derived(&mut self, name: &str) {
        println!("{:<40} (derived)", format!("{}/{name}", self.group));
        RECORDS.lock().unwrap().push(Record {
            group: self.group.clone(),
            name: name.to_string(),
            mean_ns: 0,
            min_ns: 0,
            iters: 0,
            profile_json: None,
            extra: std::mem::take(&mut self.pending),
        });
    }

    /// Like [`Harness::bench`], but attaches a pre-serialized operator
    /// profile (a JSON object, e.g. [`xqa::QueryProfile::to_json`])
    /// to the machine-readable record, so `BENCH_*.json` carries
    /// per-operator tuple/time numbers next to the wall-clock figures.
    pub fn bench_with_profile<F: FnMut()>(
        &mut self,
        name: &str,
        profile_json: Option<String>,
        mut f: F,
    ) -> Duration {
        // Warm-up doubles as the iteration-count estimate.
        let start = Instant::now();
        f();
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = ((BUDGET.as_secs_f64() / once.as_secs_f64()) as u32).clamp(MIN_ITERS, 10_000);

        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            total += elapsed;
            min = min.min(elapsed);
        }
        let mean = total / iters;
        println!(
            "{:<40} mean {:>12?}  min {:>12?}  ({iters} iters)",
            format!("{}/{name}", self.group),
            mean,
            min
        );
        RECORDS.lock().unwrap().push(Record {
            group: self.group.clone(),
            name: name.to_string(),
            mean_ns: mean.as_nanos(),
            min_ns: min.as_nanos(),
            iters,
            profile_json,
            extra: std::mem::take(&mut self.pending),
        });
        mean
    }
}

/// One measured benchmark, kept for machine-readable reporting.
struct Record {
    group: String,
    name: String,
    mean_ns: u128,
    min_ns: u128,
    iters: u32,
    /// Pre-serialized JSON object with per-operator profile numbers.
    profile_json: Option<String>,
    /// Extra pre-serialized `(key, json)` annotations.
    extra: Vec<(String, String)>,
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// The repository root: the nearest ancestor of this crate that holds
/// the workspace `Cargo.lock`. Bench targets run with the *package*
/// directory as CWD, so relative `BENCH_JSON` paths would otherwise
/// land in `crates/bench/` where nothing picks them up.
fn repo_root() -> std::path::PathBuf {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("Cargo.lock").exists() {
        if !dir.pop() {
            return std::path::PathBuf::from(".");
        }
    }
    dir
}

/// Write every benchmark measured so far as a JSON array. Relative
/// paths resolve against the repository root, so
/// `BENCH_JSON=BENCH_seq.json` lands next to the committed trajectory
/// files regardless of the bench target's working directory.
pub fn write_json(path: &str) -> std::io::Result<()> {
    let path = {
        let p = std::path::Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            repo_root().join(p)
        }
    };
    let records = RECORDS.lock().unwrap();
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // Queries run single-threaded; `threads` stays a constant so the
        // records keep the committed `BENCH_*.json` schema.
        out.push_str(&format!(
            "  {{\"group\": \"{}\", \"name\": \"{}\", \"mean_ns\": {}, \
             \"min_ns\": {}, \"iters\": {}, \"threads\": 1",
            escape(&r.group),
            escape(&r.name),
            r.mean_ns,
            r.min_ns,
            r.iters,
        ));
        if let Some(profile) = &r.profile_json {
            // Already-valid JSON, inserted verbatim.
            out.push_str(&format!(", \"profile\": {profile}"));
        }
        for (key, json) in &r.extra {
            out.push_str(&format!(", \"{}\": {json}", escape(key)));
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Format a throughput figure given bytes processed per iteration.
pub fn mibps(bytes: usize, per_iter: Duration) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / per_iter.as_secs_f64().max(1e-12)
}
