//! Service metrics: request counters and a lock-free latency histogram.
//!
//! Everything is relaxed atomics so recording never blocks a worker and
//! `GET /metrics` reads a consistent-enough snapshot without stopping
//! traffic. Rendering follows the Prometheus text exposition format
//! (cumulative `le` buckets) so the output scrapes cleanly, but there
//! is no dependency on anything beyond `std`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xqa_engine::Counter;

/// Upper bounds of the latency buckets, in microseconds.
pub const LATENCY_BOUNDS_US: [u64; 13] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// A fixed-bucket histogram of request latencies.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// One counter per bound plus a final overflow bucket.
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Estimated latency quantile in microseconds: the upper bound of
    /// the first bucket holding the `q`-th observation (0 when empty;
    /// observations past the last bound clamp to it). Coarse by design —
    /// the resolution is the bucket layout — but monotone in `q` and
    /// cheap enough to serve inline from `/metrics`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            if cumulative >= target {
                return bound;
            }
        }
        LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1]
    }

    /// Append Prometheus-style cumulative buckets named `{name}_bucket`
    /// plus `{name}_sum` / `{name}_count`.
    pub fn render(&self, out: &mut String, name: &str) {
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        cumulative += self.counts[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum_us.load(Ordering::Relaxed));
        let _ = writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed));
    }
}

/// Aggregated request counters for the whole service.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `POST /query` requests received.
    pub query_requests: Counter,
    /// Query requests that returned a result.
    pub query_ok: Counter,
    /// Query requests rejected (bad body, compile or runtime error).
    pub query_errors: Counter,
    /// Requests for paths/methods the server does not serve.
    pub not_found: Counter,
    /// Connections whose request could not be parsed.
    pub bad_requests: Counter,
    /// Requests answered `408` because a read deadline expired.
    pub request_timeouts: Counter,
    /// Query responses streamed as chunked transfer encoding.
    pub streamed_responses: Counter,
    /// Streamed responses aborted after the first byte (truncated
    /// chunked body, connection closed).
    pub mid_stream_aborts: Counter,
    /// End-to-end query latency (receipt to serialized response).
    pub query_latency: LatencyHistogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50)); // <= 100
        h.record(Duration::from_micros(100)); // <= 100 (inclusive bound)
        h.record(Duration::from_micros(101)); // <= 250
        h.record(Duration::from_secs(10)); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(h.counts[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.counts[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn render_is_cumulative_and_ends_at_inf() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(200));
        let mut out = String::new();
        h.render(&mut out, "lat_us");
        assert!(out.contains("lat_us_bucket{le=\"100\"} 1"));
        assert!(out.contains("lat_us_bucket{le=\"250\"} 2"));
        assert!(out.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("lat_us_count 2"));
        assert!(out.contains("lat_us_sum 210"));
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(Duration::from_micros(50)); // bucket le=100
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(40_000)); // bucket le=50000
        }
        assert_eq!(h.quantile_us(0.5), 100);
        assert_eq!(h.quantile_us(0.9), 100);
        assert_eq!(h.quantile_us(0.95), 50_000);
        assert_eq!(h.quantile_us(0.99), 50_000);
    }

    #[test]
    fn every_quantile_of_a_single_sample_is_its_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(300)); // bucket le=500
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 500, "q={q}");
        }
    }

    #[test]
    fn overflow_observations_clamp_to_the_last_bound() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(30));
        assert_eq!(h.quantile_us(0.5), *LATENCY_BOUNDS_US.last().unwrap());
    }

    #[test]
    fn mean_handles_empty_histogram() {
        let h = LatencyHistogram::default();
        assert_eq!(h.mean_us(), 0);
        h.record(Duration::from_micros(30));
        h.record(Duration::from_micros(10));
        assert_eq!(h.mean_us(), 20);
    }
}
