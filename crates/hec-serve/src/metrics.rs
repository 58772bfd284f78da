//! Per-endpoint latency histograms and the `/metrics` document.
//!
//! Histograms use power-of-two microsecond buckets (bucket *i* counts
//! latencies in `[2^i, 2^(i+1))` µs), which is plenty for service
//! latencies spanning ~1 µs to ~1 min and needs no configuration.
//! Quantiles are read back as the upper edge of the bucket containing
//! the requested rank — an upper bound, deterministic given the counts.

use std::sync::atomic::{AtomicU64, Ordering};

use hec_core::json::{Json, ToJson};

/// Number of log2 buckets: covers up to 2^31 µs ≈ 36 minutes.
pub const BUCKETS: usize = 32;

/// A lock-free log2 latency histogram.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).saturating_sub(1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one observation from a duration.
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate (bucket upper edge, µs) of quantile `q` in
    /// [0, 1]. Returns 0 for an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_edge(i);
            }
        }
        upper_edge(BUCKETS - 1)
    }

    /// Snapshot of non-empty buckets as `(upper_edge_us, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((upper_edge(i), c))
            })
            .collect()
    }
}

/// The `/metrics` rendering of one histogram (server and router alike).
impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let buckets = self.nonzero_buckets().into_iter().map(|(le, c)| {
            Json::obj([("le_us", Json::Num(le as f64)), ("count", Json::Num(c as f64))])
        });
        Json::obj([
            ("count", Json::Num(self.count() as f64)),
            ("sum_us", Json::Num(self.sum_us() as f64)),
            ("p50_us", Json::Num(self.quantile_us(0.50) as f64)),
            ("p95_us", Json::Num(self.quantile_us(0.95) as f64)),
            ("p99_us", Json::Num(self.quantile_us(0.99) as f64)),
            ("buckets", Json::Arr(buckets.collect())),
        ])
    }
}

fn upper_edge(bucket: usize) -> u64 {
    if bucket + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (bucket + 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_log2_buckets() {
        let h = Histogram::new();
        h.record_us(0); // bucket 0 (sub-µs)
        h.record_us(1); // [1,2) → bucket 0
        h.record_us(2); // [2,4) → bucket 1
        h.record_us(3);
        h.record_us(1000); // [512,1024)? no: [512..1024) is bucket 9; 1000 → bucket 9
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_us(), 1006);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (1, 2)); // 0 and 1
        assert_eq!(buckets[1], (3, 2)); // 2 and 3
        assert_eq!(buckets[2], (1023, 1));
    }

    #[test]
    fn quantiles_are_monotone_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 100_000] {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.50);
        let p95 = h.quantile_us(0.95);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= 80, "median upper bound must cover the median");
        assert!(p99 >= 100_000, "p99 must reach the slowest decile");
    }

    #[test]
    fn huge_latencies_saturate_the_last_bucket() {
        let h = Histogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), upper_edge(BUCKETS - 1));
    }
}
