//! Latency/throughput summary rendering for the serve benchmark.
//!
//! The load generator measures open-loop request latencies; this
//! module turns per-endpoint summaries into the same fixed-width table
//! style the paper reproductions use.

use crate::table::Table;

/// One measured endpoint (or endpoint class) summary.
#[derive(Clone, Debug)]
pub struct LatencySummary {
    /// Label (endpoint path or workload class).
    pub label: String,
    /// Completed requests.
    pub requests: u64,
    /// Error responses (status ≥ 400) among them.
    pub errors: u64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1000.0)
    } else {
        format!("{us} us")
    }
}

/// Availability/failover summary of one cluster load test.
#[derive(Clone, Debug)]
pub struct ClusterSummary {
    /// Replica slots behind the router.
    pub replicas: u64,
    /// Replicas up when the run ended.
    pub up: u64,
    /// Router failovers during the run (owner switched mid-request).
    pub failovers: u64,
    /// Client requests that needed a retry but ultimately succeeded.
    pub retried_ok: u64,
    /// Successful responses / attempted requests, in `[0, 1]`.
    pub availability: f64,
    /// Membership changes during the run (scale-ups + drains).
    pub membership_events: u64,
    /// Tracked keys rerouted across epoch flips during the run.
    pub keys_moved: u64,
    /// Autoscaler decisions during the run as `(up, down)`.
    pub autoscale: (u64, u64),
}

/// Renders the cluster availability row that accompanies a cluster
/// load test's latency table.
pub fn cluster_table(title: &str, c: &ClusterSummary) -> Table {
    let mut t = Table::new(
        title.to_string(),
        &["replicas", "up", "failovers", "retried ok", "availability", "churn", "moved", "scale"],
    );
    t.push_row(vec![
        c.replicas.to_string(),
        c.up.to_string(),
        c.failovers.to_string(),
        c.retried_ok.to_string(),
        format!("{:.3}%", c.availability * 100.0),
        c.membership_events.to_string(),
        c.keys_moved.to_string(),
        format!("+{}/-{}", c.autoscale.0, c.autoscale.1),
    ]);
    t
}

/// Renders per-endpoint latency summaries plus an overall throughput
/// line, in the suite's table style.
pub fn latency_table(title: &str, rows: &[LatencySummary], throughput_rps: f64) -> Table {
    let mut t = Table::new(
        format!("{title} ({throughput_rps:.0} req/s overall)"),
        &["endpoint", "requests", "errors", "p50", "p95", "p99"],
    );
    for r in rows {
        t.push_row(vec![
            r.label.clone(),
            r.requests.to_string(),
            r.errors.to_string(),
            fmt_us(r.p50_us),
            fmt_us(r.p95_us),
            fmt_us(r.p99_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_columns() {
        let rows = vec![
            LatencySummary {
                label: "/eval".into(),
                requests: 1000,
                errors: 0,
                p50_us: 180,
                p95_us: 950,
                p99_us: 12_000,
            },
            LatencySummary {
                label: "/sweep".into(),
                requests: 10,
                errors: 1,
                p50_us: 20_000,
                p95_us: 45_000,
                p99_us: 45_000,
            },
        ];
        let out = latency_table("serve load test", &rows, 512.4).render();
        assert!(out.contains("512 req/s"), "{out}");
        assert!(out.contains("/eval"));
        assert!(out.contains("180 us"));
        assert!(out.contains("12.0 ms"));
        assert!(out.contains("45.0 ms"));
    }

    #[test]
    fn cluster_table_shows_availability_and_failovers() {
        let out = cluster_table(
            "cluster availability",
            &ClusterSummary {
                replicas: 3,
                up: 2,
                failovers: 7,
                retried_ok: 4,
                availability: 1.0,
                membership_events: 3,
                keys_moved: 12,
                autoscale: (1, 1),
            },
        )
        .render();
        assert!(out.contains("100.000%"), "{out}");
        assert!(out.contains('7'));
        assert!(out.contains("retried ok"));
        assert!(out.contains("+1/-1"), "autoscale column renders up/down: {out}");
        assert!(out.contains("12"), "keys moved column: {out}");
    }
}
