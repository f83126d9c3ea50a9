//! Daemon telemetry: stable monotone counters, per-endpoint latency
//! histograms, gauges for queue depth / in-flight cells / RSS, plus a
//! passthrough of the artifact store's hit/miss/coalesce counters — the
//! `DistanceCache`-style contract that makes a long-lived cache service
//! observable. Rendered by [`Metrics::render`] in a Prometheus-flavoured
//! text form (`name value`, histograms with `le` labels).

use microlib::ArtifactStore;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets (`le="1"` µs … `le="2^30"` µs,
/// plus the implicit `+Inf` via `_count`).
const BUCKETS: usize = 31;

/// A fixed log₂-bucket latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let bucket = (u64::BITS - us.leading_zeros()).min(BUCKETS as u32 - 1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String, name: &str, endpoint: &str) {
        let mut cumulative = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = 1u64 << i;
            let _ = writeln!(
                out,
                "{name}_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "{name}_count{{endpoint=\"{endpoint}\"}} {}",
            self.count()
        );
        let _ = writeln!(
            out,
            "{name}_sum_us{{endpoint=\"{endpoint}\"}} {}",
            self.sum_us.load(Ordering::Relaxed)
        );
    }
}

/// All serve-side counters and gauges. Counters are monotone for the
/// life of the process; gauges move both ways.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `POST /campaign` requests accepted (any outcome past admission).
    pub campaign_requests: AtomicU64,
    /// `GET /metrics` requests.
    pub metrics_requests: AtomicU64,
    /// `GET /healthz` requests.
    pub healthz_requests: AtomicU64,
    /// Requests rejected by admission control (HTTP 429).
    pub rejected: AtomicU64,
    /// Connections turned away because every handler was busy and the
    /// connection queue was full (HTTP 503).
    pub busy_rejects: AtomicU64,
    /// Malformed requests (HTTP 400) and unknown routes (404).
    pub bad_requests: AtomicU64,
    /// Campaigns refused because the daemon was draining (HTTP 503).
    pub draining_rejects: AtomicU64,
    /// Result lines streamed (completed cells, errors included).
    pub cells_streamed: AtomicU64,
    /// Cells whose simulation returned an error line.
    pub cells_failed: AtomicU64,
    /// Cells whose simulation panicked (also counted in `cells_failed`).
    pub cells_panicked: AtomicU64,
    /// Cells currently queued (gauge).
    pub queue_depth: AtomicU64,
    /// Cells currently executing on a worker (gauge).
    pub inflight_cells: AtomicU64,
    /// Wall latency of whole `/campaign` requests.
    pub campaign_latency: Histogram,
    /// Wall latency of individual cell executions.
    pub cell_latency: Histogram,
    /// Wall latency of `/metrics` + `/healthz` requests.
    pub probe_latency: Histogram,
}

impl Metrics {
    /// Renders every counter, gauge and histogram, the store's counters
    /// (`store_*`), and the process RSS, as `name value` text.
    pub fn render(&self, store: &ArtifactStore) -> String {
        let mut out = String::with_capacity(4096);
        let counters: [(&str, u64); 12] = [
            (
                "serve_campaign_requests_total",
                self.campaign_requests.load(Ordering::Relaxed),
            ),
            (
                "serve_metrics_requests_total",
                self.metrics_requests.load(Ordering::Relaxed),
            ),
            (
                "serve_healthz_requests_total",
                self.healthz_requests.load(Ordering::Relaxed),
            ),
            (
                "serve_rejected_total",
                self.rejected.load(Ordering::Relaxed),
            ),
            (
                "serve_busy_rejects_total",
                self.busy_rejects.load(Ordering::Relaxed),
            ),
            (
                "serve_bad_requests_total",
                self.bad_requests.load(Ordering::Relaxed),
            ),
            (
                "serve_draining_rejects_total",
                self.draining_rejects.load(Ordering::Relaxed),
            ),
            (
                "serve_cells_streamed_total",
                self.cells_streamed.load(Ordering::Relaxed),
            ),
            (
                "serve_cells_failed_total",
                self.cells_failed.load(Ordering::Relaxed),
            ),
            (
                "serve_cells_panicked_total",
                self.cells_panicked.load(Ordering::Relaxed),
            ),
            (
                "serve_queue_depth",
                self.queue_depth.load(Ordering::Relaxed),
            ),
            (
                "serve_inflight_cells",
                self.inflight_cells.load(Ordering::Relaxed),
            ),
        ];
        for (name, value) in counters {
            let _ = writeln!(out, "{name} {value}");
        }
        self.campaign_latency
            .render(&mut out, "serve_latency_us", "campaign");
        self.cell_latency
            .render(&mut out, "serve_latency_us", "cell");
        self.probe_latency
            .render(&mut out, "serve_latency_us", "probe");
        let stats = store.stats();
        let store_counters: [(&str, u64); 10] = [
            ("store_memo_hits", stats.memo_hits),
            ("store_memo_misses", stats.memo_misses),
            ("store_memo_disk_hits", stats.memo_disk_hits),
            ("store_memo_coalesced", stats.memo_coalesced),
            ("store_warm_hits", stats.warm_hits),
            ("store_warm_misses", stats.warm_misses),
            ("store_warm_evictions", stats.warm_evictions),
            ("store_lease_claims", stats.lease_claims),
            ("store_lease_waits", stats.lease_waits),
            ("store_warm_resident_bytes", store.warm_resident_bytes()),
        ];
        for (name, value) in store_counters {
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "process_rss_bytes {}", rss_bytes());
        out
    }
}

/// Resident set size from `/proc/self/status` (`VmRSS`), in bytes; 0 on
/// platforms without procfs.
pub fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Parses one `name value` line out of rendered metrics text — the
/// scrape-side helper tests and CI use to assert counter values.
pub fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe_us(0);
        h.observe_us(1);
        h.observe_us(1_000);
        h.observe_us(u64::MAX);
        assert_eq!(h.count(), 4);
        let mut out = String::new();
        h.render(&mut out, "t_us", "x");
        let last = out.lines().rfind(|l| l.starts_with("t_us_bucket")).unwrap();
        assert!(last.ends_with(" 4"), "top bucket holds everything: {last}");
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let metrics = Metrics::default();
        metrics.campaign_requests.fetch_add(3, Ordering::Relaxed);
        let store = ArtifactStore::new();
        let text = metrics.render(&store);
        assert_eq!(
            metric_value(&text, "serve_campaign_requests_total"),
            Some(3)
        );
        assert_eq!(metric_value(&text, "store_memo_hits"), Some(0));
        assert!(metric_value(&text, "process_rss_bytes").unwrap() > 0);
    }
}
