//! Live service counters and the `/metrics`-style text exposition.
//!
//! Counters are plain atomics bumped on the hot paths; the latency
//! quantiles are P² estimators behind one mutex, only touched once per
//! completed session. [`Metrics::render`] emits one
//! `csmaprobe_<name> <value>` line per metric — flat text, no labels,
//! stable names — so a scraper (or the CI smoke job's `curl`) can
//! parse it with `awk`.

use crate::session::ManagerCounts;
use csmaprobe_bench::report::json_f64;
use csmaprobe_desim::executor;
use csmaprobe_stats::P2Quantile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-lifetime service metrics. One instance per server, shared
/// across connection threads and session-completion hooks.
pub struct Metrics {
    started: Instant,
    /// TCP connections accepted.
    pub connections: AtomicU64,
    /// Wire requests parsed and dispatched (any op).
    pub requests: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Fold chunks of [`CHUNK`] replications (the last one of a
    /// session may be shorter) across all completed sessions.
    ///
    /// [`CHUNK`]: csmaprobe_desim::replicate::CHUNK
    pub chunks: AtomicU64,
    /// Replications folded across all completed sessions.
    pub reps: AtomicU64,
    /// Replications of completed sessions that ran on a thread other
    /// than their session's driver. Depends on scheduling, so it is
    /// served here and never written into a session row.
    pub reps_stolen: AtomicU64,
    /// Session-table rows persisted.
    pub rows_persisted: AtomicU64,
    latency: Mutex<Latency>,
}

struct Latency {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    n: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            reps: AtomicU64::new(0),
            reps_stolen: AtomicU64::new(0),
            rows_persisted: AtomicU64::new(0),
            latency: Mutex::new(Latency {
                p50: P2Quantile::new(0.5),
                p95: P2Quantile::new(0.95),
                p99: P2Quantile::new(0.99),
                n: 0,
            }),
        }
    }
}

impl Metrics {
    /// Record one session's submit→terminal latency.
    pub fn observe_session_latency(&self, seconds: f64) {
        let mut l = self.latency.lock().unwrap_or_else(|e| e.into_inner());
        l.p50.push(seconds);
        l.p95.push(seconds);
        l.p99.push(seconds);
        l.n += 1;
    }

    /// The flat-text exposition. `counts` comes from the session
    /// manager so the snapshot is taken at render time.
    pub fn render(&self, counts: ManagerCounts) -> String {
        let (p50, p95, p99, n) = {
            let l = self.latency.lock().unwrap_or_else(|e| e.into_inner());
            (l.p50.value(), l.p95.value(), l.p99.value(), l.n)
        };
        let mut out = String::with_capacity(1024);
        let mut put = |name: &str, value: String| {
            out.push_str("csmaprobe_");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        put(
            "uptime_seconds",
            format!("{:.3}", self.started.elapsed().as_secs_f64()),
        );
        put("sessions_accepted", counts.accepted.to_string());
        put("sessions_done", counts.done.to_string());
        put("sessions_cancelled", counts.cancelled.to_string());
        put("sessions_in_flight", counts.in_flight.to_string());
        put(
            "connections_total",
            self.connections.load(Ordering::Relaxed).to_string(),
        );
        put(
            "requests_total",
            self.requests.load(Ordering::Relaxed).to_string(),
        );
        put(
            "request_errors_total",
            self.errors.load(Ordering::Relaxed).to_string(),
        );
        put(
            "chunks_total",
            self.chunks.load(Ordering::Relaxed).to_string(),
        );
        put("reps_total", self.reps.load(Ordering::Relaxed).to_string());
        put(
            "reps_stolen_total",
            self.reps_stolen.load(Ordering::Relaxed).to_string(),
        );
        put(
            "rows_persisted_total",
            self.rows_persisted.load(Ordering::Relaxed).to_string(),
        );
        put("executor_workers", executor::worker_limit().to_string());
        put("executor_active", executor::concurrency().to_string());
        put("session_latency_count", n.to_string());
        put("session_latency_p50_seconds", json_f64(p50));
        put("session_latency_p95_seconds", json_f64(p95));
        put("session_latency_p99_seconds", json_f64(p99));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_line_per_metric() {
        let m = Metrics::default();
        m.connections.fetch_add(3, Ordering::Relaxed);
        m.observe_session_latency(0.5);
        m.observe_session_latency(1.5);
        let text = m.render(ManagerCounts {
            accepted: 2,
            done: 1,
            cancelled: 1,
            in_flight: 0,
        });
        for line in text.lines() {
            assert!(line.starts_with("csmaprobe_"), "bad line: {line}");
            assert_eq!(line.split(' ').count(), 2, "bad line: {line}");
        }
        assert!(text.contains("csmaprobe_sessions_accepted 2\n"));
        assert!(text.contains("csmaprobe_connections_total 3\n"));
        assert!(text.contains("csmaprobe_session_latency_count 2\n"));
    }
}
