//! The router's own metrics plane — same instruments and naming
//! grammar as the serving tier (`ft_router_*`), kept in a dedicated
//! [`MetricsRegistry`] so the merged fleet export can overlay it onto
//! the summed per-node planes without name collisions.

use ft_metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use ft_server::{Endpoint, LoopTelemetry};
use std::sync::Arc;

/// Extra endpoint labels the router serves beyond the proxied surface.
pub const FLEET_ENDPOINTS: [&str; 2] = ["fleet_status", "fleet_drain"];

/// Pre-resolved instruments, one slot per proxied endpoint plus the
/// router-only fleet endpoints (indices `Endpoint::ALL.len()..`).
pub struct RouterTelemetry {
    metrics: Arc<MetricsRegistry>,
    requests: Vec<Arc<Counter>>,
    latency: Vec<Arc<Histogram>>,
    /// Proxy sends retried after a failover re-route.
    pub retries: Arc<Counter>,
    /// Unplanned node failovers (connection failure → ring flip).
    pub failovers: Arc<Counter>,
    /// Campaign snapshots restored onto a new owner (failover or
    /// planned drain).
    pub restores: Arc<Counter>,
    /// Requests refused with a retryable 503 (drain window, no
    /// backends alive).
    pub rejects: Arc<Counter>,
    /// Backends currently routable.
    pub nodes_alive: Arc<Gauge>,
    /// Client connection accounting and ready-queue wait, recorded by
    /// the serving loop.
    pub serving: LoopTelemetry,
}

impl RouterTelemetry {
    pub fn new() -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let labels: Vec<String> = Endpoint::ALL
            .iter()
            .map(|e| e.label().to_string())
            .chain(FLEET_ENDPOINTS.iter().map(|s| s.to_string()))
            .collect();
        let requests = labels
            .iter()
            .map(|l| metrics.counter(&format!("ft_router_requests_total{{endpoint=\"{l}\"}}")))
            .collect();
        let latency = labels
            .iter()
            .map(|l| metrics.histogram(&format!("ft_router_request_ns{{endpoint=\"{l}\"}}")))
            .collect();
        Self {
            requests,
            latency,
            retries: metrics.counter("ft_router_retries_total"),
            failovers: metrics.counter("ft_router_failovers_total"),
            restores: metrics.counter("ft_router_restores_total"),
            rejects: metrics.counter("ft_router_rejects_total"),
            nodes_alive: metrics.gauge("ft_router_nodes_alive"),
            serving: LoopTelemetry {
                connections_accepted: metrics.counter("ft_router_connections_accepted_total"),
                connections_rejected: metrics.counter("ft_router_connections_rejected_total"),
                connections_active: metrics.gauge("ft_router_connections_active"),
                queue_wait: metrics.histogram("ft_router_queue_wait_ns"),
            },
            metrics,
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Instrument slot for a proxied endpoint.
    pub fn slot(endpoint: Endpoint) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == endpoint)
            .expect("endpoint in ALL")
    }

    /// Instrument slot for a router-only fleet endpoint label.
    pub fn fleet_slot(label: &str) -> usize {
        Endpoint::ALL.len()
            + FLEET_ENDPOINTS
                .iter()
                .position(|l| *l == label)
                .expect("known fleet endpoint")
    }

    /// Record one routed request (same shape as the serving tier's
    /// recorder, including the traced-tail exemplar offer).
    pub fn record(
        &self,
        slot: usize,
        _status: u16,
        elapsed: std::time::Duration,
        trace: Option<u64>,
    ) {
        self.requests[slot].inc();
        self.latency[slot].record_duration(elapsed);
        if let Some(trace_id) = trace {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            self.latency[slot].offer_exemplar(ns, trace_id);
        }
    }
}

impl Default for RouterTelemetry {
    fn default() -> Self {
        Self::new()
    }
}
