//! The service's metric registry and its `/metrics` exposition.
//!
//! One [`ServiceMetrics`] instance lives in [`ServiceState`]: the epoll
//! event loop feeds the loop-level series
//! (poll wait, queue depth, open connections, timers, byte counters), the
//! response epilogue (`routes::finish`) feeds the per-route request
//! counters, structured-error counters, and per-stage select histograms,
//! and the registry/cache series are read live at scrape time. All cells
//! are lock-free atomics
//! ([`smin_obs`]) — recording a metric never takes a lock and never
//! allocates.
//!
//! `GET /metrics` renders the registry in the Prometheus text exposition
//! format (version 0.0.4). The handler mutates nothing — it is not counted
//! as a request — so two consecutive scrapes with no intervening traffic
//! are byte-identical: every histogram has fixed power-of-two bucket
//! bounds, every labeled family renders in a fixed (or BTreeMap) order, and
//! no timestamp appears in the output.

use crate::routes::ServiceState;
use smin_obs::{expo, Counter, Gauge, Histogram};

/// Every metric the service records, grouped by layer.
#[derive(Default)]
pub struct ServiceMetrics {
    // --- event loop ---
    /// Time spent blocked in `epoll_wait`, per call.
    pub epoll_wait_micros: Histogram,
    /// Dispatches queued + running (sampled once per loop iteration).
    pub dispatch_queue_depth: Gauge,
    /// Open connections (sampled once per loop iteration).
    pub slab_connections: Gauge,
    /// Connections awaiting a synchronous-response redrive (sampled once
    /// per loop iteration).
    pub redrive_queue_length: Gauge,
    /// Idle keep-alive deadlines fired (silent close).
    pub timer_expirations_idle: Counter,
    /// Mid-request deadlines fired (408 when the head was parsed).
    pub timer_expirations_request: Counter,
    /// Stuck-write deadlines fired (close).
    pub timer_expirations_write: Counter,
    /// Bytes read off connection sockets.
    pub bytes_read: Counter,
    /// Bytes written to connection sockets.
    pub bytes_written: Counter,

    // --- session layer: requests per route ---
    /// `GET /healthz` requests routed.
    pub requests_healthz: Counter,
    /// `/v1/graphs` (+ `/v1/graphs/{id}`) requests routed.
    pub requests_graphs: Counter,
    /// `/v1/select` requests routed.
    pub requests_select: Counter,
    /// `/v1/select-batch` requests routed.
    pub requests_select_batch: Counter,
    /// Everything else (404s, stray methods).
    pub requests_other: Counter,

    // --- structured transport errors ---
    /// `smin_http_errors_total`, one counter per [`ERROR_STATUSES`] entry:
    /// every response the event loop gives itself, and every 500.
    pub errors: [Counter; ERROR_STATUSES.len()],

    // --- select pipeline stages ---
    /// Request parse + graph resolution against the registry.
    pub stage_resolve_micros: Histogram,
    /// Warm-session checkout from the graph's shelf.
    pub stage_checkout_micros: Histogram,
    /// Sketch-pool growth (mRR-set generation), summed over rounds.
    pub stage_sketch_micros: Histogram,
    /// Coverage argmax / greedy selection, summed over rounds.
    pub stage_coverage_micros: Histogram,
    /// Response-body serialization.
    pub stage_serialize_micros: Histogram,
}

/// The statuses `smin_http_errors_total` counts, in exposition order.
pub const ERROR_STATUSES: [u16; 5] = [400, 408, 429, 500, 504];

impl ServiceMetrics {
    /// All-zero metrics.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// The `smin_http_errors_total` counter of `status`, if it has one.
    pub(crate) fn errors_of(&self, status: u16) -> Option<&Counter> {
        let i = ERROR_STATUSES.iter().position(|&s| s == status)?;
        self.errors.get(i)
    }
}

/// Renders the full exposition text: the shared registry above, plus the
/// cache hit/miss counters and per-graph registry gauges read live from
/// `state`. Purely a read — scraping never changes any series.
pub fn render(state: &ServiceState) -> String {
    let m = state.metrics();
    let mut out = String::with_capacity(8 << 10);

    // Event loop.
    expo::write_histogram(
        &mut out,
        "smin_epoll_wait_micros",
        "Time blocked in epoll_wait per call, in microseconds.",
        &m.epoll_wait_micros.snapshot(),
    );
    expo::write_gauge(
        &mut out,
        "smin_dispatch_queue_depth",
        "Dispatches queued plus running, sampled per loop iteration.",
        m.dispatch_queue_depth.get(),
    );
    expo::write_gauge(
        &mut out,
        "smin_slab_connections",
        "Open connections held by the event loop.",
        m.slab_connections.get(),
    );
    expo::write_gauge(
        &mut out,
        "smin_redrive_queue_length",
        "Connections awaiting a synchronous-response redrive.",
        m.redrive_queue_length.get(),
    );
    expo::write_counter_vec(
        &mut out,
        "smin_timer_expirations_total",
        "Connection deadlines fired, by timer class.",
        &[
            ("class=\"idle\"", m.timer_expirations_idle.get()),
            ("class=\"request\"", m.timer_expirations_request.get()),
            ("class=\"write\"", m.timer_expirations_write.get()),
        ],
    );
    expo::write_counter(
        &mut out,
        "smin_bytes_read_total",
        "Bytes read off connection sockets by the event loop.",
        m.bytes_read.get(),
    );
    expo::write_counter(
        &mut out,
        "smin_bytes_written_total",
        "Bytes written to connection sockets by the event loop.",
        m.bytes_written.get(),
    );

    // Session layer.
    expo::write_counter_vec(
        &mut out,
        "smin_http_requests_total",
        "Requests routed by the session layer (excludes /metrics scrapes).",
        &[
            ("route=\"healthz\"", m.requests_healthz.get()),
            ("route=\"graphs\"", m.requests_graphs.get()),
            ("route=\"select\"", m.requests_select.get()),
            ("route=\"select_batch\"", m.requests_select_batch.get()),
            ("route=\"other\"", m.requests_other.get()),
        ],
    );
    let errors: Vec<(String, u64)> = ERROR_STATUSES
        .iter()
        .zip(&m.errors)
        .map(|(status, n)| (format!("status=\"{status}\""), n.get()))
        .collect();
    expo::write_counter_vec(
        &mut out,
        "smin_http_errors_total",
        "Structured errors, by status: transport protection and 500s.",
        &borrow(&errors),
    );

    // Select pipeline stages.
    expo::write_histogram_vec(
        &mut out,
        "smin_select_stage_micros",
        "Per-request select stage durations, in microseconds.",
        &[
            ("stage=\"resolve\"", m.stage_resolve_micros.snapshot()),
            ("stage=\"checkout\"", m.stage_checkout_micros.snapshot()),
            ("stage=\"sketch\"", m.stage_sketch_micros.snapshot()),
            ("stage=\"coverage\"", m.stage_coverage_micros.snapshot()),
            ("stage=\"serialize\"", m.stage_serialize_micros.snapshot()),
        ],
    );
    // Cache: the same counters /healthz reports, read from the same source.
    let (cached, hits, misses) = {
        let cache = state.cache();
        let (h, miss) = cache.stats();
        (cache.len(), h, miss)
    };
    expo::write_gauge(
        &mut out,
        "smin_cache_entries",
        "Memoized /v1/select responses currently held.",
        u64::try_from(cached).unwrap_or(u64::MAX),
    );
    expo::write_counter_vec(
        &mut out,
        "smin_cache_lookups_total",
        "Select-cache lookups, by outcome.",
        &[("outcome=\"hit\"", hits), ("outcome=\"miss\"", misses)],
    );

    // Registry: per-graph series in BTreeMap (id-sorted) order, so the
    // label ordering is deterministic without an explicit sort.
    let entries = state.registry().list();
    let mut selects: Vec<(String, u64)> = Vec::with_capacity(entries.len());
    let mut warm: Vec<(String, u64)> = Vec::with_capacity(entries.len());
    let mut warm_bytes: Vec<(String, u64)> = Vec::with_capacity(entries.len());
    for e in &entries {
        let label = format!("graph=\"{}\"", e.id);
        selects.push((
            label.clone(),
            e.selects.load(std::sync::atomic::Ordering::Relaxed),
        ));
        warm.push((
            label.clone(),
            u64::try_from(e.warm_sessions()).unwrap_or(u64::MAX),
        ));
        warm_bytes.push((
            label,
            u64::try_from(e.warm_pool_bytes()).unwrap_or(u64::MAX),
        ));
    }
    fn borrow(v: &[(String, u64)]) -> Vec<(&str, u64)> {
        v.iter().map(|(l, n)| (l.as_str(), *n)).collect()
    }
    expo::write_counter_vec(
        &mut out,
        "smin_graph_selects_total",
        "Selects served per registered graph.",
        &borrow(&selects),
    );
    expo::write_gauge_vec(
        &mut out,
        "smin_graph_warm_sessions",
        "Warm sessions shelved per registered graph.",
        &borrow(&warm),
    );
    expo::write_gauge_vec(
        &mut out,
        "smin_graph_warm_pool_bytes",
        "Heap bytes retained by shelved sessions' coverage counts, sketch pools and coverage engines, per graph.",
        &borrow(&warm_bytes),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_exposition_and_byte_stable() {
        let state = ServiceState::new(None, 8);
        state.metrics().requests_select.add(3);
        state.metrics().stage_sketch_micros.observe(150);
        let a = render(&state);
        let b = render(&state);
        assert_eq!(a, b, "two scrapes with no traffic must be byte-identical");

        // Structural validity: every non-comment line is `name{labels} value`
        // or `name value`, and every sample name was declared by a # TYPE.
        let mut typed = std::collections::BTreeSet::new();
        for line in a.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                typed.insert(name.to_string());
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = series.split('{').next().unwrap_or(series);
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|b| typed.contains(*b))
                .unwrap_or(name);
            assert!(typed.contains(base), "undeclared sample {name}: {line}");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        assert!(a.contains("smin_http_requests_total{route=\"select\"} 3\n"));
        assert!(a.contains("smin_select_stage_micros_bucket{stage=\"sketch\",le=\"256\"} 1\n"));
    }
}
