//! Structured request tracing: one JSON line per response.
//!
//! `asm serve --trace-log <path>` opens a [`TraceLog`]; `routes::finish`,
//! which every response goes through, the event loop's own included, then
//! emits one [`TraceEvent`] per response. Lines are
//! built on the emitting thread but written by a dedicated log thread that
//! owns the file behind a buffered writer — request threads only push onto
//! an unbounded channel, so tracing never blocks the request path on disk
//! I/O. The writer flushes whenever its channel drains, so the file is
//! current whenever the service is idle, without a syscall per line.
//!
//! Line schema (stable field order):
//!
//! ```json
//! {"method":"POST","path":"/v1/select","status":200,
//!  "micros":{"resolve":12,"checkout":3,"sketch":4100,"coverage":890,"serialize":45},
//!  "work":{"rounds":7,"sets":10618,"checks":41,"edges":2621000},
//!  "cache":"MISS","deadline_remaining_ms":238}
//! ```
//!
//! `micros` is `null` for non-select routes and for the responses the
//! event loop gives itself (400/408/429/500/504). `work` sums the
//! algorithm work of the request's computed items ([`WorkTotals`]); it is
//! `null` wherever `micros` is, and when the cache answered every item.
//! It is deterministic: the same request computes the same work. `cache` is
//! `null` when no cache decision was made; `deadline_remaining_ms` is `null`
//! only when the request had no valid `X-Deadline-Millis` budget. `method`/
//! `path` are `null` for failures with no parsed request (malformed HTTP,
//! 408s fired by a connection's request deadline). Timing appears only here
//! and in response headers — never in a response body — so the determinism
//! contract holds.

use serde_json::Value;
use smin_core::AstiReport;
use std::io::Write;
use std::path::Path;
use std::sync::mpsc;

/// Stage durations of one select request, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMicrosLine {
    /// Request parse + graph resolution.
    pub resolve: u64,
    /// Warm-session checkout.
    pub checkout: u64,
    /// Sketch-pool growth, summed over rounds.
    pub sketch: u64,
    /// Coverage argmax/greedy, summed over rounds.
    pub coverage: u64,
    /// Response-body serialization.
    pub serialize: u64,
}

/// Algorithm work of a select request's computed runs, summed over their
/// rounds: what explains a run's cost beside its timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkTotals {
    /// Adaptive rounds.
    pub rounds: u64,
    /// mRR sets sampled: the body's `total_sets`.
    pub sets: u64,
    /// TRIM / TRIM-B certificate checks.
    pub checks: u64,
    /// Edges examined while sampling (what counts is in
    /// `smin_sampling::rr`'s module docs).
    pub edges: u64,
}

impl WorkTotals {
    /// Adds one run's rounds and their TRIM statistics.
    pub(crate) fn add(&mut self, report: &AstiReport) {
        let wide = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        self.rounds += wide(report.num_rounds());
        self.sets += wide(report.total_sets);
        for stats in report.rounds.iter().filter_map(|r| r.trim) {
            self.checks += wide(stats.iterations);
            self.edges += wide(stats.edges_examined);
        }
    }
}

/// The trace fields a select request adds to its line.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SelectTrace {
    /// Stage timings.
    pub micros: StageMicrosLine,
    /// Work of the computed items; `None` when the cache answered them all.
    pub work: Option<WorkTotals>,
}

/// One request's trace fields; `None`s render as JSON `null`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceEvent<'a> {
    /// Request method, when a request was parsed.
    pub method: Option<&'a str>,
    /// Request path, when a request was parsed.
    pub path: Option<&'a str>,
    /// Response status.
    pub status: u16,
    /// Select stage timings; `None` off the select pipeline.
    pub micros: Option<StageMicrosLine>,
    /// Work of the computed select items; `None` off the select pipeline
    /// and for cache hits.
    pub work: Option<WorkTotals>,
    /// `HIT` / `MISS` / `BYPASS` / `MIXED`, when a cache decision was made.
    pub cache: Option<&'a str>,
    /// `X-Deadline-Millis` minus the time already spent (dispatch-queue
    /// wait included), floored at zero; `None` when the request had no
    /// valid budget.
    pub deadline_remaining_ms: Option<u64>,
}

impl TraceEvent<'_> {
    fn to_value(self) -> Value {
        let micros = match self.micros {
            Some(m) => serde_json::json!({
                "resolve": m.resolve,
                "checkout": m.checkout,
                "sketch": m.sketch,
                "coverage": m.coverage,
                "serialize": m.serialize,
            }),
            None => Value::Null,
        };
        let work = match self.work {
            Some(w) => serde_json::json!({
                "rounds": w.rounds,
                "sets": w.sets,
                "checks": w.checks,
                "edges": w.edges,
            }),
            None => Value::Null,
        };
        Value::Object(vec![
            ("method".to_string(), Value::from(self.method)),
            ("path".to_string(), Value::from(self.path)),
            ("status".to_string(), Value::from(self.status)),
            ("micros".to_string(), micros),
            ("work".to_string(), work),
            ("cache".to_string(), Value::from(self.cache)),
            (
                "deadline_remaining_ms".to_string(),
                Value::from(self.deadline_remaining_ms),
            ),
        ])
    }
}

/// Cloneable sender half of the trace pipeline. Dropping every clone closes
/// the channel; the log thread flushes and exits.
#[derive(Clone)]
pub struct TraceLog {
    tx: mpsc::Sender<String>,
}

impl TraceLog {
    /// Creates (truncating) the log file and starts the writer thread.
    pub fn open(path: &Path) -> std::io::Result<TraceLog> {
        let file = std::fs::File::create(path)?;
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::Builder::new()
            .name("smin-trace-log".to_string())
            .spawn(move || run_writer(&rx, file))?;
        Ok(TraceLog { tx })
    }

    /// Queues one trace line. Never blocks on I/O; a closed channel (writer
    /// thread gone) drops the line silently — tracing must not take down a
    /// request.
    pub fn emit(&self, event: &TraceEvent<'_>) {
        let _ = self.tx.send(serde_json::to_string(&event.to_value()));
    }
}

/// The log thread: drain-then-flush so bursts amortize into one buffered
/// write and the file is byte-complete whenever the channel is empty.
fn run_writer(rx: &mpsc::Receiver<String>, file: std::fs::File) {
    let mut w = std::io::BufWriter::new(file);
    while let Ok(line) = rx.recv() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        while let Ok(line) = rx.try_recv() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
        let _ = w.flush();
    }
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_land_in_the_file_with_the_pinned_schema() {
        let path = std::env::temp_dir().join("smin_trace_log_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = TraceLog::open(&path).unwrap();
        log.emit(&TraceEvent {
            method: Some("POST"),
            path: Some("/v1/select"),
            status: 200,
            micros: Some(StageMicrosLine {
                resolve: 12,
                checkout: 3,
                sketch: 4100,
                coverage: 890,
                serialize: 45,
            }),
            work: Some(WorkTotals {
                rounds: 7,
                sets: 10618,
                checks: 41,
                edges: 2621000,
            }),
            cache: Some("MISS"),
            deadline_remaining_ms: Some(238),
        });
        log.emit(&TraceEvent {
            status: 408,
            ..TraceEvent::default()
        });
        drop(log); // closes the channel; the writer flushes and exits
        let text = wait_for_lines(&path, 2);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"method":"POST","path":"/v1/select","status":200,"micros":{"resolve":12,"checkout":3,"sketch":4100,"coverage":890,"serialize":45},"work":{"rounds":7,"sets":10618,"checks":41,"edges":2621000},"cache":"MISS","deadline_remaining_ms":238}"#
        );
        assert_eq!(
            lines.next().unwrap(),
            r#"{"method":null,"path":null,"status":408,"micros":null,"work":null,"cache":null,"deadline_remaining_ms":null}"#
        );
        std::fs::remove_file(&path).ok();
    }

    /// The writer thread races the assertion; poll briefly for the flush.
    fn wait_for_lines(path: &Path, n: usize) -> String {
        for _ in 0..200 {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            if text.lines().count() >= n {
                return text;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        std::fs::read_to_string(path).unwrap_or_default()
    }
}
