//! Std-only observability primitives for the seedmin service stack.
//!
//! Three metric kinds, all lock-free over `AtomicU64`:
//!
//! * [`Counter`] — monotonically non-decreasing event count.
//! * [`Gauge`] — a sampled instantaneous value (queue depth, occupancy).
//! * [`Histogram`] — log-bucketed distribution with **fixed power-of-two
//!   bucket bounds** (`1, 2, 4, …, 2^29` microseconds, then `+Inf`). The
//!   bounds never depend on the data, so the exposition text is a pure
//!   function of the observed samples: two scrapes with no intervening
//!   traffic are byte-identical.
//!
//! Timing is captured with [`Span`] (accumulates elapsed microseconds into
//! a caller-owned `u64` slot — no allocation, no shared state on the hot
//! path) or [`Histogram::start_span`] (observes straight into a histogram).
//! Wall-clock reads live *here*, behind these two types, so instrumented
//! crates carry no `Instant::now` of their own: the lint workspace grants
//! the timing exemption to this crate once instead of to every call site.
//! Durations are observability output only — they go to `/metrics`, trace
//! logs, and `X-*-Micros` response headers, never into a response body, so
//! the stack's determinism contract is untouched.
//!
//! [`expo`] renders metrics in the Prometheus text exposition format
//! (version 0.0.4): `# HELP` / `# TYPE` headers followed by samples, with
//! histograms expanded into cumulative `_bucket{le="…"}` series plus
//! `_sum` / `_count`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of finite histogram bucket bounds (`2^0 … 2^29`).
pub const FINITE_BUCKETS: usize = 30;

/// Total bucket slots: the finite bounds plus the `+Inf` overflow bucket.
pub const BUCKET_SLOTS: usize = FINITE_BUCKETS + 1;

/// A monotonically non-decreasing event counter.
///
/// All operations are `Relaxed`: a counter is a metric, not a lock, and
/// each cell is individually monotonic under any ordering.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sampled instantaneous value (last write wins).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Records the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Most recently recorded value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index for `value`: the smallest `i` with `value <= 2^i`, clamped
/// to the `+Inf` slot ([`FINITE_BUCKETS`]) past the last finite bound.
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    // Smallest power-of-two exponent covering `value`: bit length of
    // `value - 1`. Fits in usize trivially (<= 64).
    let bits = 64 - (value - 1).leading_zeros();
    usize::try_from(bits)
        .unwrap_or(FINITE_BUCKETS)
        .min(FINITE_BUCKETS)
}

/// Upper bound of bucket `index`, or `None` for the `+Inf` slot.
pub fn bucket_bound(index: usize) -> Option<u64> {
    (index < FINITE_BUCKETS).then(|| 1u64 << index)
}

/// Log-bucketed histogram over fixed power-of-two bounds.
///
/// Buckets store **per-bucket** (non-cumulative) counts; [`expo`] renders
/// the cumulative `le` form.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_SLOTS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed; see [`Counter`]).
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Times a region and observes its duration in microseconds on drop.
    pub fn start_span(&self) -> HistSpan<'_> {
        HistSpan {
            hist: self,
            started: Instant::now(),
        }
    }

    /// A point-in-time copy. Concurrent observers may land between field
    /// loads, so `count` can momentarily disagree with the bucket total —
    /// fine for metrics, which is all this is.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts.
    pub buckets: [u64; BUCKET_SLOTS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKET_SLOTS],
            sum: 0,
            count: 0,
        }
    }
}

/// Accumulates elapsed wall time, in microseconds, into a caller-owned
/// slot when dropped. The slot is a plain `u64` — per-request stage
/// accumulators stay on the stack (or in per-session scratch) and only
/// touch shared atomics once, when the owner folds them into a
/// [`Histogram`].
pub struct Span<'a> {
    slot: &'a mut u64,
    started: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing into `slot`.
    pub fn enter(slot: &'a mut u64) -> Span<'a> {
        Span {
            slot,
            started: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        *self.slot = self.slot.saturating_add(elapsed_micros(self.started));
    }
}

/// Observes the elapsed time of a region into a [`Histogram`] on drop.
pub struct HistSpan<'a> {
    hist: &'a Histogram,
    started: Instant,
}

impl Drop for HistSpan<'_> {
    fn drop(&mut self) {
        self.hist.observe(elapsed_micros(self.started));
    }
}

/// Microseconds since `started`, saturating at `u64::MAX`.
pub fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

pub mod expo {
    //! Prometheus text exposition (format version 0.0.4).
    //!
    //! Every writer appends `# HELP` / `# TYPE` lines followed by samples.
    //! `*_vec` variants take pre-rendered label bodies (e.g.
    //! `route="select"`); callers are responsible for passing them in a
    //! fixed order so the output is byte-stable across scrapes.

    use super::{bucket_bound, HistogramSnapshot, BUCKET_SLOTS};
    use std::fmt::Write;

    /// The HTTP `Content-Type` for this exposition format.
    pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

    fn header(out: &mut String, name: &str, help: &str, kind: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }

    /// One unlabeled counter.
    pub fn write_counter(out: &mut String, name: &str, help: &str, value: u64) {
        header(out, name, help, "counter");
        let _ = writeln!(out, "{name} {value}");
    }

    /// A counter family with one sample per label body.
    pub fn write_counter_vec(out: &mut String, name: &str, help: &str, samples: &[(&str, u64)]) {
        header(out, name, help, "counter");
        for (labels, value) in samples {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }

    /// One unlabeled gauge.
    pub fn write_gauge(out: &mut String, name: &str, help: &str, value: u64) {
        header(out, name, help, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }

    /// A gauge family with one sample per label body.
    pub fn write_gauge_vec(out: &mut String, name: &str, help: &str, samples: &[(&str, u64)]) {
        header(out, name, help, "gauge");
        for (labels, value) in samples {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }

    /// One unlabeled histogram: cumulative `_bucket{le=…}` series, then
    /// `_sum` and `_count`.
    pub fn write_histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
        header(out, name, help, "histogram");
        series(out, name, "", snap);
    }

    /// A histogram family with one series per label body.
    pub fn write_histogram_vec(
        out: &mut String,
        name: &str,
        help: &str,
        samples: &[(&str, HistogramSnapshot)],
    ) {
        header(out, name, help, "histogram");
        for (labels, snap) in samples {
            series(out, name, labels, snap);
        }
    }

    fn series(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, count) in snap.buckets.iter().enumerate().take(BUCKET_SLOTS) {
            cumulative += count;
            match bucket_bound(i) {
                Some(bound) => {
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
                    );
                }
            }
        }
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", snap.sum);
            let _ = writeln!(out, "{name}_count {}", snap.count);
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum);
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", snap.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        // The bound of bucket i is 2^i; value v lands in the smallest
        // bucket whose bound covers it.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 29), 29);
        assert_eq!(bucket_index((1 << 29) + 1), FINITE_BUCKETS); // +Inf
        assert_eq!(bucket_index(u64::MAX), FINITE_BUCKETS);
        for i in 0..FINITE_BUCKETS {
            let bound = bucket_bound(i).unwrap();
            assert_eq!(bucket_index(bound), i, "bound {bound} is inclusive");
            assert_eq!(bucket_index(bound + 1), (i + 1).min(FINITE_BUCKETS));
        }
        assert_eq!(bucket_bound(FINITE_BUCKETS), None);
    }

    #[test]
    fn histogram_observes_into_fixed_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1 << 29, (1 << 29) + 1] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1 + 2 + 3 + (1u64 << 29) + (1u64 << 29) + 1);
        assert_eq!(s.buckets[0], 1); // 1
        assert_eq!(s.buckets[1], 1); // 2
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[29], 1); // 2^29
        assert_eq!(s.buckets[FINITE_BUCKETS], 1); // +Inf
    }

    #[test]
    fn counter_is_monotonic_under_concurrent_increments() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
            // Reader thread: every sample must be >= the previous one.
            scope.spawn(|| {
                let mut last = 0;
                for _ in 0..1_000 {
                    let now = c.get();
                    assert!(now >= last, "counter went backwards: {last} -> {now}");
                    last = now;
                }
            });
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(42);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn span_accumulates_into_its_slot() {
        let mut slot = 0u64;
        {
            let _span = Span::enter(&mut slot);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(slot >= 1_000, "2ms sleep recorded {slot}us");
        let first = slot;
        {
            let _span = Span::enter(&mut slot);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(slot > first, "second span must accumulate, not overwrite");
    }

    #[test]
    fn hist_span_observes_elapsed_time() {
        let h = Histogram::new();
        {
            let _span = h.start_span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 500, "1ms sleep recorded {}us", s.sum);
    }

    #[test]
    fn exposition_is_deterministic_and_cumulative() {
        let h = Histogram::new();
        for v in [1u64, 2, 2, 5] {
            h.observe(v);
        }
        let mut out = String::new();
        expo::write_histogram(&mut out, "t_micros", "test histogram", &h.snapshot());
        assert!(out.starts_with("# HELP t_micros test histogram\n# TYPE t_micros histogram\n"));
        assert!(out.contains("t_micros_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("t_micros_bucket{le=\"2\"} 3\n"));
        assert!(out.contains("t_micros_bucket{le=\"4\"} 3\n"));
        assert!(out.contains("t_micros_bucket{le=\"8\"} 4\n"));
        assert!(out.contains("t_micros_bucket{le=\"+Inf\"} 4\n"));
        assert!(out.ends_with("t_micros_sum 10\nt_micros_count 4\n"));
        // Same samples, same bytes: render twice and compare.
        let mut again = String::new();
        expo::write_histogram(&mut again, "t_micros", "test histogram", &h.snapshot());
        assert_eq!(out, again);
    }

    #[test]
    fn labeled_families_render_one_series_per_label() {
        let mut out = String::new();
        expo::write_counter_vec(
            &mut out,
            "req_total",
            "requests",
            &[("route=\"a\"", 3), ("route=\"b\"", 5)],
        );
        assert_eq!(
            out,
            "# HELP req_total requests\n# TYPE req_total counter\n\
             req_total{route=\"a\"} 3\nreq_total{route=\"b\"} 5\n"
        );
        let h = Histogram::new();
        h.observe(1);
        let mut hv = String::new();
        expo::write_histogram_vec(
            &mut hv,
            "stage_micros",
            "stage timings",
            &[("stage=\"sketch\"", h.snapshot())],
        );
        assert!(hv.contains("stage_micros_bucket{stage=\"sketch\",le=\"1\"} 1\n"));
        assert!(hv.contains("stage_micros_count{stage=\"sketch\"} 1\n"));
    }
}
