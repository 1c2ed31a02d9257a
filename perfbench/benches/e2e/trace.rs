//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<what>`), start and end on the process's
//! monotonic clock, a parent, and the campaign or request it belongs to.
//! Spans whose duration a layer reports itself (the sketch/coverage split
//! from `AstiSession::stage_micros`, the service's timing headers) are
//! recorded as `derived`: they carry the reported duration and sit at their
//! parent's start, because the layer does not say where inside it the time
//! fell. Nothing is written until [`Tracer::write`] at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
    pub derived: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, item: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
            derived: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// Records a span whose duration the layer reported itself.
    pub fn derived(&mut self, name: &'static str, parent: usize, dur: Duration) -> usize {
        let p = &self.spans[parent];
        let (start_ns, item) = (p.start_ns, p.item);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: Some(parent),
            item,
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Self time per span: its duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Self time summed by layer (the part of the name before the first
    /// `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, i64> {
        let own = self.self_ns();
        let mut by_layer = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0) += t;
        }
        by_layer
    }

    /// Total duration of root spans.
    pub fn root_ns(&self) -> i64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as i64)
            .sum()
    }

    /// Sum of durations of spans named `name`.
    pub fn total_ns(&self, name: &str) -> i64 {
        self.total_ns_where(name, |_| true)
    }

    /// Sum of durations of spans named `name` whose item passes `keep`.
    pub fn total_ns_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> i64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.item))
            .map(|s| s.dur_ns() as i64)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{},\"derived\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item, s.derived
            )?;
        }
        out.flush()
    }
}
