//! End-to-end benchmark of the seedmin stack.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench e2e -- \
//!     --workload campaign-ic --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! * `campaign-ic` — ASTI/TRIM campaigns, IC, one sketch thread, in process;
//! * `campaign-lt-b8` — ASTI-8/TRIM-B campaigns, LT, one sketch thread;
//! * `svc-mixed` — the service on loopback: cache hits, computed selects and
//!   select batches from two closed-loop keep-alive clients.
//!
//! Every input is the benchmark's own and fixed; `--seed` sets the order the
//! list of work runs in. `--seconds` sizes that list (a fixed number of
//! items per second, never a clock-driven stop). Every reported time is
//! scaled to the speed of a fixed reference kernel run between the items
//! (`hostspeed.rs`), so a drift in the host's speed cancels. With
//! `--trace 0` the last stdout line holds the end-to-end metrics; with
//! `--trace 1` a separate traced run prints the per-layer metrics and writes
//! its spans to `work/spans-<workload>.jsonl`. Any failed output check makes
//! `correct` false and the exit code 1.

mod campaign;
mod hostspeed;
mod inputs;
mod service;
mod trace;

use std::fmt::Write as _;
use std::time::Duration;

/// The traced run fails when the time no layer claims (the benchmark's own
/// self time around its calls) exceeds this share of the end-to-end total,
/// or when a layer's self time is negative by more than this share (its
/// children claim more time than it took).
pub const RESIDUAL_BOUND: f64 = 0.05;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            // `cargo bench` appends `--bench` to the arguments it forwards.
            "--bench" => {}
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload hands back: its metrics and its operation accounting.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable failures (each also counts in `failed` or fails the
    /// run outright).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resident set (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Closes a traced run: prints each layer's self time, reports the share
/// no layer claims (the benchmark's own time around its calls), fails the
/// run if that share or any layer's negative self time exceeds
/// [`RESIDUAL_BOUND`], and writes the spans.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: &trace::Tracer,
    workload: &str,
    items: usize,
    item: &str,
) -> Result<(), String> {
    let layers = tracer.layer_self_ns();
    let total = tracer.root_ns() as f64;
    let residual = layers.get("bench").copied().unwrap_or(0) as f64 / total;
    out.push("trace.residual_frac", residual, "frac", tracer.spans.len());
    for (layer, ns) in &layers {
        let share = *ns as f64 / total;
        println!(
            "self {layer:<10} {:>10.4} ms/{item} {:>7.2}%",
            *ns as f64 / 1e6 / items.max(1) as f64,
            100.0 * share
        );
        if share < -RESIDUAL_BOUND {
            out.errors.push(format!(
                "layer {layer} self time is {share:.4} of the total"
            ));
        }
    }
    if residual.abs() > RESIDUAL_BOUND {
        out.errors.push(format!(
            "trace residual {residual:.4} exceeds {RESIDUAL_BOUND}"
        ));
    }
    tracer
        .write(std::path::Path::new(&format!(
            "work/spans-{workload}.jsonl"
        )))
        .map_err(|e| format!("writing spans: {e}"))
}

fn render(outcome: &Outcome, correct: bool) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // A non-finite value already fails the run; keep the line valid JSON.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign-ic" | "campaign-lt-b8" => campaign::run(&args),
        "svc-mixed" => service::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (campaign-ic | campaign-lt-b8 | svc-mixed)"
        )),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let mut correct = outcome.failed == 0 && outcome.errors.is_empty();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("metric {} is not finite", m.name);
            correct = false;
        }
        println!(
            "{:<28} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "sent {} succeeded {} failed {}",
        outcome.attempted,
        outcome.attempted.saturating_sub(outcome.failed),
        outcome.failed
    );
    println!("{}", render(&outcome, correct));
    if !correct {
        std::process::exit(1);
    }
}
