//! `asm bench-check` — the perf-trajectory regression gate.
//!
//! Compares a current benchmark artifact (the three `BENCH_*.json` files
//! `perf` writes, or `svc_load`'s) against a committed baseline: every
//! `"median"` leaf present in the baseline must exist at the same path in
//! the current run and must not exceed `baseline · (1 + tol)`. Structure is
//! matched positionally, so both runs must sweep the same configurations —
//! the harnesses pin their sweeps for exactly this reason. Improvements are reported but never
//! fail; other leaves (`min`, `max`, counters) are informational only. So
//! is the geometric mean of current ÷ baseline over the compared medians,
//! which tells a host that is uniformly slower (every ratio near the mean)
//! from a row that regressed (one ratio far above it).

use serde_json::Value;

/// One `"median"` leaf: dotted path (array elements labeled by their
/// `"sets"` field when present) and value in the baseline / current run.
struct MedianPair {
    path: String,
    baseline: f64,
    current: Option<f64>,
}

/// Walks `baseline` and `current` in lockstep, collecting every numeric
/// `"median"` leaf of the baseline together with the value at the same
/// path in the current run (`None` when the path is missing or non-numeric
/// there — a structural regression).
fn collect(path: &str, baseline: &Value, current: Option<&Value>, out: &mut Vec<MedianPair>) {
    match baseline {
        Value::Object(fields) => {
            for (key, bval) in fields {
                let cval = match current {
                    Some(Value::Object(cfields)) => {
                        cfields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                    }
                    _ => None,
                };
                if key == "median" {
                    if let Value::Number(b) = bval {
                        out.push(MedianPair {
                            path: path.to_string(),
                            baseline: *b,
                            current: match cval {
                                Some(Value::Number(c)) => Some(*c),
                                _ => None,
                            },
                        });
                        continue;
                    }
                }
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                collect(&child, bval, cval, out);
            }
        }
        Value::Array(items) => {
            for (i, bval) in items.iter().enumerate() {
                let label = match bval {
                    Value::Object(fields) => {
                        fields
                            .iter()
                            .find(|(k, _)| k == "sets")
                            .and_then(|(_, v)| match v {
                                Value::Number(n) => Some(format!("{path}[sets={n}]")),
                                _ => None,
                            })
                    }
                    _ => None,
                };
                let child = label.unwrap_or_else(|| format!("{path}[{i}]"));
                let cval = match current {
                    Some(Value::Array(citems)) => citems.get(i),
                    _ => None,
                };
                collect(&child, bval, cval, out);
            }
        }
        _ => {}
    }
}

/// Outcome of one baseline/current comparison.
pub struct CheckReport {
    /// Human-readable per-median lines.
    pub lines: Vec<String>,
    /// Regressions: paths whose current median exceeds tolerance (or is
    /// missing entirely).
    pub failures: Vec<String>,
    /// Medians compared.
    pub checked: usize,
    /// Geometric mean of current ÷ baseline over the medians positive in
    /// both runs, and how many those are; `None` when there are none.
    pub geomean: Option<(f64, usize)>,
}

/// Compares every baseline `"median"` leaf against the current run.
/// `tol` is fractional headroom: `0.25` fails only when a current median
/// exceeds its baseline by more than 25 %.
pub fn compare(baseline: &Value, current: &Value, tol: f64) -> CheckReport {
    let mut pairs = Vec::new();
    collect("", baseline, Some(current), &mut pairs);
    let mut report = CheckReport {
        lines: Vec::new(),
        failures: Vec::new(),
        checked: pairs.len(),
        geomean: None,
    };
    let (mut ln_sum, mut positive) = (0.0, 0);
    for p in &pairs {
        match p.current {
            None => {
                report
                    .lines
                    .push(format!("  {}: {:.3} -> MISSING", p.path, p.baseline));
                report
                    .failures
                    .push(format!("{}: missing from current run", p.path));
            }
            Some(c) => {
                // A zero baseline carries no resolvable signal; only a
                // strictly positive current median can regress against it.
                let limit = p.baseline * (1.0 + tol);
                let ratio = if p.baseline > 0.0 {
                    c / p.baseline
                } else {
                    1.0
                };
                if p.baseline > 0.0 && c > 0.0 {
                    ln_sum += ratio.ln();
                    positive += 1;
                }
                let ok = c <= limit || (p.baseline == 0.0 && c == 0.0);
                report.lines.push(format!(
                    "  {}: {:.3} -> {:.3}  (x{:.2}{})",
                    p.path,
                    p.baseline,
                    c,
                    ratio,
                    if ok { "" } else { "  REGRESSION" },
                ));
                if !ok {
                    report.failures.push(format!(
                        "{}: {:.3} -> {:.3} exceeds tolerance {:.0}%",
                        p.path,
                        p.baseline,
                        c,
                        tol * 100.0
                    ));
                }
            }
        }
    }
    report.geomean = (positive > 0).then(|| ((ln_sum / positive as f64).exp(), positive));
    report
}

/// `asm bench-check --baseline FILE --current FILE [--tol F]`
pub fn bench_check(args: &[String]) -> Result<(), String> {
    let f = crate::flags::Flags::parse(args, &["baseline", "current", "tol"])?;
    let baseline_path = f.require("baseline")?;
    let current_path = f.require("current")?;
    let tol: f64 = f.get_or("tol", 0.25)?;
    if !(0.0..=100.0).contains(&tol) {
        return Err(format!("--tol {tol}: expected a fraction >= 0"));
    }

    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let baseline = read(baseline_path)?;
    let current = read(current_path)?;

    let report = compare(&baseline, &current, tol);
    out!(
        "bench-check {baseline_path} vs {current_path} (tol {:.0}%)",
        tol * 100.0
    );
    for line in &report.lines {
        out!("{line}");
    }
    if let Some((mean, k)) = report.geomean {
        out!("geomean current/baseline: x{mean:.3} over {k} median(s)");
    }
    if report.checked == 0 {
        return Err(format!("{baseline_path}: no \"median\" leaves to compare"));
    }
    if report.failures.is_empty() {
        out!("ok: {} median(s) within tolerance", report.checked);
        Ok(())
    } else {
        Err(format!(
            "{} of {} median(s) regressed:\n  {}",
            report.failures.len(),
            report.checked,
            report.failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        serde_json::from_str(s).expect("valid test JSON")
    }

    #[test]
    fn within_tolerance_passes() {
        let base = v(r#"{"pools": [{"sets": 1024, "t": {"median": 100.0, "min": 90.0}}]}"#);
        let cur = v(r#"{"pools": [{"sets": 1024, "t": {"median": 110.0, "min": 80.0}}]}"#);
        let r = compare(&base, &cur, 0.25);
        assert_eq!(r.checked, 1);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = v(r#"{"t": {"median": 100.0}}"#);
        let cur = v(r#"{"t": {"median": 126.0}}"#);
        let r = compare(&base, &cur, 0.25);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("t:"), "{}", r.failures[0]);
    }

    #[test]
    fn missing_median_fails_structurally() {
        let base = v(r#"{"pools": [{"a": {"median": 1.0}}, {"b": {"median": 2.0}}]}"#);
        let cur = v(r#"{"pools": [{"a": {"median": 1.0}}]}"#);
        let r = compare(&base, &cur, 0.25);
        assert_eq!(r.checked, 2);
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("missing"));
    }

    #[test]
    fn extra_current_medians_are_ignored() {
        // Only the baseline's leaves gate: a current run may add metrics.
        let base = v(r#"{"a": {"median": 1.0}}"#);
        let cur = v(r#"{"a": {"median": 1.0}, "b": {"median": 999.0}}"#);
        let r = compare(&base, &cur, 0.0);
        assert_eq!(r.checked, 1);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn pool_rows_labeled_by_sets() {
        let base = v(r#"{"pools": [{"sets": 4096, "t": {"median": 1.0}}]}"#);
        let cur = v(r#"{"pools": [{"sets": 4096, "t": {"median": 5.0}}]}"#);
        let r = compare(&base, &cur, 0.25);
        assert!(
            r.failures[0].contains("pools[sets=4096].t"),
            "{}",
            r.failures[0]
        );
    }

    #[test]
    fn geomean_of_ratios_over_two_rows() {
        // x2 and x8 average to x4; the zero-baseline leaf has no ratio.
        let base = v(
            r#"{"rows": [{"t": {"median": 100.0}}, {"t": {"median": 50.0}}, {"z": {"median": 0.0}}]}"#,
        );
        let cur = v(
            r#"{"rows": [{"t": {"median": 200.0}}, {"t": {"median": 400.0}}, {"z": {"median": 0.0}}]}"#,
        );
        let r = compare(&base, &cur, 0.25);
        let (mean, k) = r.geomean.expect("two positive pairs");
        assert_eq!(k, 2);
        assert!((mean - 4.0).abs() < 1e-12, "{mean}");
        assert_eq!(r.failures.len(), 2, "the gate does not read the mean");
        assert_eq!(compare(&v("{}"), &v("{}"), 0.25).geomean, None);
    }

    #[test]
    fn improvements_never_fail_at_zero_tol() {
        let base = v(r#"{"t": {"median": 100.0}}"#);
        let cur = v(r#"{"t": {"median": 50.0}}"#);
        let r = compare(&base, &cur, 0.0);
        assert!(r.failures.is_empty());
    }
}
