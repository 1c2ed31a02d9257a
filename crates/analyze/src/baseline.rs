//! The violation baseline: grandfathered findings that do not fail CI.
//!
//! `lint-baseline.json` is committed at the workspace root. A finding whose
//! `(rule, path, line)` triple appears in the baseline is reported but does
//! not affect the exit code — so the gate only trips on *new* violations,
//! while the grandfathered list shrinks monotonically as debt is paid down.
//! `asm lint --write-baseline` regenerates the file (sorted, stable bytes).
//!
//! The file is ordinary JSON, written and read through `serde_json`. The
//! reader is strict: a wrong version, an unknown key, a missing field or a
//! value of the wrong type is an error, never a guess.

use crate::rules::Finding;
use serde_json::{json, Value};

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    pub rule: String,
    pub path: String,
    pub line: u32,
}

/// Serializes `findings` as the canonical baseline document: sorted entries,
/// two-space indent, trailing newline — byte-stable for a given finding set.
pub fn write(findings: &[Finding]) -> String {
    let mut entries: Vec<BaselineEntry> = findings
        .iter()
        .map(|f| BaselineEntry {
            rule: f.rule.to_string(),
            path: f.path.clone(),
            line: f.line,
        })
        .collect();
    entries.sort();
    entries.dedup();
    let findings: Vec<Value> = entries
        .into_iter()
        .map(|e| json!({"rule": e.rule, "path": e.path, "line": e.line}))
        .collect();
    let mut out = serde_json::to_string_pretty(&json!({"version": 1, "findings": findings}));
    out.push('\n');
    out
}

/// Parses a baseline document. Returns entries in file order.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("baseline: {e}"))?;
    let mut entries = Vec::new();
    for (key, value) in object(&doc)? {
        match (key.as_str(), value) {
            ("version", Value::Number(v)) if *v == 1.0 => {}
            ("version", v) => return Err(format!("unsupported baseline version {v:?}")),
            ("findings", Value::Array(items)) => {
                for item in items {
                    entries.push(entry(item)?);
                }
            }
            (key, value) => return Err(format!("unexpected baseline field {key:?}: {value:?}")),
        }
    }
    Ok(entries)
}

fn object(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Object(fields) => Ok(fields),
        other => Err(format!("baseline: expected an object, found {other:?}")),
    }
}

/// One `{"rule": …, "path": …, "line": …}` object, keys in any order.
fn entry(v: &Value) -> Result<BaselineEntry, String> {
    let (mut rule, mut path, mut line) = (None, None, None);
    for (key, value) in object(v)? {
        match (key.as_str(), value) {
            ("rule", Value::String(s)) => rule = Some(s.clone()),
            ("path", Value::String(s)) => path = Some(s.clone()),
            ("line", Value::Number(x)) if f64::from(*x as u32) == *x => line = Some(*x as u32),
            (key, value) => {
                return Err(format!(
                    "unexpected baseline entry field {key:?}: {value:?}"
                ))
            }
        }
    }
    match (rule, path, line) {
        (Some(rule), Some(path), Some(line)) => Ok(BaselineEntry { rule, path, line }),
        _ => Err("baseline entry needs rule, path, and line".into()),
    }
}

/// Is `f` covered by `entries`?
pub fn contains(entries: &[BaselineEntry], f: &Finding) -> bool {
    entries
        .iter()
        .any(|e| e.rule == f.rule && e.path == f.path && e.line == f.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn write_parse_roundtrip() {
        let fs = vec![
            finding("no-wall-clock", "crates/core/src/asti.rs", 147),
            finding("checked-cast", "crates/graph/src/ops.rs", 36),
        ];
        let text = write(&fs);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(contains(&parsed, &fs[0]));
        assert!(contains(&parsed, &fs[1]));
        assert!(!contains(&parsed, &finding("no-wall-clock", "x.rs", 1)));
    }

    #[test]
    fn empty_baseline_roundtrip() {
        let text = write(&[]);
        assert_eq!(parse(&text).unwrap(), Vec::new());
    }

    #[test]
    fn writer_is_byte_stable_and_sorted() {
        let a = vec![finding("b-rule", "b.rs", 2), finding("a-rule", "a.rs", 9)];
        let b = vec![finding("a-rule", "a.rs", 9), finding("b-rule", "b.rs", 2)];
        assert_eq!(write(&a), write(&b));
        let text = write(&a);
        assert!(text.find("a.rs").unwrap() < text.find("b.rs").unwrap());
    }

    #[test]
    fn escapes_roundtrip() {
        let fs = vec![finding("safety-comment", "weird \"dir\"/a\\b.rs", 3)];
        let parsed = parse(&write(&fs)).unwrap();
        assert_eq!(parsed[0].path, "weird \"dir\"/a\\b.rs");
    }

    /// The empty baseline's bytes, as committed in `lint-baseline.json`.
    #[test]
    fn empty_baseline_bytes_are_pinned() {
        assert_eq!(write(&[]), "{\n  \"version\": 1,\n  \"findings\": []\n}\n");
    }

    #[test]
    fn garbage_errors_loudly() {
        for bad in [
            "not json",
            "[]",
            "{\"version\": 2, \"findings\": []}",
            "{\"version\": \"1\", \"findings\": []}",
            "{\"findings\": [{\"rule\": \"r\"}]}",
            "{\"findings\": {}}",
            "{\"findings\": [{\"rule\": \"r\", \"path\": \"p\", \"line\": 1.5}]}",
            "{\"findings\": [{\"rule\": \"r\", \"path\": \"p\", \"line\": -1}]}",
            "{\"findings\": [{\"rule\": 1, \"path\": \"p\", \"line\": 1}]}",
            "{\"findings\": [{\"rule\": \"r\", \"path\": \"p\", \"line\": 1, \"x\": 0}]}",
            "{\"version\": 1, \"findings\": [], \"extra\": 0}",
            "{\"version\": 1, \"findings\": []} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
