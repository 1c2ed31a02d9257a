//! Deterministic human and JSON rendering of a lint run.
//!
//! Both formats are pure functions of the (already sorted) finding list, so
//! two runs over the same tree produce byte-identical output — pinned in CI
//! by diffing consecutive `--format json` reports.

use crate::rules::Finding;
use serde_json::{json, Value};

/// Aggregate outcome of one lint run: every finding, sorted by (path, line,
/// rule). Any finding fails `asm lint`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
}

impl Outcome {
    pub fn total(&self) -> usize {
        self.findings.len()
    }

    /// `path:line: [rule] message` lines plus a summary tail.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        let files: std::collections::BTreeSet<&str> =
            self.findings.iter().map(|f| f.path.as_str()).collect();
        out.push_str(&format!(
            "asm lint: {} finding(s) in {} file(s)\n",
            self.total(),
            files.len()
        ));
        out
    }

    /// The machine-readable report (stable key order, sorted findings, no
    /// timestamps or absolute paths — byte-identical across runs and hosts).
    pub fn json(&self) -> String {
        let findings: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                json!({
                    "rule": f.rule,
                    "path": f.path.as_str(),
                    "line": f.line,
                    "message": f.message.as_str(),
                })
            })
            .collect();
        let mut out = serde_json::to_string_pretty(&json!({
            "tool": "smin-analyze",
            "version": 2,
            "total": self.total(),
            "findings": findings,
        }));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            findings: vec![
                Finding {
                    rule: "no-wall-clock",
                    path: "a.rs".into(),
                    line: 3,
                    message: "clock".into(),
                },
                Finding {
                    rule: "checked-cast",
                    path: "b.rs".into(),
                    line: 9,
                    message: "cast".into(),
                },
            ],
        }
    }

    #[test]
    fn counts_and_human_format() {
        let o = outcome();
        assert_eq!(o.total(), 2);
        let h = o.human();
        assert!(h.contains("a.rs:3: [no-wall-clock] clock\n"));
        assert!(h.contains("b.rs:9: [checked-cast] cast\n"));
        assert!(h.contains("2 finding(s) in 2 file(s)"));
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let o = outcome();
        assert_eq!(o.json(), o.json());
        assert!(o.json().contains("\"total\": 2"));
        let empty = Outcome::default();
        assert!(empty.json().contains("\"findings\": []"));
    }

    /// A clean tree's report, byte for byte.
    #[test]
    fn zero_finding_report_bytes_are_pinned() {
        assert_eq!(
            Outcome::default().json(),
            "{\n  \"tool\": \"smin-analyze\",\n  \"version\": 2,\n  \"total\": 0,\n  \"findings\": []\n}\n"
        );
    }
}
