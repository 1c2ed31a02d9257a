//! Deterministic human and JSON rendering of a lint run.
//!
//! Both formats are pure functions of the (already sorted) finding list, so
//! two runs over the same tree produce byte-identical output — pinned in CI
//! by diffing consecutive `--format json` reports.

use crate::rules::Finding;
use serde_json::{json, Value};

/// A finding joined with its baseline status.
#[derive(Debug, Clone)]
pub struct Reported {
    pub finding: Finding,
    pub baselined: bool,
}

/// Aggregate outcome of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub reported: Vec<Reported>,
}

impl Outcome {
    pub fn total(&self) -> usize {
        self.reported.len()
    }

    pub fn new_count(&self) -> usize {
        self.reported.iter().filter(|r| !r.baselined).count()
    }

    pub fn baselined_count(&self) -> usize {
        self.reported.iter().filter(|r| r.baselined).count()
    }

    /// `path:line: [rule] message` lines plus a summary tail.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for r in &self.reported {
            let f = &r.finding;
            out.push_str(&format!(
                "{}:{}: [{}] {}{}\n",
                f.path,
                f.line,
                f.rule,
                f.message,
                if r.baselined { " (baselined)" } else { "" }
            ));
        }
        let files: std::collections::BTreeSet<&str> = self
            .reported
            .iter()
            .map(|r| r.finding.path.as_str())
            .collect();
        out.push_str(&format!(
            "asm lint: {} finding(s) ({} new, {} baselined) in {} file(s)\n",
            self.total(),
            self.new_count(),
            self.baselined_count(),
            files.len()
        ));
        out
    }

    /// The machine-readable report (stable key order, sorted findings, no
    /// timestamps or absolute paths — byte-identical across runs and hosts).
    pub fn json(&self) -> String {
        let findings: Vec<Value> = self
            .reported
            .iter()
            .map(|r| {
                json!({
                    "rule": r.finding.rule,
                    "path": r.finding.path.as_str(),
                    "line": r.finding.line,
                    "message": r.finding.message.as_str(),
                    "baselined": r.baselined,
                })
            })
            .collect();
        let mut out = serde_json::to_string_pretty(&json!({
            "tool": "smin-analyze",
            "version": 1,
            "total": self.total(),
            "new": self.new_count(),
            "baselined": self.baselined_count(),
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
            reported: vec![
                Reported {
                    finding: Finding {
                        rule: "no-wall-clock",
                        path: "a.rs".into(),
                        line: 3,
                        message: "clock".into(),
                    },
                    baselined: true,
                },
                Reported {
                    finding: Finding {
                        rule: "checked-cast",
                        path: "b.rs".into(),
                        line: 9,
                        message: "cast".into(),
                    },
                    baselined: false,
                },
            ],
        }
    }

    #[test]
    fn counts_and_human_format() {
        let o = outcome();
        assert_eq!((o.total(), o.new_count(), o.baselined_count()), (2, 1, 1));
        let h = o.human();
        assert!(h.contains("a.rs:3: [no-wall-clock] clock (baselined)"));
        assert!(h.contains("b.rs:9: [checked-cast] cast\n"));
        assert!(h.contains("2 finding(s) (1 new, 1 baselined) in 2 file(s)"));
    }

    #[test]
    fn json_is_stable_and_parseable_shape() {
        let o = outcome();
        assert_eq!(o.json(), o.json());
        assert!(o.json().contains("\"new\": 1"));
        let empty = Outcome::default();
        assert!(empty.json().contains("\"findings\": []"));
    }

    /// A clean tree's report, byte for byte.
    #[test]
    fn zero_finding_report_bytes_are_pinned() {
        assert_eq!(
            Outcome::default().json(),
            "{\n  \"tool\": \"smin-analyze\",\n  \"version\": 1,\n  \"total\": 0,\n  \"new\": 0,\n  \"baselined\": 0,\n  \"findings\": []\n}\n"
        );
    }
}
