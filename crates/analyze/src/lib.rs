//! # smin-analyze
//!
//! The workspace determinism/robustness lint engine behind `asm lint`.
//!
//! The stack's headline guarantee — seed selections and `/v1/select` bodies
//! are bit-identical across thread counts and restarts — is easy to break
//! silently: one `HashMap` iteration, one wall-clock read, one `.unwrap()`
//! in the request path. This crate turns those informal invariants into a
//! machine-checked specification, in the spirit of industrial static
//! checkers: a small source-level pass that runs on every commit and fails
//! on any finding.
//!
//! Pipeline: [`lexer`] tokenizes each file (raw strings, nested comments,
//! char literals, `#[cfg(test)]` gating all handled), [`rules`] runs the
//! project-invariant checks with `// smin-lint: allow(<rule>) -- <why>`
//! escape hatches, [`workspace`] maps files to rule sets, and [`report`]
//! renders deterministic human/JSON output. The tool that gates every crate
//! builds with nothing but std and the in-repo `serde_json` shim (one
//! std-only file under `vendor/`, which the linter does not lint), through
//! which the JSON report is written.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::Outcome;
pub use rules::{count_lines, lint_source, Finding, RuleSet, RULE_IDS};
pub use workspace::line_count_line;

use std::path::Path;

/// Lints the tree at `root`.
///
/// Errors are I/O problems; findings are *data*, not errors. Callers decide
/// the exit code from [`Outcome::total`].
pub fn run(root: &Path) -> Result<Outcome, String> {
    let findings = workspace::lint_tree(root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(Outcome { findings })
}
