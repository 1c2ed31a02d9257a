//! Workspace walking and per-file rule assignment.
//!
//! The mapping below *is* the project's determinism specification: which
//! crates promise bit-identical output (and therefore may not hash-iterate,
//! read clocks, or draw ambient entropy), and which modules form the service
//! request path (and therefore may not panic). Fixture trees and other
//! unknown layouts get every rule — strict by default.

use crate::rules::{count_lines, lint_source, Finding, RuleSet};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose outputs are pinned bit-identical across thread counts and
/// restarts (PRs 2, 4, 5). `crates/graph` is included: generators feed the
/// deterministic pipeline even though the crate itself holds no RNG state.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/graph/",
    "crates/diffusion/",
    "crates/sampling/",
    "crates/core/",
    "crates/service/",
];

/// `smin-service` modules a request flows through; a panic here kills a
/// worker thread mid-connection — or, worse, the epoll poll thread that
/// owns every connection — so only structured errors are allowed. The
/// no-wall-clock rule also applies: the event loop keeps time exclusively
/// through its monotonic epoch (one justified in-source allow).
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/service/src/http.rs",
    "crates/service/src/routes.rs",
    "crates/service/src/json.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/registry.rs",
    "crates/service/src/error.rs",
    "crates/service/src/server.rs",
    "crates/service/src/event_loop.rs",
    "crates/service/src/platform.rs",
    "crates/service/src/metrics.rs",
    "crates/service/src/trace.rs",
];

/// Files allowed to perform the narrowing the `checked-cast` rule forbids —
/// the checked helpers themselves.
const CHECKED_CAST_HELPERS: &[&str] = &["crates/graph/src/cast.rs"];

/// Decides which rules apply to `rel` (workspace-root-relative, `/`-separated).
/// `None` means the file is out of scope entirely.
pub fn rules_for(rel: &str) -> Option<RuleSet> {
    // Generated/vendored/third-party trees are not ours to lint.
    if rel.starts_with("vendor/") || rel.starts_with("target/") || rel.contains("/target/") {
        return None;
    }
    // Integration tests, benches, and examples may unwrap, time, and index
    // freely — they are drivers, not product code. (In-crate `#[cfg(test)]`
    // modules are stripped token-wise instead; see rules::strip_test_gated.)
    for marker in ["tests/", "benches/", "examples/"] {
        if rel.starts_with(marker) || rel.contains(&format!("/{marker}")) {
            return None;
        }
    }

    if CHECKED_CAST_HELPERS.contains(&rel) {
        let mut r = RuleSet::deterministic();
        r.checked_cast = false;
        return Some(r);
    }
    if REQUEST_PATH_FILES.contains(&rel) {
        let mut r = RuleSet::deterministic();
        r.panic_in_request_path = true;
        return Some(r);
    }
    if DETERMINISTIC_CRATES.iter().any(|c| rel.starts_with(c)) {
        return Some(RuleSet::deterministic());
    }
    // The obs-timing scope: `smin-obs` is the one crate whose *job* is
    // reading the monotonic clock (spans, histograms) — its values travel
    // in headers, `/metrics`, and trace logs, never response bodies. Every
    // other deterministic rule still applies in full.
    if rel.starts_with("crates/obs/") {
        let mut r = RuleSet::deterministic();
        r.wall_clock = false;
        return Some(r);
    }
    // The facade crate re-exports the deterministic stack; hold it to the
    // same bar.
    if rel.starts_with("src/") {
        return Some(RuleSet::deterministic());
    }
    // The CLI and bench harness legitimately read clocks (they *measure*),
    // but must still seed RNGs explicitly and justify unsafe.
    if rel.starts_with("crates/cli/") || rel.starts_with("crates/bench/") {
        return Some(RuleSet {
            ambient_rng: true,
            safety_comment: true,
            ..RuleSet::default()
        });
    }
    // The linter lints itself: no hashing, no clocks, no entropy.
    if rel.starts_with("crates/analyze/") {
        let mut r = RuleSet::deterministic();
        r.checked_cast = false;
        return Some(r);
    }
    // Unknown layout (fixture trees, `--root` pointed elsewhere): everything.
    Some(RuleSet::all())
}

/// Recursively collects `.rs` files under `root`, sorted by relative path so
/// every downstream report is deterministic.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !matches!(name, ".git" | "target" | "vendor" | "node_modules") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every in-scope `.rs` file under `root`; findings are sorted by
/// (path, line, rule).
pub fn lint_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(rules) = rules_for(&rel) else {
            continue;
        };
        if rules.is_empty() {
            continue;
        }
        let source = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &source, &rules));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

/// The informational line of [`count_lines`]' `raw/code` counts for each
/// crate under `crates/*/src`, by package name (`smin-<dir>`), and their
/// total. Nothing gates on it.
pub fn line_count_line(root: &Path) -> io::Result<String> {
    let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if let ["crates", dir, "src", ..] = rel.split('/').collect::<Vec<_>>()[..] {
            let (raw, code) = count_lines(&fs::read_to_string(&path)?);
            let sum = counts.entry(format!("smin-{dir}")).or_default();
            *sum = (sum.0 + raw, sum.1 + code);
        }
    }
    let mut line = String::from("asm lint: non-test lines (raw/code):");
    let mut total = (0, 0);
    for (name, (raw, code)) in counts {
        total = (total.0 + raw, total.1 + code);
        line.push_str(&format!(" {name} {raw}/{code},"));
    }
    line.push_str(&format!(" total {}/{}\n", total.0, total.1));
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_mapping_matches_the_spec() {
        assert!(rules_for("vendor/rand/src/lib.rs").is_none());
        assert!(rules_for("crates/service/tests/service_api.rs").is_none());
        assert!(rules_for("perfbench/benches/e2e/main.rs").is_none());
        assert!(rules_for("examples/quickstart.rs").is_none());

        let svc = rules_for("crates/service/src/routes.rs").unwrap();
        assert!(svc.panic_in_request_path && svc.hash_iteration);
        let el = rules_for("crates/service/src/event_loop.rs").unwrap();
        assert!(el.panic_in_request_path && el.wall_clock);
        let platform = rules_for("crates/service/src/platform.rs").unwrap();
        assert!(platform.panic_in_request_path && platform.wall_clock);
        let metrics = rules_for("crates/service/src/metrics.rs").unwrap();
        assert!(metrics.panic_in_request_path && metrics.wall_clock);
        let trace = rules_for("crates/service/src/trace.rs").unwrap();
        assert!(trace.panic_in_request_path && trace.wall_clock);
        let obs = rules_for("crates/obs/src/lib.rs").unwrap();
        assert!(
            !obs.wall_clock && obs.hash_iteration && obs.ambient_rng && !obs.panic_in_request_path,
            "obs-timing scope: clock reads allowed, everything else deterministic"
        );
        let core = rules_for("crates/core/src/trim.rs").unwrap();
        assert!(!core.panic_in_request_path && core.wall_clock && core.checked_cast);
        let helper = rules_for("crates/graph/src/cast.rs").unwrap();
        assert!(!helper.checked_cast && helper.hash_iteration);
        let cli = rules_for("crates/cli/src/commands.rs").unwrap();
        assert!(!cli.wall_clock && cli.ambient_rng);
        let unknown = rules_for("violations/panics.rs").unwrap();
        assert_eq!(unknown, RuleSet::all());
    }
}
