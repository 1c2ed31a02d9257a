//! The rule engine: project-invariant checks over a lexed file.
//!
//! Each rule guards one of the stack's standing guarantees:
//!
//! | rule | invariant |
//! |---|---|
//! | `no-hash-iteration` | output-deterministic crates never touch `HashMap`/`HashSet` (iteration order is randomized) |
//! | `no-wall-clock` | `Instant::now`/`SystemTime::now` stay out of result-producing code |
//! | `no-ambient-rng` | RNGs are built from explicit seeds (counter-derived streams), never ambient entropy |
//! | `no-panic-in-request-path` | the service request path returns structured errors, never panics |
//! | `safety-comment` | every `unsafe` is justified by a `// SAFETY:` comment |
//! | `checked-cast` | no bare `as` narrowing onto the u32 node/set-id space outside checked helpers |
//!
//! Findings on a line annotated `// smin-lint: allow(<rule>) -- <why>` are
//! suppressed; the annotation covers its own line and the next line, and a
//! missing justification or unknown rule name is itself reported
//! (`malformed-allow`), so the escape hatch cannot rot silently.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::ops::RangeInclusive;

/// Stable rule identifiers, in report order.
pub const RULE_IDS: &[&str] = &[
    "no-hash-iteration",
    "no-wall-clock",
    "no-ambient-rng",
    "no-panic-in-request-path",
    "safety-comment",
    "checked-cast",
];

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSet {
    pub hash_iteration: bool,
    pub wall_clock: bool,
    pub ambient_rng: bool,
    pub panic_in_request_path: bool,
    pub safety_comment: bool,
    pub checked_cast: bool,
}

impl RuleSet {
    /// Every rule on — used for fixture/out-of-tree roots.
    pub fn all() -> RuleSet {
        RuleSet {
            hash_iteration: true,
            wall_clock: true,
            ambient_rng: true,
            panic_in_request_path: true,
            safety_comment: true,
            checked_cast: true,
        }
    }

    /// The baseline set for output-deterministic library crates.
    pub fn deterministic() -> RuleSet {
        RuleSet {
            hash_iteration: true,
            wall_clock: true,
            ambient_rng: true,
            panic_in_request_path: false,
            safety_comment: true,
            checked_cast: true,
        }
    }

    pub fn is_empty(&self) -> bool {
        *self == RuleSet::default()
    }
}

/// One finding, ordered by (path, line, rule) for deterministic reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Lints one file's source text under `rules`. `path` is only used to label
/// findings; callers decide the rule set per path.
pub fn lint_source(path: &str, source: &str, rules: &RuleSet) -> Vec<Finding> {
    let lexed = lex(source);
    let toks = strip_test_gated(&lexed.toks).0;
    let allow = AllowTable::parse(&lexed.comments);

    let mut findings = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        if !allow.permits(rule, line) {
            findings.push(Finding {
                path: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            // Indexing check is punctuation-driven.
            if rules.panic_in_request_path
                && t.kind == TokKind::Punct
                && t.text == "["
                && is_index_bracket(&toks, i)
            {
                push(
                    "no-panic-in-request-path",
                    t.line,
                    "slice/array indexing can panic; use .get() and map the miss to a structured error".into(),
                );
            }
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if rules.hash_iteration => push(
                "no-hash-iteration",
                t.line,
                format!(
                    "{} iteration order is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            ),
            "Instant" | "SystemTime"
                if rules.wall_clock && path_is(&toks, i, &["now"]) =>
            {
                push(
                    "no-wall-clock",
                    t.line,
                    format!(
                        "{}::now() reads the wall clock; timing belongs in smin-bench or annotated header plumbing",
                        t.text
                    ),
                )
            }
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" | "ThreadRng"
                if rules.ambient_rng =>
            {
                push(
                    "no-ambient-rng",
                    t.line,
                    format!(
                        "`{}` draws ambient entropy; construct RNGs from explicit counter-derived seeds (seed_from_u64)",
                        t.text
                    ),
                )
            }
            "unwrap" | "expect"
                if rules.panic_in_request_path
                    && i > 0
                    && toks[i - 1].kind == TokKind::Punct
                    && toks[i - 1].text == "." =>
            {
                push(
                    "no-panic-in-request-path",
                    t.line,
                    format!(
                        ".{}() panics the worker thread on failure; return a structured ServiceError instead",
                        t.text
                    ),
                )
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if rules.panic_in_request_path
                    && toks.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                push(
                    "no-panic-in-request-path",
                    t.line,
                    format!("{}! aborts the worker thread; return a structured ServiceError instead", t.text),
                )
            }
            "unsafe" if rules.safety_comment && !has_safety_comment(&lexed.comments, t.line) => {
                push(
                    "safety-comment",
                    t.line,
                    "unsafe without a `// SAFETY:` comment in the preceding 3 lines".into(),
                );
            }
            "as" if rules.checked_cast => {
                if let Some(next) = toks.get(i + 1) {
                    if next.kind == TokKind::Ident
                        && matches!(next.text.as_str(), "u8" | "u16" | "u32")
                    {
                        push(
                            "checked-cast",
                            t.line,
                            format!(
                                "bare `as {}` narrowing can silently truncate an index; use smin_graph::cast::u32_of (or a checked try_into)",
                                next.text
                            ),
                        )
                    }
                }
            }
            _ => {}
        }
    }

    for bad in allow.malformed {
        findings.push(Finding {
            path: path.to_string(),
            line: bad.0,
            rule: "malformed-allow",
            message: bad.1,
        });
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// `Ident :: Ident…` — does the path continue from token `i` with exactly
/// `segments` (e.g. `Instant` followed by `::now`)?
fn path_is(toks: &[Tok], i: usize, segments: &[&str]) -> bool {
    let mut j = i + 1;
    for seg in segments {
        if !(toks.get(j).is_some_and(|t| t.text == ":")
            && toks.get(j + 1).is_some_and(|t| t.text == ":")
            && toks
                .get(j + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text == *seg))
        {
            return false;
        }
        j += 3;
    }
    true
}

/// Is the `[` at `toks[i]` an indexing expression? Heuristic: indexing
/// follows a value — an identifier, `)`, or `]`. Everything else (`#[attr]`,
/// `&[u8]`, `vec![…]`, `= [0; 4]`, `(&[…])`) follows punctuation.
fn is_index_bracket(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = toks.get(i.wrapping_sub(1)) else {
        return false;
    };
    if i == 0 {
        return false;
    }
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            // keywords a `[` can legally follow without indexing
            "return" | "break" | "in" | "else" | "match" | "if" | "mut" | "dyn" | "as"
        ),
        TokKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

/// Is there a `SAFETY:` comment within the 3 lines above (or on) `line`?
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.line <= line && line - c.line <= 3)
}

/// Parsed `smin-lint: allow(…) -- why` annotations for one file.
struct AllowTable {
    /// (rule, line) pairs each annotation unlocks; an annotation on line L
    /// covers L and L+1 so it can trail the offending line or sit above it.
    entries: Vec<(String, u32)>,
    /// (line, message) for annotations that don't parse or name unknown
    /// rules — surfaced as `malformed-allow` findings.
    malformed: Vec<(u32, String)>,
}

impl AllowTable {
    fn parse(comments: &[Comment]) -> AllowTable {
        let mut entries = Vec::new();
        let mut malformed = Vec::new();
        for c in comments {
            // An annotation *starts* the comment body (`// smin-lint: …`,
            // `/* smin-lint: … */`). Prose that merely quotes the syntax —
            // docs, help text — is not an annotation.
            let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
            let Some(rest) = body.strip_prefix("smin-lint:") else {
                continue;
            };
            let rest = rest.trim_start();
            let parsed = (|| -> Result<Vec<String>, String> {
                let body = rest
                    .strip_prefix("allow(")
                    .ok_or("expected `smin-lint: allow(<rule>) -- <justification>`")?;
                let close = body.find(')').ok_or("missing `)` after rule list")?;
                let (list, tail) = (body[..close].to_string(), &body[close + 1..]);
                if !tail.trim_start().starts_with("--")
                    || tail.trim_start().trim_start_matches('-').trim().is_empty()
                {
                    return Err(
                        "allow annotations need a justification: `-- <why this is sound>`".into(),
                    );
                }
                let mut rules = Vec::new();
                for rule in list.split(',') {
                    let rule = rule.trim();
                    if !RULE_IDS.contains(&rule) {
                        return Err(format!("unknown rule '{rule}' in allow annotation"));
                    }
                    rules.push(rule.to_string());
                }
                if rules.is_empty() {
                    return Err("empty rule list in allow annotation".into());
                }
                Ok(rules)
            })();
            match parsed {
                Ok(rules) => {
                    for rule in rules {
                        entries.push((rule, c.line));
                    }
                }
                Err(msg) => malformed.push((c.line, msg)),
            }
        }
        AllowTable { entries, malformed }
    }

    fn permits(&self, rule: &str, line: u32) -> bool {
        self.entries
            .iter()
            .any(|(r, l)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Removes token ranges gated behind `#[cfg(test)]` (and `#[cfg(all(test,…))]`
/// etc.) — test modules may unwrap freely. `#[cfg_attr(test, …)]` does *not*
/// gate compilation and is left in. Inner attributes `#![…]` are skipped
/// without gating.
///
/// Returns the kept tokens and the lines of each gated item, from its
/// attribute to its last token.
fn strip_test_gated(toks: &[Tok]) -> (Vec<Tok>, Vec<RangeInclusive<usize>>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut gated_lines = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct && t.text == "#" {
            // inner attribute `#![…]`: copy through
            let bang = toks.get(i + 1).is_some_and(|t| t.text == "!");
            let open = if bang { i + 2 } else { i + 1 };
            if toks.get(open).is_some_and(|t| t.text == "[") {
                let close = matching_bracket(toks, open);
                if close <= open {
                    // unbalanced trailing attribute: keep the rest verbatim
                    out.extend_from_slice(&toks[i..]);
                    break;
                }
                let gated = !bang && attr_is_cfg_test(&toks[open + 1..close]);
                if gated {
                    // Skip this attribute, any further attributes, and the
                    // item's braced body (or up to `;` for braceless items).
                    let end = skip_gated_item(toks, close + 1);
                    gated_lines.push(t.line as usize..=*lines_of(&toks[end - 1]).end());
                    i = end;
                    continue;
                }
                // Non-gating attribute: keep tokens (rules ignore them).
                out.extend_from_slice(&toks[i..=close.min(toks.len() - 1)]);
                i = close + 1;
                continue;
            }
        }
        out.push(t.clone());
        i += 1;
    }
    (out, gated_lines)
}

/// The lines a token spans: a string literal may span several.
fn lines_of(t: &Tok) -> RangeInclusive<usize> {
    let first = t.line as usize;
    first..=first + t.text.matches('\n').count()
}

/// Counts the lines of `source` that no `#[cfg(test)]` item covers,
/// wherever it sits, and of those the lines that hold a code token, so that
/// deleting comments does not read as a cut: `(raw, code)`.
pub fn count_lines(source: &str) -> (usize, usize) {
    let (toks, gated) = strip_test_gated(&lex(source).toks);
    let lines = source.lines().count();
    let (mut test, mut code) = (vec![false; lines + 2], vec![false; lines + 2]);
    gated.into_iter().for_each(|span| test[span].fill(true));
    toks.iter().for_each(|t| code[lines_of(t)].fill(true));
    let raw = (1..=lines).filter(|&l| !test[l] || code[l]).count();
    (raw, (1..=lines).filter(|&l| code[l]).count())
}

/// Index of the `]` closing the `[` at `open` (depth-aware); saturates at the
/// last token for unbalanced input.
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Does the attribute body start with `cfg` and mention `test` (not
/// `cfg_attr`, whose test arm still compiles into non-test builds)?
fn attr_is_cfg_test(body: &[Tok]) -> bool {
    body.first()
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == "cfg")
        && body
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test")
}

/// Starting just after a gating attribute, returns the index past the whole
/// item: further attributes, the signature, and the `{…}` body (or `;`).
fn skip_gated_item(toks: &[Tok], mut i: usize) -> usize {
    // further outer attributes
    while toks.get(i).is_some_and(|t| t.text == "#")
        && toks.get(i + 1).is_some_and(|t| t.text == "[")
    {
        i = matching_bracket(toks, i + 1) + 1;
    }
    // scan to the first top-level `{` or `;`
    let mut depth = 0i64; // () and [] nesting inside the signature
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return i + 1,
                "{" if depth == 0 => {
                    // skip the balanced braces
                    let mut braces = 0i64;
                    while i < toks.len() {
                        let t = &toks[i];
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "{" => braces += 1,
                                "}" => {
                                    braces -= 1;
                                    if braces == 0 {
                                        return i + 1;
                                    }
                                }
                                _ => {}
                            }
                        }
                        i += 1;
                    }
                    return i;
                }
                _ => {}
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        lint_source("x.rs", src, &RuleSet::all())
    }

    #[test]
    fn hash_map_in_code_fires_in_strings_does_not() {
        let f = run("use std::collections::HashMap;\nlet s = \"HashMap\";");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-hash-iteration");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cfg_attr_test_is_not_exempt() {
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn f() { x.unwrap(); }\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic-in-request-path");
    }

    #[test]
    fn allow_annotation_suppresses_same_and_next_line() {
        let src =
            "// smin-lint: allow(no-wall-clock) -- header timing only\nlet t = Instant::now();\n";
        assert!(run(src).is_empty());
        let trailing =
            "let t = Instant::now(); // smin-lint: allow(no-wall-clock) -- header timing\n";
        assert!(run(trailing).is_empty());
    }

    #[test]
    fn allow_without_justification_is_malformed() {
        let src = "// smin-lint: allow(no-wall-clock)\nlet t = Instant::now();\n";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "malformed-allow"));
        assert!(f.iter().any(|x| x.rule == "no-wall-clock"));
    }

    #[test]
    fn unknown_rule_in_allow_is_malformed() {
        let src = "// smin-lint: allow(no-such-rule) -- because\nfn f() {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "malformed-allow");
    }

    #[test]
    fn indexing_fires_but_types_and_macros_do_not() {
        let f = run("fn f(b: &[u8], v: Vec<u8>) -> u8 { let a = [0u8; 4]; v[0] }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("indexing"));
        assert!(run("fn f() { let v = vec![1, 2]; }\n").is_empty());
        assert!(run("#[derive(Debug)]\nstruct S;\n").is_empty());
    }

    #[test]
    fn safety_comment_satisfies_unsafe() {
        let bad = "fn f() { unsafe { g() } }\n";
        let f = run(bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "safety-comment");
        let good = "fn f() {\n  // SAFETY: g is sound here\n  unsafe { g() }\n}\n";
        assert!(run(good).is_empty());
    }

    #[test]
    fn narrowing_casts_fire_widening_do_not() {
        let f = run("fn f(n: usize) { let x = n as u32; let y = 3u32 as usize; }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "checked-cast");
    }

    #[test]
    fn wall_clock_needs_the_now_call() {
        assert!(run("use std::time::Instant;\n").is_empty());
        let f = run("let t = std::time::Instant::now();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-wall-clock");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        assert!(run("fn f() { m.lock().unwrap_or_else(|e| e.into_inner()); }\n").is_empty());
        let f = run("fn f() { m.lock().unwrap(); }\n");
        assert_eq!(f.len(), 1);
    }

    /// A `#[cfg(test)]` item above non-test code, as `routes.rs`'s
    /// `TEST_PANIC_PATH` sits above most of that file: the item's lines
    /// are skipped and the code after it is counted. Raw lines are 1–3 and
    /// 6–12, code lines 3 and 8–11 (a continued string spans 9–10).
    #[test]
    fn line_count_skips_test_items_wherever_they_sit() {
        let src = r#"//! Module docs.

fn a() {}
#[cfg(test)]
const PANIC_PATH: &str = "/x";

/// Docs.
fn b() {
    let s = "two \
        lines";
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
"#;
        assert_eq!(count_lines(src), (10, 5));
    }
}
