//! The violation baseline: grandfathered findings that do not fail CI.
//!
//! `lint-baseline.json` is committed at the workspace root. A finding whose
//! `(rule, path, line)` triple appears in the baseline is reported but does
//! not affect the exit code — so the gate only trips on *new* violations,
//! while the grandfathered list shrinks monotonically as debt is paid down.
//! `asm lint --write-baseline` regenerates the file (sorted, stable bytes).
//!
//! The format is ordinary JSON, but this crate is dependency-free, so both
//! the writer ([`write()`]) and the reader ([`parse`]) are hand-rolled here;
//! the reader is a strict subset parser that accepts exactly what the writer
//! emits (plus whitespace), and errors loudly on anything else rather than
//! guessing.

use crate::rules::Finding;

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
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}}}",
            json_string(&e.rule),
            json_string(&e.path),
            e.line
        ));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a baseline document. Returns entries in file order.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.expect(b'{')?;
    let mut entries = Vec::new();
    let mut first = true;
    loop {
        p.ws();
        if p.eat(b'}') {
            break;
        }
        if !first {
            p.expect(b',')?;
            p.ws();
        }
        first = false;
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match key.as_str() {
            "version" => {
                let v = p.number()?;
                if v != 1 {
                    return Err(format!("unsupported baseline version {v}"));
                }
            }
            "findings" => {
                p.expect(b'[')?;
                let mut first_entry = true;
                loop {
                    p.ws();
                    if p.eat(b']') {
                        break;
                    }
                    if !first_entry {
                        p.expect(b',')?;
                        p.ws();
                    }
                    first_entry = false;
                    entries.push(p.entry()?);
                }
            }
            other => return Err(format!("unknown baseline key {other:?}")),
        }
    }
    Ok(entries)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!(
                "baseline parse error at byte {}: expected {:?}, found {:?}",
                self.i,
                c as char,
                self.b.get(self.i).map(|&b| b as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .b
                        .get(self.i)
                        .copied()
                        .ok_or("baseline parse error: truncated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("baseline parse error: truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "baseline parse error: bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "baseline parse error: bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        other => {
                            return Err(format!(
                                "baseline parse error: unsupported escape \\{}",
                                other as char
                            ))
                        }
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences byte-for-byte.
                    let start = self.i - 1;
                    let len = utf8_len(c);
                    let end = (start + len).min(self.b.len());
                    out.push_str(std::str::from_utf8(&self.b[start..end]).unwrap_or("\u{FFFD}"));
                    self.i = end;
                }
            }
        }
        Err("baseline parse error: unterminated string".into())
    }

    fn number(&mut self) -> Result<u32, String> {
        let start = self.i;
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!(
                "baseline parse error at byte {start}: expected a number"
            ));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "baseline parse error: number out of range".to_string())
    }

    /// One `{"rule": …, "path": …, "line": …}` object, keys in any order.
    fn entry(&mut self) -> Result<BaselineEntry, String> {
        self.expect(b'{')?;
        let (mut rule, mut path, mut line) = (None, None, None);
        let mut first = true;
        loop {
            self.ws();
            if self.eat(b'}') {
                break;
            }
            if !first {
                self.expect(b',')?;
                self.ws();
            }
            first = false;
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            match key.as_str() {
                "rule" => rule = Some(self.string()?),
                "path" => path = Some(self.string()?),
                "line" => line = Some(self.number()?),
                other => return Err(format!("unknown baseline entry key {other:?}")),
            }
        }
        match (rule, path, line) {
            (Some(rule), Some(path), Some(line)) => Ok(BaselineEntry { rule, path, line }),
            _ => Err("baseline entry needs rule, path, and line".into()),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
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

    #[test]
    fn garbage_errors_loudly() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"version\": 2, \"findings\": []}").is_err());
        assert!(parse("{\"findings\": [{\"rule\": \"r\"}]}").is_err());
    }
}
