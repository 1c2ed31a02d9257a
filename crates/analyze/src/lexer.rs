//! A small, correct-enough Rust lexer.
//!
//! Produces a flat token stream (identifiers, punctuation, literals) plus a
//! separate comment list, each tagged with its 1-based source line. The rules
//! in [`crate::rules`] only ever inspect identifiers, punctuation, and
//! comments — so the lexer's one job is to *never* misread the inside of a
//! string, character literal, or comment as code. It therefore handles the
//! full set of Rust constructs that embed arbitrary text:
//!
//! * line comments (`//`, `///`, `//!`) and *nested* block comments
//!   (`/* /* */ */`, including doc-block forms);
//! * string literals with escapes, byte strings (`b"…"`);
//! * raw strings with any hash count (`r"…"`, `r#"…"#`, `br##"…"##`);
//! * character and byte literals — including `'"'`, `'\''`, `'\u{1F600}'`,
//!   `'//'`-lookalikes — disambiguated from lifetimes (`'a`, `'static`);
//! * raw identifiers (`r#fn`);
//! * shebang lines (`#!/usr/bin/env …` skipped, `#![attr]` not);
//! * numeric literals with suffixes (`0u8`, `1_000`, `0xFF`, `2.5e-3`) so a
//!   range like `0..n` never lexes `.` into a float.

/// What a token is; rules mostly match on `Ident` and `Punct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `as`, `HashMap`, …). Raw
    /// identifiers are unescaped: `r#fn` lexes as `Ident("fn")`.
    Ident,
    /// A single punctuation byte (`.`, `[`, `!`, `:`…).
    Punct,
    /// Any string-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Character or byte literal: `'x'`, `b'x'`.
    Char,
    /// Lifetime or loop label: `'a`, `'static`.
    Lifetime,
    /// Numeric literal including its suffix: `42usize`, `0xFF`, `1.5`.
    Num,
}

/// One token with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// One comment (line or block) with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// Lexed file: code tokens and comments, in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src`. Unrecognizable bytes become one-byte `Punct` tokens; the
/// lexer never fails, so a half-written file still gets best-effort findings.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Lexed {
        // A shebang is only a shebang when `#!` opens the file and is not
        // the start of an inner attribute `#![…]`.
        if self.b.starts_with(b"#!") && self.b.get(2) != Some(&b'[') {
            while self.i < self.b.len() && self.b[self.i] != b'\n' {
                self.i += 1;
            }
        }
        while self.i < self.b.len() {
            let b = self.b[self.i];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ if b.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' => self.r_or_b(),
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                b'"' => self.string(),
                b'\'' => self.quote(),
                _ => {
                    self.push(TokKind::Punct, self.line, &[b]);
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, line: u32, text: &[u8]) {
        self.out.toks.push(Tok {
            kind,
            text: String::from_utf8_lossy(text).into_owned(),
            line,
        });
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
            line: self.line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.i;
        let start_line = self.line;
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
            line: start_line,
        });
    }

    /// `r` / `b` starts: raw strings `r"…"` `r#"…"#`, byte strings `b"…"`,
    /// raw byte strings `br#"…"#`, byte chars `b'x'`, raw identifiers
    /// `r#ident` — or a plain identifier that merely begins with r/b.
    fn r_or_b(&mut self) {
        let line = self.line;
        let mut j = self.i + 1;
        let mut has_r = self.b[self.i] == b'r';
        if self.b[self.i] == b'b' && self.b.get(j) == Some(&b'r') {
            has_r = true;
            j += 1;
        }
        let mut hashes = 0usize;
        while self.b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        match self.b.get(j) {
            // `b"…"` is an *escaped* string; only an r-prefix makes it raw.
            Some(&b'"') if !has_r => {
                self.i = j;
                self.string();
            }
            Some(&b'"') => {
                self.raw_string(j + 1, hashes, line);
            }
            Some(&c) if hashes == 1 && self.b[self.i] == b'r' && is_ident_start(c) => {
                // raw identifier r#foo: emit `foo`
                let start = j;
                let mut k = j;
                while self.b.get(k).copied().is_some_and(is_ident_continue) {
                    k += 1;
                }
                let text = self.b[start..k].to_vec();
                self.push(TokKind::Ident, line, &text);
                self.i = k;
            }
            Some(&b'\'') if hashes == 0 && self.b[self.i] == b'b' && self.i + 1 == j => {
                // byte literal b'x'
                self.i += 1; // leave the quote handler to consume '…'
                self.quote();
                if let Some(last) = self.out.toks.last_mut() {
                    last.kind = TokKind::Char;
                }
            }
            _ if hashes == 0 => self.ident(),
            _ => {
                // `r#` / `b#` followed by nothing lexable: treat as idents
                // plus puncts so we always make progress.
                self.ident();
            }
        }
    }

    /// Body of a raw string: `start` points just past the opening quote.
    fn raw_string(&mut self, start: usize, hashes: usize, line: u32) {
        let mut k = start;
        'scan: while k < self.b.len() {
            if self.b[k] == b'\n' {
                self.line += 1;
                k += 1;
                continue;
            }
            if self.b[k] == b'"' {
                let mut h = 0usize;
                while h < hashes && self.b.get(k + 1 + h) == Some(&b'#') {
                    h += 1;
                }
                if h == hashes {
                    k += 1 + hashes;
                    break 'scan;
                }
            }
            k += 1;
        }
        let text = self.b[self.i..k.min(self.b.len())].to_vec();
        self.push(TokKind::Str, line, &text);
        self.i = k;
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        let text = self.b[start..self.i].to_vec();
        self.push(TokKind::Ident, self.line, &text);
    }

    fn number(&mut self) {
        let start = self.i;
        // Integer part, hex/oct/bin digits, `_` separators, and type
        // suffixes are all alphanumeric-or-underscore.
        while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        // Fraction: take `.` only when a digit follows, so `0..n` keeps its
        // range dots as punctuation.
        if self.b.get(self.i) == Some(&b'.')
            && self
                .b
                .get(self.i + 1)
                .copied()
                .is_some_and(|c| c.is_ascii_digit())
        {
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
        }
        let text = self.b[start..self.i].to_vec();
        self.push(TokKind::Num, self.line, &text);
    }

    fn string(&mut self) {
        let start = self.i;
        let line = self.line;
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    // `\` at a line's end continues the string on the next
                    if self.peek(1) == Some(b'\n') {
                        self.line += 1;
                    }
                    self.i += 2;
                }
                b'"' => {
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let text = self.b[start..self.i.min(self.b.len())].to_vec();
        self.push(TokKind::Str, line, &text);
    }

    /// `'…` — lifetime, loop label, or character literal.
    fn quote(&mut self) {
        let start = self.i;
        let line = self.line;
        let next = self.peek(1);
        let after = self.peek(2);
        let is_char = match next {
            Some(b'\\') => true,
            Some(c) if is_ident_start(c) => after == Some(b'\''), // 'a' vs 'a
            Some(_) => true, // '"', '/', '0', multi-byte UTF-8, …
            None => false,
        };
        if !is_char {
            // lifetime or label: consume `'ident`
            self.i += 1;
            while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            let text = self.b[start..self.i].to_vec();
            self.push(TokKind::Lifetime, line, &text);
            return;
        }
        self.i += 1; // past the opening quote
        if self.b.get(self.i) == Some(&b'\\') {
            self.i += 2; // backslash + escape head ('n', '\'', 'u', 'x', …)
            if self.b.get(self.i - 1) == Some(&b'u') && self.b.get(self.i) == Some(&b'{') {
                while self.i < self.b.len() && self.b[self.i] != b'}' {
                    self.i += 1;
                }
                self.i += 1;
            } else if self.b.get(self.i - 1) == Some(&b'x') {
                self.i += 2;
            }
        } else {
            // one character, possibly multi-byte UTF-8
            self.i += 1;
            while self
                .b
                .get(self.i)
                .copied()
                .is_some_and(|c| c & 0b1100_0000 == 0b1000_0000)
            {
                self.i += 1;
            }
        }
        if self.b.get(self.i) == Some(&b'\'') {
            self.i += 1;
        }
        let text = self.b[start..self.i.min(self.b.len())].to_vec();
        self.push(TokKind::Char, line, &text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r#"let x = "HashMap::new() // not code"; y"#);
        let ids = idents(r#"let x = "HashMap::new() // not code"; y"#);
        assert_eq!(ids, vec!["let", "x", "y"]);
        assert_eq!(l.comments.len(), 0);
    }

    #[test]
    fn char_vs_lifetime() {
        let ids = idents("fn f<'a>(x: &'a str) { let q = '\"'; let s = 'x'; }");
        assert!(ids.contains(&"str".to_string()));
        let l = lex("let q = '\"'; // after");
        assert_eq!(l.comments.len(), 1, "the '\\\"' char must not eat the //");
    }

    #[test]
    fn line_numbers_advance_through_multiline_strings() {
        let l = lex("let a = \"x\ny\";\nlet b = 1;");
        let b = l.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn line_numbers_advance_through_string_continuations() {
        let l = lex("let a = \"x \\\n y\";\nlet b = 1;");
        let b = l.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3);
    }
}
