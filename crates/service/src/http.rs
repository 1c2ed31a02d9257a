//! Minimal HTTP/1.1 framing.
//!
//! The service speaks exactly the subset a JSON API needs — request line,
//! headers, `Content-Length` bodies, keep-alive — hand-rolled because the
//! offline build has no HTTP crates. This module is the server side: the
//! incremental [`RequestParser`] frames every request the event loop reads,
//! and [`Response`] serializes every answer. The matching client-side
//! framing lives in [`crate::client`], and the integration tests drive one
//! against the other to keep the two implementations honest.

use std::io::Write;

/// Largest accepted request body (4 MiB): generous for JSON control-plane
/// bodies, small enough that a misbehaving client cannot balloon a worker.
pub const MAX_BODY_BYTES: usize = 4 << 20;
/// Most nodes a `POST /v1/graphs` `"generate"` spec may ask for.
pub const MAX_GENERATED_NODES: usize = 1_000_000;
/// Most directed edges a `"generate"` spec may ask for: `m` (given or the
/// default `5n`), BA's `2·n·attach` or WS's `n·k`.
///
/// The two ceilings keep generating the largest accepted spec under 1 GiB.
/// Per directed edge, the sparse ER path peaks highest: its hash set and
/// pair list take ≤ 49 B while it samples. ER's dense path peaks at 36 B:
/// its pair list (< 24 B while it shuffles, released to the kept 8 B after)
/// lives through `assemble`, which holds the builder's 16-B edges and then
/// the structural graph's forward arrays (12 B), then those beside the
/// weighted copy's (12 B). Weighting counts in-degrees from the forward
/// targets, so the structural graph's reverse CSR is never built. BA's and
/// WS's pair lists stay below that. Per node, Chung–Lu's permutations,
/// weights and alias tables plus both graphs' offsets take < 128 B. So
/// 10⁷ edges × 49 B + 10⁶ nodes × 128 B ≈ 0.62 GB. The first select on the
/// kept graph then builds its reverse CSR: 24 B per node (a 16-B record and
/// the 8-B `(1 − p)^d` entry) and 4 B per edge when every node's in-edges
/// share one probability (weighted cascade, uniform), 12 B when some
/// node's differ (trivalency): 0.06 GB more at the ceilings, or 0.14 GB.
pub const MAX_GENERATED_EDGES: usize = 10_000_000;
/// Largest accepted request/header line.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Maximum number of headers per request.
pub const MAX_HEADERS: usize = 100;
/// Per-connection cap on bytes buffered ahead of the incremental parser.
/// Sized so any single legal request (head + body) always fits — a parser
/// waiting for more bytes is therefore always below it — which means a
/// connection at the cap necessarily holds at least one complete request
/// (or a protocol error) that can be consumed without reading further.
/// The transport stops reading the socket at the cap and resumes as the
/// pipelined backlog drains, bounding per-connection memory.
pub const MAX_BUFFERED_BYTES: usize = MAX_BODY_BYTES + 2 * MAX_LINE_BYTES;

/// A protocol violation; mapped to a 400 close-connection response.
#[derive(Debug)]
pub struct HttpError {
    pub message: String,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, HttpError> {
    Err(HttpError {
        message: msg.into(),
    })
}

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub version: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header value matching `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange
    /// (HTTP/1.1 defaults to keep-alive; `Connection: close` opts out).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Incremental HTTP/1.1 request parser, the service's one request framing:
/// raw bytes go in via [`RequestParser::feed`] as they arrive off the
/// socket, complete requests come out of [`RequestParser::try_next`] once
/// they frame. The unit tests pin its error messages, and the proptests
/// pin that every chunking of a stream frames the same requests and fails
/// with the same error as the whole stream fed at once.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// Raw bytes; `start..` is unconsumed, `..start` is already parsed.
    buf: Vec<u8>,
    start: usize,
    /// High-water mark of the newline scan, so repeated `try_next` calls
    /// on a slowly-arriving line stay O(new bytes), not O(line²).
    scan: usize,
    state: ParseState,
}

#[derive(Debug, Default)]
enum ParseState {
    #[default]
    RequestLine,
    Headers(Head),
    Body(Head, usize),
}

#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    version: String,
    headers: Vec<(String, String)>,
}

impl RequestParser {
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw socket bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered_len(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// `true` once any byte of a new request has arrived (or a head is
    /// mid-parse): a read timeout now is a stalled request, not an idle
    /// keep-alive connection.
    pub fn mid_request(&self) -> bool {
        !matches!(self.state, ParseState::RequestLine) || self.buffered_len() > 0
    }

    /// `true` when the request line and headers are fully parsed and the
    /// parser is waiting on body bytes — the condition under which a read
    /// timeout earns a 408 instead of a silent close.
    pub fn head_parsed(&self) -> bool {
        matches!(self.state, ParseState::Body(..))
    }

    /// Pulls the next complete request out of the buffer. `Ok(None)`
    /// means "need more bytes"; errors are protocol violations and the
    /// connection must be closed after an optional 400.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        let out = self.advance();
        // Reclaim the consumed prefix so a long-lived keep-alive
        // connection cannot grow the buffer without bound.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scan = self.scan.saturating_sub(self.start);
            self.start = 0;
        }
        out
    }

    /// One line ending in `\n`, trailing `\r`s stripped (bare-LF peers are
    /// tolerated). `Ok(None)` = the terminator has not arrived yet.
    fn take_line(&mut self) -> Result<Option<String>, HttpError> {
        let pending = self.buf.get(self.scan..).unwrap_or(&[]);
        let Some(rel) = pending.iter().position(|&b| b == b'\n') else {
            self.scan = self.buf.len();
            if self.buffered_len() > MAX_LINE_BYTES {
                return bad("header line too long");
            }
            return Ok(None);
        };
        let nl = self.scan + rel;
        if nl + 1 - self.start > MAX_LINE_BYTES {
            return bad("header line too long");
        }
        let mut line = self.buf.get(self.start..nl).unwrap_or(&[]).to_vec();
        while matches!(line.last(), Some(b'\r')) {
            line.pop();
        }
        self.start = nl + 1;
        self.scan = self.start;
        match String::from_utf8(line) {
            Ok(s) => Ok(Some(s)),
            Err(_) => bad("header line is not UTF-8"),
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match self.state {
                ParseState::RequestLine => {
                    if self.buffered_len() == 0 {
                        return Ok(None);
                    }
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if line.is_empty() {
                        return bad("empty request line");
                    }
                    let mut parts = line.split_ascii_whitespace();
                    let (Some(method), Some(path), Some(version)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return bad(format!("malformed request line: {line:?}"));
                    };
                    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
                        return bad(format!("malformed request line: {line:?}"));
                    }
                    self.state = ParseState::Headers(Head {
                        method: method.to_string(),
                        path: path.to_string(),
                        version: version.to_string(),
                        headers: Vec::new(),
                    });
                }
                ParseState::Headers(_) => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    let ParseState::Headers(ref mut head) = self.state else {
                        return bad("parser state desync");
                    };
                    if !line.is_empty() {
                        if head.headers.len() >= MAX_HEADERS {
                            return bad("too many headers");
                        }
                        let Some((k, v)) = line.split_once(':') else {
                            return bad(format!("malformed header: {line:?}"));
                        };
                        head.headers
                            .push((k.trim().to_string(), v.trim().to_string()));
                        continue;
                    }
                    // Blank line: the head is complete. The only body
                    // framing supported is Content-Length: a chunked body
                    // would otherwise be misread as pipelined requests
                    // (response desync), so reject it explicitly.
                    if head
                        .headers
                        .iter()
                        .any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
                    {
                        return bad(
                            "Transfer-Encoding is not supported; send a Content-Length body",
                        );
                    }
                    let content_length = head
                        .headers
                        .iter()
                        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                        .map(|(_, v)| v.parse::<usize>())
                        .transpose()
                        .map_err(|e| HttpError {
                            message: format!("bad content-length: {e}"),
                        })?
                        .unwrap_or(0);
                    if content_length > MAX_BODY_BYTES {
                        return bad(format!("body of {content_length} bytes exceeds limit"));
                    }
                    let ParseState::Headers(head) = std::mem::take(&mut self.state) else {
                        return bad("parser state desync");
                    };
                    self.state = ParseState::Body(head, content_length);
                }
                ParseState::Body(_, need) => {
                    if self.buffered_len() < need {
                        return Ok(None);
                    }
                    let end = self.start + need;
                    let body = self.buf.get(self.start..end).unwrap_or(&[]).to_vec();
                    self.start = end;
                    self.scan = end;
                    let ParseState::Body(head, _) = std::mem::take(&mut self.state) else {
                        return bad("parser state desync");
                    };
                    return Ok(Some(Request {
                        method: head.method,
                        path: head.path,
                        version: head.version,
                        headers: head.headers,
                        body,
                    }));
                }
            }
        }
    }
}

/// Canonical reason phrases for the statuses the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response ready to serialize: status, extra headers, JSON body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: serde_json::to_string(value).into_bytes(),
        }
    }

    /// Attaches one extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Writes the response; `keep_alive` picks the `Connection` header.
    /// `Content-Type` defaults to JSON; a `Content-Type` entry among the
    /// extra headers overrides it in place (used by `/metrics` for the
    /// Prometheus text format) without being written twice.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let content_type = self
            .headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
            .map_or("application/json", |(_, v)| v.as_str());
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (k, v) in &self.headers {
            if k.eq_ignore_ascii_case("content-type") {
                continue;
            }
            write!(writer, "{k}: {v}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` whole and pulls the first request; `Ok(None)` means the
    /// bytes do not complete one.
    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new();
        p.feed(raw.as_bytes());
        p.try_next()
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse("POST /v1/select HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_is_error() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /\r\n\r\n").is_err(), "missing version");
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err(), "wrong protocol");
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 5 << 20);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn bad_content_length_is_an_error() {
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").is_err());
    }

    #[test]
    fn transfer_encoding_is_rejected_as_protocol_error() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2f\r\n").unwrap_err();
        assert!(err.message.contains("Transfer-Encoding"), "{err}");
    }

    #[test]
    fn truncation_is_io_parse_garbage_is_not() {
        // A truncated head or a short body is not a protocol error: the
        // parser waits for more bytes, and the transport's timers decide
        // between a silent close and a 408. Garbage framing is a protocol
        // error (answer 400).
        for raw in [
            "GET / HTTP/1.1\r\nHost: x\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            let mut p = RequestParser::new();
            p.feed(raw.as_bytes());
            assert!(p.try_next().unwrap().is_none(), "{raw:?}");
            assert!(p.mid_request(), "{raw:?}");
        }
        assert!(parse("GARBAGE\r\n\r\n").is_err());
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::json(200, &serde_json::json!({"ok": true})).with_header("X-Test", "1");
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn content_type_header_overrides_the_json_default_once() {
        let resp = Response {
            status: 200,
            headers: vec![(
                "Content-Type".to_string(),
                "text/plain; version=0.0.4".to_string(),
            )],
            body: b"x 1\n".to_vec(),
        };
        let mut out = Vec::new();
        resp.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert_eq!(text.matches("Content-Type:").count(), 1, "{text}");
        assert!(!text.contains("application/json"));
    }

    #[test]
    fn status_texts_cover_service_statuses() {
        for s in [200, 201, 400, 404, 405, 408, 409, 413, 422, 429, 500, 504] {
            assert_ne!(status_text(s), "Unknown", "status {s}");
        }
    }

    #[test]
    fn parser_exposes_idle_vs_mid_request_vs_head_parsed() {
        let mut p = RequestParser::new();
        assert!(!p.mid_request(), "fresh parser is idle");
        p.feed(b"PO");
        assert!(p.mid_request(), "any byte commits the peer to a request");
        assert!(!p.head_parsed());
        p.feed(b"ST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        assert!(p.try_next().unwrap().is_none(), "body bytes still missing");
        assert!(p.head_parsed(), "waiting on the body = 408 territory");
        p.feed(b"12345");
        let r = p.try_next().unwrap().unwrap();
        assert_eq!(r.body, b"12345");
        assert!(!p.mid_request(), "back to idle between requests");
        assert_eq!(p.buffered_len(), 0, "consumed prefix reclaimed");
    }

    #[test]
    fn incremental_parser_rejects_what_the_blocking_parser_rejects() {
        // Every rejection's exact message: it reaches the peer verbatim in
        // the 400 body (`malformed HTTP: …`).
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        let huge_body = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 5 << 20);
        for (raw, want) in [
            ("GARBAGE\r\n\r\n", r#"malformed request line: "GARBAGE""#),
            ("GET /\r\n\r\n", r#"malformed request line: "GET /""#),
            (
                "GET / SPDY/3\r\n\r\n",
                r#"malformed request line: "GET / SPDY/3""#,
            ),
            ("\r\n", "empty request line"),
            (
                "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                "bad content-length: invalid digit found in string",
            ),
            (
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "Transfer-Encoding is not supported; send a Content-Length body",
            ),
            (
                "POST / HTTP/1.1\r\nnocolon\r\n\r\n",
                r#"malformed header: "nocolon""#,
            ),
            (huge_body.as_str(), "body of 5242880 bytes exceeds limit"),
            (long_line.as_str(), "header line too long"),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.message, want, "input {raw:?}");
        }
    }

    #[test]
    fn incremental_parser_survives_every_split_boundary() {
        let raw: &[u8] = b"POST /v1/select HTTP/1.1\r\nHost: t\r\nX-Deadline-Millis: 250\r\n\
                           Content-Length: 11\r\n\r\n{\"graph\":1}";
        let expected = Request {
            method: "POST".into(),
            path: "/v1/select".into(),
            version: "HTTP/1.1".into(),
            headers: [
                ("Host", "t"),
                ("X-Deadline-Millis", "250"),
                ("Content-Length", "11"),
            ]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .to_vec(),
            body: b"{\"graph\":1}".to_vec(),
        };
        for split in 0..=raw.len() {
            let mut p = RequestParser::new();
            p.feed(&raw[..split]);
            let early = p
                .try_next()
                .unwrap_or_else(|e| panic!("split {split}: {e}"));
            p.feed(&raw[split..]);
            let req = match early {
                Some(r) => r,
                None => p
                    .try_next()
                    .unwrap_or_else(|e| panic!("split {split}: {e}"))
                    .unwrap_or_else(|| panic!("split {split}: incomplete after full feed")),
            };
            assert_eq!(req, expected, "split {split}");
            assert!(
                p.try_next().unwrap().is_none(),
                "split {split}: phantom request"
            );
            assert_eq!(p.buffered_len(), 0, "split {split}: leftover bytes");
        }
    }

    mod framing_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One deterministic request rendered from generated knobs, plus
        /// the request it must parse back to.
        fn raw_request(
            mi: usize,
            path_len: usize,
            body_len: usize,
            bare_lf: bool,
        ) -> (Vec<u8>, Request) {
            let method = match mi % 3 {
                0 => "GET",
                1 => "POST",
                _ => "DELETE",
            };
            let path = format!("/{}", "p".repeat(path_len));
            let body: Vec<u8> = (0..body_len).map(|i| b'a' + (i % 26) as u8).collect();
            let eol = if bare_lf { "\n" } else { "\r\n" };
            let mut raw = format!(
                "{method} {path} HTTP/1.1{eol}Host: test{eol}Content-Length: {}{eol}{eol}",
                body.len()
            )
            .into_bytes();
            raw.extend_from_slice(&body);
            let expected = Request {
                method: method.to_string(),
                path,
                version: "HTTP/1.1".to_string(),
                headers: vec![
                    ("Host".to_string(), "test".to_string()),
                    ("Content-Length".to_string(), body_len.to_string()),
                ],
                body,
            };
            (raw, expected)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn incremental_parser_matches_blocking_at_any_chunking(
                mi in 0usize..3,
                path_len in 1usize..40,
                body_len in 0usize..80,
                body_len2 in 0usize..80,
                chunk in 1usize..24,
                bare_lf in 0usize..2,
            ) {
                // A pipelined two-request stream, sometimes with bare-LF
                // line endings, parsed as `chunk`-sized arrivals, must
                // frame exactly the requests the generator wrote.
                let (mut stream, first) = raw_request(mi, path_len, body_len, bare_lf == 1);
                let (tail, second) = raw_request(mi + 1, path_len / 2 + 1, body_len2, false);
                stream.extend(tail);

                let mut parser = RequestParser::new();
                let mut got = Vec::new();
                for piece in stream.chunks(chunk) {
                    parser.feed(piece);
                    while let Some(r) = parser.try_next().unwrap() {
                        got.push(r);
                    }
                }
                prop_assert_eq!(got, vec![first, second]);
                prop_assert_eq!(parser.buffered_len(), 0);
            }
        }
    }

    mod fuzz {
        //! `RequestParser` is the only code that frames untrusted bytes.
        //! Hostile inputs — random bytes, and valid pipelined streams with
        //! random damage — must never panic, and the outcome must not
        //! depend on how the bytes were split across socket reads.

        use super::*;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// What a parser made of a stream: every request framed before the
        /// first error or the end of input, then that error's message.
        type Framed = (Vec<Request>, Option<String>);

        /// Feeds `stream` as pieces of the given lengths (the remainder as
        /// the last piece), pulling requests after every piece.
        fn frame(stream: &[u8], cuts: &[usize]) -> Framed {
            let mut p = RequestParser::new();
            let mut requests = Vec::new();
            let (mut fed, mut rest) = (0usize, stream);
            for &cut in cuts.iter().chain(std::iter::once(&usize::MAX)) {
                let (piece, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                p.feed(piece);
                fed += piece.len();
                loop {
                    let next = p.try_next();
                    assert!(p.buffered_len() <= fed, "buffered more than was fed");
                    match next {
                        Ok(Some(r)) => requests.push(r),
                        Ok(None) => break,
                        Err(e) => return (requests, Some(e.message)),
                    }
                }
                if rest.is_empty() {
                    break;
                }
            }
            (requests, None)
        }

        /// A valid stream of one to three pipelined requests.
        fn valid_stream(rng: &mut SmallRng) -> Vec<u8> {
            let mut out = Vec::new();
            for _ in 0..rng.random_range(1usize..=3) {
                let method = ["GET", "POST", "DELETE"][rng.random_range(0usize..3)];
                let eol = if rng.random_bool(0.2) { "\n" } else { "\r\n" };
                let body: Vec<u8> = (0..rng.random_range(0usize..64))
                    .map(|_| rng.random_range(b' '..=b'~'))
                    .collect();
                let head = format!(
                    "{method} /v1/select HTTP/1.1{eol}Host: t{eol}X-Deadline-Millis: 50{eol}\
                     Content-Length: {}{eol}{eol}",
                    body.len()
                );
                out.extend_from_slice(head.as_bytes());
                out.extend_from_slice(&body);
            }
            out
        }

        /// One random act of damage to `stream`.
        fn mutate(rng: &mut SmallRng, stream: &mut Vec<u8>) {
            let at = rng.random_range(0..=stream.len());
            match rng.random_range(0u32..5) {
                0 => stream.truncate(at),
                1 => {
                    if let Some(b) = stream.get_mut(at) {
                        *b ^= rng.random_range(1u8..=255);
                    }
                }
                2 => stream.insert(at, [b'\r', b'\n', b':'][rng.random_range(0usize..3)]),
                3 => {
                    // A huge Content-Length: past the body limit, past
                    // `usize`, or just under the limit (the parser waits).
                    let huge = ["99999999999999999999999", "4194305", "4194304"]
                        [rng.random_range(0usize..3)];
                    let text = String::from_utf8_lossy(stream).replacen(
                        "Content-Length: ",
                        &format!("Content-Length: {huge}"),
                        1,
                    );
                    *stream = text.into_bytes();
                }
                _ => {
                    // A line longer than `MAX_LINE_BYTES`.
                    let run = vec![b'a'; MAX_LINE_BYTES + rng.random_range(0usize..16)];
                    stream.splice(at..at, run);
                }
            }
        }

        /// Random piece lengths, from single bytes up to whole-stream.
        fn cuts(rng: &mut SmallRng, len: usize) -> Vec<usize> {
            let max = [1, 2, 7, 64, len.max(1)][rng.random_range(0usize..5)];
            let mut out = Vec::new();
            let mut total = 0;
            while total < len {
                let cut = rng.random_range(1..=max);
                out.push(cut);
                total += cut;
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn any_chunking_frames_like_the_whole_feed(seed in 0u64..u64::MAX) {
                let mut rng = SmallRng::seed_from_u64(seed);
                let stream = if rng.random_bool(0.3) {
                    (0..rng.random_range(0usize..512))
                        .map(|_| rng.random_range(0u8..=255))
                        .collect()
                } else {
                    let mut s = valid_stream(&mut rng);
                    for _ in 0..rng.random_range(1usize..=3) {
                        mutate(&mut rng, &mut s);
                    }
                    s
                };
                let whole = frame(&stream, &[]);
                for _ in 0..3 {
                    let cuts = cuts(&mut rng, stream.len());
                    prop_assert_eq!(frame(&stream, &cuts), whole);
                }
            }
        }
    }
}
