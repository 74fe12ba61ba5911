//! The HTTP/1.1 wire layer: request parsing and response serialization.
//!
//! This module is the byte-level half of the network front end (the socket
//! half is [`listener`](crate::listener)): it reads one HTTP/1.1 request —
//! request line, headers, `content-length`-framed body — off any
//! [`BufRead`], maps it onto the in-process [`Request`] every handler already
//! consumes, and serializes a [`Response`] back into transmitted bytes.
//!
//! ## Contract
//!
//! * **Malformed input is a clean 400, never a panic and never a dropped
//!   connection without an answer.** Every parse failure is a typed
//!   [`WireError`]; [`WireError::response`] says what (if anything) to
//!   write before closing. The proptest battery in
//!   `crates/web/tests/wire_proptest.rs` drives random garbage, oversized
//!   and duplicate headers, and truncated bodies through the parser.
//! * **Bounded everything.** Request line, header count, cumulative header
//!   bytes, and body length all have hard limits ([`WireLimits`]); inputs
//!   past them are 400s, not allocations.
//! * **Unknown methods parse.** `POST /a.xml HTTP/1.1` is a well-formed
//!   request for a method the site does not serve — it reaches the handler
//!   (as [`Method::Post`] / [`Method::Other`]) and is answered `405`, it
//!   does not kill the connection.
//! * **HEAD frames honestly.** Serialization advertises
//!   [`Response::content_length`] — the recorded would-be length for a
//!   bodiless HEAD response — and transmits no body bytes.
//!
//! The serialized response is deterministic: status line, the response's
//! own headers in insertion order, then `content-length` and `connection`.
//! That determinism is what lets the equivalence suite assert wire bytes
//! against in-process handler calls byte for byte.

use crate::http::{Method, Request, Response};
use std::io::{self, BufRead};

/// Hard bounds the parser enforces before allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLimits {
    /// Longest accepted request line, in bytes.
    pub max_request_line: usize,
    /// Most accepted header lines per request.
    pub max_headers: usize,
    /// Longest accepted single header line, in bytes.
    pub max_header_line: usize,
    /// Largest accepted `content-length` body.
    pub max_body: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

/// Everything that can go wrong reading one request off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Clean EOF at a request boundary — the client is done; close
    /// silently.
    Closed,
    /// EOF or I/O failure mid-request (including a body shorter than its
    /// `content-length`).
    Truncated,
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine(String),
    /// The version is not HTTP/1.0 or HTTP/1.1.
    BadVersion(String),
    /// A header line has no `:` or an empty/whitespace-bearing name.
    BadHeader(String),
    /// More header lines than [`WireLimits::max_headers`].
    TooManyHeaders,
    /// A line longer than its limit.
    LineTooLong,
    /// `content-length` is not a decimal integer, or appears more than
    /// once (request smuggling guard: conflicting lengths are never
    /// reconciled, they are rejected).
    BadContentLength(String),
    /// `transfer-encoding` framing is not implemented; reject rather than
    /// misframe.
    UnsupportedTransferEncoding,
    /// A body larger than [`WireLimits::max_body`].
    BodyTooLarge(u64),
    /// An I/O error other than an interrupted read (a read timeout
    /// included).
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "request truncated"),
            WireError::BadRequestLine(line) => write!(f, "malformed request line: {line:?}"),
            WireError::BadVersion(version) => write!(f, "unsupported version: {version:?}"),
            WireError::BadHeader(line) => write!(f, "malformed header: {line:?}"),
            WireError::TooManyHeaders => write!(f, "too many headers"),
            WireError::LineTooLong => write!(f, "line too long"),
            WireError::BadContentLength(value) => write!(f, "bad content-length: {value:?}"),
            WireError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported")
            }
            WireError::BodyTooLarge(len) => write!(f, "body too large: {len} bytes"),
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The response to write before closing the connection, if any: a 400
    /// for malformed requests, nothing for clean closes and transport-level
    /// failures (there is no one left to read it).
    pub fn response(&self) -> Option<Response> {
        match self {
            WireError::Closed | WireError::Io(_) => None,
            WireError::Truncated => Some(Response::bad_request("truncated request")),
            other => Some(Response::bad_request(&other.to_string())),
        }
    }
}

/// One parsed wire request: the in-process [`Request`] plus the wire
/// details (version, body) the handler does not consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    method: Method,
    target: String,
    http11: bool,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl WireRequest {
    /// The parsed method (never fails — unknown tokens are
    /// [`Method::Other`]).
    pub fn method(&self) -> Method {
        self.method
    }

    /// The request target as sent (e.g. `/a.xml`), query string stripped.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// `true` for HTTP/1.1 (keep-alive by default), `false` for HTTP/1.0.
    pub fn is_http11(&self) -> bool {
        self.http11
    }

    /// The framed request body (empty without a `content-length`).
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// First value of header `name` (case-insensitive).
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this exchange:
    /// HTTP/1.1 unless `connection: close`, HTTP/1.0 only with an
    /// explicit `connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header_value("connection") {
            Some(value) if value.eq_ignore_ascii_case("close") => false,
            Some(value) if value.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// Maps onto the in-process [`Request`] the handlers consume, headers
    /// carried verbatim.
    pub fn to_request(&self) -> Request {
        let mut request = Request::new(self.method, self.target.clone());
        for (name, value) in &self.headers {
            request = request.header(name.clone(), value.clone());
        }
        request
    }
}

/// A resumable, push-based HTTP/1.1 request parser — the single grammar
/// behind both the blocking [`read_request`] and the event-loop
/// listener's readiness-driven connections.
///
/// Feed bytes in with [`push`](RequestParser::push) as they arrive (any
/// split: whole segments, single bytes, mid-header fragments) and drain
/// completed requests with [`next_request`](RequestParser::next_request),
/// which returns `Ok(None)` when it needs more input. Parse state is
/// carried across calls, so a request split across readiness events
/// resumes exactly where it left off — and several requests pushed in one
/// segment (HTTP/1.1 pipelining) come back one by one, in order.
///
/// Errors are terminal: after an `Err` the parser refuses further work
/// (the connection is dead; the error's [`WireError::response`] says what
/// to write before closing).
#[derive(Debug)]
pub struct RequestParser {
    limits: WireLimits,
    buf: Vec<u8>,
    pos: usize,
    state: ParseState,
    blanks: u32,
}

#[derive(Debug)]
enum ParseState {
    /// Waiting for (or mid-) the request line.
    Line,
    /// Request line parsed; reading header lines.
    Headers {
        method: Method,
        target: String,
        http11: bool,
        headers: Vec<(String, String)>,
        content_length: Option<u64>,
    },
    /// Headers done; waiting for `len` body bytes.
    Body {
        method: Method,
        target: String,
        http11: bool,
        headers: Vec<(String, String)>,
        len: usize,
    },
    /// A previous call returned `Err`; the stream is unrecoverable.
    Failed,
}

/// What a line extraction attempt yielded.
enum LineStep {
    /// A complete line (CR stripped).
    Line(Vec<u8>),
    /// No newline buffered yet (and the partial line is within bounds).
    NeedMore,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new(WireLimits::default())
    }
}

impl RequestParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: WireLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            pos: 0,
            state: ParseState::Line,
            blanks: 0,
        }
    }

    /// Appends newly received bytes to the parse buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing, so a long-lived
        // keep-alive connection's buffer stays proportional to the
        // *unparsed* tail, not to total traffic.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// `true` when the parser sits at a request boundary with nothing
    /// buffered — the state in which a peer close is a clean EOF rather
    /// than a truncation, and an idle connection is safe to reap.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ParseState::Line) && self.pos >= self.buf.len()
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete request, if the buffer holds one.
    ///
    /// `Ok(Some(_))` — a full request was parsed and consumed;
    /// `Ok(None)` — more input is needed (push more bytes, call again);
    /// `Err(_)` — the stream is malformed; terminal.
    pub fn next_request(&mut self) -> Result<Option<WireRequest>, WireError> {
        match self.drive() {
            Err(error) => {
                self.state = ParseState::Failed;
                Err(error)
            }
            ok => ok,
        }
    }

    fn take_line(&mut self, limit: usize) -> Result<LineStep, WireError> {
        let pending = &self.buf[self.pos..];
        match pending.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                let mut line = pending[..newline].to_vec();
                self.pos += newline + 1;
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > limit {
                    return Err(WireError::LineTooLong);
                }
                Ok(LineStep::Line(line))
            }
            None => {
                if pending.len() > limit {
                    return Err(WireError::LineTooLong);
                }
                Ok(LineStep::NeedMore)
            }
        }
    }

    fn drive(&mut self) -> Result<Option<WireRequest>, WireError> {
        loop {
            match &mut self.state {
                ParseState::Failed => {
                    return Err(WireError::Closed);
                }
                ParseState::Line => {
                    let line = match self.take_line(self.limits.max_request_line)? {
                        LineStep::Line(line) => line,
                        LineStep::NeedMore => return Ok(None),
                    };
                    if line.is_empty() {
                        // Bounded tolerance for blank lines between
                        // requests, per RFC 9112.
                        self.blanks += 1;
                        if self.blanks > 4 {
                            return Err(WireError::BadRequestLine(String::new()));
                        }
                        continue;
                    }
                    self.blanks = 0;
                    let (method, target, http11) = parse_request_line(&line)?;
                    self.state = ParseState::Headers {
                        method,
                        target,
                        http11,
                        headers: Vec::new(),
                        content_length: None,
                    };
                }
                ParseState::Headers { .. } => {
                    let line = match self.take_line(self.limits.max_header_line)? {
                        LineStep::Line(line) => line,
                        LineStep::NeedMore => return Ok(None),
                    };
                    let ParseState::Headers {
                        method,
                        target,
                        http11,
                        headers,
                        content_length,
                    } = &mut self.state
                    else {
                        unreachable!("state checked above");
                    };
                    if line.is_empty() {
                        // End of headers: frame the body.
                        let request = WireRequest {
                            method: *method,
                            target: std::mem::take(target),
                            http11: *http11,
                            headers: std::mem::take(headers),
                            body: Vec::new(),
                        };
                        match *content_length {
                            Some(len) if len > self.limits.max_body as u64 => {
                                return Err(WireError::BodyTooLarge(len));
                            }
                            Some(len) if len > 0 => {
                                self.state = ParseState::Body {
                                    method: request.method,
                                    target: request.target,
                                    http11: request.http11,
                                    headers: request.headers,
                                    len: len as usize,
                                };
                            }
                            _ => {
                                self.state = ParseState::Line;
                                return Ok(Some(request));
                            }
                        }
                        continue;
                    }
                    if headers.len() >= self.limits.max_headers {
                        return Err(WireError::TooManyHeaders);
                    }
                    let (name, value) = parse_header(&line)?;
                    if name == "content-length" {
                        // Any repetition is rejected — conflicting lengths
                        // are the classic smuggling vector, and even
                        // agreeing duplicates buy nothing worth the
                        // ambiguity.
                        if content_length.is_some() {
                            return Err(WireError::BadContentLength(value));
                        }
                        match value.parse::<u64>() {
                            Ok(len) => *content_length = Some(len),
                            Err(_) => return Err(WireError::BadContentLength(value)),
                        }
                    }
                    if name == "transfer-encoding" {
                        return Err(WireError::UnsupportedTransferEncoding);
                    }
                    headers.push((name, value));
                }
                ParseState::Body { len, .. } => {
                    let len = *len;
                    if self.buf.len() - self.pos < len {
                        return Ok(None);
                    }
                    let body = self.buf[self.pos..self.pos + len].to_vec();
                    self.pos += len;
                    let ParseState::Body {
                        method,
                        target,
                        http11,
                        headers,
                        ..
                    } = std::mem::replace(&mut self.state, ParseState::Line)
                    else {
                        unreachable!("state checked above");
                    };
                    return Ok(Some(WireRequest {
                        method,
                        target,
                        http11,
                        headers,
                        body,
                    }));
                }
            }
        }
    }
}

/// Splits and validates `METHOD SP TARGET SP HTTP/1.x`, stripping any
/// query string from the target.
fn parse_request_line(line: &[u8]) -> Result<(Method, String, bool), WireError> {
    let text = String::from_utf8_lossy(line).into_owned();
    let mut parts = text.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(WireError::BadRequestLine(text.clone())),
    };
    if method.chars().any(|c| !c.is_ascii_alphanumeric()) {
        return Err(WireError::BadRequestLine(text.clone()));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(WireError::BadVersion(version.to_string())),
    };
    if !target.starts_with('/') && target != "*" {
        return Err(WireError::BadRequestLine(text.clone()));
    }
    // The site has no query semantics; strip `?…` so `/a.xml?x=1` still
    // addresses `a.xml` (dropped, not misread as part of the key).
    let target = target.split('?').next().unwrap_or(target).to_string();
    Ok((Method::parse(method), target, http11))
}

/// Reads one line up to `limit` bytes, tolerating both CRLF and bare LF.
/// `Ok(None)` is a clean EOF **before any byte**; EOF mid-line is
/// [`WireError::Truncated`].
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(WireError::Truncated)
            };
        }
        if let Some(newline) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..newline]);
            reader.consume(newline + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > limit {
                return Err(WireError::LineTooLong);
            }
            return Ok(Some(line));
        }
        // No newline in this chunk: take it all and keep reading — but
        // never buffer past the limit.
        if line.len() + available.len() > limit {
            return Err(WireError::LineTooLong);
        }
        let taken = available.len();
        line.extend_from_slice(available);
        reader.consume(taken);
    }
}

/// Reads exactly `len` body bytes; EOF short of `len` is
/// [`WireError::Truncated`].
fn read_body(reader: &mut impl BufRead, len: usize) -> Result<Vec<u8>, WireError> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(body)
}

/// Splits a header line into `(name, value)`. Names must be non-empty HTTP
/// tokens (no whitespace — folding and smuggling-shaped names are
/// rejected); values are trimmed.
fn parse_header(line: &[u8]) -> Result<(String, String), WireError> {
    let text = String::from_utf8_lossy(line);
    let Some((name, value)) = text.split_once(':') else {
        return Err(WireError::BadHeader(text.into_owned()));
    };
    let name = name.trim_end();
    if name.is_empty()
        || name
            .chars()
            .any(|c| c.is_ascii_whitespace() || c.is_ascii_control() || c == ':')
        || name != name.trim()
    {
        return Err(WireError::BadHeader(text.into_owned()));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

/// Reads one request with [`WireLimits::default`]: request line,
/// headers, `content-length`-framed body.
///
/// A thin blocking wrapper over [`RequestParser`] — the blocking reader and
/// the event-loop connections parse with the same resumable grammar, so
/// their acceptance and error behavior are identical by construction.
pub fn read_request(reader: &mut impl BufRead) -> Result<WireRequest, WireError> {
    let mut parser = RequestParser::default();
    loop {
        if let Some(request) = parser.next_request()? {
            return Ok(request);
        }
        let chunk_len = match reader.fill_buf() {
            Ok([]) => {
                // EOF: clean at a request boundary, truncation mid-request.
                return Err(if parser.is_idle() {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(chunk) => {
                parser.push(chunk);
                chunk.len()
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        };
        reader.consume(chunk_len);
    }
}

/// Serializes `response` as HTTP/1.1 bytes: status line, the response's
/// headers in insertion order, then the framing pair (`content-length`
/// from [`Response::content_length`], `connection`). `head` suppresses the
/// body bytes — the advertised length is unchanged, which is exactly the
/// HEAD contract.
pub fn serialize_response(response: &Response, head: bool, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + response.body().len());
    out.extend_from_slice(format!("HTTP/1.1 {}\r\n", response.status()).as_bytes());
    for (name, value) in response.headers() {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("content-length: {}\r\n", response.content_length()).as_bytes());
    out.extend_from_slice(
        format!(
            "connection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )
        .as_bytes(),
    );
    if !head {
        out.extend_from_slice(response.body());
    }
    out
}

/// Serializes a [`Request`] as HTTP/1.1 bytes — the client side of the
/// wire, used by the traffic fleet and the equivalence suites. Requests
/// carry no body (the site is read-only), so no `content-length` is
/// emitted.
pub fn serialize_request(request: &Request) -> Vec<u8> {
    let path = request.path();
    let target = if path.starts_with('/') {
        path.to_string()
    } else {
        format!("/{path}")
    };
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(format!("{} {target} HTTP/1.1\r\n", request.method()).as_bytes());
    for (name, value) in request.headers() {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// A response parsed back off the wire — the client-side complement of
/// [`serialize_response`], used by tests and the traffic fleet to check
/// what actually crossed the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// The numeric status code.
    pub status: u16,
    /// Headers in transmission order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty for HEAD).
    pub body: Vec<u8>,
}

impl WireResponse {
    /// First value of header `name` (case-insensitive).
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one response off the wire. `head` says whether the request was a
/// HEAD (no body follows regardless of `content-length`).
pub fn read_response(reader: &mut impl BufRead, head: bool) -> Result<WireResponse, WireError> {
    let limits = WireLimits::default();
    let status_line = match read_line(reader, limits.max_request_line)? {
        None => return Err(WireError::Closed),
        Some(line) => line,
    };
    let text = String::from_utf8_lossy(&status_line).into_owned();
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| WireError::BadRequestLine(text.clone()))?;
    let mut headers = Vec::new();
    let mut content_length = 0u64;
    loop {
        let line = match read_line(reader, limits.max_header_line)? {
            None => return Err(WireError::Truncated),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        let (name, value) = parse_header(&line)?;
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| WireError::BadContentLength(value.clone()))?;
        }
        headers.push((name, value));
    }
    let body = if head {
        Vec::new()
    } else {
        read_body(reader, content_length as usize)?
    };
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(input: &[u8]) -> Result<WireRequest, WireError> {
        read_request(&mut Cursor::new(input.to_vec()))
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse(b"GET /a.xml HTTP/1.1\r\nhost: museum\r\n\r\n").unwrap();
        assert_eq!(r.method(), Method::Get);
        assert_eq!(r.target(), "/a.xml");
        assert!(r.is_http11());
        assert!(r.wants_keep_alive());
        assert_eq!(r.header_value("Host"), Some("museum"));
        assert!(r.body().is_empty());
        let request = r.to_request();
        assert_eq!(request.path(), "/a.xml");
        assert_eq!(request.header_value("host"), Some("museum"));
    }

    #[test]
    fn parses_navsep_headers_and_body_framing() {
        let r = parse(
            b"POST /a.xml HTTP/1.1\r\nx-navsep-at-generation: 3\r\ncontent-length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(r.method(), Method::Post);
        assert_eq!(r.header_value("x-navsep-at-generation"), Some("3"));
        assert_eq!(r.body(), b"hello");
    }

    #[test]
    fn unknown_methods_are_represented_not_rejected() {
        let r = parse(b"BREW /a.xml HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method(), Method::Other);
        assert_eq!(r.to_request().method(), Method::Other);
    }

    #[test]
    fn tolerates_bare_lf_and_leading_blank_lines() {
        let r = parse(b"\r\n\nGET /a.xml HTTP/1.0\nconnection: keep-alive\n\n").unwrap();
        assert!(!r.is_http11());
        assert!(r.wants_keep_alive(), "explicit keep-alive on 1.0");
        let plain10 = parse(b"GET /a.xml HTTP/1.0\r\n\r\n").unwrap();
        assert!(!plain10.wants_keep_alive(), "1.0 defaults to close");
        let close11 = parse(b"GET /a.xml HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!close11.wants_keep_alive());
    }

    #[test]
    fn query_strings_are_stripped() {
        let r = parse(b"GET /a.xml?version=2&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.target(), "/a.xml");
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for garbage in [
            &b"GET\r\n\r\n"[..],
            b"GET /a.xml\r\n\r\n",
            b"GET /a.xml HTTP/1.1 extra\r\n\r\n",
            b"GET /a.xml HTTP/2\r\n\r\n",
            b"GET a.xml HTTP/1.1\r\n\r\n",
            b"G@T /a.xml HTTP/1.1\r\n\r\n",
            b" GET /a.xml HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(garbage).unwrap_err();
            let response = err.response().expect("malformed input gets an answer");
            assert_eq!(response.status().code(), 400, "{err}");
        }
    }

    #[test]
    fn header_validation() {
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err(),
            WireError::BadHeader(_)
        ));
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\nbad name: x\r\n\r\n").unwrap_err(),
            WireError::BadHeader(_)
        ));
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\n: empty\r\n\r\n").unwrap_err(),
            WireError::BadHeader(_)
        ));
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err(),
            WireError::UnsupportedTransferEncoding
        ));
    }

    #[test]
    fn duplicate_and_bad_content_length_rejected() {
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nxx")
                .unwrap_err(),
            WireError::BadContentLength(_)
        ));
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\ncontent-length: nope\r\n\r\n").unwrap_err(),
            WireError::BadContentLength(_)
        ));
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\ncontent-length: -1\r\n\r\n").unwrap_err(),
            WireError::BadContentLength(_)
        ));
    }

    #[test]
    fn truncated_inputs_are_clean_errors() {
        assert_eq!(parse(b"").unwrap_err(), WireError::Closed);
        assert_eq!(parse(b"GET /a.xml HT").unwrap_err(), WireError::Truncated);
        assert_eq!(
            parse(b"GET /a HTTP/1.1\r\nhost: x\r\n").unwrap_err(),
            WireError::Truncated,
            "EOF before the blank line"
        );
        assert_eq!(
            parse(b"GET /a HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort").unwrap_err(),
            WireError::Truncated,
            "body shorter than its content-length"
        );
        assert!(WireError::Closed.response().is_none());
        assert_eq!(
            WireError::Truncated.response().unwrap().status().code(),
            400
        );
    }

    #[test]
    fn limits_are_enforced() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
        assert_eq!(
            parse(long_target.as_bytes()).unwrap_err(),
            WireError::LineTooLong
        );
        let mut many = String::from("GET /a HTTP/1.1\r\n");
        for i in 0..100 {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert_eq!(
            parse(many.as_bytes()).unwrap_err(),
            WireError::TooManyHeaders
        );
        assert!(matches!(
            parse(b"GET /a HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n").unwrap_err(),
            WireError::BodyTooLarge(_)
        ));
    }

    #[test]
    fn response_serialization_frames_get_and_head() {
        let response = Response::ok("text/plain", bytes::Bytes::from("hello"))
            .with_header("x-navsep-generation", "7");
        let get = serialize_response(&response, false, true);
        let text = String::from_utf8(get.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: text/plain\r\n"));
        assert!(text.contains("x-navsep-generation: 7\r\n"));
        assert!(text.contains("content-length: 5\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));

        // HEAD: same framing headers (length included!), no body bytes.
        let head = serialize_response(&response.clone().without_body(), true, false);
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("content-length: 5\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"), "no body after the blank line");
    }

    #[test]
    fn request_serialization_round_trips() {
        let request = Request::head("a.xml").header("x-navsep-if-generation", "2");
        let bytes = serialize_request(&request);
        let parsed = read_request(&mut Cursor::new(bytes)).unwrap();
        assert_eq!(parsed.method(), Method::Head);
        assert_eq!(parsed.target(), "/a.xml", "bare paths gain the wire slash");
        assert_eq!(parsed.header_value("x-navsep-if-generation"), Some("2"));
    }

    #[test]
    fn response_round_trips_through_the_client_parser() {
        let response = Response::not_found("ghost.xml").with_header("x-navsep-generation", "4");
        let bytes = serialize_response(&response, false, false);
        let parsed = read_response(&mut Cursor::new(bytes), false).unwrap();
        assert_eq!(parsed.status, 404);
        assert_eq!(parsed.header_value("x-navsep-generation"), Some("4"));
        assert_eq!(parsed.body, response.body().as_ref());
    }
}
