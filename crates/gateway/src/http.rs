//! A hand-rolled, incremental HTTP/1.1 message layer (no external
//! dependencies, consistent with the workspace's offline ethos).
//!
//! [`RequestParser`] is a push parser: feed it whatever bytes the
//! socket produced ([`push`](RequestParser::push)), then ask for
//! complete requests ([`next_request`](RequestParser::next_request)).
//! Requests split across arbitrary read boundaries — including
//! mid-request-line, mid-header, or mid-body — reassemble identically
//! (pinned by `tests/http_edge_cases.rs`), and several pipelined
//! requests pushed at once pop out one at a time.
//!
//! The subset implemented is exactly what the gateway serves:
//!
//! * request line + headers + optional `Content-Length` body;
//! * HTTP/1.1 (keep-alive by default) and HTTP/1.0 (close by
//!   default), with `Connection: close` / `keep-alive` overrides;
//! * hard limits on header-block and body size, surfaced as typed
//!   [`HttpError`]s that map onto 400/413/431 responses;
//! * no `Transfer-Encoding` (rejected as unsupported, 400), no
//!   multiline header folding (rejected, 400).

use std::fmt;

/// Parser limits. Both bounds are enforced *before* buffering grows
/// past them, so a hostile peer cannot balloon gateway memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes in the request line + header block (including
    /// the terminating blank line).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    /// A 16 KiB head, and the body bound `h2p-served` puts on one
    /// request line, so one figure bounds a request at both front doors.
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: h2p_serve::protocol::MAX_REQUEST_BYTES,
        }
    }
}

/// A malformed or over-limit request, with its HTTP status mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HttpError {
    /// Syntactically invalid request line or header (400).
    Malformed(String),
    /// `Content-Length` missing digits, duplicated inconsistently, or
    /// non-numeric (400).
    BadContentLength(String),
    /// Header block exceeded [`HttpLimits::max_head_bytes`] (431).
    HeadTooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// Declared body exceeds [`HttpLimits::max_body_bytes`] (413).
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured limit it exceeds.
        limit: usize,
    },
    /// HTTP version other than 1.0 / 1.1 (505).
    UnsupportedVersion(String),
}

impl HttpError {
    /// The status code this error is answered with.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) | HttpError::BadContentLength(_) => 400,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedVersion(_) => 505,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::BadContentLength(detail) => write!(f, "bad content-length: {detail}"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "header block exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, verbatim (e.g. `POST`).
    pub method: String,
    /// Request target, verbatim (e.g. `/run`).
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Headers in wire order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name, if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and a
    /// `Connection` header overrides either way.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Incremental push parser over one connection's byte stream.
#[derive(Debug)]
pub struct RequestParser {
    limits: HttpLimits,
    // h2p-lint: allow(L7): growth is clamped by max_head_bytes /
    // max_body_bytes before every extend; see `push`.
    buf: Vec<u8>,
    /// Parsed head waiting for its body bytes.
    pending: Option<(Request, usize)>,
}

impl RequestParser {
    /// A parser with the given limits.
    #[must_use]
    pub fn new(limits: HttpLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            pending: None,
        }
    }

    /// Appends bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a returned request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete request, `Ok(None)` when more bytes are
    /// needed. After an `Err` the stream is unrecoverable (framing is
    /// lost); the caller answers with [`HttpError::status`] and
    /// closes.
    ///
    /// # Errors
    ///
    /// Any [`HttpError`]: malformed syntax, over-limit head or body,
    /// or an unsupported version.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            if let Some((_, need)) = &self.pending {
                if self.buf.len() < *need {
                    return Ok(None);
                }
                let (mut request, need) = match self.pending.take() {
                    Some(pending) => pending,
                    None => return Ok(None),
                };
                request.body = self.buf.drain(..need).collect();
                return Ok(Some(request));
            }
            match self.take_head()? {
                None => return Ok(None),
                Some((request, body_len)) => {
                    self.pending = Some((request, body_len));
                    // Loop around to try completing the body from
                    // bytes already buffered (pipelining).
                }
            }
        }
    }

    /// Parses the head if its terminating blank line has arrived.
    fn take_head(&mut self) -> Result<Option<(Request, usize)>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge {
                    limit: self.limits.max_head_bytes,
                });
            }
            return Ok(None);
        };
        if head_end > self.limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge {
                limit: self.limits.max_head_bytes,
            });
        }
        let head: Vec<u8> = self.buf.drain(..head_end).collect();
        let text = std::str::from_utf8(&head)
            .map_err(|_| HttpError::Malformed("non-UTF-8 header block".to_owned()))?;
        let mut lines = text.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::Malformed("empty head".to_owned()))?;
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v))
                if !m.is_empty() && !t.is_empty() && parts.next().is_none() =>
            {
                (m.to_owned(), t.to_owned(), v)
            }
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad request line {request_line:?}"
                )))
            }
        };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => return Err(HttpError::UnsupportedVersion(other.to_owned())),
        };
        let mut headers = Vec::new();
        for line in lines {
            // The head ends "\r\n\r\n", so splitting leaves two empty
            // tails; anything after a blank line was already excluded
            // by `find_head_end`.
            if line.is_empty() {
                continue;
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                return Err(HttpError::Malformed(
                    "obsolete header folding is not supported".to_owned(),
                ));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!(
                    "header without colon {line:?}"
                )));
            };
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::Malformed(format!("bad header name {name:?}")));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
        if headers.iter().any(|(name, _)| name == "transfer-encoding") {
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported; send content-length".to_owned(),
            ));
        }
        let body_len = content_length(&headers)?;
        if body_len > self.limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: body_len,
                limit: self.limits.max_body_bytes,
            });
        }
        Ok(Some((
            Request {
                method,
                target,
                http11,
                headers,
                body: Vec::new(),
            },
            body_len,
        )))
    }
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4)
}

/// The declared body length: 0 when absent, an error when garbage or
/// inconsistently repeated.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut declared: Option<usize> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let parsed: usize = value
            .parse()
            .map_err(|_| HttpError::BadContentLength(format!("not a number: {value:?}")))?;
        match declared {
            Some(previous) if previous != parsed => {
                return Err(HttpError::BadContentLength(format!(
                    "conflicting values {previous} and {parsed}"
                )))
            }
            _ => declared = Some(parsed),
        }
    }
    Ok(declared.unwrap_or(0))
}

/// One response to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (names must already be valid token case).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("content-type".to_owned(), "application/json".to_owned())],
            body: body.into(),
        }
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The canonical reason phrase for this status.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Response",
        }
    }

    /// Serializes the response, honoring the connection decision.
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).as_bytes());
        out.extend_from_slice(format!("content-length: {}\r\n", self.body.len()).as_bytes());
        out.extend_from_slice(if keep_alive {
            b"connection: keep-alive\r\n".as_slice()
        } else {
            b"connection: close\r\n".as_slice()
        });
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> RequestParser {
        RequestParser::new(HttpLimits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let mut p = parser();
        p.push(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        let req = p.next_request().unwrap().expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/run");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive());
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn keep_alive_defaults_follow_version_and_connection_overrides() {
        let cases = [
            ("HTTP/1.1", None, true),
            ("HTTP/1.1", Some("close"), false),
            ("HTTP/1.0", None, false),
            ("HTTP/1.0", Some("keep-alive"), true),
        ];
        for (version, connection, expect) in cases {
            let mut p = parser();
            let extra = connection.map_or(String::new(), |c| format!("Connection: {c}\r\n"));
            p.push(format!("GET / {version}\r\n{extra}\r\n").as_bytes());
            let req = p.next_request().unwrap().expect("complete");
            assert_eq!(req.keep_alive(), expect, "{version} {connection:?}");
        }
    }

    #[test]
    fn responses_serialize_with_framing_headers_first() {
        let bytes = Response::json(200, "{}").to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
