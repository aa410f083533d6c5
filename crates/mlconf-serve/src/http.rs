//! The serve tier's HTTP/1.1 codec: one incremental parser and two
//! writers, shared by the server's IO shards and the client. It covers
//! just enough of the protocol for a JSON API: a start line, headers
//! and a `Content-Length` body each way. There is no chunked encoding,
//! no TLS and no compression; a request outside the subset is answered
//! with a clean 4xx/5xx rather than undefined behavior.
//!
//! [`parse`] reads a byte buffer that its caller fills as bytes arrive.
//! It returns `Ok(None)` until the buffer holds a whole message, then
//! the message and the number of bytes it used; pipelined bytes after
//! them are left for the next call. It fails fast, before the peer
//! finishes sending, once a prefix breaks a limit, and validates the
//! rest once the message is complete. End of stream is the caller's to
//! handle: the parser never sees a socket.

use std::io::Write;

/// Limits applied while reading one message.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Maximum bytes for the start line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes for the body (`Content-Length` above this is
    /// refused with 413 without reading the body).
    pub max_body_bytes: usize,
}

impl Default for ReadLimits {
    fn default() -> Self {
        ReadLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Why a message cannot be read: the status a server answers with
/// before it closes the connection, and a short reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status (400/413/431/501/505).
    pub status: u16,
    /// Short human-readable reason.
    pub message: String,
}

fn bad(status: u16, message: impl Into<String>) -> HttpError {
    HttpError {
        status,
        message: message.into(),
    }
}

/// The first line of a message: what tells a request from a response.
pub trait StartLine: Sized {
    /// `"request"` or `"response"`, for error messages.
    const KIND: &'static str;
    /// Parses the line, without its line ending.
    ///
    /// # Errors
    ///
    /// The status and reason for a malformed line.
    fn parse(line: &str) -> Result<Self, HttpError>;
}

/// A request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestLine {
    /// The method as sent, e.g. `GET`.
    pub method: String,
    /// Path with any `?query` stripped.
    pub path: String,
}

impl StartLine for RequestLine {
    const KIND: &'static str = "request";

    fn parse(line: &str) -> Result<Self, HttpError> {
        let malformed = || bad(400, "malformed request line");
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or("");
        let target = parts.next().ok_or_else(malformed)?;
        let version = parts.next().ok_or_else(malformed)?;
        if parts.next().is_some() || method.is_empty() {
            return Err(malformed());
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(bad(505, "unsupported HTTP version"));
        }
        let path = target.split('?').next().unwrap_or("");
        if !path.starts_with('/') {
            return Err(bad(400, "request target must be an absolute path"));
        }
        Ok(RequestLine {
            method: method.to_owned(),
            path: path.to_owned(),
        })
    }
}

/// A status line; only the code is kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusLine {
    /// The status code, e.g. 200.
    pub status: u16,
}

impl StartLine for StatusLine {
    const KIND: &'static str = "response";

    fn parse(line: &str) -> Result<Self, HttpError> {
        line.split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .map(|status| StatusLine { status })
            .ok_or_else(|| bad(400, "malformed status line"))
    }
}

/// One parsed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<S> {
    /// The first line.
    pub start: S,
    /// Lowercased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: String,
}

/// A parsed request.
pub type Request = Message<RequestLine>;
/// A parsed response.
pub type Response = Message<StatusLine>;

impl<S> Message<S> {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the sender asked to close the connection after this
    /// message.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Parses one message off the front of `buf`, which holds every byte
/// received and not yet used.
///
/// Returns `Ok(None)` while `buf` holds only a prefix of a message, and
/// `Ok(Some((message, used)))` once `buf[..used]` holds a whole one.
/// Lines may end in CRLF or a bare LF.
///
/// # Errors
///
/// In this order:
/// 1. 431 once `max_head_bytes` bytes hold no end of head;
/// 2. 413 from the head alone when the first `content-length` is over
///    `max_body_bytes`;
/// 3. once the whole message is in `buf`, the first violation found in
///    the start line ([`StartLine::parse`]), then the headers (non-UTF-8
///    or colon-less lines, 400), then `transfer-encoding` (501), an
///    unparseable `content-length` (400) and a non-UTF-8 body (400).
pub fn parse<S: StartLine>(
    buf: &[u8],
    limits: &ReadLimits,
) -> Result<Option<(Message<S>, usize)>, HttpError> {
    let head_too_large = || bad(431, format!("{} head too large", S::KIND));
    let Some(head_len) = head_len(buf) else {
        // Once the buffer reaches the head budget without an end of
        // head, the eventual head can only be over it.
        if buf.len() >= limits.max_head_bytes {
            return Err(head_too_large());
        }
        return Ok(None);
    };
    if head_len > limits.max_head_bytes {
        return Err(head_too_large());
    }
    let head = &buf[..head_len];
    // Framing reads the head before it is validated: the first
    // `content-length` line decides, and one that does not parse frames
    // the head alone, to be refused below.
    let declared = first_content_length(head);
    let body_len = declared.and_then(parse_len).unwrap_or(0);
    let body_too_large = || bad(413, format!("{} body too large", S::KIND));
    if body_len > limits.max_body_bytes {
        return Err(body_too_large());
    }
    let used = head_len.checked_add(body_len).ok_or_else(body_too_large)?;
    let Some(body) = buf.get(head_len..used) else {
        return Ok(None);
    };

    let utf8 = |line| {
        std::str::from_utf8(line).map_err(|_| bad(400, format!("{} head is not UTF-8", S::KIND)))
    };
    let mut lines = lines(head);
    let start = S::parse(utf8(lines.next().unwrap_or_default())?)?;
    let mut headers = Vec::new();
    for line in lines {
        let line = utf8(line)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(400, "malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let message = Message {
        start,
        headers,
        body: String::new(),
    };
    if message
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(bad(501, "transfer-encoding is not supported"));
    }
    if declared.is_some_and(|v| parse_len(v).is_none()) {
        return Err(bad(400, "invalid content-length"));
    }
    let body = std::str::from_utf8(body)
        .map_err(|_| bad(400, format!("{} body is not UTF-8", S::KIND)))?
        .to_owned();
    Ok(Some((Message { body, ..message }, used)))
}

/// The length of the head: every byte up to and including the first
/// empty line, if `buf` holds one yet.
fn head_len(buf: &[u8]) -> Option<usize> {
    let mut pos = 0;
    while let Some(rel) = buf[pos..].iter().position(|&b| b == b'\n') {
        let line = &buf[pos..pos + rel];
        pos += rel + 1;
        if line.is_empty() || line == b"\r" {
            return Some(pos);
        }
    }
    None
}

/// The complete lines of `buf`, each without its `\n` and one `\r`
/// before it.
fn lines(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    buf.split_inclusive(|&b| b == b'\n').map_while(|line| {
        let line = line.strip_suffix(b"\n")?;
        Some(line.strip_suffix(b"\r").unwrap_or(line))
    })
}

/// The raw value of the first header line named `content-length`,
/// read off an unvalidated head.
fn first_content_length(head: &[u8]) -> Option<&[u8]> {
    lines(head).skip(1).find_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        let name = std::str::from_utf8(&line[..colon]).ok()?;
        name.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| &line[colon + 1..])
    })
}

fn parse_len(value: &[u8]) -> Option<usize> {
    std::str::from_utf8(value).ok()?.trim().parse().ok()
}

/// The reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Appends one request to `out`, with a `Content-Length` even for an
/// empty body; `close` asks the server to close the connection after
/// answering.
pub fn write_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    host: &str,
    body: &str,
    close: bool,
) {
    let connection = if close { "connection: close\r\n" } else { "" };
    // Writing to a Vec cannot fail.
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
}

/// Appends one JSON response to `out`. `retry_after_secs` adds a
/// `Retry-After` header: the load-shedding paths (429/503) set it so
/// well-behaved clients know when to come back instead of hammering a
/// saturated server.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    close: bool,
    retry_after_secs: Option<u64>,
) {
    let connection = if close { "close" } else { "keep-alive" };
    let retry_after = retry_after_secs.map_or(String::new(), |s| format!("retry-after: {s}\r\n"));
    // Writing to a Vec cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n{retry_after}\r\n{body}",
        reason(status),
        body.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(input: &str) -> Result<Option<(Request, usize)>, HttpError> {
        parse(input.as_bytes(), &ReadLimits::default())
    }

    fn status_of<S: std::fmt::Debug>(result: Result<Option<S>, HttpError>) -> u16 {
        match result {
            Err(e) => e.status,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn parses_request_with_body() {
        let input = "POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let (r, used) = read(input).unwrap().unwrap();
        assert_eq!(used, input.len());
        assert_eq!(r.start.method, "POST");
        assert_eq!(r.start.path, "/sessions");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, "{\"a\":1}");
        assert!(!r.wants_close());
    }

    #[test]
    fn strips_query_and_honors_connection_close() {
        let (r, _) = read("GET /sessions/s1?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.start.path, "/sessions/s1");
        assert!(r.wants_close());
    }

    #[test]
    fn an_empty_buffer_is_incomplete() {
        assert_eq!(read(""), Ok(None));
    }

    #[test]
    fn rejects_protocol_violations() {
        let cases = [
            ("BROKEN\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("GET noslash HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nbadheader\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ];
        for (input, expect) in cases {
            assert_eq!(status_of(read(input)), expect, "{input:?}");
        }
    }

    #[test]
    fn oversized_body_and_head_are_refused() {
        let limits = ReadLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let too_big_body = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert_eq!(
            status_of(parse::<RequestLine>(too_big_body.as_bytes(), &limits)),
            413
        );
        let huge_head = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(100));
        assert_eq!(
            status_of(parse::<RequestLine>(huge_head.as_bytes(), &limits)),
            431
        );
    }

    #[test]
    fn parsing_is_incremental() {
        let limits = ReadLimits::default();
        let full = b"POST /s HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        // Every proper prefix is incomplete; the full buffer parses.
        for cut in 0..full.len() {
            assert_eq!(
                parse::<RequestLine>(&full[..cut], &limits),
                Ok(None),
                "cut {cut}"
            );
        }
        let (_, used) = parse::<RequestLine>(full, &limits).unwrap().unwrap();
        assert_eq!(used, full.len());
        // A pipelined second request is not part of the first.
        let mut pipelined = full.to_vec();
        pipelined.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        let (_, used) = parse::<RequestLine>(&pipelined, &limits).unwrap().unwrap();
        assert_eq!(used, full.len());
        // No body, bare-LF terminators.
        let (_, used) = parse::<RequestLine>(b"GET / HTTP/1.1\nHost: x\n\n", &limits)
            .unwrap()
            .unwrap();
        assert_eq!(used, 24);
    }

    #[test]
    fn parsing_fails_fast_on_limits() {
        let limits = ReadLimits {
            max_head_bytes: 32,
            max_body_bytes: 8,
        };
        // Head budget exhausted before any terminator: 431 now, not
        // after the peer trickles in the rest.
        let endless = vec![b'y'; 32];
        assert_eq!(status_of(parse::<RequestLine>(&endless, &limits)), 431);
        // Declared body over budget: 413 from the head alone (the head
        // itself fits its budget, so only the body limit trips).
        let limits = ReadLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let big = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert_eq!(status_of(parse::<RequestLine>(big, &limits)), 413);
        // Invalid content-length: the head alone is the message, and it
        // is refused as soon as it is complete.
        let bad_cl = b"POST / HTTP/1.1\r\nContent-Length: no\r\n\r\n";
        let limits = ReadLimits::default();
        assert_eq!(status_of(parse::<RequestLine>(bad_cl, &limits)), 400);
        assert_eq!(
            parse::<RequestLine>(&bad_cl[..bad_cl.len() - 1], &limits),
            Ok(None)
        );
    }

    #[test]
    fn responses_parse_with_the_same_function() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "{}", true, Some(3));
        let (r, used) = parse::<StatusLine>(&out, &ReadLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(used, out.len());
        assert_eq!(r.start.status, 429);
        assert_eq!(r.header("retry-after"), Some("3"));
        assert!(r.wants_close());
        assert_eq!(r.body, "{}");
        // A declared length that cannot be added to the head's is an
        // error, never an allocation.
        let limits = ReadLimits {
            max_head_bytes: 1024,
            max_body_bytes: usize::MAX,
        };
        let huge = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", usize::MAX);
        assert_eq!(
            status_of(parse::<StatusLine>(huge.as_bytes(), &limits)),
            413
        );
    }

    #[test]
    fn response_has_framing_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", false, None);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn written_requests_parse_back() {
        for close in [false, true] {
            let mut out = Vec::new();
            write_request(&mut out, "POST", "/s/1?x", "h:1", "{\"k\":2}", close);
            let (r, used) = parse::<RequestLine>(&out, &ReadLimits::default())
                .unwrap()
                .unwrap();
            assert_eq!(used, out.len());
            assert_eq!(
                (r.start.method.as_str(), r.start.path.as_str()),
                ("POST", "/s/1")
            );
            assert_eq!(r.header("host"), Some("h:1"));
            assert_eq!(r.body, "{\"k\":2}");
            assert_eq!(r.wants_close(), close);
        }
    }
}

/// The framing scan and the blocking request reader that [`parse`]
/// replaced, kept as the reference it is checked against: a request
/// was framed by [`reference::frame_len`], then the frame was parsed a
/// second time by [`reference::read_request`].
#[cfg(test)]
mod reference {
    use super::{ReadLimits, Request, RequestLine};
    use std::io::{BufRead, BufReader, Read};

    /// Why a request could not be read.
    #[derive(Debug)]
    pub enum ReadError {
        /// The peer closed the connection before sending a request line.
        Closed,
        /// Socket-level failure.
        Io,
        /// A protocol violation to answer with this status.
        Bad { status: u16 },
    }

    impl From<std::io::Error> for ReadError {
        fn from(_: std::io::Error) -> Self {
            ReadError::Io
        }
    }

    fn bad(status: u16, _message: &'static str) -> ReadError {
        ReadError::Bad { status }
    }

    /// What the server made of `buf`: framed, then parsed. `Ok(None)`
    /// while incomplete, an error status, or the request and its frame
    /// length. `Closed`/`Io` on a complete frame would panic here.
    pub fn parse(buf: &[u8], limits: &ReadLimits) -> Result<Option<(Request, usize)>, u16> {
        match frame_len(buf, limits) {
            Err(ReadError::Bad { status }) => Err(status),
            Err(other) => panic!("frame_len cannot fail with {other:?}"),
            Ok(None) => Ok(None),
            Ok(Some(n)) => match read_request(&mut BufReader::new(&buf[..n]), limits) {
                Ok(request) => Ok(Some((request, n))),
                Err(ReadError::Bad { status }) => Err(status),
                Err(other) => panic!("a complete frame read as {other:?}"),
            },
        }
    }

    pub fn read_request<S: Read>(
        stream: &mut BufReader<S>,
        limits: &ReadLimits,
    ) -> Result<Request, ReadError> {
        let mut head_bytes = 0usize;
        let request_line = match read_line(stream, limits.max_head_bytes, &mut head_bytes)? {
            None => return Err(ReadError::Closed),
            Some(line) => line,
        };
        let mut parts = request_line.split(' ');
        let method = parts.next().unwrap_or("").to_owned();
        let target = parts
            .next()
            .ok_or_else(|| bad(400, "malformed request line"))?;
        let version = parts
            .next()
            .ok_or_else(|| bad(400, "malformed request line"))?;
        if parts.next().is_some() || method.is_empty() {
            return Err(bad(400, "malformed request line"));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(bad(505, "unsupported HTTP version"));
        }
        let path = target.split('?').next().unwrap_or("").to_owned();
        if !path.starts_with('/') {
            return Err(bad(400, "request target must be an absolute path"));
        }

        let mut headers = Vec::new();
        loop {
            let line = read_line(stream, limits.max_head_bytes, &mut head_bytes)?
                .ok_or_else(|| bad(400, "connection closed mid-headers"))?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(400, "malformed header"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }

        let request = Request {
            start: RequestLine { method, path },
            headers,
            body: String::new(),
        };
        if request
            .header("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Err(bad(501, "transfer-encoding is not supported"));
        }
        let content_length = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| bad(400, "invalid content-length"))?,
        };
        if content_length > limits.max_body_bytes {
            return Err(bad(413, "request body too large"));
        }
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad(400, "request body is not UTF-8"))?;
        Ok(Request { body, ..request })
    }

    pub fn frame_len(buf: &[u8], limits: &ReadLimits) -> Result<Option<usize>, ReadError> {
        let mut head_end = None;
        let mut pos = 0;
        while let Some(rel) = buf[pos..].iter().position(|&b| b == b'\n') {
            let line = &buf[pos..pos + rel];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            pos += rel + 1;
            if line.is_empty() {
                head_end = Some(pos);
                break;
            }
        }
        let Some(head_end) = head_end else {
            if buf.len() >= limits.max_head_bytes {
                return Err(bad(431, "request head too large"));
            }
            return Ok(None);
        };
        if head_end > limits.max_head_bytes {
            return Err(bad(431, "request head too large"));
        }
        let head = String::from_utf8_lossy(&buf[..head_end]);
        let mut content_length = 0usize;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    match value.trim().parse::<usize>() {
                        Err(_) => break,
                        Ok(n) => {
                            content_length = n;
                            break;
                        }
                    }
                }
            }
        }
        if content_length > limits.max_body_bytes {
            return Err(bad(413, "request body too large"));
        }
        let total = head_end + content_length;
        if buf.len() >= total {
            Ok(Some(total))
        } else {
            Ok(None)
        }
    }

    fn read_line<S: Read>(
        stream: &mut BufReader<S>,
        max_head: usize,
        consumed: &mut usize,
    ) -> Result<Option<String>, ReadError> {
        let mut line = Vec::new();
        let remaining = max_head.saturating_sub(*consumed);
        let mut limited = stream.by_ref().take(remaining as u64 + 1);
        let n = limited.read_until(b'\n', &mut line)?;
        *consumed += n;
        if n == 0 {
            return Ok(None);
        }
        if *consumed > max_head {
            return Err(bad(431, "request head too large"));
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        } else {
            return Err(bad(400, "truncated request"));
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| bad(400, "request head is not UTF-8"))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const SMALL: ReadLimits = ReadLimits {
        max_head_bytes: 48,
        max_body_bytes: 6,
    };

    /// Pieces that make up heads, so generated inputs reach past the
    /// first line far more often than uniform bytes would.
    const TOKENS: &[&[u8]] = &[
        b"GET / HTTP/1.1\r\n",
        b"Content-Length: 9\r\n",
        b"Transfer-Encoding: chunked\n",
        b"GET",
        b"POST",
        b" ",
        b"/",
        b"/s?q",
        b"HTTP/1.1",
        b"HTTP/1.0",
        b"HTTP/2.0",
        b"\r\n",
        b"\n",
        b"\r",
        b":",
        b"Content-Length",
        b" content-length ",
        b"Transfer-Encoding",
        b"identity",
        b"chunked",
        b"Connection: close",
        b"0",
        b"3",
        b"12",
        b"+4",
        b"99999999999999999999999",
        b"x",
        b"\xff",
        b"\xc3\xa9",
        b"\x0b",
        b"\xc2\xa0",
    ];

    fn soup(picks: &[usize]) -> Vec<u8> {
        picks
            .iter()
            .flat_map(|&i| TOKENS[i % TOKENS.len()])
            .copied()
            .collect()
    }

    /// A valid request with `body_len` body bytes: as the client writes
    /// one, or with bare-LF lines, extra headers and spacing variants.
    fn valid(variant: usize, body_len: usize) -> Vec<u8> {
        let body = "b".repeat(body_len);
        let head = match variant % 4 {
            0 => {
                let mut out = Vec::new();
                write_request(&mut out, "POST", "/sessions/s1/report", "h", &body, false);
                return out;
            }
            // `str::trim` whitespace that is not ASCII (NBSP, VT).
            1 => format!("GET /?x HTTP/1.0\ncontent-length:\u{a0}{body_len}\u{b}\n\n"),
            2 => format!("PUT /a HTTP/1.1\r\nTE-x: 1\r\nContent-Length: {body_len}\r\n\r\n"),
            _ => format!(
                "POST /b HTTP/1.1\nTransfer-Encoding: identity\nContent-Length:{body_len}\n\n"
            ),
        };
        format!("{head}{body}").into_bytes()
    }

    /// The new parser and the reference agree on every prefix of
    /// `input` under both limits.
    fn agree_on_prefixes(input: &[u8]) -> Result<(), TestCaseError> {
        for limits in [ReadLimits::default(), SMALL] {
            for cut in 0..=input.len() {
                let prefix = &input[..cut];
                let ours = parse::<RequestLine>(prefix, &limits).map_err(|e| e.status);
                let theirs = reference::parse(prefix, &limits);
                prop_assert_eq!(
                    &ours,
                    &theirs,
                    "prefix {:?} (limits {:?})",
                    String::from_utf8_lossy(prefix),
                    limits
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_match_the_reference(bytes in vec(0u8..=255, 0..96)) {
            agree_on_prefixes(&bytes)?;
        }

        #[test]
        fn token_soup_matches_the_reference(picks in vec(0usize..64, 0..40)) {
            agree_on_prefixes(&soup(&picks))?;
        }

        #[test]
        fn mutated_requests_match_the_reference(
            variant in 0usize..4,
            body_len in 0usize..10,
            edits in vec((0usize..1000, 0usize..64, 0u8..=255), 1..4),
        ) {
            let mut bytes = valid(variant, body_len);
            for (at, pick, byte) in edits {
                let at = at % (bytes.len() + 1);
                // Overwrite, insert a byte, or splice in a token.
                match pick % 3 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    _ => {
                        let token = TOKENS[pick % TOKENS.len()];
                        bytes.splice(at..at, token.iter().copied());
                    }
                }
            }
            agree_on_prefixes(&bytes)?;
        }

        #[test]
        fn arbitrary_bytes_never_panic_either_parser(bytes in vec(0u8..=255, 0..600)) {
            for limits in [ReadLimits::default(), SMALL, ReadLimits { max_head_bytes: 0, max_body_bytes: 0 }] {
                let _ = parse::<RequestLine>(&bytes, &limits);
                let _ = parse::<StatusLine>(&bytes, &limits);
            }
            let unbounded = ReadLimits { max_head_bytes: usize::MAX, max_body_bytes: usize::MAX };
            let _ = parse::<StatusLine>(&bytes, &unbounded);
        }

        #[test]
        fn chunked_pipelines_parse_like_the_whole_buffer(
            requests in vec((0usize..4, 0usize..10), 1..4),
            cuts in vec(0usize..1000, 0..8),
        ) {
            let wire: Vec<u8> = requests.iter().flat_map(|&(v, n)| valid(v, n)).collect();
            let whole = drain_all(std::iter::once(&wire[..]))?;
            prop_assert_eq!(whole.len(), requests.len());
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([wire.len()]) {
                chunks.push(&wire[from..cut]);
                from = cut;
            }
            prop_assert_eq!(drain_all(chunks.into_iter())?, whole);
        }
    }

    /// Feeds `chunks` into one buffer the way an IO shard does, parsing
    /// and draining every complete request after each arrival.
    fn drain_all<'a>(
        chunks: impl Iterator<Item = &'a [u8]>,
    ) -> Result<Vec<Request>, TestCaseError> {
        let mut buf = Vec::new();
        let mut parsed = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            while let Some((request, used)) = parse::<RequestLine>(&buf, &ReadLimits::default())
                .map_err(|e| TestCaseError::Fail(format!("valid pipeline refused: {e:?}")))?
            {
                buf.drain(..used);
                parsed.push(request);
            }
        }
        prop_assert!(buf.is_empty(), "{} bytes left over", buf.len());
        Ok(parsed)
    }
}
