//! A minimal hand-rolled HTTP/1.1 layer.
//!
//! The build environment has no registry access, so instead of an async
//! stack this module implements exactly what the job API needs over
//! `std::net`: blocking request parsing (request line, headers,
//! `Content-Length` body), plain responses, and chunked transfer encoding
//! for the row streams. One thread per connection; every response closes
//! the connection (`Connection: close`), which keeps the state machine
//! trivial and is plenty for a campaign-submission workload where the
//! expensive part is the integration, not the socket.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Largest accepted request body (campaign specs are small; a bound keeps
/// a misbehaving client from ballooning the daemon).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Largest accepted request line / header line.
pub const MAX_LINE: usize = 64 * 1024;

/// Largest accepted header count (a hostile client must not grow the
/// header vector unboundedly).
pub const MAX_HEADERS: usize = 100;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Path without the query string (e.g. `/jobs/j1/rows`).
    pub path: String,
    /// Query pairs in arrival order, split on `&` and `=`. No
    /// percent-decoding — the API's keys and values are all URL-safe.
    pub query: Vec<(String, String)>,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The client token, if any: `Authorization: Bearer <token>` wins,
    /// then the `X-Pom-Token` convenience header.
    pub fn token(&self) -> Option<&str> {
        if let Some(auth) = self.header("authorization") {
            let token = auth.strip_prefix("Bearer ").unwrap_or(auth).trim();
            if !token.is_empty() {
                return Some(token);
            }
        }
        self.header("x-pom-token").filter(|t| !t.is_empty())
    }
}

/// Read error carrying the HTTP status the connection should answer with.
#[derive(Debug)]
pub enum RequestError {
    /// Client closed without sending a request (not an error to report).
    Closed,
    /// Malformed request; respond with the given status + message.
    Bad(u16, String),
    /// Transport failure.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

fn read_crlf_line(r: &mut impl BufRead) -> Result<String, RequestError> {
    let mut line = Vec::new();
    let n = r
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(RequestError::Io)?;
    if n == 0 {
        return Err(RequestError::Closed);
    }
    if !line.ends_with(b"\n") {
        // A full `MAX_LINE` without a newline is too long; anything shorter
        // stopped at end of input, so the request was cut off.
        return Err(if n == MAX_LINE {
            RequestError::Bad(431, "header line too long".into())
        } else {
            RequestError::Bad(400, "request truncated before end of line".into())
        });
    }
    while line.ends_with(b"\n") || line.ends_with(b"\r") {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| RequestError::Bad(400, "request line or header is not UTF-8".into()))
}

/// Parse one request from the stream (a `&mut TcpStream` in the daemon,
/// any reader in tests).
pub fn read_request<R: Read>(stream: R) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_crlf_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::Bad(
            400,
            format!("malformed request line `{request_line}`"),
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(505, format!("unsupported {version}")));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query: Vec<(String, String)> = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), "1".to_string()),
        })
        .collect();

    // Headers: framed by Content-Length; the rest are kept (lower-cased)
    // for the auth layer, under a hard count bound.
    let mut content_length: usize = 0;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_crlf_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::Bad(
                431,
                format!("more than {MAX_HEADERS} headers"),
            ));
        }
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| RequestError::Bad(400, format!("bad Content-Length `{value}`")))?;
            if content_length > MAX_BODY {
                return Err(RequestError::Bad(
                    413,
                    format!("body of {content_length} bytes exceeds the {MAX_BODY} limit"),
                ));
            }
        }
        headers.push((name, value.to_string()));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(RequestError::Io)?;
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// The standard reason phrase for the statuses this API uses.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write a complete (non-chunked) response and flush. `started` is when
/// the request began; every response carries the server-side handling
/// time as an `X-Pom-Elapsed-Us` header.
pub(crate) fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    started: Instant,
) -> io::Result<()> {
    respond_extra(stream, status, content_type, body, started, &[])
}

/// [`respond`] with additional headers (e.g. `Retry-After` on a 503).
pub(crate) fn respond_extra(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    started: Instant,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nX-Pom-Elapsed-Us: {}\r\n",
        reason(status),
        body.len(),
        started.elapsed().as_micros()
    )?;
    for (name, value) in extra {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"Connection: close\r\n\r\n")?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The admission-control rejection: written on the *accept* thread,
/// before any request bytes are read or a handler thread is spawned —
/// an over-limit client must not cost the daemon more than this write.
pub(crate) fn respond_busy(
    stream: &mut TcpStream,
    retry_after_secs: u32,
    msg: &str,
) -> io::Result<()> {
    let body = crate::api::error_json(msg);
    write!(
        stream,
        "HTTP/1.1 503 {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: {retry_after_secs}\r\nConnection: close\r\n\r\n",
        reason(503),
        body.len(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Write a JSON response.
pub(crate) fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    started: Instant,
) -> io::Result<()> {
    respond(stream, status, "application/json", body, started)
}

/// Begin a chunked response (the row streams). The elapsed header covers
/// time-to-first-byte — headers go out before the stream body.
pub(crate) fn begin_chunked(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    started: Instant,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nX-Pom-Elapsed-Us: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        started.elapsed().as_micros()
    )
}

/// Write one chunk (skips empty input: an empty chunk terminates the
/// stream in the chunked encoding).
pub(crate) fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked response.
pub(crate) fn end_chunked(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}
