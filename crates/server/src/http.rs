//! Minimal HTTP/1.1 plumbing over [`std::net`].
//!
//! The build environment vendors no HTTP stack, so the serving layer
//! speaks the smallest useful protocol subset by hand: request line +
//! headers + `Content-Length` bodies on the way in; fixed-length or
//! chunked (`Transfer-Encoding: chunked`) responses on the way out.
//! Every connection carries exactly one request (`Connection: close`),
//! which keeps the parser trivial and makes per-request latency
//! directly measurable from connect to close.
//!
//! Chunked responses carry the session protocol's *frames*: each chunk
//! is one complete JSON document on its own line, flushed immediately,
//! so a client can act on the first result combinations while the
//! engine is still joining tiles — the chapter's progressive answer
//! integration, made visible on the wire.
//!
//! The client half ([`call`], [`stream`]) exists for the bencher and
//! the integration tests; it records time-to-first-frame, the serving
//! metric the fixed-length path cannot expose.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed request: method, path (query string split off into
/// `params`, both halves percent-decoded), and the raw text body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method verb (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path component without the query string, e.g. `/session/7/more`.
    pub path: String,
    /// Decoded query-string parameters.
    pub params: BTreeMap<String, String>,
    /// Request body (the query text for `POST /query`).
    pub body: String,
}

impl Request {
    /// The query-string parameter `name`, when present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(|s| s.as_str())
    }

    /// `name` parsed as an integer, or `default` when absent/invalid.
    pub fn param_usize(&self, name: &str, default: usize) -> usize {
        self.param(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Percent-decodes one URL component (`+` is a space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match s
                .get(i + 1..i + 3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 3;
                }
                None => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Largest request body the daemon reads. Query bodies are a few
/// hundred bytes; anything larger is refused before it is allocated.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest request head (request line plus headers) the daemon reads.
/// Real heads are a few hundred bytes; a longer one is refused before
/// more of it is buffered.
pub const MAX_HEADER_BYTES: usize = 8 << 10;

/// How long a read on an accepted connection may wait for the client.
/// Clients send the whole request at once, so a connection that stays
/// silent this long is closed instead of pinning its handler thread.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a write on an accepted connection may wait for the client
/// to drain its receive buffer before the connection is closed.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Reads one line of the request head, charging it to `budget`.
/// `Some("")` at EOF; `None` when the line overruns what is left of the
/// budget (at most `budget + 1` bytes are read in that case).
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.take(*budget as u64 + 1).read_line(&mut line)?;
    if n > *budget {
        return Ok(None);
    }
    *budget -= n;
    Ok(Some(line))
}

/// Answers 431 to a head over [`MAX_HEADER_BYTES`]. The rest of the head
/// is read and discarded first (in bounded pieces, at most
/// [`MAX_BODY_BYTES`] of it), so closing the connection does not reset
/// it before the client reads the answer.
fn refuse_head(stream: &TcpStream, reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut tail = reader.take(MAX_BODY_BYTES as u64);
    let mut piece = Vec::new();
    loop {
        piece.clear();
        let n = (&mut tail)
            .take(MAX_HEADER_BYTES as u64)
            .read_until(b'\n', &mut piece)?;
        if n == 0 || piece == b"\r\n" || piece == b"\n" {
            break;
        }
    }
    let body = r#"{"error":"request header too large"}"#;
    respond_json(&mut stream.try_clone()?, 431, body)?;
    Ok(None)
}

/// Reads one request off the connection. `None` when there is nothing
/// to dispatch: a clean EOF before any bytes (client connected and went
/// away), a head over [`MAX_HEADER_BYTES`] (answered 431), or a declared
/// body over [`MAX_BODY_BYTES`] (answered 413). Both refusals happen
/// before any buffer is sized from the client's input.
pub fn parse_request(stream: &TcpStream) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut budget = MAX_HEADER_BYTES;
    let Some(line) = read_head_line(&mut reader, &mut budget)? else {
        return refuse_head(stream, &mut reader);
    };
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "request line has no target"))?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (url_decode(k), url_decode(v))
        })
        .collect();
    let mut content_length = 0usize;
    loop {
        let Some(header) = read_head_line(&mut reader, &mut budget)? else {
            return refuse_head(stream, &mut reader);
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    if content_length > MAX_BODY_BYTES {
        let body = r#"{"error":"request body too large"}"#;
        respond_json(&mut stream.try_clone()?, 413, body)?;
        return Ok(None);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path: path.to_owned(),
        params,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length JSON response and flushes.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Incremental frame writer: a chunked HTTP response where every chunk
/// is one newline-terminated JSON document, flushed as written.
pub struct ChunkedWriter {
    stream: TcpStream,
}

impl ChunkedWriter {
    /// Sends the response head and returns the frame writer.
    pub fn begin(stream: &TcpStream, status: u16) -> io::Result<Self> {
        let mut stream = stream.try_clone()?;
        write!(
            stream,
            "HTTP/1.1 {status} {}\r\nContent-Type: application/jsonlines\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status),
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one frame (a full JSON document) as its own chunk.
    pub fn frame(&mut self, json: &str) -> io::Result<()> {
        write!(self.stream, "{:x}\r\n{json}\n\r\n", json.len() + 1)?;
        self.stream.flush()
    }

    /// Terminates the chunk stream.
    pub fn finish(mut self) -> io::Result<()> {
        write!(self.stream, "0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A fully read client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Decoded body: chunked frames are concatenated in arrival order.
    pub body: String,
    /// Connect-to-first-body-frame latency — for a streamed query, the
    /// time until the first combinations were usable at the client.
    pub time_to_first_chunk: Duration,
    /// Connect-to-close latency.
    pub total: Duration,
}

/// Issues one request and reads the entire response (fixed-length or
/// chunked), timing first-frame arrival along the way.
pub fn stream(addr: &str, method: &str, target: &str, body: &str) -> io::Result<ClientResponse> {
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: seco\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    conn.flush()?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut chunked = false;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if header == "transfer-encoding: chunked" {
            chunked = true;
        } else if let Some(v) = header.strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let mut body_text = String::new();
    let mut first_chunk: Option<Duration> = None;
    if chunked {
        loop {
            let mut size_line = String::new();
            if reader.read_line(&mut size_line)? == 0 {
                break;
            }
            let n = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
            if n == 0 {
                let mut trailer = String::new();
                let _ = reader.read_line(&mut trailer);
                break;
            }
            let mut buf = vec![0u8; n + 2]; // payload + CRLF
            reader.read_exact(&mut buf)?;
            if first_chunk.is_none() {
                first_chunk = Some(start.elapsed());
            }
            body_text.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    } else {
        let mut buf = Vec::new();
        match content_length {
            Some(n) => {
                buf.resize(n, 0);
                reader.read_exact(&mut buf)?;
            }
            None => {
                reader.read_to_end(&mut buf)?;
            }
        }
        if !buf.is_empty() {
            first_chunk = Some(start.elapsed());
        }
        body_text = String::from_utf8_lossy(&buf).into_owned();
    }
    let total = start.elapsed();
    Ok(ClientResponse {
        status,
        body: body_text,
        time_to_first_chunk: first_chunk.unwrap_or(total),
        total,
    })
}

/// [`stream`] without the timing detail: `(status, body)`.
pub fn call(addr: &str, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
    let r = stream(addr, method, target, body)?;
    Ok((r.status, r.body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding_handles_percent_and_plus() {
        assert_eq!(url_decode("a+b%20c%3D1"), "a b c=1");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
    }
}
