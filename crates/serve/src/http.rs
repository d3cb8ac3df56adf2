//! A minimal HTTP/1.1 JSON transport over `std::net::TcpStream`.
//!
//! Just enough protocol for a same-machine control plane: one request
//! per connection (`Connection: close`), JSON bodies encoded with the
//! repo's own [`fiq_core::json`] codec, no chunked encoding, no TLS, no
//! keep-alive. Both the daemon side ([`read_request`]/[`respond`]) and
//! the client side ([`request`]) live here so the framing stays in one
//! place.

use fiq_core::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on accepted body sizes (requests and responses). Submissions
/// inline program source; reports are a few hundred KiB at most. Streams
/// never travel over HTTP — they are files on the shared filesystem.
const MAX_BODY: u64 = 16 * 1024 * 1024;

/// One parsed HTTP request: method, path, and (when present) JSON body.
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Option<Json>,
}

/// Cap on the request or status line plus headers, on both the daemon
/// and the client side. Heads are a few hundred bytes; without a cap one
/// endless header line would grow a `String` until the process runs out
/// of memory.
const MAX_HEAD: u64 = 64 * 1024;

/// How long the daemon gives one connection to deliver its whole
/// request, and each write of the response. The accept loop serves one
/// connection at a time, so without a deadline a client that connects
/// and sends nothing, or trickles bytes, would stall every later
/// request. A request that misses it is answered 400, like any other
/// malformed request.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// The daemon side's reader: every read waits at most for what is left
/// of one deadline, so the whole request is bounded, not each read.
struct Deadline<'a> {
    stream: &'a mut TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn read_head(reader: &mut impl BufRead) -> Result<(String, u64), String> {
    let mut head = reader.take(MAX_HEAD);
    let mut next_line = |what: &str| -> Result<String, String> {
        let mut line = String::new();
        head.read_line(&mut line)
            .map_err(|e| format!("read {what}: {e}"))?;
        if !line.ends_with('\n') {
            // A head line cut short by the cap or by the peer closing:
            // without this an early EOF would read as the blank line
            // ending the head.
            return Err(if head.limit() == 0 {
                format!("HTTP head exceeds {MAX_HEAD} bytes")
            } else {
                format!("connection closed inside the HTTP {what}")
            });
        }
        Ok(line)
    };
    let line = next_line("request line")?.trim_end().to_string();
    let mut content_length = 0u64;
    loop {
        let h = next_line("header")?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    Ok((line, content_length))
}

fn read_body(reader: &mut impl Read, len: u64) -> Result<Option<Json>, String> {
    if len == 0 {
        return Ok(None);
    }
    let mut body = vec![0u8; len as usize];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("body is not JSON: {e}"))
}

/// Reads one request from the stream (the daemon side); all of it must
/// arrive within [`REQUEST_TIMEOUT`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(Deadline {
        stream,
        at: Instant::now() + REQUEST_TIMEOUT,
    });
    let (head, content_length) = read_head(&mut reader)?;
    let mut parts = head.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(format!("malformed request line {head:?}")),
    };
    let body = read_body(&mut reader, content_length)?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        _ => "Internal Server Error",
    }
}

/// Writes one JSON response and flushes (the daemon side); each write
/// waits at most [`REQUEST_TIMEOUT`].
pub fn respond(stream: &mut TcpStream, status: u16, body: &Json) -> Result<(), String> {
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(|e| format!("set write timeout: {e}"))?;
    let text = body.to_string();
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{text}",
        reason(status),
        text.len(),
    )
    .map_err(|e| format!("write response: {e}"))?;
    stream.flush().map_err(|e| format!("flush response: {e}"))
}

/// One round trip from the client side: connect, send, read the reply.
/// Returns the status code and parsed JSON body.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Result<(u16, Json), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let text = body.map(Json::to_string).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{text}",
        text.len(),
    )
    .map_err(|e| format!("send request: {e}"))?;
    stream.flush().map_err(|e| format!("send request: {e}"))?;

    let mut reader = BufReader::new(&mut stream);
    let (head, content_length) = read_head(&mut reader)?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {head:?}"))?;
    let body = read_body(&mut reader, content_length)?.unwrap_or(Json::Null);
    Ok((status, body))
}

/// Unwraps a `(status, body)` pair into the body, turning any non-200
/// status into an error carrying the daemon's `error` message.
pub fn expect_ok(resp: (u16, Json)) -> Result<Json, String> {
    let (status, body) = resp;
    if status == 200 {
        return Ok(body);
    }
    let msg = body
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("unknown error");
    Err(format!("daemon returned {status}: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    /// Sends `raw` to a fresh connection and returns what `read_request`
    /// made of it.
    fn serve_one(raw: Vec<u8>) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may refuse mid-send and close; that is the point.
            let _ = s.write_all(&raw);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        got
    }

    fn submit_request() -> Vec<u8> {
        let body = r#"{"name":"k","source":"int main() { return 0; }","injections":3}"#;
        format!(
            "POST /api/submit HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn a_valid_submit_request_parses() {
        let req = serve_one(submit_request()).expect("valid request");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/api/submit")
        );
        assert!(req.body.is_some_and(|b| b.get("injections").is_some()));
    }

    #[test]
    fn hostile_requests_are_refused() {
        let head =
            |length: &str| format!("POST /api/submit HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "body shorter than Content-Length",
                format!("{}{{}}", head("10")).into_bytes(),
            ),
            (
                "non-UTF-8 body",
                [head("2").as_bytes(), b"\xff\xfe"].concat(),
            ),
            ("non-numeric Content-Length", head("ten").into_bytes()),
            ("negative Content-Length", head("-1").into_bytes()),
            (
                "Content-Length above MAX_BODY",
                head(&(MAX_BODY + 1).to_string()).into_bytes(),
            ),
            ("empty request line", b"\r\n\r\n".to_vec()),
            ("no request at all", Vec::new()),
            (
                "EOF before the blank line",
                b"POST /api/submit HTTP/1.1\r\nHost: x\r\n".to_vec(),
            ),
            (
                "EOF inside a header line",
                b"POST /api/submit HTTP/1.1\r\nHost: x\r".to_vec(),
            ),
        ];
        for (what, raw) in cases {
            assert!(serve_one(raw).is_err(), "{what} must be refused");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every strict prefix of a valid submit request is refused; a
        /// bit-flipped prefix may parse or be refused, but never panics.
        #[test]
        fn truncated_and_bit_flipped_requests_never_panic(
            cut in any::<u64>(),
            flips in prop::collection::vec((any::<u64>(), 0u32..8), 1..4),
        ) {
            let full = submit_request();
            let mut raw = full[..(cut % full.len() as u64) as usize].to_vec();
            prop_assert!(serve_one(raw.clone()).is_err(), "a {}-byte prefix parsed", raw.len());
            if !raw.is_empty() {
                for (pos, bit) in flips {
                    let i = (pos % raw.len() as u64) as usize;
                    raw[i] ^= 1 << bit;
                }
            }
            let _ = serve_one(raw);
        }
    }

    #[test]
    fn an_oversized_header_line_is_refused() {
        let mut raw = b"GET /api/status HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 1 << 20));
        raw.extend(b"\r\n\r\n");
        let err = serve_one(raw).err().expect("1 MiB header must be refused");
        assert!(err.contains("exceeds"), "{err}");
    }
}
