//! A minimal vendored HTTP/1.1 layer for `netart serve`.
//!
//! The no-dependency discipline rules out a web framework, and the
//! server's needs are tiny: parse one request per connection
//! (`Connection: close` semantics), enforce a body-size cap *before*
//! buffering the body, and write one response. So this module is the
//! whole HTTP surface — request line, headers, `Content-Length`
//! bodies. Chunked transfer encoding, keep-alive, and everything else
//! are deliberately refused; clients get a clear `400` instead of a
//! wedged connection.

use std::io::{Read, Write};

/// Upper bound on the request line plus headers. Anything bigger is a
/// malformed or hostile request; refuse before buffering more.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request: the line and the (possibly empty) body.
#[derive(Debug)]
pub(crate) struct Request {
    /// `GET`, `POST`, … — uppercased as received.
    pub method: String,
    /// The request target, query string included, fragment-free as on
    /// the wire.
    pub path: String,
    /// The request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub(crate) enum RequestError {
    /// The declared `Content-Length` exceeds the server's cap — answer
    /// `413` without reading the body.
    BodyTooLarge {
        /// What the client declared.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
    /// Not HTTP/1.1 we understand — answer `400`.
    Malformed(String),
    /// The connection died; nothing to answer.
    Io(std::io::Error),
}

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one request from `stream`, refusing bodies larger
/// than `max_body` bytes before buffering them.
pub(crate) fn read_request<S: Read>(
    stream: &mut S,
    max_body: usize,
) -> Result<Request, RequestError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::Malformed(format!(
                "header section exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut chunk).map_err(RequestError::Io)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                // A probe connection (health checker, port scanner)
                // that never sent anything: not worth an answer.
                RequestError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a request",
                ))
            } else {
                RequestError::Malformed("connection closed mid-header".to_owned())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| RequestError::Malformed("header section is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_owned();

    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header line {line:?}")));
        };
        // RFC 9112 §5.1: no whitespace between the name and the colon.
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(RequestError::Malformed(format!("bad header name {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim();
        if name == "transfer-encoding" {
            return Err(RequestError::Malformed(
                "chunked transfer encoding is not supported; send Content-Length".to_owned(),
            ));
        }
        if name == "content-length" {
            // RFC 9112 §6.3: digits only (`usize::from_str` would take
            // a sign), and repeats must agree, since a proxy that
            // kept another value would frame a different body.
            let parsed = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| RequestError::Malformed(format!("bad Content-Length {value:?}")))?;
            if content_length.is_some_and(|seen| seen != parsed) {
                return Err(RequestError::Malformed(
                    "conflicting Content-Length headers".to_owned(),
                ));
            }
            content_length = Some(parsed);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    let mut body = buf.split_off(head_len + 4);
    if body.len() > content_length {
        // Pipelined trailing bytes; this server is Connection: close,
        // so anything past the declared body is dropped.
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(RequestError::Io)?;
        if n == 0 {
            return Err(RequestError::Malformed(
                "connection closed mid-body".to_owned(),
            ));
        }
        let want = content_length - body.len();
        body.extend_from_slice(&chunk[..n.min(want)]);
    }

    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one `Connection: close` response with the given
/// `Content-Type` (the serve endpoints answer JSON everywhere except
/// the Prometheus `/metrics` text exposition).
pub(crate) fn respond<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str, max_body: usize) -> Result<Request, RequestError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/diagram HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
            1024,
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/diagram");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 1024).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_declared_body_is_refused_before_buffering() {
        // Only the head is sent; the cap must trip on the declaration
        // alone, without waiting for (or storing) body bytes.
        let err = parse(
            "POST /v1/diagram HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
            64,
        )
        .unwrap_err();
        match err {
            RequestError::BodyTooLarge { declared, limit } => {
                assert_eq!(declared, 1_000_000);
                assert_eq!(limit, 64);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_diagnosed() {
        for raw in [
            "NOT-HTTP\r\n\r\n",
            "GET /x SPDY/99\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: soon\r\n\r\n",
            // RFC 9112 §6.3: only digits, and repeated values must agree.
            "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello",
            // RFC 9112 §5.1: no whitespace before the colon.
            "POST /x HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
            // Truncated body: the connection ends before Content-Length.
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        ] {
            assert!(matches!(parse(raw, 64), Err(RequestError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse(
            "POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 3\r\n\r\nabc",
            64,
        )
        .expect("parses");
        assert_eq!(req.body, b"abc");
        // Identical repeats stay legal.
        let req = parse(
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
            64,
        )
        .expect("parses");
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn an_empty_connection_is_an_io_error_not_a_malformed_request() {
        assert!(matches!(parse("", 64), Err(RequestError::Io(_))));
    }

    #[test]
    fn responses_carry_length_close_and_extra_headers() {
        let mut out = Vec::new();
        respond(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1".to_owned())],
            "{\"status\":\"shed\"}",
        )
        .expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 17\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"status\":\"shed\"}"));
    }
}
