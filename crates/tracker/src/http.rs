//! A deliberately tiny HTTP subset — just enough for the tracker's
//! `GET /announce?…` and `GET /scrape?…` endpoints. 2010-era trackers
//! spoke HTTP/1.0 one-shot; the serving daemon ([`crate::serve`]) needs
//! keep-alive and pipelining, so requests are framed incrementally
//! (headers + `Content-Length` bodies) and responses always carry an
//! exact `Content-Length`, letting any number of exchanges share one
//! connection.

use std::io::{BufRead, BufReader, Read, Write};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Path without the query string (e.g. `/announce`).
    pub path: String,
    /// Raw query string (no leading `?`), possibly empty.
    pub query: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, or an explicit `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// Attempts to parse one complete request from the front of `buf`
/// without consuming from a stream — the serving daemon's non-blocking
/// sockets accumulate bytes into per-connection buffers and call this
/// until it stops returning requests.
///
/// Returns `Ok(Some((request, consumed)))` when a whole request
/// (headers plus any `Content-Length` body) is present, `Ok(None)` when
/// more bytes are needed, and `Err` for garbage (non-GET, no HTTP
/// request line, a header section past 16 KiB, or a declared body past
/// 64 KiB — the caller would otherwise buffer it).
pub fn try_parse_request(buf: &[u8]) -> std::io::Result<Option<(Request, usize)>> {
    const MAX_HEAD: usize = 16 * 1024;
    const MAX_BODY: usize = 64 * 1024;
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => i,
        None => {
            if buf.len() > MAX_HEAD {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "header section too large",
                ));
            }
            return Ok(None);
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not an HTTP request line",
        ));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            } else if name.eq_ignore_ascii_case("content-length") {
                // Unparsable (or past usize) is refused below, never
                // read as 0: the body would frame as the next request.
                content_length = value.parse().unwrap_or(usize::MAX);
            }
        }
    }
    let total = Some(content_length)
        .filter(|&len| len <= MAX_BODY)
        .and_then(|len| (head_end + 4).checked_add(len))
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad or oversized Content-Length")
        })?;
    if buf.len() < total {
        return Ok(None); // body still in flight
    }
    if method != "GET" {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unsupported method {method:?}"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Some((
        Request {
            path,
            query,
            keep_alive,
        },
        total,
    )))
}

/// Writes a `200 OK` response with a binary body. The exact
/// `Content-Length` makes the response self-framing, so keep-alive
/// clients know precisely where the next pipelined response begins.
pub fn write_ok<W: Write>(mut stream: W, body: &[u8]) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes an error response. Errors end the conversation, so the
/// connection is marked for close.
pub fn write_error<W: Write>(mut stream: W, code: u16, reason: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )?;
    stream.flush()
}

/// Reads one response from a buffered stream, returning the body on 200
/// or an error otherwise. Stops exactly at `Content-Length`, so a
/// keep-alive client can call this repeatedly on the same reader.
pub fn read_response_from<R: BufRead>(reader: &mut R) -> std::io::Result<Vec<u8>> {
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(len) => {
            body.resize(len, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    if code != 200 {
        return Err(std::io::Error::other(format!("HTTP {code}")));
    }
    Ok(body)
}

/// Reads a response, returning the body on 200 or an error otherwise.
pub fn read_response<R: Read>(stream: R) -> std::io::Result<Vec<u8>> {
    read_response_from(&mut BufReader::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one complete request at the front of `raw`.
    fn parse_one(raw: &[u8]) -> Request {
        let (req, used) = try_parse_request(raw).unwrap().expect("complete request");
        assert_eq!(used, raw.len());
        req
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse_one(b"GET /announce?a=1&b=2 HTTP/1.0\r\nHost: x\r\nUser-Agent: t\r\n\r\n");
        assert_eq!(req.path, "/announce");
        assert_eq!(req.query, "a=1&b=2");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn parses_get_without_query() {
        let req = parse_one(b"GET /scrape HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/scrape");
        assert_eq!(req.query, "");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_overrides_version_default() {
        assert!(!parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn rejects_post() {
        let raw = b"POST /announce HTTP/1.0\r\n\r\n";
        let err = try_parse_request(raw).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"GET /a?x=1 HTTP/1.1\r\n\r\nGET /b?y=2 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, used) = try_parse_request(raw).unwrap().unwrap();
        assert_eq!((first.path.as_str(), first.query.as_str()), ("/a", "x=1"));
        assert!(first.keep_alive);
        let (second, used2) = try_parse_request(&raw[used..]).unwrap().unwrap();
        assert_eq!((second.path.as_str(), second.query.as_str()), ("/b", "y=2"));
        assert!(!second.keep_alive);
        assert_eq!(used + used2, raw.len());
        assert!(try_parse_request(&raw[used + used2..]).unwrap().is_none(), "nothing left");
    }

    #[test]
    fn request_body_is_drained_for_framing() {
        // A body between two pipelined requests must not desynchronise
        // the parser: the first frame ends after its declared body.
        let raw = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n";
        let (first, used) = try_parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(&raw[used - 5..used], b"hello");
        assert_eq!(parse_one(&raw[used..]).path, "/b");
    }

    #[test]
    fn try_parse_handles_partial_and_pipelined() {
        let wire = b"GET /a?x=1 HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        // Byte-by-byte arrival: no prefix short of the full head parses.
        for cut in 0..31 {
            assert!(try_parse_request(&wire[..cut]).unwrap().is_none(), "cut={cut}");
        }
        let (first, used) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!((first.path.as_str(), first.query.as_str()), ("/a", "x=1"));
        let (second, used2) = try_parse_request(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn try_parse_waits_for_declared_body() {
        let wire = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        assert!(try_parse_request(wire).unwrap().is_none(), "body incomplete");
        let full = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let (_, used) = try_parse_request(full).unwrap().unwrap();
        assert_eq!(used, full.len());
    }

    #[test]
    fn try_parse_rejects_garbage() {
        assert!(try_parse_request(b"\xff\xff\xff\xff garbage\r\n\r\n").is_err());
        assert!(try_parse_request(b"POST /a HTTP/1.1\r\n\r\n").is_err());
        // An unterminated flood of header bytes errors out instead of
        // buffering forever.
        let flood = vec![b'A'; 20 * 1024];
        assert!(try_parse_request(&flood).is_err());
    }

    #[test]
    fn try_parse_rejects_oversized_content_length() {
        // usize::MAX would overflow the frame end.
        let wire = b"GET /announce HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
        assert_eq!(wire.len(), 64);
        let err = try_parse_request(wire).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A body past the cap is refused up front instead of buffered.
        let wire = b"GET /a HTTP/1.1\r\nContent-Length: 65537\r\n\r\n";
        let err = try_parse_request(wire).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let wire = b"GET /a HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n";
        assert!(try_parse_request(wire).is_err(), "a length past usize is refused too");
        let wire = b"GET /a HTTP/1.1\r\nContent-Length: 65536\r\n\r\n";
        assert!(try_parse_request(wire).unwrap().is_none(), "body at the cap still waits");
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_ok(&mut wire, b"d8:intervali900ee").unwrap();
        let body = read_response(&wire[..]).unwrap();
        assert_eq!(body, b"d8:intervali900ee");
    }

    #[test]
    fn pipelined_responses_frame_by_content_length() {
        let mut wire = Vec::new();
        write_ok(&mut wire, b"first").unwrap();
        write_ok(&mut wire, b"second").unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_response_from(&mut reader).unwrap(), b"first");
        assert_eq!(read_response_from(&mut reader).unwrap(), b"second");
    }

    #[test]
    fn error_response_surfaces_code() {
        let mut wire = Vec::new();
        write_error(&mut wire, 404, "Not Found").unwrap();
        let err = read_response(&wire[..]).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn binary_bodies_survive() {
        let body: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let mut wire = Vec::new();
        write_ok(&mut wire, &body).unwrap();
        assert_eq!(read_response(&wire[..]).unwrap(), body);
    }
}
