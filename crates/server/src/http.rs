//! A deliberately small HTTP/1.1 codec over `std::io` — just enough for
//! the JSON campaign API: request line + headers + `Content-Length`
//! bodies in, status + JSON bodies out, with keep-alive. No chunked
//! transfer, no TLS, no percent-decoding beyond `%XX` in query values.

use std::io::{self, Write};

/// Upper bounds keeping a misbehaving client from ballooning memory.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path with the query string stripped (e.g. `/campaigns/3/price`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Trace id from an `x-ft-trace` header, if the client sent one
    /// (propagated through the handler and echoed on the response).
    pub trace: Option<u64>,
}

impl Request {
    /// First query value under `key`.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An outgoing response: status code + body + content type.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub content_type: &'static str,
    /// Trace id echoed back as an `x-ft-trace` response header.
    pub trace: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            trace: None,
        }
    }

    /// Plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4",
            trace: None,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Incremental request parse over a byte buffer — the only request
/// parser; the reactor feeds it each connection's input. Returns:
///
/// - `Ok(Some((request, consumed)))` — one complete request parsed
///   from `buf[..consumed]`; the caller drains that prefix and calls
///   again (pipelined requests parse back-to-back).
/// - `Ok(None)` — the buffer holds only a prefix of a request; read
///   more bytes and retry.
/// - `Err(_)` — the bytes can never become a valid request (bad
///   request line / content-length, a head over `MAX_HEADER_BYTES`
///   summed across all its lines, or a body over `MAX_BODY_BYTES`).
pub fn parse_request(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
    // Find the first empty line: headers end there, body starts after.
    let mut line_start = 0usize;
    let mut body_start = None;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let mut line = &buf[line_start..i];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.is_empty() {
            body_start = Some(i + 1);
            break;
        }
        line_start = i + 1;
    }
    let Some(body_start) = body_start else {
        // Still inside the head: give up once it can no longer fit the
        // header budget, otherwise wait for more bytes.
        if buf.len() > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "headers too large",
            ));
        }
        return Ok(None);
    };
    if body_start > MAX_HEADER_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "headers too large",
        ));
    }

    let head = std::str::from_utf8(&buf[..body_start])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "headers not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad request line",
            ))
        }
    };
    let mut content_length = 0usize;
    let mut keep_alive = version != "HTTP/1.0";
    let mut trace = None;
    for header in lines {
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-ft-trace") {
            // A malformed id is ignored, not a 400: tracing is
            // best-effort and must never fail a request.
            trace = ft_trace::parse_trace_id(value);
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let Some(body_bytes) = buf.get(body_start..body_start + content_length) else {
        return Ok(None); // body not fully buffered yet
    };
    let body = String::from_utf8(body_bytes.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not UTF-8"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Some((
        Request {
            method,
            path,
            query,
            body,
            keep_alive,
            trace,
        },
        body_start + content_length,
    )))
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decode `%XX` escapes and `+` (space); invalid escapes pass through.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
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
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Write a response; `keep_alive` controls the `Connection` header.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    if let Some(trace) = response.trace {
        write!(writer, "x-ft-trace: {trace:016x}\r\n")?;
    }
    write!(writer, "\r\n{}", response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot parse of a buffer holding exactly one request.
    fn parse(raw: &str) -> Request {
        let (request, consumed) = parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        request
    }

    /// Everything a parse produces, in comparable form.
    type Fields = (
        String,
        String,
        Vec<(String, String)>,
        String,
        bool,
        Option<u64>,
    );

    fn fields(request: &Request) -> Fields {
        (
            request.method.clone(),
            request.path.clone(),
            request.query.clone(),
            request.body.clone(),
            request.keep_alive,
            request.trace,
        )
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /campaigns/3/observations?note=a%20b&x=1 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns/3/observations");
        assert_eq!(req.query("note"), Some("a b"));
        assert_eq!(req.query("x"), Some("1"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn empty_buffer_is_incomplete() {
        assert!(parse_request(b"").unwrap().is_none());
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse_request(raw.as_bytes()).is_err());
    }

    #[test]
    fn newline_less_flood_errors_instead_of_buffering() {
        // An endless byte stream with no '\n', fed the way the reactor
        // feeds a connection, must hit the header budget and error as
        // soon as it is over — not wait for more bytes forever.
        let mut buf = Vec::new();
        loop {
            buf.extend_from_slice(&[b'a'; 1024]);
            match parse_request(&buf) {
                Ok(None) => assert!(buf.len() <= MAX_HEADER_BYTES),
                Ok(Some(_)) => panic!("a newline-less flood parsed as a request"),
                Err(_) => break,
            }
        }
        assert!(buf.len() <= MAX_HEADER_BYTES + 1024);
    }

    #[test]
    fn incremental_parse_waits_for_complete_requests() {
        let raw = b"POST /campaigns/quotes HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).expect("prefix parses").is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/campaigns/quotes");
        assert_eq!(request.body, "body");
        assert!(request.keep_alive);
    }

    #[test]
    fn incremental_parse_walks_pipelined_requests() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(first.keep_alive);
        let (second, rest) = parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(!second.keep_alive);
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn incremental_parse_enforces_budgets() {
        // Headroom exhausted with no terminator in sight: error, so the
        // reactor can 400 a slowloris instead of buffering forever.
        let endless = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert!(parse_request(&endless).is_err());
        // Oversized declared body: error up front.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse_request(huge.as_bytes()).is_err());
        // Garbage request line: error once the head terminator arrives.
        assert!(parse_request(b"nope\r\n\r\n").is_err());
    }

    #[test]
    fn header_budget_spans_all_header_lines() {
        // Many small header lines must exhaust the same budget.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            raw.push_str(&format!("X-Filler-{i}: {}\r\n", "v".repeat(64)));
        }
        raw.push_str("\r\n");
        assert!(parse_request(raw.as_bytes()).is_err());
    }

    /// A generated request: its wire bytes and the fields it must parse
    /// to. `style` picks LF-only line ends (bit 0), an `x-ft-trace`
    /// header (bit 1) and lower-case header names (bit 2).
    fn generated(
        method: usize,
        id: u64,
        body_len: usize,
        keep_alive: bool,
        style: usize,
    ) -> (String, Fields) {
        let eol = if style & 1 == 0 { "\r\n" } else { "\n" };
        let method = ["GET", "POST", "DELETE", "PUT"][method];
        let body: String = (0..body_len)
            .map(|i| match i % 9 {
                8 => '\n',
                k => char::from(b'a' + ((id as usize + k) % 26) as u8),
            })
            .collect();
        let (length, connection) = if style & 4 == 0 {
            ("Content-Length", "Connection")
        } else {
            ("content-length", "connection")
        };
        let mut raw = format!(
            "{method} /campaigns/{id}/price?remaining={}&note=a%20b%2B{id} HTTP/1.1{eol}Host: x{eol}",
            id % 97
        );
        if body_len > 0 {
            raw.push_str(&format!("{length}: {body_len}{eol}"));
        }
        if !keep_alive {
            raw.push_str(&format!("{connection}: close{eol}"));
        }
        let trace = (style & 2 != 0).then_some(id);
        if let Some(trace) = trace {
            raw.push_str(&format!("x-ft-trace: {trace:x}{eol}"));
        }
        raw.push_str(eol);
        raw.push_str(&body);
        let expected = (
            method.to_string(),
            format!("/campaigns/{id}/price"),
            vec![
                ("remaining".to_string(), (id % 97).to_string()),
                ("note".to_string(), format!("a b+{id}")),
            ],
            body,
            keep_alive,
            trace,
        );
        (raw, expected)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pipelined_requests_parse_the_same_at_any_split(
            requests in proptest::collection::vec(
                (0usize..4, 1u64..1_000_000, 0usize..200, proptest::bool::ANY, 0usize..8),
                1..6,
            ),
            cuts in proptest::collection::vec(0usize..4096, 0..8),
        ) {
            let mut raw = Vec::new();
            let mut expected = Vec::new();
            for &(method, id, body_len, keep_alive, style) in &requests {
                let (bytes, fields) = generated(method, id, body_len, keep_alive, style);
                raw.extend_from_slice(bytes.as_bytes());
                expected.push(fields);
            }

            // One shot: the whole burst is in the buffer.
            let mut one_shot = Vec::new();
            let mut at = 0;
            while at < raw.len() {
                let Some((request, consumed)) = parse_request(&raw[at..]).unwrap() else {
                    break;
                };
                one_shot.push(fields(&request));
                at += consumed;
            }
            prop_assert_eq!(at, raw.len());
            prop_assert_eq!(&one_shot, &expected);

            // Incremental: the same bytes arrive in pieces cut at
            // arbitrary points, and the buffer is drained the way the
            // reactor drains a connection's input.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (raw.len() + 1)).collect();
            cuts.push(raw.len());
            cuts.sort_unstable();
            let mut buf = Vec::new();
            let mut pieced = Vec::new();
            let mut from = 0;
            for cut in cuts {
                buf.extend_from_slice(&raw[from..cut]);
                from = cut;
                while let Some((request, consumed)) = parse_request(&buf).unwrap() {
                    pieced.push(fields(&request));
                    buf.drain(..consumed);
                }
            }
            prop_assert!(buf.is_empty(), "{} bytes left unparsed", buf.len());
            prop_assert_eq!(&pieced, &one_shot);
        }

        #[test]
        fn garbage_and_oversize_input_errs_without_panicking(
            noise in proptest::collection::vec(0u8..255, 0..600),
            filler in 1usize..40,
            kind in 0usize..4,
        ) {
            // Arbitrary bytes may be incomplete, but never panic and
            // never claim more than they hold.
            if let Ok(Some((_, consumed))) = parse_request(&noise) {
                prop_assert!(consumed <= noise.len());
            }

            let token: String = noise.iter().map(|b| char::from(b'!' + b % 94)).collect();
            let raw = match kind {
                // A request line that is one token long.
                0 => format!("{token}\r\n\r\n"),
                // A head over the budget, spread across `filler` lines.
                1 => {
                    let line = format!("X-Filler: {}\r\n", "v".repeat(MAX_HEADER_BYTES / filler));
                    format!("GET / HTTP/1.1\r\n{}\r\n", line.repeat(filler))
                }
                // A declared body over the budget.
                2 => format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n{token}",
                    MAX_BODY_BYTES + 1 + noise.len()
                ),
                // A content length that is not a number.
                _ => format!("POST / HTTP/1.1\r\nContent-Length: x{token}\r\n\r\n"),
            };
            prop_assert!(parse_request(raw.as_bytes()).is_err(), "accepted {raw:?}");
        }
    }
}
