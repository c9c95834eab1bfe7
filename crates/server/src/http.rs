//! A minimal HTTP/1.1 message layer for a non-blocking transport.
//!
//! Just enough protocol for a JSON API behind a trusted load balancer (or a
//! benchmark harness): request-line + header parsing, `Content-Length`
//! bodies, keep-alive negotiation, pipelining and `Expect: 100-continue`.
//! No chunked transfer encoding, no TLS. Everything is bounded: header
//! block and body sizes are capped so one connection cannot balloon server
//! memory.
//!
//! The parser is **incremental**: [`RequestAssembler::step`] consumes
//! whatever bytes have arrived so far and either produces a complete
//! [`Request`], asks for more, or rejects the stream — so the event loop
//! can resume parsing exactly where a partial TCP segment left off, one
//! byte at a time if that is how the peer delivers them. Responses are
//! encoded into an owned buffer ([`encode_response`]) that the transport
//! drains across however many writable-readiness rounds it takes.

/// Bounds applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (from `Content-Length`).
    pub max_body_bytes: usize,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path, no normalization).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `false` when the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub keep_alive: bool,
}

/// What one [`RequestAssembler::step`] call produced.
#[derive(Debug)]
pub(crate) enum Step {
    /// The buffered bytes do not yet hold a complete request.
    NeedMore,
    /// A complete request was parsed (and its bytes consumed).
    Request(Request),
    /// The peer violated the protocol or a limit; the connection must be
    /// answered with `status` (if writable) and dropped.
    Bad {
        /// Response status to send before closing.
        status: u16,
        /// Human-readable reason, returned in the JSON error body.
        message: String,
    },
}

/// The head fields carried between the head-complete and body-complete
/// phases of one request.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Incremental request parser: feed it the connection's receive buffer
/// whenever bytes arrive, get back requests as they complete.
///
/// State between calls is exactly the progress that must survive a partial
/// read: how far the head-terminator scan got (so a trickled head is never
/// rescanned from byte zero), the parsed head while its body is still in
/// flight, and how many leading blank lines were already tolerated.
#[derive(Debug, Default)]
pub(crate) struct RequestAssembler {
    /// Byte offset the head-terminator scan resumes from.
    scan: usize,
    /// Parsed head awaiting `content_length` body bytes.
    head: Option<Head>,
    /// Stray leading CRLFs tolerated so far for the current request.
    leading_blanks: u32,
    /// Set when a parsed head asked for `Expect: 100-continue`; the
    /// transport takes it once and queues the interim response.
    interim_due: bool,
}

impl RequestAssembler {
    /// True when the stream holds a partially received request, so an EOF
    /// or deadline now is a mid-request abort rather than a clean close.
    pub fn mid_request(&self, inbuf: &[u8]) -> bool {
        self.head.is_some() || !inbuf.is_empty()
    }

    /// Takes (and clears) the pending `100 Continue` obligation.
    pub fn take_interim_due(&mut self) -> bool {
        std::mem::take(&mut self.interim_due)
    }

    /// Consumes as much of `inbuf` as a complete request needs. Parsed
    /// bytes are drained from the front of `inbuf`; pipelined followers
    /// stay buffered for the next call.
    pub fn step(&mut self, inbuf: &mut Vec<u8>, limits: ReadLimits) -> Step {
        if self.head.is_none() {
            // Tolerate a stray CRLF before the request line (RFC 7230 §3.5)
            // — but only a couple, so a blank-line flood cannot spin here.
            while self.scan == 0 {
                let drop = if inbuf.starts_with(b"\r\n") {
                    2
                } else if inbuf.first() == Some(&b'\n') {
                    1
                } else {
                    break;
                };
                self.leading_blanks += 1;
                if self.leading_blanks > 4 {
                    return Step::Bad {
                        status: 400,
                        message: "expected a request line".into(),
                    };
                }
                inbuf.drain(..drop);
            }
            let Some(head_end) = self.find_head_end(inbuf) else {
                if inbuf.len() > limits.max_head_bytes {
                    return Step::Bad {
                        status: 431,
                        message: "request head too large".into(),
                    };
                }
                return Step::NeedMore;
            };
            if head_end > limits.max_head_bytes {
                return Step::Bad {
                    status: 431,
                    message: "request head too large".into(),
                };
            }
            let head = match std::str::from_utf8(&inbuf[..head_end]) {
                Ok(text) => match parse_head_text(text) {
                    Ok(head) => head,
                    Err((status, message)) => return Step::Bad { status, message },
                },
                Err(_) => {
                    return Step::Bad {
                        status: 400,
                        message: "request head is not UTF-8".into(),
                    };
                }
            };
            if head.1 > limits.max_body_bytes {
                return Step::Bad {
                    status: 413,
                    message: format!("body exceeds {} bytes", limits.max_body_bytes),
                };
            }
            let (fields, content_length, expects_continue) = head;
            inbuf.drain(..head_end);
            self.scan = 0;
            if expects_continue && content_length > 0 {
                self.interim_due = true;
            }
            self.head = Some(Head {
                method: fields.0,
                path: fields.1,
                content_length,
                keep_alive: fields.2,
            });
        }

        let content_length = self.head.as_ref().map_or(0, |head| head.content_length);
        if inbuf.len() < content_length {
            return Step::NeedMore;
        }
        let head = self.head.take().expect("head parsed above");
        let body: Vec<u8> = inbuf.drain(..content_length).collect();
        self.leading_blanks = 0;
        self.interim_due = false;
        Step::Request(Request {
            method: head.method,
            path: head.path,
            body,
            keep_alive: head.keep_alive,
        })
    }

    /// Finds the end of the head (the byte after the blank line),
    /// remembering scan progress so trickled bytes are not rescanned.
    fn find_head_end(&mut self, inbuf: &[u8]) -> Option<usize> {
        let mut i = self.scan;
        while i < inbuf.len() {
            if inbuf[i] == b'\n' {
                match inbuf.get(i + 1) {
                    Some(b'\n') => return Some(i + 2),
                    Some(b'\r') if inbuf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                    _ => {}
                }
            }
            i += 1;
        }
        // Resume two bytes back: a terminator split across segments has at
        // most two of its bytes ("\n\r") already buffered.
        self.scan = inbuf.len().saturating_sub(2);
        None
    }
}

type ParsedHead = ((String, String, bool), usize, bool);

/// Parses the UTF-8 head text: request line + headers up to and including
/// the blank line. Returns `((method, path, keep_alive), content_length,
/// expects_continue)` or the `(status, message)` to reject with.
fn parse_head_text(head_text: &str) -> Result<ParsedHead, (u16, String)> {
    // `str::lines` splits on `\n` and strips a trailing `\r`, matching the
    // framing scan, which accepts bare-LF line endings too — parsing must
    // see the same lines the framing saw or the connection desyncs. Header
    // lines keep their other whitespace: a line that starts with it is
    // rejected below, even when it is nothing else.
    let mut lines = head_text.lines();
    let request_line = lines.next().unwrap_or_default().trim_end();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err((400, format!("malformed request line '{request_line}'")));
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err((505, format!("unsupported protocol '{version}'")));
    }

    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1";
    let mut expects_continue = false;
    for line in lines {
        // Each of these would let an intermediary that reads the line
        // differently frame a different body (RFC 9112 §5.1, §5.2).
        if line.starts_with([' ', '\t']) {
            return Err((400, "obsolete header line folding".into()));
        }
        if line.is_empty() {
            continue; // the blank terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err((400, "header line without a colon".into()));
        };
        if name.ends_with([' ', '\t']) {
            return Err((400, "whitespace before a header colon".into()));
        }
        let value = value.trim_matches([' ', '\t']);
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT`: `usize::from_str` alone would take a leading `+`.
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Err((400, "invalid Content-Length".into())),
            };
            // Conflicting duplicates are a request-smuggling vector
            // (RFC 9112 §6.3): with last-write-wins, this server and an
            // intermediary that picks the first value would frame the
            // stream differently. Repeating the *same* value is legal.
            if content_length.is_some_and(|previous| previous != n) {
                return Err((400, "conflicting Content-Length headers".into()));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.to_ascii_lowercase();
            if value.contains("close") {
                keep_alive = false;
            } else if value.contains("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("expect") {
            expects_continue = value.eq_ignore_ascii_case("100-continue");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err((501, "transfer encodings are not supported".into()));
        }
    }
    Ok((
        (method.to_string(), path.to_string(), keep_alive),
        content_length.unwrap_or(0),
        expects_continue,
    ))
}

/// The interim response owed after a head with `Expect: 100-continue`.
pub(crate) const CONTINUE_RESPONSE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Appends one `application/json` response to `out`, with an optional
/// `Retry-After` header (seconds) — the admission-control `503` tells
/// clients when backing off is worth it.
///
/// Every response echoes the request's trace id as `x-request-id`, printed
/// as fixed-width hex so response byte lengths do not vary with the id.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    keep_alive: bool,
    retry_after_secs: Option<u32>,
    request_id: u64,
) {
    write_head(
        out,
        status,
        b"application/json",
        Some(body.len()),
        keep_alive,
        request_id,
    );
    if let Some(seconds) = retry_after_secs {
        out.extend_from_slice(b"Retry-After: ");
        write_decimal(out, seconds.into());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Appends one `text/plain` response to `out` — the Prometheus exposition
/// endpoint is the only non-JSON route, so it gets its own encoder rather
/// than a content-type knob on every JSON call site.
pub(crate) fn encode_text_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &[u8],
    keep_alive: bool,
    request_id: u64,
) {
    write_head(
        out,
        status,
        b"text/plain; version=0.0.4; charset=utf-8",
        Some(body.len()),
        keep_alive,
        request_id,
    );
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Appends the head of a streamed `application/json` response: status line
/// and headers with `Transfer-Encoding: chunked` instead of a
/// `Content-Length` — the body follows as [`encode_chunk`] pieces finished
/// by [`encode_last_chunk`], so the transport never needs to know the full
/// body size up front.
pub(crate) fn encode_stream_head(
    out: &mut Vec<u8>,
    status: u16,
    keep_alive: bool,
    request_id: u64,
) {
    write_head(
        out,
        status,
        b"application/json",
        None,
        keep_alive,
        request_id,
    );
    out.extend_from_slice(b"\r\n");
}

/// Appends one chunk of a streamed body (hex size line, data, CRLF). An
/// empty slice is skipped entirely: a zero-length chunk would terminate
/// the body early ([`encode_last_chunk`] owns that lexeme).
pub(crate) fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    let len = data.len() as u64;
    let size = hex16(len);
    out.extend_from_slice(&size[len.leading_zeros() as usize / 4..]);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Appends the chunked-body terminator (no trailers).
pub(crate) fn encode_last_chunk(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

/// Writes the status line and the headers every response carries, each
/// line ending in CRLF; the caller adds its own headers and the blank
/// line. `length` is the `Content-Length`, or `None` for a chunked body.
fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &[u8],
    length: Option<usize>,
    keep_alive: bool,
    request_id: u64,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    write_decimal(out, status.into());
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type);
    match length {
        Some(length) => {
            out.extend_from_slice(b"\r\nContent-Length: ");
            write_decimal(out, length as u64);
        }
        None => out.extend_from_slice(b"\r\nTransfer-Encoding: chunked"),
    }
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\nx-request-id: "
    } else {
        b"\r\nConnection: close\r\nx-request-id: "
    });
    out.extend_from_slice(&hex16(request_id));
    out.extend_from_slice(b"\r\n");
}

fn write_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// `n` as 16 lowercase hex digits, zero-padded: the fixed width of the
/// `x-request-id` header and of an error body's `request_id`.
pub(crate) fn hex16(n: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX[(n >> (60 - 4 * i)) as usize & 0xf];
    }
    digits
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: ReadLimits = ReadLimits {
        max_head_bytes: 1024,
        max_body_bytes: 256,
    };

    /// Feeds the whole input at once and steps once.
    fn read(input: &str) -> Step {
        let mut assembler = RequestAssembler::default();
        let mut inbuf = input.as_bytes().to_vec();
        assembler.step(&mut inbuf, LIMITS)
    }

    #[test]
    fn parses_a_post_with_body() {
        let outcome =
            read("POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody");
        let Step::Request(request) = outcome else {
            panic!("expected a request, got {outcome:?}");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/evaluate");
        assert_eq!(request.body, b"body");
        assert!(request.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let Step::Request(request) = read("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!()
        };
        assert!(!request.keep_alive);
        let Step::Request(request) = read("GET /healthz HTTP/1.0\r\n\r\n") else {
            panic!()
        };
        assert!(!request.keep_alive);
        let Step::Request(request) =
            read("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        else {
            panic!()
        };
        assert!(request.keep_alive);
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        assert!(matches!(read(""), Step::NeedMore));
        assert!(matches!(read("GET /healthz HTT"), Step::NeedMore));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbo"),
            Step::NeedMore
        ));
        // `mid_request` distinguishes a clean idle close from an abort.
        let mut assembler = RequestAssembler::default();
        let mut inbuf = b"GET /he".to_vec();
        assert!(matches!(assembler.step(&mut inbuf, LIMITS), Step::NeedMore));
        assert!(assembler.mid_request(&inbuf));
        assert!(!RequestAssembler::default().mid_request(&[]));
    }

    #[test]
    fn one_byte_at_a_time_parses_identically() {
        let wire = "POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut assembler = RequestAssembler::default();
        let mut inbuf = Vec::new();
        let mut parsed = None;
        for (i, byte) in wire.bytes().enumerate() {
            inbuf.push(byte);
            match assembler.step(&mut inbuf, LIMITS) {
                Step::NeedMore => assert!(i + 1 < wire.len(), "must finish on the last byte"),
                Step::Request(request) => parsed = Some(request),
                bad => panic!("unexpected {bad:?}"),
            }
        }
        let request = parsed.expect("request completes");
        assert_eq!(request.path, "/v1/evaluate");
        assert_eq!(request.body, b"body");
        assert!(inbuf.is_empty(), "all bytes consumed");
    }

    #[test]
    fn pipelined_requests_are_consumed_one_at_a_time() {
        let wire = "GET /healthz HTTP/1.1\r\n\r\nPOST /v1/evaluate HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /v1/metrics HTTP/1.1\r\n\r\n";
        let mut assembler = RequestAssembler::default();
        let mut inbuf = wire.as_bytes().to_vec();
        let mut paths = Vec::new();
        loop {
            match assembler.step(&mut inbuf, LIMITS) {
                Step::Request(request) => paths.push(request.path),
                Step::NeedMore => break,
                bad => panic!("unexpected {bad:?}"),
            }
        }
        assert_eq!(paths, ["/healthz", "/v1/evaluate", "/v1/metrics"]);
        assert!(inbuf.is_empty());
    }

    #[test]
    fn protocol_violations_get_the_right_status() {
        assert!(matches!(
            read("GARBAGE\r\n\r\n"),
            Step::Bad { status: 400, .. }
        ));
        assert!(matches!(
            read("GET / SPDY/3\r\n\r\n"),
            Step::Bad { status: 505, .. }
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n"),
            Step::Bad { status: 413, .. }
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Step::Bad { status: 400, .. }
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Step::Bad { status: 501, .. }
        ));
        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(2048));
        assert!(matches!(read(&long_header), Step::Bad { status: 431, .. }));
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // The smuggling shape: two headers that frame the body differently.
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nbody"),
            Step::Bad { status: 400, .. }
        ));
        // Order does not matter.
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 11\r\nContent-Length: 4\r\n\r\nbody"),
            Step::Bad { status: 400, .. }
        ));
        // Identical duplicates are legal (RFC 9112 §6.3) and frame once.
        let Step::Request(request) =
            read("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody")
        else {
            panic!("identical duplicate Content-Length must parse");
        };
        assert_eq!(request.body, b"body");
    }

    /// Each form below can frame a different body for an intermediary
    /// that reads the head its own way, so it is answered with `400`
    /// before any body byte is read.
    fn assert_rejected(wire: &str) {
        let outcome = read(wire);
        assert!(
            matches!(outcome, Step::Bad { status: 400, .. }),
            "{wire:?} gave {outcome:?}"
        );
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        assert_rejected("POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi");
        assert_rejected("POST / HTTP/1.1\r\nContent-Length: -0\r\n\r\n");
        assert_rejected("POST / HTTP/1.1\r\nContent-Length: 2 2\r\n\r\nhi");
        assert_rejected("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n");
        // Optional whitespace around the value is fine.
        let Step::Request(request) = read("POST / HTTP/1.1\r\nContent-Length: \t2 \r\n\r\nhi")
        else {
            panic!("surrounding whitespace is OWS");
        };
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn whitespace_before_a_header_colon_is_rejected() {
        assert_rejected("POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nhi");
        assert_rejected("POST / HTTP/1.1\r\nContent-Length\t: 2\r\n\r\nhi");
        assert_rejected("GET / HTTP/1.1\r\nX-Other : y\r\n\r\n");
    }

    #[test]
    fn header_lines_without_a_colon_are_rejected() {
        // Skipped, this line would leave the POST bodiless and start the
        // next request at "hi".
        assert_rejected("POST / HTTP/1.1\r\nContent-Length 2\r\n\r\nhiGET / HTTP/1.1\r\n\r\n");
        assert_rejected("GET / HTTP/1.1\r\nHost\r\n\r\n");
    }

    #[test]
    fn folded_header_lines_are_rejected() {
        assert_rejected("POST / HTTP/1.1\r\n Content-Length: 2\r\n\r\nhi");
        assert_rejected("POST / HTTP/1.1\r\nX-A: b\r\n\tContent-Length: 2\r\n\r\nhi");
        assert_rejected("GET / HTTP/1.1\r\nX-A: b\r\n  \r\n\r\n");
        // Header names match in any case.
        let Step::Request(request) = read("POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nhi") else {
            panic!("header names are case-insensitive");
        };
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn retry_after_header_is_emitted_on_demand() {
        let mut out = Vec::new();
        encode_response(&mut out, 503, b"{}", false, Some(2), 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        encode_response(&mut out, 200, b"{}", true, None, 0);
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
    }

    #[test]
    fn request_id_header_is_fixed_width_hex() {
        // Fixed width keeps response byte lengths independent of the id, so
        // byte-exact transport tests only have to mask, never re-measure.
        let mut short = Vec::new();
        encode_response(&mut short, 200, b"{}", true, None, 0x2a);
        let text = String::from_utf8(short.clone()).unwrap();
        assert!(text.contains("x-request-id: 000000000000002a\r\n"));
        let mut long = Vec::new();
        encode_response(&mut long, 200, b"{}", true, None, u64::MAX);
        assert!(String::from_utf8(long.clone())
            .unwrap()
            .contains("x-request-id: ffffffffffffffff\r\n"));
        assert_eq!(short.len(), long.len());
        let mut stream = Vec::new();
        encode_stream_head(&mut stream, 200, true, 7);
        assert!(String::from_utf8(stream)
            .unwrap()
            .contains("x-request-id: 0000000000000007\r\n"));
    }

    #[test]
    fn text_responses_carry_the_prometheus_content_type() {
        let mut out = Vec::new();
        encode_text_response(&mut out, 200, b"gf_up 1\n", true, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.contains("x-request-id: 0000000000000001\r\n"));
        assert!(text.ends_with("\r\n\r\ngf_up 1\n"));
    }

    #[test]
    fn expect_continue_flags_an_interim_response() {
        let mut assembler = RequestAssembler::default();
        let mut inbuf =
            b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n".to_vec();
        // Head complete, body not: the interim obligation is raised so the
        // transport can answer before the peer sends the body.
        assert!(matches!(assembler.step(&mut inbuf, LIMITS), Step::NeedMore));
        assert!(assembler.take_interim_due());
        assert!(!assembler.take_interim_due(), "taken once");
        inbuf.extend_from_slice(b"hi");
        let Step::Request(request) = assembler.step(&mut inbuf, LIMITS) else {
            panic!("body completes the request");
        };
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn bare_lf_requests_parse_their_headers() {
        // The framing scan accepts bare-LF endings, so header parsing must
        // too — otherwise Content-Length is dropped and the body bytes
        // desync the connection.
        let outcome = read("POST /v1/evaluate HTTP/1.1\nContent-Length: 4\n\nbody");
        let Step::Request(request) = outcome else {
            panic!("expected a request, got {outcome:?}");
        };
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn newline_free_floods_are_capped_not_buffered() {
        // A head with no '\n' at all must hit the size limit, not grow the
        // buffer until the peer relents.
        let flood = "G".repeat(64 * 1024);
        assert!(matches!(read(&flood), Step::Bad { status: 431, .. }));
    }

    #[test]
    fn leading_crlf_is_tolerated_but_floods_are_not() {
        let Step::Request(request) = read("\r\nGET /healthz HTTP/1.1\r\n\r\n") else {
            panic!()
        };
        assert_eq!(request.path, "/healthz");
        assert!(matches!(
            read("\r\n\r\n\r\n\r\n\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n"),
            Step::Bad { status: 400, .. }
        ));
    }

    /// What a stream of [`Step`]s says about the bytes, with each outcome
    /// stamped by the stream offset its parse had consumed up to.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Request(Request, usize),
        Bad(u16, String, usize),
        /// The stream ended mid-request with this many bytes unconsumed.
        Pending(usize),
    }

    /// Feeds `wire` to a fresh assembler in the given segment sizes,
    /// stepping after every segment the way the event loop does.
    fn assemble(wire: &[u8], segments: impl IntoIterator<Item = usize>) -> Vec<Outcome> {
        let mut assembler = RequestAssembler::default();
        let mut inbuf = Vec::new();
        let mut fed = 0;
        let mut outcomes = Vec::new();
        for len in segments {
            let end = (fed + len).min(wire.len());
            inbuf.extend_from_slice(&wire[fed..end]);
            fed = end;
            loop {
                match assembler.step(&mut inbuf, LIMITS) {
                    Step::NeedMore => break,
                    Step::Request(request) => {
                        outcomes.push(Outcome::Request(request, fed - inbuf.len()));
                    }
                    Step::Bad { status, message } => {
                        // The connection is answered and dropped here.
                        outcomes.push(Outcome::Bad(status, message, fed - inbuf.len()));
                        return outcomes;
                    }
                }
            }
        }
        assert_eq!(fed, wire.len(), "segments cover the stream");
        outcomes.push(Outcome::Pending(inbuf.len()));
        outcomes
    }

    #[test]
    fn random_segmentation_parses_like_the_whole_buffer() {
        use gf_support::SplitMix64;
        let pad = "a".repeat(2 * LIMITS.max_head_bytes);
        let corpus: Vec<String> = vec![
            "GET /healthz HTTP/1.1\r\n\r\nPOST /v1/evaluate HTTP/1.1\r\nContent-Length: 16\r\n\r\n{\"domain\":\"dnn\"}GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n".into(),
            "POST /v1/batch HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".into(),
            "POST /v1/evaluate HTTP/1.1\nContent-Length: 4\n\nbody\nGET /healthz HTTP/1.0\n\n".into(),
            "\r\nGET / HTTP/1.1\r\n\r\nPOST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\nbody".into(),
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nokPOST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            format!("GET /healthz HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"),
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", LIMITS.max_body_bytes + 1),
            "GET /a HTTP/1.1\r\n\r\n\r\n\nGET / SPDY/3\r\n\r\n".into(),
            "\r\n\n\r\n\r\n\n\r\nGET / HTTP/1.1\r\n\r\n".into(),
        ];
        // Framing bytes make flips likelier to move a boundary than a
        // uniformly random byte would.
        const FRAMING: &[u8] = b"\r\n: 0123456789";
        let mut rng = SplitMix64::new(0x5EED_4A55);
        for case in 0..4000 {
            let mut wire = corpus[case % corpus.len()].clone().into_bytes();
            for _ in 0..rng.gen_range_u64(0, 3) {
                let at = rng.gen_index(wire.len());
                wire[at] = if rng.gen_bool() {
                    FRAMING[rng.gen_index(FRAMING.len())]
                } else {
                    rng.next_u64() as u8
                };
            }
            if rng.gen_bool() {
                wire.truncate(rng.gen_index(wire.len() + 1));
            }
            let whole = assemble(&wire, [wire.len()]);
            let max_segment = rng.gen_range_u64(1, wire.len().max(1) as u64);
            let mut segments = Vec::new();
            let mut covered = 0;
            while covered < wire.len() {
                let len = rng.gen_range_u64(1, max_segment) as usize;
                segments.push(len);
                covered += len;
            }
            let segmented = assemble(&wire, segments.iter().copied());
            assert_eq!(
                segmented,
                whole,
                "case {case}: {:?} in segments {segments:?}",
                String::from_utf8_lossy(&wire)
            );
        }
    }

    #[test]
    fn chunked_responses_frame_each_piece() {
        let mut out = Vec::new();
        encode_stream_head(&mut out, 200, true, 0);
        encode_chunk(&mut out, b"{\"ratios\":[");
        encode_chunk(&mut out, b""); // skipped: must not terminate the body
        encode_chunk(&mut out, b"[1.0]]}");
        encode_last_chunk(&mut out);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains("\r\n\r\nb\r\n{\"ratios\":[\r\n"));
        assert!(text.ends_with("7\r\n[1.0]]}\r\n0\r\n\r\n"));
    }

    /// The head encoders as they were written with `core::fmt`: the oracle
    /// for the direct byte writes.
    mod formatted {
        use std::io::Write;

        pub fn response(
            status: u16,
            body: &[u8],
            keep_alive: bool,
            retry_after_secs: Option<u32>,
            request_id: u64,
        ) -> Vec<u8> {
            let mut out = Vec::new();
            let reason = super::reason_phrase(status);
            let connection = if keep_alive { "keep-alive" } else { "close" };
            write!(
                out,
                "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\nx-request-id: {request_id:016x}\r\n",
                body.len()
            )
            .unwrap();
            if let Some(seconds) = retry_after_secs {
                write!(out, "Retry-After: {seconds}\r\n").unwrap();
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(body);
            out
        }

        pub fn text_response(
            status: u16,
            body: &[u8],
            keep_alive: bool,
            request_id: u64,
        ) -> Vec<u8> {
            let mut out = Vec::new();
            let reason = super::reason_phrase(status);
            let connection = if keep_alive { "keep-alive" } else { "close" };
            write!(
                out,
                "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: {connection}\r\nx-request-id: {request_id:016x}\r\n\r\n",
                body.len()
            )
            .unwrap();
            out.extend_from_slice(body);
            out
        }

        pub fn stream_head(status: u16, keep_alive: bool, request_id: u64) -> Vec<u8> {
            let mut out = Vec::new();
            let reason = super::reason_phrase(status);
            let connection = if keep_alive { "keep-alive" } else { "close" };
            write!(
                out,
                "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\nx-request-id: {request_id:016x}\r\n\r\n",
            )
            .unwrap();
            out
        }

        pub fn chunk(data: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            if !data.is_empty() {
                write!(out, "{:x}\r\n", data.len()).unwrap();
                out.extend_from_slice(data);
                out.extend_from_slice(b"\r\n");
            }
            out
        }
    }

    #[test]
    fn direct_heads_match_the_formatted_ones() {
        use gf_support::SplitMix64;
        const KNOWN: [u16; 13] = [
            200, 400, 404, 405, 408, 413, 422, 431, 500, 501, 503, 505, 299,
        ];
        let mut rng = SplitMix64::new(0x4EAD_5B17);
        let payload: Vec<u8> = (0..70_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        for case in 0..5_000 {
            let status = if rng.gen_bool() {
                KNOWN[rng.gen_index(KNOWN.len())]
            } else {
                rng.gen_range_u64(0, u64::from(u16::MAX)) as u16
            };
            // Lengths of every digit count, from empty bodies up.
            let digits = rng.gen_range_u64(0, 4) as u32;
            let body = &payload[..rng.gen_range_u64(0, 10u64.pow(digits)) as usize];
            let keep_alive = rng.gen_bool();
            let retry = rng.gen_bool().then(|| match rng.gen_index(3) {
                0 => 0,
                1 => u32::MAX,
                _ => rng.next_u64() as u32 >> rng.gen_index(32),
            });
            let request_id = match case % 3 {
                0 => rng.next_u64(),
                1 => rng.next_u64() >> rng.gen_index(64),
                _ => [0, 1, u64::MAX][rng.gen_index(3)],
            };
            let mut out = b"kept".to_vec();
            encode_response(&mut out, status, body, keep_alive, retry, request_id);
            let expected = formatted::response(status, body, keep_alive, retry, request_id);
            assert_eq!(out[4..], expected, "case {case}");
            out.truncate(4);
            encode_text_response(&mut out, status, body, keep_alive, request_id);
            assert_eq!(
                out[4..],
                formatted::text_response(status, body, keep_alive, request_id),
                "case {case}"
            );
            out.truncate(4);
            encode_stream_head(&mut out, status, keep_alive, request_id);
            assert_eq!(
                out[4..],
                formatted::stream_head(status, keep_alive, request_id)
            );
            out.truncate(4);
            encode_chunk(&mut out, body);
            assert_eq!(out[4..], formatted::chunk(body), "chunk of {}", body.len());
        }
        // Chunk sizes of every hex digit count.
        for len in (0..16)
            .map(|shift| 1usize << shift)
            .chain([0xf, 0xff, 0xfff, 0xffff])
        {
            let mut out = Vec::new();
            encode_chunk(&mut out, &payload[..len]);
            assert_eq!(out, formatted::chunk(&payload[..len]), "chunk of {len}");
        }
    }

    #[test]
    fn responses_have_framing_headers() {
        let mut out = Vec::new();
        encode_response(&mut out, 200, br#"{"ok":true}"#, true, None, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        encode_response(&mut out, 404, b"{}", false, None, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("404 Not Found"));
        assert!(text.contains("Connection: close"));
        let mut out = Vec::new();
        encode_response(&mut out, 408, b"{}", false, None, 0);
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("HTTP/1.1 408 Request Timeout\r\n"));
    }
}
