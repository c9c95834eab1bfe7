//! HTTP framing, the golden matcher, golden capture and verification, and
//! the `/v1/metrics` scrape.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gf_json::FromJson;
use greenfpga::api::{EvaluateResponse, MetricsResponse, Query};
use greenfpga::{CompiledScenario, Engine};

use crate::gen::{get_wire, Pool};

/// Length of the first complete response in `buf`, if one has arrived.
/// Responses to generated requests are `Content-Length` framed.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let length: usize = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    })?;
    (buf.len() >= head_end + length).then_some(head_end + length)
}

/// The body of a framed response.
pub fn body_of(response: &[u8]) -> &[u8] {
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(response.len(), |p| p + 4);
    &response[head_end..]
}

const REQUEST_ID: &[u8] = b"x-request-id: ";
const REQUEST_ID_HEX: usize = 16;

/// Whether a response equals its golden byte for byte, except the 16 hex
/// digits of `x-request-id`, which differ on every request (they must
/// still be 16 hex digits).
pub fn matches_golden(response: &[u8], golden: &[u8]) -> bool {
    if response.len() != golden.len() {
        return false;
    }
    let Some(at) = golden
        .windows(REQUEST_ID.len())
        .position(|w| w == REQUEST_ID)
    else {
        return response == golden;
    };
    let (from, to) = (
        at + REQUEST_ID.len(),
        at + REQUEST_ID.len() + REQUEST_ID_HEX,
    );
    to <= golden.len()
        && response[..from] == golden[..from]
        && response[from..to].iter().all(u8::is_ascii_hexdigit)
        && response[to..] == golden[to..]
}

/// Whether a response is a healthy `/healthz` answer. Its body carries
/// the uptime, so it is checked by content rather than against a golden.
pub fn healthz_ok(response: &[u8]) -> bool {
    response.starts_with(b"HTTP/1.1 200 OK\r\n")
        && gf_json::parse(std::str::from_utf8(body_of(response)).unwrap_or(""))
            .is_ok_and(|v| v.get("status").and_then(|s| s.as_str()) == Some("ok"))
}

/// Requests in flight per batch of [`Control::round_trips`]. A batch of
/// generated requests fits the socket's send buffer, so writing it never
/// waits on the responses.
const PIPELINE_DEPTH: usize = 16;

/// A blocking keep-alive connection for set-up and scrapes (never used
/// for measured load).
pub struct Control {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Control {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Control {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and returns its complete framed response.
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<Vec<u8>> {
        self.stream.write_all(wire)?;
        self.read_response()
    }

    /// Sends requests pipelined, [`PIPELINE_DEPTH`] at a time, and returns
    /// their responses in order.
    pub fn round_trips<'a>(
        &mut self,
        wires: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> std::io::Result<Vec<Vec<u8>>> {
        let mut responses = Vec::with_capacity(wires.len());
        let wires: Vec<&[u8]> = wires.collect();
        for batch in wires.chunks(PIPELINE_DEPTH) {
            self.stream.write_all(&batch.concat())?;
            for _ in batch {
                responses.push(self.read_response()?);
            }
        }
        Ok(responses)
    }

    fn read_response(&mut self) -> std::io::Result<Vec<u8>> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            if let Some(len) = frame_len(&self.buf) {
                return Ok(self.buf.drain(..len).collect());
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET /v1/metrics`, decoded.
    pub fn metrics(&mut self) -> Result<MetricsResponse, String> {
        let response = self
            .round_trip(&get_wire("/v1/metrics"))
            .map_err(|e| format!("metrics scrape: {e}"))?;
        let text = std::str::from_utf8(body_of(&response)).map_err(|e| e.to_string())?;
        let value = gf_json::parse(text).map_err(|e| e.to_string())?;
        MetricsResponse::from_json(&value).map_err(|e| e.to_string())
    }
}

/// Captures one golden response per pooled request and proves each
/// against a direct library call:
///
/// * the body equals [`Engine::run`] on the same query, encoded by the
///   same `result_json` → `to_json_string` path, byte for byte;
/// * point evaluations additionally decode to exactly the comparison a
///   freshly compiled [`CompiledScenario::evaluate`] returns (no cache,
///   no server);
/// * the status line is `200 OK`.
pub fn capture_goldens(
    pool: &Pool,
    control: &mut Control,
    engine: &Engine,
) -> Result<Vec<Vec<u8>>, String> {
    let goldens = control
        .round_trips(pool.requests.iter().map(|r| r.wire.as_slice()))
        .map_err(|e| format!("capture goldens: {e}"))?;
    for (index, (request, response)) in pool.requests.iter().zip(&goldens).enumerate() {
        if !response.starts_with(b"HTTP/1.1 200 OK\r\n") {
            return Err(format!(
                "request {index} ({:?}) answered {}",
                request.kind,
                String::from_utf8_lossy(response)
            ));
        }
        let expected = engine
            .run(&request.query)
            .map_err(|e| format!("direct run of request {index}: {e}"))?
            .result_json()
            .to_json_string()
            .map_err(|e| e.to_string())?;
        if body_of(response) != expected.as_bytes() {
            return Err(format!(
                "request {index} ({:?}): served body differs from Engine::run",
                request.kind
            ));
        }
        if let Query::Evaluate(query) = &request.query {
            let value = gf_json::parse(&expected).map_err(|e| e.to_string())?;
            let served = EvaluateResponse::from_json(&value).map_err(|e| e.to_string())?;
            let direct = CompiledScenario::compile(&query.scenario.params(), query.scenario.domain)
                .and_then(|c| c.evaluate(query.point))
                .map_err(|e| e.to_string())?;
            if served.comparison != direct {
                return Err(format!(
                    "request {index}: served evaluate differs from CompiledScenario::evaluate"
                ));
            }
        }
    }
    Ok(goldens)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-request-id: 00000000000000aa\r\n\r\n{}";

    #[test]
    fn matcher_masks_only_the_request_id() {
        let other_id =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-request-id: 3f00000000000001\r\n\r\n{}";
        assert!(matches_golden(GOLDEN, GOLDEN));
        assert!(matches_golden(other_id, GOLDEN));
        let not_hex =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-request-id: 3f0000000000000z\r\n\r\n{}";
        assert!(!matches_golden(not_hex, GOLDEN));
        let body_drift =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nx-request-id: 00000000000000aa\r\n\r\n[]";
        assert!(!matches_golden(body_drift, GOLDEN));
        let status_drift =
            b"HTTP/1.1 500 OK\r\nContent-Length: 2\r\nx-request-id: 00000000000000aa\r\n\r\n{}";
        assert!(!matches_golden(status_drift, GOLDEN));
        assert!(!matches_golden(&GOLDEN[..GOLDEN.len() - 1], GOLDEN));
    }

    #[test]
    fn framing_waits_for_the_whole_body() {
        assert_eq!(frame_len(&GOLDEN[..GOLDEN.len() - 1]), None);
        assert_eq!(frame_len(GOLDEN), Some(GOLDEN.len()));
        let mut two = GOLDEN.to_vec();
        two.extend_from_slice(GOLDEN);
        assert_eq!(frame_len(&two), Some(GOLDEN.len()));
        assert_eq!(body_of(GOLDEN), b"{}");
    }

    #[test]
    fn healthz_is_checked_by_content() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 15\r\n\r\n{\"status\":\"ok\"}";
        assert!(healthz_ok(ok));
        let down = b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n{\"status\":\"down\"}";
        assert!(!healthz_ok(down));
    }
}
