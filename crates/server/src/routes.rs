//! Request routing: JSON in, engine call, JSON bytes out.
//!
//! The dispatch table ([`route_table`]) is the single source of route
//! identity: every `/v1/<kind>` entry (method from [`QueryKind::method`],
//! `POST` for all kinds except the body-less `GET /v1/catalog`) is derived
//! from [`QueryKind::ALL`], the metrics registry builds its labels from the
//! same table, and [`resolve`] looks a request up in it once — so adding a
//! query kind to the core enum makes it servable *and* metered with no
//! server-side list to update.
//!
//! Every query handler decodes the typed request from [`greenfpga::api`],
//! runs it through the shared [`greenfpga::Engine`] — the **same**
//! facade a library user or the CLI calls — and writes the typed response
//! straight into a reused byte buffer ([`Outcome::write_result`]), with no
//! [`gf_json::Value`] tree in between. The bytes are those of
//! [`Outcome::result_json`], so a served response is bit-identical to a
//! local call by construction. Failures speak the [`ApiError`] taxonomy,
//! mapped to HTTP status via [`ApiError::http_status`].

use std::sync::mpsc::SyncSender;
use std::sync::OnceLock;

use gf_json::{key, JsonError, JsonSink, JsonWriter, ToJson, ToJsonMembers, Value};
use gf_trace::SpanName;
use greenfpga::api::{
    grid_stream_head, grid_stream_rows, grid_stream_tail, MetricsResponse, Query, QueryKind,
    TraceResponse,
};
use greenfpga::{ApiError, GridStream, Outcome, ResultBuffer};

use crate::http::Request;
use crate::{Completion, ServerState, StreamEvent};

/// What a dispatch-table entry serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `GET /healthz`: liveness, version, uptime.
    Healthz,
    /// `GET /v1/metrics`: the typed observability snapshot (JSON).
    Metrics,
    /// `GET /metrics`: the same registry in Prometheus text format. The
    /// one non-JSON response in the table — rendered by the transport
    /// (see [`crate::prometheus`]), not the JSON dispatcher.
    Prometheus,
    /// `GET /v1/trace`: the recent-span rings as typed JSON.
    Trace,
    /// `/v1/<kind>` under [`QueryKind::method`]: one engine query.
    Query(QueryKind),
}

/// One dispatch-table entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    /// HTTP method the entry answers.
    pub method: &'static str,
    /// Exact request path.
    pub path: &'static str,
    /// What it serves.
    pub endpoint: Endpoint,
    /// Its position in [`route_table`], which is also its metrics-registry
    /// index.
    pub index: usize,
    /// Whether it runs on the worker pool instead of inline on the event
    /// loop. Point lookups finish in single-digit microseconds — handing
    /// them to another thread costs more than answering them — while the
    /// fan-out kinds can burn milliseconds and would stall every other
    /// connection if they ran on the loop.
    pub offload: bool,
}

/// The dispatch table: the observability `GET` endpoints followed by one
/// route per [`QueryKind`], in [`QueryKind::ALL`] order. Built once.
pub(crate) fn route_table() -> &'static [Route] {
    static TABLE: OnceLock<Vec<Route>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let observability = [
            ("/healthz", Endpoint::Healthz),
            ("/v1/metrics", Endpoint::Metrics),
            ("/metrics", Endpoint::Prometheus),
            ("/v1/trace", Endpoint::Trace),
        ]
        .map(|(path, endpoint)| ("GET", path, endpoint));
        let queries =
            QueryKind::ALL.map(|kind| (kind.method(), kind.path(), Endpoint::Query(kind)));
        observability
            .into_iter()
            .chain(queries)
            .enumerate()
            .map(|(index, (method, path, endpoint))| Route {
                method,
                path,
                endpoint,
                index,
                offload: matches!(
                    endpoint,
                    Endpoint::Query(
                        QueryKind::Batch
                            | QueryKind::Sweep
                            | QueryKind::Grid
                            | QueryKind::Frontier
                            | QueryKind::Tornado
                            | QueryKind::MonteCarlo
                            | QueryKind::Replay
                            | QueryKind::Optimize
                    )
                ),
            })
            .collect()
    })
}

/// Looks a request up in the dispatch table, once: the entry serving its
/// method and path, or the `404` (unknown path) or `405` (known path,
/// other method) error to answer with. Unresolved requests are metered in
/// the registry's trailing fallback bucket.
pub(crate) fn resolve(method: &str, path: &str) -> Result<&'static Route, ApiError> {
    let route = route_table()
        .iter()
        .find(|route| route.path == path)
        .ok_or_else(|| ApiError::not_found(format!("no route for {method} {path}")))?;
    if route.method != method {
        return Err(ApiError::method_not_allowed(format!(
            "{} only supports {}",
            route.path, route.method
        )));
    }
    Ok(route)
}

/// What an offloaded request produced on the worker. The body bytes are
/// in the buffer the worker passed to [`handle_offloaded`].
pub(crate) enum Reply {
    /// A complete buffered response.
    Full {
        /// HTTP status.
        status: u16,
    },
    /// A `stream: true` grid request: the buffer holds the response head
    /// (JSON up to and including `"ratios":[`) and the worker should pump
    /// the row-blocks.
    GridStream {
        /// The bounded-memory grid evaluation to pump.
        stream: Box<GridStream>,
    },
}

/// Routes one offloaded request, writing its body into `body`,
/// additionally recognizing the streamed grid mode
/// ([`Reply::GridStream`]) that the inline path never serves (grids always
/// offload). Everything else behaves exactly like [`handle`].
pub(crate) fn handle_offloaded(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    route: &Route,
    request: &Request,
    exec_start_ticks: u64,
    body: &mut Vec<u8>,
) -> Reply {
    let answer = match route.endpoint {
        Endpoint::Query(QueryKind::Grid) => match decode_query(state, QueryKind::Grid, request) {
            Ok(Query::Grid(grid)) if grid.stream => {
                body.clear();
                let started = state.engine.grid_stream(&grid).and_then(|stream| {
                    grid_stream_head(&stream, body).map_err(serialization_failed)?;
                    Ok(stream)
                });
                match started {
                    Ok(stream) => {
                        // The execute span for a streamed grid covers
                        // decode + compile + head build; the row production
                        // shows up as `tile_batch` spans while the stream
                        // drains.
                        close_span(SpanName::Execute, exec_start_ticks, 0);
                        return Reply::GridStream {
                            stream: Box::new(stream),
                        };
                    }
                    Err(error) => Err(error),
                }
            }
            Ok(query) => run(state, buffer, &query),
            Err(error) => Err(error),
        },
        _ => execute(state, buffer, route, request),
    };
    let (status, _) = respond(answer, exec_start_ticks, body);
    Reply::Full { status }
}

/// Closes a span opened at `start_ticks` (0 = untraced: nothing is
/// recorded) and returns its end stamp, which opens the next span without
/// a fresh clock read (0 when untraced).
pub(crate) fn close_span(name: SpanName, start_ticks: u64, aux: u64) -> u64 {
    if start_ticks == 0 {
        return 0;
    }
    let end = gf_trace::now_ticks();
    gf_trace::record_span_at(name, start_ticks, end.saturating_sub(start_ticks), aux);
    end
}

/// Evaluates a grid stream block by block on the worker, sending each
/// block's rows (and finally the tail with the winning fraction) through
/// the bounded channel, waking the loop after every event. Returns when
/// the stream ends, serialization fails (→ [`StreamEvent::Abort`]), or
/// the connection dies (send fails on the dropped receiver).
pub(crate) fn stream_grid_blocks(
    state: &ServerState,
    token: u64,
    tx: &SyncSender<StreamEvent>,
    mut stream: Box<GridStream>,
) {
    let wake = |event: StreamEvent| {
        let delivered = tx.send(event).is_ok();
        if delivered {
            state.complete(Completion::StreamWake { token });
        }
        delivered
    };
    while let Some(block) = stream.next_block() {
        let mut fragment = Vec::new();
        // Head already on the wire: truncation is the only signal left.
        if !block.is_ok_and(|block| grid_stream_rows(&block, &mut fragment).is_ok()) {
            wake(StreamEvent::Abort);
            return;
        }
        if !wake(StreamEvent::Chunk(fragment)) {
            return; // connection closed: stop evaluating
        }
    }
    let mut tail = Vec::new();
    match grid_stream_tail(&stream, &mut tail) {
        Ok(()) => wake(StreamEvent::End { tail }),
        Err(_) => wake(StreamEvent::Abort),
    };
}

/// Routes one resolved (or rejected) request, writing its JSON body into
/// `body` and returning `(status, end_ticks)`. `exec_start_ticks`
/// (0 = untraced) opens the execute span — body parse, typed decode and
/// the engine run — whose closing stamp opens the serialize span, which
/// covers only the byte write. The final boundary stamp is returned so
/// the transport can open the write span without a fresh clock read (0
/// when untraced).
pub(crate) fn handle(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    route: Result<&Route, ApiError>,
    request: &Request,
    exec_start_ticks: u64,
    body: &mut Vec<u8>,
) -> (u16, u64) {
    let answer = route.and_then(|route| execute(state, buffer, route, request));
    respond(answer, exec_start_ticks, body)
}

/// A dispatched request's answer, typed until it is written.
enum Answer {
    Health(Health),
    Metrics(MetricsResponse),
    Trace(TraceResponse),
    Query(Outcome),
}

impl Answer {
    fn write(&self, out: &mut Vec<u8>) -> Result<(), JsonError> {
        match self {
            Answer::Health(health) => health.write_json(out),
            Answer::Metrics(metrics) => metrics.write_json(out),
            Answer::Trace(trace) => trace.write_json(out),
            Answer::Query(outcome) => outcome.write_result(out),
        }
    }
}

/// Closes the execute span and writes the answer — or the error body —
/// into `body`. Returns `(status, end_ticks)` as [`handle`] does.
fn respond(
    answer: Result<Answer, ApiError>,
    exec_start_ticks: u64,
    body: &mut Vec<u8>,
) -> (u16, u64) {
    body.clear();
    let mid = close_span(SpanName::Execute, exec_start_ticks, 0);
    let error = match answer.map(|answer| answer.write(body)) {
        Ok(Ok(())) => {
            let end = close_span(SpanName::Serialize, mid, body.len() as u64);
            return (200, end);
        }
        Ok(Err(e)) => serialization_failed(e),
        Err(error) => error,
    };
    error_body(&error, body);
    (error.http_status(), mid)
}

fn serialization_failed(e: JsonError) -> ApiError {
    ApiError::internal(format!("response serialization failed: {e}"))
}

/// Runs a resolved request's endpoint, stopping short of writing.
fn execute(
    state: &ServerState,
    buffer: &mut ResultBuffer,
    route: &Route,
    request: &Request,
) -> Result<Answer, ApiError> {
    match route.endpoint {
        Endpoint::Healthz => Ok(Answer::Health(Health {
            uptime_seconds: state.started.elapsed().as_secs_f64(),
            workers: state.config.workers_resolved(),
        })),
        Endpoint::Metrics => Ok(Answer::Metrics(metrics(state))),
        // The transport intercepts `GET /metrics` before dispatch (its
        // response is text, not JSON); reaching this arm means a bug in
        // that interception, not a client error.
        Endpoint::Prometheus => Err(ApiError::internal(
            "prometheus exposition must be rendered by the transport",
        )),
        Endpoint::Trace => Ok(Answer::Trace(trace())),
        Endpoint::Query(kind) => run(state, buffer, &decode_query(state, kind, request)?),
    }
}

fn run(state: &ServerState, buffer: &mut ResultBuffer, query: &Query) -> Result<Answer, ApiError> {
    Ok(Answer::Query(state.engine.run_with_buffer(query, buffer)?))
}

/// Parses and decodes a query route's request.
fn decode_query(
    state: &ServerState,
    kind: QueryKind,
    request: &Request,
) -> Result<Query, ApiError> {
    // `GET` query routes (the catalog) carry no body; decode from the
    // empty object instead of parsing zero bytes as JSON.
    let body = if kind.method() == "GET" {
        Value::Object(Vec::new())
    } else {
        parse_body(state, request)?
    };
    Ok(kind.decode_request(&body)?)
}

/// Parses the request body (bounded by the transport's body limit, plus
/// the JSON parser's own depth limit).
fn parse_body(state: &ServerState, request: &Request) -> Result<Value, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let limits = gf_json::ParseLimits {
        max_bytes: state.config.max_body_bytes,
        ..gf_json::ParseLimits::default()
    };
    Ok(gf_json::parse_with(text, limits)?)
}

/// Writes an [`ApiError`] as the JSON error body into `out`, appending
/// the calling thread's current request id (when one is set) so an error
/// response can be correlated with its spans and its `x-request-id`
/// header.
pub(crate) fn error_body(error: &ApiError, out: &mut Vec<u8>) {
    let mut writer = JsonWriter::new(out);
    writer.begin_object();
    error.encode_members(&mut writer);
    let request_id = gf_trace::current_request();
    if request_id != 0 {
        let hex = crate::http::hex16(request_id);
        let hex = std::str::from_utf8(&hex).expect("hex digits are ASCII");
        writer.member(key!("request_id"), hex);
    }
    writer.end_object();
    writer
        .finish()
        .expect("an error body holds no numbers, so it always writes");
}

/// Builds the error body for a protocol-level rejection raised by the HTTP
/// reader (bad request line, oversized head/body, ...). The transport
/// keeps its specific status (`413`, `431`, ...); the body carries the
/// canonical `protocol` code.
pub(crate) fn protocol_error_body(message: &str) -> Vec<u8> {
    let mut body = Vec::new();
    error_body(&ApiError::protocol(message), &mut body);
    body
}

/// Builds the `503` body the connection governor answers with when the
/// server is at capacity.
pub(crate) fn overload_error_body() -> Vec<u8> {
    let mut body = Vec::new();
    error_body(
        &ApiError::overloaded("server is at capacity; retry after the Retry-After delay"),
        &mut body,
    );
    body
}

/// `GET /healthz`: liveness only — cache and request counters live in
/// `/v1/metrics`.
struct Health {
    uptime_seconds: f64,
    workers: usize,
}

impl ToJson for Health {
    fn encode<S: JsonSink>(&self, sink: &mut S) {
        sink.begin_object();
        sink.member(key!("status"), "ok");
        sink.member(key!("version"), env!("CARGO_PKG_VERSION"));
        sink.member(key!("uptime_seconds"), &self.uptime_seconds);
        sink.member(key!("workers"), &self.workers);
        sink.end_object();
    }
}

/// Most spans one `GET /v1/trace` response returns. A bound, not a page:
/// the rings themselves cap history, this just caps the response body.
const TRACE_SNAPSHOT_MAX: usize = 512;

/// Builds the `GET /v1/trace` response: the recent-span rings as typed
/// JSON, newest first, ids rendered as the same fixed-width hex the
/// `x-request-id` header uses.
fn trace() -> TraceResponse {
    let spans = gf_trace::snapshot(TRACE_SNAPSHOT_MAX)
        .into_iter()
        .map(|span| greenfpga::api::TraceSpan {
            name: span.name.as_str().to_string(),
            span_id: format!("{:016x}", span.span_id),
            request_id: format!("{:016x}", span.request_id),
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            aux: span.aux,
            thread: span.thread,
        })
        .collect();
    TraceResponse {
        spans,
        enabled: gf_trace::enabled(),
    }
}

fn metrics(state: &ServerState) -> MetricsResponse {
    use std::sync::atomic::Ordering;
    MetricsResponse {
        requests_served: state.requests.load(Ordering::Relaxed),
        connections_live: state.live_connections.load(Ordering::SeqCst) as u64,
        connections_max: state.config.max_connections as u64,
        connections_rejected: state.metrics.rejected.load(Ordering::Relaxed),
        routes: state.metrics.snapshot_routes(),
        cache_shards: state.engine.cache_shard_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenfpga::api::EvaluateResponse;
    use greenfpga::units::Carbon;
    use greenfpga::{Domain, Estimator};

    #[test]
    fn every_query_kind_is_in_the_dispatch_table() {
        for kind in QueryKind::ALL {
            let entry = resolve(kind.method(), kind.path()).expect("every kind is routed");
            assert_eq!(entry.endpoint, Endpoint::Query(kind), "{kind}");
            assert_eq!(entry.method, kind.method());
            assert!(std::ptr::eq(entry, &route_table()[entry.index]));
        }
        for path in ["/healthz", "/v1/metrics", "/metrics", "/v1/trace"] {
            assert!(resolve("GET", path).is_ok(), "{path}");
        }
        // The catalog is the one body-less query route: other methods on a
        // known path answer 405, unknown paths 404, with the same bodies
        // as before the table was resolved once per request.
        let wrong_method = resolve("POST", QueryKind::Catalog.path()).unwrap_err();
        assert_eq!(wrong_method.http_status(), 405);
        assert_eq!(wrong_method.message, "/v1/catalog only supports GET");
        let patch = resolve("PATCH", "/healthz").unwrap_err();
        assert_eq!(patch.message, "/healthz only supports GET");
        let unknown = resolve("GET", "/nope").unwrap_err();
        assert_eq!(unknown.http_status(), 404);
        assert_eq!(unknown.message, "no route for GET /nope");
    }

    #[test]
    fn observability_routes_stay_inline_and_prometheus_is_flagged() {
        let prometheus = resolve("GET", "/metrics").unwrap();
        assert_eq!(prometheus.endpoint, Endpoint::Prometheus);
        assert!(!prometheus.offload);
        assert!(!resolve("GET", "/v1/trace").unwrap().offload);
        assert_ne!(
            resolve("GET", "/v1/metrics").unwrap().endpoint,
            Endpoint::Prometheus
        );
        assert!(resolve("POST", "/metrics").is_err(), "405s stay JSON");
        assert!(resolve("POST", "/v1/batch").unwrap().offload);
        assert!(!resolve("POST", "/v1/evaluate").unwrap().offload);
    }

    #[test]
    fn a_non_finite_result_answers_the_serialization_500() {
        let mut comparison = Estimator::default()
            .compare_uniform(Domain::Dnn, 5, 2.0, 1_000_000)
            .unwrap();
        comparison.fpga.design = Carbon::from_kg(f64::NAN);
        let answer = || {
            Ok(Answer::Query(Outcome::Evaluate(EvaluateResponse {
                comparison,
            })))
        };
        let expected = concat!(
            r#"{"error":{"code":"internal","#,
            r#""message":"response serialization failed: JSON cannot represent NaN or infinite numbers","#,
            r#""retryable":false}"#
        );
        let mut body = b"stale bytes".to_vec();
        assert_eq!(respond(answer(), 0, &mut body).0, 500);
        assert_eq!(
            String::from_utf8(body.clone()).unwrap(),
            format!("{expected}}}")
        );
        // With a request in flight, its id follows the error member.
        gf_trace::set_current_request(0xabc);
        let status = respond(answer(), 0, &mut body).0;
        gf_trace::set_current_request(0);
        assert_eq!(status, 500);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            format!(r#"{expected},"request_id":"0000000000000abc"}}"#)
        );
    }
}
