//! The traced per-layer pass.
//!
//! The benchmark times calls into each layer's public functions from the
//! outside and keeps the spans in memory: name, start, end, parent span
//! and a request id shared by every span of one request. The program
//! itself is not instrumented further.
//!
//! A served request is replayed through the same public pipeline the
//! server runs, one span per layer boundary, under a `request` root:
//!
//! ```text
//! request ─┬─ json.parse        gf_json::parse_with
//!          ├─ api.decode        QueryKind::decode_request
//!          ├─ engine.run        Engine::run_with_buffer
//!          ├─ api.result_json   Outcome::result_json
//!          └─ json.write        Value::to_json_string
//! ```
//!
//! and then decomposed into the calls `engine.run` makes, each timed on
//! its own: `engine.lookup` / `engine.compile` (`Engine::compiled` on a
//! hit / a miss of an engine that sees the same spec sequence),
//! `eval.point` (`CompiledScenario::evaluate`), `scenario.replay`
//! (`CarbonIntensitySeries::replay`) and `optimize.solve`
//! (`CompiledScenario::optimize`). Every replayed response body is
//! compared with the golden the server answered.
//!
//! The program's own tracing (`gf-trace`, on by default in the server)
//! stays as the server runs it: each replayed request is its current
//! request, and the engine stamps its spans into `gf-trace`'s rings. Its
//! cost is measured by switching it off and on in alternate slices.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gf_json::ParseLimits;
use greenfpga::api::{Query, QueryKind, ScenarioRef, SeriesRef};
use greenfpga::{
    catalog_entry, CarbonIntensitySeries, Engine, EngineConfig, OperatingPoint, ResultBuffer,
    ScenarioSpec,
};

use crate::gen::Pool;
use crate::wire::body_of;

/// One recorded span. `parent` is the parent's index + 1 (0 = root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
    pub aux: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle (index + 1).
    pub fn open(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            aux: 0,
        });
        self.spans.len()
    }

    pub fn close(&mut self, handle: usize, aux: u64) {
        let end = self.now();
        let span = &mut self.spans[handle - 1];
        span.end_ns = end;
        span.aux = aux;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let handle = self.open(name, parent, request);
        let out = f();
        self.close(handle, 0);
        out
    }

    /// Distinct request ids among the recorded spans.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// `(aux, duration ns)` of every span named `name`.
    pub fn with_aux(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.aux, s.duration_ns() as f64))
            .collect()
    }

    /// Self time (ns) of each span named `name`: its duration minus what
    /// its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                children[span.parent - 1] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_ns().saturating_sub(children[i]) as f64)
            .collect()
    }
}

/// The server's body limit, applied the way its route handler does.
fn limits() -> ParseLimits {
    ParseLimits {
        max_bytes: gf_server::ServerConfig::default().max_body_bytes,
        ..ParseLimits::default()
    }
}

/// An engine configured like the server's (one thread per evaluation,
/// the default cache).
pub fn server_like_engine() -> Engine {
    Engine::new(EngineConfig {
        eval_threads: 1,
        ..EngineConfig::default()
    })
    .expect("default engine configuration")
}

/// Replays one body through the server's pipeline, with `request` as
/// `gf-trace`'s current request as the server sets it; returns the
/// response body, or why it failed.
pub fn pipeline(
    rec: &mut Recorder,
    engine: &Engine,
    buffer: &mut ResultBuffer,
    kind: QueryKind,
    body: &str,
    request: u64,
) -> Result<String, String> {
    gf_trace::set_current_request(request);
    let served = traced_pipeline(rec, engine, buffer, kind, body, request);
    gf_trace::set_current_request(0);
    served
}

fn traced_pipeline(
    rec: &mut Recorder,
    engine: &Engine,
    buffer: &mut ResultBuffer,
    kind: QueryKind,
    body: &str,
    request: u64,
) -> Result<String, String> {
    let root = rec.open("request", 0, request);
    let value = rec
        .time("json.parse", root, request, || {
            gf_json::parse_with(body, limits())
        })
        .map_err(|e| e.to_string())?;
    let query = rec
        .time("api.decode", root, request, || kind.decode_request(&value))
        .map_err(|e| e.to_string())?;
    let outcome = rec
        .time("engine.run", root, request, || {
            engine.run_with_buffer(&query, buffer)
        })
        .map_err(|e| e.to_string())?;
    let json = rec.time("api.result_json", root, request, || outcome.result_json());
    let text = rec
        .time("json.write", root, request, || json.to_json_string())
        .map_err(|e| e.to_string())?;
    rec.close(root, text.len() as u64);
    Ok(text)
}

/// The spec a scenario reference resolves to (catalog entry plus
/// appended overrides) and its point.
fn resolve(
    scenario: &ScenarioRef,
    point: Option<OperatingPoint>,
) -> (ScenarioSpec, OperatingPoint) {
    match scenario {
        ScenarioRef::Inline(spec) => (
            spec.clone(),
            point.unwrap_or_else(OperatingPoint::paper_default),
        ),
        ScenarioRef::Catalog { id, knobs } => {
            let (_, entry) = catalog_entry(id).expect("generated ids are cataloged");
            let mut spec = entry.scenario.clone();
            spec.knobs.extend(knobs.iter().copied());
            (spec, point.unwrap_or(entry.point))
        }
    }
}

fn cache_totals(engine: &Engine) -> (u64, u64) {
    engine
        .cache_shard_metrics()
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
}

/// Decomposes what `engine.run` does for one query into timed calls on
/// `probe`, an engine that has seen the same spec sequence.
pub fn decompose(rec: &mut Recorder, probe: &Engine, query: &Query, request: u64) {
    let root = rec.open("decompose", 0, request);
    let (specs, points): (Vec<ScenarioSpec>, Vec<OperatingPoint>) = match query {
        Query::Evaluate(q) => (vec![q.scenario.clone()], vec![q.point]),
        Query::Compare(q) => (q.scenarios.clone(), vec![q.point; q.scenarios.len()]),
        Query::Batch(q) => (vec![q.scenario.clone()], q.points.clone()),
        Query::Scenario(q) => {
            let (spec, point) = resolve(&q.scenario, q.point);
            (vec![spec], vec![point])
        }
        Query::Replay(q) => {
            let (spec, point) = resolve(&q.scenario, q.point);
            (vec![spec], vec![point])
        }
        Query::Optimize(q) => {
            let (spec, point) = resolve(&q.scenario, q.point);
            (vec![spec], vec![point])
        }
        _ => (Vec::new(), Vec::new()),
    };
    let mut compiled = Vec::with_capacity(specs.len());
    for spec in &specs {
        let before = cache_totals(probe);
        let handle = rec.open("engine.compiled", root, request);
        let scenario = probe.compiled(spec).expect("generated specs compile");
        rec.close(handle, 0);
        let after = cache_totals(probe);
        rec.spans[handle - 1].name = if after.1 > before.1 {
            "engine.compile"
        } else {
            "engine.lookup"
        };
        compiled.push(scenario);
    }
    match query {
        Query::Replay(q) => {
            let SeriesRef::Region(region) = &q.series else {
                unreachable!("generated replays name a region")
            };
            let series = rec.time("scenario.stitch", root, request, || {
                CarbonIntensitySeries::region(region)
                    .expect("generated regions exist")
                    .repeat(q.years)
                    .expect("generated year counts are legal")
            });
            let handle = rec.open("scenario.replay", root, request);
            let outcome = series
                .replay(&compiled[0], points[0], q.interpolate)
                .expect("generated replays run");
            rec.close(handle, outcome.steps);
        }
        Query::Optimize(q) => {
            let handle = rec.open("optimize.solve", root, request);
            let outcome = compiled[0]
                .optimize(
                    points[0],
                    &q.objective,
                    &q.search,
                    &q.constraints,
                    q.tolerance,
                    q.max_evals,
                    1,
                )
                .expect("generated optimize requests are feasible");
            rec.close(handle, outcome.evaluations);
        }
        _ => {
            for (i, &point) in points.iter().enumerate() {
                let scenario = &compiled[i.min(compiled.len() - 1)];
                let handle = rec.open("eval.point", root, request);
                let comparison = scenario.evaluate(point);
                rec.close(handle, point.applications);
                std::hint::black_box(comparison.ok());
            }
        }
    }
    rec.close(root, 0);
}

/// Outcome of replaying a stream in-process.
pub struct Replayed {
    pub requests: u64,
    pub failed: u64,
    /// Pipeline time with `gf-trace` on ÷ off, over paired slices
    /// (median).
    pub overhead_ratio: f64,
}

/// Requests per traced/untraced slice of the overhead measurement.
const SLICE: usize = 256;

/// Replays `stream` through [`pipeline`] for `duration` or `max_requests`,
/// whichever ends first (spans stay in memory), and decomposes every
/// request. Slices alternate `gf-trace` off and on; their pipeline-time
/// ratio is the program's tracing overhead. The recorder records in both,
/// so its own cost is on both sides of the ratio.
pub fn replay_stream(
    rec: &mut Recorder,
    pool: &Pool,
    goldens: &[Vec<u8>],
    mut stream: impl Iterator<Item = usize>,
    duration: Duration,
    max_requests: u64,
) -> Replayed {
    let engine = server_like_engine();
    let probe = server_like_engine();
    let mut buffer = ResultBuffer::new();
    let mut result = Replayed {
        requests: 0,
        failed: 0,
        overhead_ratio: f64::NAN,
    };
    let mut ratios = Vec::new();
    let started = Instant::now();
    let mut pair = 0usize;
    while started.elapsed() < duration && result.requests < max_requests {
        // ABBA order cancels linear drift between the two sides.
        let order = if pair.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        let mut slice_ns = [0f64; 2];
        for traced in order {
            gf_trace::set_enabled(traced);
            for _ in 0..SLICE {
                let index = stream.next().expect("streams are endless");
                let request = &pool.requests[index];
                result.requests += 1;
                let id = result.requests;
                let t = Instant::now();
                let body = pipeline(
                    rec,
                    &engine,
                    &mut buffer,
                    request.query.kind(),
                    &request.body,
                    id,
                );
                slice_ns[usize::from(traced)] += t.elapsed().as_nanos() as f64;
                if body.as_ref().map(String::as_bytes).ok() != Some(body_of(&goldens[index])) {
                    result.failed += 1;
                }
                decompose(rec, &probe, &request.query, id);
            }
        }
        ratios.push(slice_ns[1] / slice_ns[0]);
        pair += 1;
    }
    // On by default, as the server runs it.
    gf_trace::set_enabled(true);
    if !ratios.is_empty() {
        result.overhead_ratio = crate::stats::median(&ratios);
    }
    result
}

/// Pool queue waits: the offloaded requests of `stream`, submitted through
/// [`Engine::execute_with_buffer`] on the open-loop schedule the served
/// workload uses, each running the full pipeline on a pool worker. Large
/// inline requests run on the submitting thread, as the server's event
/// loop runs them. Returns `(queue wait µs, mismatches)`.
pub fn pool_waits(
    pool: &Pool,
    goldens: &[Vec<u8>],
    stream: impl Iterator<Item = usize>,
    rate_per_s: f64,
    duration: Duration,
) -> (Vec<f64>, u64) {
    let engine = Arc::new(server_like_engine());
    let jobs: Arc<Vec<(QueryKind, String, Vec<u8>)>> = Arc::new(
        pool.requests
            .iter()
            .zip(goldens)
            .map(|(r, g)| (r.query.kind(), r.body.clone(), body_of(g).to_vec()))
            .collect(),
    );
    let (tx, rx) = mpsc::channel::<(f64, bool)>();
    let mut inline = ResultBuffer::new();
    let mut mismatched = 0u64;
    let gap = Duration::from_secs_f64(1.0 / rate_per_s);
    let started = Instant::now();
    let mut submitted = 0u64;
    for (slot, index) in stream.enumerate() {
        let due = gap * slot as u32;
        if due >= duration {
            break;
        }
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let request = &pool.requests[index];
        if !request.offloaded() {
            let (kind, body, golden) = &jobs[index];
            let served = pipeline(&mut Recorder::new(), &engine, &mut inline, *kind, body, 0);
            if served.as_ref().map(String::as_bytes).ok() != Some(golden.as_slice()) {
                mismatched += 1;
            }
            continue;
        }
        let (engine_ref, jobs_ref, tx) = (Arc::clone(&engine), Arc::clone(&jobs), tx.clone());
        let submit = Instant::now();
        submitted += 1;
        // A rejected job drops its sender unsent and counts as missing.
        engine.execute_with_buffer(move |buffer| {
            let waited = submit.elapsed().as_nanos() as f64 / 1e3;
            let (kind, body, golden) = &jobs_ref[index];
            let served = pipeline(&mut Recorder::new(), &engine_ref, buffer, *kind, body, 0);
            let ok = served.as_ref().map(String::as_bytes).ok() == Some(golden.as_slice());
            let _ = tx.send((waited, ok));
        });
    }
    drop(tx);
    let mut waits = Vec::with_capacity(submitted as usize);
    for (waited, ok) in rx {
        waits.push(waited);
        mismatched += u64::from(!ok);
    }
    engine.join_workers();
    mismatched += submitted - waits.len() as u64;
    (waits, mismatched)
}
