//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload serve_point|serve_fanout|study --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures one workload end to end and prints every
//! end-to-end metric; with `--trace 1` it runs the traced per-layer pass
//! and prints every per-layer metric. Human-readable lines come first; the
//! last line of standard output is the JSON result. See `README.md` for
//! why each workload exists and which end-to-end metric each layer metric
//! should move.

mod calib;
mod child;
mod gen;
mod layers;
mod load;
mod stats;
mod study;
mod sys;
mod wire;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gf_json::Value;
use greenfpga::api::MetricsResponse;
use greenfpga::Engine;

use child::ServerProcess;
use gen::{Kind, Pool, Served};
use layers::Recorder;
use load::{Generator, OpenLoop, PhaseResult, Target};
use stats::{median, Summary};
use wire::Control;

/// A served run sets up a fresh server for every this-many cycles, and
/// `setup_s` is the median over those set-ups. Spread over the run, the
/// set-ups sample the host the way the measured phases do, and the CPU
/// per request is taken over as many server processes (two servers
/// measured in alternate phases of one run differed by up to 7 %).
const CYCLES_PER_SERVER: usize = 2;
/// Set-ups before each cycle of a `study` run. One takes about 3 ms, so
/// more of them cost little and steady the median.
const STUDY_SETUPS_PER_CYCLE: usize = 2;
/// A run is invalid when the generator's median lateness (send time minus
/// due time) exceeds this share of the median latency it measured: the
/// typical request would then be timing the generator, not the server.
/// (A host hiccup that delays sends also delays their responses, so it
/// moves the tail, not this ratio.)
const GEN_LATE_SHARE: f64 = 0.5;

/// Load shape of a served workload.
struct ServedPlan {
    name: &'static str,
    served: Served,
    /// Open-loop offered rate of workload requests.
    rate_per_s: f64,
    /// Open-loop `/healthz` probe rate.
    probes_per_s: f64,
    /// Closed-loop requests in flight per connection.
    window: usize,
}

const SERVE_POINT: ServedPlan = ServedPlan {
    name: "serve_point",
    served: Served::Point,
    rate_per_s: 10_000.0,
    probes_per_s: 500.0,
    window: 64,
};

const SERVE_FANOUT: ServedPlan = ServedPlan {
    name: "serve_fanout",
    served: Served::Fanout,
    rate_per_s: 600.0,
    probes_per_s: 500.0,
    window: 4,
};

/// Share of `--seconds` in the open-loop and closed-loop phases.
const OPEN_SHARE: f64 = 0.3;
const CLOSED_SHARE: f64 = 0.55;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("missing value for {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Human-readable report lines plus the JSON result.
struct Report {
    workload: String,
    metrics: Vec<(String, Value)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Prints one named measurement.
    fn line(&self, name: &str, value: f64, unit: &str, note: &str) {
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("  ({note})")
        };
        println!(
            "{:<13} {name:<28} {value:>14.3} {unit}{note}",
            self.workload
        );
    }

    /// Prints a measurement and adds it to the JSON result.
    fn metric(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.line(name, value, unit, note);
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push((
            name.to_string(),
            gf_json::object([
                (
                    "value",
                    Value::Number(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Value::from(unit)),
            ]),
        ));
    }

    fn problem(&mut self, problem: String) {
        println!("{:<13} INVALID: {problem}", self.workload);
        self.problems.push(problem);
    }

    fn print_result(&self) {
        let correct = self.failed == 0 && self.problems.is_empty();
        let result = gf_json::object([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Number(self.attempted.max(1) as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", Value::Object(self.metrics.clone())),
        ]);
        println!(
            "{}",
            result.to_json_string().expect("the result serializes")
        );
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--serve") {
        child::serve();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_point|serve_fanout|study --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        (_, true) if ["serve_point", "serve_fanout", "study"].contains(&args.workload.as_str()) => {
            run_layers(&args)
        }
        ("serve_point", false) => run_served(&SERVE_POINT, &args),
        ("serve_fanout", false) => run_served(&SERVE_FANOUT, &args),
        ("study", false) => run_study(&args),
        (other, _) => Err(format!("unknown workload '{other}'")),
    };
    match outcome {
        Ok(report) => {
            report.print_result();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How long one set-up took.
#[derive(Clone, Copy)]
struct SetupTime {
    wall_s: f64,
    /// CPU time of every process involved, at the nominal host speed
    /// (`calib`): the gated `setup_s`.
    norm_cpu_s: f64,
}

impl SetupTime {
    /// A set-up that started at `(wall, cpu)` and whose other processes
    /// used `child_cpu_s`; ends now, with a reference unit timed after.
    fn since(
        started: (Instant, f64),
        child_cpu_s: f64,
        reference: &mut calib::Reference,
    ) -> SetupTime {
        let (wall, cpu) = started;
        let wall_s = wall.elapsed().as_secs_f64();
        let cpu_s = sys::process_cpu_s() - cpu + child_cpu_s;
        let unit_s = reference.reading_s();
        SetupTime {
            wall_s,
            norm_cpu_s: calib::normalized_us(cpu_s, unit_s) / 1e6,
        }
    }

    fn start() -> (Instant, f64) {
        (Instant::now(), sys::process_cpu_s())
    }
}

/// Reports the gated `setup_s`, the median normalized CPU time of
/// `times`, and prints the median wall time beside it.
fn report_setup(report: &mut Report, times: &[SetupTime], what: &str) {
    let norm: Vec<f64> = times.iter().map(|t| t.norm_cpu_s).collect();
    let wall: Vec<f64> = times.iter().map(|t| t.wall_s).collect();
    report.metric(
        "setup_s",
        median(&norm),
        "s",
        &format!(
            "CPU time of a set-up at the nominal host speed, median of {} set-ups spread over the run: {what}",
            times.len()
        ),
    );
    report.line(
        "setup_wall_s",
        median(&wall),
        "s",
        "the same set-ups, wall clock",
    );
}

/// A server with its goldens captured and proven, and how long that took.
struct Ready {
    process: ServerProcess,
    goldens: Vec<Vec<Vec<u8>>>,
    setup: SetupTime,
}

/// Set-up: start a server child and capture + prove a golden for every
/// pooled request of every pool, with a fresh reference engine.
fn set_up(pools: &[&Pool], reference: &mut calib::Reference) -> Result<Ready, String> {
    let started = SetupTime::start();
    let mut process = ServerProcess::spawn().map_err(|e| format!("start server: {e}"))?;
    let mut control = Control::connect(process.addr).map_err(|e| format!("connect: {e}"))?;
    let engine = Engine::with_defaults().map_err(|e| e.to_string())?;
    let goldens = pools
        .iter()
        .map(|pool| wire::capture_goldens(pool, &mut control, &engine))
        .collect::<Result<_, _>>()?;
    let child_cpu_s = process.cpu_s()?;
    Ok(Ready {
        process,
        goldens,
        setup: SetupTime::since(started, child_cpu_s, reference),
    })
}

/// Prints a latency distribution's p50, its p99 and the highest tail
/// percentile its sample supports (`stats::tail_percentile`), where the
/// sample supports them.
fn latency_lines(report: &Report, latency: &Summary, note: &str) {
    let note = format!("{note}; {}", latency.note());
    report.line("p50_us", latency.p50, "us", &note);
    if let Some((q, value)) = latency.tail {
        if q > 0.99 {
            report.line("p99_us", latency.p99, "us", &note);
        }
        report.line(&format!("p{}_us", q * 100.0), value, "us", &note);
    }
}

/// Reports the gated CPU cost per operation, normalized by the reference
/// unit (`calib`), and prints the raw CPU time and the unit beside it.
fn report_cpu(report: &mut Report, per_op_us: &[f64], raw_us: &[f64], unit_us: &[f64], what: &str) {
    report.metric(
        "norm_cpu_us_per_op",
        median(per_op_us),
        "us",
        &format!(
            "CPU time per operation at the nominal host speed (one unit = {} us); {what}",
            calib::NOMINAL_UNIT_US
        ),
    );
    report.line(
        "cpu_us_per_op",
        median(raw_us),
        "us",
        "the same CPU time, not normalized",
    );
    report.line(
        "reference_unit_us",
        median(unit_us),
        "us",
        "CPU time of one reference unit, timed next to the operations",
    );
}

/// Open-loop / closed-loop cycles a served run alternates through, so
/// both phases sample the whole run's host conditions (`study` runs in as
/// many segments). A closed-loop phase's CPU per request scatters by about
/// 12 % (IQR/median) from phase to phase, so the median needs many.
const CYCLES: usize = 20;

/// `GET /v1/metrics` on a fresh connection (an idle one would have been
/// closed by the server's keep-alive timeout).
fn scrape(process: &ServerProcess) -> Result<MetricsResponse, String> {
    Control::connect(process.addr)
        .map_err(|e| format!("connect: {e}"))?
        .metrics()
}

/// `/v1/metrics` deltas between two scrapes, checked against what the
/// generator sent. Returns the scenario-cache hits and misses, and the
/// 4xx + 5xx answers, between.
fn check_scrape(
    report: &mut Report,
    before: &MetricsResponse,
    after: &MetricsResponse,
    phases: &[&PhaseResult],
) -> (u64, u64, u64) {
    let delta = |label: &str, field: fn(&greenfpga::api::RouteMetrics) -> u64| {
        let of = |m: &MetricsResponse| m.routes.iter().find(|r| r.route == label).map_or(0, field);
        of(after) - of(before)
    };
    let mut sent: Vec<(String, u64)> = Vec::new();
    for phase in phases {
        for &(path, n) in &phase.sends.per_route {
            let method = if path == "/healthz" { "GET" } else { "POST" };
            let label = format!("{method} {path}");
            match sent.iter_mut().find(|(l, _)| *l == label) {
                Some((_, total)) => *total += n,
                None => sent.push((label, n)),
            }
        }
    }
    for (label, n) in &sent {
        let seen = delta(label, |r| r.requests);
        if seen != *n {
            report.problem(format!(
                "server saw {seen} requests on {label}, generator sent {n}"
            ));
        }
    }
    let unexpected: u64 = after
        .routes
        .iter()
        .filter(|r| r.route != "GET /v1/metrics" && !sent.iter().any(|(l, _)| *l == r.route))
        .map(|r| delta(&r.route, |m| m.requests))
        .sum();
    if unexpected != 0 {
        report.problem(format!(
            "server saw {unexpected} requests the generator never sent"
        ));
    }
    let errors: u64 = after
        .routes
        .iter()
        .map(|r| delta(&r.route, |m| m.errors))
        .sum();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (a, b) in after.cache_shards.iter().zip(&before.cache_shards) {
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
    }
    (hits, misses, errors)
}

/// Prints `server.errors`; any error makes the run invalid.
fn report_errors(report: &mut Report, errors: u64) {
    report.line(
        "server.errors",
        errors as f64,
        "count",
        "4xx + 5xx during the measured phases",
    );
    if errors != 0 {
        report.problem(format!("server answered {errors} errors"));
    }
}

/// Flags a run the generator could not keep up with. Returns the
/// lateness summary (send time minus due time, µs) and its description.
fn check_generator(report: &mut Report, open: &PhaseResult) -> (Summary, String) {
    let late = Summary::of(&open.late_us);
    let limit = GEN_LATE_SHARE * Summary::of(&open.latency_us).p50;
    if late.p50 > limit {
        report.problem(format!(
            "generator fell behind: median lateness {:.1} us > {limit:.1} us ({GEN_LATE_SHARE} of median latency)",
            late.p50
        ));
    }
    let note = format!(
        "send time minus due time; p50 {:.1} us, {}",
        late.p50,
        late.note()
    );
    (late, note)
}

fn run_served(plan: &ServedPlan, args: &Args) -> Result<Report, String> {
    child::place();
    let mut report = Report::new(plan.name);
    let pool = Pool::generate(plan.served, args.seed);
    let mut reference = calib::Reference::new();
    let mut stream = pool.stream(args.seed);
    let mut first_goldens: Option<Vec<Vec<u8>>> = None;
    let (mut setup_times, mut peaks_mb) = (Vec::new(), Vec::new());
    let (mut per_op_us, mut raw_us, mut unit_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open, mut closed) = (PhaseResult::default(), PhaseResult::default());
    let (mut hits, mut misses, mut errors) = (0, 0, 0);
    for _ in 0..CYCLES / CYCLES_PER_SERVER {
        let Ready {
            mut process,
            mut goldens,
            setup,
        } = set_up(&[&pool], &mut reference)?;
        setup_times.push(setup);
        let goldens = goldens.remove(0);
        let first = first_goldens.get_or_insert_with(|| goldens.clone());
        if !first
            .iter()
            .zip(&goldens)
            .all(|(a, b)| wire::matches_golden(a, b))
        {
            return Err("goldens differ between set-ups".to_string());
        }
        let target = Target {
            pool: &pool,
            goldens: &goldens,
        };
        let before = scrape(&process)?;
        let mut generator =
            Generator::connect(process.addr).map_err(|e| format!("connect: {e}"))?;
        let (mut served_open, mut served_closed) = (PhaseResult::default(), PhaseResult::default());
        for _ in 0..CYCLES_PER_SERVER {
            served_open.absorb(generator.open_loop(
                &target,
                &mut stream,
                &OpenLoop {
                    rate_per_s: plan.rate_per_s,
                    probes_per_s: plan.probes_per_s,
                    duration: Duration::from_secs_f64(args.seconds * OPEN_SHARE / CYCLES as f64),
                },
            ));
            let unit_before = process.reading_s()?;
            let cpu_before = process.cpu_s()?;
            let phase = generator.closed_loop(
                &target,
                &mut stream,
                plan.window,
                Duration::from_secs_f64(args.seconds * CLOSED_SHARE / CYCLES as f64),
            );
            let cpu_s =
                (process.cpu_s()? - cpu_before) / (phase.attempted - phase.failed).max(1) as f64;
            let unit_s = (unit_before + process.reading_s()?) / 2.0;
            per_op_us.push(calib::normalized_us(cpu_s, unit_s));
            raw_us.push(cpu_s * 1e6);
            unit_us.push(unit_s * 1e6);
            served_closed.absorb(phase);
        }
        drop(generator);
        let after = scrape(&process)?;
        let seen = check_scrape(
            &mut report,
            &before,
            &after,
            &[&served_open, &served_closed],
        );
        (hits, misses, errors) = (hits + seen.0, misses + seen.1, errors + seen.2);
        peaks_mb.push(
            process
                .stop()
                .ok_or("could not stop the server child or read its peak resident set")?,
        );
        open.absorb(served_open);
        closed.absorb(served_closed);
    }

    report.attempted = open.attempted + closed.attempted;
    report.failed = open.failed + closed.failed;
    report_setup(
        &mut report,
        &setup_times,
        &format!(
            "start a server child, capture and prove {} goldens",
            pool.requests.len()
        ),
    );
    report_cpu(
        &mut report,
        &per_op_us,
        &raw_us,
        &unit_us,
        &format!(
            "server child, all threads, per golden-matched response at closed-loop saturation ({} connections x {} in flight); median of {CYCLES} phases",
            load::CONNECTIONS,
            plan.window
        ),
    );
    report.line(
        "goodput_rps",
        closed.matched_in_window as f64 / closed.window_s,
        "1/s",
        "golden-matched responses/s, same closed-loop phases, wall clock",
    );
    latency_lines(
        &report,
        &Summary::of(&open.latency_us),
        &format!(
            "open loop at {} req/s from due time, non-probe, whole run",
            plan.rate_per_s
        ),
    );
    report.metric(
        "peak_rss_mb",
        median(&peaks_mb),
        "MiB",
        &format!(
            "server child's peak resident set, median of the run's {} servers",
            peaks_mb.len()
        ),
    );
    let healthz = Summary::of(&open.healthz_us);
    report.line(
        "healthz_p99_us",
        healthz.p99,
        "us",
        &format!(
            "{} probes/s, whole run; p50 {:.1} us, {}",
            plan.probes_per_s,
            healthz.p50,
            healthz.note()
        ),
    );
    for kind in [
        Kind::Evaluate,
        Kind::Scenario,
        Kind::Compare,
        Kind::Batch,
        Kind::Replay,
        Kind::Optimize,
        Kind::LargeEvaluate,
    ] {
        let samples: Vec<f64> = open
            .by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, v)| v)
            .collect();
        if !samples.is_empty() {
            let s = Summary::of(&samples);
            report.line(
                &format!("{kind:?}.p50_us"),
                s.p50,
                "us",
                &format!("p99 {:.1} us; {}", s.p99, s.note()),
            );
        }
    }
    report.line(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        &format!(
            "{} failed or mismatched of {} attempted",
            report.failed, report.attempted
        ),
    );
    let (late, note) = check_generator(&mut report, &open);
    report.line("gen.late_p99_us", late.p99, "us", &note);
    report_errors(&mut report, errors);
    report.line(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        &format!("{hits} hits, {misses} misses, from /v1/metrics"),
    );
    Ok(report)
}

fn run_study(args: &Args) -> Result<Report, String> {
    // Serial library calls (`GF_THREADS=1`, read once, before any call
    // here resolves it). Fanned out over the two vCPUs, a pass costs
    // 2.8-3.8 ms of CPU against 2.2-2.4 ms serial, and the excess swings with
    // whether the other vCPU is free, which neighbours decide.
    std::env::set_var("GF_THREADS", "1");
    let mut report = Report::new("study");
    let mut times = Vec::new();
    let mut study = None;
    let segment =
        Duration::from_secs_f64(args.seconds * (OPEN_SHARE + CLOSED_SHARE) / CYCLES as f64);
    let mut pass_us = Vec::new();
    let (mut points, mut library_ns) = (0u64, 0u64);
    let mut pass = 1u64;
    let mut reference = calib::Reference::new();
    let (mut per_op_us, mut raw_us, mut unit_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CYCLES {
        for _ in 0..STUDY_SETUPS_PER_CYCLE {
            let started = SetupTime::start();
            let mut fresh = study::Study::new(args.seed);
            // A warm pass is part of set-up: lazy state settles before timing.
            fresh.pass(0);
            times.push(SetupTime::since(started, 0.0, &mut reference));
            study = Some(fresh);
        }
        let study = study.as_mut().expect("set up above");
        let started = Instant::now();
        while started.elapsed() < segment {
            let result = study.pass(pass);
            pass += 1;
            report.attempted += 1;
            report.failed += u64::from(result.failed_checks > 0);
            pass_us.push(result.total_ns() as f64 / 1e3);
            points += result.points;
            library_ns += result.total_ns();
            let unit_s = reference.unit_s();
            per_op_us.push(calib::normalized_us(result.cpu_s, unit_s));
            raw_us.push(result.cpu_s * 1e6);
            unit_us.push(unit_s * 1e6);
        }
    }
    report_setup(
        &mut report,
        &times,
        "compile, lay out lattices, one warm pass",
    );
    report_cpu(
        &mut report,
        &per_op_us,
        &raw_us,
        &unit_us,
        &format!(
            "one pass's library calls, serial, each next to one unit; median of {} passes",
            per_op_us.len()
        ),
    );
    report.line(
        "points_per_s",
        points as f64 / (library_ns as f64 / 1e9),
        "1/s",
        "grid cells + Monte-Carlo trials + frontier evaluations per second of library time, wall clock",
    );
    latency_lines(
        &report,
        &Summary::of(&pass_us),
        &format!(
            "one pass: 3 heatmaps of {} points, {}-trial Monte-Carlo, 64x64 frontier, wall clock",
            study::GRID_POINTS,
            study::MC_TRIALS,
        ),
    );
    report.metric(
        "peak_rss_mb",
        sys::peak_rss_kb("self").ok_or("no peak resident set in /proc/self/status")? as f64
            / 1024.0,
        "MiB",
        "benchmark process's peak resident set",
    );
    report.line(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        &format!(
            "{} passes failed a check of {}",
            report.failed, report.attempted
        ),
    );
    Ok(report)
}

/// Median of the spans named `name`, in ns.
fn median_span(rec: &Recorder, name: &str) -> f64 {
    let durations = rec.durations(name);
    if durations.is_empty() {
        f64::NAN
    } else {
        median(&durations)
    }
}

/// Prints a span class's distribution and returns its median.
fn span_line(report: &Report, rec: &Recorder, name: &str) -> f64 {
    let s = Summary::of(&rec.durations(name));
    report.line(
        name,
        s.p50,
        "ns",
        &format!("median span; p99 {:.0} ns, {}", s.p99, s.note()),
    );
    s.p50
}

/// The traced per-layer pass: every per-layer metric, whatever
/// `--workload` names. Each metric is taken on the workload its layer
/// serves (see README.md), in five equal phases of `--seconds`.
fn run_layers(args: &Args) -> Result<Report, String> {
    child::place();
    let mut report = Report::new("layers");
    let phase = Duration::from_secs_f64(args.seconds / 5.0);
    let point_pool = Pool::generate(Served::Point, args.seed);
    let fanout_pool = Pool::generate(Served::Fanout, args.seed);
    let Ready {
        process, goldens, ..
    } = set_up(&[&point_pool, &fanout_pool], &mut calib::Reference::new())?;
    let (point_goldens, fanout_goldens) = (&goldens[0], &goldens[1]);

    // Untraced end-to-end reference phases: serve_point then serve_fanout.
    let before = scrape(&process)?;
    let mut generator = Generator::connect(process.addr).map_err(|e| format!("connect: {e}"))?;
    let point_open = generator.open_loop(
        &Target {
            pool: &point_pool,
            goldens: point_goldens,
        },
        &mut point_pool.stream(args.seed),
        &OpenLoop {
            rate_per_s: SERVE_POINT.rate_per_s,
            probes_per_s: SERVE_POINT.probes_per_s,
            duration: phase,
        },
    );
    let after = scrape(&process)?;
    let fanout_open = generator.open_loop(
        &Target {
            pool: &fanout_pool,
            goldens: fanout_goldens,
        },
        &mut fanout_pool.stream(args.seed),
        &OpenLoop {
            rate_per_s: SERVE_FANOUT.rate_per_s,
            probes_per_s: SERVE_FANOUT.probes_per_s,
            duration: phase,
        },
    );
    drop(generator);
    process.stop();
    report.attempted += point_open.attempted + fanout_open.attempted;
    report.failed += point_open.failed + fanout_open.failed;
    let e2e_p50_us = Summary::of(&point_open.latency_us).p50;
    report.line(
        "serve_point.p50_us",
        e2e_p50_us,
        "us",
        "untraced open-loop reference, read as serve_point's p50_us line",
    );

    // serve_point bodies through the in-process pipeline.
    let mut point = Recorder::new();
    let replayed = layers::replay_stream(
        &mut point,
        &point_pool,
        point_goldens,
        point_pool.stream(args.seed),
        phase,
        60_000,
    );
    report.attempted += replayed.requests;
    report.failed += replayed.failed;
    println!(
        "layers        trace: {} spans over {} request ids (serve_point bodies)",
        point.spans.len(),
        point.requests()
    );
    let parse = span_line(&report, &point, "json.parse");
    let decode = span_line(&report, &point, "api.decode");
    let run = span_line(&report, &point, "engine.run");
    let encode = span_line(&report, &point, "api.result_json");
    let write = span_line(&report, &point, "json.write");
    let in_process_ns = median_span(&point, "request");
    let root_self = median(&point.self_times("request"));
    let bytes = median(
        &point
            .with_aux("request")
            .iter()
            .map(|&(b, _)| b as f64)
            .collect::<Vec<_>>(),
    );
    let transport_us = e2e_p50_us - in_process_ns / 1e3;
    report.line(
        "reconcile",
        e2e_p50_us,
        "us",
        &format!(
            "serve_point p50 = in-process {:.3} us (layer medians sum {:.3} us, root self {:.0} ns) + transport {transport_us:.3} us (computed)",
            in_process_ns / 1e3,
            (parse + decode + run + encode + write) / 1e3,
            root_self
        ),
    );

    // serve_fanout bodies: pipeline + decomposition, then pool queue waits.
    let mut fanout = Recorder::new();
    let fanout_replayed = layers::replay_stream(
        &mut fanout,
        &fanout_pool,
        fanout_goldens,
        fanout_pool.stream(args.seed),
        phase / 2,
        4_000,
    );
    let (waits, wait_failures) = layers::pool_waits(
        &fanout_pool,
        fanout_goldens,
        fanout_pool.stream(args.seed),
        SERVE_FANOUT.rate_per_s,
        phase / 2,
    );
    report.attempted += fanout_replayed.requests + waits.len() as u64;
    report.failed += fanout_replayed.failed + wait_failures;

    // study calls.
    let mut study = study::Study::new(args.seed);
    let (mut batch_point_ns, mut sample_ns, mut fractions) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut pass = 0u64;
    while started.elapsed() < phase {
        let result = study.pass(pass);
        pass += 1;
        report.attempted += 1;
        report.failed += u64::from(result.failed_checks > 0);
        batch_point_ns.extend(
            result
                .grid_ns
                .iter()
                .map(|&ns| ns as f64 / study::GRID_POINTS as f64),
        );
        sample_ns.push(result.mc_ns as f64 / study::MC_TRIALS as f64);
        fractions.push(result.frontier_evaluated_fraction);
    }

    // The per-layer metrics, in README.md order.
    report.metric(
        "json.parse_ns",
        parse,
        "ns",
        "serve_point, median per request",
    );
    report.metric(
        "api.decode_ns",
        decode,
        "ns",
        "serve_point, median per request",
    );
    report.metric(
        "api.result_json_ns",
        encode,
        "ns",
        "serve_point, median per request",
    );
    report.metric(
        "json.write_ns",
        write,
        "ns",
        "serve_point, median per request",
    );
    report.metric(
        "json.response_bytes",
        bytes,
        "B",
        "serve_point, median response body",
    );
    report.metric(
        "server.transport_us",
        transport_us,
        "us",
        "computed: untraced e2e p50 minus in-process pipeline median",
    );
    report.metric(
        "trace.overhead_ratio",
        replayed.overhead_ratio,
        "ratio",
        "in-process pipeline time with gf-trace on / off, median of paired slices",
    );
    report.metric(
        "engine.lookup_ns",
        median_span(&point, "engine.lookup"),
        "ns",
        "Engine::compiled on a cache hit, serve_point",
    );
    report.metric(
        "engine.compile_ns",
        median_span(&point, "engine.compile"),
        "ns",
        "Engine::compiled on a cache miss, serve_point",
    );
    let (hits, misses, errors) = check_scrape(&mut report, &before, &after, &[&point_open]);
    report_errors(&mut report, errors);
    report.metric(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        &format!("serve_point, {hits} hits, {misses} misses, from /v1/metrics"),
    );
    let mut eval_points = point.with_aux("eval.point");
    eval_points.extend(fanout.with_aux("eval.point"));
    for (decade, label) in [(0u32, "apps_1e0"), (1, "apps_1e1"), (7, "apps_1e7")] {
        let samples: Vec<f64> = eval_points
            .iter()
            .filter(|&&(apps, _)| apps.max(1).ilog10() == decade)
            .map(|&(_, ns)| ns)
            .collect();
        let value = if samples.is_empty() {
            f64::NAN
        } else {
            median(&samples)
        };
        report.metric(
            &format!("eval.point_ns.{label}"),
            value,
            "ns",
            &format!(
                "CompiledScenario::evaluate, applications in [1e{decade}, 1e{}), n={}",
                decade + 1,
                samples.len()
            ),
        );
    }
    report.metric(
        "eval.batch_point_ns",
        median(&batch_point_ns),
        "ns",
        "study, evaluate_into time per grid point",
    );
    report.metric(
        "frontier.eval_fraction",
        median(&fractions),
        "ratio",
        "study, evaluated cells / lattice cells",
    );
    report.metric(
        "uncertainty.sample_ns",
        median(&sample_ns),
        "ns",
        "study, MonteCarlo::run time per trial",
    );
    report.metric(
        "scenario.replay_ns",
        median_span(&fanout, "scenario.replay"),
        "ns",
        "serve_fanout, CarbonIntensitySeries::replay per request",
    );
    let steps: Vec<f64> = fanout
        .with_aux("scenario.replay")
        .iter()
        .map(|&(s, _)| s as f64)
        .collect();
    report.metric(
        "scenario.replay_steps",
        median(&steps),
        "count",
        "serve_fanout, stitched hourly steps per replay",
    );
    report.metric(
        "optimize.solve_ns",
        median_span(&fanout, "optimize.solve"),
        "ns",
        "serve_fanout, CompiledScenario::optimize per request",
    );
    let evals: Vec<f64> = fanout
        .with_aux("optimize.solve")
        .iter()
        .map(|&(e, _)| e as f64)
        .collect();
    report.metric(
        "optimize.evals",
        median(&evals),
        "count",
        "serve_fanout, kernel evaluations per solve",
    );
    let wait = Summary::of(&waits);
    report.metric(
        "exec.queue_wait_us",
        wait.p50,
        "us",
        &format!(
            "serve_fanout schedule, Engine::execute submit to start; p99 {:.1} us, {}",
            wait.p99,
            wait.note()
        ),
    );
    let (late, note) = check_generator(&mut report, &point_open);
    report.metric(
        "gen.late_p99_us",
        late.p99,
        "us",
        &format!("serve_point open loop, {note}"),
    );
    let healthz = Summary::of(&fanout_open.healthz_us);
    let large = eval_points
        .iter()
        .filter(|&&(apps, _)| apps >= gen::LARGE_APPLICATIONS)
        .map(|&(_, ns)| ns)
        .collect::<Vec<_>>();
    report.line(
        "attribution",
        healthz.p99,
        "us",
        &format!(
            "serve_fanout healthz p99 vs eval.point at {} applications = {:.1} us ({})",
            gen::LARGE_APPLICATIONS,
            median(&large) / 1e3,
            healthz.note()
        ),
    );
    Ok(report)
}
