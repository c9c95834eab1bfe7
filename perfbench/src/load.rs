//! The load generator: one thread, at most two keep-alive connections.
//!
//! Both phases pipeline requests over non-blocking sockets and wait in
//! `ppoll`, so one thread can keep many requests in flight without
//! spinning:
//!
//! * **open loop** — requests are due on a fixed schedule (workload
//!   requests at a constant rate, `/healthz` probes at their own constant
//!   rate) and are sent when due whatever the server is doing. Latency is
//!   taken from the *due* time, so a stall is charged to every request
//!   that was due during it. How late the generator itself sent each
//!   request is recorded separately.
//! * **closed loop** — each connection keeps a fixed window of requests
//!   in flight and sends the next one when a response arrives; the
//!   matched-response rate is the saturation goodput.
//!
//! Every response is checked: pooled requests byte-for-byte against their
//! goldens, probes by content.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::gen::{get_wire, Kind, Pool, Stream};
use crate::sys::{self, Want};
use crate::wire::{frame_len, healthz_ok, matches_golden};

/// Load connections (the container's `nproc`).
pub const CONNECTIONS: usize = 2;
/// How long in-flight requests may take to finish after a phase ends
/// before they count as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// What one in-flight request was.
#[derive(Clone, Copy)]
enum Sent {
    Pooled(usize),
    Healthz,
}

struct InFlight {
    sent: Sent,
    /// Due time (open loop) or send time (closed loop), ns since phase start.
    due_ns: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_at: usize,
    input: Vec<u8>,
    input_at: usize,
    inflight: VecDeque<InFlight>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 << 10),
            out_at: 0,
            input: Vec::with_capacity(256 << 10),
            input_at: 0,
            inflight: VecDeque::new(),
        })
    }

    fn queue(&mut self, wire: &[u8], inflight: InFlight) {
        self.out.extend_from_slice(wire);
        self.inflight.push_back(inflight);
    }

    /// Writes as much queued output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    /// Reads everything the socket holds.
    fn fill(&mut self) -> std::io::Result<()> {
        if self.input_at > 0 && self.input_at * 2 >= self.input.len() {
            self.input.drain(..self.input_at);
            self.input_at = 0;
        }
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.input.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete response, if one has arrived.
    fn take_response(&mut self) -> Option<(InFlight, std::ops::Range<usize>)> {
        let len = frame_len(&self.input[self.input_at..])?;
        let range = self.input_at..self.input_at + len;
        self.input_at += len;
        let inflight = self.inflight.pop_front()?;
        Some((inflight, range))
    }

    fn want(&self) -> Want {
        Want {
            fd: self.stream.as_raw_fd(),
            write: self.out_at < self.out.len(),
        }
    }
}

/// What the generator sends and checks against.
pub struct Target<'a> {
    pub pool: &'a Pool,
    pub goldens: &'a [Vec<u8>],
}

/// Requests the generator sent, per route label.
#[derive(Default)]
pub struct Sends {
    pub per_route: Vec<(&'static str, u64)>,
}

impl Sends {
    fn add(&mut self, route: &'static str, count: u64) {
        match self.per_route.iter_mut().find(|(r, _)| *r == route) {
            Some((_, n)) => *n += count,
            None => self.per_route.push((route, count)),
        }
    }
}

/// Everything one phase observed.
#[derive(Default)]
pub struct PhaseResult {
    /// Workload (non-probe) latencies in µs, from due time.
    pub latency_us: Vec<f64>,
    /// `(kind, latency µs)` of workload requests, for the per-kind report.
    pub by_kind: Vec<(Kind, f64)>,
    /// `/healthz` probe latencies in µs, from due time.
    pub healthz_us: Vec<f64>,
    /// How late the generator sent each request against its due time, µs.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Closed loop: matched workload responses completed inside the
    /// phase window, and the window's length.
    pub matched_in_window: u64,
    pub window_s: f64,
    pub sends: Sends,
}

impl PhaseResult {
    /// Appends another phase's observations to this one.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.latency_us.extend(other.latency_us);
        self.by_kind.extend(other.by_kind);
        self.healthz_us.extend(other.healthz_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.matched_in_window += other.matched_in_window;
        self.window_s += other.window_s;
        for (route, n) in other.sends.per_route {
            self.sends.add(route, n);
        }
    }
}

/// Open-loop schedule.
pub struct OpenLoop {
    pub rate_per_s: f64,
    pub probes_per_s: f64,
    pub duration: Duration,
}

fn route_of(target: &Target<'_>, sent: Sent) -> &'static str {
    match sent {
        Sent::Pooled(i) => target.pool.requests[i].query.kind().path(),
        Sent::Healthz => "/healthz",
    }
}

/// Checks one response and records it.
fn settle(
    target: &Target<'_>,
    result: &mut PhaseResult,
    inflight: &InFlight,
    response: &[u8],
    now_ns: u64,
    window_ns: u64,
) {
    let latency_us = now_ns.saturating_sub(inflight.due_ns) as f64 / 1e3;
    let ok = match inflight.sent {
        Sent::Pooled(i) => {
            let ok = matches_golden(response, &target.goldens[i]);
            if ok {
                result.latency_us.push(latency_us);
                result
                    .by_kind
                    .push((target.pool.requests[i].kind, latency_us));
                if now_ns <= window_ns {
                    result.matched_in_window += 1;
                }
            }
            ok
        }
        Sent::Healthz => {
            let ok = healthz_ok(response);
            if ok {
                result.healthz_us.push(latency_us);
            }
            ok
        }
    };
    if !ok {
        result.failed += 1;
    }
}

/// The generator's connections and clock.
pub struct Generator {
    conns: Vec<Conn>,
    healthz: Vec<u8>,
}

impl Generator {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Generator> {
        sys::tighten_timer_slack();
        Ok(Generator {
            conns: (0..CONNECTIONS)
                .map(|_| Conn::connect(addr))
                .collect::<std::io::Result<_>>()?,
            healthz: get_wire("/healthz"),
        })
    }

    /// Reads and settles every response that has arrived; returns how
    /// many completed per connection.
    fn collect(
        &mut self,
        target: &Target<'_>,
        result: &mut PhaseResult,
        start: Instant,
        window_ns: u64,
        completed: &mut [usize; CONNECTIONS],
    ) -> std::io::Result<()> {
        for (c, conn) in self.conns.iter_mut().enumerate() {
            conn.fill()?;
            let now_ns = start.elapsed().as_nanos() as u64;
            while let Some((inflight, range)) = conn.take_response() {
                let response = &conn.input[range];
                settle(target, result, &inflight, response, now_ns, window_ns);
                completed[c] += 1;
            }
        }
        Ok(())
    }

    fn wait(&self, timeout: Duration) {
        let wants: Vec<Want> = self.conns.iter().map(Conn::want).collect();
        sys::wait_ready(&wants, timeout);
    }

    /// Waits for every in-flight request; unanswered ones count as failed.
    fn drain(
        &mut self,
        target: &Target<'_>,
        result: &mut PhaseResult,
        start: Instant,
        window_ns: u64,
    ) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut completed = [0; CONNECTIONS];
        while self.conns.iter().any(|c| !c.inflight.is_empty()) && Instant::now() < deadline {
            let io = self
                .conns
                .iter_mut()
                .try_for_each(Conn::flush)
                .and_then(|()| self.collect(target, result, start, window_ns, &mut completed));
            if io.is_err() {
                break;
            }
            self.wait(Duration::from_millis(1));
        }
        for conn in &mut self.conns {
            result.failed += conn.inflight.len() as u64;
            conn.inflight.clear();
        }
    }

    /// Runs the open-loop phase.
    pub fn open_loop(
        &mut self,
        target: &Target<'_>,
        stream: &mut Stream<'_>,
        plan: &OpenLoop,
    ) -> PhaseResult {
        let mut result = PhaseResult::default();
        let request_gap = 1e9 / plan.rate_per_s;
        let probe_gap = 1e9 / plan.probes_per_s;
        let end_ns = plan.duration.as_nanos() as u64;
        let (mut requests, mut probes) = (0u64, 0u64);
        let mut completed = [0; CONNECTIONS];
        let start = Instant::now();
        loop {
            let request_due = (requests as f64 * request_gap) as u64;
            // Probes sit half a gap off the request grid.
            let probe_due = ((probes as f64 + 0.5) * probe_gap) as u64;
            let due = request_due.min(probe_due);
            if due >= end_ns {
                break;
            }
            let now_ns = start.elapsed().as_nanos() as u64;
            if now_ns >= due {
                let sent = if probe_due < request_due {
                    probes += 1;
                    Sent::Healthz
                } else {
                    requests += 1;
                    Sent::Pooled(stream.next().expect("streams are endless"))
                };
                result.late_us.push((now_ns - due) as f64 / 1e3);
                result.attempted += 1;
                result.sends.add(route_of(target, sent), 1);
                let conn = self
                    .conns
                    .iter_mut()
                    .min_by_key(|c| c.inflight.len())
                    .expect("at least one connection");
                let wire = match sent {
                    Sent::Pooled(i) => &target.pool.requests[i].wire,
                    Sent::Healthz => &self.healthz,
                };
                conn.queue(wire, InFlight { sent, due_ns: due });
                if conn.flush().is_err() {
                    break;
                }
                continue;
            }
            let io = self
                .conns
                .iter_mut()
                .try_for_each(Conn::flush)
                .and_then(|()| self.collect(target, &mut result, start, 0, &mut completed));
            if io.is_err() {
                break;
            }
            let now_ns = start.elapsed().as_nanos() as u64;
            if now_ns < due {
                self.wait(Duration::from_nanos(due - now_ns));
            }
        }
        self.drain(target, &mut result, start, 0);
        result
    }

    /// Runs the closed-loop saturation phase: `window` requests in flight
    /// per connection for `duration`.
    pub fn closed_loop(
        &mut self,
        target: &Target<'_>,
        stream: &mut Stream<'_>,
        window: usize,
        duration: Duration,
    ) -> PhaseResult {
        let mut result = PhaseResult::default();
        let window_ns = duration.as_nanos() as u64;
        let start = Instant::now();
        let mut refill = [window; CONNECTIONS];
        loop {
            let now_ns = start.elapsed().as_nanos() as u64;
            if now_ns >= window_ns {
                break;
            }
            for (c, conn) in self.conns.iter_mut().enumerate() {
                for _ in 0..refill[c] {
                    let index = stream.next().expect("streams are endless");
                    result.attempted += 1;
                    result.sends.add(route_of(target, Sent::Pooled(index)), 1);
                    conn.queue(
                        &target.pool.requests[index].wire,
                        InFlight {
                            sent: Sent::Pooled(index),
                            due_ns: now_ns,
                        },
                    );
                }
                refill[c] = 0;
            }
            let mut completed = [0; CONNECTIONS];
            let io = self
                .conns
                .iter_mut()
                .try_for_each(Conn::flush)
                .and_then(|()| self.collect(target, &mut result, start, window_ns, &mut completed));
            if io.is_err() {
                break;
            }
            if completed.iter().all(|&n| n == 0) {
                self.wait(Duration::from_millis(5));
            }
            refill = completed;
        }
        self.drain(target, &mut result, start, window_ns);
        result.window_s = duration.as_secs_f64();
        result
    }
}
