//! Seeded request generation for the two served workloads.
//!
//! Every body is built from the repository's typed [`Query`] values and
//! serialized with [`Query::request_body`] — exactly what `POST /v1/<kind>`
//! decodes — so the server sees only generated bytes. All randomness comes
//! from the in-tree [`SplitMix64`]: the same seed gives byte-identical
//! request pools and request streams.
//!
//! A workload is a *pool* of distinct requests (each gets one golden
//! response at set-up) plus a *stream*: an endless, seeded sequence of pool
//! indices the load generator sends in order.

use gf_support::SplitMix64;
use greenfpga::api::{
    BatchEvalRequest, CompareRequest, EvaluateRequest, OptimizeRequest, Query, ReplayRequest,
    ScenarioRef, ScenarioRunRequest, SeriesRef,
};
use greenfpga::{
    catalog, Constraint, Domain, Knob, Objective, OperatingPoint, ScenarioSpec, SearchKnob,
    SweepAxis,
};

/// What a pooled request exercises; also its reporting label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Evaluate,
    Scenario,
    Compare,
    Batch,
    Replay,
    Optimize,
    /// `/v1/evaluate` at `applications` = [`LARGE_APPLICATIONS`]: legal,
    /// served inline, and (today) linear in the applications count.
    LargeEvaluate,
}

/// One distinct request of a pool.
pub struct Request {
    pub kind: Kind,
    pub query: Query,
    /// The JSON body.
    pub body: String,
    /// The full keep-alive HTTP request, as written to the socket.
    pub wire: Vec<u8>,
}

impl Request {
    fn new(kind: Kind, query: Query) -> Request {
        let body = query
            .request_body()
            .to_json_string()
            .expect("generated requests serialize");
        let wire = post_wire(query.kind().path(), &body);
        Request {
            kind,
            query,
            body,
            wire,
        }
    }

    /// Whether the server answers this request on a worker thread
    /// (mirrors the server's dispatch placement).
    pub fn offloaded(&self) -> bool {
        matches!(self.kind, Kind::Batch | Kind::Replay | Kind::Optimize)
    }
}

/// Encodes one keep-alive `POST`.
pub fn post_wire(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Encodes one keep-alive `GET`.
pub fn get_wire(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Distinct inline knob-override specs in `serve_point`: larger than the
/// server's 64-entry compiled-scenario cache, so override traffic misses.
pub const OVERRIDE_SPECS: usize = 512;
/// One `serve_point` request in this many carries knob overrides.
pub const OVERRIDE_EVERY: u64 = 10;
/// Points per `/v1/batch` request in `serve_fanout`.
pub const BATCH_POINTS: u64 = 64;
/// `applications` of the large inline requests in `serve_fanout`.
pub const LARGE_APPLICATIONS: u64 = 10_000_000;
/// Every this-many `serve_fanout` slot is a large inline evaluate. An
/// assumption, not a measured traffic share: at the open-loop rate it
/// blocks the event loop for about a tenth of the run, so the stall
/// reaches the `/healthz` p99 without saturating the loop.
pub const LARGE_EVERY: u64 = 80;

/// `serve_point` weights, evaluate : scenario : compare. Evaluate to
/// scenario is `serve_load`'s per-pass count, 50 000 : 2 000. `serve_load`
/// sends no compare, so compare is given the scenario share; that is an
/// assumption.
const POINT_WEIGHTS: [u64; 3] = [25, 1, 1];
/// `serve_fanout` weights, batch : replay : optimize: `serve_load`'s
/// per-pass counts, 500 : 200 : 200.
const FANOUT_WEIGHTS: [u64; 3] = [5, 2, 2];

/// A request pool split into kind groups, and the weights the stream
/// draws each group with.
pub struct Pool {
    pub requests: Vec<Request>,
    groups: Vec<Group>,
    large: Vec<usize>,
    workload: Served,
}

struct Group {
    weight: u64,
    members: Vec<usize>,
}

/// The two served workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Point,
    Fanout,
}

impl Pool {
    /// The pool of distinct requests for `workload`, generated from `seed`.
    pub fn generate(workload: Served, seed: u64) -> Pool {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0000_0000_0001);
        let mut pool = Pool {
            requests: Vec::new(),
            groups: Vec::new(),
            large: Vec::new(),
            workload,
        };
        match workload {
            Served::Point => pool.fill_point(&mut rng),
            Served::Fanout => pool.fill_fanout(&mut rng),
        }
        pool
    }

    fn push_group(&mut self, weight: u64, requests: Vec<Request>) {
        let from = self.requests.len();
        self.requests.extend(requests);
        self.groups.push(Group {
            weight,
            members: (from..self.requests.len()).collect(),
        });
    }

    /// `serve_point`: inline point routes, weighted by [`POINT_WEIGHTS`].
    /// The override group is drawn separately, one request in
    /// [`OVERRIDE_EVERY`], and splits into the same kinds by the same
    /// weights.
    fn fill_point(&mut self, rng: &mut SplitMix64) {
        let evaluates = (0..1536)
            .map(|i| {
                let domain = Domain::ALL[i % 3];
                Request::new(
                    Kind::Evaluate,
                    Query::Evaluate(EvaluateRequest {
                        scenario: ScenarioSpec::baseline(domain),
                        point: paper_point(rng),
                    }),
                )
            })
            .collect();
        let [evaluate, scenario, compare] = POINT_WEIGHTS;
        self.push_group(evaluate, evaluates);
        let scenarios = catalog()
            .iter()
            .map(|entry| {
                Request::new(
                    Kind::Scenario,
                    Query::Scenario(ScenarioRunRequest {
                        scenario: ScenarioRef::Catalog {
                            id: entry.id.to_string(),
                            knobs: Vec::new(),
                        },
                        point: None,
                    }),
                )
            })
            .collect();
        self.push_group(scenario, scenarios);
        let compares = (0..512)
            .map(|i| {
                let count = 2 + i % 2;
                Request::new(
                    Kind::Compare,
                    Query::Compare(CompareRequest {
                        scenarios: (0..count)
                            .map(|d| ScenarioSpec::baseline(Domain::ALL[(i + d) % 3]))
                            .collect(),
                        point: paper_point(rng),
                    }),
                )
            })
            .collect();
        self.push_group(compare, compares);
        let overrides = override_specs(rng)
            .into_iter()
            .enumerate()
            .map(
                |(i, spec)| match i as u64 % (evaluate + scenario + compare) {
                    k if k < evaluate => Request::new(
                        Kind::Evaluate,
                        Query::Evaluate(EvaluateRequest {
                            scenario: spec,
                            point: paper_point(rng),
                        }),
                    ),
                    k if k < evaluate + compare => Request::new(
                        Kind::Compare,
                        Query::Compare(CompareRequest {
                            scenarios: vec![spec.clone(), ScenarioSpec::baseline(spec.domain)],
                            point: paper_point(rng),
                        }),
                    ),
                    _ => Request::new(
                        Kind::Scenario,
                        Query::Scenario(ScenarioRunRequest {
                            scenario: ScenarioRef::Catalog {
                                id: catalog()[rng.gen_index(catalog().len())].id.to_string(),
                                knobs: spec.knobs,
                            },
                            point: None,
                        }),
                    ),
                },
            )
            .collect();
        // Weight 0: never drawn by the weighted pick, only by the
        // one-in-ten override draw in `Stream::next`.
        self.push_group(0, overrides);
    }

    /// `serve_fanout`: offloaded routes plus the large inline evaluates.
    fn fill_fanout(&mut self, rng: &mut SplitMix64) {
        let batches = (0..32)
            .map(|i| {
                let points = (1..=BATCH_POINTS)
                    .map(|applications| OperatingPoint {
                        applications,
                        ..paper_point(rng)
                    })
                    .collect();
                Request::new(
                    Kind::Batch,
                    Query::Batch(BatchEvalRequest {
                        scenario: ScenarioSpec::baseline(Domain::ALL[i % 3]),
                        points,
                    }),
                )
            })
            .collect();
        let [batch, replay, optimize] = FANOUT_WEIGHTS;
        self.push_group(batch, batches);
        // Every (catalog id, years) pair the server accepts: one to the
        // entry's lifetime rounded up.
        let replays = catalog()
            .iter()
            .flat_map(|entry| {
                (1..=entry.point.lifetime_years.ceil() as u64).map(move |years| {
                    Request::new(
                        Kind::Replay,
                        Query::Replay(ReplayRequest {
                            scenario: ScenarioRef::Catalog {
                                id: entry.id.to_string(),
                                knobs: Vec::new(),
                            },
                            point: None,
                            series: SeriesRef::Region("solar_duck".to_string()),
                            interpolate: true,
                            years,
                        }),
                    )
                })
            })
            .collect();
        self.push_group(replay, replays);
        let optimizes = (0..16)
            .map(|i| {
                let id = OPTIMIZE_IDS[i % OPTIMIZE_IDS.len()];
                let low = rng.gen_range_u64(50, 100) as f64 / 100.0;
                let high = rng.gen_range_u64(300, 500) as f64 / 100.0;
                Request::new(
                    Kind::Optimize,
                    Query::Optimize(OptimizeRequest {
                        scenario: ScenarioRef::Catalog {
                            id: id.to_string(),
                            knobs: Vec::new(),
                        },
                        point: None,
                        objective: Objective::MinRatio,
                        search: vec![
                            SearchKnob {
                                axis: SweepAxis::Applications,
                                min: 1.0,
                                max: rng.gen_range_u64(8, 32) as f64,
                                integer: true,
                            },
                            SearchKnob {
                                axis: SweepAxis::LifetimeYears,
                                min: low,
                                max: high,
                                integer: false,
                            },
                        ],
                        constraints: vec![Constraint::FpgaWins],
                        tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
                        max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
                    }),
                )
            })
            .collect();
        self.push_group(optimize, optimizes);
        for domain in Domain::ALL {
            self.large.push(self.requests.len());
            self.requests.push(Request::new(
                Kind::LargeEvaluate,
                Query::Evaluate(EvaluateRequest {
                    scenario: ScenarioSpec::baseline(domain),
                    point: OperatingPoint {
                        applications: LARGE_APPLICATIONS,
                        ..paper_point(rng)
                    },
                }),
            ));
        }
    }

    /// The seeded stream of pool indices for this pool.
    pub fn stream(&self, seed: u64) -> Stream<'_> {
        Stream {
            pool: self,
            rng: SplitMix64::new(seed ^ 0x5EED_0000_0000_0002),
            slot: 0,
        }
    }
}

/// Catalog ids the `serve_fanout` optimize requests search over: fleets
/// where the FPGA wins somewhere in every generated box, so the
/// `fpga_wins` constraint is feasible and every request answers `200`.
const OPTIMIZE_IDS: [&str; 4] = [
    "dnn_fleet_10k_3y",
    "imgproc_fleet_100k_2y",
    "asic_worst_many_apps",
    "crypto_low_duty_edge",
];

/// An endless seeded sequence of pool indices.
pub struct Stream<'a> {
    pool: &'a Pool,
    rng: SplitMix64,
    slot: u64,
}

impl Iterator for Stream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let slot = self.slot;
        self.slot += 1;
        let pool = self.pool;
        if pool.workload == Served::Fanout && slot % LARGE_EVERY == LARGE_EVERY - 1 {
            let large = &pool.large;
            return Some(large[(slot / LARGE_EVERY) as usize % large.len()]);
        }
        if pool.workload == Served::Point && self.rng.next_u64().is_multiple_of(OVERRIDE_EVERY) {
            let overrides = &pool.groups.last().expect("override group").members;
            return Some(overrides[self.rng.gen_index(overrides.len())]);
        }
        let total: u64 = pool.groups.iter().map(|g| g.weight).sum();
        let mut pick = self.rng.gen_range_u64(0, total - 1);
        for group in &pool.groups {
            if pick < group.weight {
                return Some(group.members[self.rng.gen_index(group.members.len())]);
            }
            pick -= group.weight;
        }
        unreachable!("the pick is below the total weight")
    }
}

/// A point in the paper's ranges: 1–24 applications, 0.5–5 years in
/// hundredths, 10⁴–10⁷ devices log-uniformly.
fn paper_point(rng: &mut SplitMix64) -> OperatingPoint {
    OperatingPoint {
        applications: rng.gen_range_u64(1, 24),
        lifetime_years: rng.gen_range_u64(50, 500) as f64 / 100.0,
        volume: 10f64.powf(rng.gen_range_f64(4.0, 7.0)).round() as u64,
    }
}

/// [`OVERRIDE_SPECS`] distinct inline specs, each overriding one to three
/// Table 1 knobs with values in range (three significant digits).
fn override_specs(rng: &mut SplitMix64) -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(OVERRIDE_SPECS);
    while specs.len() < OVERRIDE_SPECS {
        let domain = Domain::ALL[rng.gen_index(3)];
        let count = 1 + rng.gen_index(3);
        let mut knobs: Vec<(Knob, f64)> = Vec::with_capacity(count);
        while knobs.len() < count {
            let knob = Knob::ALL[rng.gen_index(Knob::ALL.len())];
            if knobs.iter().any(|&(k, _)| k == knob) {
                continue;
            }
            let range = knob.range();
            let raw = rng.gen_range_f64(range.low, range.high);
            let scale = 10f64.powi(2 - raw.abs().log10().floor() as i32);
            knobs.push((knob, (raw * scale).round() / scale));
        }
        let spec = ScenarioSpec { domain, knobs };
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: Served, seed: u64, n: usize) -> Vec<u8> {
        let pool = Pool::generate(workload, seed);
        pool.stream(seed)
            .take(n)
            .flat_map(|i| pool.requests[i].wire.clone())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for workload in [Served::Point, Served::Fanout] {
            assert_eq!(
                stream_bytes(workload, 7, 2000),
                stream_bytes(workload, 7, 2000)
            );
            assert_ne!(
                stream_bytes(workload, 7, 2000),
                stream_bytes(workload, 8, 2000)
            );
        }
    }

    #[test]
    fn override_working_set_exceeds_the_cache() {
        let pool = Pool::generate(Served::Point, 1);
        let overrides = &pool.groups.last().unwrap().members;
        assert_eq!(overrides.len(), OVERRIDE_SPECS);
        const { assert!(OVERRIDE_SPECS > 64) };
        // Roughly one in ten drawn requests is an override.
        let drawn = pool
            .stream(1)
            .take(20_000)
            .filter(|i| overrides.contains(i))
            .count();
        assert!((1500..2500).contains(&drawn), "{drawn}");
    }

    #[test]
    fn fanout_schedules_large_requests_on_a_fixed_slot_schedule() {
        let pool = Pool::generate(Served::Fanout, 3);
        for (slot, index) in pool.stream(3).take(800).enumerate() {
            let large = pool.requests[index].kind == Kind::LargeEvaluate;
            assert_eq!(large, slot as u64 % LARGE_EVERY == LARGE_EVERY - 1);
        }
    }
}
