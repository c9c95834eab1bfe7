//! Frozen wire corpus: the request, response and error bytes of every
//! query kind, byte-compared against `tests/fixtures/wire/<kind>.txt`.
//!
//! The corpus is an oracle for the codec in `greenfpga::api`: it was
//! written by the code it now checks, and any later change to a wire byte
//! shows up here as a diff. Five checks read it:
//!
//! * (a) typed requests (and hand-written sparse bodies, once decoded)
//!   encode to the frozen `request` and `query` bytes;
//! * (b) every frozen `request`, `query`, `result` and `outcome` line
//!   decodes and re-encodes to itself — the codec alone, apart from any
//!   engine numerics;
//! * (c) `Engine::run` answers with the frozen `result` and `outcome`
//!   bytes;
//! * (d) malformed bodies answer with the frozen `ApiError` body;
//! * (e) the byte writer the server answers with (`Outcome::write_result`,
//!   `ToJson::write_json`: no `Value` tree) gives the same frozen bytes as
//!   the `Value` path the other checks render through.
//!
//! Re-freezing is deliberate: run
//! `cargo test -p gf-tests --test wire_corpus -- --ignored regenerate`
//! and give the reason for every changed entry in `CHANGES.md`.
//!
//! ## File format
//!
//! One file per kind. Each case opens with `== <name>` and carries one
//! `<tag> <compact JSON>` line per artifact:
//!
//! * `body` — a hand-written request body (sparse or malformed input);
//! * `request` — the flat request body the typed request encodes to;
//! * `query` — the `{"v","kind",...}` envelope;
//! * `result` — the body `Engine::run`'s outcome encodes to;
//! * `outcome` — the `{"v","kind","result"}` envelope;
//! * `error` — the `ApiError` body answered instead.

use std::fmt::Write as _;
use std::path::PathBuf;

use gf_json::{parse, FromJson, JsonError, ToJson};
use gf_support::SplitMix64;
use greenfpga::api::{
    grid_stream_head, grid_stream_rows, grid_stream_tail, BatchEvalRequest, CatalogRequest,
    CompareRequest, CrossoverRequest, EvaluateRequest, FrontierRequest, GridRequest,
    IndustryRequest, MonteCarloRequest, OptimizeRequest, Outcome, Query, QueryKind, ReplayRequest,
    ScenarioRef, ScenarioRunRequest, ScenarioSpec, SeriesRef, SweepRequest, TornadoRequest,
};
use greenfpga::{
    catalog, ApiError, CarbonIntensitySeries, Constraint, Domain, Engine, Knob, Objective,
    OperatingPoint, OptPlatform, SearchKnob, SweepAxis,
};

/// One corpus case: a typed query, or a hand-written body that is either
/// valid (sparse: members left to their defaults) or malformed.
enum Input {
    Typed(Query),
    Body(String),
    Bad(String),
}

struct Case {
    name: String,
    input: Input,
}

fn typed(name: impl Into<String>, query: Query) -> Case {
    Case {
        name: name.into(),
        input: Input::Typed(query),
    }
}

/// One line of a corpus file: `(case name, tag, JSON text)`.
type Line = (String, String, String);

fn corpus_path(kind: QueryKind) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/wire")).join(format!("{kind}.txt"))
}

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

const DOMAINS: [Domain; 3] = [Domain::Dnn, Domain::ImageProcessing, Domain::Crypto];
const AXES: [SweepAxis; 3] = [
    SweepAxis::Applications,
    SweepAxis::LifetimeYears,
    SweepAxis::VolumeUnits,
];

fn seed_for(kind: QueryKind) -> u64 {
    kind.id().bytes().fold(0x6772_6565_6e66_7067, |h, b| {
        h.rotate_left(7) ^ u64::from(b)
    })
}

fn point(rng: &mut SplitMix64) -> OperatingPoint {
    OperatingPoint {
        applications: rng.gen_range_u64(1, 20),
        lifetime_years: rng.gen_range_f64(0.25, 5.0),
        volume: rng.gen_range_u64(1_000, 10_000_000),
    }
}

fn knobs(rng: &mut SplitMix64) -> Vec<(Knob, f64)> {
    let mut chosen: Vec<(Knob, f64)> = Vec::new();
    for _ in 0..rng.gen_range_u64(0, 3) {
        let knob = Knob::ALL[rng.gen_index(Knob::ALL.len())];
        if chosen.iter().all(|&(seen, _)| seen != knob) {
            let range = knob.range();
            chosen.push((knob, rng.gen_range_f64(range.low, range.high)));
        }
    }
    chosen
}

fn spec(rng: &mut SplitMix64) -> ScenarioSpec {
    ScenarioSpec {
        domain: DOMAINS[rng.gen_index(DOMAINS.len())],
        knobs: knobs(rng),
    }
}

fn platform(rng: &mut SplitMix64) -> OptPlatform {
    if rng.gen_bool() {
        OptPlatform::Fpga
    } else {
        OptPlatform::Asic
    }
}

/// A distinct `(x, y)` axis pair with ranges that suit each axis.
fn lattice_axes(rng: &mut SplitMix64) -> (SweepAxis, (f64, f64), SweepAxis, (f64, f64)) {
    let x = rng.gen_index(AXES.len());
    let y = (x + 1 + rng.gen_index(AXES.len() - 1)) % AXES.len();
    let range = |axis: SweepAxis, rng: &mut SplitMix64| match axis {
        SweepAxis::Applications => (1.0, rng.gen_range_f64(4.0, 16.0).round()),
        SweepAxis::LifetimeYears => (0.25, rng.gen_range_f64(1.0, 4.0)),
        _ => (1_000.0, rng.gen_range_f64(1e5, 1e7).round()),
    };
    let x_range = range(AXES[x], rng);
    let y_range = range(AXES[y], rng);
    (AXES[x], x_range, AXES[y], y_range)
}

// ---------------------------------------------------------------------------
// Cases per kind
// ---------------------------------------------------------------------------

/// Hand-written bodies, one per line: `<kinds> <tag> <name> <body>`, where
/// `body` marks a valid sparse body and `bad` a malformed one. They follow
/// each kind's typed cases, in this order.
const HAND_WRITTEN: &str = r#"
evaluate body domain-only {"domain":"dnn"}
evaluate body alias-domain {"domain":"Image"}
evaluate body partial-point {"domain":"crypto","point":{"applications":3}}
evaluate body null-members {"domain":"imgproc","knobs":null,"point":null}
evaluate body explicit-defaults {"domain":"dnn","knobs":{},"point":{"applications":5,"lifetime_years":2,"volume":1000000}}
evaluate bad missing-domain {}
evaluate bad not-an-object []
evaluate bad syntax {"domain":
evaluate bad unknown-domain {"domain":"gpu"}
evaluate bad domain-not-string {"domain":7}
evaluate bad unknown-knob {"domain":"dnn","knobs":{"warp":1}}
evaluate bad knob-not-number {"domain":"dnn","knobs":{"duty_cycle":"x"}}
evaluate bad knob-twice {"domain":"dnn","knobs":{"duty_cycle":0.1,"duty_cycle":0.2}}
evaluate bad knobs-not-object {"domain":"dnn","knobs":[1]}
evaluate bad point-not-object {"domain":"dnn","point":7}
evaluate bad negative-volume {"domain":"dnn","point":{"volume":-3}}
evaluate bad fractional-apps {"domain":"dnn","point":{"applications":2.5}}
evaluate bad lifetime-not-number {"domain":"dnn","point":{"lifetime_years":"long"}}
evaluate bad zero-applications {"domain":"dnn","point":{"applications":0}}
batch body default-points {"domain":"dnn","points":[{},{"volume":5000}]}
batch bad missing-points {"domain":"dnn"}
batch bad points-not-array {"domain":"dnn","points":7}
batch bad bad-point {"domain":"dnn","points":[{},{"lifetime_years":"x"}]}
compare body default-point {"scenarios":[{"domain":"dnn"},{"domain":"crypto","knobs":{"duty_cycle":0.2}}]}
compare bad missing-scenarios {}
compare bad no-scenarios {"scenarios":[]}
compare bad too-many-scenarios {"scenarios":[{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"},{"domain":"dnn"}]}
compare bad unknown-domain {"scenarios":[{"domain":"dnn"},{"domain":"tpu"}]}
crossover body domain-only {"domain":"imgproc"}
crossover body explicit-ranges {"domain":"dnn","max_applications":8,"lifetime_range":[0.5,2.5],"volume_range":[10,1000]}
crossover bad short-lifetime-range {"domain":"dnn","lifetime_range":[1]}
crossover bad lifetime-range-strings {"domain":"dnn","lifetime_range":["a","b"]}
crossover bad fractional-volume-range {"domain":"dnn","volume_range":[1.5,2]}
crossover bad volume-range-not-array {"domain":"dnn","volume_range":5}
crossover bad negative-max-applications {"domain":"dnn","max_applications":-1}
frontier,grid body domain-only {"domain":"dnn"}
frontier,grid body small-lattice {"domain":"crypto","steps":3,"x_axis":"volume","x_from":1000,"x_to":100000,"y_axis":"applications"}
frontier,grid body null-geometry {"domain":"imgproc","steps":4,"x_axis":null,"y_to":null}
grid body stream-false {"domain":"dnn","steps":2,"stream":false}
grid bad stream-not-bool {"domain":"dnn","steps":2,"stream":1}
frontier,grid bad steps-one {"domain":"dnn","steps":1}
frontier,grid bad steps-huge {"domain":"dnn","steps":4096}
frontier,grid bad steps-fractional {"domain":"dnn","steps":2.5}
frontier,grid bad same-axes {"domain":"dnn","y_axis":"apps"}
frontier,grid bad inverted-x {"domain":"dnn","x_from":5,"x_to":2}
frontier,grid bad inverted-y {"domain":"dnn","y_from":3,"y_to":1}
frontier,grid bad bogus-x-axis {"domain":"dnn","x_axis":"bogus"}
frontier,grid bad bogus-y-axis {"domain":"dnn","y_axis":"bogus"}
frontier,grid bad x-axis-not-string {"domain":"dnn","x_axis":3}
frontier,grid bad missing-domain {"steps":3}
sweep body default-steps {"domain":"dnn","axis":"apps","from":1,"to":12}
sweep body axis-alias {"domain":"crypto","axis":"Applications","from":1,"to":4,"steps":4}
sweep bad missing-axis {"domain":"dnn","from":1,"to":2}
sweep bad missing-from {"domain":"dnn","axis":"apps","to":2}
sweep bad bogus-axis {"domain":"dnn","axis":"watts","from":1,"to":2}
sweep bad inverted-range {"domain":"dnn","axis":"apps","from":5,"to":2}
sweep bad steps-one {"domain":"dnn","axis":"apps","from":1,"to":2,"steps":1}
sweep bad steps-huge {"domain":"dnn","axis":"apps","from":1,"to":2,"steps":100001}
tornado body domain-only {"domain":"crypto"}
tornado bad missing-domain {"point":{}}
montecarlo body domain-only {"domain":"crypto"}
montecarlo body explicit-seed {"domain":"dnn","samples":32,"seed":7}
montecarlo bad zero-samples {"domain":"dnn","samples":0}
montecarlo bad too-many-samples {"domain":"dnn","samples":2097152}
montecarlo bad negative-seed {"domain":"dnn","samples":8,"seed":-1}
montecarlo bad seed-too-large {"domain":"dnn","samples":8,"seed":9007199254740992}
industry body empty {}
industry body volume-only {"volume":250000}
industry bad not-an-object [1]
industry bad zero-years {"service_years":0}
industry bad zero-applications {"fpga_applications":0}
industry bad zero-volume {"volume":0}
industry bad unknown-knob {"knobs":{"warp":1}}
scenario body null-point {"id":"dnn_baseline","point":null}
scenario body null-id {"id":null,"domain":"crypto"}
scenario bad unknown-id {"id":"atlantis"}
scenario bad id-not-string {"id":7}
scenario bad missing-domain {}
scenario bad bad-catalog-knob {"id":"dnn_baseline","knobs":{"warp":2}}
replay body id-only {"id":"crypto_baseline"}
replay body null-members {"domain":"dnn","series":null,"years":null,"interpolate":null}
replay body inline-default-step {"domain":"imgproc","series":{"points":[300,500,100]}}
replay bad series-not-valid {"domain":"dnn","series":7}
replay bad series-empty {"domain":"dnn","series":{"points":[]}}
replay bad series-missing-points {"domain":"dnn","series":{"step_hours":2}}
replay bad unknown-region {"domain":"dnn","series":"mars"}
replay bad years-beyond-lifetime {"domain":"dnn","point":{"lifetime_years":1.5},"years":4}
replay bad zero-years {"domain":"dnn","years":0}
replay bad interpolate-not-bool {"domain":"dnn","interpolate":"yes"}
optimize body minimal {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12}]}
optimize body null-optionals {"id":"dnn_baseline","objective":{"goal":"min_total","platform":null},"search":[{"axis":"lifetime","min":0.5,"max":3,"integer":null}],"constraints":null,"tolerance":null,"max_evals":null,"point":null}
optimize body explicit-defaults {"domain":"crypto","objective":{"goal":"budget","platform":"fpga","budget_kg":5e8},"search":[{"axis":"volume","min":1000,"max":1000000,"integer":false}],"constraints":[],"tolerance":1e-6,"max_evals":10000}
optimize bad missing-objective {"domain":"dnn","search":[{"axis":"apps","min":1,"max":12}]}
optimize bad missing-search {"domain":"dnn","objective":{"goal":"min_ratio"}}
optimize bad unknown-goal {"domain":"dnn","objective":{"goal":"max_fun"},"search":[{"axis":"apps","min":1,"max":12}]}
optimize bad goal-not-string {"domain":"dnn","objective":{"goal":1},"search":[{"axis":"apps","min":1,"max":12}]}
optimize bad budget-without-kg {"domain":"dnn","objective":{"goal":"budget"},"search":[{"axis":"apps","min":1,"max":12}]}
optimize bad bogus-platform {"domain":"dnn","objective":{"goal":"min_total","platform":"gpu"},"search":[{"axis":"apps","min":1,"max":12}]}
optimize bad bogus-search-axis {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"watts","min":1,"max":12}]}
optimize bad search-missing-max {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1}]}
optimize bad unknown-constraint {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12}],"constraints":[{"kind":"cheap"}]}
optimize bad constraint-without-limit {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12}],"constraints":[{"kind":"max_total_kg"}]}
optimize bad max-evals-fractional {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12}],"max_evals":1.5}
optimize bad infeasible {"domain":"dnn","objective":{"goal":"min_ratio"},"search":[{"axis":"apps","min":1,"max":12}],"constraints":[{"kind":"max_total_kg","limit_kg":1}]}
catalog body extra-members {"ignored":true}
catalog bad not-an-object 7
"#;

fn cases(kind: QueryKind) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed_for(kind));
    let rng = &mut rng;
    let mut out = Vec::new();
    match kind {
        QueryKind::Evaluate => {
            for domain in DOMAINS {
                out.push(typed(
                    format!("baseline/{domain:?}"),
                    Query::Evaluate(EvaluateRequest {
                        scenario: ScenarioSpec::baseline(domain),
                        point: OperatingPoint::paper_default(),
                    }),
                ));
            }
            for i in 0..6 {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Evaluate(EvaluateRequest {
                        scenario: spec(rng),
                        point: point(rng),
                    }),
                ));
            }
        }
        QueryKind::Batch => {
            for (i, n) in [1usize, 3, 5].into_iter().enumerate() {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Batch(BatchEvalRequest {
                        scenario: spec(rng),
                        points: (0..n).map(|_| point(rng)).collect(),
                    }),
                ));
            }
            out.push(typed(
                "empty",
                Query::Batch(BatchEvalRequest {
                    scenario: ScenarioSpec::baseline(Domain::Dnn),
                    points: Vec::new(),
                }),
            ));
        }
        QueryKind::Compare => {
            out.push(typed(
                "all-domains",
                Query::Compare(CompareRequest {
                    scenarios: DOMAINS.into_iter().map(ScenarioSpec::baseline).collect(),
                    point: OperatingPoint::paper_default(),
                }),
            ));
            for i in 0..3 {
                let count = 1 + rng.gen_index(4);
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Compare(CompareRequest {
                        scenarios: (0..count).map(|_| spec(rng)).collect(),
                        point: point(rng),
                    }),
                ));
            }
        }
        QueryKind::Crossover => {
            for domain in DOMAINS {
                out.push(typed(
                    format!("default-ranges/{domain:?}"),
                    Query::Crossover(CrossoverRequest::with_default_ranges(
                        ScenarioSpec::baseline(domain),
                        OperatingPoint::paper_default(),
                    )),
                ));
            }
            for i in 0..3 {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Crossover(CrossoverRequest {
                        scenario: spec(rng),
                        base: point(rng),
                        max_applications: rng.gen_range_u64(2, 40),
                        lifetime_range: (0.1, rng.gen_range_f64(1.0, 8.0)),
                        volume_range: (100, rng.gen_range_u64(100_000, 90_000_000)),
                    }),
                ));
            }
        }
        QueryKind::Frontier | QueryKind::Grid => {
            for i in 0..4 {
                let (x_axis, x_range, y_axis, y_range) = lattice_axes(rng);
                let scenario = spec(rng);
                let base = point(rng);
                let steps = 2 + rng.gen_index(5);
                let query = if kind == QueryKind::Frontier {
                    Query::Frontier(FrontierRequest {
                        scenario,
                        base,
                        x_axis,
                        x_range,
                        y_axis,
                        y_range,
                        steps,
                    })
                } else {
                    Query::Grid(GridRequest {
                        scenario,
                        base,
                        x_axis,
                        x_range,
                        y_axis,
                        y_range,
                        steps,
                        stream: i % 2 == 1,
                    })
                };
                out.push(typed(format!("seeded/{i}"), query));
            }
        }
        QueryKind::Sweep => {
            for i in 0..5 {
                let axis = AXES[i % AXES.len()];
                let range = match axis {
                    SweepAxis::Applications => (1.0, rng.gen_range_f64(4.0, 20.0).round()),
                    SweepAxis::LifetimeYears => (0.25, rng.gen_range_f64(1.0, 5.0)),
                    _ => (1_000.0, rng.gen_range_f64(1e5, 1e7).round()),
                };
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Sweep(SweepRequest {
                        scenario: spec(rng),
                        base: point(rng),
                        axis,
                        range,
                        steps: 2 + rng.gen_index(9),
                    }),
                ));
            }
        }
        QueryKind::Tornado => {
            for domain in DOMAINS {
                out.push(typed(
                    format!("baseline/{domain:?}"),
                    Query::Tornado(TornadoRequest {
                        scenario: ScenarioSpec::baseline(domain),
                        point: OperatingPoint::paper_default(),
                    }),
                ));
            }
            for i in 0..2 {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Tornado(TornadoRequest {
                        scenario: spec(rng),
                        point: point(rng),
                    }),
                ));
            }
        }
        QueryKind::MonteCarlo => {
            for i in 0..3 {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::MonteCarlo(MonteCarloRequest {
                        scenario: spec(rng),
                        point: point(rng),
                        samples: 16 + rng.gen_index(100),
                        seed: rng.next_u64() >> 12,
                    }),
                ));
            }
            out.push(typed(
                "defaults",
                Query::MonteCarlo(MonteCarloRequest::with_defaults(
                    ScenarioSpec::baseline(Domain::Dnn),
                    OperatingPoint::paper_default(),
                )),
            ));
        }
        QueryKind::Industry => {
            out.push(typed(
                "paper-setup",
                Query::Industry(IndustryRequest::default()),
            ));
            for i in 0..3 {
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Industry(IndustryRequest {
                        knobs: knobs(rng),
                        service_years: rng.gen_range_f64(1.0, 12.0),
                        fpga_applications: rng.gen_range_u64(1, 8),
                        volume: rng.gen_range_u64(10_000, 5_000_000),
                    }),
                ));
            }
        }
        QueryKind::Scenario => {
            for entry in catalog() {
                out.push(typed(
                    format!("catalog/{}", entry.id),
                    Query::Scenario(ScenarioRunRequest {
                        scenario: ScenarioRef::Catalog {
                            id: entry.id.to_string(),
                            knobs: Vec::new(),
                        },
                        point: None,
                    }),
                ));
            }
            for i in 0..3 {
                let entry = &catalog()[rng.gen_index(catalog().len())];
                out.push(typed(
                    format!("seeded-catalog/{i}"),
                    Query::Scenario(ScenarioRunRequest {
                        scenario: ScenarioRef::Catalog {
                            id: entry.id.to_string(),
                            knobs: knobs(rng),
                        },
                        point: Some(point(rng)),
                    }),
                ));
                out.push(typed(
                    format!("seeded-inline/{i}"),
                    Query::Scenario(ScenarioRunRequest {
                        scenario: ScenarioRef::Inline(spec(rng)),
                        point: if rng.gen_bool() {
                            Some(point(rng))
                        } else {
                            None
                        },
                    }),
                ));
            }
        }
        QueryKind::Replay => {
            for entry in catalog() {
                out.push(typed(
                    format!("catalog/{}", entry.id),
                    Query::Replay(ReplayRequest {
                        scenario: ScenarioRef::Catalog {
                            id: entry.id.to_string(),
                            knobs: Vec::new(),
                        },
                        point: None,
                        series: SeriesRef::Region(ReplayRequest::DEFAULT_REGION.to_string()),
                        interpolate: false,
                        years: 1,
                    }),
                ));
            }
            for (i, region) in CarbonIntensitySeries::REGIONS.into_iter().enumerate() {
                out.push(typed(
                    format!("region/{region}"),
                    Query::Replay(ReplayRequest {
                        scenario: ScenarioRef::Inline(spec(rng)),
                        point: Some(OperatingPoint {
                            lifetime_years: 3.0,
                            ..point(rng)
                        }),
                        series: SeriesRef::Region(region.to_string()),
                        interpolate: i % 2 == 0,
                        years: 1 + i as u64 % 3,
                    }),
                ));
            }
            let samples: Vec<f64> = (0..24).map(|_| rng.gen_range_f64(20.0, 800.0)).collect();
            out.push(typed(
                "inline-series",
                Query::Replay(ReplayRequest {
                    scenario: ScenarioRef::Inline(spec(rng)),
                    point: None,
                    series: SeriesRef::Inline(
                        CarbonIntensitySeries::new(samples, 365.0).expect("valid series"),
                    ),
                    interpolate: true,
                    years: 1,
                }),
            ));
        }
        QueryKind::Optimize => {
            let apps = SearchKnob {
                axis: SweepAxis::Applications,
                min: 1.0,
                max: 20.0,
                integer: false,
            };
            for entry in catalog() {
                out.push(typed(
                    format!("catalog/{}", entry.id),
                    Query::Optimize(OptimizeRequest {
                        scenario: ScenarioRef::Catalog {
                            id: entry.id.to_string(),
                            knobs: Vec::new(),
                        },
                        point: None,
                        objective: Objective::MinTotal(OptPlatform::Fpga),
                        search: vec![apps],
                        constraints: Vec::new(),
                        tolerance: OptimizeRequest::DEFAULT_TOLERANCE,
                        max_evals: OptimizeRequest::DEFAULT_MAX_EVALS,
                    }),
                ));
            }
            let objectives = |rng: &mut SplitMix64| match rng.gen_index(6) {
                0 => Objective::MinTotal(platform(rng)),
                1 => Objective::MinOperational(platform(rng)),
                2 => Objective::MinEmbodied(platform(rng)),
                3 => Objective::MaxFpgaMargin,
                4 => Objective::MinRatio,
                _ => Objective::MeetBudget {
                    platform: platform(rng),
                    budget_kg: rng.gen_range_f64(1e6, 1e9),
                },
            };
            for i in 0..8 {
                let mut search = vec![SearchKnob {
                    axis: SweepAxis::LifetimeYears,
                    min: 0.5,
                    max: rng.gen_range_f64(1.0, 6.0),
                    integer: rng.gen_bool(),
                }];
                if i % 2 == 1 {
                    search.push(SearchKnob {
                        axis: SweepAxis::VolumeUnits,
                        min: 1_000.0,
                        max: rng.gen_range_f64(1e5, 1e7).round(),
                        integer: false,
                    });
                }
                let mut constraints = match i % 4 {
                    0 => Vec::new(),
                    1 => vec![Constraint::FpgaWins],
                    2 => vec![Constraint::MaxTotalKg {
                        platform: platform(rng),
                        limit_kg: rng.gen_range_f64(1e8, 1e10),
                    }],
                    _ => vec![
                        Constraint::FpgaWins,
                        Constraint::MaxTotalKg {
                            platform: OptPlatform::Fpga,
                            limit_kg: 1e12,
                        },
                    ],
                };
                let objective = objectives(rng);
                if matches!(objective, Objective::MeetBudget { .. }) {
                    // A budget inversion searches one knob, unconstrained.
                    search.truncate(1);
                    constraints.clear();
                }
                out.push(typed(
                    format!("seeded/{i}"),
                    Query::Optimize(OptimizeRequest {
                        scenario: if i % 3 == 0 {
                            ScenarioRef::Inline(spec(rng))
                        } else {
                            ScenarioRef::Catalog {
                                id: catalog()[rng.gen_index(catalog().len())].id.to_string(),
                                knobs: knobs(rng),
                            }
                        },
                        point: if i % 2 == 0 { Some(point(rng)) } else { None },
                        objective,
                        search,
                        constraints,
                        tolerance: if i % 4 == 3 {
                            1e-4
                        } else {
                            OptimizeRequest::DEFAULT_TOLERANCE
                        },
                        max_evals: if i % 4 == 2 {
                            2_000
                        } else {
                            OptimizeRequest::DEFAULT_MAX_EVALS
                        },
                    }),
                ));
            }
        }
        QueryKind::Catalog => {
            out.push(typed("listing", Query::Catalog(CatalogRequest)));
        }
    }
    for line in HAND_WRITTEN.lines().filter(|line| !line.is_empty()) {
        let mut fields = line.splitn(4, ' ');
        let mut next = || fields.next().expect("kinds, tag, name and body");
        let (kinds, tag, name, text) = (next(), next(), next(), next().to_string());
        if kinds.split(',').any(|id| id == kind.id()) {
            out.push(Case {
                name: format!("{tag}/{name}"),
                input: if tag == "body" {
                    Input::Body(text)
                } else {
                    Input::Bad(text)
                },
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn text(value: &gf_json::Value) -> String {
    value.to_json_string().expect("finite JSON")
}

/// Parses and decodes a flat body the way `POST /v1/<kind>` does.
fn decode_body(kind: QueryKind, body: &str) -> Result<Query, ApiError> {
    let value = parse(body)?;
    Ok(kind.decode_request(&value)?)
}

/// Renders one kind's corpus from its cases.
fn render(kind: QueryKind, engine: &Engine) -> Vec<Line> {
    let mut lines = Vec::new();
    for case in cases(kind) {
        let mut push =
            |tag: &str, json: String| lines.push((case.name.clone(), tag.to_string(), json));
        let query = match &case.input {
            Input::Typed(query) => query.clone(),
            Input::Body(raw) => {
                push("body", raw.clone());
                decode_body(kind, raw)
                    .unwrap_or_else(|e| panic!("{kind} {}: sparse body rejected: {e}", case.name))
            }
            Input::Bad(raw) => {
                push("body", raw.clone());
                let error = decode_body(kind, raw)
                    .and_then(|query| engine.run(&query))
                    .err()
                    .unwrap_or_else(|| panic!("{kind} {}: malformed body accepted", case.name));
                push("error", text(&error.to_json()));
                continue;
            }
        };
        assert_eq!(query.kind(), kind, "{}", case.name);
        push("request", text(&query.request_body()));
        push("query", text(&query.to_json()));
        match engine.run(&query) {
            Ok(outcome) => {
                push("result", text(&outcome.result_json()));
                push("outcome", text(&outcome.to_json()));
            }
            Err(error) => push("error", text(&error.to_json())),
        }
    }
    lines
}

fn to_file_text(lines: &[Line]) -> String {
    let mut out = String::new();
    let mut current = None;
    for (name, tag, json) in lines {
        if current != Some(name) {
            if current.is_some() {
                out.push('\n');
            }
            let _ = writeln!(out, "== {name}");
            current = Some(name);
        }
        let _ = writeln!(out, "{tag} {json}");
    }
    out
}

fn load(kind: QueryKind) -> Vec<Line> {
    let path = corpus_path(kind);
    let file = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut lines = Vec::new();
    let mut name = String::new();
    for line in file.lines().filter(|line| !line.is_empty()) {
        if let Some(header) = line.strip_prefix("== ") {
            name = header.to_string();
        } else {
            let (tag, json) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("{}: malformed line {line:?}", path.display()));
            lines.push((name.clone(), tag.to_string(), json.to_string()));
        }
    }
    lines
}

fn engine() -> Engine {
    Engine::with_defaults().expect("default engine")
}

/// Compares the generated and frozen lines carrying one of `tags`, case by
/// case, and reports every mismatch.
fn assert_frozen(tags: &[&str]) {
    let engine = engine();
    let mut failures = Vec::new();
    for kind in QueryKind::ALL {
        let pick = |lines: Vec<Line>| -> Vec<Line> {
            lines
                .into_iter()
                .filter(|(_, tag, _)| tags.contains(&tag.as_str()))
                .collect()
        };
        let generated = pick(render(kind, &engine));
        let frozen = pick(load(kind));
        if generated.len() != frozen.len() {
            failures.push(format!(
                "{kind}: {} generated vs {} frozen {tags:?} lines",
                generated.len(),
                frozen.len()
            ));
        }
        for (got, want) in generated.iter().zip(&frozen) {
            if got != want {
                failures.push(format!(
                    "{kind} {} {}:\n  frozen:    {} {}\n  generated: {} {}",
                    want.0, want.1, want.0, want.2, got.0, got.2
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// (a) Typed requests — and sparse bodies once decoded — encode to the
/// frozen request and envelope bytes.
#[test]
fn requests_encode_to_the_frozen_bytes() {
    assert_frozen(&["body", "request", "query"]);
}

/// (b) Every frozen request and response decodes and re-encodes to the
/// identical bytes: the codec on its own, with no engine involved.
#[test]
fn frozen_bytes_decode_and_reencode_identically() {
    let mut checked = 0;
    for kind in QueryKind::ALL {
        let mut previous_body: Option<String> = None;
        for (name, tag, json) in load(kind) {
            if tag == "body" {
                // Raw input, possibly not even JSON: checked by (a) and (d).
                previous_body = Some(json);
                continue;
            }
            let value = parse(&json).unwrap_or_else(|e| panic!("{kind} {name} {tag}: {e}"));
            let again = match tag.as_str() {
                "request" => kind.decode_request(&value).map(|query| {
                    if let Some(raw) = previous_body.take() {
                        // A sparse body decodes to the same request.
                        assert_eq!(decode_body(kind, &raw).ok(), Some(query.clone()), "{name}");
                    }
                    query.request_body()
                }),
                "query" => Query::from_json(&value).map(|query| query.to_json()),
                "result" => kind
                    .decode_result(&value)
                    .map(|outcome| outcome.result_json()),
                "outcome" => Outcome::from_json(&value).map(|outcome| outcome.to_json()),
                "error" => {
                    previous_body = None;
                    ApiError::from_json(&value).map(|error| error.to_json())
                }
                other => panic!("{kind} {name}: unknown tag {other}"),
            }
            .unwrap_or_else(|e| panic!("{kind} {name} {tag}: {e}"));
            assert_eq!(
                text(&again),
                json,
                "{kind} {name} {tag} does not re-encode to itself"
            );
            checked += 1;
        }
    }
    assert!(checked > 500, "only {checked} frozen lines checked");
}

/// (c) The engine answers every valid case with the frozen result and
/// outcome bytes.
#[test]
fn engine_results_match_the_frozen_bytes() {
    assert_frozen(&["result", "outcome"]);
}

/// (d) Every malformed body answers with the frozen `ApiError` body.
#[test]
fn malformed_bodies_answer_the_frozen_errors() {
    assert_frozen(&["body", "error"]);
}

/// (e) The direct byte writer matches the frozen bytes: engine results and
/// errors as the server writes them, envelopes re-encoded from the frozen
/// lines.
#[test]
fn direct_writes_match_the_frozen_bytes() {
    let engine = engine();
    let mut checked = 0;
    for kind in QueryKind::ALL {
        let mut case = String::new();
        let mut answer: Option<Result<Outcome, ApiError>> = None;
        for (name, tag, json) in load(kind) {
            if name != case {
                case.clone_from(&name);
                answer = None;
            }
            let value = || parse(&json).unwrap_or_else(|e| panic!("{kind} {name} {tag}: {e}"));
            let outcome = |answer: &Option<Result<Outcome, ApiError>>| match answer {
                Some(Ok(outcome)) => outcome.clone(),
                _ => panic!("{kind} {name}: a {tag} line follows a served request"),
            };
            let mut bytes = Vec::new();
            let written: Result<(), JsonError> = match tag.as_str() {
                "request" => {
                    let query = kind
                        .decode_request(&value())
                        .expect("frozen request decodes");
                    answer = Some(engine.run(&query));
                    continue;
                }
                "query" => Query::from_json(&value())
                    .expect("frozen query decodes")
                    .write_json(&mut bytes),
                "result" => outcome(&answer).write_result(&mut bytes),
                "outcome" => outcome(&answer).write_json(&mut bytes),
                "error" => match answer.take() {
                    Some(Err(error)) => error.write_json(&mut bytes),
                    _ => ApiError::from_json(&value())
                        .expect("frozen error decodes")
                        .write_json(&mut bytes),
                },
                _ => continue,
            };
            written.unwrap_or_else(|e| panic!("{kind} {name} {tag}: {e}"));
            assert_eq!(
                String::from_utf8(bytes).expect("UTF-8"),
                json,
                "{kind} {name} {tag}: direct bytes differ"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 500,
        "only {checked} frozen lines written directly"
    );
}

/// A streamed grid — head, each block's rows, tail — splices to exactly
/// the frozen buffered body, whatever the block height.
#[test]
fn streamed_grids_splice_to_the_frozen_buffered_bytes() {
    let engine = engine();
    let mut request = None;
    let mut checked = 0;
    for (name, tag, json) in load(QueryKind::Grid) {
        match tag.as_str() {
            "request" => {
                let value = parse(&json).expect("frozen request parses");
                request = Some(GridRequest::from_json(&value).expect("frozen request decodes"));
            }
            "result" => {
                let request = request.take().expect("a result follows its request");
                for block_rows in [1, 3] {
                    let mut stream = engine
                        .grid_stream(&request)
                        .expect("grid streams")
                        .with_block_rows(block_rows);
                    let mut body = Vec::new();
                    grid_stream_head(&stream, &mut body).expect("head encodes");
                    while let Some(block) = stream.next_block() {
                        grid_stream_rows(&block.expect("block"), &mut body).expect("rows");
                    }
                    grid_stream_tail(&stream, &mut body).expect("tail encodes");
                    assert_eq!(
                        String::from_utf8(body).expect("UTF-8"),
                        json,
                        "grid {name}, {block_rows} rows per block"
                    );
                }
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked >= 5, "only {checked} grid entries streamed");
}

/// Rewrites `tests/fixtures/wire/` from the current code. Run by hand
/// only, when a wire change is intended:
/// `cargo test -p gf-tests --test wire_corpus -- --ignored regenerate`.
#[test]
#[ignore = "rewrites the frozen corpus; run by hand for an intended wire change"]
fn regenerate_wire_corpus() {
    let engine = engine();
    let dir = corpus_path(QueryKind::Evaluate)
        .parent()
        .expect("corpus directory")
        .to_path_buf();
    std::fs::create_dir_all(&dir).expect("create corpus directory");
    for kind in QueryKind::ALL {
        std::fs::write(corpus_path(kind), to_file_text(&render(kind, &engine)))
            .expect("write corpus file");
    }
}
