//! The `study` workload: the paper's analyses as in-process library calls,
//! no HTTP and no JSON.
//!
//! One *pass* is what an analyst's study script does per configuration:
//! the Fig. 8 heatmap grid (applications × lifetime) for all three domains
//! through [`CompiledScenario::evaluate_into`], one seeded
//! [`MonteCarlo::run`], and one adaptive [`CompiledScenario::frontier`].
//! The eval kernel and the `exec` fan-out do nearly all the work.
//!
//! Outputs are checked against independent per-point calls on a seeded
//! sample: grid cells against [`CompiledScenario::evaluate`], a Monte-Carlo
//! trial recomputed from its documented seed stream, frontier cells
//! against [`CompiledScenario::ratio`].

use std::time::Instant;

use gf_support::SplitMix64;
use greenfpga::{
    CompiledScenario, Domain, EstimatorParams, FrontierResult, Knob, MonteCarlo, OperatingPoint,
    ResultBuffer, SweepAxis, UncertaintyReport,
};

use crate::sys;

/// Heatmap lattice: applications 1..=64 × this many lifetimes in 0.5–5 y.
const APPS: u64 = 64;
const LIFETIMES: usize = 256;
/// Frontier lattice side (applications 1..=64 × 64 lifetimes).
const FRONTIER_SIDE: usize = 64;
/// Monte-Carlo trials per pass.
const MC_SAMPLES: usize = 64;
/// Sampled cells checked per grid and per frontier, each pass.
const CHECKS: usize = 4;

/// Everything a pass needs, built at set-up.
pub struct Study {
    params: EstimatorParams,
    compiled: Vec<CompiledScenario>,
    grid: Vec<OperatingPoint>,
    apps: Vec<f64>,
    lifetimes: Vec<f64>,
    base: OperatingPoint,
    mc_seed: u64,
    buffer: ResultBuffer,
    rng: SplitMix64,
}

/// Timings and counts of one pass.
pub struct Pass {
    /// Heatmap `evaluate_into` time per domain, ns.
    pub grid_ns: Vec<u64>,
    pub mc_ns: u64,
    pub frontier_ns: u64,
    /// Process CPU time (every thread) of the timed library calls, s.
    pub cpu_s: f64,
    /// Points evaluated: grid cells, Monte-Carlo trials, frontier evaluations.
    pub points: u64,
    pub frontier_evaluated_fraction: f64,
    pub failed_checks: u64,
}

impl Pass {
    pub fn total_ns(&self) -> u64 {
        self.grid_ns.iter().sum::<u64>() + self.mc_ns + self.frontier_ns
    }
}

/// Points in one heatmap grid.
pub const GRID_POINTS: usize = APPS as usize * LIFETIMES;
/// Monte-Carlo trials in one pass.
pub const MC_TRIALS: usize = MC_SAMPLES;

impl Study {
    /// Compiles the three domains and lays out the lattices; the seed
    /// picks the fixed volume and the Monte-Carlo seed stream.
    pub fn new(seed: u64) -> Study {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0000_0000_0003);
        let params = EstimatorParams::paper_defaults();
        let compiled = Domain::ALL
            .iter()
            .map(|&d| CompiledScenario::compile(&params, d).expect("paper defaults compile"))
            .collect();
        let volume = 10f64.powf(rng.gen_range_f64(4.0, 7.0)).round() as u64;
        let lifetime_at = |i: usize, n: usize| 0.5 + 4.5 * i as f64 / (n - 1) as f64;
        let grid = (0..LIFETIMES)
            .flat_map(|l| {
                (1..=APPS).map(move |applications| OperatingPoint {
                    applications,
                    lifetime_years: lifetime_at(l, LIFETIMES),
                    volume,
                })
            })
            .collect();
        Study {
            params,
            compiled,
            grid,
            apps: (1..=FRONTIER_SIDE).map(|a| a as f64).collect(),
            lifetimes: (0..FRONTIER_SIDE)
                .map(|i| lifetime_at(i, FRONTIER_SIDE))
                .collect(),
            base: OperatingPoint {
                applications: 5,
                lifetime_years: 2.0,
                volume,
            },
            mc_seed: rng.next_u64() >> 12,
            buffer: ResultBuffer::new(),
            rng,
        }
    }

    /// Runs pass number `pass`: timed library calls, then the checks.
    pub fn pass(&mut self, pass: u64) -> Pass {
        let mut result = Pass {
            grid_ns: Vec::with_capacity(3),
            mc_ns: 0,
            frontier_ns: 0,
            cpu_s: 0.0,
            points: 0,
            frontier_evaluated_fraction: 0.0,
            failed_checks: 0,
        };
        for d in 0..self.compiled.len() {
            let (started, cpu) = (Instant::now(), sys::process_cpu_s());
            let evaluated = self.compiled[d].evaluate_into(&self.grid, &mut self.buffer);
            result.grid_ns.push(started.elapsed().as_nanos() as u64);
            result.cpu_s += sys::process_cpu_s() - cpu;
            result.points += self.grid.len() as u64;
            result.failed_checks += match evaluated {
                Ok(()) => self.check_grid(d),
                Err(_) => 1,
            };
        }
        let domain = Domain::ALL[(pass % 3) as usize];
        let mc_seed = self.mc_seed + pass * MC_SAMPLES as u64;
        let (started, cpu) = (Instant::now(), sys::process_cpu_s());
        let report =
            MonteCarlo::new(MC_SAMPLES)
                .with_seed(mc_seed)
                .run(&self.params, domain, self.base);
        result.mc_ns = started.elapsed().as_nanos() as u64;
        result.cpu_s += sys::process_cpu_s() - cpu;
        result.points += MC_SAMPLES as u64;
        result.failed_checks += match report {
            Ok(report) => self.check_monte_carlo(&report, mc_seed),
            Err(_) => 1,
        };
        let compiled = &self.compiled[(pass % 3) as usize];
        let (started, cpu) = (Instant::now(), sys::process_cpu_s());
        let frontier = compiled.frontier(
            SweepAxis::Applications,
            &self.apps,
            SweepAxis::LifetimeYears,
            &self.lifetimes,
            self.base,
        );
        result.frontier_ns = started.elapsed().as_nanos() as u64;
        result.cpu_s += sys::process_cpu_s() - cpu;
        result.failed_checks += match frontier {
            Ok(frontier) => {
                result.points += frontier.evaluations() as u64;
                result.frontier_evaluated_fraction = frontier.evaluated_fraction();
                self.check_frontier(&frontier, (pass % 3) as usize)
            }
            Err(_) => 1,
        };
        result
    }

    fn check_grid(&mut self, d: usize) -> u64 {
        let mut failed = 0;
        for _ in 0..CHECKS {
            let i = self.rng.gen_index(self.grid.len());
            let direct = self.compiled[d].evaluate(self.grid[i]);
            if direct.ok() != Some(self.buffer.comparison(i)) {
                failed += 1;
            }
        }
        failed
    }

    /// Recomputes one sampled trial the way `MonteCarlo` documents it:
    /// trial `t` draws every knob of `Knob::ALL`, in order, uniformly from
    /// its range with a generator seeded `seed + t`.
    fn check_monte_carlo(&mut self, report: &UncertaintyReport, seed: u64) -> u64 {
        if report.len() != MC_SAMPLES {
            return 1;
        }
        let trial = self.rng.gen_index(MC_SAMPLES) as u64;
        let mut draws = SplitMix64::new(seed.wrapping_add(trial));
        let mut params = self.params.clone();
        for knob in Knob::ALL {
            let range = knob.range();
            knob.apply_mut(&mut params, draws.gen_range_f64(range.low, range.high));
        }
        let ratio =
            CompiledScenario::compile(&params, report.domain).and_then(|c| c.ratio(report.point));
        match ratio {
            Ok(ratio) if report.ratios.iter().any(|r| r.to_bits() == ratio.to_bits()) => 0,
            _ => 1,
        }
    }

    fn check_frontier(&mut self, frontier: &FrontierResult, d: usize) -> u64 {
        let mut failed = 0;
        for _ in 0..CHECKS {
            let (row, col) = (
                self.rng.gen_index(frontier.height()),
                self.rng.gen_index(frontier.width()),
            );
            let point = OperatingPoint {
                applications: self.apps[col] as u64,
                lifetime_years: self.lifetimes[row],
                ..self.base
            };
            let direct = self.compiled[d].ratio(point).map(|r| r < 1.0);
            if direct.ok() != Some(frontier.fpga_wins(row, col)) {
                failed += 1;
            }
        }
        failed
    }
}
