//! The batch-evaluation engine: compiled scenarios plus parallel fan-out.
//!
//! Every analysis in this crate — the Figs. 4–6 sweeps, the Fig. 8 heatmap
//! grids, the tornado sensitivity pass and the Monte-Carlo uncertainty study
//! — evaluates the same Eq. (1)–(3) model at thousands to millions of
//! operating points. The naive path ([`Estimator::compare_uniform`]) rebuilds
//! the domain calibration for every point: chip specs (with freshly
//! formatted name strings), the manufacturing model, the design project and
//! a `Vec<Application>` per evaluation. None of that depends on the
//! operating point.
//!
//! [`CompiledScenario::compile`] resolves a domain's calibration against one
//! parameter set **once** — the one-time design carbon, the per-chip
//! (manufacturing, packaging, end-of-life) triple, the deployment power
//! profile and the application-development model for both platforms — after
//! which [`CompiledScenario::evaluate`] costs a handful of multiplies per
//! point, whatever the application count: a uniform workload repeats one
//! deployment term, so the naive path's per-application sum becomes one
//! multiply. That sum ([`Estimator::compare_uniform`]) stays the
//! independent oracle — the two agree bit for bit up to three
//! applications and within `applications × f64::EPSILON` relative beyond;
//! golden tests in `tests/` hold them to ≤1e-12 relative error.
//!
//! [`Estimator::evaluate_batch`] adds the parallel fan-out: a
//! [`BatchRequest`] is compiled once and its points are spread over the
//! work-stealing pool in [`crate::exec`], deterministically with respect to
//! thread count.

use gf_act::TechnologyNode;
use gf_lifecycle::{AppDevModel, DesignProject, DevelopmentFlow, OperationProfile};
use gf_units::{Area, Carbon, Mass, Power, TimeSpan};

use crate::{
    exec, CfpBreakdown, Domain, Estimator, EstimatorParams, GreenFpgaError, OperatingPoint,
    PlatformComparison,
};

/// One platform of a domain calibration with every point-independent
/// quantity pre-resolved.
///
/// Holds only `Copy` data (precomputed carbons plus the small closed-form
/// operation and app-dev models), so it is free to share across the worker
/// threads of a batch evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledPlatform {
    design: Carbon,
    manufacturing_per_chip: Carbon,
    packaging_per_chip: Carbon,
    eol_per_chip: Carbon,
    chips_per_unit: u64,
    profile: OperationProfile,
    appdev: AppDevModel,
    flow: DevelopmentFlow,
}

impl CompiledPlatform {
    /// One-time design carbon (`C_des`, Eq. 4) of this platform's chip.
    pub fn design(&self) -> Carbon {
        self.design
    }

    /// Per-manufactured-chip hardware carbon: manufacturing + packaging +
    /// end-of-life.
    pub fn hardware_per_chip(&self) -> Carbon {
        self.manufacturing_per_chip + self.packaging_per_chip + self.eol_per_chip
    }

    /// Chips needed per deployed unit (`N_FPGA` for the FPGA platform, 1 for
    /// the ASIC).
    pub fn chips_per_unit(&self) -> u64 {
        self.chips_per_unit
    }

    /// Embodied breakdown for a fleet of `chips` devices: the one-time
    /// design carbon plus `chips` × the per-chip triple.
    pub fn embodied(&self, chips: f64) -> CfpBreakdown {
        CfpBreakdown {
            design: self.design,
            manufacturing: self.manufacturing_per_chip * chips,
            packaging: self.packaging_per_chip * chips,
            eol: self.eol_per_chip * chips,
            ..CfpBreakdown::ZERO
        }
    }

    /// Deployment breakdown of one application living `lifetime` on
    /// `devices` devices: field operation plus application development.
    pub fn deployment(&self, lifetime: TimeSpan, devices: u64) -> CfpBreakdown {
        CfpBreakdown {
            operation: self.profile.carbon_over(lifetime) * devices as f64,
            app_dev: self.appdev.carbon(self.flow, 1, devices),
            ..CfpBreakdown::ZERO
        }
    }

    /// Average draw of one deployed device in kilowatts: peak power ×
    /// duty cycle. The time-series replay path multiplies this by each
    /// step's energy-weighted grid intensity where the scalar path uses
    /// the compiled `usage_grid` constant.
    pub fn average_power_kw(&self) -> f64 {
        self.profile.average_power().as_kilowatts()
    }

    /// Field-operation carbon of one deployed device per year of lifetime
    /// (kg CO₂e / device·year). Operation is linear in the lifetime, so this
    /// single rate determines the whole operational term — the slope the
    /// closed-form crossover solver ([`CompiledScenario::totals_affine`])
    /// builds on.
    pub fn operation_kg_per_device_year(&self) -> f64 {
        self.profile.carbon_over(TimeSpan::from_years(1.0)).as_kg()
    }

    /// Per-application application-development carbon excluding the
    /// per-device configuration term (kg CO₂e): the `N_app × (T_FE + T_BE)`
    /// share of Eq. (7). Zero for the ASIC's software flow.
    pub fn appdev_per_application_kg(&self) -> f64 {
        self.appdev.carbon(self.flow, 1, 0).as_kg()
    }

    /// Per-device configuration carbon of one application deployment
    /// (kg CO₂e): the `N_vol × T_config` share of Eq. (7). Zero for the
    /// ASIC's software flow.
    pub fn appdev_per_device_kg(&self) -> f64 {
        self.appdev.carbon(self.flow, 0, 1).as_kg()
    }
}

/// The parameter-independent half of a domain compilation: everything the
/// calibration determines on its own (chip geometry, design projects, fleet
/// sizing), with the name-string allocation of spec construction already
/// paid.
///
/// Analyses that re-evaluate the model under *many different parameter
/// sets* — Monte-Carlo trials, tornado probes — build one template per
/// domain and call [`ScenarioTemplate::compile`] per parameter set, which
/// is pure arithmetic: no strings, no vectors, no spec rebuilding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioTemplate {
    domain: Domain,
    fpga: PlatformTemplate,
    asic: PlatformTemplate,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PlatformTemplate {
    project: DesignProject,
    node: TechnologyNode,
    area: Area,
    tdp: Power,
    packaged_mass: Mass,
    chips_per_unit: u64,
    /// `Some` for the FPGA flow (per-device reconfiguration applies).
    config_time: Option<TimeSpan>,
    flow: DevelopmentFlow,
}

impl ScenarioTemplate {
    /// Resolves the parameter-independent half of `domain`'s calibration.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors (degenerate staffing or geometry); the
    /// built-in calibrations never trigger them.
    pub fn new(domain: Domain) -> Result<Self, GreenFpgaError> {
        let calibration = domain.calibration();
        let fpga_spec = calibration.fpga_spec()?;
        let asic_spec = calibration.asic_spec()?;
        Ok(ScenarioTemplate {
            domain,
            fpga: PlatformTemplate {
                project: calibration.fpga_staffing.project_for(fpga_spec.chip())?,
                node: fpga_spec.chip().node(),
                area: fpga_spec.chip().area(),
                tdp: fpga_spec.chip().tdp(),
                packaged_mass: fpga_spec.chip().packaged_mass(),
                chips_per_unit: fpga_spec.fpgas_for_application(calibration.reference_asic_gates()),
                config_time: Some(fpga_spec.configuration_time()),
                flow: DevelopmentFlow::FpgaHardware,
            },
            asic: PlatformTemplate {
                project: calibration.asic_staffing.project_for(asic_spec.chip())?,
                node: asic_spec.chip().node(),
                area: asic_spec.chip().area(),
                tdp: asic_spec.chip().tdp(),
                packaged_mass: asic_spec.chip().packaged_mass(),
                chips_per_unit: 1,
                config_time: None,
                flow: DevelopmentFlow::AsicSoftware,
            },
        })
    }

    /// The templated domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Finishes the compilation against one parameter set. Pure arithmetic
    /// — this is the only per-trial cost a Monte-Carlo run pays besides the
    /// model evaluation itself.
    ///
    /// # Errors
    ///
    /// Propagates manufacturing-model errors (degenerate die area); the
    /// built-in calibrations never trigger them.
    pub fn compile(&self, params: &EstimatorParams) -> Result<CompiledScenario, GreenFpgaError> {
        let compile_platform = |t: &PlatformTemplate| -> Result<CompiledPlatform, GreenFpgaError> {
            let appdev = match t.config_time {
                Some(config_time) => params.appdev().with_config_time(config_time),
                None => *params.appdev(),
            };
            Ok(CompiledPlatform {
                design: params.design_house().design_carbon(&t.project),
                manufacturing_per_chip: params
                    .manufacturing_model(t.node)
                    .carbon_per_die(t.area)?,
                packaging_per_chip: params.packaging().carbon_for_die(t.area),
                eol_per_chip: params.eol_model().carbon_per_chip(t.packaged_mass),
                chips_per_unit: t.chips_per_unit,
                profile: OperationProfile::new(
                    t.tdp,
                    params.deployment().duty_cycle,
                    params.deployment().usage_grid,
                ),
                appdev,
                flow: t.flow,
            })
        };
        Ok(CompiledScenario {
            domain: self.domain,
            fpga: compile_platform(&self.fpga)?,
            asic: compile_platform(&self.asic)?,
        })
    }
}

/// A domain calibration compiled against one [`EstimatorParams`], ready for
/// cheap repeated evaluation at arbitrary operating points.
///
/// # Examples
///
/// ```
/// use greenfpga::{CompiledScenario, Domain, Estimator, OperatingPoint};
///
/// let estimator = Estimator::default();
/// let compiled = estimator.compile(Domain::Dnn)?;
/// let point = OperatingPoint::paper_default();
/// let fast = compiled.evaluate(point)?;
/// let slow = estimator.compare_uniform(
///     Domain::Dnn, point.applications, point.lifetime_years, point.volume)?;
/// // Closed form vs per-application sum: within N·ε relative, per component.
/// let bound = point.applications as f64 * f64::EPSILON;
/// for (fast, slow) in [(fast.fpga, slow.fpga), (fast.asic, slow.asic)] {
///     for ((_, a), (_, b)) in fast.components().into_iter().zip(slow.components()) {
///         let (a, b) = (a.as_kg(), b.as_kg());
///         assert!((a - b).abs() <= bound * b.abs());
///     }
/// }
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledScenario {
    domain: Domain,
    fpga: CompiledPlatform,
    asic: CompiledPlatform,
}

impl CompiledScenario {
    /// Resolves `domain`'s calibration against `params`.
    ///
    /// This is the only expensive step of the batch engine: it builds the
    /// chip specs, design projects and manufacturing models exactly once,
    /// where the naive path rebuilds them for every operating point.
    ///
    /// # Errors
    ///
    /// Propagates calibration and model errors (degenerate staffing or die
    /// area); the built-in calibrations never trigger them.
    pub fn compile(params: &EstimatorParams, domain: Domain) -> Result<Self, GreenFpgaError> {
        ScenarioTemplate::new(domain)?.compile(params)
    }

    /// The compiled domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The compiled FPGA platform.
    pub fn fpga(&self) -> &CompiledPlatform {
        &self.fpga
    }

    /// The compiled ASIC platform.
    pub fn asic(&self) -> &CompiledPlatform {
        &self.asic
    }

    /// Evaluates the uniform-workload comparison at one operating point.
    ///
    /// Closed form: a uniform workload repeats one deployment term
    /// `applications` times, so each total is one multiply in the
    /// application count and the cost is independent of it. Agrees with
    /// [`Estimator::compare_uniform`]'s per-application sum bit for bit up
    /// to three applications and within `applications × f64::EPSILON`
    /// relative beyond.
    ///
    /// # Errors
    ///
    /// Returns the same validation errors as [`crate::Workload::uniform`]:
    /// [`GreenFpgaError::EmptyWorkload`] for zero applications and
    /// [`GreenFpgaError::InvalidApplication`] for a negative / non-finite
    /// lifetime or zero volume.
    pub fn evaluate(&self, point: OperatingPoint) -> Result<PlatformComparison, GreenFpgaError> {
        let lifetime = self.validate(point)?;
        let (fpga, asic) = self.totals(point, lifetime);
        Ok(PlatformComparison::new(self.domain, fpga, asic))
    }

    /// Validates an operating point, returning its lifetime as a
    /// [`TimeSpan`] on success.
    fn validate(&self, point: OperatingPoint) -> Result<TimeSpan, GreenFpgaError> {
        if point.applications == 0 {
            return Err(GreenFpgaError::EmptyWorkload);
        }
        let lifetime = TimeSpan::from_years(point.lifetime_years);
        if lifetime.is_negative() || !lifetime.is_finite() {
            return Err(GreenFpgaError::InvalidApplication {
                field: "lifetime",
                reason: format!("lifetime must be non-negative and finite, got {lifetime}"),
            });
        }
        if point.volume == 0 {
            return Err(GreenFpgaError::InvalidApplication {
                field: "volume",
                reason: "application volume must be at least one device".to_string(),
            });
        }
        Ok(lifetime)
    }

    /// The model arithmetic shared by [`CompiledScenario::evaluate`] and the
    /// batch path ([`CompiledScenario::evaluate_indexed_into`]); `point`
    /// must have passed [`CompiledScenario::validate`]. One function, so
    /// every batch result is bit-identical to the point-wise one.
    #[inline(always)]
    fn totals(&self, point: OperatingPoint, lifetime: TimeSpan) -> (CfpBreakdown, CfpBreakdown) {
        let applications = point.applications as f64;
        // FPGA (Eq. 2): embodied once for a fleet sized to the (uniform)
        // applications, plus one identical deployment term per application.
        let fpga_devices = point.volume * self.fpga.chips_per_unit;
        let fpga = self.fpga.embodied(fpga_devices as f64)
            + self
                .fpga
                .deployment(lifetime, fpga_devices)
                .scaled(applications);
        // ASIC (Eq. 1): every application pays a fresh embodied cost plus
        // its own deployment.
        let asic = (self.asic.embodied(point.volume as f64)
            + self.asic.deployment(lifetime, point.volume))
        .scaled(applications);
        (fpga, asic)
    }

    /// FPGA:ASIC total-CFP ratio at one operating point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledScenario::evaluate`].
    pub fn ratio(&self, point: OperatingPoint) -> Result<f64, GreenFpgaError> {
        Ok(self.evaluate(point)?.fpga_to_asic_ratio())
    }

    /// Evaluates a slice of operating points into a reusable
    /// structure-of-arrays buffer — the zero-allocation batch path.
    ///
    /// After the buffer's first use at a given size, repeated calls perform
    /// **no heap allocation at all**: no per-point `Vec`, no
    /// `PlatformComparison` collection, no index-keyed reassembly. Workers
    /// write their contiguous chunk of every column in place. Results are
    /// bit-identical to [`CompiledScenario::evaluate`] point by point and
    /// independent of the thread count.
    ///
    /// # Errors
    ///
    /// Returns the point-validation error with the lowest index (same
    /// conditions as [`CompiledScenario::evaluate`]); the buffer's contents
    /// are unspecified in that case.
    pub fn evaluate_into(
        &self,
        points: &[OperatingPoint],
        out: &mut ResultBuffer,
    ) -> Result<(), GreenFpgaError> {
        self.evaluate_indexed_into(points.len(), |i| points[i], out, 0)
    }

    /// [`CompiledScenario::evaluate_into`] with the points produced by an
    /// index function instead of a slice, so grid-shaped batches need not
    /// materialize their lattice, plus an explicit worker-thread count
    /// (`0` = auto: up to [`exec::default_threads`], but never a worker
    /// for fewer than 16 384 points, so small batches stay on the calling
    /// thread).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledScenario::evaluate_into`].
    pub fn evaluate_indexed_into(
        &self,
        n: usize,
        point_of: impl Fn(usize) -> OperatingPoint + Sync,
        out: &mut ResultBuffer,
        threads: usize,
    ) -> Result<(), GreenFpgaError> {
        // One span per batch call (aux = point count), not per chunk.
        let batch_from = if gf_trace::enabled() {
            gf_trace::now_ticks()
        } else {
            0
        };
        // Auto sizing spawns a worker only for a share that outlasts its
        // startup; an explicit count is honoured as given.
        let threads = match threads {
            0 => exec::default_threads()
                .min(n / MIN_POINTS_PER_WORKER)
                .max(1),
            explicit => explicit,
        };
        out.prepare(self.domain, n);
        let result = exec::try_fill_chunked(n, threads, out.columns_mut(), &|start, _, chunk| {
            self.fill(start, &point_of, chunk)
        });
        if batch_from != 0 {
            gf_trace::record_span_at(
                gf_trace::SpanName::TileBatch,
                batch_from,
                gf_trace::now_ticks().saturating_sub(batch_from),
                n as u64,
            );
        }
        result
    }

    /// Evaluates points `start..` into one worker's chunk of the columns,
    /// returning the first validation failure with its global index.
    fn fill(
        &self,
        start: usize,
        point_of: &impl Fn(usize) -> OperatingPoint,
        (mut fpga, mut asic): Columns<'_>,
    ) -> Option<(usize, GreenFpgaError)> {
        for t in 0..fpga.design.len() {
            let point = point_of(start + t);
            let lifetime = match self.validate(point) {
                Ok(lifetime) => lifetime,
                Err(e) => return Some((start + t, e)),
            };
            let (fpga_total, asic_total) = self.totals(point, lifetime);
            fpga.set(t, &fpga_total);
            asic.set(t, &asic_total);
        }
        None
    }
}

/// Fewest points an automatically sized batch hands each worker: at about
/// 10 ns per point, a smaller share costs little more than spawning and
/// joining the scoped thread that would run it.
const MIN_POINTS_PER_WORKER: usize = 16_384;

/// Lifecycle components per platform — the six [`CfpBreakdown`] fields.
const COMPONENTS: usize = 6;

/// One platform's lifecycle components as structure-of-arrays columns
/// (kilograms CO₂e), one `Vec<f64>` per [`CfpBreakdown`] field.
#[derive(Debug, Clone, Default, PartialEq)]
struct SoaBreakdown {
    design: Vec<f64>,
    manufacturing: Vec<f64>,
    packaging: Vec<f64>,
    eol: Vec<f64>,
    operation: Vec<f64>,
    app_dev: Vec<f64>,
}

impl SoaBreakdown {
    fn resize(&mut self, n: usize) {
        self.design.resize(n, 0.0);
        self.manufacturing.resize(n, 0.0);
        self.packaging.resize(n, 0.0);
        self.eol.resize(n, 0.0);
        self.operation.resize(n, 0.0);
        self.app_dev.resize(n, 0.0);
    }

    /// Heap bytes currently reserved across all six columns.
    fn capacity_bytes(&self) -> usize {
        core::mem::size_of::<f64>()
            * (self.design.capacity()
                + self.manufacturing.capacity()
                + self.packaging.capacity()
                + self.eol.capacity()
                + self.operation.capacity()
                + self.app_dev.capacity())
    }

    /// Drops column capacity beyond `cap` elements per column.
    fn shrink_to(&mut self, cap: usize) {
        self.design.shrink_to(cap);
        self.manufacturing.shrink_to(cap);
        self.packaging.shrink_to(cap);
        self.eol.shrink_to(cap);
        self.operation.shrink_to(cap);
        self.app_dev.shrink_to(cap);
    }

    fn get(&self, i: usize) -> CfpBreakdown {
        CfpBreakdown {
            design: Carbon::from_kg(self.design[i]),
            manufacturing: Carbon::from_kg(self.manufacturing[i]),
            packaging: Carbon::from_kg(self.packaging[i]),
            eol: Carbon::from_kg(self.eol[i]),
            operation: Carbon::from_kg(self.operation[i]),
            app_dev: Carbon::from_kg(self.app_dev[i]),
        }
    }

    fn chunks_mut(&mut self) -> SoaChunksMut<'_> {
        SoaChunksMut {
            design: &mut self.design,
            manufacturing: &mut self.manufacturing,
            packaging: &mut self.packaging,
            eol: &mut self.eol,
            operation: &mut self.operation,
            app_dev: &mut self.app_dev,
        }
    }
}

/// Mutable views of one contiguous index range of every column of a
/// [`SoaBreakdown`]; split recursively to hand each batch worker a disjoint
/// chunk it can write without synchronization (and without `unsafe`).
struct SoaChunksMut<'a> {
    design: &'a mut [f64],
    manufacturing: &'a mut [f64],
    packaging: &'a mut [f64],
    eol: &'a mut [f64],
    operation: &'a mut [f64],
    app_dev: &'a mut [f64],
}

/// The FPGA and ASIC column views of one index range.
type Columns<'a> = (SoaChunksMut<'a>, SoaChunksMut<'a>);

impl<'a> exec::SplitAtMut for Columns<'a> {
    fn split_at_mut(self, mid: usize) -> (Self, Self) {
        let (fpga_head, fpga_tail) = self.0.split_at_mut(mid);
        let (asic_head, asic_tail) = self.1.split_at_mut(mid);
        ((fpga_head, asic_head), (fpga_tail, asic_tail))
    }
}

impl<'a> SoaChunksMut<'a> {
    fn split_at_mut(self, mid: usize) -> (SoaChunksMut<'a>, SoaChunksMut<'a>) {
        let (design, design_tail) = self.design.split_at_mut(mid);
        let (manufacturing, manufacturing_tail) = self.manufacturing.split_at_mut(mid);
        let (packaging, packaging_tail) = self.packaging.split_at_mut(mid);
        let (eol, eol_tail) = self.eol.split_at_mut(mid);
        let (operation, operation_tail) = self.operation.split_at_mut(mid);
        let (app_dev, app_dev_tail) = self.app_dev.split_at_mut(mid);
        (
            SoaChunksMut {
                design,
                manufacturing,
                packaging,
                eol,
                operation,
                app_dev,
            },
            SoaChunksMut {
                design: design_tail,
                manufacturing: manufacturing_tail,
                packaging: packaging_tail,
                eol: eol_tail,
                operation: operation_tail,
                app_dev: app_dev_tail,
            },
        )
    }

    /// Writes one breakdown at position `t`.
    #[inline(always)]
    fn set(&mut self, t: usize, breakdown: &CfpBreakdown) {
        self.design[t] = breakdown.design.as_kg();
        self.manufacturing[t] = breakdown.manufacturing.as_kg();
        self.packaging[t] = breakdown.packaging.as_kg();
        self.eol[t] = breakdown.eol.as_kg();
        self.operation[t] = breakdown.operation.as_kg();
        self.app_dev[t] = breakdown.app_dev.as_kg();
    }
}

/// Reusable structure-of-arrays output of the zero-allocation batch kernel
/// ([`CompiledScenario::evaluate_into`]).
///
/// A batch of `n` points is stored as 12 contiguous `f64` columns (six
/// lifecycle components × two platforms) instead of `n` scattered
/// [`PlatformComparison`] values: ratio and total reductions stream through
/// cache-friendly arrays, and refilling the buffer allocates only when a
/// batch outgrows every previous one.
///
/// # Examples
///
/// ```
/// use greenfpga::{Domain, Estimator, OperatingPoint, ResultBuffer};
///
/// let compiled = Estimator::default().compile(Domain::Dnn)?;
/// let points = vec![OperatingPoint::paper_default(); 256];
/// let mut buffer = ResultBuffer::new();
/// compiled.evaluate_into(&points, &mut buffer)?;            // allocates once
/// compiled.evaluate_into(&points, &mut buffer)?;            // zero-alloc refill
/// assert_eq!(buffer.len(), 256);
/// assert_eq!(
///     buffer.comparison(0),
///     compiled.evaluate(OperatingPoint::paper_default())?,
/// );
/// # Ok::<(), greenfpga::GreenFpgaError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultBuffer {
    domain: Option<Domain>,
    len: usize,
    fpga: SoaBreakdown,
    asic: SoaBreakdown,
}

impl ResultBuffer {
    /// Creates an empty buffer; the first fill sizes it.
    pub fn new() -> Self {
        ResultBuffer::default()
    }

    /// Number of evaluated points currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no results.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Domain of the last fill, if any.
    pub fn domain(&self) -> Option<Domain> {
        self.domain
    }

    /// FPGA-platform breakdown of point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn fpga(&self, i: usize) -> CfpBreakdown {
        assert!(i < self.len, "result index {i} out of range {}", self.len);
        self.fpga.get(i)
    }

    /// ASIC-platform breakdown of point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn asic(&self, i: usize) -> CfpBreakdown {
        assert!(i < self.len, "result index {i} out of range {}", self.len);
        self.asic.get(i)
    }

    /// Full comparison of point `i`, reconstructed from the columns —
    /// bit-identical to what [`CompiledScenario::evaluate`] returns.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()` or the buffer was never filled.
    pub fn comparison(&self, i: usize) -> PlatformComparison {
        PlatformComparison::new(
            self.domain.expect("result buffer never filled"),
            self.fpga(i),
            self.asic(i),
        )
    }

    /// FPGA:ASIC total-CFP ratio of point `i` (`f64::INFINITY` when the
    /// ASIC total is zero, like [`PlatformComparison::fpga_to_asic_ratio`]).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn ratio(&self, i: usize) -> f64 {
        self.fpga(i)
            .total()
            .ratio_to(self.asic(i).total())
            .unwrap_or(f64::INFINITY)
    }

    /// Iterates the buffer as reconstructed [`PlatformComparison`] values.
    pub fn comparisons(&self) -> impl Iterator<Item = PlatformComparison> + '_ {
        (0..self.len).map(|i| self.comparison(i))
    }

    /// Empties the buffer, keeping its column capacity for the next fill.
    pub fn clear(&mut self) {
        self.len = 0;
        self.domain = None;
        self.fpga.resize(0);
        self.asic.resize(0);
    }

    /// Heap bytes currently reserved across all twelve columns.
    pub fn capacity_bytes(&self) -> usize {
        self.fpga.capacity_bytes() + self.asic.capacity_bytes()
    }

    /// Clears the buffer and releases column capacity beyond `max_bytes`
    /// total — the shrink-after-use policy for long-lived buffers (the
    /// engine's worker-thread-local scratch), so one huge batch does not
    /// pin its high-water footprint forever. Capacity at or under
    /// `max_bytes` is kept so steady-state serving stays zero-allocation.
    pub fn shrink_retained(&mut self, max_bytes: usize) {
        self.clear();
        if self.capacity_bytes() <= max_bytes {
            return;
        }
        // Split the byte budget evenly over the 12 columns; `Vec::shrink_to`
        // keeps at most that many elements per column.
        let per_column = max_bytes / (2 * COMPONENTS) / core::mem::size_of::<f64>();
        self.fpga.shrink_to(per_column);
        self.asic.shrink_to(per_column);
    }

    /// Sizes the columns for a fill of `n` points in `domain`, reusing
    /// existing capacity.
    fn prepare(&mut self, domain: Domain, n: usize) {
        self.domain = Some(domain);
        self.len = n;
        self.fpga.resize(n);
        self.asic.resize(n);
    }

    /// Full-range mutable column views for the kernel workers.
    fn columns_mut(&mut self) -> Columns<'_> {
        (self.fpga.chunks_mut(), self.asic.chunks_mut())
    }
}

/// A batch of operating points to evaluate in one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Domain every point is evaluated in.
    pub domain: Domain,
    /// The operating points.
    pub points: Vec<OperatingPoint>,
    /// Worker threads (`0` = auto; see [`exec::default_threads`]).
    pub threads: usize,
}

impl BatchRequest {
    /// Creates a batch request with automatic thread selection.
    pub fn new(domain: Domain, points: Vec<OperatingPoint>) -> Self {
        BatchRequest {
            domain,
            points,
            threads: 0,
        }
    }

    /// Overrides the worker-thread count (`0` = auto). Results are
    /// identical for every setting; this only controls resource usage.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Estimator {
    /// Compiles one domain's calibration against this estimator's
    /// parameters for cheap repeated evaluation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledScenario::compile`].
    pub fn compile(&self, domain: Domain) -> Result<CompiledScenario, GreenFpgaError> {
        CompiledScenario::compile(self.params(), domain)
    }

    /// Evaluates every point of a [`BatchRequest`] in parallel.
    ///
    /// The scenario is compiled once and the points stream through the SoA
    /// kernel ([`CompiledScenario::evaluate_into`]); results come back in
    /// request order and are deterministic for every thread count. Callers
    /// that evaluate many batches should hold a [`ResultBuffer`] and call
    /// [`Estimator::evaluate_batch_into`] instead to skip the per-call
    /// output allocation.
    ///
    /// # Errors
    ///
    /// Propagates compile errors and the point-validation error with the
    /// lowest index.
    pub fn evaluate_batch(
        &self,
        request: &BatchRequest,
    ) -> Result<Vec<PlatformComparison>, GreenFpgaError> {
        let mut buffer = ResultBuffer::new();
        self.evaluate_batch_into(request, &mut buffer)?;
        Ok(buffer.comparisons().collect())
    }

    /// [`Estimator::evaluate_batch`] into a caller-provided reusable buffer:
    /// after the first fill at a given size, repeated batches allocate
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::evaluate_batch`].
    pub fn evaluate_batch_into(
        &self,
        request: &BatchRequest,
        out: &mut ResultBuffer,
    ) -> Result<(), GreenFpgaError> {
        let compiled = self.compile(request.domain)?;
        compiled.evaluate_indexed_into(
            request.points.len(),
            |i| request.points[i],
            out,
            request.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimator() -> Estimator {
        Estimator::default()
    }

    fn points() -> Vec<OperatingPoint> {
        let mut out = Vec::new();
        for applications in [1u64, 3, 8] {
            for lifetime_years in [0.5, 2.0] {
                for volume in [10_000u64, 1_000_000] {
                    out.push(OperatingPoint {
                        applications,
                        lifetime_years,
                        volume,
                    });
                }
            }
        }
        out
    }

    /// Byte-for-byte comparison of all 12 columns of two buffers.
    fn assert_buffers_bit_identical(reference: &ResultBuffer, out: &ResultBuffer, ctx: &str) {
        assert_eq!(reference.len(), out.len(), "{ctx}: length");
        for i in 0..reference.len() {
            for (expected, got, platform) in [
                (reference.fpga(i), out.fpga(i), "fpga"),
                (reference.asic(i), out.asic(i), "asic"),
            ] {
                for (e, g, component) in [
                    (expected.design, got.design, "design"),
                    (expected.manufacturing, got.manufacturing, "manufacturing"),
                    (expected.packaging, got.packaging, "packaging"),
                    (expected.eol, got.eol, "eol"),
                    (expected.operation, got.operation, "operation"),
                    (expected.app_dev, got.app_dev, "app_dev"),
                ] {
                    assert_eq!(
                        e.as_kg().to_bits(),
                        g.as_kg().to_bits(),
                        "{ctx}: point {i} {platform} {component}: {} != {}",
                        e.as_kg(),
                        g.as_kg()
                    );
                }
            }
        }
    }

    #[test]
    fn shrink_retained_caps_capacity_but_keeps_small_buffers() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let cap = 64 << 10;
        let big = vec![OperatingPoint::paper_default(); 20_000];
        let mut buffer = ResultBuffer::new();
        compiled.evaluate_into(&big, &mut buffer).unwrap();
        // 20_000 points × 12 columns × 8 bytes ≈ 1.9 MiB resident.
        assert!(buffer.capacity_bytes() >= 12 * 20_000 * 8);
        buffer.shrink_retained(cap);
        assert!(buffer.is_empty());
        assert!(
            buffer.capacity_bytes() <= cap,
            "retained {} bytes > cap {cap}",
            buffer.capacity_bytes()
        );
        // A buffer already under the cap keeps its capacity untouched.
        let small = points();
        compiled.evaluate_into(&small, &mut buffer).unwrap();
        let before = buffer.capacity_bytes();
        assert!(before <= cap);
        buffer.shrink_retained(cap);
        assert_eq!(buffer.capacity_bytes(), before);
        // And the buffer stays fully usable after shrinking.
        let mut reference = ResultBuffer::new();
        compiled.evaluate_into(&small, &mut reference).unwrap();
        compiled.evaluate_into(&small, &mut buffer).unwrap();
        assert_buffers_bit_identical(&reference, &buffer, "post-shrink refill");
    }

    /// Asserts the closed form `fast` agrees with the per-application sum
    /// `slow` component by component: bit-identical up to three
    /// applications (`2x` is exact and `fl(2x + x) = fl(3x)`), within
    /// `applications × f64::EPSILON` relative beyond.
    fn assert_matches_oracle(
        fast: &PlatformComparison,
        slow: &PlatformComparison,
        applications: u64,
        ctx: &str,
    ) {
        let bound = applications as f64 * f64::EPSILON;
        for (fast, slow, platform) in [
            (fast.fpga, slow.fpga, "fpga"),
            (fast.asic, slow.asic, "asic"),
        ] {
            for ((component, a), (_, b)) in fast.components().into_iter().zip(slow.components()) {
                let (a, b) = (a.as_kg(), b.as_kg());
                if applications <= 3 {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: {platform} {component}: {a:e} != {b:e}"
                    );
                } else {
                    assert!(
                        (a - b).abs() <= bound * b.abs(),
                        "{ctx}: {platform} {component}: {a:e} vs {b:e} beyond {bound:e} relative"
                    );
                }
            }
        }
    }

    /// The closed form against the independent per-application oracle
    /// ([`Estimator::compare_uniform`]) over randomized knob overrides,
    /// every domain and 1–64 applications, with `-0.0` lifetimes pinning
    /// the sign of zero; the batch path must reproduce `evaluate` bit for
    /// bit at every point and thread count.
    #[test]
    fn closed_form_matches_the_per_application_oracle() {
        use crate::Knob;

        let mut rng = gf_support::SplitMix64::new(0x0C10_5ED0_F0A1_0012);
        for case in 0..12 {
            let mut params = EstimatorParams::paper_defaults();
            for knob in Knob::ALL {
                if rng.gen_bool() {
                    let range = knob.range();
                    knob.apply_mut(&mut params, rng.gen_range_f64(range.low, range.high));
                }
            }
            let estimator = Estimator::new(params.clone());
            for domain in Domain::ALL {
                let compiled = CompiledScenario::compile(&params, domain).expect("compile");
                let lifetime_years = match case % 3 {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen_range_f64(0.0, 10.0),
                };
                let volume = rng.gen_range_u64(1, 2_000_000);
                let points: Vec<OperatingPoint> = (1..=64)
                    .map(|applications| OperatingPoint {
                        applications,
                        lifetime_years,
                        volume,
                    })
                    .collect();
                for point in &points {
                    let fast = compiled.evaluate(*point).expect("evaluate");
                    let slow = estimator
                        .compare_uniform(domain, point.applications, lifetime_years, volume)
                        .expect("oracle");
                    assert_matches_oracle(
                        &fast,
                        &slow,
                        point.applications,
                        &format!("case {case} ({domain}, {point:?})"),
                    );
                }
                let mut reference = ResultBuffer::new();
                reference.prepare(domain, points.len());
                {
                    let (mut fpga_cols, mut asic_cols) = reference.columns_mut();
                    for (t, &point) in points.iter().enumerate() {
                        let direct = compiled.evaluate(point).expect("evaluate");
                        fpga_cols.set(t, &direct.fpga);
                        asic_cols.set(t, &direct.asic);
                    }
                }
                let mut out = ResultBuffer::new();
                for threads in [1, 2, 3, 8] {
                    compiled
                        .evaluate_indexed_into(points.len(), |i| points[i], &mut out, threads)
                        .expect("batch");
                    assert_buffers_bit_identical(
                        &reference,
                        &out,
                        &format!("case {case} ({domain}, {threads} threads)"),
                    );
                }
                compiled.evaluate_into(&points, &mut out).expect("batch");
                assert_buffers_bit_identical(
                    &reference,
                    &out,
                    &format!("case {case} ({domain}, slice path)"),
                );
            }
        }
    }

    #[test]
    fn compiled_matches_naive_within_the_stated_bound() {
        for domain in Domain::ALL {
            let est = estimator();
            let compiled = est.compile(domain).unwrap();
            for point in points() {
                let fast = compiled.evaluate(point).unwrap();
                let slow = est
                    .compare_uniform(
                        domain,
                        point.applications,
                        point.lifetime_years,
                        point.volume,
                    )
                    .unwrap();
                assert_matches_oracle(
                    &fast,
                    &slow,
                    point.applications,
                    &format!("{domain} {point:?}"),
                );
            }
        }
    }

    #[test]
    fn evaluate_batch_matches_point_wise_evaluation() {
        let est = estimator();
        let request = BatchRequest::new(Domain::ImageProcessing, points());
        let batch = est.evaluate_batch(&request).unwrap();
        assert_eq!(batch.len(), request.points.len());
        let compiled = est.compile(Domain::ImageProcessing).unwrap();
        for (comparison, point) in batch.iter().zip(&request.points) {
            assert_eq!(*comparison, compiled.evaluate(*point).unwrap());
        }
    }

    #[test]
    fn batch_is_thread_count_independent() {
        let est = estimator();
        let serial = est
            .evaluate_batch(&BatchRequest::new(Domain::Dnn, points()).with_threads(1))
            .unwrap();
        for threads in [2, 4, 13] {
            let parallel = est
                .evaluate_batch(&BatchRequest::new(Domain::Dnn, points()).with_threads(threads))
                .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn evaluate_validates_points() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let base = OperatingPoint::paper_default();
        assert!(matches!(
            compiled.evaluate(OperatingPoint {
                applications: 0,
                ..base
            }),
            Err(GreenFpgaError::EmptyWorkload)
        ));
        assert!(matches!(
            compiled.evaluate(OperatingPoint { volume: 0, ..base }),
            Err(GreenFpgaError::InvalidApplication {
                field: "volume",
                ..
            })
        ));
        assert!(matches!(
            compiled.evaluate(OperatingPoint {
                lifetime_years: -1.0,
                ..base
            }),
            Err(GreenFpgaError::InvalidApplication {
                field: "lifetime",
                ..
            })
        ));
    }

    #[test]
    fn evaluate_is_closed_form_up_to_u64_max_applications() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let one = OperatingPoint {
            applications: 1,
            ..OperatingPoint::paper_default()
        };
        let single = compiled.evaluate(one).unwrap();
        let huge = compiled
            .evaluate(OperatingPoint {
                applications: u64::MAX,
                ..one
            })
            .unwrap();
        let n = u64::MAX as f64;
        // ASIC: every application repeats the single-application total.
        let asic = huge.asic.total().as_kg();
        assert!(asic.is_finite());
        assert!((asic - n * single.asic.total().as_kg()).abs() <= 1e-12 * asic);
        // FPGA: embodied once, deployment N times.
        assert_eq!(huge.fpga.embodied(), single.fpga.embodied());
        let deployment = huge.fpga.deployment().as_kg();
        assert!(deployment.is_finite());
        assert!((deployment - n * single.fpga.deployment().as_kg()).abs() <= 1e-12 * deployment);
    }

    #[test]
    fn batch_surfaces_the_lowest_index_error() {
        let mut pts = points();
        pts.insert(
            2,
            OperatingPoint {
                applications: 0,
                ..OperatingPoint::paper_default()
            },
        );
        pts.push(OperatingPoint {
            volume: 0,
            ..OperatingPoint::paper_default()
        });
        let err = estimator()
            .evaluate_batch(&BatchRequest::new(Domain::Dnn, pts))
            .unwrap_err();
        assert!(matches!(err, GreenFpgaError::EmptyWorkload));
    }

    #[test]
    fn compiled_platform_accessors_are_consistent() {
        let compiled = estimator().compile(Domain::Crypto).unwrap();
        assert_eq!(compiled.domain(), Domain::Crypto);
        let fpga = compiled.fpga();
        assert!(fpga.design().as_kg() > 0.0);
        assert!(fpga.hardware_per_chip().as_kg() > 0.0);
        assert_eq!(fpga.chips_per_unit(), 1);
        assert_eq!(compiled.asic().chips_per_unit(), 1);
        let embodied = fpga.embodied(100.0);
        assert_eq!(embodied.design, fpga.design());
        assert!(embodied.operation.as_kg() == 0.0);
    }

    #[test]
    fn ratio_matches_evaluate() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let point = OperatingPoint::paper_default();
        assert_eq!(
            compiled.ratio(point).unwrap(),
            compiled.evaluate(point).unwrap().fpga_to_asic_ratio()
        );
    }

    #[test]
    fn evaluate_into_matches_evaluate_bit_for_bit() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let pts = points();
        let mut buffer = ResultBuffer::new();
        compiled.evaluate_into(&pts, &mut buffer).unwrap();
        assert_eq!(buffer.len(), pts.len());
        assert_eq!(buffer.domain(), Some(Domain::Dnn));
        for (i, point) in pts.iter().enumerate() {
            let direct = compiled.evaluate(*point).unwrap();
            assert_eq!(buffer.comparison(i), direct, "point {i}");
            assert_eq!(buffer.ratio(i), direct.fpga_to_asic_ratio(), "point {i}");
        }
    }

    #[test]
    fn evaluate_into_is_thread_count_independent_and_reusable() {
        let compiled = estimator().compile(Domain::Crypto).unwrap();
        let pts = points();
        let mut serial = ResultBuffer::new();
        compiled
            .evaluate_indexed_into(pts.len(), |i| pts[i], &mut serial, 1)
            .unwrap();
        let mut buffer = ResultBuffer::new();
        for threads in [2, 3, 16] {
            // Reuse the same buffer across fills of different sizes.
            compiled
                .evaluate_indexed_into(3, |i| pts[i], &mut buffer, threads)
                .unwrap();
            assert_eq!(buffer.len(), 3);
            compiled
                .evaluate_indexed_into(pts.len(), |i| pts[i], &mut buffer, threads)
                .unwrap();
            assert_eq!(serial, buffer, "{threads} threads");
        }
        buffer.clear();
        assert!(buffer.is_empty());
        assert_eq!(buffer.domain(), None);
    }

    #[test]
    fn evaluate_into_surfaces_the_lowest_index_error() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let mut pts = points();
        pts.insert(
            2,
            OperatingPoint {
                applications: 0,
                ..OperatingPoint::paper_default()
            },
        );
        pts.push(OperatingPoint {
            volume: 0,
            ..OperatingPoint::paper_default()
        });
        for threads in [1, 4] {
            let mut buffer = ResultBuffer::new();
            let err = compiled
                .evaluate_indexed_into(pts.len(), |i| pts[i], &mut buffer, threads)
                .unwrap_err();
            assert!(matches!(err, GreenFpgaError::EmptyWorkload), "{threads}");
        }
    }

    #[test]
    fn platform_coefficient_accessors_are_consistent() {
        let compiled = estimator().compile(Domain::Dnn).unwrap();
        let fpga = compiled.fpga();
        // Operation rate: carbon over one year for one device.
        assert!(fpga.operation_kg_per_device_year() > 0.0);
        // FPGA pays hardware app-dev; the ASIC's software flow is free.
        assert!(fpga.appdev_per_application_kg() > 0.0);
        assert!(fpga.appdev_per_device_kg() > 0.0);
        assert_eq!(compiled.asic().appdev_per_application_kg(), 0.0);
        assert_eq!(compiled.asic().appdev_per_device_kg(), 0.0);
    }
}
