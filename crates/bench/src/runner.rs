use std::sync::Arc;

use dream_baselines::{
    EdfScheduler, FcfsScheduler, PlanariaScheduler, StaticScheduler, VeltairScheduler,
};
use dream_core::{DreamConfig, DreamScheduler, ScoreParams, UxCostReport};
use dream_cost::{CostBackend, CostModel, Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_serve::parse_scenario_kind;
use dream_serve::wire::de::{DecodeError, FrameReader};
use dream_serve::wire::ser::FrameWriter;
use dream_sim::{
    ArrivalSource, ArrivalTrace, Histogram, Metrics, Millis, MmppArrivals, PeriodicArrivals,
    PoissonArrivals, Scheduler, SimError, SimulationBuilder, TraceArrivals,
};

/// Which DREAM ablation level to run (the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DreamVariant {
    /// Score-driven dispatch with tuned (α, β).
    MapScore,
    /// MapScore + smart frame drop.
    SmartDrop,
    /// MapScore + smart frame drop + supernet switching.
    Full,
}

impl DreamVariant {
    /// Builds the matching [`DreamConfig`].
    pub fn config(self) -> DreamConfig {
        match self {
            DreamVariant::MapScore => DreamConfig::mapscore(),
            DreamVariant::SmartDrop => DreamConfig::smart_drop(),
            DreamVariant::Full => DreamConfig::full(),
        }
    }

    /// Table 4 name.
    pub fn name(self) -> &'static str {
        match self {
            DreamVariant::MapScore => "DREAM-MapScore",
            DreamVariant::SmartDrop => "DREAM-SmartDrop",
            DreamVariant::Full => "DREAM-Full",
        }
    }
}

/// Which scheduler a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Dynamic first-come-first-served (model granularity).
    Fcfs,
    /// Offline worst-case static scheduler (Figure 2).
    Static,
    /// Plain earliest-deadline-first (extra reference point).
    Edf,
    /// Veltair-style layer-block scheduler.
    Veltair,
    /// Planaria-style spatial-fission scheduler.
    Planaria,
    /// DREAM with explicit fixed parameters (no offline tuning).
    DreamFixed(DreamVariant, ScoreParams),
    /// DREAM with offline-tuned parameters (tuned per scenario × platform
    /// × cascade, cached within the process).
    DreamTuned(DreamVariant),
}

impl SchedulerKind {
    /// Display name used in tables.
    pub fn name(&self) -> String {
        match self {
            SchedulerKind::Fcfs => "FCFS".into(),
            SchedulerKind::Static => "Static".into(),
            SchedulerKind::Edf => "EDF".into(),
            SchedulerKind::Veltair => "Veltair".into(),
            SchedulerKind::Planaria => "Planaria".into(),
            SchedulerKind::DreamFixed(v, p) => format!("{}{}", v.name(), p),
            SchedulerKind::DreamTuned(v) => v.name().into(),
        }
    }

    /// The paper's three baselines plus the three DREAM levels — the
    /// scheduler set of Figures 7 and 8.
    pub fn figure7_set() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Fcfs,
            SchedulerKind::Veltair,
            SchedulerKind::Planaria,
            SchedulerKind::DreamTuned(DreamVariant::MapScore),
            SchedulerKind::DreamTuned(DreamVariant::SmartDrop),
            SchedulerKind::DreamTuned(DreamVariant::Full),
        ]
    }
}

/// Which cost backend prices a run's layers and context switches — the
/// experiment-level face of the [`CostBackend`] seam.
///
/// Cell grouping and the shared-workload cache key compare configs by
/// [`digest`](Self::digest), which mixes the backend kind: an analytical
/// run and a table-import run never merge or alias, even when the table
/// is a bit-exact export of the analytical model.
#[derive(Debug, Clone, Default)]
pub enum CostConfig {
    /// The analytical model with the paper-default calibration.
    #[default]
    Analytical,
    /// An explicit backend — a re-calibrated [`CostModel`] or a loaded
    /// [`TableBackend`](dream_cost::TableBackend).
    Backend(Arc<dyn CostBackend>),
}

impl CostConfig {
    /// The backend this config resolves to.
    pub fn backend(&self) -> Arc<dyn CostBackend> {
        match self {
            CostConfig::Analytical => Arc::new(CostModel::paper_default()),
            CostConfig::Backend(b) => Arc::clone(b),
        }
    }

    /// The backend's calibration digest — the identity cache keys and
    /// cell grouping use.
    pub fn digest(&self) -> u64 {
        match self {
            CostConfig::Analytical => CostModel::paper_default().calibration_digest(),
            CostConfig::Backend(b) => b.calibration_digest(),
        }
    }
}

impl PartialEq for CostConfig {
    fn eq(&self, other: &Self) -> bool {
        self.digest() == other.digest()
    }
}

/// How a run's root frames arrive — the experiment-level face of the
/// simulator's [`ArrivalSource`](dream_sim::ArrivalSource) seam.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalConfig {
    /// The paper's fixed-FPS pipelines (the default).
    #[default]
    Periodic,
    /// Open-loop Poisson traffic at `intensity` × the nominal rate.
    Poisson {
        /// Rate multiplier (1.0 = nominal load in expectation).
        intensity: f64,
    },
    /// Bursty two-state MMPP traffic (see
    /// [`MmppArrivals`](dream_sim::MmppArrivals)).
    Mmpp {
        /// Calm-state intensity multiplier.
        calm: f64,
        /// Burst-state intensity multiplier.
        burst: f64,
        /// Per-frame probability of entering a burst.
        p_enter: f64,
        /// Per-frame probability of leaving a burst.
        p_exit: f64,
    },
    /// Replay of a recorded request trace.
    Trace(Arc<ArrivalTrace>),
}

impl ArrivalConfig {
    /// A short human-readable label for tables. Lossy (floats are
    /// rounded) — cell grouping uses [`group_key`](Self::group_key).
    pub fn label(&self) -> String {
        match self {
            ArrivalConfig::Periodic => "periodic".into(),
            ArrivalConfig::Poisson { intensity } => format!("poisson x{intensity:.2}"),
            ArrivalConfig::Mmpp { calm, burst, .. } => format!("mmpp {calm:.2}/{burst:.2}"),
            ArrivalConfig::Trace(t) => {
                format!("trace:{}#{}@{:08x}", t.name(), t.len(), t.digest() as u32)
            }
        }
    }

    /// An exact grouping key: every parameter by bit pattern (traces by
    /// content digest), so two configs that merely *format* identically
    /// never merge into one averaged cell.
    pub fn group_key(&self) -> String {
        match self {
            ArrivalConfig::Periodic => "periodic".into(),
            ArrivalConfig::Poisson { intensity } => {
                format!("poisson:{:016x}", intensity.to_bits())
            }
            ArrivalConfig::Mmpp {
                calm,
                burst,
                p_enter,
                p_exit,
            } => format!(
                "mmpp:{:016x}:{:016x}:{:016x}:{:016x}",
                calm.to_bits(),
                burst.to_bits(),
                p_enter.to_bits(),
                p_exit.to_bits()
            ),
            ArrivalConfig::Trace(t) => format!("trace:{:016x}:{}", t.digest(), t.len()),
        }
    }

    /// Builds a fresh arrival source equivalent to this config — the
    /// seam offline trace recording ([`ArrivalTrace::record`]) and the
    /// distributed cell runner use to materialize a run's stream.
    pub fn source(&self) -> Box<dyn ArrivalSource> {
        match self {
            ArrivalConfig::Periodic => Box::new(PeriodicArrivals),
            ArrivalConfig::Poisson { intensity } => Box::new(PoissonArrivals::new(*intensity)),
            ArrivalConfig::Mmpp {
                calm,
                burst,
                p_enter,
                p_exit,
            } => Box::new(MmppArrivals::new(*calm, *burst, *p_enter, *p_exit)),
            ArrivalConfig::Trace(trace) => Box::new(TraceArrivals::new(trace.clone())),
        }
    }

    /// Applies this config to a simulation builder.
    fn apply(&self, builder: SimulationBuilder) -> SimulationBuilder {
        match self {
            ArrivalConfig::Periodic => builder,
            ArrivalConfig::Poisson { intensity } => {
                builder.arrivals(PoissonArrivals::new(*intensity))
            }
            ArrivalConfig::Mmpp {
                calm,
                burst,
                p_enter,
                p_exit,
            } => builder.arrivals(MmppArrivals::new(*calm, *burst, *p_enter, *p_exit)),
            ArrivalConfig::Trace(trace) => builder.arrivals(TraceArrivals::new(trace.clone())),
        }
    }
}

/// A fully specified simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Workload scenario.
    pub scenario: ScenarioKind,
    /// Hardware platform.
    pub preset: PlatformPreset,
    /// Cascade probability on control-dependent edges.
    pub cascade: f64,
    /// Measurement horizon in milliseconds.
    pub duration_ms: u64,
    /// Workload-realization seed.
    pub seed: u64,
    /// Arrival stream feeding the run.
    pub arrival: ArrivalConfig,
    /// Cost backend pricing the run.
    pub cost: CostConfig,
}

impl RunSpec {
    /// A spec with the paper's defaults (50% cascade, 2 s window).
    pub fn new(scheduler: SchedulerKind, scenario: ScenarioKind, preset: PlatformPreset) -> Self {
        RunSpec {
            scheduler,
            scenario,
            preset,
            cascade: 0.5,
            duration_ms: crate::DEFAULT_DURATION_MS,
            seed: crate::DEFAULT_SEED,
            arrival: ArrivalConfig::Periodic,
            cost: CostConfig::Analytical,
        }
    }

    /// Overrides the arrival stream (default: periodic).
    pub fn with_arrivals(mut self, arrival: ArrivalConfig) -> Self {
        self.arrival = arrival;
        self
    }

    /// Overrides the cost backend (default: the analytical model with
    /// paper calibration).
    pub fn with_cost_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.cost = CostConfig::Backend(backend);
        self
    }

    /// Overrides the cascade probability.
    pub fn with_cascade(mut self, p: f64) -> Self {
        self.cascade = p;
        self
    }

    /// Overrides the duration.
    pub fn with_duration_ms(mut self, ms: u64) -> Self {
        self.duration_ms = ms;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Encodes this spec as the opaque cell bytes a coordinator ships to
    /// a worker in a `RunCells` request. The layout: the scheduler tag
    /// (then a DREAM variant tag, then α and β for fixed parameters),
    /// the scenario and preset names, cascade, duration, seed, and the
    /// arrival tag with its parameters. Floats travel by bit pattern.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the spec holds process-local state
    /// that does not travel: recorded-trace arrivals or a custom cost
    /// backend. Such a spec is refused rather than approximated, since a
    /// worker must never run a cell that differs from the local run.
    pub fn encode(&self) -> Result<Vec<u8>, String> {
        if !matches!(self.cost, CostConfig::Analytical) {
            return Err("custom cost backends are not wire-shippable".into());
        }
        let mut w = FrameWriter::default();
        match self.scheduler {
            SchedulerKind::Fcfs => w.put_u8(tag::FCFS),
            SchedulerKind::Static => w.put_u8(tag::STATIC),
            SchedulerKind::Edf => w.put_u8(tag::EDF),
            SchedulerKind::Veltair => w.put_u8(tag::VELTAIR),
            SchedulerKind::Planaria => w.put_u8(tag::PLANARIA),
            SchedulerKind::DreamFixed(variant, params) => {
                w.put_u8(tag::DREAM_FIXED);
                w.put_u8(variant.tag());
                w.put_f64(params.alpha());
                w.put_f64(params.beta());
            }
            SchedulerKind::DreamTuned(variant) => {
                w.put_u8(tag::DREAM_TUNED);
                w.put_u8(variant.tag());
            }
        }
        w.put_str(self.scenario.name());
        w.put_str(self.preset.name());
        w.put_f64(self.cascade);
        w.put_u64(self.duration_ms);
        w.put_u64(self.seed);
        match &self.arrival {
            ArrivalConfig::Periodic => w.put_u8(tag::PERIODIC),
            ArrivalConfig::Poisson { intensity } => {
                w.put_u8(tag::POISSON);
                w.put_f64(*intensity);
            }
            ArrivalConfig::Mmpp {
                calm,
                burst,
                p_enter,
                p_exit,
            } => {
                w.put_u8(tag::MMPP);
                for v in [calm, burst, p_enter, p_exit] {
                    w.put_f64(*v);
                }
            }
            ArrivalConfig::Trace(t) => {
                return Err(format!(
                    "recorded-trace arrivals ({}) are not wire-shippable",
                    t.name()
                ))
            }
        }
        Ok(w.finish())
    }

    /// Decodes cell bytes written by [`encode`](Self::encode). It checks
    /// every parameter [`run_spec`] would otherwise assert on, through
    /// the same checked constructors the run uses: the DREAM score
    /// weights, the cascade probability, a non-zero duration and the
    /// arrival parameters. So no bytes a peer sends can panic a worker.
    /// It also bounds the work a cell asks for ([`MAX_CELL_WORK_MS`]),
    /// so no bytes can pin one either.
    ///
    /// # Errors
    ///
    /// A human-readable reason for malformed bytes, an unknown scenario
    /// or preset name, an invalid parameter, or a cell over the work
    /// budget ([`CellOverBudget`]).
    pub fn decode(bytes: &[u8]) -> Result<RunSpec, String> {
        read_spec(&mut FrameReader::new(bytes)).map_err(|e| format!("bad cell: {e}"))
    }
}

/// The most work one decoded cell may ask for, in nominal-rate
/// simulated milliseconds: its horizon times its peak arrival intensity
/// (1 for periodic arrivals, the rate multiplier for Poisson, the larger
/// state multiplier for MMPP). One simulated minute at the nominal rate
/// admits every cell the repository sends — the benchmark's 10 s
/// `paper_grid` cells, the figure benches' 2 s windows at bursts of up to
/// 2.5× — while a peer can no longer pin a worker with one cell.
pub const MAX_CELL_WORK_MS: f64 = 60_000.0;

/// Why [`RunSpec::decode`] refused a cell that is otherwise well formed:
/// its horizon times its peak arrival intensity exceeds
/// [`MAX_CELL_WORK_MS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOverBudget {
    /// The cell's horizon, ms.
    pub duration_ms: u64,
    /// The cell's peak arrival intensity multiplier.
    pub peak_intensity: f64,
}

impl std::fmt::Display for CellOverBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell asks for {} ms at {}x the nominal rate, over the budget of {MAX_CELL_WORK_MS} ms",
            self.duration_ms, self.peak_intensity
        )
    }
}

impl std::error::Error for CellOverBudget {}

/// The tags of the cell format [`RunSpec::encode`] writes.
mod tag {
    pub const FCFS: u8 = 0;
    pub const STATIC: u8 = 1;
    pub const EDF: u8 = 2;
    pub const VELTAIR: u8 = 3;
    pub const PLANARIA: u8 = 4;
    pub const DREAM_FIXED: u8 = 5;
    pub const DREAM_TUNED: u8 = 6;

    pub const MAPSCORE: u8 = 0;
    pub const SMARTDROP: u8 = 1;
    pub const FULL: u8 = 2;

    pub const PERIODIC: u8 = 0;
    pub const POISSON: u8 = 1;
    pub const MMPP: u8 = 2;
}

impl DreamVariant {
    fn tag(self) -> u8 {
        match self {
            DreamVariant::MapScore => tag::MAPSCORE,
            DreamVariant::SmartDrop => tag::SMARTDROP,
            DreamVariant::Full => tag::FULL,
        }
    }

    fn read(r: &mut FrameReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            tag::MAPSCORE => Ok(DreamVariant::MapScore),
            tag::SMARTDROP => Ok(DreamVariant::SmartDrop),
            tag::FULL => Ok(DreamVariant::Full),
            tag => Err(DecodeError::BadTag {
                what: "dream variant",
                tag,
            }),
        }
    }
}

fn read_spec(r: &mut FrameReader<'_>) -> Result<RunSpec, Box<dyn std::error::Error>> {
    let scheduler = match r.u8()? {
        tag::FCFS => SchedulerKind::Fcfs,
        tag::STATIC => SchedulerKind::Static,
        tag::EDF => SchedulerKind::Edf,
        tag::VELTAIR => SchedulerKind::Veltair,
        tag::PLANARIA => SchedulerKind::Planaria,
        tag::DREAM_FIXED => {
            let variant = DreamVariant::read(r)?;
            SchedulerKind::DreamFixed(variant, ScoreParams::new(r.f64()?, r.f64()?)?)
        }
        tag::DREAM_TUNED => SchedulerKind::DreamTuned(DreamVariant::read(r)?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "scheduler",
                tag,
            }
            .into())
        }
    };
    let name = r.str()?;
    let scenario =
        parse_scenario_kind(&name).ok_or_else(|| format!("unknown scenario {name:?}"))?;
    let name = r.str()?;
    let preset = PlatformPreset::all()
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown platform preset {name:?}"))?;
    let cascade = r.f64()?;
    CascadeProbability::new(cascade)?;
    let duration_ms = r.u64()?;
    if duration_ms == 0 {
        return Err(SimError::ZeroDuration.into());
    }
    let seed = r.u64()?;
    let (arrival, peak_intensity) = match r.u8()? {
        tag::PERIODIC => (ArrivalConfig::Periodic, 1.0),
        tag::POISSON => {
            let intensity = r.f64()?;
            PoissonArrivals::try_new(intensity)?;
            (ArrivalConfig::Poisson { intensity }, intensity)
        }
        tag::MMPP => {
            let (calm, burst, p_enter, p_exit) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
            MmppArrivals::try_new(calm, burst, p_enter, p_exit)?;
            let arrival = ArrivalConfig::Mmpp {
                calm,
                burst,
                p_enter,
                p_exit,
            };
            (arrival, calm.max(burst))
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "arrival",
                tag,
            }
            .into())
        }
    };
    r.expect_end()?;
    if duration_ms as f64 * peak_intensity > MAX_CELL_WORK_MS {
        return Err(CellOverBudget {
            duration_ms,
            peak_intensity,
        }
        .into());
    }
    Ok(RunSpec {
        scheduler,
        scenario,
        preset,
        cascade,
        duration_ms,
        seed,
        arrival,
        cost: CostConfig::Analytical,
    })
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: RunSpec,
    /// Scheduler display name.
    pub scheduler_name: String,
    /// UXCost (Algorithm 2).
    pub uxcost: f64,
    /// Σ per-model deadline-violation rates (with floor).
    pub overall_rate_dlv: f64,
    /// Σ per-model normalised energies.
    pub overall_norm_energy: f64,
    /// Mean raw violation rate in `[0, 1]` (Figure 2/7 violation axis).
    pub mean_violation_rate: f64,
    /// Mean normalised energy in `[0, 1]` (Figure 7 energy axis).
    pub mean_norm_energy: f64,
    /// Mean accelerator utilisation.
    pub utilization: f64,
    /// Frames dropped by the scheduler.
    pub drops: u64,
    /// Supernet variant execution histogram (empty when no supernet ran).
    pub variant_runs: Vec<u64>,
    /// Context switches charged.
    pub context_switches: u64,
    /// Full metrics for custom analyses; request latency is
    /// `metrics.sojourn_histogram()`.
    pub metrics: Metrics,
}

/// Runs one spec to completion.
///
/// # Panics
///
/// Panics if the spec is internally inconsistent (invalid cascade
/// probability) — experiment code treats that as a programming error.
pub fn run_spec(spec: &RunSpec) -> RunResult {
    let cascade =
        CascadeProbability::new(spec.cascade).expect("experiment cascade probabilities are valid");
    let platform = Platform::preset(spec.preset);
    let scenario = Scenario::new(spec.scenario, cascade);
    // Cells sharing (scenario, platform, cascade, duration, cost backend)
    // — every seed of a sweep, every scheduler of a row — share one built
    // workload instead of rebuilding the offline tables per cell.
    let backend = spec.cost.backend();
    let workload = crate::shared_workload(
        spec.scenario,
        spec.preset,
        spec.cascade,
        spec.duration_ms,
        Arc::clone(&backend),
    );
    let builder = spec.arrival.apply(
        SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(spec.duration_ms))
            .seed(spec.seed)
            .cost_backend(backend)
            .prebuilt_workload(workload),
    );

    let mut fcfs;
    let mut statik;
    let mut edf;
    let mut veltair;
    let mut planaria;
    let mut dream;
    let scheduler: &mut dyn Scheduler = match &spec.scheduler {
        SchedulerKind::Fcfs => {
            fcfs = FcfsScheduler::new();
            &mut fcfs
        }
        SchedulerKind::Static => {
            statik = StaticScheduler::new();
            &mut statik
        }
        SchedulerKind::Edf => {
            edf = EdfScheduler::new();
            &mut edf
        }
        SchedulerKind::Veltair => {
            veltair = VeltairScheduler::new();
            &mut veltair
        }
        SchedulerKind::Planaria => {
            planaria = PlanariaScheduler::new();
            &mut planaria
        }
        SchedulerKind::DreamFixed(variant, params) => {
            dream = DreamScheduler::new(variant.config().with_params(*params));
            &mut dream
        }
        SchedulerKind::DreamTuned(variant) => {
            let params = crate::tuned_params_cached(
                spec.scenario,
                spec.preset,
                spec.cascade,
                *variant,
                &spec.cost,
            );
            dream = DreamScheduler::new(variant.config().with_params(params));
            &mut dream
        }
    };

    let name = scheduler.name().to_string();
    let metrics = builder
        .run(scheduler)
        .expect("experiment specs are valid simulations")
        .into_metrics();
    let report = UxCostReport::from_metrics(&metrics);
    let variant_runs = metrics
        .models()
        .find(|(_, s)| s.variant_runs.len() > 1)
        .map(|(_, s)| s.variant_runs.clone())
        .unwrap_or_default();
    RunResult {
        spec: spec.clone(),
        scheduler_name: name,
        uxcost: report.uxcost(),
        overall_rate_dlv: report.overall_rate_dlv(),
        overall_norm_energy: report.overall_norm_energy(),
        mean_violation_rate: metrics.mean_violation_rate(),
        mean_norm_energy: metrics.mean_normalized_energy(),
        utilization: metrics.mean_utilization(),
        drops: metrics.models().map(|(_, s)| s.dropped).sum(),
        variant_runs,
        context_switches: metrics.context_switches,
        metrics,
    }
}

/// Maps `f` over `items` with scoped threads (one per available core),
/// preserving order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_threads(items, 0, f)
}

/// [`parallel_map`] with an explicit worker count (0 = one per available
/// core). Output order is the input order regardless of `workers`.
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
    } else {
        workers
    }
    .min(items.len().max(1));
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        out.iter_mut().map(std::sync::Mutex::new).collect();
    let work = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let r = f(&items[i]);
        **slots[i].lock().expect("result slot poisoned") = Some(r);
    };
    // The calling thread is one of the workers.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    out.into_iter()
        .map(|r| r.expect("every item was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_produces_consistent_report() {
        let spec = RunSpec::new(
            SchedulerKind::Fcfs,
            ScenarioKind::ArCall,
            PlatformPreset::Homo4kWs2,
        )
        .with_duration_ms(300);
        let r = run_spec(&spec);
        assert!((r.uxcost - r.overall_rate_dlv * r.overall_norm_energy).abs() < 1e-12);
        assert_eq!(r.scheduler_name, "FCFS");
        assert!(r.utilization > 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn arrival_group_key_is_exact_where_label_is_lossy() {
        let a = ArrivalConfig::Poisson { intensity: 1.001 };
        let b = ArrivalConfig::Poisson { intensity: 1.004 };
        assert_eq!(a.label(), b.label(), "labels round for display");
        assert_ne!(a.group_key(), b.group_key(), "grouping must not merge");
        let m1 = ArrivalConfig::Mmpp {
            calm: 0.8,
            burst: 2.5,
            p_enter: 0.1,
            p_exit: 0.4,
        };
        let m2 = ArrivalConfig::Mmpp {
            calm: 0.8,
            burst: 2.5,
            p_enter: 0.5,
            p_exit: 0.1,
        };
        assert_eq!(m1.label(), m2.label());
        assert_ne!(m1.group_key(), m2.group_key());
        assert_eq!(ArrivalConfig::Periodic.group_key(), "periodic");
    }

    #[test]
    fn scheduler_kind_names() {
        assert_eq!(SchedulerKind::Fcfs.name(), "FCFS");
        assert_eq!(
            SchedulerKind::DreamTuned(DreamVariant::Full).name(),
            "DREAM-Full"
        );
        assert_eq!(SchedulerKind::figure7_set().len(), 6);
    }
}

/// Seed-averaged results: the per-seed [`RunResult`]s plus the means the
/// figures report. Averaging over workload realizations smooths the
/// lock-in effects that make single 2-second windows volatile.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// Scheduler display name.
    pub scheduler_name: String,
    /// Mean UXCost across seeds.
    pub uxcost: f64,
    /// Mean raw violation rate across seeds.
    pub mean_violation_rate: f64,
    /// Mean normalised energy across seeds.
    pub mean_norm_energy: f64,
    /// Mean drops across seeds.
    pub drops: f64,
    /// Every seed's sojourn histogram merged into one, so quantiles pool
    /// the seeds' requests (`sojourn_hist.quantile_ms(q)`) instead of
    /// averaging per-seed percentiles.
    pub sojourn_hist: Histogram,
    /// Element-wise mean of the supernet variant histogram (empty when no
    /// supernet ran).
    pub variant_shares: Vec<f64>,
    /// The per-seed results.
    pub runs: Vec<RunResult>,
}

/// Averages a group of per-seed runs into the numbers the figures report.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub(crate) fn average_runs(runs: Vec<RunResult>) -> AveragedResult {
    assert!(!runs.is_empty(), "need at least one run to average");
    let n = runs.len() as f64;
    let uxcost = runs.iter().map(|r| r.uxcost).sum::<f64>() / n;
    let mean_violation_rate = runs.iter().map(|r| r.mean_violation_rate).sum::<f64>() / n;
    let mean_norm_energy = runs.iter().map(|r| r.mean_norm_energy).sum::<f64>() / n;
    let drops = runs.iter().map(|r| r.drops as f64).sum::<f64>() / n;
    let mut sojourn_hist = Histogram::new();
    for r in &runs {
        sojourn_hist.merge(&r.metrics.sojourn_histogram());
    }
    let hist_len = runs.iter().map(|r| r.variant_runs.len()).max().unwrap_or(0);
    let mut variant_shares = vec![0.0; hist_len];
    for r in &runs {
        let total: u64 = r.variant_runs.iter().sum();
        if total == 0 {
            continue;
        }
        for (i, &v) in r.variant_runs.iter().enumerate() {
            variant_shares[i] += v as f64 / total as f64 / n;
        }
    }
    AveragedResult {
        scheduler_name: runs[0].scheduler_name.clone(),
        uxcost,
        mean_violation_rate,
        mean_norm_energy,
        drops,
        sojourn_hist,
        variant_shares,
        runs,
    }
}
