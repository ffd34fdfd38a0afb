//! The two grid workloads: the Figure 7 scheduler set × all five
//! scenarios on `Hetero4kWs1Os2`, run in one thread through `run_spec`.
//!
//! * `paper_grid` uses the paper's periodic arrivals. Ready sets stay
//!   small, so engine stepping and the per-decision fixed cost dominate.
//! * `overload_grid` runs the same cells under above-nominal Poisson and
//!   bursty MMPP arrivals. Ready sets grow, so MapScore score build,
//!   matching, smart frame drop and supernet switching dominate.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dream_baselines::{FcfsScheduler, PlanariaScheduler, VeltairScheduler};
use dream_bench::{
    run_spec, shared_workload, tune_params, tuned_params_cached, ArrivalConfig, CostConfig,
    DreamVariant, RunSpec, SchedulerKind,
};
use dream_core::{DreamScheduler, ObjectiveKind, StageTimings};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{
    Metrics, Millis, MmppArrivals, PoissonArrivals, Scheduler, SimulationBuilder, TraceArrivals,
};

use crate::timed::{SchedStats, SpanCost, Timeable, Timed};

/// The paper's heterogeneous platform (Figure 7).
pub const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;

/// The paper's default cascade probability.
pub const CASCADE: f64 = 0.5;

/// The DREAM levels of the Figure 7 set, each tuned offline.
pub const VARIANTS: [DreamVariant; 3] = [
    DreamVariant::MapScore,
    DreamVariant::SmartDrop,
    DreamVariant::Full,
];

/// Set-up is repeated this often per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// A run measures at least this many untraced passes, however short
/// `--seconds` is, so the median has something to choose from.
pub const MIN_PASSES: usize = 3;

/// Which grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Periodic arrivals at nominal load.
    Paper,
    /// Poisson ×1.3 and MMPP 0.8/2.0 arrivals, in short windows.
    Overload,
}

impl Grid {
    /// Simulated horizon per cell. Under overload the queues of the
    /// policies that never drop grow without bound, and the cost of a
    /// cell grows much faster than its horizon and swings from seed to
    /// seed; short overload windows, each run under several workload
    /// realizations, keep a pass's work steady across seeds.
    pub fn horizon_ms(self) -> u64 {
        match self {
            Grid::Paper => 10_000,
            Grid::Overload => 250,
        }
    }

    /// Workload realizations each (scheduler, scenario, arrival) cell
    /// runs under.
    pub fn replicas(self) -> u64 {
        match self {
            Grid::Paper => 1,
            Grid::Overload => 16,
        }
    }

    /// The arrival streams the grid crosses with every cell.
    pub fn arrivals(self) -> Vec<ArrivalConfig> {
        match self {
            Grid::Paper => vec![ArrivalConfig::Periodic],
            // Harder overload (Poisson ×1.5, bursts of 2.5×) makes a pass's
            // cost swing with the seed several times as much.
            Grid::Overload => vec![
                ArrivalConfig::Poisson { intensity: 1.3 },
                ArrivalConfig::Mmpp {
                    calm: 0.8,
                    burst: 2.0,
                    p_enter: 0.2,
                    p_exit: 0.25,
                },
            ],
        }
    }

    /// Every cell of the grid, for workload seed `seed`: replica `j` of a
    /// cell runs realization `seed × replicas + j`.
    pub fn cells(self, seed: u64) -> Vec<RunSpec> {
        let mut cells = Vec::new();
        for arrival in self.arrivals() {
            for scenario in ScenarioKind::all() {
                for scheduler in SchedulerKind::figure7_set() {
                    for j in 0..self.replicas() {
                        cells.push(
                            RunSpec::new(scheduler, scenario, PRESET)
                                .with_cascade(CASCADE)
                                .with_duration_ms(self.horizon_ms())
                                .with_seed(seed.wrapping_mul(self.replicas()).wrapping_add(j))
                                .with_arrivals(arrival.clone()),
                        );
                    }
                }
            }
        }
        cells
    }
}

/// One set-up: the workload tables of every scenario, then the offline
/// (α, β) tuning of every DREAM level on every scenario.
#[derive(Debug, Clone, Copy)]
pub struct SetupRep {
    /// Building the five workload tables, ms.
    pub build_ms: f64,
    /// Tuning the fifteen (scenario, level) pairs, ms.
    pub tune_ms: f64,
}

impl SetupRep {
    /// The whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        (self.build_ms + self.tune_ms) / 1.0e3
    }
}

/// Sets the grid up [`SETUP_REPS`] times. The last repetition goes
/// through the process-wide caches `run_spec` reads, so it also fills
/// them; the others call the same uncached builders.
pub fn set_up(grid: Grid) -> Vec<SetupRep> {
    (0..SETUP_REPS)
        .map(|rep| set_up_once(grid, rep + 1 == SETUP_REPS))
        .collect()
}

fn set_up_once(grid: Grid, fill_caches: bool) -> SetupRep {
    let horizon = grid.horizon_ms();
    let t0 = Instant::now();
    for scenario in ScenarioKind::all() {
        let backend = CostConfig::Analytical.backend();
        if fill_caches {
            black_box(shared_workload(scenario, PRESET, CASCADE, horizon, backend));
        } else {
            let built = SimulationBuilder::new(Platform::preset(PRESET), scenario_of(scenario))
                .duration(Millis::new(horizon))
                .cost_backend(backend)
                .build_workload()
                .expect("grid workloads are buildable");
            black_box(built);
        }
    }
    let t1 = Instant::now();
    for scenario in ScenarioKind::all() {
        for variant in VARIANTS {
            let cost = CostConfig::Analytical;
            let params = if fill_caches {
                tuned_params_cached(scenario, PRESET, CASCADE, variant, &cost)
            } else {
                tune_params(
                    scenario,
                    PRESET,
                    CASCADE,
                    variant,
                    ObjectiveKind::UxCost,
                    &cost,
                )
            };
            black_box(params);
        }
    }
    let t2 = Instant::now();
    SetupRep {
        build_ms: (t1 - t0).as_secs_f64() * 1.0e3,
        tune_ms: (t2 - t1).as_secs_f64() * 1.0e3,
    }
}

fn scenario_of(kind: ScenarioKind) -> Scenario {
    Scenario::new(
        kind,
        CascadeProbability::new(CASCADE).expect("the paper's cascade is valid"),
    )
}

/// One pass over every cell.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Wall time of each cell, seconds, in cell order.
    pub cell_s: Vec<f64>,
    /// Each cell's `Metrics::fingerprint`, in cell order.
    pub fingerprints: Vec<u64>,
}

impl Pass {
    /// Virtual seconds simulated per wall second, summed over cells.
    pub fn sim_s_per_s(&self, cells: &[RunSpec]) -> f64 {
        let virtual_s: f64 = cells.iter().map(|c| c.duration_ms as f64 / 1.0e3).sum();
        virtual_s / self.wall_s
    }
}

/// What an untimed pass also yields: per-cell UXCost and engine counts.
#[derive(Debug, Clone)]
pub struct Outcomes {
    /// UXCost per cell.
    pub uxcost: Vec<f64>,
    /// Engine events over the pass.
    pub events: u64,
    /// Scheduler invocations over the pass.
    pub decisions: u64,
}

/// Runs every cell through `run_spec`, timing each.
pub fn untimed_pass(cells: &[RunSpec]) -> (Pass, Outcomes) {
    let mut pass = Pass {
        wall_s: 0.0,
        cell_s: Vec::with_capacity(cells.len()),
        fingerprints: Vec::with_capacity(cells.len()),
    };
    let mut out = Outcomes {
        uxcost: Vec::with_capacity(cells.len()),
        events: 0,
        decisions: 0,
    };
    let start = Instant::now();
    for spec in cells {
        let t0 = Instant::now();
        let result = run_spec(spec);
        pass.cell_s.push(t0.elapsed().as_secs_f64());
        pass.fingerprints.push(result.metrics.fingerprint());
        out.uxcost.push(result.uxcost);
        out.events += result.metrics.events_processed;
        out.decisions += result.metrics.scheduler_invocations;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    (pass, out)
}

/// Builds the scheduler `run_spec` would build for `spec`, as the timing
/// wrapper's inner policy.
///
/// # Panics
///
/// Panics for a scheduler outside the Figure 7 set.
pub fn figure7_scheduler(spec: &RunSpec, stage_timing: bool) -> Box<dyn Timeable> {
    match spec.scheduler {
        SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
        SchedulerKind::Veltair => Box::new(VeltairScheduler::new()),
        SchedulerKind::Planaria => Box::new(PlanariaScheduler::new()),
        SchedulerKind::DreamTuned(variant) => {
            let params = tuned_params_cached(
                spec.scenario,
                spec.preset,
                spec.cascade,
                variant,
                &spec.cost,
            );
            let mut dream = DreamScheduler::new(variant.config().with_params(params));
            if stage_timing {
                dream.enable_stage_timing();
            }
            Box::new(dream)
        }
        other => panic!("the grids run the Figure 7 set only, not {}", other.name()),
    }
}

/// Runs `spec` exactly as `run_spec` does, but under `scheduler`, and
/// returns the metrics with the wall time of the simulation itself.
pub fn run_cell_with(spec: &RunSpec, scheduler: &mut dyn Scheduler) -> (Metrics, f64) {
    let backend = spec.cost.backend();
    let workload = shared_workload(
        spec.scenario,
        spec.preset,
        spec.cascade,
        spec.duration_ms,
        Arc::clone(&backend),
    );
    let cascade = CascadeProbability::new(spec.cascade).expect("grid cascades are valid");
    let builder = SimulationBuilder::new(
        Platform::preset(spec.preset),
        Scenario::new(spec.scenario, cascade),
    )
    .duration(Millis::new(spec.duration_ms))
    .seed(spec.seed)
    .cost_backend(backend)
    .prebuilt_workload(workload);
    let builder = match &spec.arrival {
        ArrivalConfig::Periodic => builder,
        ArrivalConfig::Poisson { intensity } => builder.arrivals(PoissonArrivals::new(*intensity)),
        ArrivalConfig::Mmpp {
            calm,
            burst,
            p_enter,
            p_exit,
        } => builder.arrivals(MmppArrivals::new(*calm, *burst, *p_enter, *p_exit)),
        ArrivalConfig::Trace(trace) => builder.arrivals(TraceArrivals::new(Arc::clone(trace))),
    };
    let t0 = Instant::now();
    let metrics = builder
        .run(scheduler)
        .expect("grid cells are valid simulations")
        .into_metrics();
    (metrics, t0.elapsed().as_nanos() as f64)
}

/// A traced pass: every cell (or only the DREAM cells, for the stage
/// split) under the timing wrapper.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall time of the pass, seconds (timed passes only).
    pub wall_s: f64,
    /// Fingerprints, in the order the cells ran.
    pub fingerprints: Vec<u64>,
    /// Wrapper stats per scheduler name.
    pub per_scheduler: BTreeMap<String, SchedStats>,
    /// Wall time inside the simulations, ns.
    pub sim_ns: f64,
    /// Engine events over the pass.
    pub events: u64,
}

impl Traced {
    /// Wrapper stats over every scheduler.
    pub fn total(&self) -> SchedStats {
        let mut all = SchedStats::default();
        for s in self.per_scheduler.values() {
            all.merge(s);
        }
        all
    }

    /// DREAM's own stage split, summed over the DREAM levels.
    pub fn stages(&self) -> StageTimings {
        self.total().stages.unwrap_or_default()
    }
}

/// Runs `cells` under the timing wrapper.
pub fn traced_pass(cells: &[RunSpec], stage_timing: bool) -> Traced {
    let mut traced = Traced::default();
    let start = Instant::now();
    for spec in cells {
        let mut timed = Timed::new(figure7_scheduler(spec, stage_timing));
        let (metrics, ns) = run_cell_with(spec, &mut timed);
        traced.fingerprints.push(metrics.fingerprint());
        traced.sim_ns += ns;
        traced.events += metrics.events_processed;
        traced
            .per_scheduler
            .entry(timed.name().to_string())
            .or_default()
            .merge(&timed.stats());
    }
    traced.wall_s = start.elapsed().as_secs_f64();
    traced
}

/// Everything a grid run measured.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// The cells, in run order.
    pub cells: Vec<RunSpec>,
    /// Each set-up repetition.
    pub setup: Vec<SetupRep>,
    /// Untimed passes.
    pub passes: Vec<Pass>,
    /// The first untimed pass's outcomes (they repeat exactly).
    pub outcomes: Outcomes,
    /// Traced passes over every cell.
    pub traced: Vec<Traced>,
    /// The DREAM-only pass with DREAM's stage timing on (traced runs).
    pub stage_pass: Option<Traced>,
    /// The probe's own cost.
    pub span: SpanCost,
    /// Cell runs made.
    pub attempted: u64,
    /// Cell runs whose fingerprint differed from the first pass.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl GridRun {
    fn check(&mut self, what: &str, cells: &[usize], fingerprints: &[u64], reference: &[u64]) {
        for (&i, &fp) in cells.iter().zip(fingerprints) {
            self.attempted += 1;
            if fp != reference[i] {
                self.failed += 1;
                let c = &self.cells[i];
                self.errors.push(format!(
                    "{what}: {} on {} ({}) fingerprint {fp:016x} != {:016x}",
                    c.scheduler.name(),
                    c.scenario.name(),
                    c.arrival.label(),
                    reference[i]
                ));
            }
        }
    }
}

/// Runs a grid workload: set-up, then untimed passes until `seconds`
/// have passed (at least [`MIN_PASSES`]). Untraced runs end with one
/// traced pass that only checks fingerprints; traced runs interleave a
/// traced pass after every untimed one and add the DREAM stage pass.
pub fn run(grid: Grid, seed: u64, seconds: u64, trace: bool) -> GridRun {
    let cells = grid.cells(seed);
    let setup = set_up(grid);
    let span = SpanCost::measure();
    let (first, outcomes) = untimed_pass(&cells);
    let reference = first.fingerprints.clone();
    let mut run = GridRun {
        cells,
        setup,
        passes: Vec::new(),
        outcomes,
        traced: Vec::new(),
        stage_pass: None,
        span,
        attempted: reference.len() as u64,
        failed: 0,
        errors: Vec::new(),
    };
    let all: Vec<usize> = (0..run.cells.len()).collect();
    run.passes.push(first);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        if trace {
            let traced = traced_pass(&run.cells, false);
            run.check("traced pass", &all, &traced.fingerprints, &reference);
            run.traced.push(traced);
        }
        if run.passes.len() >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
        let (pass, _) = untimed_pass(&run.cells);
        run.check("repeat pass", &all, &pass.fingerprints, &reference);
        run.passes.push(pass);
    }
    if trace {
        let dream: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| matches!(run.cells[i].scheduler, SchedulerKind::DreamTuned(_)))
            .collect();
        let dream_cells: Vec<RunSpec> = dream.iter().map(|&i| run.cells[i].clone()).collect();
        let staged = traced_pass(&dream_cells, true);
        run.check("stage-timed pass", &dream, &staged.fingerprints, &reference);
        run.stage_pass = Some(staged);
    } else {
        let traced = traced_pass(&run.cells, false);
        run.check("traced pass", &all, &traced.fingerprints, &reference);
    }
    run
}
