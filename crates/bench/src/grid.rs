//! The parallel experiment-grid runner.
//!
//! Every figure and table of the paper is a cartesian grid of
//! (scheduler × scenario × platform × cascade × seed) cells, and each
//! cell is an independent deterministic simulation. [`ExperimentGrid`]
//! collects the cells up front and fans them out across a scoped thread
//! pool; results come back keyed by their position in the grid, so the
//! aggregate is **bit-identical for any thread count** — including one.
//!
//! Offline tuning for `DreamTuned` cells is hoisted out of the fan-out:
//! distinct tuning keys are resolved first (themselves in parallel, each
//! tuning run deterministic), so worker threads never race to tune the
//! same cell twice.

use std::collections::{BTreeMap, BTreeSet};

use dream_models::ScenarioKind;

use crate::runner::{average_runs, AveragedResult, RunResult, RunSpec, SchedulerKind};
use crate::{parallel_map_threads, run_spec};

/// A grid of fully specified runs executed across a thread pool.
#[derive(Debug, Clone, Default)]
pub struct ExperimentGrid {
    specs: Vec<RunSpec>,
    threads: usize,
}

impl ExperimentGrid {
    /// An empty grid using one worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker count (0 = one per available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Adds one cell.
    pub fn push(&mut self, spec: RunSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Adds many cells.
    pub fn extend(&mut self, specs: impl IntoIterator<Item = RunSpec>) -> &mut Self {
        self.specs.extend(specs);
        self
    }

    /// Adds `spec` under `n_seeds` consecutive seeds
    /// (`spec.seed`, `spec.seed + 1`, …) — the paper's
    /// workload-realization averaging.
    pub fn add_seed_sweep(&mut self, spec: RunSpec, n_seeds: u64) -> &mut Self {
        for i in 0..n_seeds {
            self.specs.push(spec.clone().with_seed(spec.seed + i));
        }
        self
    }

    /// Adds the full cartesian product
    /// `presets × scenarios × schedulers × n_seeds` with the paper's
    /// default cascade/duration — the shape of the Figure 7/8 grids.
    pub fn add_product(
        &mut self,
        presets: &[dream_cost::PlatformPreset],
        scenarios: &[ScenarioKind],
        schedulers: &[SchedulerKind],
        n_seeds: u64,
    ) -> &mut Self {
        for &preset in presets {
            for &scenario in scenarios {
                for scheduler in schedulers {
                    self.add_seed_sweep(RunSpec::new(*scheduler, scenario, preset), n_seeds);
                }
            }
        }
        self
    }

    /// The cells added so far, in run order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every cell and returns results in grid order.
    ///
    /// Aggregated output is a pure function of the specs and their seeds:
    /// the thread count only changes wall-clock time, never a number.
    pub fn run(&self) -> GridResults {
        // Hoist offline tuning: resolve each distinct tuning key once
        // before the measurement fan-out, so workers never race to tune
        // the same cell. Keys run serially here — each `tune_params` call
        // already fans its (candidate × seed) simulations out across the
        // full thread pool, and nesting a second pool on top would
        // oversubscribe the machine by up to cores².
        let mut seen: BTreeSet<(
            ScenarioKind,
            dream_cost::PlatformPreset,
            u64,
            crate::DreamVariant,
            u64,
        )> = BTreeSet::new();
        for spec in &self.specs {
            if let SchedulerKind::DreamTuned(variant) = &spec.scheduler {
                let key = (
                    spec.scenario,
                    spec.preset,
                    crate::tuning::cascade_key(spec.cascade),
                    *variant,
                    spec.cost.digest(),
                );
                if seen.insert(key) {
                    crate::tuned_params_cached(
                        spec.scenario,
                        spec.preset,
                        spec.cascade,
                        *variant,
                        &spec.cost,
                    );
                }
            }
        }

        let runs = parallel_map_threads(self.specs.clone(), self.threads, run_spec);
        GridResults { runs }
    }
}

/// The results of an [`ExperimentGrid`] run, in grid order.
#[derive(Debug, Clone)]
pub struct GridResults {
    runs: Vec<RunResult>,
}

impl GridResults {
    /// Per-cell results, in the order the specs were added.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }

    /// Seed-averaged results: cells identical up to their seed are grouped
    /// (in first-appearance order) and averaged — one
    /// [`AveragedResult`] per [`add_seed_sweep`](ExperimentGrid::add_seed_sweep).
    pub fn averaged(&self) -> Vec<AveragedResult> {
        let mut order: Vec<CellKey> = Vec::new();
        let mut groups: BTreeMap<CellKey, Vec<RunResult>> = BTreeMap::new();
        for run in &self.runs {
            let key = CellKey::of(&run.spec);
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(run.clone());
        }
        order
            .into_iter()
            .map(|key| average_runs(groups.remove(&key).expect("grouped above")))
            .collect()
    }

    /// The averaged result of the cell group containing `spec`
    /// (matching everything but the seed), if it ran.
    pub fn averaged_for(&self, spec: &RunSpec) -> Option<AveragedResult> {
        let key = CellKey::of(spec);
        let runs: Vec<RunResult> = self
            .runs
            .iter()
            .filter(|r| CellKey::of(&r.spec) == key)
            .cloned()
            .collect();
        if runs.is_empty() {
            None
        } else {
            Some(average_runs(runs))
        }
    }

    /// A deterministic digest over every cell's full metrics, in grid
    /// order — bit-identical across thread counts by construction, and
    /// the witness the determinism tests assert on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = dream_sim::Fnv64::new();
        for run in &self.runs {
            h.mix(run.metrics.fingerprint());
        }
        h.finish()
    }
}

/// Everything that identifies a cell group except its seed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    scheduler: String,
    /// `DreamFixed` α/β by bit pattern, so two fixed-parameter cells that
    /// happen to format identically never merge into one group.
    params_bits: (u64, u64),
    scenario: ScenarioKind,
    preset_name: &'static str,
    cascade_micros: u64,
    duration_ms: u64,
    /// Exact arrival-stream key (parameters by bit pattern, traces by
    /// content digest).
    arrival: String,
    /// The cost backend's calibration digest — mixes the backend kind,
    /// so analytical cells and table-import cells never merge even when
    /// the table is a bit-exact export.
    cost_digest: u64,
}

impl CellKey {
    fn of(spec: &RunSpec) -> Self {
        let params_bits = match &spec.scheduler {
            SchedulerKind::DreamFixed(_, p) => (p.alpha().to_bits(), p.beta().to_bits()),
            _ => (0, 0),
        };
        CellKey {
            scheduler: spec.scheduler.name(),
            params_bits,
            scenario: spec.scenario,
            preset_name: spec.preset.name(),
            cascade_micros: crate::tuning::cascade_key(spec.cascade),
            duration_ms: spec.duration_ms,
            arrival: spec.arrival.group_key(),
            cost_digest: spec.cost.digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_cost::PlatformPreset;

    fn small_grid() -> ExperimentGrid {
        let mut grid = ExperimentGrid::new();
        grid.add_product(
            &[PlatformPreset::Homo4kWs2],
            &[ScenarioKind::ArCall],
            &[SchedulerKind::Fcfs, SchedulerKind::Edf],
            2,
        );
        let mut short = ExperimentGrid::new();
        for spec in grid.specs() {
            short.push(spec.clone().with_duration_ms(200));
        }
        short
    }

    #[test]
    fn grid_results_keep_spec_order() {
        let grid = small_grid();
        assert_eq!(grid.len(), 4);
        let results = grid.run();
        for (spec, run) in grid.specs().iter().zip(results.runs()) {
            assert_eq!(spec, &run.spec);
        }
        // Two cell groups of two seeds each.
        let avg = results.averaged();
        assert_eq!(avg.len(), 2);
        assert_eq!(avg[0].scheduler_name, "FCFS");
        assert_eq!(avg[0].runs.len(), 2);
        assert!(results.averaged_for(&grid.specs()[0]).is_some());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let grid = small_grid();
        let serial = grid.clone().with_threads(1).run();
        let wide = grid.with_threads(4).run();
        assert_eq!(serial.fingerprint(), wide.fingerprint());
        for (a, b) in serial.runs().iter().zip(wide.runs()) {
            assert_eq!(a.metrics.fingerprint(), b.metrics.fingerprint());
            assert_eq!(a.uxcost, b.uxcost);
        }
    }
}
