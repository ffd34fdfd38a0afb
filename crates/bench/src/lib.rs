//! Shared experiment harness for regenerating every table and figure of the
//! DREAM paper. Each `benches/figNN_*.rs` target builds [`RunSpec`]s into an
//! [`ExperimentGrid`], fans the whole (scheduler × scenario × platform ×
//! seed) grid out across a thread pool, and prints the same rows/series the
//! paper reports. Grid aggregation is deterministic and seed-keyed: the
//! same grid yields bit-identical metrics for 1 and N worker threads.
//! Beyond the paper's fixed-FPS pipelines, [`ArrivalConfig`] points a cell
//! at Poisson/MMPP/trace-driven traffic (the `served_traffic` bench). Raw
//! CSVs land in `artifacts/experiments/` at the workspace root (override
//! with `DREAM_ARTIFACTS_DIR`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod grid;
mod report;
mod runner;
mod tuning;
mod workload_cache;

pub use cells::GridCellRunner;
pub use grid::{ExperimentGrid, GridResults};
pub use report::{artifacts_dir, csv_path, geomean, write_csv, Table};
pub use runner::{
    parallel_map, parallel_map_threads, run_spec, ArrivalConfig, AveragedResult, CellOverBudget,
    CostConfig, DreamVariant, RunResult, RunSpec, SchedulerKind, MAX_CELL_WORK_MS,
};
pub use tuning::{tune_params, tuned_params_cached};
pub use workload_cache::shared_workload;

/// The paper's default evaluation window (§3.6 mentions 2 s windows).
pub const DEFAULT_DURATION_MS: u64 = 2_000;

/// The default workload-realization seed used across experiments.
pub const DEFAULT_SEED: u64 = 2024;
