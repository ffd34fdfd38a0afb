//! **Served traffic** — beyond the paper's fixed-FPS pipelines: request
//! latency (p50/p95/p99 sojourn) and deadline violations as open-loop
//! arrival intensity sweeps across DREAM and the five baselines, plus a
//! replay of a recorded bursty request trace.
//!
//! Violation rate alone is meaningless for open-loop traffic (an
//! overloaded scheduler can violate every deadline while queues grow
//! without bound), so this bench reports the sojourn-time distribution —
//! what a user of a served system actually experiences.
//!
//! The p50/p95/p99 columns pool every seed's requests: the seeds'
//! sojourn histograms are merged and the quantile read from the merge,
//! as a sub-bucket upper bound at most 12.5% above the exact value. They
//! are not means of per-seed percentiles.

use std::sync::Arc;

use dream_bench::{
    write_csv, ArrivalConfig, DreamVariant, ExperimentGrid, RunSpec, SchedulerKind, Table,
};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{ArrivalTrace, Millis, MmppArrivals, SimTime, SimulationBuilder};

const SEEDS: u64 = 3;
const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;
const SCENARIO: ScenarioKind = ScenarioKind::ArCall;

/// DREAM plus all five baselines.
fn schedulers() -> [SchedulerKind; 6] {
    [
        SchedulerKind::Fcfs,
        SchedulerKind::Static,
        SchedulerKind::Edf,
        SchedulerKind::Veltair,
        SchedulerKind::Planaria,
        SchedulerKind::DreamTuned(DreamVariant::Full),
    ]
}

/// Records a bursty MMPP request log against the bench workload, once,
/// offline — the "recorded trace" the trace-driven cells replay.
fn recorded_trace() -> Arc<ArrivalTrace> {
    let horizon = SimTime::from(Millis::new(dream_bench::DEFAULT_DURATION_MS));
    let ws = SimulationBuilder::new(
        Platform::preset(PRESET),
        Scenario::new(SCENARIO, CascadeProbability::default_paper()),
    )
    .duration(horizon)
    .build_workload()
    .expect("bench workload is valid");
    let mut source = MmppArrivals::new(0.7, 2.5, 0.2, 0.25);
    Arc::new(ArrivalTrace::record(
        "mmpp-recorded",
        &ws,
        horizon,
        dream_bench::DEFAULT_SEED,
        &mut source,
    ))
}

fn main() {
    let trace = recorded_trace();
    let mut arrivals: Vec<ArrivalConfig> = vec![ArrivalConfig::Periodic];
    for intensity in [0.5, 1.0, 1.5] {
        arrivals.push(ArrivalConfig::Poisson { intensity });
    }
    arrivals.push(ArrivalConfig::Trace(trace));

    let mut grid = ExperimentGrid::new();
    for arrival in &arrivals {
        for kind in schedulers() {
            grid.add_seed_sweep(
                RunSpec::new(kind, SCENARIO, PRESET).with_arrivals(arrival.clone()),
                SEEDS,
            );
        }
    }
    let results = grid.run();

    let mut table = Table::new(
        "Served traffic: request latency under open-loop arrivals (AR_Call, 4K 1WS+2OS)",
        &[
            "arrivals",
            "scheduler",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "dlv_rate",
            "drops",
            "uxcost",
        ],
    );
    let fmt_ms = |v: Option<f64>| v.map_or_else(|| "-".into(), |ms| format!("{ms:.3}"));
    for r in results.averaged() {
        let spec = &r.runs[0].spec;
        table.row([
            spec.arrival.label(),
            r.scheduler_name.clone(),
            fmt_ms(r.sojourn_hist.quantile_ms(0.50)),
            fmt_ms(r.sojourn_hist.quantile_ms(0.95)),
            fmt_ms(r.sojourn_hist.quantile_ms(0.99)),
            format!("{:.4}", r.mean_violation_rate),
            format!("{:.1}", r.drops),
            format!("{:.4}", r.uxcost),
        ]);
    }
    table.print();
    println!("open-loop traffic: tail latency separates schedulers that violation rate ties");
    let path = write_csv("served_traffic", &table);
    println!("csv: {}", path.display());
}
