//! Engine-stepping micro-benchmark: raw events/sec through the staged
//! executor, and the wide multi-session variant.
//!
//! The hotpath bench measures the *decision* path (DreamScheduler's
//! per-invocation cost); this one isolates the *executor* — the
//! time-bucketed event queue, instant draining, and the pooled task/gang
//! scratch — by driving the same AR_Call configuration under a trivial
//! first-ready→first-idle scheduler, so virtually all the per-event time
//! is engine stepping.
//!
//! Writes `BENCH_events.json` at the workspace root (schema in
//! `crates/bench/README.md`); `scripts/check_events.sh` gates CI on the
//! single-session `events_per_sec` field. The `multi` block steps many
//! live sessions round-robin in index order, all started from one
//! prebuilt workload, and reports aggregate throughput plus
//! sessions/core — the shard-sizing figure.

// Benchmarks measure wall time by definition; exempt from the
// workspace determinism lint on wall-clock reads.
#![allow(clippy::disallowed_methods)]
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dream_bench::shared_workload;
use dream_cost::{CostModel, Platform, PlatformPreset};
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{
    Assignment, Decision, LiveSession, Millis, Scheduler, SessionInput, SimTime, SimulationBuilder,
    SystemView,
};

const HORIZON_MS: u64 = 20_000;
const REPS: u32 = 5;
/// Batch runs folded into one rep so the timed region is long enough to
/// measure (one AR_Call horizon alone is only tens of thousands of
/// events) while per-run engine setup stays amortized.
const RUNS_PER_REP: u32 = 20;
const MULTI_SESSIONS: usize = 64;
const MULTI_HORIZON_MS: u64 = 200;

/// First ready task onto the first idle accelerator — the cheapest
/// deterministic scheduler, so the measurement is engine-dominated.
#[derive(Debug, Default)]
struct FirstFit;

impl Scheduler for FirstFit {
    fn name(&self) -> &str {
        "first-fit"
    }

    fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
        let mut d = Decision::none();
        let mut idle = view.idle_ids().iter();
        for &task in view.ready_ids() {
            let Some(&acc) = idle.next() else { break };
            d.assignments.push(Assignment::single(task, acc));
        }
        d
    }
}

fn single_session_rep() -> (u64, f64) {
    let tables = shared_workload(
        ScenarioKind::ArCall,
        PlatformPreset::Hetero4kWs1Os2,
        CascadeProbability::default_paper().value(),
        HORIZON_MS,
        Arc::new(CostModel::paper_default()),
    );
    let mut events = 0u64;
    let start = Instant::now();
    for run in 0..RUNS_PER_REP {
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
        let mut sched = FirstFit;
        let metrics = SimulationBuilder::new(platform, scenario)
            .duration(Millis::new(HORIZON_MS))
            .seed(u64::from(run))
            .prebuilt_workload(Arc::clone(&tables))
            .run(&mut sched)
            .expect("events bench sim is valid")
            .into_metrics();
        events += metrics.events_processed;
    }
    (events, start.elapsed().as_secs_f64())
}

/// Steps `MULTI_SESSIONS` live sessions round-robin over one workload, each
/// fed its root pipelines at their native periods, in 10 ms frontier
/// slices. Returns (total events, wall seconds, virtual seconds
/// simulated across all sessions).
fn multi_session_run() -> (u64, f64, f64) {
    let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let horizon = SimTime::from(Millis::new(MULTI_HORIZON_MS));

    let start = Instant::now();
    let builder = || {
        SimulationBuilder::new(platform.clone(), scenario.clone())
            .duration(SimTime::from(Millis::new(MULTI_HORIZON_MS + 100)))
    };
    let ws = Arc::new(
        builder()
            .build_workload()
            .expect("multi-session bench config is valid"),
    );
    let mut sessions: Vec<LiveSession> = (0..MULTI_SESSIONS)
        .map(|i| {
            builder()
                .seed(i as u64)
                .prebuilt_workload(Arc::clone(&ws))
                .start_live(Box::new(FirstFit))
                .expect("multi-session bench config is valid")
        })
        .collect();

    // Each session's root nodes at their native periods, staggered a
    // little per session so the shard's instants don't all coincide.
    let roots: Vec<(dream_sim::ModelKey, u64)> = ws
        .nodes()
        .filter(|n| n.key().phase == 0 && n.parent().is_none())
        .map(|n| (n.key(), n.period().as_ns()))
        .collect();
    let slice = SimTime::from(Millis::new(10));
    let mut frontier = SimTime::ZERO;
    let mut next: Vec<Vec<u64>> = (0..MULTI_SESSIONS)
        .map(|s| vec![s as u64 * 1_000; roots.len()])
        .collect();
    while frontier < horizon {
        let end = (frontier + slice).min(horizon);
        for (session, stamps) in sessions.iter_mut().zip(&mut next) {
            for (r, stamp) in stamps.iter_mut().enumerate() {
                let (key, period) = roots[r];
                while *stamp < end.as_ns() {
                    let admit = SessionInput::Admit {
                        pipeline: key.pipeline,
                        node: key.node,
                        at: SimTime::from_ns(*stamp),
                    };
                    session.apply(admit).expect("bench admission is valid");
                    *stamp += period;
                }
            }
        }
        for session in &mut sessions {
            session.step_until(end);
        }
        frontier = end;
    }
    let outcomes: Vec<_> = sessions
        .into_iter()
        .map(|s| s.finish().expect("bench sessions finish"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let events: u64 = outcomes
        .iter()
        .map(|(o, _)| o.metrics().events_processed)
        .sum();
    let virtual_s: f64 = outcomes
        .iter()
        .map(|(o, _)| o.final_time().as_ns_f64() / 1e9)
        .sum();
    (events, wall_s, virtual_s)
}

fn main() {
    // Warm up the allocator and the shared cost tables before timing.
    let _ = single_session_rep();

    let mut best_events = 0u64;
    let mut best_wall = f64::INFINITY;
    let mut best_eps = 0.0f64;
    for rep in 0..REPS {
        let (events, wall_s) = single_session_rep();
        let eps = events as f64 / wall_s;
        println!(
            "rep {rep}: {events} events over {RUNS_PER_REP} runs in {:.1} ms  →  {:.0} events/s ({:.1} ns/event)",
            wall_s * 1e3,
            eps,
            1e9 / eps,
        );
        if eps > best_eps {
            best_eps = eps;
            best_events = events;
            best_wall = wall_s;
        }
    }
    let ns_per_event = 1e9 / best_eps;
    println!(
        "events: engine stepping on AR_Call — best {best_eps:.0} events/s ({ns_per_event:.1} ns/event)",
    );

    let (multi_events, multi_wall, virtual_s) = multi_session_run();
    let multi_eps = multi_events as f64 / multi_wall;
    // Virtual seconds simulated per wall-clock second on this one core:
    // how many always-on sessions a single core sustains in real time.
    let sessions_per_core = virtual_s / multi_wall;
    println!(
        "multi: {MULTI_SESSIONS} sessions × {MULTI_HORIZON_MS} ms on one shard — \
         {multi_eps:.0} events/s aggregate, {sessions_per_core:.0} sessions/core",
    );

    let json = format!(
        "{{\n  \"bench\": \"events\",\n  \"scenario\": \"AR_Call\",\n  \"scheduler\": \"first-fit\",\n  \"horizon_ms\": {HORIZON_MS},\n  \"runs\": {RUNS_PER_REP},\n  \"events\": {best_events},\n  \"wall_ms\": {:.1},\n  \"events_per_sec\": {best_eps:.0},\n  \"ns_per_event\": {ns_per_event:.1},\n  \"multi\": {{\n    \"sessions\": {MULTI_SESSIONS},\n    \"session_horizon_ms\": {MULTI_HORIZON_MS},\n    \"events\": {multi_events},\n    \"aggregate_events_per_sec\": {multi_eps:.0},\n    \"sessions_per_core\": {sessions_per_core:.0}\n  }}\n}}\n",
        best_wall * 1e3,
    );
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_events.json"]
        .iter()
        .collect();
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
