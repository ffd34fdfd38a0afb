//! The timing wrapper is invisible: wrapped and unwrapped runs of every
//! Figure 7 scheduler on both grids produce bit-identical metrics, and
//! the wrapper delegates every `Scheduler` method.
//!
//! Run with `cargo test --release` from this directory; the grids tune
//! DREAM first, which takes a few seconds.

use std::sync::Arc;

use dream_bench::{run_spec, RunSpec, SchedulerKind};
use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::Platform;
use dream_models::{CascadeProbability, Scenario, ScenarioKind};
use dream_sim::{Millis, Scheduler, SimulationBuilder, TraceConfig};
use dreambench::grid::{figure7_scheduler, run_cell_with, Grid, PRESET};
use dreambench::report::SCHEDULERS;
use dreambench::timed::{SchedStats, SpanCost, Timed};

/// The grid's cells, cut short so the test stays quick: the paper grid at
/// a 2 s horizon, the overload grid with two realizations per cell.
fn short_cells(grid: Grid) -> Vec<RunSpec> {
    let cells = grid.cells(7);
    match grid {
        Grid::Paper => cells
            .into_iter()
            .map(|c| c.with_duration_ms(2_000))
            .collect(),
        Grid::Overload => cells
            .into_iter()
            .filter(|c| c.seed % grid.replicas() < 2)
            .collect(),
    }
}

#[test]
fn wrapped_and_unwrapped_fingerprints_match_for_all_six_schedulers_on_both_grids() {
    for grid in [Grid::Paper, Grid::Overload] {
        let cells = short_cells(grid);
        let mut seen = Vec::new();
        for spec in &cells {
            let unwrapped = run_spec(spec).metrics.fingerprint();
            let mut timed = Timed::new(figure7_scheduler(spec, false));
            let (metrics, _) = run_cell_with(spec, &mut timed);
            let stats = timed.stats();
            assert_eq!(
                metrics.fingerprint(),
                unwrapped,
                "{grid:?}: {} on {} ({}) changed under the wrapper",
                spec.scheduler.name(),
                spec.scenario.name(),
                spec.arrival.label()
            );
            assert_eq!(stats.decisions, metrics.scheduler_invocations);
            assert!(stats.task_events > 0 && stats.decision_ns > 0);

            // DREAM's own stage timing is invisible too.
            if let SchedulerKind::DreamTuned(_) = spec.scheduler {
                let mut staged = Timed::new(figure7_scheduler(spec, true));
                let (metrics, _) = run_cell_with(spec, &mut staged);
                assert_eq!(metrics.fingerprint(), unwrapped);
                let stages = staged.stats().stages.expect("stage timing was on");
                assert_eq!(stages.invocations, metrics.scheduler_invocations);
            }
            if !seen.contains(&timed.name().to_string()) {
                seen.push(timed.name().to_string());
            }
        }
        seen.sort();
        let mut expected: Vec<String> = SCHEDULERS.iter().map(|s| s.to_string()).collect();
        expected.sort();
        assert_eq!(seen, expected, "{grid:?} runs exactly the Figure 7 set");
    }
}

#[test]
fn wrapper_delegates_capabilities_phase_starts_and_decision_records() {
    let dream = DreamScheduler::new(DreamConfig::full());
    let caps = dream.capabilities();
    let mut timed = Timed::new(Box::new(DreamScheduler::new(DreamConfig::full())));
    assert_eq!(timed.capabilities(), caps);
    assert_eq!(timed.name(), dream.name());

    // A two-phase, traced run: DREAM reacts to phase starts, and the
    // flight recorder drains decision records through the wrapper.
    let cascade = CascadeProbability::new(0.5).unwrap();
    let run = |scheduler: &mut dyn Scheduler| {
        SimulationBuilder::new(
            Platform::preset(PRESET),
            Scenario::new(ScenarioKind::ArCall, cascade),
        )
        .add_phase(
            Millis::new(300),
            Scenario::new(ScenarioKind::VrGaming, cascade),
        )
        .duration(Millis::new(600))
        .seed(3)
        .trace(TraceConfig::default())
        .run(scheduler)
        .expect("valid simulation")
    };
    let mut plain = DreamScheduler::new(DreamConfig::full());
    let expected = run(&mut plain);
    let got = run(&mut timed);
    assert_eq!(
        got.metrics().fingerprint(),
        expected.metrics().fingerprint()
    );
    let csv = |o: &dream_sim::SimOutcome| o.trace().expect("trace attached").to_csv();
    assert!(
        csv(&expected).contains("decision"),
        "the recorder asked for decisions"
    );
    assert_eq!(csv(&got), csv(&expected), "decision records pass through");
}

#[test]
fn publishing_wrapper_hands_its_stats_over_on_drop() {
    let sink = Arc::new(std::sync::Mutex::new(SchedStats::default()));
    let spec =
        RunSpec::new(SchedulerKind::Fcfs, ScenarioKind::ArCall, PRESET).with_duration_ms(300);
    let mut timed = Timed::publishing(figure7_scheduler(&spec, false), Arc::clone(&sink));
    let (metrics, _) = run_cell_with(&spec, &mut timed);
    assert_eq!(sink.lock().unwrap().decisions, 0, "nothing before the drop");
    drop(timed);
    assert_eq!(
        sink.lock().unwrap().decisions,
        metrics.scheduler_invocations
    );
}

#[test]
fn empty_span_cost_is_measured_and_reported() {
    let span = SpanCost::measure();
    println!(
        "empty span: {:.1} ns measured inside, {:.1} ns of wall time per span",
        span.measured_ns, span.wall_ns
    );
    assert!(span.wall_ns > 0.0 && span.wall_ns < 10_000.0);
    assert!(span.measured_ns >= 0.0 && span.measured_ns <= span.wall_ns);
    // Corrections never go negative.
    let stats = SchedStats {
        decisions: 10,
        decision_ns: 1,
        ..SchedStats::default()
    };
    assert_eq!(span.per_decision_ns(&stats), 0.0);
    assert_eq!(span.engine_self_ns(0.0, &stats), 0.0);
}
