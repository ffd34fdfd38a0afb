//! The flight recorder's two invariants, asserted end-to-end:
//!
//! 1. **Observer-effect zero** — enabling the tracer changes nothing:
//!    traced and untraced runs of the same scenario/seed produce
//!    bit-identical `Metrics` fingerprints, across scenarios, seeds,
//!    and fault storms.
//! 2. **Trace identity** — a live serving session's trace is
//!    byte-identical to the trace of its batch replay, in both export
//!    formats (Chrome/Perfetto JSON and CSV). The recorder stamps sim
//!    time only, so wall-clock jitter in the live path cannot leak in.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (trace determinism is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{AcceleratorId, Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{AdmissionPolicy, ManualClock, ServeConfig, ServeEngine};
use dream_sim::{
    FaultEvent, FaultKind, FaultPlan, Millis, Scheduler, SimTime, SimulationBuilder, TraceConfig,
    TraceEventKind,
};

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::new(kind, CascadeProbability::default_paper())
}

fn scheduler() -> Box<dyn Scheduler> {
    Box::new(DreamScheduler::new(DreamConfig::full()))
}

fn storm() -> FaultPlan {
    FaultPlan::from_events(vec![
        FaultEvent {
            at: SimTime::from_ns(20_000_000),
            acc: AcceleratorId(0),
            kind: FaultKind::Stall {
                duration: SimTime::from_ns(15_000_000),
            },
        },
        FaultEvent {
            at: SimTime::from_ns(40_000_000),
            acc: AcceleratorId(1),
            kind: FaultKind::Slowdown {
                factor: 2.5,
                duration: SimTime::from_ns(30_000_000),
            },
        },
    ])
}

fn batch(kind: ScenarioKind, seed: u64, traced: bool) -> dream_sim::SimOutcome {
    let mut builder = SimulationBuilder::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(kind),
    )
    .duration(Millis::new(120))
    .seed(seed)
    .faults(storm());
    if traced {
        builder = builder.trace(TraceConfig::default());
    }
    let mut sched = scheduler();
    builder.run(sched.as_mut()).unwrap()
}

/// Observer-effect zero: the tracer-on fingerprint equals the
/// tracer-off fingerprint for every scenario × seed cell, under a
/// fault storm (the densest emission path).
#[test]
fn tracer_is_observer_effect_zero() {
    for kind in [
        ScenarioKind::ArCall,
        ScenarioKind::VrGaming,
        ScenarioKind::ArSocial,
    ] {
        for seed in [7u64, 2024, 99] {
            let off = batch(kind, seed, false);
            let on = batch(kind, seed, true);
            assert_eq!(
                off.metrics().fingerprint(),
                on.metrics().fingerprint(),
                "tracer must not perturb {kind:?} seed {seed}"
            );
            assert_eq!(off.final_time(), on.final_time());
            assert!(off.trace().is_none(), "tracer-off runs carry no trace");
            let trace = on.trace().expect("tracer-on runs carry a trace");
            assert!(!trace.is_empty(), "the traced run saw work");
            // The storm's windows are on the record.
            let has_fault = trace
                .events()
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::FaultStart { .. }));
            assert!(has_fault, "fault windows must be traced");
        }
    }
}

/// Trace identity: the batch replay of a traced batch run (same
/// arrivals, same faults) reproduces the trace byte-for-byte in both
/// export formats. This is the pure-batch half of the invariant; the
/// live half is below.
#[test]
fn batch_reruns_export_identical_traces() {
    let a = batch(ScenarioKind::ArCall, 42, true);
    let b = batch(ScenarioKind::ArCall, 42, true);
    let (ta, tb) = (a.trace().unwrap(), b.trace().unwrap());
    assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
    assert_eq!(ta.to_csv(), tb.to_csv());
}

/// The tentpole invariant: a live session served tick-by-tick exports
/// the same trace bytes as its batch replay — admissions, a hot-swap,
/// fault windows and all.
#[test]
fn live_trace_is_byte_identical_to_replay_trace() {
    let clock = ManualClock::new();
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    );
    config.seed = 11;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    config.policy = AdmissionPolicy::Block;
    config.trace = Some(TraceConfig::default());
    let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());
    let client = handle.client("channel:flight");

    let wait_for = |snapshots: &mut dream_serve::WatchReceiver<dream_serve::MetricsSnapshot>,
                    what: &str,
                    cond: &dyn Fn(&dream_serve::MetricsSnapshot) -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(snap) = snapshots.latest() {
                if cond(&snap) {
                    return;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for: {what}"
            );
            snapshots.wait_for_update(Duration::from_millis(200));
        }
    };

    // Phase 0 traffic with a mid-stream fault window.
    for i in 0..30u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        if i == 10 {
            handle.fault(
                AcceleratorId(0),
                FaultKind::Stall {
                    duration: SimTime::from_ns(8_000_000),
                },
                None,
            );
        }
        clock.advance_by(SimTime::from_ns(2_500_000 + i * 9_000));
    }
    wait_for(&mut snapshots, "phase-0 admitted", &|s| s.admitted >= 30);

    // Hot-swap, then more traffic.
    handle.swap(scenario(ScenarioKind::VrGaming));
    wait_for(&mut snapshots, "swap ordered", &|s| s.phase == 1);
    for i in 0..30u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(3_000_000 + i * 5_000));
    }
    wait_for(&mut snapshots, "phase-1 admitted", &|s| s.admitted >= 60);

    handle.drain();
    let report = server.join().unwrap().unwrap();
    let live_trace = report.outcome.trace().expect("live session traced");
    assert!(!live_trace.is_empty());
    assert_eq!(live_trace.dropped(), 0, "ring must not wrap in this test");

    // Replay the recorded session with tracing on: every exported byte
    // must match the live trace.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let replay = report
        .record
        .replay_traced(TraceConfig::default(), &mut fresh)
        .unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        replay.metrics().fingerprint(),
        "metrics identity is the precondition"
    );
    let replay_trace = replay.trace().expect("replay traced");
    assert_eq!(
        live_trace.events(),
        replay_trace.events(),
        "event streams must be identical"
    );
    assert_eq!(
        live_trace.to_chrome_json(),
        replay_trace.to_chrome_json(),
        "Chrome JSON export must be byte-identical"
    );
    assert_eq!(
        live_trace.to_csv(),
        replay_trace.to_csv(),
        "CSV export must be byte-identical"
    );

    // Coverage: the trace saw every structural event class this session
    // exercised — releases, dispatches, completions, the fault window,
    // both phases, decisions with score breakdowns, and the drain.
    let events = live_trace.events();
    let mut phases = 0u32;
    let (mut saw_fault, mut saw_decision, mut saw_drain) = (false, false, false);
    for e in events {
        match &e.kind {
            TraceEventKind::PhaseStart { .. } => phases += 1,
            TraceEventKind::FaultStart { .. } => saw_fault = true,
            TraceEventKind::Decision(rec) => {
                saw_decision = true;
                assert!(rec.score.is_finite());
            }
            TraceEventKind::Drain => saw_drain = true,
            _ => {}
        }
    }
    assert_eq!(phases, 2, "both phases start on the record");
    assert!(saw_fault && saw_decision && saw_drain);
}
