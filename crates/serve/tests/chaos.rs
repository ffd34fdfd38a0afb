//! Chaos-facing serve tests: the admission funnel stays reconciled under
//! drain-while-overloaded pressure, and fault-injected live sessions
//! (channel *and* socket ingress) replay bit-identically through the
//! batch `FaultPlan` path.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (replay determinism is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]
use std::sync::Arc;
use std::time::{Duration, Instant};

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{AcceleratorId, Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp, AdmissionPolicy, ClientError, ErrorCode, ManualClock, MetricsSnapshot, ServeConfig,
    ServeEngine, SourceStats, SubmitError, WatchReceiver, WireClient,
};
use dream_sim::live::DEFAULT_HORIZON_CAP_NS;
use dream_sim::{FaultKind, LiveSessionRecord, Scheduler, SessionInput, SimTime};

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::new(kind, CascadeProbability::default_paper())
}

fn scheduler() -> Box<dyn Scheduler> {
    Box::new(DreamScheduler::new(DreamConfig::full()))
}

fn wait_for(
    rx: &mut WatchReceiver<MetricsSnapshot>,
    what: &str,
    mut cond: impl FnMut(&MetricsSnapshot) -> bool,
) -> Arc<MetricsSnapshot> {
    let deadline = Instant::now() + Duration::from_secs(30);
    if let Some(snap) = rx.latest() {
        if cond(&snap) {
            return snap;
        }
    }
    while Instant::now() < deadline {
        if let Some(snap) = rx.wait_for_update(Duration::from_millis(500)) {
            if cond(&snap) {
                return snap;
            }
        }
    }
    panic!("timed out waiting for: {what}");
}

/// The number of swaps the record logged.
fn swaps(record: &LiveSessionRecord) -> usize {
    record
        .inputs()
        .iter()
        .filter(|i| matches!(i, SessionInput::Swap { .. }))
        .count()
}

/// `sum(submitted) == sum(admitted + shed + rejected_*) + backlog` — the
/// per-request funnel identity every snapshot must satisfy (snapshots
/// read stats and backlog under one lock).
fn assert_funnel_identity(sources: &[SourceStats], backlog: usize, context: &str) {
    let submitted: u64 = sources.iter().map(|s| s.submitted).sum();
    let accounted: u64 = sources.iter().map(SourceStats::funnel_total).sum();
    assert_eq!(
        submitted,
        accounted + backlog as u64,
        "funnel identity broken at {context}: {sources:?}"
    );
}

/// Satellite: a drain while the bounded queue is at capacity and a
/// hot-swap boundary is still pending. Every request must land in
/// exactly one funnel bucket — reconciled at every observed snapshot and
/// in the final report.
#[test]
fn drain_under_pressure_reconciles_the_funnel() {
    let clock = ManualClock::new();
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    );
    config.seed = 11;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    config.queue_capacity = 4;
    config.policy = AdmissionPolicy::Reject;
    config.max_admissions_per_tick = 1;
    let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
    let mut snapshots = handle.snapshots();
    let client = handle.client("channel:pressure");

    // Overfill before the serving loop starts ticking: the queue holds 4,
    // every excess submission must be rejected-at-capacity.
    let mut rejected_capacity = 0u64;
    for _ in 0..32 {
        match client.submit(PipelineId(0), NodeId(0)) {
            Ok(()) => {}
            Err(SubmitError::Full) => rejected_capacity += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected_capacity > 0, "queue never filled");

    // Swap first (its boundary stays pending), then drain into it.
    handle.swap(scenario(ScenarioKind::VrGaming));
    handle.drain();
    let server = std::thread::spawn(move || engine.run());

    // Race more submissions against the drain until the ingress closes,
    // checking the funnel identity on every snapshot that goes by.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_closed_rejection = false;
    while !saw_closed_rejection {
        assert!(Instant::now() < deadline, "ingress never closed");
        match client.submit(PipelineId(0), NodeId(0)) {
            Ok(()) | Err(SubmitError::Full) => {}
            Err(SubmitError::Closed) => saw_closed_rejection = true,
        }
        clock.advance_by(SimTime::from_ns(1_000_000));
        if let Some(snap) = snapshots.wait_for_update(Duration::from_millis(10)) {
            assert_funnel_identity(&snap.sources, snap.ingress_backlog, "live snapshot");
        }
    }

    let report = server.join().unwrap().unwrap();
    assert_funnel_identity(&report.sources, 0, "final report");
    let row = &report.sources[client.source().0];
    assert!(row.rejected_capacity >= rejected_capacity);
    assert!(
        row.rejected_closed > 0,
        "queued requests at drain must be rejected-as-closed: {row:?}"
    );
    assert_eq!(swaps(&report.record), 1, "swap applied before drain");

    // Pressure or not, the record still replays bit-identically.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch.metrics().fingerprint()
    );
}

/// Tentpole acceptance: a live session taking faults from both control
/// faces — the in-process handle and the TCP wire protocol — drains into
/// a record whose batch replay (through the `FaultPlan` path) is
/// bit-identical, across several seeds.
fn run_faulted_session(seed: u64) {
    let clock = ManualClock::new();
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    );
    config.seed = seed;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());

    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect_tcp(addr).unwrap();
    let client = handle.client("channel:chaos");

    // Healthy traffic on both ingress paths.
    for i in 0..30u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        wire.submit(PipelineId(1), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(2_000_000 + seed * 1_000 + i * 7_000));
    }
    wait_for(&mut snapshots, "healthy traffic admitted", |s| {
        s.admitted >= 60
    });

    // Chaos from the in-process handle: a stall and a slowdown.
    handle.fault(
        AcceleratorId(1),
        FaultKind::Stall {
            duration: SimTime::from_ns(6_000_000),
        },
        None,
    );
    handle.fault(
        AcceleratorId(2),
        FaultKind::Slowdown {
            factor: 2.5,
            duration: SimTime::from_ns(9_000_000),
        },
        None,
    );
    // A zero-length window would never close: the session refuses it and
    // the control stage drops it, as it does a fault on a missing
    // accelerator.
    handle.fault(
        AcceleratorId(1),
        FaultKind::Stall {
            duration: SimTime::ZERO,
        },
        None,
    );
    // Chaos over the wire: a permanent failure.
    wire.fault(AcceleratorId(0), FaultKind::Fail, None).unwrap();
    // The FaultStart events sit at the frontier; nudge virtual time
    // forward until the engine has stepped across all three.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(snap) = snapshots.wait_for_update(Duration::from_millis(10)) {
            if snap.metrics.faults_injected >= 3 {
                break;
            }
        }
        clock.advance_by(SimTime::from_ns(1_000_000));
        assert!(Instant::now() < deadline, "faults never admitted");
    }

    // Degraded traffic, then drain over the wire.
    for i in 0..30u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        wire.submit(PipelineId(1), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(2_500_000 + i * 11_000));
    }
    wait_for(&mut snapshots, "degraded traffic admitted", |s| {
        s.admitted >= 120
    });
    wire.drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();

    let faults = report
        .record
        .inputs()
        .iter()
        .filter(|i| matches!(i, SessionInput::Fault(_)))
        .count();
    assert_eq!(faults, 3, "admitted faults recorded, the refused one not");
    assert!(report.outcome.metrics().faults_injected >= 3);
    assert!(report.outcome.metrics().layer_executions > 0);

    // The guarantee: the faulted live session replays bit-identically
    // through the batch FaultPlan path.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch.metrics().fingerprint(),
        "faulted live session (seed {seed}) must replay bit-identically"
    );
    assert_eq!(report.outcome.final_time(), batch.final_time());
    assert_eq!(
        report.outcome.metrics().faults_injected,
        batch.metrics().faults_injected
    );
    assert_eq!(
        report.outcome.metrics().fault_requeues,
        batch.metrics().fault_requeues
    );
}

#[test]
fn faulted_live_sessions_replay_bit_identically_across_seeds() {
    for seed in [2024, 7, 99] {
        run_faulted_session(seed);
    }
}

/// A manual-clock engine serving one TCP peer.
fn tcp_session(
    seed: u64,
) -> (
    std::thread::JoinHandle<Result<dream_serve::SessionReport, dream_sim::LiveError>>,
    WatchReceiver<MetricsSnapshot>,
    WireClient,
    dream_serve::SocketServer,
) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    );
    config.seed = seed;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
    let snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let wire = WireClient::connect_tcp(addr).unwrap();
    (server, snapshots, wire, socket_server)
}

/// Regression: a swap whose boundary would fall past the horizon cap —
/// here because an admission sits just before the cap — is dropped like
/// a swap after a drain, instead of ending the serving loop with
/// `PastHorizon` and losing the session.
#[test]
fn swap_past_the_horizon_is_dropped_not_fatal() {
    let (server, mut snapshots, mut wire, socket_server) = tcp_session(5);
    let last = SimTime::from_ns(DEFAULT_HORIZON_CAP_NS - 1);
    wire.submit_at(PipelineId(0), NodeId(0), last).unwrap();
    wait_for(&mut snapshots, "admission before the cap", |s| {
        s.admitted >= 1
    });
    wire.swap("vr_gaming", 0.5).unwrap();
    wire.drain().unwrap();

    let report = server
        .join()
        .unwrap()
        .expect("the serving loop survives the swap");
    socket_server.shutdown();
    assert_eq!(swaps(&report.record), 0, "the swap was dropped");
    assert_eq!(report.record.trace().len(), 1);
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch.metrics().fingerprint()
    );
    assert_eq!(report.outcome.final_time(), batch.final_time());
}

/// Regression: a wire fault naming an accelerator the platform lacks is
/// refused with `Invalid` and counted once as `rejected_invalid`, the
/// way an unknown scenario is, instead of being acked and silently lost.
#[test]
fn wire_fault_on_a_missing_accelerator_is_refused_and_counted() {
    let (server, _snapshots, mut wire, socket_server) = tcp_session(6);
    match wire.fault(AcceleratorId(999), FaultKind::Fail, None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            // The simulator's fault rule is the one that refused it.
            assert_eq!(message, "accelerator 999 out of range (platform has 3)");
        }
        other => panic!("expected an invalid-request refusal, got {other:?}"),
    }
    wire.drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    let row = report
        .sources
        .iter()
        .find(|s| s.label.starts_with("tcp:"))
        .expect("the peer has a funnel row");
    assert_eq!(row.rejected_invalid, 1, "{row:?}");
    assert_eq!(row.submitted, row.funnel_total(), "{row:?}");
    assert_funnel_identity(&report.sources, 0, "final report");
    assert_eq!(report.outcome.metrics().faults_injected, 0);
    assert!(report
        .record
        .inputs()
        .iter()
        .all(|i| !matches!(i, SessionInput::Fault(_))));
}
