//! The headline guarantee of `dream-serve`: a recorded live session —
//! channel *and* socket ingress, two scenarios with a mid-session
//! hot-swap, multiple seeds — re-run through the batch simulator yields
//! **bit-identical** scheduling `Metrics`.
//!
//! Replay equivalence is unconditional on timing: whatever the wall
//! clock and thread interleavings admitted is what the record replays.
//! The assertions on coverage (both sources admitted, both phases
//! reached) make sure the sessions exercised the paths they claim to.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (replay determinism is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]
use std::sync::Arc;
use std::time::{Duration, Instant};

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{
    listen_tcp, AdmissionPolicy, ManualClock, MetricsSnapshot, ServeConfig, ServeEngine,
    WatchReceiver, WireClient,
};
use dream_sim::{Scheduler, SessionInput, SimTime};

fn scenario(kind: ScenarioKind) -> Scenario {
    Scenario::new(kind, CascadeProbability::default_paper())
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

fn scheduler() -> Box<dyn Scheduler> {
    Box::new(DreamScheduler::new(DreamConfig::full()))
}

/// Runs one live session (channel + TCP ingress, AR_Call → VR_Gaming
/// hot-swap) and asserts its batch replay is bit-identical.
fn run_session(seed: u64) {
    let clock = ManualClock::new();
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Hetero4kWs1Os2),
        scenario(ScenarioKind::ArCall),
    );
    config.seed = seed;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    config.policy = AdmissionPolicy::ShedOldest;
    let (engine, handle) = ServeEngine::new(config, scheduler()).unwrap();
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());

    // Socket ingress: framed requests over a real TCP connection.
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut wire = WireClient::connect_tcp(addr).unwrap();

    // Channel ingress.
    let client = handle.client("channel:test");

    // Phase 0 (AR_Call): drive both ingress paths.
    for i in 0..40u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        wire.submit(PipelineId(1), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(2_000_000 + seed * 1_000 + i * 7_000));
    }
    wait_for(&mut snapshots, "phase-0 traffic admitted", |s| {
        s.admitted >= 80
    });

    // Hot-swap to VR_Gaming mid-session.
    handle.swap(scenario(ScenarioKind::VrGaming));
    wait_for(&mut snapshots, "swap ordered", |s| s.phase == 1);

    // Phase 1 (VR_Gaming): both paths again; the boundary clamp is
    // exercised because stamps land before the announced phase start.
    for i in 0..40u64 {
        client.submit(PipelineId(0), NodeId(0)).unwrap();
        wire.submit(PipelineId(2), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(3_000_000 + i * 11_000));
    }
    wait_for(&mut snapshots, "phase-1 traffic admitted", |s| {
        s.admitted >= 160
    });

    // Drain through the socket control path.
    wire.drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();

    // Coverage: both ingress paths admitted traffic, both phases ran.
    let channel_admitted: u64 = report
        .sources
        .iter()
        .filter(|s| s.label.starts_with("channel:"))
        .map(|s| s.admitted)
        .sum();
    let socket_admitted: u64 = report
        .sources
        .iter()
        .filter(|s| s.label.starts_with("tcp:"))
        .map(|s| s.admitted)
        .sum();
    assert!(
        channel_admitted >= 80,
        "channel admitted {channel_admitted}"
    );
    assert!(socket_admitted >= 80, "socket admitted {socket_admitted}");
    let swaps = report
        .record
        .inputs()
        .iter()
        .filter(|i| matches!(i, SessionInput::Swap { .. }))
        .count();
    assert_eq!(swaps, 1, "hot-swap recorded");
    assert_eq!(
        report.record.trace().len() as u64,
        channel_admitted + socket_admitted
    );
    assert_eq!(report.record.seed(), seed);

    // The guarantee: a fresh scheduler replaying the record through the
    // batch simulator reproduces the live metrics bit-for-bit.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch.metrics().fingerprint(),
        "live session (seed {seed}) must replay bit-identically"
    );
    assert_eq!(report.outcome.final_time(), batch.final_time());
    // The live path really scheduled work, not just bookkeeping.
    assert!(report.outcome.metrics().layer_executions > 0);
}

#[test]
fn live_sessions_replay_bit_identically_across_seeds() {
    for seed in [2024, 7, 99] {
        run_session(seed);
    }
}
