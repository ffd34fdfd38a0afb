//! The deterministic flight recorder end to end: serve a live session
//! with the tracer on (admissions, a mid-session fault window, a
//! scenario hot-swap, a graceful drain), export the trace to
//! Chrome/Perfetto JSON and CSV, then replay the recorded session
//! through the batch simulator with the tracer on again — and prove
//! the two traces are **byte-identical** in both formats.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```
//!
//! Artifacts land under `artifacts/flight/` (override the root with
//! `DREAM_ARTIFACTS_DIR`); load the `.json` files at `ui.perfetto.dev`
//! or `chrome://tracing`.

use std::sync::Arc;
use std::time::Duration;

use dream::prelude::*;
use dream_cost::AcceleratorId;
use dream_models::ScenarioKind;
use dream_serve::{ManualClock, MetricsSnapshot, ServeConfig, ServeEngine, WatchReceiver};
use dream_sim::{FaultKind, TraceConfig};

// Harness timeout only — the wall clock never touches the virtual
// timeline (the trace-identity asserts below are the proof).
#[allow(clippy::disallowed_methods)]
fn wait_for(
    snapshots: &mut WatchReceiver<MetricsSnapshot>,
    what: &str,
    cond: impl Fn(&MetricsSnapshot) -> bool,
) -> Arc<MetricsSnapshot> {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(snap) = snapshots.latest() {
            if cond(&snap) {
                return snap;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for: {what}"
        );
        snapshots.wait_for_update(Duration::from_millis(200));
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let clock = ManualClock::new();
    let mut config = ServeConfig::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario);
    config.seed = 2024;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    config.trace = Some(TraceConfig::default());
    let scheduler = Box::new(DreamScheduler::new(DreamConfig::full()));
    let (engine, handle) = ServeEngine::new(config, scheduler)?;
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());
    let client = handle.client("channel:flight");

    // Phase 0 (AR_Call) with a stall window opening mid-stream.
    for i in 0..40u64 {
        client.submit(PipelineId(i as usize % 2), NodeId(0))?;
        if i == 12 {
            handle.fault(
                AcceleratorId(0),
                FaultKind::Stall {
                    duration: SimTime::from_ns(10_000_000),
                },
                None,
            );
            println!("stall window ordered against accelerator 0");
        }
        clock.advance_by(SimTime::from_ns(2_500_000 + i * 11_000));
    }
    wait_for(&mut snapshots, "phase-0 traffic", |s| s.admitted >= 40);

    // Hot-swap to VR_Gaming, then keep feeding.
    handle.swap(Scenario::new(
        ScenarioKind::VrGaming,
        CascadeProbability::default_paper(),
    ));
    wait_for(&mut snapshots, "swap ordered", |s| s.phase == 1);
    for i in 0..40u64 {
        client.submit(PipelineId(0), NodeId(0))?;
        clock.advance_by(SimTime::from_ns(3_000_000 + i * 7_000));
    }
    let snap = wait_for(&mut snapshots, "phase-1 traffic", |s| s.admitted >= 80);
    println!(
        "tick {:>5}  phase {}  admitted {:>4}  p50 {:?} ms  p99 {:?} ms",
        snap.tick,
        snap.phase,
        snap.admitted,
        snap.sojourn_hist.quantile_ms(0.50),
        snap.sojourn_hist.quantile_ms(0.99),
    );

    handle.drain();
    let report = server.join().expect("server thread")?;
    let live = report.outcome.trace().expect("tracer was on");
    println!(
        "live trace: {} events ({} dropped, ring capacity {})",
        live.len(),
        live.dropped(),
        live.capacity()
    );
    println!(
        "stage profile over {} ticks: admit {}ns  control {}ns  step {}ns  publish {}ns",
        report.profile.ticks,
        report.profile.admit_ns,
        report.profile.control_ns,
        report.profile.step_ns,
        report.profile.publish_ns,
    );

    // Replay the recorded session with the tracer on.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let replay = report
        .record
        .replay_traced(TraceConfig::default(), &mut fresh)?;
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        replay.metrics().fingerprint(),
        "the recorded live session must replay bit-identically"
    );
    let replayed = replay.trace().expect("replay tracer was on");

    // Export both traces in both formats and compare bytes.
    let dir = dream_bench::artifacts_dir("flight");
    let pairs = [
        ("flight_live.json", live.to_chrome_json()),
        ("flight_live.csv", live.to_csv()),
        ("flight_replay.json", replayed.to_chrome_json()),
        ("flight_replay.csv", replayed.to_csv()),
    ];
    for (name, bytes) in &pairs {
        std::fs::write(dir.join(name), bytes)?;
        println!("wrote {} ({} bytes)", dir.join(name).display(), bytes.len());
    }
    assert_eq!(
        pairs[0].1, pairs[2].1,
        "live and replay JSON exports must be byte-identical"
    );
    assert_eq!(
        pairs[1].1, pairs[3].1,
        "live and replay CSV exports must be byte-identical"
    );
    println!("trace identity: live == replay, byte for byte ✔");
    Ok(())
}
