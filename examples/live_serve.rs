//! Live serving end to end: spawn the serving runtime, feed it ~1k
//! requests through the in-process channel client *and* a real TCP
//! socket speaking the framed wire protocol, hot-swap the scenario
//! mid-session, drain gracefully — then prove the recorded session
//! replays through the batch simulator **bit-identically**.
//!
//! ```text
//! cargo run --release --example live_serve
//! ```
//!
//! The recorded arrival trace is saved under `artifacts/sessions/`
//! (override the root with `DREAM_ARTIFACTS_DIR`).

use std::sync::Arc;
use std::time::Duration;

use dream::prelude::*;
use dream_models::ScenarioKind;
use dream_serve::{listen_tcp, AdmissionPolicy, ServeConfig, ServeEngine, WallClock, WireClient};

const CHANNEL_REQUESTS: usize = 800;
const SOCKET_REQUESTS: usize = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::new(0.5)?);
    let mut config = ServeConfig::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario);
    config.seed = 2024;
    // 200× accelerated virtual time: a couple wall-seconds of feeding
    // covers a realistic multi-second serving window.
    config.clock = Arc::new(WallClock::accelerated(200.0));
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 8;
    config.policy = AdmissionPolicy::ShedOldest;
    let scheduler = Box::new(DreamScheduler::new(DreamConfig::full()));
    let (engine, handle) = ServeEngine::new(config, scheduler)?;
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());

    // Socket ingress.
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0")?;
    println!("listening on tcp://{addr}");
    let mut socket = WireClient::connect_tcp(addr)?;

    // Feed phase 0 (AR_Call): channel + socket.
    let client = handle.client("channel:demo");
    for i in 0..CHANNEL_REQUESTS / 2 {
        client.submit(PipelineId(i % 2), NodeId(0))?;
        if i % 2 == 0 {
            socket.submit(PipelineId(0), NodeId(0))?;
        }
        std::thread::sleep(Duration::from_micros(300));
    }

    // Hot-swap to VR_Gaming mid-session, then keep feeding.
    handle.swap(Scenario::new(
        ScenarioKind::VrGaming,
        CascadeProbability::new(0.5)?,
    ));
    println!("hot-swap to VR_Gaming ordered");
    for i in 0..CHANNEL_REQUESTS / 2 {
        client.submit(PipelineId(i % 4), NodeId(0))?;
        if i % 2 == 0 && i / 2 < SOCKET_REQUESTS {
            socket.submit(PipelineId(i % 4), NodeId(0))?;
        }
        std::thread::sleep(Duration::from_micros(300));
    }

    // Watch the runtime work, then drain.
    let snap = snapshots
        .wait_for_update(Duration::from_secs(10))
        .expect("the loop publishes snapshots");
    println!(
        "tick {:>5}  phase {}  admitted {:>5}  backlog {:>3}  ready {:>3}  running {:>2}",
        snap.tick,
        snap.phase,
        snap.admitted,
        snap.ingress_backlog,
        snap.ready_tasks,
        snap.running_layers,
    );
    handle.drain();
    let report = server.join().expect("server thread")?;
    socket_server.shutdown();

    // The smoke assertions CI relies on: traffic actually flowed through
    // both ingress paths, the swap happened, and the drain completed.
    let outcome = &report.outcome;
    assert!(report.record.trace().len() >= 900, "most requests admitted");
    let swaps = report
        .record
        .inputs()
        .iter()
        .filter(|i| matches!(i, SessionInput::Swap { .. }))
        .count();
    assert_eq!(swaps, 1, "hot-swap recorded");
    assert!(outcome.metrics().layer_executions > 0, "work was scheduled");
    assert!(
        report
            .sources
            .iter()
            .any(|s| s.label.starts_with("tcp:") && s.admitted > 0),
        "socket ingress delivered"
    );
    println!("\nper-source admission funnel:");
    for s in &report.sources {
        println!(
            "  {:<24} submitted {:>5}  admitted {:>5}  clamped {:>4}  shed {:>3}  rejected {:>3}",
            s.label,
            s.submitted,
            s.admitted,
            s.clamped,
            s.shed,
            s.rejected_capacity + s.rejected_invalid + s.rejected_closed,
        );
    }

    // Save the session for offline analysis / replay.
    let dir = dream_bench::artifacts_dir("sessions");
    let trace_path = dir.join("live_serve_session.csv");
    std::fs::write(&trace_path, report.record.trace().to_csv())?;
    println!(
        "\nrecorded {} arrivals → {}",
        report.record.trace().len(),
        trace_path.display()
    );

    // Replayability: the batch simulator reproduces the live session
    // bit-for-bit.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh)?;
    println!(
        "live fingerprint {:016x}, batch-replay fingerprint {:016x}",
        outcome.metrics().fingerprint(),
        batch.metrics().fingerprint()
    );
    assert_eq!(
        outcome.metrics().fingerprint(),
        batch.metrics().fingerprint(),
        "the recorded live session must replay bit-identically"
    );
    println!("bit-identical ✔");
    Ok(())
}
