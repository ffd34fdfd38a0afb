//! Unix-domain-socket ingress: framed round trips, error replies, the
//! funnel accounting of truncated and split frames, and replay
//! equivalence of a socket-fed session.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (replay determinism is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{AcceleratorId, Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::wire::framed::{hello_bytes, push_frame, CLIENT_MAGIC};
use dream_serve::{
    listen_unix, ClientError, ErrorCode, ManualClock, MetricsSnapshot, Reply, Request, ServeConfig,
    ServeEngine, SessionReport, WatchReceiver, WireClient, PROTOCOL_VERSION,
};
use dream_sim::{FaultKind, SimTime};

/// A fresh socket path under the temp dir, unique per test and process.
fn socket_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dream-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("serve.sock")
}

fn remove_socket(path: &Path) {
    let _ = std::fs::remove_file(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir(dir);
    }
}

fn spawn_engine(
    seed: u64,
    clock: ManualClock,
) -> (
    std::thread::JoinHandle<Result<SessionReport, dream_sim::LiveError>>,
    dream_serve::ServeHandle,
) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = seed;
    config.clock = Arc::new(clock);
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full()))).unwrap();
    (std::thread::spawn(move || engine.run()), handle)
}

fn wait_for(
    snapshots: &mut WatchReceiver<MetricsSnapshot>,
    cond: impl Fn(&MetricsSnapshot) -> bool,
) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(snap) = snapshots.wait_for_update(Duration::from_millis(500)) {
            if cond(&snap) {
                return;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "traffic never admitted"
        );
    }
}

/// Dials `path` as a raw framed peer: sends the client hello and reads
/// the server's, leaving the stream at the first frame boundary. Reads
/// time out, so a reply that never comes fails the test instead of
/// hanging it.
fn raw_framed_peer(path: &Path) -> UnixStream {
    let mut stream = UnixStream::connect(path).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&hello_bytes(CLIENT_MAGIC, PROTOCOL_VERSION))
        .unwrap();
    let mut hello = [0u8; 6];
    stream.read_exact(&mut hello).unwrap();
    stream
}

/// Reads one reply frame off a raw peer. Unlike `framed::read_frame`,
/// which retries read timeouts, a timeout here is an error.
fn read_reply(peer: &mut UnixStream) -> std::io::Result<Reply> {
    let mut len = [0u8; 4];
    peer.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    peer.read_exact(&mut payload)?;
    Ok(Reply::decode(&payload).expect("reply frames decode"))
}

fn submit_frame(pipeline: usize) -> Vec<u8> {
    let mut frame = Vec::new();
    let request = Request::Submit {
        pipeline: PipelineId(pipeline),
        node: NodeId(0),
        at: None,
    };
    push_frame(&mut frame, &request.encode()).unwrap();
    frame
}

fn unix_sources(report: &SessionReport) -> Vec<&dream_serve::SourceStats> {
    report
        .sources
        .iter()
        .filter(|s| s.label.starts_with("unix:"))
        .collect()
}

fn assert_funnel_identity(report: &SessionReport) {
    for source in &report.sources {
        assert_eq!(
            source.submitted,
            source.funnel_total(),
            "funnel identity must hold for {}",
            source.label
        );
    }
}

#[test]
fn unix_socket_sessions_record_and_replay() {
    let path = socket_path("replay");
    let clock = ManualClock::new();
    let (server, handle) = spawn_engine(5, clock.clone());
    let mut snapshots = handle.snapshots();
    let socket_server = listen_unix(&handle, &path).unwrap();

    let mut client = WireClient::connect_unix(&path).unwrap();

    // Liveness + error replies.
    client.ping().unwrap();
    // Decodes, but no such pipeline: refused at admission.
    client.submit(PipelineId(99), NodeId(0)).unwrap();
    match client.swap("NoSuch", 0.5).unwrap_err() {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.starts_with("unknown scenario"), "{message:?}");
        }
        other => panic!("expected a typed server error, got {other}"),
    }

    // Real traffic with explicit stamps, then drain.
    for i in 0..25u64 {
        client
            .submit_at(PipelineId(0), NodeId(0), SimTime::from_ns(i * 2_000_000))
            .unwrap();
        client.submit(PipelineId(1), NodeId(0)).unwrap();
        clock.advance_by(SimTime::from_ns(2_000_000));
    }
    // 50 valid requests; the pipeline-99 one lands in rejected.
    wait_for(&mut snapshots, |snap| {
        snap.admitted >= 50 && snap.rejected >= 1
    });
    client.drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    let unix_source = unix_sources(&report)[0];
    assert_eq!(unix_source.admitted, 50);
    // Unknown pipeline (admission) + unknown scenario (wire): both enter
    // the funnel as rejected_invalid.
    assert_eq!(unix_source.rejected_invalid, 2);
    assert_eq!(unix_source.submitted, unix_source.funnel_total());

    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch.metrics().fingerprint(),
        "unix-socket session must replay bit-identically"
    );

    remove_socket(&path);
}

/// A frame whose bytes straddle read-timeout windows must survive
/// intact: the reader accumulates partial frames across poll timeouts,
/// and the submission runs exactly once.
#[test]
fn split_frame_runs_exactly_once() {
    let path = socket_path("split");
    let (server, handle) = spawn_engine(8, ManualClock::new());
    let mut snapshots = handle.snapshots();
    let socket_server = listen_unix(&handle, &path).unwrap();

    let mut peer = raw_framed_peer(&path);
    let frame = submit_frame(0);
    // Three writes, each pause longer than the server's read poll.
    for (i, part) in [&frame[..2], &frame[2..7], &frame[7..]].iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        peer.write_all(part).unwrap();
    }
    assert_eq!(read_reply(&mut peer).unwrap(), Reply::Ok);
    wait_for(&mut snapshots, |snap| snap.admitted >= 1);
    drop(peer);
    WireClient::connect_unix(&path).unwrap().drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    let unix = unix_sources(&report);
    assert_eq!(unix.iter().map(|s| s.admitted).sum::<u64>(), 1);
    assert_eq!(unix.iter().map(|s| s.submitted).sum::<u64>(), 1);
    assert_eq!(unix.iter().map(|s| s.rejected_invalid).sum::<u64>(), 0);
    assert_funnel_identity(&report);

    remove_socket(&path);
}

/// A final partial frame at peer disconnect must never execute, must be
/// answered with a `Malformed` error, and must enter the funnel as
/// exactly one `rejected_invalid`, so `submitted == admitted + shed +
/// rejected_* + backlog` still holds.
#[test]
fn truncated_final_frame_is_accounted_not_executed() {
    let path = socket_path("tail");
    let (server, handle) = spawn_engine(6, ManualClock::new());
    let mut snapshots = handle.snapshots();
    let socket_server = listen_unix(&handle, &path).unwrap();

    let mut peer = raw_framed_peer(&path);
    let mut bytes = [submit_frame(0), submit_frame(1)].concat();
    // The tail: a prefix of a valid submission, then EOF. The peer cannot
    // know whether the rest arrived, so the server must not guess.
    let third = submit_frame(0);
    bytes.extend_from_slice(&third[..third.len() - 3]);
    peer.write_all(&bytes).unwrap();
    peer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    for _ in 0..3 {
        replies.push(read_reply(&mut peer).unwrap());
    }
    assert_eq!(replies[..2], [Reply::Ok, Reply::Ok]);
    assert!(
        matches!(
            replies[2],
            Reply::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "{:?}",
        replies[2]
    );
    assert!(read_reply(&mut peer).is_err(), "nothing after the error");
    drop(peer);

    // Both whole frames admitted, the tail rejected — then drain via a
    // second connection (the first is gone).
    wait_for(&mut snapshots, |snap| {
        snap.admitted >= 2 && snap.rejected >= 1
    });
    WireClient::connect_unix(&path).unwrap().drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    let unix = unix_sources(&report);
    assert_eq!(
        unix.iter().map(|s| s.admitted).sum::<u64>(),
        2,
        "the truncated fragment must not execute as a third submission"
    );
    assert_eq!(
        unix.iter().map(|s| s.rejected_invalid).sum::<u64>(),
        1,
        "the truncated tail is accounted exactly once"
    );
    assert_funnel_identity(&report);

    remove_socket(&path);
}

/// Degenerate fault windows — zero-duration stall/slow and non-finite
/// or `< 1` slowdown factors — are rejected at decode time with a typed
/// error and exactly one `rejected_invalid` each; they never reach the
/// engine as no-op or NaN-poisoned events.
#[test]
fn degenerate_fault_windows_are_rejected_at_parse_time() {
    let path = socket_path("fault");
    let (server, handle) = spawn_engine(7, ManualClock::new());
    let socket_server = listen_unix(&handle, &path).unwrap();
    let mut client = WireClient::connect_unix(&path).unwrap();

    let window = SimTime::from_ns(5_000_000);
    let slow = |factor: f64, duration: SimTime| FaultKind::Slowdown { factor, duration };
    let degenerate = [
        (
            FaultKind::Stall {
                duration: SimTime::ZERO,
            },
            "fault window duration must be > 0",
        ),
        (
            slow(2.0, SimTime::ZERO),
            "fault window duration must be > 0",
        ),
        (slow(0.5, window), "factor 0.5 must be finite and >= 1"),
        (slow(f64::NAN, window), "factor NaN must be finite and >= 1"),
        (
            slow(f64::INFINITY, window),
            "factor inf must be finite and >= 1",
        ),
    ];
    for (kind, expected) in degenerate {
        match client.fault(AcceleratorId(0), kind, None).unwrap_err() {
            ClientError::Server { code, message } => {
                assert_eq!(code, ErrorCode::Invalid);
                assert_eq!(message, expected);
            }
            other => panic!("expected a typed server error, got {other}"),
        }
    }
    // Well-formed windows still land.
    client
        .fault(
            AcceleratorId(0),
            FaultKind::Stall { duration: window },
            None,
        )
        .unwrap();
    client
        .fault(AcceleratorId(0), slow(2.0, window), None)
        .unwrap();
    client.drain().unwrap();

    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    let source = unix_sources(&report)[0];
    assert_eq!(
        source.rejected_invalid, 5,
        "each degenerate fault counts exactly once"
    );
    assert_eq!(source.submitted, source.funnel_total());

    remove_socket(&path);
}
