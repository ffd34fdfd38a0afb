//! Framed transport timing: round trips pay no Nagle or delayed-ACK
//! stall, replies are flushed whenever the server's buffered input holds
//! no complete next frame, pipelined batches stay in order with the
//! funnel identity intact, and listeners shut down promptly from a
//! blocking `accept()`.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint.
#![allow(clippy::disallowed_methods)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::wire::framed::{
    hello_bytes, push_frame, read_frame_with, FrameRead, CLIENT_MAGIC,
};
use dream_serve::{
    listen_tcp, listen_unix, ClientError, ManualClock, Reply, Request, ServeConfig, ServeEngine,
    ServeHandle, SessionReport, WireClient, PROTOCOL_VERSION,
};

type Server = JoinHandle<Result<SessionReport, dream_sim::LiveError>>;

fn start_engine() -> (ServeHandle, Server) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = 3;
    config.clock = Arc::new(ManualClock::new());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full()))).unwrap();
    (handle, std::thread::spawn(move || engine.run()))
}

/// Closed-loop round trips: with a Nagle hold on either side each ping
/// waits for a delayed ACK (tens of ms), so 200 of them take seconds.
#[test]
fn sequential_pings_pay_no_ack_delay() {
    let (handle, server) = start_engine();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let start = Instant::now();
    for _ in 0..200 {
        client.ping().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 pings took {elapsed:?}"
    );
    client.drain().unwrap();
    server.join().unwrap().unwrap();
    socket_server.shutdown();
}

/// The server buffers replies but must flush before it blocks: a peer
/// that has sent one whole frame and only part of the next is owed the
/// first reply now.
#[test]
fn reply_is_flushed_while_the_next_frame_is_partial() {
    let (handle, server) = start_engine();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    raw.write_all(&hello_bytes(CLIENT_MAGIC, PROTOCOL_VERSION))
        .unwrap();
    let mut hello = [0u8; 6];
    raw.read_exact(&mut hello).unwrap();

    let mut frames = Vec::new();
    push_frame(&mut frames, &Request::Ping.encode()).unwrap();
    let first_len = frames.len();
    push_frame(&mut frames, &Request::Ping.encode()).unwrap();
    let read_reply = |raw: &mut TcpStream| {
        let deadline = Instant::now() + Duration::from_secs(10);
        match read_frame_with(raw, &mut || Instant::now() < deadline).unwrap() {
            FrameRead::Frame(reply) => Reply::decode(&reply).unwrap(),
            other => panic!("no reply within 10 s: {other:?}"),
        }
    };
    raw.write_all(&frames[..first_len + 2]).unwrap();
    assert_eq!(
        read_reply(&mut raw),
        Reply::Ok,
        "first reply before the rest is sent"
    );

    raw.write_all(&frames[first_len + 2..]).unwrap();
    assert_eq!(read_reply(&mut raw), Reply::Ok);
    drop(raw);

    handle.drain();
    server.join().unwrap().unwrap();
    socket_server.shutdown();
}

/// 1,000 pipelined submits leave in one write and come back as 1,000
/// acks in order: the next request on the stream gets its own reply,
/// not a stray ack, and the funnel identity holds.
#[test]
fn pipelined_batch_is_answered_in_order() {
    let (handle, server) = start_engine();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let batch: Vec<_> = (0..1_000usize)
        .map(|i| (PipelineId(i % 2), NodeId(0), None))
        .collect();
    let results = client.submit_batch(&batch).unwrap();
    assert_eq!(results.len(), 1_000);
    for (i, result) in results.iter().enumerate() {
        assert!(result.is_ok(), "submit {i}: {result:?}");
    }

    // A stray ack left in the stream would surface here as the wrong
    // reply kind.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.snapshot() {
            Ok(snap)
                if snap.admitted + snap.shed + snap.rejected + snap.ingress_backlog == 1_000 =>
            {
                break
            }
            Ok(_) | Err(ClientError::Server { .. }) => {
                assert!(Instant::now() < deadline, "snapshot never saw the batch");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("snapshot after the batch failed: {other}"),
        }
    }
    client.drain().unwrap();
    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();

    for source in &report.sources {
        assert_eq!(
            source.submitted,
            source.funnel_total(),
            "funnel identity must hold for {}",
            source.label
        );
    }
    let submitted: u64 = report.sources.iter().map(|s| s.submitted).sum();
    assert_eq!(submitted, 1_000);
}

/// A listener blocked in `accept()` is woken by `shutdown`, over
/// loopback for an unspecified bind and through the path for Unix
/// sockets.
#[test]
fn shutdown_wakes_a_blocking_accept() {
    let (handle, server) = start_engine();
    let (_, tcp) = listen_tcp(&handle, "0.0.0.0:0").unwrap();
    let dir = std::env::temp_dir().join(format!("dream-serve-transport-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let unix = listen_unix(&handle, dir.join("serve.sock")).unwrap();

    let start = Instant::now();
    tcp.shutdown();
    unix.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        start.elapsed()
    );

    handle.drain();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
