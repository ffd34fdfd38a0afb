//! Wire protocol: golden byte-exact fixtures for every frame kind,
//! decoder totality under wild bytes, bit-exact encode→decode round
//! trips, the one-version handshake (a hello with any other version is
//! refused), an end-to-end framed session sharing a listener with peers
//! that do not speak the protocol, and the accounting of connection
//! openers.

// Test harness timeouts read the wall clock; exempt from the
// workspace determinism lint (replay determinism is what the test
// itself asserts).
#![allow(clippy::disallowed_methods)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{AcceleratorId, Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::wire::framed::{
    hello_bytes, negotiate, read_frame, read_hello, write_frame, FrameError, CLIENT_MAGIC,
    MAX_FRAME_BYTES, SERVER_MAGIC,
};
use dream_serve::{
    listen_tcp, CellArrival, CellOutcome, CellScheduler, CellSpec, ErrorCode, ManualClock,
    MetricsSnapshot, Reply, Request, ServeConfig, ServeEngine, SourceStats, WatchReceiver,
    WireClient, WireSnapshot, PROTOCOL_VERSION,
};
use dream_sim::{FaultKind, Histogram, SimTime, HISTOGRAM_BUCKETS};

fn le32(v: u32) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn le64(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn lestr(s: &str) -> Vec<u8> {
    let mut out = le32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
    out
}

fn f64bits(v: f64) -> Vec<u8> {
    le64(v.to_bits())
}

/// Every frame kind has a frozen byte layout: these fixtures are the
/// byte contract every peer of this protocol version relies on.
#[test]
fn golden_request_fixtures() {
    let cases: Vec<(Request, Vec<u8>)> = vec![
        (Request::Ping, vec![0x01]),
        (
            Request::Submit {
                pipeline: PipelineId(1),
                node: NodeId(2),
                at: Some(SimTime::from_ns(5000)),
            },
            [vec![0x02], le64(1), le64(2), vec![1], le64(5000)].concat(),
        ),
        (
            Request::Submit {
                pipeline: PipelineId(0),
                node: NodeId(7),
                at: None,
            },
            [vec![0x02], le64(0), le64(7), vec![0]].concat(),
        ),
        (
            Request::Swap {
                scenario: "AR_Call".into(),
                cascade: 0.5,
            },
            [vec![0x03], lestr("AR_Call"), f64bits(0.5)].concat(),
        ),
        (
            Request::Fault {
                acc: AcceleratorId(3),
                kind: FaultKind::Fail,
                at: None,
            },
            [vec![0x04], le64(3), vec![0], vec![0]].concat(),
        ),
        (
            Request::Fault {
                acc: AcceleratorId(0),
                kind: FaultKind::Stall {
                    duration: SimTime::from_ns(5000),
                },
                at: Some(SimTime::from_ns(77)),
            },
            [vec![0x04], le64(0), vec![1], le64(5000), vec![1], le64(77)].concat(),
        ),
        (
            Request::Fault {
                acc: AcceleratorId(1),
                kind: FaultKind::Slowdown {
                    factor: 2.5,
                    duration: SimTime::from_ns(9000),
                },
                at: None,
            },
            [
                vec![0x04],
                le64(1),
                vec![2],
                le64(9000),
                f64bits(2.5),
                vec![0],
            ]
            .concat(),
        ),
        (Request::Drain, vec![0x05]),
        (Request::Snapshot, vec![0x06]),
        (
            Request::RunCells {
                record_traces: true,
                cells: vec![CellSpec {
                    index: 4,
                    scheduler: CellScheduler::Fcfs,
                    scenario: "AR_Call".into(),
                    preset: "4K 2WS".into(),
                    cascade: 0.5,
                    duration_ms: 300,
                    seed: 7,
                    arrival: CellArrival::Periodic,
                }],
            },
            [
                vec![0x07],
                vec![1],
                le32(1),
                le64(4),
                vec![0],
                lestr("AR_Call"),
                lestr("4K 2WS"),
                f64bits(0.5),
                le64(300),
                le64(7),
                vec![0],
            ]
            .concat(),
        ),
    ];
    for (request, golden) in cases {
        assert_eq!(request.encode(), golden, "encode fixture for {request:?}");
        assert_eq!(
            Request::decode(&golden).unwrap(),
            request,
            "decode fixture for {request:?}"
        );
    }
}

/// The frozen layouts of the non-snapshot replies.
#[test]
fn golden_reply_fixtures() {
    let outcome = CellOutcome {
        index: 4,
        fingerprint: 0xFEED,
        uxcost: 1.25,
        mean_violation_rate: 0.5,
        mean_norm_energy: 0.75,
        trace_csv: "# t\n1,0,0,0\n".into(),
    };
    let cases: Vec<(Reply, Vec<u8>)> = vec![
        (Reply::Ok, vec![0x81]),
        (
            Reply::Error {
                code: ErrorCode::Invalid,
                message: "nope".into(),
            },
            [vec![0x82], vec![3], lestr("nope")].concat(),
        ),
        (
            Reply::CellsDone {
                outcomes: vec![outcome],
            },
            [
                vec![0x84],
                le32(1),
                le64(4),
                le64(0xFEED),
                f64bits(1.25),
                f64bits(0.5),
                f64bits(0.75),
                lestr("# t\n1,0,0,0\n"),
            ]
            .concat(),
        ),
    ];
    for (reply, golden) in cases {
        assert_eq!(reply.encode(), golden, "encode fixture for {reply:?}");
        assert_eq!(
            Reply::decode(&golden).unwrap(),
            reply,
            "decode fixture for {reply:?}"
        );
    }
}

/// The frozen snapshot layout. It ends with the three fault counters
/// and the sparse sojourn histogram as `(u32 bucket, u64 count)` pairs.
#[test]
fn golden_snapshot_fixture() {
    // Bucket 0 holds the value 0. Bucket 100 is octave
    // e = (100 >> 3) + 2 = 14, sub-bucket 100 & 7 = 4: values
    // [12 << 11, 13 << 11) ns. Bucket 495, the last, ends at u64::MAX.
    assert_eq!(Histogram::bucket_of(12 << 11), 100);
    assert_eq!(Histogram::bucket_upper_bound(100), (13 << 11) - 1);
    assert_eq!(Histogram::bucket_of(u64::MAX), 495);
    let snapshot = WireSnapshot {
        tick: 1,
        now_ns: 2,
        frontier_ns: 3,
        phase: 4,
        draining: true,
        ingress_backlog: 5,
        event_backlog: 6,
        admitted: 7,
        shed: 8,
        rejected: 9,
        fingerprint: 0xDEAD_BEEF,
        faults_injected: 10,
        fault_requeues: 11,
        deadline_miss_under_faults: 12,
        sojourn_hist: vec![(0, 3), (100, 900), (495, 1)],
    };
    let golden = [
        vec![0x83],
        le64(1),
        le64(2),
        le64(3),
        le64(4),
        vec![1],
        le64(5),
        le64(6),
        le64(7),
        le64(8),
        le64(9),
        le64(0xDEAD_BEEF),
        le64(10),
        le64(11),
        le64(12),
        le32(3),
        le32(0),
        le64(3),
        le32(100),
        le64(900),
        le32(495),
        le64(1),
    ]
    .concat();
    let reply = Reply::Snapshot(snapshot);
    assert_eq!(reply.encode(), golden, "snapshot encode fixture");
    assert_eq!(
        Reply::decode(&golden).unwrap(),
        reply,
        "snapshot decode fixture"
    );
}

#[test]
fn golden_hello_and_framing() {
    assert_eq!(
        hello_bytes(CLIENT_MAGIC, PROTOCOL_VERSION),
        [0xD7, 0x44, 0x52, 0x4D, 0x03, 0x00]
    );
    assert_eq!(
        hello_bytes(SERVER_MAGIC, PROTOCOL_VERSION),
        [0xD7, 0x64, 0x72, 0x6D, 0x03, 0x00]
    );
    let mut framed = Vec::new();
    write_frame(&mut framed, &Request::Ping.encode()).unwrap();
    assert_eq!(framed, vec![1, 0, 0, 0, 0x01]);
    let submit = Request::Submit {
        pipeline: PipelineId(1),
        node: NodeId(2),
        at: Some(SimTime::from_ns(5000)),
    };
    let mut framed = Vec::new();
    write_frame(&mut framed, &submit.encode()).unwrap();
    assert_eq!(
        framed[..4],
        26u32.to_le_bytes(),
        "submit payload is 26 bytes"
    );
    assert_eq!(framed.len(), 30);
}

mod properties {
    use super::*;
    use dream_serve::CellDreamVariant;
    use proptest::prelude::*;

    fn arb_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(97u8..123, 0..12)
            .prop_map(|bytes| String::from_utf8(bytes).expect("ascii"))
    }

    fn arb_stamp() -> impl Strategy<Value = Option<u64>> {
        prop_oneof![Just(None), (0u64..(1 << 40)).prop_map(Some)]
    }

    fn arb_fault() -> impl Strategy<Value = FaultKind> {
        (0u8..3, 1u64..(1 << 30), 0u64..(1 << 10)).prop_map(
            |(disc, dur, factor_scale)| match disc {
                0 => FaultKind::Fail,
                1 => FaultKind::Stall {
                    duration: SimTime::from_ns(dur),
                },
                _ => FaultKind::Slowdown {
                    factor: 1.0 + factor_scale as f64 / 16.0,
                    duration: SimTime::from_ns(dur),
                },
            },
        )
    }

    fn arb_variant() -> impl Strategy<Value = CellDreamVariant> {
        prop_oneof![
            Just(CellDreamVariant::MapScore),
            Just(CellDreamVariant::SmartDrop),
            Just(CellDreamVariant::Full),
        ]
    }

    fn arb_scheduler() -> impl Strategy<Value = CellScheduler> {
        prop_oneof![
            Just(CellScheduler::Fcfs),
            Just(CellScheduler::Static),
            Just(CellScheduler::Edf),
            Just(CellScheduler::Veltair),
            Just(CellScheduler::Planaria),
            (arb_variant(), 0u64..(1 << 20), 0u64..(1 << 20)).prop_map(|(variant, a, b)| {
                CellScheduler::DreamFixed {
                    variant,
                    alpha: a as f64 / 1024.0,
                    beta: b as f64 / 1024.0,
                }
            }),
            arb_variant().prop_map(|variant| CellScheduler::DreamTuned { variant }),
        ]
    }

    fn arb_arrival() -> impl Strategy<Value = CellArrival> {
        prop_oneof![
            Just(CellArrival::Periodic),
            (1u64..4096).prop_map(|i| CellArrival::Poisson {
                intensity: i as f64 / 256.0,
            }),
            (1u64..4096, 1u64..4096, 0.0f64..1.0, 0.0f64..1.0).prop_map(
                |(calm, burst, p_enter, p_exit)| CellArrival::Mmpp {
                    calm: calm as f64 / 256.0,
                    burst: burst as f64 / 256.0,
                    p_enter,
                    p_exit,
                }
            ),
        ]
    }

    fn arb_cell() -> impl Strategy<Value = CellSpec> {
        (
            arb_scheduler(),
            arb_string(),
            arb_string(),
            0.0f64..1.0,
            (1u64..4000, any::<u64>(), arb_arrival()),
        )
            .prop_map(
                |(scheduler, scenario, preset, cascade, (dur, seed, arrival))| CellSpec {
                    index: 0,
                    scheduler,
                    scenario,
                    preset,
                    cascade,
                    duration_ms: dur,
                    seed,
                    arrival,
                },
            )
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            Just(Request::Ping),
            Just(Request::Drain),
            Just(Request::Snapshot),
            (any::<u32>(), any::<u32>(), arb_stamp()).prop_map(|(p, n, at)| Request::Submit {
                pipeline: PipelineId(p as usize),
                node: NodeId(n as usize),
                at: at.map(SimTime::from_ns),
            }),
            (arb_string(), 0.0f64..1.0)
                .prop_map(|(scenario, cascade)| Request::Swap { scenario, cascade }),
            (any::<u16>(), arb_fault(), arb_stamp()).prop_map(|(acc, kind, at)| Request::Fault {
                acc: AcceleratorId(acc as usize),
                kind,
                at: at.map(SimTime::from_ns),
            }),
            (any::<bool>(), proptest::collection::vec(arb_cell(), 0..3)).prop_map(
                |(record_traces, mut cells)| {
                    for (i, cell) in cells.iter_mut().enumerate() {
                        cell.index = i as u64;
                    }
                    Request::RunCells {
                        record_traces,
                        cells,
                    }
                }
            ),
        ]
    }

    fn arb_snapshot() -> impl Strategy<Value = WireSnapshot> {
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            proptest::collection::vec((0u32..HISTOGRAM_BUCKETS as u32, 1u64..(1 << 40)), 0..8),
        )
            .prop_map(
                |(
                    (tick, now_ns, frontier_ns, phase),
                    (draining, ingress_backlog, event_backlog, admitted),
                    (shed, rejected, fingerprint),
                    (faults_injected, fault_requeues, deadline_miss_under_faults),
                    hist,
                )| WireSnapshot {
                    tick,
                    now_ns,
                    frontier_ns,
                    phase,
                    draining,
                    ingress_backlog,
                    event_backlog,
                    admitted,
                    shed,
                    rejected,
                    fingerprint,
                    faults_injected,
                    fault_requeues,
                    deadline_miss_under_faults,
                    // Ascending unique buckets, as Histogram::sparse
                    // produces them.
                    sojourn_hist: hist
                        .into_iter()
                        .collect::<std::collections::BTreeMap<_, _>>()
                        .into_iter()
                        .collect(),
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Totality: the framed decoder never panics on byte soup, for
        /// either message direction.
        #[test]
        fn decoder_never_panics_on_wild_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let _ = Request::decode(&bytes);
            let _ = Reply::decode(&bytes);
        }

        /// Encode→decode round-trips bit-exactly: the decoded value
        /// equals the original AND re-encodes to the same bytes.
        #[test]
        fn requests_round_trip_bit_exactly(request in arb_request()) {
            let bytes = request.encode();
            let decoded = Request::decode(&bytes).expect("encoded requests decode");
            prop_assert_eq!(&decoded, &request);
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// Snapshot replies round-trip bit-exactly, and the sparse
        /// histogram they carry is exactly what `Histogram::sparse`
        /// produces for it.
        #[test]
        fn snapshots_round_trip_bit_exactly(snapshot in arb_snapshot()) {
            let reply = Reply::Snapshot(snapshot.clone());
            let bytes = reply.encode();
            let decoded = Reply::decode(&bytes).expect("snapshot decodes");
            prop_assert_eq!(&decoded, &reply);
            prop_assert_eq!(decoded.encode(), bytes);
            let hist = Histogram::from_sparse(&snapshot.sojourn_hist);
            prop_assert_eq!(hist.sparse(), snapshot.sojourn_hist);
        }

        /// Truncating any strict prefix of a valid payload yields a typed
        /// error, never a panic or a silent partial decode.
        #[test]
        fn truncated_payloads_error_cleanly(request in arb_request(), cut in 0usize..64) {
            let bytes = request.encode();
            if cut < bytes.len() {
                let truncated = &bytes[..bytes.len() - cut - 1];
                if !truncated.is_empty() {
                    prop_assert!(Request::decode(truncated).is_err());
                }
            }
        }
    }
}

type Server = std::thread::JoinHandle<Result<dream_serve::SessionReport, dream_sim::LiveError>>;

fn start_engine(clock: &ManualClock) -> (dream_serve::ServeHandle, Server) {
    let mut config = ServeConfig::new(
        Platform::preset(PlatformPreset::Homo4kWs2),
        Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper()),
    );
    config.seed = 11;
    config.clock = Arc::new(clock.clone());
    config.tick = Duration::from_millis(1);
    config.snapshot_every = 1;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full()))).unwrap();
    (handle, std::thread::spawn(move || engine.run()))
}

/// The label of the ingress source the server registers for `peer`.
fn label_of(peer: &TcpStream) -> String {
    format!("tcp:{}", peer.local_addr().unwrap())
}

fn source_of<'a>(sources: &'a [SourceStats], label: &str) -> Option<&'a SourceStats> {
    sources.iter().find(|s| s.label == label)
}

/// Waits until the connection labelled `peer` has been served to its end
/// (its source recorded the disconnect), and returns that source.
fn wait_for_disconnect(snapshots: &mut WatchReceiver<MetricsSnapshot>, peer: &str) -> SourceStats {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(snap) = snapshots.wait_for_update(Duration::from_millis(500)) {
            if let Some(source) = source_of(&snap.sources, peer).filter(|s| s.disconnects == 1) {
                return source.clone();
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "connection never ended"
        );
    }
}

/// End-to-end: framed clients share one TCP listener with peers that do
/// not speak the protocol. A peer opening with a text command (`ping\n`)
/// is closed without a reply and counts one `rejected_invalid`; a peer
/// that connects and closes counts nothing; the framed peers drive
/// control and traffic unaffected, and the session replays
/// bit-identically.
#[test]
fn framed_and_line_peers_share_a_listener() {
    let clock = ManualClock::new();
    let (handle, server) = start_engine(&clock);
    let mut snapshots = handle.snapshots();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();

    // --- framed peer ---
    let mut framed = WireClient::connect_tcp(addr).unwrap();
    framed.ping().unwrap();

    // --- a text-command peer on the same listener: refused at its first
    // byte, with no reply ---
    let mut line_peer = TcpStream::connect(addr).unwrap();
    // A server waiting for the rest of a hello would time this read out.
    line_peer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    line_peer.write_all(b"ping\n").unwrap();
    let mut reply = Vec::new();
    match line_peer.read_to_end(&mut reply) {
        Ok(_) => assert!(reply.is_empty(), "no reply to a text opener: {reply:?}"),
        // Closing with unread input in the kernel buffer resets instead.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }
    let refused = wait_for_disconnect(&mut snapshots, &label_of(&line_peer));
    assert_eq!((refused.submitted, refused.rejected_invalid), (1, 1));

    // --- a peer that connects and closes at once: nothing to account ---
    let closer = label_of(&TcpStream::connect(addr).unwrap());
    let closed = wait_for_disconnect(&mut snapshots, &closer);
    assert_eq!((closed.submitted, closed.rejected_invalid), (0, 0));

    // Framed traffic: stamped submissions, pipelined batch, control.
    for i in 0..10u64 {
        framed
            .submit_at(PipelineId(0), NodeId(0), SimTime::from_ns(i * 2_000_000))
            .unwrap();
        clock.advance_by(SimTime::from_ns(2_000_000));
    }
    let batch: Vec<_> = (0..6u64)
        .map(|_| (PipelineId(1), NodeId(0), None))
        .collect();
    for result in framed.submit_batch(&batch).unwrap() {
        result.unwrap();
    }
    framed.swap("vr_gaming", 0.5).unwrap();
    framed
        .fault(
            AcceleratorId(0),
            FaultKind::Stall {
                duration: SimTime::from_ns(5_000_000),
            },
            None,
        )
        .unwrap();

    // Degenerate fault parameters are rejected at decode time with a
    // typed error code — and exactly one rejected_invalid.
    let err = framed
        .fault(
            AcceleratorId(0),
            FaultKind::Stall {
                duration: SimTime::from_ns(0),
            },
            None,
        )
        .unwrap_err();
    match err {
        dream_serve::ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Invalid),
        other => panic!("expected typed server error, got {other}"),
    }

    // Framed traffic keeps flowing after the refused openers.
    framed.submit(PipelineId(0), NodeId(0)).unwrap();

    // A raw framed peer handshakes, and a garbage frame gets a Malformed
    // reply (funnel-accounted).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&hello_bytes(CLIENT_MAGIC, PROTOCOL_VERSION))
        .unwrap();
    let mut hello = [0u8; 6];
    raw.read_exact(&mut hello).unwrap();
    assert_eq!(hello, hello_bytes(SERVER_MAGIC, PROTOCOL_VERSION));
    write_frame(&mut raw, &[0xFF, 1, 2, 3]).unwrap();
    let payload = read_frame(&mut raw).unwrap();
    match Reply::decode(&payload).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }
    drop(raw);

    // Snapshots become available over the framed face.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let snapshot = loop {
        match framed.snapshot() {
            Ok(snap) if snap.admitted >= 17 => break snap,
            Ok(_) | Err(dream_serve::ClientError::Server { .. }) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "snapshot never reflected traffic"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("snapshot transport failed: {other}"),
        }
    };
    assert!(snapshot.fingerprint != 0 || snapshot.admitted > 0);
    // The snapshot carries the fault plane: the stall injected above is
    // visible in its counters.
    assert!(
        snapshot.faults_injected >= 1,
        "snapshot must carry the injected stall"
    );

    framed.drain().unwrap();
    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();

    // Funnel identity per source, including the framed peer's one
    // decode-time rejection and the refused text opener.
    for source in &report.sources {
        assert_eq!(
            source.submitted,
            source.funnel_total(),
            "funnel identity must hold for {}",
            source.label
        );
    }
    let framed_sources: Vec<_> = report
        .sources
        .iter()
        .filter(|s| s.label.starts_with("tcp:"))
        .collect();
    assert_eq!(
        framed_sources
            .iter()
            .map(|s| s.rejected_invalid)
            .sum::<u64>(),
        3,
        "text opener + zero-duration fault + garbage frame = three invalid rejections"
    );
    assert_eq!(
        framed_sources.iter().map(|s| s.admitted).sum::<u64>(),
        17,
        "10 stamped + 6 batched + 1 late framed submission admitted"
    );

    // The socket-fed session replays bit-identically — the wire protocol
    // does not perturb the determinism contract.
    let mut fresh = DreamScheduler::new(DreamConfig::full());
    let batch_outcome = report.record.replay(&mut fresh).unwrap();
    assert_eq!(
        report.outcome.metrics().fingerprint(),
        batch_outcome.metrics().fingerprint(),
        "mixed session must replay bit-identically"
    );

    // The frame-size guard is part of the public contract: an oversize
    // frame is refused at write time, before any bytes hit the wire.
    let mut sink = Vec::new();
    assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_BYTES + 1]).is_err());
    assert!(sink.is_empty());
}

/// A server shutdown that cuts off a peer mid-hello accounts nothing
/// against it: the peer never sent a malformed opener, it was simply
/// not allowed to finish.
#[test]
fn shutdown_mid_hello_counts_nothing() {
    let (handle, server) = start_engine(&ManualClock::new());
    let mut snapshots = handle.snapshots();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();

    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&[0xD7, 0x44, 0x52]).unwrap();
    let label = label_of(&peer);
    // Wait until the connection is being served, then stop the listener.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while snapshots
        .wait_for_update(Duration::from_millis(500))
        .is_none_or(|snap| source_of(&snap.sources, &label).is_none())
    {
        assert!(
            std::time::Instant::now() < deadline,
            "connection never served"
        );
    }
    socket_server.shutdown();
    let cut = wait_for_disconnect(&mut snapshots, &label);
    assert_eq!((cut.submitted, cut.rejected_invalid), (0, 0));

    handle.drain();
    let report = server.join().unwrap().unwrap();
    let source = source_of(&report.sources, &label).unwrap();
    assert_eq!(source.rejected_invalid, 0);
    assert_eq!(source.submitted, source.funnel_total());
}

/// A hello carrying any version other than [`PROTOCOL_VERSION`] is
/// refused: the peer reads the server's hello, its own check fails with
/// `UnsupportedVersion`, the server hangs up, and the refused opener
/// costs exactly one `rejected_invalid`.
#[test]
fn other_version_hellos_cost_one_invalid_each() {
    let (handle, server) = start_engine(&ManualClock::new());
    let mut snapshots = handle.snapshots();
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").unwrap();

    let mut labels = Vec::new();
    for version in [1u16, 2] {
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        peer.write_all(&hello_bytes(CLIENT_MAGIC, version)).unwrap();
        let theirs = read_hello(&mut peer, SERVER_MAGIC, &[]).unwrap();
        assert_eq!(theirs, PROTOCOL_VERSION);
        assert_eq!(
            negotiate(version, theirs),
            Err(FrameError::UnsupportedVersion { theirs })
        );
        // The server hangs up without a reply frame.
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "no frame after a refused hello: {rest:?}");
        let label = label_of(&peer);
        let refused = wait_for_disconnect(&mut snapshots, &label);
        assert_eq!((refused.submitted, refused.rejected_invalid), (1, 1));
        assert_eq!(refused.submitted, refused.funnel_total());
        labels.push(label);
    }

    handle.drain();
    let report = server.join().unwrap().unwrap();
    socket_server.shutdown();
    for label in &labels {
        let source = source_of(&report.sources, label).unwrap();
        assert_eq!(source.rejected_invalid, 1);
        assert_eq!(source.submitted, source.funnel_total());
    }
}
