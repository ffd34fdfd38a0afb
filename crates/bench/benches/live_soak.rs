//! Live-ingress soak: how much request traffic the serving runtime
//! sustains with *bounded* queues.
//!
//! Three phases:
//!
//! 1. **Channel soak** — several producer threads blast the in-process
//!    [`ChannelClient`] for a fixed wall window against a shed-oldest
//!    queue and a per-tick admission budget. The floor asserted here
//!    (≥ 50k requests/s through the ingress) is the acceptance bar; the
//!    overload is absorbed as observable `shed` counters, never as
//!    unbounded queue growth (ingress backlog ≤ capacity, engine ready
//!    depth bounded by the admission budget).
//! 2. **Socket soak** — one framed TCP peer pipelines `Submit` frames
//!    through [`WireClient::submit_batch`] as fast as replies come back.
//! 3. **Multi-session soak** — many full-scheduler live sessions stepped
//!    round-robin on one shard ([`dream_sim::MultiSession`]), each fed
//!    its root pipelines at their native periods. Reports virtual
//!    seconds simulated per wall second — how many always-on sessions
//!    one core sustains in real time — with a conservative floor.
//!
//! Virtual time runs 1000× wall so the admitted trickle stays inside the
//! scenario's service capacity — the soak stresses the *ingress*, not
//! the simulator's overload behavior (that is `served_traffic`'s job).

// Benchmarks measure wall time by definition; exempt from the
// workspace determinism lint on wall-clock reads.
#![allow(clippy::disallowed_methods)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dream_core::{DreamConfig, DreamScheduler};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, NodeId, PipelineId, Scenario, ScenarioKind};
use dream_serve::{listen_tcp, AdmissionPolicy, ServeConfig, ServeEngine, WallClock, WireClient};
use dream_sim::{Millis, SessionInput, SimTime, SimulationBuilder};

const CHANNEL_PRODUCERS: usize = 4;
const CHANNEL_SOAK: Duration = Duration::from_millis(1200);
const SOCKET_FRAMES: usize = 100_000;
/// Frames per pipelined batch. One 100k-frame batch would fill both
/// socket buffers and leave each side blocked on its write.
const SOCKET_BATCH: usize = 1_000;
const REQUIRED_CHANNEL_RPS: f64 = 50_000.0;
const MULTI_SESSIONS: usize = 64;
const MULTI_HORIZON_MS: u64 = 200;
const REQUIRED_SESSIONS_PER_CORE: f64 = 100.0;

fn main() {
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let mut config = ServeConfig::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario);
    config.seed = 2024;
    config.clock = Arc::new(WallClock::accelerated(1000.0));
    config.tick = Duration::from_millis(1);
    config.queue_capacity = 4096;
    config.policy = AdmissionPolicy::ShedOldest;
    config.max_admissions_per_tick = 64;
    config.snapshot_every = 16;
    let (engine, handle) =
        ServeEngine::new(config, Box::new(DreamScheduler::new(DreamConfig::full())))
            .expect("soak config is valid");
    let mut snapshots = handle.snapshots();
    let server = std::thread::spawn(move || engine.run());

    // ---- Phase 1: channel soak ----
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let producers: Vec<_> = (0..CHANNEL_PRODUCERS)
        .map(|p| {
            let client = handle.client(format!("channel:soak-{p}"));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // ShedOldest never blocks: the queue absorbs or sheds.
                    client
                        .submit(PipelineId((sent % 2) as usize), NodeId(0))
                        .expect("ingress open during the soak");
                    sent += 1;
                }
                sent
            })
        })
        .collect();
    std::thread::sleep(CHANNEL_SOAK);
    stop.store(true, Ordering::Relaxed);
    let submitted: u64 = producers
        .into_iter()
        .map(|p| p.join().expect("producer"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    let channel_rps = submitted as f64 / elapsed;

    let snap = snapshots
        .wait_for_update(Duration::from_secs(5))
        .expect("serving loop publishes snapshots");
    println!(
        "channel soak: {submitted} submitted in {elapsed:.2} s  →  {channel_rps:.0} req/s \
         (admitted {}, shed {}, backlog {} ≤ cap 4096, ready {}, running {})",
        snap.admitted, snap.shed, snap.ingress_backlog, snap.ready_tasks, snap.running_layers,
    );
    assert!(
        channel_rps >= REQUIRED_CHANNEL_RPS,
        "channel ingress must sustain ≥ {REQUIRED_CHANNEL_RPS:.0} req/s, measured {channel_rps:.0}"
    );
    assert!(snap.ingress_backlog <= 4096, "ingress queue stays bounded");
    assert!(
        snap.shed > 0,
        "overload must surface as observable shed counters"
    );
    assert!(
        snap.ready_tasks < 20_000,
        "engine queues stay bounded under overload (ready = {})",
        snap.ready_tasks
    );

    // ---- Phase 2: socket soak ----
    let (addr, socket_server) = listen_tcp(&handle, "127.0.0.1:0").expect("bind");
    let mut wire = WireClient::connect_tcp(addr).expect("connect");
    let batch: Vec<_> = (0..SOCKET_BATCH)
        .map(|i| (PipelineId(i % 2), NodeId(0), None))
        .collect();
    let start = Instant::now();
    for _ in 0..SOCKET_FRAMES / SOCKET_BATCH {
        for result in wire.submit_batch(&batch).expect("batch round trip") {
            // ShedOldest never refuses a submission while the ingress is open.
            result.expect("submission accepted");
        }
    }
    let acked_elapsed = start.elapsed().as_secs_f64();
    // Every ack means the request reached the ingress; the snapshot
    // confirms it from the serving side.
    let deadline = Instant::now() + Duration::from_secs(30);
    let socket_submitted = loop {
        let sources = snapshots
            .wait_for_update(Duration::from_millis(500))
            .map(|s| s.sources.clone())
            .unwrap_or_default();
        let n: u64 = sources
            .iter()
            .filter(|s| s.label.starts_with("tcp:"))
            .map(|s| s.submitted)
            .sum();
        if n >= SOCKET_FRAMES as u64 || Instant::now() > deadline {
            break n;
        }
    };
    println!(
        "socket soak: {SOCKET_FRAMES} framed submits in batches of {SOCKET_BATCH}, \
         acked in {acked_elapsed:.2} s ({:.0} framed req/s), {socket_submitted} reached the ingress",
        SOCKET_FRAMES as f64 / acked_elapsed,
    );
    assert!(
        socket_submitted >= SOCKET_FRAMES as u64,
        "every framed submission must reach the ingress"
    );

    // ---- Drain and report ----
    handle.drain();
    let report = server
        .join()
        .expect("server thread")
        .expect("session completes");
    socket_server.shutdown();
    let total_shed: u64 = report.sources.iter().map(|s| s.shed).sum();
    let total_admitted: u64 = report.sources.iter().map(|s| s.admitted).sum();
    let total_rejected: u64 = report
        .sources
        .iter()
        .map(|s| s.rejected_capacity + s.rejected_invalid + s.rejected_closed)
        .sum();
    println!(
        "drained after {} ticks: admitted {total_admitted}, shed {total_shed}, rejected {total_rejected}, \
         {} arrivals recorded, {} layers executed",
        report.ticks,
        report.record.trace().len(),
        report.outcome.metrics().layer_executions,
    );
    assert_eq!(total_admitted, report.record.trace().len() as u64);
    assert!(report.outcome.metrics().layer_executions > 0);

    // ---- Phase 3: multi-session stepping soak ----
    let scenario = Scenario::new(ScenarioKind::ArCall, CascadeProbability::default_paper());
    let horizon = SimTime::from(Millis::new(MULTI_HORIZON_MS));
    let start = Instant::now();
    let mut multi =
        SimulationBuilder::new(Platform::preset(PlatformPreset::Hetero4kWs1Os2), scenario)
            .duration(SimTime::from(Millis::new(MULTI_HORIZON_MS + 100)))
            .start_multi(MULTI_SESSIONS, |_| {
                Box::new(DreamScheduler::new(DreamConfig::full()))
            })
            .expect("multi-session soak config is valid");
    let roots: Vec<(dream_sim::ModelKey, u64)> = multi
        .workload()
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
        for (s, stamps) in next.iter_mut().enumerate() {
            for (r, stamp) in stamps.iter_mut().enumerate() {
                let (key, period) = roots[r];
                while *stamp < end.as_ns() {
                    let admit = SessionInput::Admit {
                        pipeline: key.pipeline,
                        node: key.node,
                        at: SimTime::from_ns(*stamp),
                    };
                    multi
                        .session_mut(s)
                        .apply(admit)
                        .expect("soak admission is valid");
                    *stamp += period;
                }
            }
        }
        multi.step_until(end);
        frontier = end;
    }
    let outcomes = multi.finish().expect("soak sessions finish");
    let wall_s = start.elapsed().as_secs_f64();
    let events: u64 = outcomes
        .iter()
        .map(|(o, _)| o.metrics().events_processed)
        .sum();
    let virtual_s: f64 = outcomes
        .iter()
        .map(|(o, _)| o.final_time().as_ns_f64() / 1e9)
        .sum();
    let sessions_per_core = virtual_s / wall_s;
    println!(
        "multi-session soak: {MULTI_SESSIONS} DREAM sessions × {MULTI_HORIZON_MS} ms on one \
         shard — {events} events in {wall_s:.2} s ({:.0} events/s aggregate), \
         {sessions_per_core:.0} sessions/core",
        events as f64 / wall_s,
    );
    assert!(
        sessions_per_core >= REQUIRED_SESSIONS_PER_CORE,
        "one core must sustain ≥ {REQUIRED_SESSIONS_PER_CORE:.0} always-on sessions, \
         measured {sessions_per_core:.0}"
    );

    println!(
        "live_soak ok: channel {channel_rps:.0} req/s (floor {REQUIRED_CHANNEL_RPS:.0}), \
         shed/reject observable, queues bounded, \
         {sessions_per_core:.0} sessions/core (floor {REQUIRED_SESSIONS_PER_CORE:.0})"
    );
}
