//! `serve_live`: an open loop against a dream-serve node running
//! DREAM-Full, over one framed TCP connection driven by one writer
//! thread and one reader thread.
//!
//! `Submit` frames carry explicit `at` stamps at VR_Gaming's native root
//! periods (135 frames per virtual second). The node runs on an
//! accelerated `WallClock`, so the wall rate is 135 × the acceleration.
//! Every frame is due [`LEAD`] of wall time before its stamp, so stamps
//! lead the clock and none should be clamped. The same stream carries a
//! `Snapshot` read every [`SNAPSHOT_EVERY`] frames and a seeded,
//! explicitly stamped stall/slowdown `Fault` storm, and ends with a
//! `Drain` once the ingress queue has emptied. Each ladder step is its
//! own node and session; latency is reported at the nominal step.
//!
//! Every reply is timed from its frame's due time, not its send time, so
//! a stall also charges the requests queued behind it.

use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dream_baselines::{FcfsScheduler, PlanariaScheduler, VeltairScheduler};
use dream_bench::{tuned_params_cached, CostConfig, DreamVariant};
use dream_core::{DreamScheduler, StageTimings, UxCostReport};
use dream_cost::{Platform, PlatformPreset};
use dream_models::{CascadeProbability, PipelineId, Scenario, ScenarioKind};
use dream_serve::wire::framed::{
    negotiate, read_frame_with, read_hello, write_frame, write_hello, FrameRead, CLIENT_MAGIC,
    SERVER_MAGIC,
};
use dream_serve::{
    listen_tcp, Reply, Request, ServeConfig, ServeEngine, ServeHandle, SessionReport, SocketServer,
    SourceStats, WallClock, PROTOCOL_VERSION,
};
use dream_sim::{FaultPlan, LiveSessionBuilder, Metrics, Scheduler, SimTime, StormConfig};

use crate::grid::{CASCADE, VARIANTS};
use crate::stats::{self, Funnel, StepSlo};
use crate::timed::{SchedStats, SpanCost, Timeable, Timed};

/// The served scenario: the AR/VR client path.
pub const SCENARIO: ScenarioKind = ScenarioKind::VrGaming;

/// The node's platform.
pub const PRESET: PlatformPreset = PlatformPreset::Hetero4kWs1Os2;

/// Share of `--seconds` the traced nominal step of a traced run serves.
pub const TRACED_SHARE: f64 = 0.2;

/// The acceleration latency is reported at: ≈13.5k Submit frames/s.
pub const NOMINAL: f64 = 100.0;

/// The ladder: (acceleration, share of `--seconds` the step runs).
pub const LADDER: [(f64, f64); 3] = [(50.0, 0.2), (NOMINAL, 0.4), (125.0, 0.2)];

/// How far ahead of its stamp (in wall time) each frame is due. It
/// covers the tick period, scheduling delays and the transport's worst
/// stalls, so a stamp is never behind the clock when admitted.
pub const LEAD: Duration = Duration::from_millis(100);

/// Wall time from the clock's start to the first stamp. Set-up must
/// finish inside `PRE - LEAD`; the fixed offset makes every stamp, and so
/// the whole session, a pure function of the seed.
pub const PRE: Duration = Duration::from_millis(300);

/// A `Snapshot` read goes out after every this many frames.
pub const SNAPSHOT_EVERY: usize = 50;

/// Load threads (one writer, one reader) and connections the generator
/// uses; both must fit the machine's cores.
pub const LOAD_THREADS: usize = 2;
/// See [`LOAD_THREADS`].
pub const CONNECTIONS: usize = 1;

/// The generator lagged if its p99 lateness exceeds one 60 fps frame: the
/// offered load is then not what the step claims, and the run is marked
/// invalid.
pub const MAX_GEN_LATE_P99_MS: f64 = 1.0e3 / 60.0;

/// Extra nodes a run starts and drains at once, so `setup_s` is a median
/// over enough set-ups.
pub const SETUP_PROBES: usize = 6;

/// Pause between the listener starting and the client connecting, not
/// counted in `setup_s`.
const CONNECT_PAUSE: Duration = Duration::from_millis(5);

/// How long after a step's last due frame the reader waits for replies.
const REPLY_GRACE: Duration = Duration::from_secs(10);

/// How long the ingress queue may take to empty before the drain.
const SETTLE_DEADLINE: Duration = Duration::from_secs(2);

/// How long the engine may take to drain once ordered.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// The fault storm: per accelerator and 100 ms of virtual time, a stall
/// and a slowdown each begin with small probability. No permanent
/// failures, so every step serves the same four accelerators.
fn storm() -> StormConfig {
    StormConfig {
        slot: SimTime::from_ns(100_000_000),
        p_stall: 0.02,
        p_slowdown: 0.05,
        p_fail: 0.0,
        max_factor: 2.0,
    }
}

fn scenario() -> Scenario {
    Scenario::new(
        SCENARIO,
        CascadeProbability::new(CASCADE).expect("the paper's cascade is valid"),
    )
}

/// A DREAM level with its offline-tuned (α, β) for the served scenario,
/// the way the Figure 7 set deploys it.
fn tuned(variant: DreamVariant) -> DreamScheduler {
    let params = tuned_params_cached(SCENARIO, PRESET, CASCADE, variant, &CostConfig::Analytical);
    DreamScheduler::new(variant.config().with_params(params))
}

/// What a frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A root-frame request.
    Submit,
    /// A metrics read.
    Snapshot,
    /// A stamped fault.
    Fault,
}

/// One frame of the open-loop schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, wall ns after the clock's start.
    pub due_ns: u64,
    /// What it asks for.
    pub kind: Kind,
    /// The request itself.
    pub request: Request,
}

/// The open-loop schedule of one step: `wall` of VR_Gaming traffic at
/// `accel`, plus snapshots and the fault storm. A pure function of its
/// arguments.
pub fn plan(accel: f64, wall: Duration, seed: u64) -> Vec<Planned> {
    let start_v = (PRE.as_nanos() as f64 * accel) as u64;
    let span_v = (wall.as_nanos() as f64 * accel) as u64;
    let lead_v = (LEAD.as_nanos() as f64 * accel) as u64;
    let mut stamped: Vec<(u64, Request)> = Vec::new();
    for (p, pipeline) in scenario().pipelines().iter().enumerate() {
        for (node, spec) in pipeline.roots() {
            let period = spec.rate.period_ns();
            let mut at = start_v;
            while at < start_v + span_v {
                stamped.push((
                    at,
                    Request::Submit {
                        pipeline: PipelineId(p),
                        node,
                        at: Some(SimTime::from_ns(at)),
                    },
                ));
                at += period;
            }
        }
    }
    let accs = Platform::preset(PRESET).len();
    let faults = FaultPlan::storm(seed, accs, SimTime::from_ns(span_v), storm());
    for fault in faults.events() {
        let at = start_v + fault.at.as_ns();
        stamped.push((
            at,
            Request::Fault {
                acc: fault.acc,
                kind: fault.kind,
                at: Some(SimTime::from_ns(at)),
            },
        ));
    }
    // Stable: same-instant frames keep submits (pipeline order) ahead of
    // faults (plan order).
    stamped.sort_by_key(|(at, _)| *at);
    let due = |at: u64| ((at - lead_v) as f64 / accel) as u64;
    let mut out = Vec::with_capacity(stamped.len() + stamped.len() / SNAPSHOT_EVERY + 1);
    for (i, (at, request)) in stamped.into_iter().enumerate() {
        let kind = match request {
            Request::Submit { .. } => Kind::Submit,
            _ => Kind::Fault,
        };
        out.push(Planned {
            due_ns: due(at),
            kind,
            request,
        });
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            out.push(Planned {
                due_ns: due(at),
                kind: Kind::Snapshot,
                request: Request::Snapshot,
            });
        }
    }
    out
}

/// What the writer thread measured.
#[derive(Debug, Default)]
struct WriterOut {
    /// Send start minus due time, ms, per frame.
    late_ms: Vec<f64>,
    /// Wall time of each `write_frame` call, ns (traced steps only).
    write_ns: Vec<f64>,
    /// Frames written.
    sent: usize,
    /// The transport error that stopped the writer, if any.
    error: Option<String>,
}

fn write_loop(mut stream: TcpStream, plan: &[Planned], base: Instant, trace: bool) -> WriterOut {
    let mut out = WriterOut {
        late_ms: Vec::with_capacity(plan.len()),
        ..WriterOut::default()
    };
    for item in plan {
        let due = base + Duration::from_nanos(item.due_ns);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        out.late_ms
            .push(start.saturating_duration_since(due).as_secs_f64() * 1.0e3);
        let payload = item.request.encode();
        let t0 = Instant::now();
        if let Err(e) = write_frame(&mut stream, &payload) {
            out.error = Some(format!("write: {e}"));
            break;
        }
        if trace {
            out.write_ns.push(t0.elapsed().as_nanos() as f64);
        }
        out.sent += 1;
    }
    out
}

/// What the reader thread measured.
#[derive(Debug, Default)]
struct ReaderOut {
    /// Submit ack latency from due time, µs.
    ack_us: Vec<f64>,
    /// Snapshot reply latency from due time, µs.
    snapshot_us: Vec<f64>,
    /// Snapshot and Fault frames answered with the expected reply.
    other_ok: u64,
    /// Replies received.
    received: usize,
    /// Reply payloads (traced steps only), for the wire timings.
    replies: Vec<Vec<u8>>,
    /// Protocol violations: wrong reply kinds, undecodable replies, wire
    /// snapshots counting more requests than were sent.
    errors: Vec<String>,
}

fn read_loop(
    mut stream: TcpStream,
    plan: &[Planned],
    base: Instant,
    version: u16,
    deadline: Instant,
    keep: bool,
) -> ReaderOut {
    let mut out = ReaderOut {
        ack_us: Vec::with_capacity(plan.len()),
        ..ReaderOut::default()
    };
    let mut submits_before = 0u64;
    for item in plan {
        let payload = match read_frame_with(&mut stream, &mut || Instant::now() < deadline) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof | FrameRead::Stopped) => break,
            Err(e) => {
                out.errors.push(format!("read: {e}"));
                break;
            }
        };
        let arrived = Instant::now();
        out.received += 1;
        let due = base + Duration::from_nanos(item.due_ns);
        let latency_us = arrived.saturating_duration_since(due).as_secs_f64() * 1.0e6;
        match (item.kind, Reply::decode_versioned(&payload, version)) {
            (Kind::Submit, Ok(Reply::Ok)) => out.ack_us.push(latency_us),
            // An error reply to a submit is a refused request, counted
            // through the funnel, not a protocol violation.
            (Kind::Submit, Ok(Reply::Error { .. })) => {}
            (Kind::Snapshot, Ok(Reply::Snapshot(snap))) => {
                out.other_ok += 1;
                out.snapshot_us.push(latency_us);
                // A published snapshot predates this read, so it cannot
                // account for more requests than were sent before it.
                let accounted = snap.admitted + snap.shed + snap.rejected + snap.ingress_backlog;
                if accounted > submits_before {
                    out.errors.push(format!(
                        "wire snapshot accounts {accounted} requests after {submits_before} submits"
                    ));
                }
            }
            (Kind::Snapshot, Ok(Reply::Error { .. })) => {}
            (Kind::Fault, Ok(Reply::Ok)) => out.other_ok += 1,
            (kind, Ok(other)) => out.errors.push(format!("{kind:?} answered with {other:?}")),
            (kind, Err(e)) => out.errors.push(format!("{kind:?} reply undecodable: {e}")),
        }
        if item.kind == Kind::Submit {
            submits_before += 1;
        }
        if keep {
            out.replies.push(payload);
        }
    }
    out
}

/// Per-frame wire costs, timed on the step's own frames after it ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    /// `Request::encode`, ns per frame.
    pub encode_ns: f64,
    /// `Request::decode`, ns per frame.
    pub decode_ns: f64,
    /// `Reply::encode_versioned` of the non-snapshot replies, ns.
    pub reply_encode_ns: f64,
    /// `Reply::encode_versioned` of the snapshot replies, ns.
    pub snapshot_encode_ns: f64,
    /// Mean snapshot reply payload, bytes.
    pub snapshot_bytes: f64,
}

/// Median over three timed loops of `f` over `items`, ns per item.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for item in items {
                f(item);
            }
            t0.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[1]
}

fn wire_costs(plan: &[Planned], replies: &[Vec<u8>], version: u16) -> WireCosts {
    use std::hint::black_box;
    let requests: Vec<&Request> = plan.iter().map(|p| &p.request).collect();
    let encoded: Vec<Vec<u8>> = requests.iter().map(|r| r.encode()).collect();
    let decoded: Vec<Reply> = replies
        .iter()
        .filter_map(|p| Reply::decode_versioned(p, version).ok())
        .collect();
    let (snapshots, others): (Vec<&Reply>, Vec<&Reply>) = decoded
        .iter()
        .partition(|r| matches!(r, Reply::Snapshot(_)));
    let snapshot_payloads: Vec<usize> = replies
        .iter()
        .zip(plan)
        .filter(|(_, p)| p.kind == Kind::Snapshot)
        .map(|(r, _)| r.len())
        .collect();
    WireCosts {
        encode_ns: per_item_ns(&requests, |r| {
            black_box(r.encode());
        }),
        decode_ns: per_item_ns(&encoded, |b| {
            black_box(Request::decode(b).ok());
        }),
        reply_encode_ns: per_item_ns(&others, |r| {
            black_box(r.encode_versioned(version));
        }),
        snapshot_encode_ns: per_item_ns(&snapshots, |r| {
            black_box(r.encode_versioned(version));
        }),
        snapshot_bytes: if snapshot_payloads.is_empty() {
            0.0
        } else {
            snapshot_payloads.iter().sum::<usize>() as f64 / snapshot_payloads.len() as f64
        },
    }
}

/// Everything one ladder step measured.
#[derive(Debug)]
pub struct Step {
    /// The clock's acceleration.
    pub accel: f64,
    /// Offered Submit rate, per wall second.
    pub rate: f64,
    /// Engine, listener and handshake, seconds.
    pub setup_s: f64,
    /// Submit ack latency from due time, µs, ascending.
    pub ack_us: Vec<f64>,
    /// Snapshot reply latency from due time, µs, ascending.
    pub snapshot_us: Vec<f64>,
    /// Generator lateness per frame, ms, ascending.
    pub late_ms: Vec<f64>,
    /// Client `write_frame` wall time, ns (traced steps).
    pub write_ns: Vec<f64>,
    /// How the frames ended.
    pub funnel: Funnel,
    /// Ingress backlog per snapshot the bench read.
    pub ingress_backlog: Vec<f64>,
    /// Engine event backlog per snapshot the bench read.
    pub event_backlog: Vec<f64>,
    /// Virtual seconds per wall second of the timed batch replay of the
    /// session under DREAM-Full (nominal step only).
    pub replay_rate: Option<f64>,
    /// The session's final per-source accounting.
    pub sources: Vec<SourceStats>,
    /// The session's final metrics.
    pub metrics: Metrics,
    /// Wall time the serving loop ran, ns.
    pub engine_wall_ns: f64,
    /// The serving loop's stage profile.
    pub profile: dream_serve::StageProfile,
    /// The live scheduler's wrapper stats (traced steps).
    pub sched: Option<SchedStats>,
    /// Wire costs on this step's frames (traced steps).
    pub wire: Option<WireCosts>,
    /// Wrapped batch replays of the nominal session record in traced
    /// steps: (scheduler, wrapper stats, UXCost), one per Fig-7 policy.
    pub replays: Vec<(String, SchedStats, f64)>,
    /// DREAM-Full's stage split from a stage-timed replay (traced steps).
    pub stages: Option<StageTimings>,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Step {
    /// Admitted stamps the session clamped.
    pub fn clamped(&self) -> u64 {
        self.sources.iter().map(|s| s.clamped).sum()
    }

    /// The step against the SLO.
    pub fn slo(&self) -> StepSlo {
        StepSlo {
            rate: self.rate,
            ack_p99_us: if self.ack_us.is_empty() {
                f64::INFINITY
            } else {
                stats::quantile(&self.ack_us, 0.99)
            },
            clamped: self.clamped(),
            ingress_grows: stats::grows(&self.ingress_backlog, 32.0),
            events_grow: stats::grows(&self.event_backlog, 256.0),
        }
    }

    /// Virtual seconds per wall second of the live node's step stage.
    pub fn live_sim_s_per_s(&self) -> f64 {
        self.metrics.horizon().as_ns_f64() / self.profile.step_ns.max(1) as f64
    }

    /// The live session's UXCost.
    pub fn uxcost(&self) -> f64 {
        UxCostReport::from_metrics(&self.metrics).uxcost()
    }

    /// UXCost of the replay under `name`, if it ran.
    pub fn replay_uxcost(&self, name: &str) -> Option<f64> {
        self.replays
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| *u)
    }
}

fn funnel_identity(sources: &[SourceStats], backlog: u64) -> Result<(), String> {
    let submitted: u64 = sources.iter().map(|s| s.submitted).sum();
    let accounted: u64 = sources.iter().map(SourceStats::funnel_total).sum::<u64>() + backlog;
    if submitted == accounted {
        Ok(())
    } else {
        Err(format!(
            "funnel identity broken: submitted {submitted} != accounted {accounted}"
        ))
    }
}

fn join_by<T>(handle: JoinHandle<T>, deadline: Instant, what: &str) -> Result<T, String> {
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return Err(format!("{what} did not finish by its deadline"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().map_err(|_| format!("{what} panicked"))
}

/// The Figure 7 policies, for replaying a session record.
fn figure7() -> Vec<Box<dyn Timeable>> {
    vec![
        Box::new(FcfsScheduler::new()),
        Box::new(VeltairScheduler::new()),
        Box::new(PlanariaScheduler::new()),
        Box::new(tuned(DreamVariant::MapScore)),
        Box::new(tuned(DreamVariant::SmartDrop)),
        Box::new(tuned(DreamVariant::Full)),
    ]
}

/// A started node: its serving loop, its listener and one handshaken
/// connection.
struct Node {
    /// The instant the node's clock started from (virtual time 0).
    base: Instant,
    handle: ServeHandle,
    server: JoinHandle<(Result<SessionReport, String>, f64)>,
    /// Dropping it stops and joins the accept loop.
    _listener: SocketServer,
    stream: TcpStream,
    version: u16,
    /// Engine, listener and handshake, seconds.
    setup_s: f64,
}

/// Set-up: builds the engine on a clock accelerated `accel` times, starts
/// its serving loop and a TCP listener, connects and handshakes.
fn start_node(accel: f64, seed: u64, scheduler: Box<dyn Scheduler>) -> Result<Node, String> {
    let base = Instant::now();
    let mut config = ServeConfig::new(Platform::preset(PRESET), scenario());
    config.seed = seed;
    config.clock = Arc::new(WallClock::accelerated(accel));
    let (engine, handle) =
        ServeEngine::new(config, scheduler).map_err(|e| format!("engine: {e}"))?;
    let server = std::thread::spawn(move || {
        let t0 = Instant::now();
        let report = engine.run().map_err(|e| format!("serving loop: {e}"));
        (report, t0.elapsed().as_nanos() as f64)
    });
    let (addr, listener) = listen_tcp(&handle, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let listening_s = base.elapsed().as_secs_f64();
    // The accept loop polls; whether a connection lands before its first
    // poll or after is a race. Connecting a fixed pause after the listener
    // starts (not counted) meets the loop at the same phase every time.
    std::thread::sleep(CONNECT_PAUSE);
    let connect = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let version = write_hello(&mut stream, CLIENT_MAGIC, PROTOCOL_VERSION)
        .and_then(|()| read_hello(&mut stream, SERVER_MAGIC, &[]))
        .and_then(|theirs| negotiate(PROTOCOL_VERSION, theirs).map_err(io::Error::from))
        .map_err(|e| format!("handshake: {e}"))?;
    Ok(Node {
        base,
        handle,
        server,
        _listener: listener,
        stream,
        version,
        setup_s: listening_s + connect.elapsed().as_secs_f64(),
    })
}

/// Starts a node and drains it at once, returning its set-up time.
fn probe_setup(seed: u64) -> Result<f64, String> {
    let node = start_node(NOMINAL, seed, Box::new(tuned(DreamVariant::Full)))?;
    node.handle.drain();
    join_by(
        node.server,
        Instant::now() + DRAIN_DEADLINE,
        "a set-up probe",
    )?
    .0?;
    Ok(node.setup_s)
}

/// Runs one ladder step.
///
/// # Errors
///
/// Set-up failures (bind, connect, handshake, engine construction) and a
/// serving loop that misses its drain deadline.
pub fn run_step(accel: f64, wall: Duration, seed: u64, trace: bool) -> Result<Step, String> {
    let plan = Arc::new(plan(accel, wall, seed));
    let sink = Arc::new(Mutex::new(SchedStats::default()));
    let scheduler: Box<dyn Scheduler> = if trace {
        Box::new(Timed::publishing(
            Box::new(tuned(DreamVariant::Full)),
            Arc::clone(&sink),
        ))
    } else {
        Box::new(tuned(DreamVariant::Full))
    };
    let node = start_node(accel, seed, scheduler)?;
    let Node {
        base,
        handle,
        server,
        _listener,
        stream,
        version,
        setup_s,
    } = node;
    let last_due = base + Duration::from_nanos(plan.last().map_or(0, |p| p.due_ns));
    let reply_deadline = last_due + REPLY_GRACE;
    let io_err = |e: io::Error| format!("socket: {e}");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(io_err)?;
    stream
        .set_write_timeout(Some(REPLY_GRACE))
        .map_err(io_err)?;
    let reader_stream = stream.try_clone().map_err(io_err)?;
    let mut control = stream.try_clone().map_err(io_err)?;
    let writer = {
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || write_loop(stream, &plan, base, trace))
    };
    let reader = {
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            read_loop(reader_stream, &plan, base, version, reply_deadline, trace)
        })
    };

    // The main thread reads the snapshots the node publishes in process:
    // the funnel identity must hold in each, and the backlogs feed the
    // SLO's growth test.
    let mut errors = Vec::new();
    let mut ingress_backlog = Vec::new();
    let mut event_backlog = Vec::new();
    let mut snapshots = handle.snapshots();
    while !(writer.is_finished() && reader.is_finished()) {
        if let Some(snap) = snapshots.wait_for_update(Duration::from_millis(20)) {
            if let Err(e) = funnel_identity(&snap.sources, snap.ingress_backlog as u64) {
                errors.push(format!("snapshot at tick {}: {e}", snap.tick));
            }
            if !snap.draining {
                ingress_backlog.push(snap.ingress_backlog as f64);
                event_backlog.push(snap.event_backlog as f64);
            }
        }
        if Instant::now() > reply_deadline + REPLY_GRACE {
            return Err("load threads missed their deadline".into());
        }
    }
    let written = writer.join().map_err(|_| "writer panicked".to_string())?;
    let read = reader.join().map_err(|_| "reader panicked".to_string())?;
    errors.extend(written.error.clone());
    errors.extend(read.errors.iter().cloned());
    let submits_sent = plan[..written.sent]
        .iter()
        .filter(|p| p.kind == Kind::Submit)
        .count() as u64;

    // A drain closes the ingress queue and refuses whatever still waits in
    // it, so the `Drain` frame goes out once every submit has left it.
    let settle = Instant::now() + SETTLE_DEADLINE;
    while Instant::now() < settle {
        let settled = snapshots
            .wait_for_update(Duration::from_millis(20))
            .is_some_and(|snap| {
                let submitted: u64 = snap.sources.iter().map(|s| s.submitted).sum();
                snap.ingress_backlog == 0 && submitted >= submits_sent
            });
        if settled {
            break;
        }
    }
    let drained = write_frame(&mut control, &Request::Drain.encode())
        .and_then(|()| read_frame_with(&mut control, &mut || Instant::now() < settle + REPLY_GRACE))
        .map(|r| match r {
            FrameRead::Frame(p) => matches!(Reply::decode_versioned(&p, version), Ok(Reply::Ok)),
            FrameRead::Eof | FrameRead::Stopped => false,
        })
        .unwrap_or(false);
    if !drained {
        // The session must still end; the refused drain counts as failed.
        handle.drain();
    }
    let (report, engine_wall_ns) =
        join_by(server, Instant::now() + DRAIN_DEADLINE, "the serving loop")?;
    let report = report?;
    if let Err(e) = funnel_identity(&report.sources, 0) {
        errors.push(format!("final accounting: {e}"));
    }

    let funnel = Funnel {
        submits_sent,
        submits_admitted: report.sources.iter().map(|s| s.admitted).sum(),
        other_sent: written.sent as u64 - submits_sent + 1,
        other_ok: read.other_ok + u64::from(drained),
    };

    // Replays: the live session must equal its batch replay bit for bit.
    // The nominal session is replayed; in traced steps also under every
    // Fig-7 policy for the per-scheduler costs, and once with DREAM's stage
    // timing on.
    let live_fp = report.outcome.metrics().fingerprint();
    let mut check = |name: &str, fp: u64| {
        if fp != live_fp {
            errors.push(format!(
                "replay under {name}: fingerprint {fp:016x} != live {live_fp:016x}"
            ));
        }
    };
    let replay = |scheduler: &mut dyn Scheduler| {
        report
            .record
            .replay(scheduler)
            .map(dream_sim::SimOutcome::into_metrics)
            .map_err(|e| format!("replay under {}: {e}", scheduler.name()))
    };
    let mut replays = Vec::new();
    let mut stages = None;
    let mut replay_rate = None;
    if accel == NOMINAL {
        let t0 = Instant::now();
        let metrics = replay(&mut tuned(DreamVariant::Full))?;
        replay_rate = Some(metrics.horizon().as_ns_f64() / t0.elapsed().as_nanos() as f64);
        check("DREAM-Full", metrics.fingerprint());
        if trace {
            for policy in figure7() {
                let mut timed = Timed::new(policy);
                let metrics = replay(&mut timed)?;
                let uxcost = UxCostReport::from_metrics(&metrics).uxcost();
                replays.push((timed.name().to_string(), timed.stats(), uxcost));
            }
            let mut dream = tuned(DreamVariant::Full);
            dream.enable_stage_timing();
            check("stage-timed DREAM-Full", replay(&mut dream)?.fingerprint());
            stages = dream.stage_timings();
        }
    }

    let wire = trace.then(|| wire_costs(&plan, &read.replies, version));
    let sched = trace.then(|| *sink.lock().expect("wrapper sink poisoned"));
    Ok(Step {
        accel,
        rate: accel * scenario_fps(),
        setup_s,
        ack_us: stats::sorted(read.ack_us),
        snapshot_us: stats::sorted(read.snapshot_us),
        late_ms: stats::sorted(written.late_ms),
        write_ns: written.write_ns,
        funnel,
        ingress_backlog,
        event_backlog,
        replay_rate,
        sources: report.sources,
        metrics: report.outcome.metrics().clone(),
        engine_wall_ns,
        profile: report.profile,
        sched,
        wire,
        replays,
        stages,
        errors,
    })
}

/// Root frames per virtual second of the served scenario (135).
pub fn scenario_fps() -> f64 {
    scenario()
        .pipelines()
        .iter()
        .flat_map(|p| p.roots().map(|(_, n)| n.rate.as_fps()))
        .sum()
}

/// Everything a serve run measured.
#[derive(Debug)]
pub struct ServeRun {
    /// The ladder, in order.
    pub steps: Vec<Step>,
    /// The traced nominal step (traced runs).
    pub traced: Option<Step>,
    /// The probe's own cost.
    pub span: SpanCost,
    /// Building the served workload's tables, ms (traced runs).
    pub build_ms: Option<f64>,
    /// Tuning the served DREAM levels, ms.
    pub tune_ms: f64,
    /// Set-up times of the probe nodes, seconds (the steps add theirs).
    pub setup_s: Vec<f64>,
}

impl ServeRun {
    /// The untraced nominal step.
    pub fn nominal(&self) -> &Step {
        self.steps
            .iter()
            .find(|s| s.accel == NOMINAL)
            .expect("the ladder holds the nominal step")
    }
}

/// Runs the ladder; traced runs add one traced nominal step.
///
/// # Errors
///
/// A machine too small for the generator, or a step that failed to set
/// up or drain.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<ServeRun, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if LOAD_THREADS > nproc || CONNECTIONS > nproc {
        return Err(format!(
            "the generator needs {LOAD_THREADS} load threads and {CONNECTIONS} connection(s) \
             within {nproc} core(s)"
        ));
    }
    let span = SpanCost::measure();
    // Tune before the first step so no step's set-up pays for it.
    let t0 = Instant::now();
    let variants: &[DreamVariant] = if trace {
        &VARIANTS
    } else {
        &[DreamVariant::Full]
    };
    for &variant in variants {
        std::hint::black_box(tuned(variant));
    }
    let tune_ms = t0.elapsed().as_secs_f64() * 1.0e3;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_PROBES {
        setup_s.push(probe_setup(seed)?);
    }
    let step_wall = |share: f64| Duration::from_secs_f64(seconds as f64 * share);
    let mut steps = Vec::new();
    for (accel, share) in LADDER {
        steps.push(run_step(accel, step_wall(share), seed, false)?);
    }
    let traced = if trace {
        Some(run_step(NOMINAL, step_wall(TRACED_SHARE), seed, true)?)
    } else {
        None
    };
    // The node builds its tables inside `ServeEngine::new`; time the same
    // public builder on its own for the cost layer.
    let build_ms = trace.then(|| {
        let reps: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let built = LiveSessionBuilder::new(Platform::preset(PRESET), scenario())
                    .seed(seed)
                    .build_workload()
                    .expect("the served workload is buildable");
                std::hint::black_box(built);
                t0.elapsed().as_secs_f64() * 1.0e3
            })
            .collect();
        stats::median_of(&reps).expect("three repetitions")
    });
    Ok(ServeRun {
        steps,
        traced,
        span,
        build_ms,
        tune_ms,
        setup_s,
    })
}
