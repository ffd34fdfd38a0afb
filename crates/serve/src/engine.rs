//! The serving loop: drains the ingress every tick, stamps requests onto
//! the virtual clock, steps the [`LiveSession`], and publishes
//! [`MetricsSnapshot`]s.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dream_cost::{AcceleratorId, CostBackend, CostModel, Platform};
use dream_models::Scenario;
use dream_sim::live::DEFAULT_HORIZON_CAP_NS;
use dream_sim::{
    FaultKind, Histogram, LiveError, LiveSession, LiveSessionRecord, Metrics, Scheduler,
    SimOutcome, SimTime, SimulationBuilder, TraceConfig,
};

use crate::clock::{ServeClock, WallClock};
use crate::ingress::{AdmissionPolicy, ChannelClient, Ingress, Request, SourceStats};
use crate::watch::{watch_channel, WatchReceiver, WatchSender};

/// Configuration of a serving session.
pub struct ServeConfig {
    /// Hardware platform.
    pub platform: Platform,
    /// The initial scenario.
    pub scenario: Scenario,
    /// Workload-realization seed.
    pub seed: u64,
    /// Cost backend pricing the session.
    pub cost: Arc<dyn CostBackend>,
    /// Hard virtual horizon (sessions end here even without a drain).
    pub horizon_cap: SimTime,
    /// Virtual-time source.
    pub clock: Arc<dyn ServeClock>,
    /// Wall-clock pause between serving ticks.
    pub tick: Duration,
    /// Bounded ingress queue capacity.
    pub queue_capacity: usize,
    /// What happens when the queue is full.
    pub policy: AdmissionPolicy,
    /// At most this many requests are admitted per tick; the excess stays
    /// queued and is subject to the admission policy — the knob that keeps
    /// the *engine's* queues bounded under overload, the way the queue
    /// capacity bounds the ingress itself.
    pub max_admissions_per_tick: usize,
    /// Publish a snapshot every this many ticks (1 = every tick).
    pub snapshot_every: u32,
    /// Attach the deterministic flight recorder to the session (see
    /// [`dream_sim::TraceConfig`]); the [`SessionReport`]'s outcome then
    /// carries the [`dream_sim::Trace`]. `None` (the default) keeps the
    /// trace seam inert.
    pub trace: Option<TraceConfig>,
}

impl ServeConfig {
    /// Defaults: real-time wall clock, 1 ms ticks, a 4096-deep
    /// shed-oldest queue, unbounded per-tick admissions, snapshots every
    /// 16 ticks.
    pub fn new(platform: Platform, scenario: Scenario) -> Self {
        ServeConfig {
            platform,
            scenario,
            seed: 0,
            cost: Arc::new(CostModel::paper_default()),
            horizon_cap: SimTime::from_ns(DEFAULT_HORIZON_CAP_NS),
            clock: Arc::new(WallClock::new()),
            tick: Duration::from_millis(1),
            queue_capacity: 4096,
            policy: AdmissionPolicy::ShedOldest,
            max_admissions_per_tick: usize::MAX,
            snapshot_every: 16,
            trace: None,
        }
    }
}

/// A control command traveling beside the data path (never subject to the
/// data queue's bounds).
enum Control {
    Swap(Scenario),
    Fault {
        acc: AcceleratorId,
        kind: FaultKind,
        at: Option<SimTime>,
    },
    Drain,
}

struct ControlQueue {
    queue: Mutex<VecDeque<Control>>,
}

/// A point-in-time view of the serving session, published over the watch
/// channel: cumulative scheduling [`Metrics`] plus the live state the
/// batch simulator never has — ingress backlog, in-flight depths, and the
/// admission funnel.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Serving ticks elapsed.
    pub tick: u64,
    /// The virtual frontier: instants at or before this are fully
    /// scheduled.
    pub frontier: SimTime,
    /// The engine's current virtual instant (≤ frontier).
    pub now: SimTime,
    /// The phase requests currently target.
    pub phase: usize,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Requests waiting in the ingress queue.
    pub ingress_backlog: usize,
    /// Tasks ready for dispatch inside the engine.
    pub ready_tasks: usize,
    /// Layers executing right now.
    pub running_layers: usize,
    /// Events pending in the engine's queue — admitted arrivals not yet
    /// processed, completions in flight, and phase/horizon bookkeeping.
    pub event_backlog: usize,
    /// Total arrivals admitted so far.
    pub admitted: u64,
    /// Total requests shed from the bounded queue.
    pub shed: u64,
    /// Total requests rejected (capacity, invalid, or closed).
    pub rejected: u64,
    /// Per-source admission-funnel counters.
    pub sources: Vec<SourceStats>,
    /// Pooled per-request sojourn percentiles, in ms (p50, p95, p99);
    /// `None` until something completes. Served from the bounded
    /// per-model [`Histogram`]s the engine maintains as completions are
    /// recorded, so snapshot cost is O(buckets) regardless of session
    /// length (quantiles are sub-bucket upper bounds: ≥ the exact sample
    /// and at most 12.5% above it — see [`Histogram::quantile`]).
    pub sojourn_ms: [Option<f64>; 3],
    /// All models' sojourn histograms merged into one pooled view — the
    /// mergeable form the wire `Snapshot` reply ships and the coordinator
    /// aggregates across workers.
    pub sojourn_hist: Histogram,
    /// Wall-clock profile of the serving loop's stages, cumulative since
    /// session start.
    pub profile: StageProfile,
    /// The cumulative scheduling metrics. Their size is fixed by the
    /// workload, not by the session's length.
    pub metrics: Metrics,
}

/// Cumulative wall-clock spent in each stage of the serving loop's tick,
/// measured at the serve clock seam (virtual time never sees these reads;
/// simulation outcomes are unaffected). Published with every
/// [`MetricsSnapshot`] and returned in the final [`SessionReport`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageProfile {
    /// Ticks measured.
    pub ticks: u64,
    /// Draining the ingress queue and admitting requests into the session.
    pub admit_ns: u64,
    /// Applying control commands (swaps, faults, drain orders).
    pub control_ns: u64,
    /// Stepping the engine to the frontier.
    pub step_ns: u64,
    /// Building and publishing metrics snapshots.
    pub publish_ns: u64,
}

impl StageProfile {
    /// Total measured tick time.
    pub fn total_ns(&self) -> u64 {
        self.admit_ns + self.control_ns + self.step_ns + self.publish_ns
    }
}

/// What a completed session hands back.
pub struct SessionReport {
    /// Final metrics (bit-identical to a batch replay of `record`).
    pub outcome: SimOutcome,
    /// The replayable session record (phase schedule + arrival trace).
    pub record: LiveSessionRecord,
    /// Final per-source admission accounting.
    pub sources: Vec<SourceStats>,
    /// Serving ticks executed.
    pub ticks: u64,
    /// Wall-clock stage profile of the whole session.
    pub profile: StageProfile,
}

/// A cloneable handle for feeding and steering a running [`ServeEngine`].
#[derive(Clone)]
pub struct ServeHandle {
    ingress: Arc<Ingress>,
    control: Arc<ControlQueue>,
    snapshots: WatchReceiver<MetricsSnapshot>,
}

impl ServeHandle {
    /// Registers a new ingress source and returns its client handle. The
    /// label is the source's row in [`SourceStats`] listings; in-process
    /// callers conventionally use `channel:<name>` (the socket listeners
    /// register as `tcp:<peer>` / `unix:<path>`).
    pub fn client(&self, label: impl Into<String>) -> ChannelClient {
        ChannelClient {
            source: self.ingress.register(label),
            ingress: Arc::clone(&self.ingress),
        }
    }

    /// Orders a scenario hot-swap. Takes effect at the next tick; if the
    /// previous swap's boundary has not been reached yet the command is
    /// retried tick by tick until it applies.
    pub fn swap(&self, scenario: Scenario) {
        self.control
            .queue
            .lock()
            .expect("control queue poisoned")
            .push_back(Control::Swap(scenario));
    }

    /// Orders a fault injection at the admitting tick's frontier (the
    /// earliest legally stampable instant). Chaos is fire-and-forget:
    /// faults against out-of-range accelerators or finished sessions are
    /// dropped, not errors — the injector races the session by design.
    pub fn fault(&self, acc: AcceleratorId, kind: FaultKind) {
        self.control
            .queue
            .lock()
            .expect("control queue poisoned")
            .push_back(Control::Fault {
                acc,
                kind,
                at: None,
            });
    }

    /// Orders a fault injection at an explicit virtual instant (clamped
    /// into the open window like a stamped request).
    pub fn fault_at(&self, acc: AcceleratorId, kind: FaultKind, at: SimTime) {
        self.control
            .queue
            .lock()
            .expect("control queue poisoned")
            .push_back(Control::Fault {
                acc,
                kind,
                at: Some(at),
            });
    }

    /// Orders a graceful drain: admissions stop, in-flight work completes,
    /// the session finishes and [`ServeEngine::run`] returns.
    pub fn drain(&self) {
        self.control
            .queue
            .lock()
            .expect("control queue poisoned")
            .push_back(Control::Drain);
    }

    /// A receiver over the session's snapshot stream.
    pub fn snapshots(&self) -> WatchReceiver<MetricsSnapshot> {
        self.snapshots.clone()
    }

    /// Whether the serving loop has shut its ingress (drained or dropped).
    pub fn is_closed(&self) -> bool {
        self.ingress.is_closed()
    }
}

/// The live serving runtime: owns a [`LiveSession`] and drives it from
/// the ingress against the configured clock. See the crate docs for the
/// execution model.
pub struct ServeEngine {
    session: LiveSession,
    clock: Arc<dyn ServeClock>,
    tick: Duration,
    max_admissions_per_tick: usize,
    snapshot_every: u32,
    ingress: Arc<Ingress>,
    control: Arc<ControlQueue>,
    publisher: WatchSender<MetricsSnapshot>,
    ticks: u64,
    scratch: Vec<Request>,
    profile: StageProfile,
}

impl ServeEngine {
    /// Builds the engine and its handle. The session (and its offline
    /// cost tables) is constructed here, so configuration errors surface
    /// before any traffic flows.
    ///
    /// # Errors
    ///
    /// Propagates [`LiveError`] from session construction (uncostable
    /// scenario, zero horizon).
    pub fn new(
        config: ServeConfig,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<(ServeEngine, ServeHandle), LiveError> {
        let mut builder = SimulationBuilder::new(config.platform, config.scenario)
            .seed(config.seed)
            .cost_backend(config.cost)
            .duration(config.horizon_cap);
        if let Some(trace) = config.trace {
            builder = builder.trace(trace);
        }
        let session = builder.start_live(scheduler)?;
        let ingress = Ingress::new(config.queue_capacity, config.policy);
        let control = Arc::new(ControlQueue {
            queue: Mutex::new(VecDeque::new()),
        });
        let (publisher, snapshots) = watch_channel();
        let handle = ServeHandle {
            ingress: Arc::clone(&ingress),
            control: Arc::clone(&control),
            snapshots,
        };
        Ok((
            ServeEngine {
                session,
                clock: config.clock,
                tick: config.tick,
                max_admissions_per_tick: config.max_admissions_per_tick.max(1),
                snapshot_every: config.snapshot_every.max(1),
                ingress,
                control,
                publisher,
                ticks: 0,
                scratch: Vec::new(),
                profile: StageProfile::default(),
            },
            handle,
        ))
    }

    /// Runs the serving loop until the session drains (or hits the
    /// horizon cap), then returns the report. Blocks the calling thread;
    /// spawn it to serve in the background.
    ///
    /// # Errors
    ///
    /// Propagates [`LiveError`] from the final drain (cannot occur for a
    /// session this engine has driven itself).
    pub fn run(mut self) -> Result<SessionReport, LiveError> {
        loop {
            let finished = self.run_tick()?;
            if finished {
                break;
            }
            std::thread::sleep(self.tick);
        }
        self.ingress.close();
        let ticks = self.ticks;
        let sources = self.ingress.stats();
        self.publish_snapshot();
        let profile = self.profile;
        let (outcome, record) = self.session.finish()?;
        Ok(SessionReport {
            outcome,
            record,
            sources,
            ticks,
            profile,
        })
    }

    /// One serving tick: stamp + admit queued requests, apply control
    /// commands, step to the frontier, publish. Returns whether the
    /// session is done. Exposed crate-internally for deterministic tests.
    pub(crate) fn run_tick(&mut self) -> Result<bool, LiveError> {
        self.ticks += 1;
        self.profile.ticks += 1;
        // Stage profiling reads the wall clock directly: it measures the
        // serving loop itself (the same side of the clock seam the tick
        // sleep lives on) and never feeds virtual time or a decision.
        #[allow(clippy::disallowed_methods)]
        // detlint: allow(wall-clock) -- stage profiling at the serve clock seam; never feeds a decision
        let t0 = std::time::Instant::now();
        // The frontier: the clock, but never behind what the session has
        // already closed (a stalled clock must not stall admission).
        let frontier = self.clock.now().max(self.session.next_stamp());

        // 1. Data: admit up to the per-tick budget.
        self.scratch.clear();
        self.ingress
            .drain(self.max_admissions_per_tick, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let req = self.scratch[i];
            let stamp = req.at.unwrap_or(frontier);
            match self.session.admit(req.pipeline, req.node, stamp) {
                Ok(admission) => {
                    self.ingress
                        .record_admitted(req.source, admission.at != stamp);
                }
                Err(LiveError::UnknownModel { .. }) | Err(LiveError::PastHorizon { .. }) => {
                    self.ingress.record_invalid(req.source);
                }
                Err(LiveError::Draining) | Err(LiveError::Finished) => {
                    self.ingress.record_closed_rejection(req.source);
                }
                Err(other) => return Err(other),
            }
        }

        #[allow(clippy::disallowed_methods)]
        // detlint: allow(wall-clock) -- stage profiling at the serve clock seam; never feeds a decision
        let t1 = std::time::Instant::now();
        self.profile.admit_ns += (t1 - t0).as_nanos() as u64;

        // 2. Control: swaps and drains, in order. A swap blocked on a
        //    pending boundary goes back to the front and is retried next
        //    tick; everything behind it waits so command order holds.
        let mut drain_ordered = false;
        loop {
            let cmd = self
                .control
                .queue
                .lock()
                .expect("control queue poisoned")
                .pop_front();
            match cmd {
                None => break,
                Some(Control::Drain) => {
                    drain_ordered = true;
                    break;
                }
                Some(Control::Swap(scenario)) => {
                    match self.session.swap_scenario(scenario.clone(), frontier) {
                        Ok(_) => {}
                        Err(LiveError::SwapPending { .. }) => {
                            self.control
                                .queue
                                .lock()
                                .expect("control queue poisoned")
                                .push_front(Control::Swap(scenario));
                            break;
                        }
                        Err(LiveError::Draining) | Err(LiveError::Finished) => {}
                        Err(e) => return Err(e),
                    }
                }
                Some(Control::Fault { acc, kind, at }) => {
                    // Chaos is fire-and-forget: a fault the session can no
                    // longer take (finished, past the horizon, bad target)
                    // is dropped — the injector has no claim on timing.
                    match self.session.admit_fault(acc, kind, at.unwrap_or(frontier)) {
                        Ok(_)
                        | Err(LiveError::Finished)
                        | Err(LiveError::PastHorizon { .. })
                        | Err(LiveError::Sim(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }

        #[allow(clippy::disallowed_methods)]
        // detlint: allow(wall-clock) -- stage profiling at the serve clock seam; never feeds a decision
        let t2 = std::time::Instant::now();
        self.profile.control_ns += (t2 - t1).as_nanos() as u64;

        // 3. Step the session to the frontier.
        self.session.step_until(frontier);

        if drain_ordered && !self.session.is_draining() && !self.session.is_finished() {
            match self.session.begin_drain(self.session.next_stamp()) {
                Ok(horizon) => {
                    // No admission can precede the resolved horizon now:
                    // shut the ingress and fast-forward the drain — the
                    // wall clock has nothing left to gate.
                    self.ingress.close();
                    self.session.step_until(horizon);
                }
                Err(LiveError::SwapPending { boundary }) => {
                    // A swap boundary is still outstanding. The user wants
                    // out: fast-forward virtual time across the boundary
                    // and drain from there.
                    self.session.step_until(boundary);
                    let horizon = self.session.begin_drain(self.session.next_stamp())?;
                    self.ingress.close();
                    self.session.step_until(horizon);
                }
                Err(e) => return Err(e),
            }
        }

        #[allow(clippy::disallowed_methods)]
        // detlint: allow(wall-clock) -- stage profiling at the serve clock seam; never feeds a decision
        let t3 = std::time::Instant::now();
        self.profile.step_ns += (t3 - t2).as_nanos() as u64;

        if self.ticks.is_multiple_of(u64::from(self.snapshot_every)) {
            self.publish_snapshot();
        }
        self.profile.publish_ns += t3.elapsed().as_nanos() as u64;
        Ok(self.session.is_finished())
    }

    fn publish_snapshot(&mut self) {
        // One lock acquisition for stats + backlog, so every published
        // snapshot satisfies the funnel identity even while peers submit.
        let (sources, ingress_backlog) = self.ingress.funnel_snapshot();
        let admitted = sources.iter().map(|s| s.admitted).sum();
        let shed = sources.iter().map(|s| s.shed).sum();
        let rejected = sources
            .iter()
            .map(|s| s.rejected_capacity + s.rejected_invalid + s.rejected_closed)
            .sum();
        // The engine folds every completion into bounded per-model
        // histograms as it runs; merging them is O(models × buckets) per
        // snapshot, never O(session length) — and unlike the former
        // sliding sample window, the merged form is exact over the whole
        // session and mergeable again across workers.
        let live = self.session.live_metrics();
        let sojourn_hist = live.sojourn_histogram();
        let sojourn_ms = [
            sojourn_hist.quantile_ms(0.50),
            sojourn_hist.quantile_ms(0.95),
            sojourn_hist.quantile_ms(0.99),
        ];
        let metrics = live.clone();
        self.publisher.publish(MetricsSnapshot {
            tick: self.ticks,
            frontier: self.session.closed().unwrap_or(SimTime::ZERO),
            now: self.session.now(),
            phase: self.session.current_phase(),
            draining: self.session.is_draining(),
            ingress_backlog,
            ready_tasks: self.session.ready_count(),
            running_layers: self.session.running_count(),
            event_backlog: self.session.event_queue_depth(),
            admitted,
            shed,
            rejected,
            sources,
            sojourn_ms,
            sojourn_hist,
            profile: self.profile,
            metrics,
        });
    }
}
