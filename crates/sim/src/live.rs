//! Live, incrementally stepped simulation sessions — the substrate of the
//! `dream-serve` runtime.
//!
//! A [`LiveSession`] runs the same staged engine as
//! [`SimulationBuilder::run`](crate::SimulationBuilder::run), but instead
//! of resolving the whole arrival horizon up front it takes its inputs
//! *as they happen* and advances virtual time in bounded slices
//! ([`LiveSession::step_until`]). Every input is one [`SessionInput`] —
//! a root-frame admission, an accelerator fault, a scenario hot-swap or a
//! graceful drain — and [`LiveSession::apply`] is the only way in.
//!
//! A session is configured by the same [`SimulationBuilder`] as a batch
//! run and started with its
//! [`start_live`](SimulationBuilder::start_live) terminal method. The
//! builder's [`duration`](SimulationBuilder::duration) is the session's
//! horizon cap; pass [`DEFAULT_HORIZON_CAP_NS`] for an effectively
//! open-ended session. Later phases come from [`SessionInput::Swap`] and
//! arrivals from [`SessionInput::Admit`], so `start_live` refuses added
//! phases and an explicit arrival source rather than ignore them.
//!
//! # The replay-equivalence guarantee
//!
//! Every applied input is logged with its effective stamp, and
//! [`LiveSession::finish`] returns a [`LiveSessionRecord`] — a header
//! (platform, cost backend, seed, cap, initial scenario and fault plan)
//! plus that log. Its [`replay`](LiveSessionRecord::replay) re-runs the
//! session through the ordinary batch simulator (`TraceArrivals` over the
//! logged admissions, the logged swaps as phases, the logged faults
//! after the initial plan, the drain's horizon). The two runs produce
//! **bit-identical** [`Metrics`] — the live path is not an approximation
//! of the simulator, it *is* the simulator, fed incrementally. Three
//! mechanisms make this exact:
//!
//! 1. **Canonical intra-instant event order** (see the `event` module):
//!    simultaneous events process by kind rank and model key, never by
//!    push order, so injecting an arrival when it is admitted (live) and
//!    pushing it from the trace recurrence (batch) yield the same
//!    processing sequence.
//! 2. **A closed frontier**: [`step_until`](LiveSession::step_until)
//!    processes events only up to the caller's frontier, and every input
//!    is clamped strictly past it — an instant is scheduled only once
//!    every input that can land on it is known.
//! 3. **Boundary slack**: a swap or drain stamped `t` takes effect at
//!    `max(t, latest admitted stamp) + max node period` — far enough out
//!    that every release decision made *before* the boundary was known
//!    (deadline-vs-window censoring) is the one the batch replay, which
//!    knows the whole schedule from the start, also makes. Releases
//!    processed after the input see the rebuilt phase windows
//!    immediately.
//!
//! Phase windows are data, not identity: extending a workload with a new
//! phase re-registers earlier phases' layers in the same order, so every
//! existing [`LayerId`](crate::LayerId), node key, and cost-table row is
//! unchanged (asserted by `prefix_tables_survive_phase_extension` below) —
//! in-flight tasks keep their meaning across a swap.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use dream_cost::{CostBackend, Platform};
use dream_models::{NodeId, PipelineId, Scenario};
use dream_trace::TraceConfig;

use crate::arrivals::{ArrivalSource, ArrivalTrace, TraceArrivals};
use crate::determ::DeterministicCoin;
use crate::engine::{Engine, SimOutcome, SimulationBuilder, StepStatus};
use crate::event::EventKind;
use crate::faults::{FaultEvent, FaultPlan, FaultRuntime};
use crate::metrics::Metrics;
use crate::scheduler::Scheduler;
use crate::workload::{ModelKey, NodeInfo, Phase, WorkloadSet};
use crate::{SimError, SimTime};

/// The horizon cap for open-ended sessions (pass it to
/// [`SimulationBuilder::duration`]): far enough out that no realistic
/// session reaches it (≈146 virtual years), small
/// enough that `deadline = arrival + period` can never saturate.
pub const DEFAULT_HORIZON_CAP_NS: u64 = 1 << 62;

/// Errors produced by live-session operations.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// The admitted key does not name a root node of the current phase's
    /// scenario (unknown pipeline/node, or a cascade child — children are
    /// released by their parents, not by external requests).
    UnknownModel {
        /// Description of the rejected key.
        reason: String,
    },
    /// The session is draining; no further admissions or swaps.
    Draining,
    /// The session already finished.
    Finished,
    /// The swap cannot take effect because the previously ordered phase
    /// boundary has not been reached yet.
    SwapPending {
        /// When the pending phase starts.
        boundary: SimTime,
    },
    /// The stamp (or the boundary it implies) lies at/after the session's
    /// horizon cap.
    PastHorizon {
        /// The offending instant.
        at: SimTime,
        /// The horizon it collided with.
        horizon: SimTime,
    },
    /// Propagated simulator error (workload build/validation).
    Sim(SimError),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::UnknownModel { reason } => write!(f, "unknown model: {reason}"),
            LiveError::Draining => write!(f, "session is draining"),
            LiveError::Finished => write!(f, "session already finished"),
            LiveError::SwapPending { boundary } => {
                write!(f, "previous phase boundary at {boundary} not reached yet")
            }
            LiveError::PastHorizon { at, horizon } => {
                write!(
                    f,
                    "instant {at} lies at/after the session horizon {horizon}"
                )
            }
            LiveError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl Error for LiveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LiveError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for LiveError {
    fn from(e: SimError) -> Self {
        LiveError::Sim(e)
    }
}

/// The arrival source of a live engine: it never generates arrivals — the
/// session injects admitted requests as events directly.
#[derive(Debug, Clone, Copy, Default)]
struct LiveArrivals;

impl ArrivalSource for LiveArrivals {
    fn name(&self) -> &str {
        "live"
    }

    fn first_arrival(
        &mut self,
        _node: &NodeInfo,
        _phase: &Phase,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        None
    }

    fn next_arrival(
        &mut self,
        _node: &NodeInfo,
        _phase: &Phase,
        _frame: u64,
        _prev: SimTime,
        _coin: &DeterministicCoin,
    ) -> Option<SimTime> {
        None
    }
}

// Kept only so the benchmark crate compiles unedited; the next change to
// the benchmark moves it onto `SimulationBuilder` and deletes this.
#[doc(hidden)]
#[derive(Debug)]
pub struct LiveSessionBuilder;

impl LiveSessionBuilder {
    /// A [`SimulationBuilder`] with the open-ended live horizon cap.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(platform: Platform, scenario: Scenario) -> SimulationBuilder {
        SimulationBuilder::new(platform, scenario)
            .duration(SimTime::from_ns(DEFAULT_HORIZON_CAP_NS))
    }
}

impl SimulationBuilder {
    /// Starts a live session under `scheduler`, serving the builder's
    /// scenario from time 0. The builder's
    /// [`duration`](Self::duration) is the session's horizon cap; its
    /// seed, cost backend, prebuilt workload, fault plan and flight
    /// recorder apply as in [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroDuration`] for a zero horizon cap.
    /// * [`SimError::InvalidPhase`] when phases were added: a live
    ///   session's later phases come from [`SessionInput::Swap`].
    /// * [`SimError::InvalidTrace`] when an arrival source was installed:
    ///   a live session's arrivals come from [`SessionInput::Admit`].
    /// * [`SimError::WorkloadMismatch`] for a prebuilt workload that does
    ///   not match the configuration, [`SimError::InvalidFault`] for an
    ///   invalid fault plan, and an uncostable scenario's error.
    ///
    /// Each arrives wrapped in [`LiveError::Sim`].
    pub fn start_live(self, scheduler: Box<dyn Scheduler>) -> Result<LiveSession, LiveError> {
        if self.arrivals.is_some() {
            return Err(SimError::InvalidTrace {
                reason: "a live session takes its arrivals from admissions, not an arrival source"
                    .into(),
            }
            .into());
        }
        if self.phases.len() > 1 {
            return Err(SimError::InvalidPhase {
                reason: "a live session starts with one phase; swaps add the rest".into(),
            }
            .into());
        }
        let ws = self.workload()?;
        if let Some(plan) = &self.faults {
            plan.validate(self.platform.len())?;
        }
        let cap = self.duration;
        let mut engine = Engine::new(
            ws,
            self.platform.clone(),
            Arc::clone(&self.cost),
            self.seed,
            cap,
            Box::new(LiveArrivals),
            self.faults.clone(),
            self.trace,
        );
        engine
            .queue
            .push(SimTime::ZERO, EventKind::PhaseStart { phase: 0 });
        engine.queue.push(cap, EventKind::End);
        engine.seed_fault_events(0);
        Ok(LiveSession {
            engine,
            scheduler,
            header: Header {
                platform: self.platform,
                cost: self.cost,
                seed: self.seed,
                cap,
                scenario: self.phases[0].1.clone(),
                faults: self.faults.unwrap_or_default(),
            },
            log: Vec::new(),
            phase: 0,
            phase_start: SimTime::ZERO,
            closed: None,
            streams: BTreeMap::new(),
            max_admitted: SimTime::ZERO,
            horizon: None,
            finished: false,
        })
    }
}

/// One input to a live session, carrying its stamp: the only way into a
/// [`LiveSession`] (through [`apply`](LiveSession::apply)) and the unit
/// of a [`LiveSessionRecord`]'s log. Handed to `apply`, the stamp is a
/// request the session clamps; in a record's
/// [`inputs`](LiveSessionRecord::inputs) it is the effective instant.
///
/// An admission is as small as the `(SimTime, ModelKey)` pair a trace
/// stores (its phase follows from the swaps before it in a log); the rare
/// fault and swap payloads are boxed so they never grow it.
#[derive(Debug, Clone)]
pub enum SessionInput {
    /// One root-frame request for `(pipeline, node)` of the current
    /// phase's scenario. Its effective instant is `at` clamped (upward)
    /// to the current phase's start, strictly past the closed frontier,
    /// and to the key's latest prior admission — so the log is always a
    /// valid, per-key time-ordered trace.
    Admit {
        /// Pipeline of the target model.
        pipeline: PipelineId,
        /// Root node of the target model.
        node: NodeId,
        /// The stamp.
        at: SimTime,
    },
    /// A fault against an accelerator, appended to the session's fault
    /// plan after every earlier one (the plan index is the event tie
    /// key, so log order is plan order). Its stamp is clamped strictly
    /// past the closed frontier. Faults stay open during a drain —
    /// chaos does not respect shutdown windows.
    Fault(Box<FaultEvent>),
    /// A scenario hot-swap: the current phase ends at the boundary the
    /// stamp implies and `scenario` starts there. Admissions after the
    /// swap target the new scenario (stamps clamp up to the boundary);
    /// in-flight frames of the old phase drain under the usual
    /// phase-flush rules.
    Swap {
        /// The stamp (in a log: the boundary).
        at: SimTime,
        /// The scenario served from the boundary on.
        scenario: Box<Scenario>,
    },
    /// A graceful drain: admissions and swaps stop, and the horizon
    /// resolves to the boundary the stamp implies — late enough that every
    /// admitted frame's deadline falls at or before it, so no in-flight
    /// work is censored by the shutdown itself. A drain stamped before a
    /// pending swap boundary first steps the session across it: the new
    /// phase starts, then drains.
    Drain {
        /// The stamp (in a log: the resolved horizon).
        at: SimTime,
    },
}

/// Where an applied [`SessionInput`] took effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The effective instant: an admission's or fault's clamped stamp, a
    /// swap's phase boundary, a drain's resolved horizon.
    pub at: SimTime,
    /// For an admission, the frame index assigned within its key's
    /// stream; `None` for every other input.
    pub frame: Option<u64>,
}

/// What a [`LiveSession::step_until`] call left the session in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveStatus {
    /// The session is still accepting work.
    Running,
    /// The horizon fired; only [`LiveSession::finish`] remains.
    Finished,
}

/// What replaying a session needs beside its input log.
#[derive(Debug, Clone)]
struct Header {
    platform: Platform,
    cost: Arc<dyn CostBackend>,
    seed: u64,
    cap: SimTime,
    /// The scenario served from time 0.
    scenario: Scenario,
    /// The fault plan the session started with; logged faults follow it.
    faults: FaultPlan,
}

/// A long-running, event-driven simulation session.
///
/// See the [module docs](self) for the execution model and the
/// replay-equivalence guarantee.
pub struct LiveSession {
    engine: Engine,
    scheduler: Box<dyn Scheduler>,
    header: Header,
    /// Every applied input with its effective stamp — the session
    /// recorder.
    log: Vec<SessionInput>,
    /// The phase admissions target, and its start.
    phase: usize,
    phase_start: SimTime,
    /// Instants at or before this are fully processed; inputs must land
    /// strictly after it. `None` until the first step.
    closed: Option<SimTime>,
    /// Per key: the latest admitted stamp (admissions are per-key
    /// non-decreasing, so admission order equals replay order) and the
    /// next frame index.
    streams: BTreeMap<ModelKey, (SimTime, u64)>,
    /// Latest stamp over all admissions (bounds every outstanding
    /// deadline via the max-period slack).
    max_admitted: SimTime,
    /// Resolved by a drain.
    horizon: Option<SimTime>,
    finished: bool,
}

impl fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveSession")
            .field("now", &self.engine.now)
            .field("closed", &self.closed)
            .field("phase", &self.phase)
            .field("inputs", &self.log.len())
            .field("horizon", &self.horizon)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl LiveSession {
    /// Applies one input and logs it with its effective stamp; see
    /// [`SessionInput`] for what each variant does and how its stamp is
    /// clamped.
    ///
    /// # Errors
    ///
    /// A refused input is not logged:
    ///
    /// * [`LiveError::Finished`] after the horizon fired;
    /// * [`LiveError::Draining`] for an admission or swap after a drain;
    /// * [`LiveError::UnknownModel`] for an admission whose key is not a
    ///   current-phase root;
    /// * [`LiveError::SwapPending`] for a swap while a previously ordered
    ///   boundary has not been reached;
    /// * [`LiveError::PastHorizon`] when the effective instant (a swap's
    ///   boundary) would land at/after the horizon;
    /// * a wrapped [`SimError::InvalidFault`] for a fault against an
    ///   out-of-range accelerator or with a non-finite / sub-unity
    ///   slowdown factor.
    pub fn apply(&mut self, input: SessionInput) -> Result<Applied, LiveError> {
        if self.finished {
            return Err(LiveError::Finished);
        }
        let (at, frame) = match input {
            SessionInput::Admit { pipeline, node, at } => {
                let (at, frame) = self.admit(pipeline, node, at)?;
                (at, Some(frame))
            }
            SessionInput::Fault(fault) => (self.fault(fault)?, None),
            SessionInput::Swap { at, scenario } => (self.swap(scenario, at)?, None),
            SessionInput::Drain { at } => (self.drain(at)?, None),
        };
        Ok(Applied { at, frame })
    }

    fn admit(
        &mut self,
        pipeline: PipelineId,
        node: NodeId,
        stamp: SimTime,
    ) -> Result<(SimTime, u64), LiveError> {
        if self.horizon.is_some() {
            return Err(LiveError::Draining);
        }
        let key = ModelKey {
            phase: self.phase,
            pipeline,
            node,
        };
        let info = self
            .engine
            .ws
            .try_node(key)
            .ok_or_else(|| LiveError::UnknownModel {
                reason: format!("{key} does not exist in the current scenario"),
            })?;
        if info.parent().is_some() {
            return Err(LiveError::UnknownModel {
                reason: format!("{key} is a cascade child; only root nodes take external requests"),
            });
        }
        let mut at = stamp.max(self.phase_start).max(self.next_stamp());
        let stream = self.streams.get(&key).copied();
        if let Some((prev, _)) = stream {
            at = at.max(prev);
        }
        if at >= self.header.cap {
            return Err(LiveError::PastHorizon {
                at,
                horizon: self.header.cap,
            });
        }
        let frame = stream.map_or(0, |(_, next)| next);
        self.engine.queue.push(
            at,
            EventKind::FrameArrival {
                phase: self.phase,
                pipeline,
                node,
                frame,
            },
        );
        self.log.push(SessionInput::Admit { pipeline, node, at });
        self.streams.insert(key, (at, frame + 1));
        self.max_admitted = self.max_admitted.max(at);
        Ok((at, frame))
    }

    fn fault(&mut self, mut fault: Box<FaultEvent>) -> Result<SimTime, LiveError> {
        let accelerators = self.header.platform.len();
        fault
            .check(accelerators)
            .map_err(|reason| SimError::InvalidFault { reason })?;
        let at = fault.at.max(self.next_stamp());
        let horizon = self.engine.horizon;
        if at >= horizon {
            return Err(LiveError::PastHorizon { at, horizon });
        }
        fault.at = at;
        let idx = self
            .engine
            .faults
            .get_or_insert_with(|| Box::new(FaultRuntime::new(FaultPlan::new(), accelerators)))
            .push_live(*fault);
        self.engine.seed_fault_events(idx);
        self.log.push(SessionInput::Fault(fault));
        Ok(at)
    }

    fn swap(&mut self, scenario: Box<Scenario>, stamp: SimTime) -> Result<SimTime, LiveError> {
        let at = self.order_stamp(stamp)?;
        let boundary = self.boundary_for(at);
        let cap = self.header.cap;
        if boundary >= cap {
            return Err(LiveError::PastHorizon {
                at: boundary,
                horizon: cap,
            });
        }
        let mut phases = self.resolved_phases(boundary);
        phases.push(Phase::new(boundary, cap, (*scenario).clone()));
        self.install_workload(phases)?;
        self.log.push(SessionInput::Swap {
            at: boundary,
            scenario,
        });
        self.phase += 1;
        self.phase_start = boundary;
        self.engine
            .queue
            .push(boundary, EventKind::PhaseStart { phase: self.phase });
        Ok(boundary)
    }

    fn drain(&mut self, stamp: SimTime) -> Result<SimTime, LiveError> {
        let at = match self.order_stamp(stamp) {
            Err(LiveError::SwapPending { boundary }) => {
                self.step_until(boundary);
                self.order_stamp(stamp)?
            }
            at => at?,
        };
        let horizon = self.boundary_for(at).min(self.header.cap);
        self.install_workload(self.resolved_phases(horizon))?;
        self.horizon = Some(horizon);
        self.engine.horizon = horizon;
        self.engine.metrics.set_horizon(horizon);
        self.engine.queue.push(horizon, EventKind::End);
        self.log.push(SessionInput::Drain { at: horizon });
        Ok(horizon)
    }

    /// Processes every pending event at or before `frontier` and closes
    /// those instants. Every later input is clamped strictly past a
    /// closed instant — the property that makes incremental stepping
    /// invisible.
    pub fn step_until(&mut self, frontier: SimTime) -> LiveStatus {
        if !self.finished {
            loop {
                match self.engine.step_event(self.scheduler.as_mut(), frontier) {
                    StepStatus::Processed => {}
                    StepStatus::Blocked => break,
                    StepStatus::Finished => {
                        self.finished = true;
                        break;
                    }
                }
            }
        }
        self.closed = Some(self.closed.map_or(frontier, |c| c.max(frontier)));
        if self.finished {
            LiveStatus::Finished
        } else {
            LiveStatus::Running
        }
    }

    /// The smallest stamp a new input can take effect at: strictly past
    /// the closed frontier.
    pub fn next_stamp(&self) -> SimTime {
        self.closed
            .map_or(SimTime::ZERO, |c| c + SimTime::from_ns(1))
    }

    /// Where a swap or drain stamped `stamp` takes effect:
    /// `max(stamp, latest admitted stamp) + max current-phase period`, so
    /// every already-released frame's deadline falls at or before it and
    /// release-time censoring matches a replay that knew the boundary all
    /// along.
    fn boundary_for(&self, stamp: SimTime) -> SimTime {
        let slack = self
            .engine
            .ws
            .nodes()
            .filter(|n| n.key().phase == self.phase)
            .map(NodeInfo::period)
            .max()
            .unwrap_or(SimTime::from_ns(1));
        stamp.max(self.max_admitted) + slack
    }

    /// Validates a swap or drain stamp and returns the effective instant.
    fn order_stamp(&self, stamp: SimTime) -> Result<SimTime, LiveError> {
        if self.horizon.is_some() {
            return Err(LiveError::Draining);
        }
        let at = stamp.max(self.next_stamp());
        if at < self.phase_start {
            return Err(LiveError::SwapPending {
                boundary: self.phase_start,
            });
        }
        Ok(at)
    }

    /// The phase windows the session resolves to when its last phase ends
    /// at `end`: the initial scenario from time 0, then each logged
    /// swap's scenario from its boundary.
    fn resolved_phases(&self, end: SimTime) -> Vec<Phase> {
        let mut starts = vec![(SimTime::ZERO, &self.header.scenario)];
        starts.extend(self.log.iter().filter_map(|input| match input {
            SessionInput::Swap { at, scenario } => Some((*at, &**scenario)),
            _ => None,
        }));
        starts
            .iter()
            .enumerate()
            .map(|(i, &(start, scenario))| {
                let end = starts.get(i + 1).map_or(end, |&(next, _)| next);
                Phase::new(start, end, scenario.clone())
            })
            .collect()
    }

    /// Builds the workload for `phases`, installs it and registers any new
    /// models with the metrics (idempotent for existing keys).
    fn install_workload(&mut self, phases: Vec<Phase>) -> Result<(), LiveError> {
        let ws = WorkloadSet::build(phases, &self.header.platform, self.header.cost.as_ref())?;
        for node in ws.nodes() {
            self.engine.metrics.entry(
                node.key(),
                node.model_name(),
                node.rate().as_fps(),
                node.variant_count(),
            );
        }
        self.engine.ws = Arc::new(ws);
        Ok(())
    }

    /// Completes the session: drains (at the next valid stamp) unless a
    /// drain was already applied, steps to the horizon, and returns the
    /// final metrics plus the replayable session record.
    ///
    /// # Errors
    ///
    /// Propagates workload-rebuild errors from the implicit drain.
    pub fn finish(mut self) -> Result<(SimOutcome, LiveSessionRecord), LiveError> {
        let horizon = match self.horizon {
            Some(h) => h,
            None if self.finished => self.header.cap,
            None => self.drain(self.next_stamp())?,
        };
        self.step_until(horizon);
        debug_assert!(self.finished, "stepping to the horizon fires End");
        let outcome = self.engine.take_outcome();
        let record = LiveSessionRecord {
            header: self.header,
            inputs: self.log,
        };
        Ok((outcome, record))
    }

    /// Current virtual time of the engine (the latest processed instant).
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// The closed frontier: instants at or before this are fully
    /// processed. `None` before the first step.
    pub fn closed(&self) -> Option<SimTime> {
        self.closed
    }

    /// The resolved horizon, once a drain was applied.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Whether a drain was applied.
    pub fn is_draining(&self) -> bool {
        self.horizon.is_some()
    }

    /// Whether the horizon fired.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The index of the phase requests currently target.
    pub fn current_phase(&self) -> usize {
        self.phase
    }

    /// Number of arrivals admitted so far.
    pub fn admitted_count(&self) -> usize {
        self.log
            .iter()
            .filter(|i| matches!(i, SessionInput::Admit { .. }))
            .count()
    }

    /// Tasks waiting for dispatch right now.
    pub fn ready_count(&self) -> usize {
        self.engine.arena.ready_count()
    }

    /// Layers executing right now.
    pub fn running_count(&self) -> usize {
        self.engine.arena.running_count()
    }

    /// Events pending in the engine's queue — the session's true
    /// event-queue pressure (admitted arrivals not yet processed, layer
    /// completions in flight, and the phase/horizon bookkeeping events).
    pub fn event_queue_depth(&self) -> usize {
        self.engine.queue.len()
    }

    /// The cumulative metrics as of the latest processed instant.
    pub fn live_metrics(&self) -> &Metrics {
        &self.engine.metrics
    }

    /// The workload currently installed.
    pub fn workload(&self) -> &Arc<WorkloadSet> {
        &self.engine.ws
    }
}

/// Everything needed to re-run a live session offline: a header
/// (platform, cost backend, seed, cap, initial scenario and fault plan)
/// and the log of inputs as they were applied, with effective stamps.
#[derive(Debug, Clone)]
pub struct LiveSessionRecord {
    header: Header,
    inputs: Vec<SessionInput>,
}

impl LiveSessionRecord {
    /// The applied inputs in order, each with its effective stamp: an
    /// admission's clamped instant, a fault's clamped start, a swap's
    /// boundary, a drain's horizon.
    pub fn inputs(&self) -> &[SessionInput] {
        &self.inputs
    }

    /// The logged admissions as an arrival trace (serializable via
    /// [`ArrivalTrace::to_csv`], the batch trace-replay format); each
    /// admission's phase is the number of swaps before it.
    pub fn trace(&self) -> ArrivalTrace {
        let mut phase = 0;
        let mut events = Vec::new();
        for input in &self.inputs {
            match *input {
                SessionInput::Admit { pipeline, node, at } => events.push((
                    at,
                    ModelKey {
                        phase,
                        pipeline,
                        node,
                    },
                )),
                SessionInput::Swap { .. } => phase += 1,
                SessionInput::Fault(_) | SessionInput::Drain { .. } => {}
            }
        }
        ArrivalTrace::from_events("live-session", events)
    }

    /// The session's resolved horizon: the drain's, or the cap when the
    /// session ran into it.
    pub fn horizon(&self) -> SimTime {
        self.inputs
            .iter()
            .rev()
            .find_map(|input| match input {
                SessionInput::Drain { at } => Some(*at),
                _ => None,
            })
            .unwrap_or(self.header.cap)
    }

    /// The workload-realization seed.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// The calibration digest of the backend that priced the session.
    pub fn cost_digest(&self) -> u64 {
        self.header.cost.calibration_digest()
    }

    /// The batch-simulation builder equivalent to the live session —
    /// phases, horizon, seed, backend and fault plan configured; add an
    /// arrival source (or use [`replay`](Self::replay)).
    pub fn builder(&self) -> SimulationBuilder {
        let h = &self.header;
        let mut b = SimulationBuilder::new(h.platform.clone(), h.scenario.clone())
            .duration(self.horizon())
            .seed(h.seed)
            .cost_backend(Arc::clone(&h.cost));
        let mut faults = h.faults.clone();
        for input in &self.inputs {
            match input {
                SessionInput::Swap { at, scenario } => b = b.add_phase(*at, (**scenario).clone()),
                SessionInput::Fault(fault) => {
                    faults.push(**fault);
                }
                SessionInput::Admit { .. } | SessionInput::Drain { .. } => {}
            }
        }
        if !faults.is_empty() {
            b = b.faults(faults);
        }
        b
    }

    /// Re-runs the recorded session through the batch simulator under
    /// `scheduler`. With a fresh scheduler equal to the live session's,
    /// the returned metrics are **bit-identical** to the live outcome.
    ///
    /// # Errors
    ///
    /// Propagates simulator validation errors (a hand-edited record can
    /// be inconsistent; an untouched one cannot).
    pub fn replay(&self, scheduler: &mut dyn Scheduler) -> Result<SimOutcome, SimError> {
        self.replay_trace(self.trace(), scheduler)
    }

    /// [`replay`](Self::replay) with an explicit trace — e.g. one that
    /// round-tripped through [`ArrivalTrace::to_csv`] and
    /// [`ArrivalTrace::parse`].
    ///
    /// # Errors
    ///
    /// Propagates simulator validation errors.
    pub fn replay_trace(
        &self,
        trace: ArrivalTrace,
        scheduler: &mut dyn Scheduler,
    ) -> Result<SimOutcome, SimError> {
        self.builder()
            .arrivals(TraceArrivals::new(Arc::new(trace)))
            .run(scheduler)
    }

    /// [`replay`](Self::replay) with a flight recorder attached. With a
    /// fresh scheduler equal to the live session's and the same recorder
    /// config the live session ran with, the returned outcome's trace is
    /// **byte-identical** (per exporter output) to the live trace —
    /// the flight-recorder extension of the replay-equivalence guarantee.
    ///
    /// # Errors
    ///
    /// Propagates simulator validation errors.
    pub fn replay_traced(
        &self,
        config: TraceConfig,
        scheduler: &mut dyn Scheduler,
    ) -> Result<SimOutcome, SimError> {
        self.builder()
            .arrivals(TraceArrivals::new(Arc::new(self.trace())))
            .trace(config)
            .run(scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;
    use dream_cost::{CostModel, PlatformPreset};
    use dream_models::{CascadeProbability, ScenarioKind};

    fn scenario(kind: ScenarioKind) -> Scenario {
        Scenario::new(kind, CascadeProbability::new(0.5).unwrap())
    }

    fn builder(platform: PlatformPreset) -> SimulationBuilder {
        SimulationBuilder::new(Platform::preset(platform), scenario(ScenarioKind::ArCall))
            .duration(SimTime::from_ns(DEFAULT_HORIZON_CAP_NS))
    }

    fn session(seed: u64) -> LiveSession {
        builder(PlatformPreset::Hetero4kWs1Os2)
            .seed(seed)
            .start_live(Box::new(dream_baselines_stub::Fcfs))
            .unwrap()
    }

    /// A minimal deterministic scheduler for in-crate tests (the real
    /// baselines live downstream): first ready task onto the first idle
    /// accelerator.
    mod dream_baselines_stub {
        use crate::scheduler::{Assignment, Decision, Scheduler, SystemView};

        #[derive(Debug, Default)]
        pub struct Fcfs;

        impl Scheduler for Fcfs {
            fn name(&self) -> &str {
                "fcfs-stub"
            }

            fn schedule(&mut self, view: &SystemView<'_>) -> Decision {
                let mut d = Decision::none();
                let mut idle = view.idle_ids().iter();
                for &task in view.ready_ids() {
                    let Some(&acc) = idle.next() else { break };
                    d.assignments.push(Assignment::single(task, acc));
                }
                d
            }
        }
    }

    fn roots(ws: &WorkloadSet, phase: usize) -> Vec<ModelKey> {
        ws.nodes()
            .filter(|n| n.key().phase == phase && n.parent().is_none())
            .map(NodeInfo::key)
            .collect()
    }

    fn admit(s: &mut LiveSession, k: ModelKey, at: SimTime) -> Result<Applied, LiveError> {
        s.apply(SessionInput::Admit {
            pipeline: k.pipeline,
            node: k.node,
            at,
        })
    }

    fn fault(acc: usize, kind: FaultKind, at: SimTime) -> SessionInput {
        SessionInput::Fault(Box::new(FaultEvent {
            at,
            acc: dream_cost::AcceleratorId(acc),
            kind,
        }))
    }

    fn swap(kind: ScenarioKind, at: SimTime) -> SessionInput {
        SessionInput::Swap {
            at,
            scenario: Box::new(scenario(kind)),
        }
    }

    /// The record's phase count and fault count, read off its log.
    fn phases_and_faults(record: &LiveSessionRecord) -> (usize, usize) {
        let count = |f: fn(&SessionInput) -> bool| record.inputs().iter().filter(|i| f(i)).count();
        (
            1 + count(|i| matches!(i, SessionInput::Swap { .. })),
            count(|i| matches!(i, SessionInput::Fault(_))),
        )
    }

    /// Every admission in a long session pays for one log entry; no
    /// variant may grow it past the trace's own `(SimTime, ModelKey)`.
    #[test]
    fn log_entry_is_no_larger_than_an_admission_record() {
        assert!(
            std::mem::size_of::<SessionInput>() <= std::mem::size_of::<(SimTime, ModelKey)>(),
            "SessionInput is {} bytes",
            std::mem::size_of::<SessionInput>()
        );
    }

    #[test]
    fn prefix_tables_survive_phase_extension() {
        // The hot-swap correctness hinge: appending a phase re-registers
        // earlier phases' layers identically, so ids and table rows of the
        // prefix are bit-stable.
        let platform = Platform::preset(PlatformPreset::Hetero4kWs1Os2);
        let cost = CostModel::paper_default();
        let one = WorkloadSet::build(
            vec![Phase::new(
                SimTime::ZERO,
                SimTime::from_ns(1 << 62),
                scenario(ScenarioKind::ArCall),
            )],
            &platform,
            &cost,
        )
        .unwrap();
        let two = WorkloadSet::build(
            vec![
                Phase::new(
                    SimTime::ZERO,
                    SimTime::from_ns(500_000_000),
                    scenario(ScenarioKind::ArCall),
                ),
                Phase::new(
                    SimTime::from_ns(500_000_000),
                    SimTime::from_ns(1 << 62),
                    scenario(ScenarioKind::VrGaming),
                ),
            ],
            &platform,
            &cost,
        )
        .unwrap();
        assert!(two.layer_count() > one.layer_count());
        for node in one.nodes() {
            let ext = two.try_node(node.key()).expect("prefix node survives");
            assert_eq!(node.model_name(), ext.model_name());
            for v in 0..node.variant_count() {
                let a = node.variant_layers(dream_models::VariantId(v));
                let b = ext.variant_layers(dream_models::VariantId(v));
                assert_eq!(a, b, "layer ids must be stable across extension");
            }
        }
        for l in 0..one.layer_count() {
            let id = crate::LayerId(l);
            for acc in 0..one.acc_count() {
                let acc = dream_cost::AcceleratorId(acc);
                assert_eq!(
                    one.latency_ns(id, acc).to_bits(),
                    two.latency_ns(id, acc).to_bits()
                );
                assert_eq!(
                    one.energy_pj(id, acc).to_bits(),
                    two.energy_pj(id, acc).to_bits()
                );
                assert_eq!(
                    one.lat_pref(id, acc).to_bits(),
                    two.lat_pref(id, acc).to_bits()
                );
                assert_eq!(
                    one.cold_switch_ratio(id, acc).to_bits(),
                    two.cold_switch_ratio(id, acc).to_bits()
                );
            }
            assert_eq!(
                one.avg_latency_ns(id).to_bits(),
                two.avg_latency_ns(id).to_bits()
            );
        }
    }

    #[test]
    fn admissions_clamp_and_number_frames() {
        let mut s = session(1);
        let keys = roots(s.workload(), 0);
        let k = keys[0];
        let a = admit(&mut s, k, SimTime::from_ns(100)).unwrap();
        assert_eq!(a.frame, Some(0));
        assert_eq!(a.at, SimTime::from_ns(100));
        // Earlier stamp for the same key clamps to the previous one.
        let b = admit(&mut s, k, SimTime::from_ns(50)).unwrap();
        assert_eq!(b.frame, Some(1));
        assert_eq!(b.at, SimTime::from_ns(100));
        // After stepping, stamps clamp strictly past the frontier.
        s.step_until(SimTime::from_ns(1_000));
        let c = admit(&mut s, k, SimTime::from_ns(10)).unwrap();
        assert_eq!(c.at, SimTime::from_ns(1_001));
        assert_eq!(s.admitted_count(), 3);
    }

    #[test]
    fn admission_rejects_non_roots_and_unknown_keys() {
        let mut s = session(1);
        // AR_Call pipeline 0: KWS (root) → GNMT (child).
        let key = |pipeline, node| ModelKey {
            phase: 0,
            pipeline: PipelineId(pipeline),
            node: NodeId(node),
        };
        let err = admit(&mut s, key(0, 1), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, LiveError::UnknownModel { .. }));
        let err = admit(&mut s, key(9, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, LiveError::UnknownModel { .. }));
    }

    #[test]
    fn drain_stops_admissions_and_finishes() {
        let mut s = session(2);
        let k = roots(s.workload(), 0)[0];
        admit(&mut s, k, SimTime::ZERO).unwrap();
        s.step_until(SimTime::from_ns(10_000_000));
        let h = s
            .apply(SessionInput::Drain { at: s.next_stamp() })
            .unwrap()
            .at;
        assert!(s.is_draining());
        let next = s.next_stamp();
        assert!(matches!(admit(&mut s, k, next), Err(LiveError::Draining)));
        assert_eq!(s.step_until(h), LiveStatus::Finished);
        let (outcome, record) = s.finish().unwrap();
        assert_eq!(outcome.metrics().horizon(), h);
        assert_eq!(record.horizon(), h);
        assert_eq!(record.trace().len(), 1);
    }

    #[test]
    fn swap_rejects_until_boundary_passed_then_retargets() {
        let mut s = session(3);
        let k = roots(s.workload(), 0)[0];
        admit(&mut s, k, SimTime::ZERO).unwrap();
        s.step_until(SimTime::from_ns(1_000_000));
        let boundary = s
            .apply(swap(ScenarioKind::VrGaming, s.next_stamp()))
            .unwrap()
            .at;
        assert!(boundary > SimTime::from_ns(1_000_000));
        assert_eq!(s.current_phase(), 1);
        // A second swap before the boundary is rejected.
        let err = s
            .apply(swap(ScenarioKind::ArCall, s.next_stamp()))
            .unwrap_err();
        assert!(matches!(err, LiveError::SwapPending { .. }));
        // Admissions now target the new phase, clamped to its start.
        let new_roots = roots(s.workload(), 1);
        assert!(!new_roots.is_empty());
        let nk = new_roots[0];
        assert_eq!(nk.phase, 1);
        let next = s.next_stamp();
        let a = admit(&mut s, nk, next).unwrap();
        assert_eq!(
            a.at, boundary,
            "transition-window stamps clamp to the boundary"
        );
        // Past the boundary, swapping works again.
        s.step_until(boundary + SimTime::from_ns(1_000_000));
        s.apply(swap(ScenarioKind::ArCall, s.next_stamp())).unwrap();
        assert_eq!(s.current_phase(), 2);
        let (_, record) = s.finish().unwrap();
        assert!(
            record.trace().times(nk).contains(&boundary),
            "the transition-window admission targeted the new phase"
        );
    }

    #[test]
    fn finish_without_drain_auto_drains() {
        let mut s = session(4);
        let k = roots(s.workload(), 0)[0];
        admit(&mut s, k, SimTime::ZERO).unwrap();
        s.step_until(SimTime::from_ns(5_000_000));
        let (outcome, record) = s.finish().unwrap();
        assert!(outcome.final_time() > SimTime::ZERO);
        assert!(record.horizon() < SimTime::from_ns(DEFAULT_HORIZON_CAP_NS));
    }

    /// The headline guarantee, in miniature (the full multi-seed,
    /// hot-swapped, socket-fed version lives in `dream-serve`): a live
    /// session's metrics replay bit-identically through the batch path.
    #[test]
    fn live_session_replays_bit_identically() {
        let mut s = session(7);
        let keys = roots(s.workload(), 0);
        let mut t = 0u64;
        for i in 0..200u64 {
            let k = keys[(i % keys.len() as u64) as usize];
            t += 700_000 + (i % 7) * 130_000;
            admit(&mut s, k, SimTime::from_ns(t)).unwrap();
            if i % 16 == 0 {
                s.step_until(SimTime::from_ns(t.saturating_sub(400_000)));
            }
        }
        let (live, record) = s.finish().unwrap();
        let mut fresh = dream_baselines_stub::Fcfs;
        let batch = record.replay(&mut fresh).unwrap();
        assert_eq!(
            live.metrics().fingerprint(),
            batch.metrics().fingerprint(),
            "live and batch metrics must be bit-identical"
        );
        assert_eq!(live.final_time(), batch.final_time());
    }

    #[test]
    fn live_replay_equivalence_across_hot_swap() {
        let mut s = session(11);
        let keys = roots(s.workload(), 0);
        let mut t = 0u64;
        for i in 0..120u64 {
            let k = keys[(i % keys.len() as u64) as usize];
            t += 900_000;
            admit(&mut s, k, SimTime::from_ns(t)).unwrap();
        }
        s.step_until(SimTime::from_ns(t));
        let boundary = s
            .apply(swap(ScenarioKind::VrGaming, s.next_stamp()))
            .unwrap()
            .at;
        let new_keys = roots(s.workload(), 1);
        for i in 0..120u64 {
            let k = new_keys[(i % new_keys.len() as u64) as usize];
            let at = boundary + SimTime::from_ns(i * 800_000);
            admit(&mut s, k, at).unwrap();
            if i % 32 == 0 {
                s.step_until(boundary + SimTime::from_ns(i * 800_000));
            }
        }
        let (live, record) = s.finish().unwrap();
        assert_eq!(phases_and_faults(&record).0, 2);
        let mut fresh = dream_baselines_stub::Fcfs;
        let batch = record.replay(&mut fresh).unwrap();
        assert_eq!(
            live.metrics().fingerprint(),
            batch.metrics().fingerprint(),
            "hot-swapped session must replay bit-identically"
        );
    }

    /// The acceptance hinge for fault injection: a session that took
    /// live-admitted faults — including a mid-run permanent failure —
    /// replays bit-identically through the batch [`FaultPlan`] path,
    /// across several seeds.
    #[test]
    fn faulted_live_session_replays_bit_identically() {
        for seed in [5u64, 17, 901] {
            let mut s = session(seed);
            let keys = roots(s.workload(), 0);
            let mut t = 0u64;
            let mut faulted = false;
            for i in 0..200u64 {
                let k = keys[(i % keys.len() as u64) as usize];
                t += 700_000 + (i % 7) * 130_000;
                admit(&mut s, k, SimTime::from_ns(t)).unwrap();
                if i == 40 {
                    s.apply(fault(
                        1,
                        FaultKind::Stall {
                            duration: SimTime::from_ns(9_000_000),
                        },
                        SimTime::from_ns(t),
                    ))
                    .unwrap();
                    s.apply(fault(
                        2,
                        FaultKind::Slowdown {
                            factor: 2.5,
                            duration: SimTime::from_ns(30_000_000),
                        },
                        SimTime::from_ns(t + 1),
                    ))
                    .unwrap();
                }
                if i == 120 {
                    // Mid-run permanent failure: whatever acc 0 is doing is
                    // aborted and requeued; acc 0 never dispatches again.
                    s.apply(fault(0, FaultKind::Fail, SimTime::from_ns(t)))
                        .unwrap();
                    faulted = true;
                }
                if i % 16 == 0 {
                    s.step_until(SimTime::from_ns(t.saturating_sub(400_000)));
                }
            }
            assert!(faulted);
            let (live, record) = s.finish().unwrap();
            assert_eq!(phases_and_faults(&record).1, 3);
            assert!(live.metrics().faults_injected >= 3);
            let mut fresh = dream_baselines_stub::Fcfs;
            let batch = record.replay(&mut fresh).unwrap();
            assert_eq!(
                live.metrics().fingerprint(),
                batch.metrics().fingerprint(),
                "seed {seed}: faulted live session must replay bit-identically"
            );
            assert_eq!(live.final_time(), batch.final_time(), "seed {seed}");
            assert_eq!(
                live.metrics().faults_injected,
                batch.metrics().faults_injected,
                "seed {seed}"
            );
            assert_eq!(
                live.metrics().fault_requeues,
                batch.metrics().fault_requeues,
                "seed {seed}"
            );
        }
    }

    /// A transient stall whose window straddles a hot-swap boundary:
    /// the accelerator is parked across the phase change and unparks in
    /// the new phase — and the whole thing still replays bit-identically.
    #[test]
    fn stall_straddling_hot_swap_replays_bit_identically() {
        for seed in [3u64, 23, 71] {
            let mut s = session(seed);
            let keys = roots(s.workload(), 0);
            let mut t = 0u64;
            for i in 0..120u64 {
                let k = keys[(i % keys.len() as u64) as usize];
                t += 900_000;
                admit(&mut s, k, SimTime::from_ns(t)).unwrap();
            }
            s.step_until(SimTime::from_ns(t));
            // A long stall starting just before the boundary instant the
            // swap below resolves to (boundary = max admitted + max
            // period, so the window comfortably straddles it).
            s.apply(fault(
                1,
                FaultKind::Stall {
                    duration: SimTime::from_ns(400_000_000),
                },
                s.next_stamp(),
            ))
            .unwrap();
            let boundary = s
                .apply(swap(ScenarioKind::VrGaming, s.next_stamp()))
                .unwrap()
                .at;
            let new_keys = roots(s.workload(), 1);
            for i in 0..120u64 {
                let k = new_keys[(i % new_keys.len() as u64) as usize];
                let at = boundary + SimTime::from_ns(i * 800_000);
                admit(&mut s, k, at).unwrap();
                if i % 32 == 0 {
                    s.step_until(at);
                }
            }
            let (live, record) = s.finish().unwrap();
            assert_eq!(phases_and_faults(&record), (2, 1));
            let mut fresh = dream_baselines_stub::Fcfs;
            let batch = record.replay(&mut fresh).unwrap();
            assert_eq!(
                live.metrics().fingerprint(),
                batch.metrics().fingerprint(),
                "seed {seed}: stall straddling a hot-swap must replay bit-identically"
            );
        }
    }

    #[test]
    fn admit_fault_validates_and_clamps() {
        let mut s = session(9);
        // Out-of-range accelerator.
        assert!(matches!(
            s.apply(fault(999, FaultKind::Fail, SimTime::ZERO)),
            Err(LiveError::Sim(SimError::InvalidFault { .. }))
        ));
        // Sub-unity slowdown factor.
        assert!(matches!(
            s.apply(fault(
                0,
                FaultKind::Slowdown {
                    factor: 0.5,
                    duration: SimTime::from_ns(1_000),
                },
                SimTime::ZERO,
            )),
            Err(LiveError::Sim(SimError::InvalidFault { .. }))
        ));
        // Clamps strictly past the closed frontier.
        s.step_until(SimTime::from_ns(1_000));
        let applied = s
            .apply(fault(
                0,
                FaultKind::Stall {
                    duration: SimTime::from_ns(500),
                },
                SimTime::from_ns(10),
            ))
            .unwrap();
        assert_eq!(applied.at, SimTime::from_ns(1_001));
        // Past-horizon stamps are rejected.
        assert!(matches!(
            s.apply(fault(
                0,
                FaultKind::Fail,
                SimTime::from_ns(DEFAULT_HORIZON_CAP_NS),
            )),
            Err(LiveError::PastHorizon { .. })
        ));
    }

    #[test]
    fn prebuilt_start_validates_digest() {
        let ws = Arc::new(builder(PlatformPreset::Homo4kWs2).build_workload().unwrap());
        // Wrong calibration → rejected.
        let mut params = dream_cost::CostParams::paper_defaults();
        params.dram_energy_pj_per_byte *= 2.0;
        let other = builder(PlatformPreset::Homo4kWs2)
            .cost_backend(Arc::new(CostModel::new(params).unwrap()))
            .prebuilt_workload(Arc::clone(&ws))
            .start_live(Box::new(dream_baselines_stub::Fcfs));
        assert!(matches!(
            other,
            Err(LiveError::Sim(SimError::WorkloadMismatch { .. }))
        ));
        // Matching configuration → accepted.
        builder(PlatformPreset::Homo4kWs2)
            .prebuilt_workload(ws)
            .start_live(Box::new(dream_baselines_stub::Fcfs))
            .unwrap();
    }

    /// `start_live` refuses, with a typed error, every setting a live
    /// session cannot honour instead of silently ignoring it.
    #[test]
    fn start_live_refuses_settings_it_cannot_honour() {
        let start = |b: SimulationBuilder| {
            b.start_live(Box::new(dream_baselines_stub::Fcfs))
                .unwrap_err()
        };
        let base = || builder(PlatformPreset::Hetero4kWs1Os2);
        let refusals = [
            start(base().duration(SimTime::ZERO)),
            start(base().add_phase(
                SimTime::from_ns(1_000_000),
                scenario(ScenarioKind::VrGaming),
            )),
            start(base().arrivals(crate::PoissonArrivals::new(1.0))),
        ];
        assert!(
            matches!(
                refusals,
                [
                    LiveError::Sim(SimError::ZeroDuration),
                    LiveError::Sim(SimError::InvalidPhase { .. }),
                    LiveError::Sim(SimError::InvalidTrace { .. }),
                ]
            ),
            "{refusals:?}"
        );
    }

    /// `n` sessions started from one prebuilt workload, session `i`
    /// seeded `base + i`.
    fn shard(ws: &Arc<WorkloadSet>, base: u64, n: u64) -> Vec<LiveSession> {
        (0..n)
            .map(|i| {
                builder(PlatformPreset::Hetero4kWs1Os2)
                    .seed(base + i)
                    .prebuilt_workload(Arc::clone(ws))
                    .start_live(Box::new(dream_baselines_stub::Fcfs))
                    .unwrap()
            })
            .collect()
    }

    fn shared_workload() -> Arc<WorkloadSet> {
        Arc::new(
            builder(PlatformPreset::Hetero4kWs1Os2)
                .build_workload()
                .unwrap(),
        )
    }

    enum Feed {
        Admit(usize, ModelKey, SimTime),
        Step(SimTime),
    }

    /// A distinct admission stream per session, interleaved round-robin,
    /// with an occasional frontier that stays strictly below every future
    /// stamp (so no admission is clamped and the same stamps can be fed
    /// to a solo session without any stepping at all).
    fn interleaved_feed(keys: &[ModelKey], sessions: usize) -> Vec<Feed> {
        let mut feed = Vec::new();
        let mut t = vec![0u64; sessions];
        for i in 0..60u64 {
            for (s, t) in t.iter_mut().enumerate() {
                let k = keys[((i + s as u64) % keys.len() as u64) as usize];
                *t += 600_000 + (s as u64 + 1) * 90_000 + (i % 5) * 40_000;
                feed.push(Feed::Admit(s, k, SimTime::from_ns(*t)));
            }
            if i % 4 == 3 {
                let min_t = *t.iter().min().unwrap();
                feed.push(Feed::Step(SimTime::from_ns(min_t - 500_000)));
            }
        }
        feed
    }

    #[test]
    fn sessions_share_one_workload_store() {
        let ws = shared_workload();
        for (i, session) in shard(&ws, 0, 3).iter().enumerate() {
            assert!(
                Arc::ptr_eq(&ws, session.workload()),
                "session {i} must borrow the shared tables, not own a copy"
            );
        }
    }

    /// Sessions over one shared workload, fed and stepped interleaved,
    /// each produce bit-identical metrics to the same session built from
    /// scratch and run alone.
    #[test]
    fn round_robin_stepping_is_invisible_per_session() {
        const N: usize = 3;
        let ws = shared_workload();
        let feed = interleaved_feed(&roots(&ws, 0), N);
        let mut wide = shard(&ws, 5, N as u64);
        for f in &feed {
            match *f {
                Feed::Admit(s, k, at) => {
                    admit(&mut wide[s], k, at).unwrap();
                }
                Feed::Step(frontier) => {
                    for session in &mut wide {
                        session.step_until(frontier);
                    }
                }
            }
        }

        for (s, wide) in wide.into_iter().enumerate() {
            let (wide_outcome, _) = wide.finish().unwrap();
            // Same stamps, but never stepped until the end: the solo run
            // exercises a completely different slicing.
            let mut solo = session(5 + s as u64);
            for f in &feed {
                if let Feed::Admit(which, k, at) = *f {
                    if which == s {
                        admit(&mut solo, k, at).unwrap();
                    }
                }
            }
            let (solo_outcome, _) = solo.finish().unwrap();
            assert_eq!(
                wide_outcome.metrics().fingerprint(),
                solo_outcome.metrics().fingerprint(),
                "session {s} diverged when stepped beside the others"
            );
        }
    }

    #[test]
    fn event_queue_depth_counts_pending_events() {
        let mut s = session(0);
        let k = roots(s.workload(), 0)[0];
        // A new session holds PhaseStart + End.
        assert_eq!(s.event_queue_depth(), 2);
        admit(&mut s, k, SimTime::from_ns(10)).unwrap();
        assert_eq!(s.event_queue_depth(), 3);
    }
}
