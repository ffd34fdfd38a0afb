//! Live, incrementally stepped simulation sessions — the substrate of the
//! `dream-serve` runtime.
//!
//! A [`LiveSession`] runs the same staged engine as
//! [`SimulationBuilder::run`](crate::SimulationBuilder::run), but instead
//! of resolving the whole arrival horizon up front it accepts root-frame
//! requests *as they happen* ([`LiveSession::admit`]) and advances virtual
//! time in bounded slices ([`LiveSession::step_until`]). Sessions support
//! scenario hot-swap mid-flight ([`LiveSession::swap_scenario`], installed
//! through the same digest-validated `Arc<WorkloadSet>` seam the batch
//! engine's prebuilt workloads use) and graceful drain
//! ([`LiveSession::begin_drain`]).
//!
//! A session is configured by the same [`SimulationBuilder`] as a batch
//! run and started with its
//! [`start_live`](SimulationBuilder::start_live) terminal method. The
//! builder's [`duration`](SimulationBuilder::duration) is the session's
//! horizon cap; pass [`DEFAULT_HORIZON_CAP_NS`] for an effectively
//! open-ended session. Later phases come from
//! [`swap_scenario`](LiveSession::swap_scenario) and arrivals from
//! [`admit`](LiveSession::admit), so `start_live` refuses added phases and
//! an explicit arrival source rather than ignore them.
//!
//! # The replay-equivalence guarantee
//!
//! Every admitted arrival is recorded, and [`LiveSession::finish`] returns
//! a [`LiveSessionRecord`] whose [`replay`](LiveSessionRecord::replay)
//! re-runs the session through the ordinary batch simulator
//! (`TraceArrivals` over the recorded trace, the recorded phase schedule,
//! the same seed and cost backend). The two runs produce **bit-identical**
//! [`Metrics`] — the live path is not an approximation of
//! the simulator, it *is* the simulator, fed incrementally. Three
//! mechanisms make this exact:
//!
//! 1. **Canonical intra-instant event order** (see the `event` module):
//!    simultaneous events process by kind rank and model key, never by
//!    push order, so injecting an arrival when it is admitted (live) and
//!    pushing it from the trace recurrence (batch) yield the same
//!    processing sequence.
//! 2. **A closed frontier**: [`step_until`](LiveSession::step_until)
//!    processes events only up to the caller's frontier, and admissions
//!    must carry stamps strictly past it — an instant is scheduled only
//!    once every arrival that can land on it is known.
//! 3. **Boundary slack**: a hot-swap or drain ordered at stamp `t` takes
//!    effect at `max(t, latest admitted stamp) + max node period` — far
//!    enough out that every release decision made *before* the boundary
//!    was known (deadline-vs-window censoring) is the one the batch
//!    replay, which knows the whole schedule from the start, also makes.
//!    Releases processed after the order see the rebuilt phase windows
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

use dream_cost::{AcceleratorId, CostBackend, Platform};
use dream_models::{NodeId, PipelineId, Scenario};
use dream_trace::TraceConfig;

use crate::arrivals::{ArrivalSource, ArrivalTrace, TraceArrivals};
use crate::determ::DeterministicCoin;
use crate::engine::{check_workload_matches, Engine, SimOutcome, SimulationBuilder, StepStatus};
use crate::event::EventKind;
use crate::faults::{FaultEvent, FaultKind, FaultPlan, FaultRuntime};
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
    /// The ordered swap/drain cannot take effect because the previously
    /// ordered phase boundary has not been reached yet.
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
    ///   session's later phases come from
    ///   [`swap_scenario`](LiveSession::swap_scenario).
    /// * [`SimError::InvalidTrace`] when an arrival source was installed:
    ///   a live session's arrivals come from [`admit`](LiveSession::admit).
    /// * [`SimError::WorkloadMismatch`] for a prebuilt workload that does
    ///   not match the configuration, [`SimError::InvalidFault`] for an
    ///   invalid fault plan, and an uncostable scenario's error.
    ///
    /// Each arrives wrapped in [`LiveError::Sim`].
    pub fn start_live(self, scheduler: Box<dyn Scheduler>) -> Result<LiveSession, LiveError> {
        let ws = self.live_workload()?;
        Ok(self.live_session(ws, self.seed, scheduler))
    }

    /// Refuses the settings a live session cannot honour, then returns
    /// the session's initial workload.
    pub(crate) fn live_workload(&self) -> Result<Arc<WorkloadSet>, SimError> {
        if self.arrivals.is_some() {
            return Err(SimError::InvalidTrace {
                reason: "a live session takes its arrivals from admit, not an arrival source"
                    .into(),
            });
        }
        if self.phases.len() > 1 {
            return Err(SimError::InvalidPhase {
                reason: "a live session starts with one phase; swap_scenario adds the rest".into(),
            });
        }
        let ws = self.workload()?;
        if let Some(plan) = &self.faults {
            plan.validate(self.platform.len())?;
        }
        Ok(ws)
    }

    /// Builds one session over `ws` with `seed`: the common tail of
    /// [`start_live`](Self::start_live) and
    /// [`start_multi`](Self::start_multi).
    pub(crate) fn live_session(
        &self,
        ws: Arc<WorkloadSet>,
        seed: u64,
        scheduler: Box<dyn Scheduler>,
    ) -> LiveSession {
        let cap = self.duration;
        let mut engine = Engine::new(
            ws,
            self.platform.clone(),
            Arc::clone(&self.cost),
            seed,
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
        LiveSession {
            engine,
            scheduler,
            platform: self.platform.clone(),
            cost: Arc::clone(&self.cost),
            seed,
            cap,
            phase_starts: vec![self.phases[0].clone()],
            closed: None,
            per_key_stamp: BTreeMap::new(),
            frames: BTreeMap::new(),
            admitted: Vec::new(),
            max_admitted: SimTime::ZERO,
            horizon: None,
            finished: false,
        }
    }
}

/// One admitted arrival: where it landed after clamping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The model instance the request targets.
    pub key: ModelKey,
    /// The frame index assigned within the key's stream.
    pub frame: u64,
    /// The effective virtual arrival instant (the requested stamp,
    /// clamped to the open window and per-key time order).
    pub at: SimTime,
}

/// What a [`LiveSession::step_until`] call left the session in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveStatus {
    /// The session is still accepting work.
    Running,
    /// The horizon fired; only [`LiveSession::finish`] remains.
    Finished,
}

/// A long-running, event-driven simulation session.
///
/// See the [module docs](self) for the execution model and the
/// replay-equivalence guarantee.
pub struct LiveSession {
    engine: Engine,
    scheduler: Box<dyn Scheduler>,
    platform: Platform,
    cost: Arc<dyn CostBackend>,
    seed: u64,
    cap: SimTime,
    /// The phase schedule so far: each phase's start and scenario. Ends
    /// are implied (next start, or the horizon for the last phase).
    phase_starts: Vec<(SimTime, Scenario)>,
    /// Instants at or before this are fully processed; admissions must
    /// land strictly after it. `None` until the first step.
    closed: Option<SimTime>,
    /// Latest admitted stamp per key (admissions are per-key
    /// non-decreasing, so admission order equals replay order).
    per_key_stamp: BTreeMap<ModelKey, SimTime>,
    /// Next frame index per key.
    frames: BTreeMap<ModelKey, u64>,
    /// Every admitted arrival, in admission order — the session recorder.
    admitted: Vec<(SimTime, ModelKey)>,
    /// Latest stamp over all admissions (bounds every outstanding
    /// deadline via the max-period slack).
    max_admitted: SimTime,
    /// Resolved by [`begin_drain`](Self::begin_drain).
    horizon: Option<SimTime>,
    finished: bool,
}

impl fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveSession")
            .field("now", &self.engine.now)
            .field("closed", &self.closed)
            .field("phases", &self.phase_starts.len())
            .field("admitted", &self.admitted.len())
            .field("horizon", &self.horizon)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl LiveSession {
    /// Admits one root-frame request for `(pipeline, node)` of the current
    /// phase's scenario at virtual instant `stamp`.
    ///
    /// The effective instant is `stamp` clamped (upward) to the current
    /// phase's start, strictly past the closed frontier, and to the key's
    /// latest prior admission — so the recorded stream is always a valid,
    /// per-key time-ordered trace. The returned [`Admission`] reports
    /// where the request actually landed.
    ///
    /// # Errors
    ///
    /// [`LiveError::UnknownModel`] for keys that are not current-phase
    /// roots, [`LiveError::Draining`]/[`LiveError::Finished`] after a
    /// drain, [`LiveError::PastHorizon`] when the effective instant would
    /// land at/after the horizon cap.
    pub fn admit(
        &mut self,
        pipeline: PipelineId,
        node: NodeId,
        stamp: SimTime,
    ) -> Result<Admission, LiveError> {
        if self.finished {
            return Err(LiveError::Finished);
        }
        if self.horizon.is_some() {
            return Err(LiveError::Draining);
        }
        let phase = self.phase_starts.len() - 1;
        let key = ModelKey {
            phase,
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
        let mut at = stamp.max(self.phase_starts[phase].0);
        if let Some(closed) = self.closed {
            at = at.max(closed + SimTime::from_ns(1));
        }
        if let Some(&prev) = self.per_key_stamp.get(&key) {
            at = at.max(prev);
        }
        if at >= self.cap {
            return Err(LiveError::PastHorizon {
                at,
                horizon: self.cap,
            });
        }
        let frame = {
            let f = self.frames.entry(key).or_insert(0);
            let cur = *f;
            *f += 1;
            cur
        };
        self.engine.queue.push(
            at,
            EventKind::FrameArrival {
                phase,
                pipeline,
                node,
                frame,
            },
        );
        self.admitted.push((at, key));
        self.per_key_stamp.insert(key, at);
        self.max_admitted = self.max_admitted.max(at);
        Ok(Admission { key, frame, at })
    }

    /// Admits a fault against accelerator `acc` at virtual instant
    /// `stamp`, appending it to the session's fault plan and scheduling
    /// its boundary events. The effective instant is `stamp` clamped
    /// strictly past the closed frontier (faults, like arrivals, cannot
    /// land on instants already processed); the clamped instant is
    /// returned.
    ///
    /// Faults admitted this way replay bit-identically through the batch
    /// [`FaultPlan`] path: the recorded plan rides along in the
    /// [`LiveSessionRecord`], and intra-instant ordering is pinned to plan
    /// order (the event tie key is the plan index), so live push order is
    /// irrelevant. Fault admission stays open during a drain — chaos does
    /// not respect shutdown windows.
    ///
    /// # Errors
    ///
    /// [`LiveError::Finished`] after the horizon fired,
    /// [`LiveError::PastHorizon`] when the clamped instant lands at/after
    /// the (possibly drain-resolved) horizon, and a wrapped
    /// [`SimError::InvalidFault`] for an out-of-range accelerator or a
    /// non-finite / sub-unity slowdown factor.
    pub fn admit_fault(
        &mut self,
        acc: AcceleratorId,
        kind: FaultKind,
        stamp: SimTime,
    ) -> Result<SimTime, LiveError> {
        if self.finished {
            return Err(LiveError::Finished);
        }
        if acc.0 >= self.platform.len() {
            return Err(LiveError::Sim(SimError::InvalidFault {
                reason: format!(
                    "accelerator {} out of range (platform has {})",
                    acc.0,
                    self.platform.len()
                ),
            }));
        }
        if let FaultKind::Slowdown { factor, .. } = kind {
            if !factor.is_finite() || factor < 1.0 {
                return Err(LiveError::Sim(SimError::InvalidFault {
                    reason: format!("slowdown factor {factor} must be finite and >= 1"),
                }));
            }
        }
        let mut at = stamp;
        if let Some(closed) = self.closed {
            at = at.max(closed + SimTime::from_ns(1));
        }
        let horizon = self.engine.horizon;
        if at >= horizon {
            return Err(LiveError::PastHorizon { at, horizon });
        }
        if self.engine.faults.is_none() {
            self.engine.faults = Some(Box::new(FaultRuntime::new(
                FaultPlan::new(),
                self.platform.len(),
            )));
        }
        let idx = self
            .engine
            .faults
            .as_mut()
            .expect("runtime installed above")
            .push_live(FaultEvent { at, acc, kind });
        self.engine.seed_fault_events(idx);
        Ok(at)
    }

    /// Processes every pending event at or before `frontier` and closes
    /// those instants. Callers guarantee (and [`admit`](Self::admit)
    /// enforces) that no later admission lands at or before a closed
    /// instant — the property that makes incremental stepping invisible.
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

    /// The smallest stamp a new admission or order can carry: strictly
    /// past the closed frontier.
    pub fn next_stamp(&self) -> SimTime {
        self.closed
            .map_or(SimTime::ZERO, |c| c + SimTime::from_ns(1))
    }

    /// Where an order stamped `stamp` would take effect, and the phase
    /// windows a replacement workload must resolve: the boundary is
    /// `max(stamp, latest admitted stamp) + max current-phase period`, so
    /// every already-released frame's deadline falls at or before it and
    /// release-time censoring matches a replay that knew the boundary all
    /// along.
    fn boundary_for(&self, stamp: SimTime) -> SimTime {
        let phase = self.phase_starts.len() - 1;
        let slack = self
            .engine
            .ws
            .nodes()
            .filter(|n| n.key().phase == phase)
            .map(NodeInfo::period)
            .max()
            .unwrap_or(SimTime::from_ns(1));
        stamp.max(self.max_admitted) + slack
    }

    /// Validates an order stamp and returns the effective instant.
    fn order_stamp(&self, stamp: SimTime) -> Result<SimTime, LiveError> {
        if self.finished {
            return Err(LiveError::Finished);
        }
        if self.horizon.is_some() {
            return Err(LiveError::Draining);
        }
        let mut at = stamp;
        if let Some(closed) = self.closed {
            at = at.max(closed + SimTime::from_ns(1));
        }
        let current_start = self.phase_starts[self.phase_starts.len() - 1].0;
        if at < current_start {
            return Err(LiveError::SwapPending {
                boundary: current_start,
            });
        }
        Ok(at)
    }

    /// The phase windows the session resolves to under `horizon`.
    fn resolved_phases(&self, horizon: SimTime) -> Vec<Phase> {
        self.phase_starts
            .iter()
            .enumerate()
            .map(|(i, (start, scenario))| {
                let end = self
                    .phase_starts
                    .get(i + 1)
                    .map(|(s, _)| *s)
                    .unwrap_or(horizon);
                Phase::new(*start, end, scenario.clone())
            })
            .collect()
    }

    /// Installs a replacement workload after digest/window validation and
    /// registers any new models with the metrics (idempotent for existing
    /// keys).
    fn install_workload(
        &mut self,
        ws: Arc<WorkloadSet>,
        horizon: SimTime,
    ) -> Result<(), LiveError> {
        check_workload_matches(
            &ws,
            &self.resolved_phases(horizon),
            &self.platform,
            self.cost.as_ref(),
        )?;
        for node in ws.nodes() {
            self.engine.metrics.entry(
                node.key(),
                node.model_name(),
                node.rate().as_fps(),
                node.variant_count(),
            );
        }
        self.engine.ws = ws;
        Ok(())
    }

    /// Plans a scenario hot-swap ordered at `stamp`: the boundary instant
    /// the new phase would start at, and the full phase windows the
    /// replacement [`WorkloadSet`] must be built for — for callers that
    /// build (or cache) the workload themselves and install it with
    /// [`swap_prebuilt`](Self::swap_prebuilt). The plan stays valid until
    /// the session is stepped or admits past it.
    ///
    /// # Errors
    ///
    /// Same validity conditions as [`swap_scenario`](Self::swap_scenario).
    pub fn plan_swap(
        &self,
        scenario: &Scenario,
        stamp: SimTime,
    ) -> Result<(SimTime, Vec<Phase>), LiveError> {
        let at = self.order_stamp(stamp)?;
        let boundary = self.boundary_for(at);
        if boundary >= self.cap {
            return Err(LiveError::PastHorizon {
                at: boundary,
                horizon: self.cap,
            });
        }
        let mut phases = self.resolved_phases(self.cap);
        let last = phases.len() - 1;
        phases[last] = Phase::new(
            phases[last].start(),
            boundary,
            phases[last].scenario().clone(),
        );
        phases.push(Phase::new(boundary, self.cap, scenario.clone()));
        Ok((boundary, phases))
    }

    /// Replaces the served scenario mid-session: the current phase ends at
    /// the returned boundary instant and `scenario` starts there.
    /// Requests admitted after this call target the new scenario (stamps
    /// clamp up to the boundary); in-flight frames of the old phase drain
    /// under the usual phase-flush rules.
    ///
    /// The replacement workload is built internally; use
    /// [`plan_swap`](Self::plan_swap) + [`swap_prebuilt`](Self::swap_prebuilt)
    /// to supply a cached build.
    ///
    /// # Errors
    ///
    /// [`LiveError::SwapPending`] while a previously ordered boundary has
    /// not been reached, [`LiveError::PastHorizon`] when the boundary
    /// would fall at/after the horizon cap, and the usual
    /// draining/finished errors.
    pub fn swap_scenario(
        &mut self,
        scenario: Scenario,
        stamp: SimTime,
    ) -> Result<SimTime, LiveError> {
        let (boundary, phases) = self.plan_swap(&scenario, stamp)?;
        let ws = Arc::new(WorkloadSet::build(
            phases,
            &self.platform,
            self.cost.as_ref(),
        )?);
        self.phase_starts.push((boundary, scenario));
        let phase = self.phase_starts.len() - 1;
        self.install_workload(ws, self.cap)?;
        self.engine
            .queue
            .push(boundary, EventKind::PhaseStart { phase });
        Ok(boundary)
    }

    /// Like [`swap_scenario`](Self::swap_scenario), but installs a
    /// caller-built workload for the windows returned by
    /// [`plan_swap`](Self::plan_swap) with the same `stamp`. The workload
    /// is digest-validated against the session's cost backend and the
    /// planned windows; a mismatch rejects the swap without touching the
    /// session.
    ///
    /// # Errors
    ///
    /// [`SimError::WorkloadMismatch`] (wrapped) for a workload whose
    /// backend digest, platform width, or phase windows disagree; plus the
    /// conditions of [`plan_swap`](Self::plan_swap).
    pub fn swap_prebuilt(
        &mut self,
        scenario: Scenario,
        workload: Arc<WorkloadSet>,
        stamp: SimTime,
    ) -> Result<SimTime, LiveError> {
        let (boundary, phases) = self.plan_swap(&scenario, stamp)?;
        check_workload_matches(&workload, &phases, &self.platform, self.cost.as_ref())?;
        self.phase_starts.push((boundary, scenario));
        let phase = self.phase_starts.len() - 1;
        self.install_workload(workload, self.cap)?;
        self.engine
            .queue
            .push(boundary, EventKind::PhaseStart { phase });
        Ok(boundary)
    }

    /// Begins a graceful drain ordered at `stamp`: admissions stop
    /// immediately, and the session's horizon resolves to the returned
    /// instant — late enough that every admitted frame's deadline falls
    /// at or before it, so no in-flight work is censored by the shutdown
    /// itself. Step the session to the horizon (or call
    /// [`finish`](Self::finish), which does) to complete the drain.
    ///
    /// # Errors
    ///
    /// [`LiveError::SwapPending`] while a swap boundary is outstanding;
    /// draining/finished errors as usual.
    pub fn begin_drain(&mut self, stamp: SimTime) -> Result<SimTime, LiveError> {
        let at = self.order_stamp(stamp)?;
        let horizon = self.boundary_for(at).min(self.cap);
        let phases = self.resolved_phases(horizon);
        let ws = Arc::new(WorkloadSet::build(
            phases,
            &self.platform,
            self.cost.as_ref(),
        )?);
        self.horizon = Some(horizon);
        self.install_workload(ws, horizon)?;
        self.engine.horizon = horizon;
        self.engine.metrics.set_horizon(horizon);
        self.engine.queue.push(horizon, EventKind::End);
        Ok(horizon)
    }

    /// Completes the session: drains (at the next valid stamp) unless a
    /// drain was already ordered, steps to the horizon, and returns the
    /// final metrics plus the replayable session record. An outstanding
    /// swap boundary is fast-forwarded across first — the new phase
    /// starts, then immediately drains.
    ///
    /// # Errors
    ///
    /// Propagates workload-rebuild errors from the implicit drain.
    pub fn finish(mut self) -> Result<(SimOutcome, LiveSessionRecord), LiveError> {
        let horizon = match self.horizon {
            Some(h) => h,
            None if self.finished => self.cap,
            None => {
                let pending = self.phase_starts[self.phase_starts.len() - 1].0;
                if self.closed.is_none_or(|c| c < pending) {
                    self.step_until(pending);
                }
                let stamp = self.next_stamp();
                self.begin_drain(stamp)?
            }
        };
        self.step_until(horizon);
        debug_assert!(self.finished, "stepping to the horizon fires End");
        let record = LiveSessionRecord {
            platform: self.platform.clone(),
            cost: Arc::clone(&self.cost),
            seed: self.seed,
            phases: self.phase_starts.clone(),
            horizon,
            trace: ArrivalTrace::from_events("live-session", self.admitted.clone()),
            faults: self
                .engine
                .faults
                .as_ref()
                .map_or_else(FaultPlan::new, |f| f.plan().clone()),
        };
        Ok((self.engine.take_outcome(), record))
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

    /// The resolved horizon, once a drain was ordered.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Whether a drain was ordered.
    pub fn is_draining(&self) -> bool {
        self.horizon.is_some()
    }

    /// Whether the horizon fired.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The index of the phase requests currently target.
    pub fn current_phase(&self) -> usize {
        self.phase_starts.len() - 1
    }

    /// Number of arrivals admitted so far.
    pub fn admitted_count(&self) -> usize {
        self.admitted.len()
    }

    /// Tasks waiting for dispatch right now.
    pub fn ready_count(&self) -> usize {
        self.engine.arena.ready_ids().len()
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

/// Everything needed to re-run a live session offline: platform, cost
/// backend, seed, the phase schedule as it actually unfolded, the
/// resolved horizon, and the recorded arrival trace.
#[derive(Debug, Clone)]
pub struct LiveSessionRecord {
    platform: Platform,
    cost: Arc<dyn CostBackend>,
    seed: u64,
    phases: Vec<(SimTime, Scenario)>,
    horizon: SimTime,
    trace: ArrivalTrace,
    faults: FaultPlan,
}

impl LiveSessionRecord {
    /// The recorded arrival trace (serializable via
    /// [`ArrivalTrace::to_csv`]).
    pub fn trace(&self) -> &ArrivalTrace {
        &self.trace
    }

    /// The recorded fault plan — every fault the session ran under,
    /// whether installed at start or admitted live, in plan order
    /// (serializable via [`FaultPlan::to_csv`]). Empty when the session
    /// saw no faults.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The session's resolved horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The phase schedule: each phase's start instant and scenario.
    pub fn phases(&self) -> &[(SimTime, Scenario)] {
        &self.phases
    }

    /// The workload-realization seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The calibration digest of the backend that priced the session.
    pub fn cost_digest(&self) -> u64 {
        self.cost.calibration_digest()
    }

    /// The batch-simulation builder equivalent to the live session —
    /// phases, horizon, seed, and backend configured; add an arrival
    /// source (or use [`replay`](Self::replay)).
    pub fn builder(&self) -> SimulationBuilder {
        let mut b = SimulationBuilder::new(self.platform.clone(), self.phases[0].1.clone())
            .duration(self.horizon)
            .seed(self.seed)
            .cost_backend(Arc::clone(&self.cost));
        for (start, scenario) in &self.phases[1..] {
            b = b.add_phase(*start, scenario.clone());
        }
        if !self.faults.is_empty() {
            b = b.faults(self.faults.clone());
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
        self.replay_trace(self.trace.clone(), scheduler)
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
            .arrivals(TraceArrivals::new(Arc::new(self.trace.clone())))
            .trace(config)
            .run(scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let a = s.admit(k.pipeline, k.node, SimTime::from_ns(100)).unwrap();
        assert_eq!(a.frame, 0);
        assert_eq!(a.at, SimTime::from_ns(100));
        // Earlier stamp for the same key clamps to the previous one.
        let b = s.admit(k.pipeline, k.node, SimTime::from_ns(50)).unwrap();
        assert_eq!(b.frame, 1);
        assert_eq!(b.at, SimTime::from_ns(100));
        // After stepping, stamps clamp strictly past the frontier.
        s.step_until(SimTime::from_ns(1_000));
        let c = s.admit(k.pipeline, k.node, SimTime::from_ns(10)).unwrap();
        assert_eq!(c.at, SimTime::from_ns(1_001));
        assert_eq!(s.admitted_count(), 3);
    }

    #[test]
    fn admission_rejects_non_roots_and_unknown_keys() {
        let mut s = session(1);
        // AR_Call pipeline 0: KWS (root) → GNMT (child).
        let err = s
            .admit(PipelineId(0), NodeId(1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, LiveError::UnknownModel { .. }));
        let err = s
            .admit(PipelineId(9), NodeId(0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, LiveError::UnknownModel { .. }));
    }

    #[test]
    fn drain_stops_admissions_and_finishes() {
        let mut s = session(2);
        let k = roots(s.workload(), 0)[0];
        s.admit(k.pipeline, k.node, SimTime::ZERO).unwrap();
        s.step_until(SimTime::from_ns(10_000_000));
        let h = s.begin_drain(s.next_stamp()).unwrap();
        assert!(s.is_draining());
        assert!(matches!(
            s.admit(k.pipeline, k.node, s.next_stamp()),
            Err(LiveError::Draining)
        ));
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
        s.admit(k.pipeline, k.node, SimTime::ZERO).unwrap();
        s.step_until(SimTime::from_ns(1_000_000));
        let boundary = s
            .swap_scenario(scenario(ScenarioKind::VrGaming), s.next_stamp())
            .unwrap();
        assert!(boundary > SimTime::from_ns(1_000_000));
        assert_eq!(s.current_phase(), 1);
        // A second swap before the boundary is rejected.
        let err = s
            .swap_scenario(scenario(ScenarioKind::ArCall), s.next_stamp())
            .unwrap_err();
        assert!(matches!(err, LiveError::SwapPending { .. }));
        // Admissions now target the new phase, clamped to its start.
        let new_roots = roots(s.workload(), 1);
        assert!(!new_roots.is_empty());
        let nk = new_roots[0];
        let a = s.admit(nk.pipeline, nk.node, s.next_stamp()).unwrap();
        assert_eq!(a.key.phase, 1);
        assert_eq!(
            a.at, boundary,
            "transition-window stamps clamp to the boundary"
        );
        // Past the boundary, swapping works again.
        s.step_until(boundary + SimTime::from_ns(1_000_000));
        s.swap_scenario(scenario(ScenarioKind::ArCall), s.next_stamp())
            .unwrap();
        assert_eq!(s.current_phase(), 2);
    }

    #[test]
    fn finish_without_drain_auto_drains() {
        let mut s = session(4);
        let k = roots(s.workload(), 0)[0];
        s.admit(k.pipeline, k.node, SimTime::ZERO).unwrap();
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
            s.admit(k.pipeline, k.node, SimTime::from_ns(t)).unwrap();
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
            s.admit(k.pipeline, k.node, SimTime::from_ns(t)).unwrap();
        }
        s.step_until(SimTime::from_ns(t));
        let boundary = s
            .swap_scenario(scenario(ScenarioKind::VrGaming), s.next_stamp())
            .unwrap();
        let new_keys = roots(s.workload(), 1);
        for i in 0..120u64 {
            let k = new_keys[(i % new_keys.len() as u64) as usize];
            let at = boundary + SimTime::from_ns(i * 800_000);
            s.admit(k.pipeline, k.node, at).unwrap();
            if i % 32 == 0 {
                s.step_until(boundary + SimTime::from_ns(i * 800_000));
            }
        }
        let (live, record) = s.finish().unwrap();
        assert_eq!(record.phases().len(), 2);
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
                s.admit(k.pipeline, k.node, SimTime::from_ns(t)).unwrap();
                if i == 40 {
                    s.admit_fault(
                        AcceleratorId(1),
                        FaultKind::Stall {
                            duration: SimTime::from_ns(9_000_000),
                        },
                        SimTime::from_ns(t),
                    )
                    .unwrap();
                    s.admit_fault(
                        AcceleratorId(2),
                        FaultKind::Slowdown {
                            factor: 2.5,
                            duration: SimTime::from_ns(30_000_000),
                        },
                        SimTime::from_ns(t + 1),
                    )
                    .unwrap();
                }
                if i == 120 {
                    // Mid-run permanent failure: whatever acc 0 is doing is
                    // aborted and requeued; acc 0 never dispatches again.
                    s.admit_fault(AcceleratorId(0), FaultKind::Fail, SimTime::from_ns(t))
                        .unwrap();
                    faulted = true;
                }
                if i % 16 == 0 {
                    s.step_until(SimTime::from_ns(t.saturating_sub(400_000)));
                }
            }
            assert!(faulted);
            let (live, record) = s.finish().unwrap();
            assert_eq!(record.faults().len(), 3);
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
                s.admit(k.pipeline, k.node, SimTime::from_ns(t)).unwrap();
            }
            s.step_until(SimTime::from_ns(t));
            // A long stall starting just before the boundary instant the
            // swap below resolves to (boundary = max admitted + max
            // period, so the window comfortably straddles it).
            s.admit_fault(
                AcceleratorId(1),
                FaultKind::Stall {
                    duration: SimTime::from_ns(400_000_000),
                },
                s.next_stamp(),
            )
            .unwrap();
            let boundary = s
                .swap_scenario(scenario(ScenarioKind::VrGaming), s.next_stamp())
                .unwrap();
            let new_keys = roots(s.workload(), 1);
            for i in 0..120u64 {
                let k = new_keys[(i % new_keys.len() as u64) as usize];
                let at = boundary + SimTime::from_ns(i * 800_000);
                s.admit(k.pipeline, k.node, at).unwrap();
                if i % 32 == 0 {
                    s.step_until(at);
                }
            }
            let (live, record) = s.finish().unwrap();
            assert_eq!(record.phases().len(), 2);
            assert_eq!(record.faults().len(), 1);
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
            s.admit_fault(AcceleratorId(999), FaultKind::Fail, SimTime::ZERO),
            Err(LiveError::Sim(SimError::InvalidFault { .. }))
        ));
        // Sub-unity slowdown factor.
        assert!(matches!(
            s.admit_fault(
                AcceleratorId(0),
                FaultKind::Slowdown {
                    factor: 0.5,
                    duration: SimTime::from_ns(1_000),
                },
                SimTime::ZERO,
            ),
            Err(LiveError::Sim(SimError::InvalidFault { .. }))
        ));
        // Clamps strictly past the closed frontier.
        s.step_until(SimTime::from_ns(1_000));
        let at = s
            .admit_fault(
                AcceleratorId(0),
                FaultKind::Stall {
                    duration: SimTime::from_ns(500),
                },
                SimTime::from_ns(10),
            )
            .unwrap();
        assert_eq!(at, SimTime::from_ns(1_001));
        // Past-horizon stamps are rejected.
        assert!(matches!(
            s.admit_fault(
                AcceleratorId(0),
                FaultKind::Fail,
                SimTime::from_ns(DEFAULT_HORIZON_CAP_NS),
            ),
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
}
