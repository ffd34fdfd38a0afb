//! The staged simulation executor.
//!
//! One simulation is executed by [`Engine`], a discrete-event loop split
//! into explicit stages per event batch:
//!
//! 1. **advance** — pop every event at the earliest pending instant from
//!    the [`EventQueue`](crate::event::EventQueue), in the canonical
//!    order, and apply it ([`arrivals`], [`completion`]), updating the
//!    slab-backed [`TaskArena`](arena::TaskArena) incrementally; each
//!    handler resolves its task's slot once;
//! 2. **decide** — when work is ready and capacity is idle, hand the
//!    scheduler a borrowed [`SystemView`](crate::SystemView) over that
//!    state. Only the two short lists the view serves are brought up to
//!    date per decision: the idle accelerators and the ready tasks;
//! 3. **dispatch** — validate and apply the returned
//!    [`Decision`](crate::Decision) ([`dispatch`]), scheduling
//!    `LayerDone` completions back into the queue.
//!
//! Stochastic workload structure (cascades, skips, early exits) resolves
//! in [`dynamics`]; metric updates live in [`accounting`].

pub(crate) mod accounting;
pub(crate) mod arena;
pub(crate) mod arrivals;
pub(crate) mod completion;
pub(crate) mod dispatch;
pub(crate) mod dynamics;
pub(crate) mod faulting;

#[cfg(test)]
mod tests;

use std::sync::Arc;

use dream_cost::{AcceleratorId, CostBackend, CostModel, Platform};
use dream_models::Scenario;
use dream_trace::{Trace, TraceConfig, TraceEventKind, TraceRuntime};

use crate::arrivals::{ArrivalSource, PeriodicArrivals};
use crate::determ::DeterministicCoin;
use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultPlan, FaultRuntime};
use crate::metrics::Metrics;
use crate::scheduler::{AccState, Scheduler};
use crate::task::{QueuedLayer, TaskId};
use crate::workload::{Phase, WorkloadSet};
use crate::{SimError, SimTime};

use arena::TaskArena;

/// Configures a simulation — the one builder for every way the engine
/// runs. It has two terminal methods:
///
/// * [`run`](Self::run) — a batch run over the whole horizon;
/// * [`start_live`](Self::start_live) — an incrementally stepped
///   [`LiveSession`](crate::LiveSession) fed by
///   [`apply`](crate::LiveSession::apply) (see [`crate::live`]).
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct SimulationBuilder {
    pub(crate) platform: Platform,
    pub(crate) phases: Vec<(SimTime, Scenario)>,
    pub(crate) duration: SimTime,
    pub(crate) seed: u64,
    pub(crate) cost: Arc<dyn CostBackend>,
    /// `None` runs [`PeriodicArrivals`]; kept optional so a live start can
    /// refuse an explicit source instead of ignoring it.
    pub(crate) arrivals: Option<Box<dyn ArrivalSource>>,
    pub(crate) prebuilt: Option<Arc<WorkloadSet>>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) trace: Option<TraceConfig>,
}

impl SimulationBuilder {
    /// Starts a builder for `scenario` running on `platform` from time 0.
    pub fn new(platform: Platform, scenario: Scenario) -> Self {
        SimulationBuilder {
            platform,
            phases: vec![(SimTime::ZERO, scenario)],
            duration: SimTime::from(crate::Millis::new(2_000)),
            seed: 0,
            cost: Arc::new(CostModel::paper_default()),
            arrivals: None,
            prebuilt: None,
            faults: None,
            trace: None,
        }
    }

    /// Sets the measurement horizon (default: the paper's 2 s window).
    /// For a live session it is also the horizon cap: the session ends at
    /// this virtual instant even without a drain. Pass
    /// [`DEFAULT_HORIZON_CAP_NS`](crate::live::DEFAULT_HORIZON_CAP_NS) for
    /// an effectively open-ended session.
    pub fn duration(mut self, duration: impl Into<SimTime>) -> Self {
        self.duration = duration.into();
        self
    }

    /// Sets the workload-realization seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the analytical cost model (default: calibrated paper
    /// defaults). Sugar for [`cost_backend`](Self::cost_backend) with a
    /// [`CostModel`].
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = Arc::new(cost);
        self
    }

    /// Replaces the cost backend — the seam that swaps the analytical
    /// model for e.g. a table-driven MAESTRO import
    /// ([`dream_cost::TableBackend`]). The backend is consulted only
    /// while building the [`WorkloadSet`] tables and for on-demand gang
    /// costing; the per-decision hot path reads the prebuilt tables.
    pub fn cost_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.cost = backend;
        self
    }

    /// Replaces the arrival source (default: [`PeriodicArrivals`], the
    /// paper's fixed-FPS pipelines). See the
    /// [`arrivals`](crate::arrivals) module for the built-in sources.
    pub fn arrivals(mut self, source: impl ArrivalSource + 'static) -> Self {
        self.arrivals = Some(Box::new(source));
        self
    }

    /// Installs a deterministic fault schedule (see [`crate::faults`]):
    /// at each event's time the engine masks the accelerator (stall),
    /// fails it permanently (aborting and requeueing its in-flight work),
    /// or rescales its dispatch latency (slowdown). With no plan installed
    /// the fault seam is completely inert.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs the flight recorder (see [`dream_trace`]): the engine
    /// records structured sim-time events into a bounded ring and the
    /// outcome carries the extracted [`Trace`]. With no config installed
    /// the trace seam is completely inert, and recording never alters the
    /// schedule — a traced run's metrics fingerprint equals the untraced
    /// run's.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Adds a workload phase: at `start`, the running scenario is replaced
    /// by `scenario` (task-level dynamicity — in-flight frames of the old
    /// phase are flushed). Phases may be added in any order; they are
    /// sorted by start time.
    pub fn add_phase(mut self, start: impl Into<SimTime>, scenario: Scenario) -> Self {
        self.phases.push((start.into(), scenario));
        self
    }

    /// Resolves the configured phases into time-ordered `[start, end)`
    /// windows.
    fn resolved_phases(&self) -> Result<Vec<Phase>, SimError> {
        if self.duration == SimTime::ZERO {
            return Err(SimError::ZeroDuration);
        }
        let mut phases = self.phases.clone();
        phases.sort_by_key(|(start, _)| *start);
        for w in phases.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(SimError::InvalidPhase {
                    reason: format!("two phases share start time {}", w[0].0),
                });
            }
        }
        if phases[0].0 != SimTime::ZERO {
            return Err(SimError::InvalidPhase {
                reason: "the first phase must start at time 0".into(),
            });
        }
        if let Some((start, _)) = phases.iter().find(|(s, _)| *s >= self.duration) {
            return Err(SimError::InvalidPhase {
                reason: format!("phase at {start} starts at/after the horizon"),
            });
        }
        let mut resolved = Vec::with_capacity(phases.len());
        for (i, (start, scenario)) in phases.iter().enumerate() {
            let end = phases.get(i + 1).map(|(s, _)| *s).unwrap_or(self.duration);
            resolved.push(Phase {
                start: *start,
                end,
                scenario: scenario.clone(),
            });
        }
        Ok(resolved)
    }

    /// Builds the [`WorkloadSet`] this configuration would simulate,
    /// without running it — e.g. to record an
    /// [`ArrivalTrace`](crate::ArrivalTrace) against it.
    ///
    /// # Errors
    ///
    /// Same phase/duration validation as [`run`](Self::run).
    pub fn build_workload(&self) -> Result<WorkloadSet, SimError> {
        WorkloadSet::build(self.resolved_phases()?, &self.platform, self.cost.as_ref())
    }

    /// Reuses an already-built [`WorkloadSet`] instead of rebuilding the
    /// offline cost tables from scratch — the seam the experiment grid's
    /// shared-workload cache plugs into. The workload **must** have been
    /// produced by [`build_workload`](Self::build_workload) on an
    /// identically configured builder (same phases, platform, and cost
    /// backend); [`run`](Self::run) and [`start_live`](Self::start_live)
    /// verify the platform width, the phase schedule, and the backend's
    /// calibration digest, and reject mismatches — including a workload
    /// built by a *different backend family* (analytical vs. table
    /// import), since the digest mixes the backend kind. Live sessions
    /// started from one `Arc` share its tables and own only their task
    /// arena, event queue and metrics.
    pub fn prebuilt_workload(mut self, workload: Arc<WorkloadSet>) -> Self {
        self.prebuilt = Some(workload);
        self
    }

    /// The workload to run: the prebuilt one after validating it against
    /// the resolved configuration (cheap structural checks; see
    /// [`prebuilt_workload`](Self::prebuilt_workload)), else a fresh build.
    pub(crate) fn workload(&self) -> Result<Arc<WorkloadSet>, SimError> {
        match &self.prebuilt {
            Some(ws) => {
                let resolved = self.resolved_phases()?;
                check_workload_matches(ws, &resolved, &self.platform, self.cost.as_ref())?;
                Ok(Arc::clone(ws))
            }
            None => Ok(Arc::new(self.build_workload()?)),
        }
    }

    /// Runs the simulation to completion under `scheduler`.
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroDuration`] for an empty horizon.
    /// * [`SimError::InvalidPhase`] if two phases share a start time or a
    ///   phase starts at/after the horizon.
    /// * [`SimError::InvalidTrace`] if the arrival source is inconsistent
    ///   with the workload.
    /// * [`SimError::WorkloadMismatch`] if a prebuilt workload does not
    ///   match the configured phases/platform.
    /// * [`SimError::InvalidFault`] if an installed fault plan names an
    ///   out-of-range accelerator or carries an invalid slowdown factor.
    pub fn run(self, scheduler: &mut dyn Scheduler) -> Result<SimOutcome, SimError> {
        let ws = self.workload()?;
        let arrivals = self.arrivals.unwrap_or_else(|| Box::new(PeriodicArrivals));
        arrivals.validate(&ws, self.duration)?;
        if let Some(plan) = &self.faults {
            plan.validate(self.platform.len())?;
        }
        let mut engine = Engine::new(
            ws,
            self.platform,
            self.cost,
            self.seed,
            self.duration,
            arrivals,
            self.faults,
            self.trace,
        );
        Ok(engine.run(scheduler))
    }
}

/// Converts a [`ModelKey`](crate::workload::ModelKey) into the trace
/// crate's raw-index [`ModelRef`](dream_trace::ModelRef).
pub(crate) fn trace_model(key: crate::workload::ModelKey) -> dream_trace::ModelRef {
    dream_trace::ModelRef {
        phase: key.phase as u32,
        pipeline: key.pipeline.0 as u32,
        node: key.node.0 as u32,
    }
}

/// Checks a prebuilt [`WorkloadSet`] against a resolved configuration:
/// same backend calibration digest (which mixes the backend *kind*), same
/// platform width, and the same phase windows. Its one caller is the
/// builder's `workload` helper, which [`SimulationBuilder::run`] and
/// [`SimulationBuilder::start_live`] share.
pub(crate) fn check_workload_matches(
    ws: &WorkloadSet,
    resolved: &[Phase],
    platform: &Platform,
    cost: &dyn CostBackend,
) -> Result<(), SimError> {
    if ws.cost_digest() != cost.calibration_digest() {
        return Err(SimError::WorkloadMismatch {
            reason: "workload tables were built with a different cost backend/calibration".into(),
        });
    }
    if ws.acc_count() != platform.len() {
        return Err(SimError::WorkloadMismatch {
            reason: format!(
                "workload tables were built for {} accelerators, platform has {}",
                ws.acc_count(),
                platform.len()
            ),
        });
    }
    if ws.phases().len() != resolved.len() {
        return Err(SimError::WorkloadMismatch {
            reason: format!(
                "workload has {} phases, configuration resolves {}",
                ws.phases().len(),
                resolved.len()
            ),
        });
    }
    for (built, want) in ws.phases().iter().zip(resolved) {
        if built.start() != want.start() || built.end() != want.end() {
            return Err(SimError::WorkloadMismatch {
                reason: format!(
                    "phase window [{}, {}) differs from configured [{}, {})",
                    built.start(),
                    built.end(),
                    want.start(),
                    want.end()
                ),
            });
        }
    }
    Ok(())
}

/// The result of a completed simulation.
#[derive(Debug)]
pub struct SimOutcome {
    metrics: Metrics,
    final_time: SimTime,
    trace: Option<Trace>,
}

impl SimOutcome {
    /// Aggregated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the outcome, returning the metrics.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// The time the simulation stopped (= the horizon).
    pub fn final_time(&self) -> SimTime {
        self.final_time
    }

    /// The flight-recorder trace, when one was installed via
    /// [`SimulationBuilder::trace`].
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Consumes the outcome, returning the trace (if recorded).
    pub fn into_trace(self) -> Option<Trace> {
        self.trace
    }
}

/// What one [`Engine::step_event`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepStatus {
    /// An event at or before the bound was applied.
    Processed,
    /// No pending event at or before the bound.
    Blocked,
    /// The `End` event fired; the run is over.
    Finished,
}

/// A layer currently executing: what to charge on completion. It lives in
/// the task's arena slot; the gang to free lives in the task's own
/// [`TaskState::Running`](crate::task::TaskState) — one owner, no
/// per-dispatch clone.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub energy_pj: f64,
    /// The instant the scheduled `LayerDone` will fire. A popped
    /// `LayerDone` whose task has no in-flight entry at exactly this
    /// instant is *stale* — the dispatch was aborted by an accelerator
    /// failure after the completion was scheduled (fault runs only; the
    /// zero-fault path never aborts).
    pub done_at: SimTime,
    pub layer: QueuedLayer,
}

pub(crate) struct Engine {
    pub(crate) now: SimTime,
    pub(crate) horizon: SimTime,
    /// Shared, immutable offline tables: several engines (e.g. the cells
    /// of an experiment grid over one scenario) may hold the same build.
    pub(crate) ws: Arc<WorkloadSet>,
    pub(crate) platform: Platform,
    pub(crate) cost: Arc<dyn CostBackend>,
    pub(crate) coin: DeterministicCoin,
    /// Where root-frame arrivals come from (stage 1a's seam).
    pub(crate) arrivals: Box<dyn ArrivalSource>,
    pub(crate) accs: Vec<AccState>,
    pub(crate) arena: TaskArena,
    /// Idle accelerator ids, ascending: the accelerators that run nothing
    /// and that no fault masks, rebuilt before each decision.
    pub(crate) idle: Vec<AcceleratorId>,
    /// Tasks draining their current layer before being discarded by a
    /// phase flush, ascending by id, each with the instant the flush was
    /// ordered (a layer completing exactly at that instant completed *by*
    /// the boundary and may still finish its task).
    pub(crate) flushing: Vec<(TaskId, SimTime)>,
    pub(crate) queue: EventQueue,
    pub(crate) metrics: Metrics,
    pub(crate) current_phase: usize,
    /// Retired [`Task`](crate::task::Task) shells, reused by the next
    /// release so steady-state task churn allocates nothing.
    pub(crate) task_pool: Vec<crate::task::Task>,
    /// Fault-injection runtime; `None` (the default) keeps the fault seam
    /// completely inert — no per-event or per-dispatch cost.
    pub(crate) faults: Option<Box<FaultRuntime>>,
    /// Flight recorder; `None` (the default) keeps the trace seam
    /// completely inert — each emission point pays one `is_some` branch.
    pub(crate) trace: Option<Box<TraceRuntime>>,
}

impl Engine {
    #[allow(clippy::too_many_arguments)] // crate-private; SimulationBuilder is the public face
    pub(crate) fn new(
        ws: Arc<WorkloadSet>,
        platform: Platform,
        cost: Arc<dyn CostBackend>,
        seed: u64,
        horizon: SimTime,
        arrivals: Box<dyn ArrivalSource>,
        faults: Option<FaultPlan>,
        trace: Option<TraceConfig>,
    ) -> Self {
        let accs: Vec<AccState> = platform.ids().map(AccState::new).collect();
        let idle = Vec::with_capacity(platform.len());
        let faults = faults.map(|plan| Box::new(FaultRuntime::new(plan, platform.len())));
        let trace = trace.map(|cfg| Box::new(TraceRuntime::new(cfg)));
        let mut metrics = Metrics::new(horizon, platform.len());
        for node in ws.nodes() {
            metrics.entry(
                node.key(),
                node.model_name(),
                node.rate().as_fps(),
                node.variant_count(),
            );
        }
        Engine {
            now: SimTime::ZERO,
            horizon,
            ws,
            platform,
            cost,
            coin: DeterministicCoin::new(seed),
            arrivals,
            accs,
            arena: TaskArena::new(),
            idle,
            flushing: Vec::new(),
            queue: EventQueue::new(),
            metrics,
            current_phase: 0,
            task_pool: Vec::new(),
            faults,
            trace,
        }
    }

    /// Records one trace event at the current instant — a no-op branch
    /// when no recorder is installed.
    #[inline]
    pub(crate) fn trace_event(&mut self, kind: TraceEventKind) {
        if let Some(trace) = &mut self.trace {
            trace.record(self.now.as_ns(), kind);
        }
    }

    /// Whether a recorder is installed (emission points that must build a
    /// payload first check this to keep the off path free).
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    pub(crate) fn run(&mut self, scheduler: &mut dyn Scheduler) -> SimOutcome {
        // Seed phase starts (which in turn seed frame arrivals) and the end.
        for (idx, phase) in self.ws.phases().to_vec().iter().enumerate() {
            self.queue
                .push(phase.start, EventKind::PhaseStart { phase: idx });
        }
        self.queue.push(self.horizon, EventKind::End);
        self.seed_fault_events(0);

        while matches!(
            self.step_event(scheduler, SimTime::MAX),
            StepStatus::Processed
        ) {}

        self.take_outcome()
    }

    /// Drains and applies every pending event at the next instant if that
    /// instant is at or before `bound` — one iteration of the staged loop,
    /// shared verbatim by the batch [`run`](Self::run) (bound = ∞) and the
    /// incremental [`LiveSession`](crate::live::LiveSession) stepping
    /// (bound = the live frontier). Because the event queue's intra-instant
    /// order is canonical (see [`crate::event`]), draining the whole
    /// instant in one call is invisible: the same events produce the same
    /// processing sequence, and the bound can only split *between*
    /// instants, never inside one. A live caller never bounds mid-instant
    /// anyway: admissions carry stamps strictly past the frontier, so
    /// everything at `now` is already queued.
    pub(crate) fn step_event(
        &mut self,
        scheduler: &mut dyn Scheduler,
        bound: SimTime,
    ) -> StepStatus {
        let now = match self.queue.peek_time() {
            None => return StepStatus::Blocked,
            Some(t) if t > bound => return StepStatus::Blocked,
            Some(t) => t,
        };
        // Stage 1 — advance: apply every event at this instant to the
        // incremental state, in canonical order, without re-searching the
        // queue per event (each iteration is a cursor bump in the
        // instant's cell; a handler pushing a same-instant event — e.g. a
        // back-to-back arrival recurrence — lands in the unpopped
        // remainder at its canonical position).
        self.now = now;
        while let Some(event) = self.queue.pop_if_at(now) {
            self.metrics.events_processed += 1;
            match event.kind {
                EventKind::End => {
                    self.trace_event(TraceEventKind::Drain);
                    self.drain_horizon_completions(scheduler);
                    return StepStatus::Finished;
                }
                EventKind::PhaseStart { phase } => self.start_phase(phase, scheduler),
                EventKind::FrameArrival {
                    phase,
                    pipeline,
                    node,
                    frame,
                } => self.frame_arrival(phase, pipeline, node, frame, scheduler),
                EventKind::LayerDone { task } => self.layer_done(task, scheduler),
                EventKind::FaultStart { fault } => self.fault_start(fault),
                EventKind::FaultEnd { fault } => self.fault_end(fault),
            }
        }
        // The instant is fully drained, so the view reflects every
        // accelerator freed at it.
        debug_assert!(self.arena.ready_list_is_consistent());
        // Stages 2 and 3 — decide over the borrowed view, then dispatch
        // the decision.
        self.invoke_scheduler(scheduler);
        StepStatus::Processed
    }

    /// Finalizes accounting and moves the metrics out — the common tail of
    /// a completed run.
    pub(crate) fn take_outcome(&mut self) -> SimOutcome {
        self.finalize_accounting();
        SimOutcome {
            metrics: std::mem::replace(&mut self.metrics, Metrics::new(self.horizon, 0)),
            final_time: self.now,
            trace: self.trace.take().map(|rt| rt.finish()),
        }
    }

    /// Applies the layer completions scheduled at exactly the horizon
    /// instant before the run stops. A layer finishing *at* the horizon
    /// finished *by* it, so a frame whose deadline is exactly the horizon
    /// (which release-time censoring counts) gets its completion recorded
    /// instead of silently becoming a violation — the inclusive-deadline
    /// counterpart of stopping the arrival recurrence strictly before the
    /// horizon.
    pub(crate) fn drain_horizon_completions(&mut self, scheduler: &mut dyn Scheduler) {
        while let Some(event) = self.queue.pop_if_at(self.now) {
            if let EventKind::LayerDone { task } = event.kind {
                self.metrics.events_processed += 1;
                self.layer_done(task, scheduler);
            }
        }
    }

    // ---- small helpers shared by the stage modules ----

    /// Whether a fault currently excludes `acc` from dispatch. `false`
    /// whenever no fault runtime is installed.
    pub(crate) fn fault_masked(&self, acc: AcceleratorId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.acc(acc).masked())
    }

    /// Marks a task as draining toward a flush ordered at the current
    /// instant.
    pub(crate) fn flushing_insert(&mut self, task: TaskId) {
        if let Err(pos) = self.flushing.binary_search_by_key(&task, |&(id, _)| id) {
            self.flushing.insert(pos, (task, self.now));
        }
    }

    /// Removes a task from the flush list, returning the instant its
    /// flush was ordered.
    pub(crate) fn flushing_remove(&mut self, task: TaskId) -> Option<SimTime> {
        match self.flushing.binary_search_by_key(&task, |&(id, _)| id) {
            Ok(pos) => Some(self.flushing.remove(pos).1),
            Err(_) => None,
        }
    }

    /// Returns a removed task's shell to the pool for the next release to
    /// reuse. Capped so a transient burst cannot pin memory forever.
    pub(crate) fn recycle_task(&mut self, task: crate::task::Task) {
        const TASK_POOL_CAP: usize = 1024;
        if self.task_pool.len() < TASK_POOL_CAP {
            self.task_pool.push(task);
        }
    }
}
