//! Deterministic discrete-event simulator of a multi-accelerator ML system
//! executing real-time multi-model (RTMM) workloads.
//!
//! This is the substrate the DREAM paper evaluates on: sub-accelerators
//! execute layers non-preemptively; inference requests arrive periodically
//! per pipeline; cascaded models release their children when (and only
//! when) the parent's control dependency fires; operator-level dynamicity
//! (layer skipping, early exits) is resolved *during* execution, exactly
//! when a real system would learn the outcome.
//!
//! # Architecture
//!
//! * [`SimulationBuilder`] assembles a [`Platform`](dream_cost::Platform), a
//!   [`Scenario`](dream_models::Scenario) (or several phases of scenarios
//!   for task-level dynamicity), a seed, and a duration. It is the one
//!   configuration type for every way the engine runs: a batch
//!   [`run`](SimulationBuilder::run) or a [`LiveSession`]
//!   ([`start_live`](SimulationBuilder::start_live)).
//! * The engine is a staged executor (`engine/`): events drain one
//!   *instant* at a time from a time-bucketed, pooled event queue (sorted
//!   once per instant by the canonical order — see the `event` module —
//!   so steady-state stepping allocates nothing) into per-stage modules
//!   (arrivals, completion, dynamics, dispatch, accounting) that update a
//!   slab-backed task arena and an idle-accelerator index *incrementally*. Whenever an
//!   accelerator is idle and work is ready it invokes a pluggable
//!   [`Scheduler`], which sees an immutable borrowed [`SystemView`] over
//!   that state — never a per-decision reconstruction — and returns a
//!   [`Decision`]: layer→accelerator assignments (possibly gangs), frame
//!   drops, and supernet variant switches.
//! * Root-frame arrivals come through the [`ArrivalSource`] seam
//!   ([`arrivals`]): the default [`PeriodicArrivals`] reproduces the
//!   paper's fixed-FPS pipelines bit-for-bit, while [`PoissonArrivals`],
//!   [`MmppArrivals`], and [`TraceArrivals`] (replaying a recorded
//!   [`ArrivalTrace`]) open the executor to served-traffic experiments —
//!   open-loop stochastic streams and recorded request logs.
//! * All randomness (cascade edges, skip gates, early exits, stochastic
//!   inter-arrivals) is *counter-based*: outcomes are pure functions of
//!   `(seed, pipeline, node, frame, gate)`, so every scheduler faces the
//!   identical realized workload — the apples-to-apples comparison the
//!   paper's evaluation relies on.
//! * [`Metrics`] aggregates per-model deadline violations, drops and
//!   energy, from which `dream-core` computes UXCost (Algorithm 2), plus
//!   per-request sojourn times in a mergeable [`Histogram`] whose
//!   p50/p95/p99 (at most 12.5% above the exact values) are the latency
//!   axis for open-loop traffic.
//!
//! # Phase and censoring boundary semantics
//!
//! Workload phases are half-open `[start, end)` windows; gaps between
//! phases are legal and deploy no scenario
//! ([`WorkloadSet::active_phase_at`]). Arrivals occur strictly before
//! their phase's end and the horizon. A frame is *counted* iff its
//! deadline falls at or before both boundaries; completions landing
//! exactly on a boundary instant are processed before the boundary takes
//! effect, so inclusive deadlines and strict arrivals agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
mod determ;
mod engine;
mod error;
mod event;
pub mod faults;
mod fold;
pub mod live;
mod metrics;
mod scheduler;
mod task;
mod time;
mod workload;

pub use arrivals::{
    ArrivalSource, ArrivalTrace, MmppArrivals, PeriodicArrivals, PoissonArrivals, TraceArrivals,
};
pub use determ::{DeterministicCoin, Fnv64};
pub use engine::{SimOutcome, SimulationBuilder};
pub use error::SimError;
pub use faults::{FaultEvent, FaultKind, FaultPlan, StormConfig};
pub use fold::canonical_sum;
#[doc(hidden)]
pub use live::LiveSessionBuilder;
pub use live::{Applied, LiveError, LiveSession, LiveSessionRecord, LiveStatus, SessionInput};
pub use metrics::{Histogram, Metrics, ModelStats, HISTOGRAM_BUCKETS};
pub use scheduler::{
    AccState, Assignment, Decision, Gang, Scheduler, SchedulerCapabilities, SystemView, TaskEvent,
    TaskEventKind,
};
pub use task::{QueuedLayer, Task, TaskId, TaskState};
// The flight-recorder vocabulary, re-exported so downstream crates need
// no direct dream-trace dependency (see `dream_trace` for the schema).
pub use dream_trace::{
    DecisionRecord, FaultTag, ModelRef, Trace, TraceConfig, TraceEvent, TraceEventKind,
    TraceRuntime, DEFAULT_TRACE_CAPACITY, SCORE_TERM_NAMES,
};
pub use time::{Micros, Millis, SimTime};
pub use workload::{LayerId, ModelKey, NodeInfo, Phase, WorkloadSet};
